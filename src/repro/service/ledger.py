"""The durable job ledger: one shared queue, many workers, one truth.

The ledger owns every job's lifecycle (``queued`` → ``running`` →
``done``/``failed``) and the FIFO work queue that local worker threads
and remote HTTP workers both drain.  All mutations happen under one lock
and bump a monotonic *version*; pollers long-wait on the condition
variable for "anything newer than version V about job J", which is what
the server's progress stream is built from.

Durability is a JSONL journal (``ledger.jsonl``): every mutation appends
one line, and opening a ledger replays the journal.  Jobs that were
``queued`` or ``running`` when the process died are re-queued on replay
— their spec documents are journaled with the submission, so a restarted
server resumes interrupted work with no client involvement.  (Identical
respecs still dedupe against the store first, so a replayed job whose
result was already stored completes instantly on its next claim.)

Submission dedupe — the "concurrent duplicate submissions execute once"
contract — lives here: an active (non-terminal, non-forced) job with the
same key is returned as-is to every duplicate submitter, under the same
lock that created it.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, Optional

from .protocol import JOB_STATES, JobRecord, ServiceError


class JobLedger:
    """In-memory job table + FIFO queue, journaled to ``ledger.jsonl``."""

    def __init__(self, root: Path | str) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.journal_path = self.root / "ledger.jsonl"
        self._lock = threading.Lock()
        self._changed = threading.Condition(self._lock)
        #: Notified only when a job enters the queue (idle workers wait on it).
        self._enqueued = threading.Condition(self._lock)
        self._jobs: dict[str, JobRecord] = {}
        self._specs: dict[str, Mapping[str, Any]] = {}
        self._queue: list[str] = []
        self._version = 0
        self._next_serial = 1
        #: Jobs handed to a worker since this process started (the cache
        #: dedupe tests read this through the health endpoint).
        self.executions = 0
        self._replay()

    # ------------------------------------------------------------------
    # Journal
    # ------------------------------------------------------------------
    def _append_journal(self, op: str, payload: dict[str, Any]) -> None:
        line = json.dumps({"op": op, **payload}, sort_keys=True)
        with self.journal_path.open("a") as handle:
            handle.write(line + "\n")

    def _replay(self) -> None:
        if not self.journal_path.exists():
            return
        with self.journal_path.open() as handle:
            for line_number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                    self._apply(entry)
                except (json.JSONDecodeError, KeyError, ServiceError):
                    # A torn final line (crash mid-append) is expected;
                    # anything else in the middle would have broken every
                    # subsequent line too, so stop replaying either way.
                    break
        # Work that was queued or in flight when the process died goes
        # back on the queue, oldest first (ids are serial-ordered).
        for job_id in sorted(self._jobs, key=self._serial_of):
            job = self._jobs[job_id]
            if job.state == "running":
                self._jobs[job_id] = job.with_state(state="queued", worker="")
            if self._jobs[job_id].state == "queued" and job_id not in self._queue:
                self._queue.append(job_id)

    @staticmethod
    def _serial_of(job_id: str) -> int:
        try:
            return int(job_id.rsplit("-", 1)[1])
        except (IndexError, ValueError):
            return 0

    def _apply(self, entry: dict[str, Any]) -> None:
        """Replay one journal line into the in-memory tables."""
        op = entry["op"]
        if op == "submit":
            job = JobRecord.from_dict(entry["job"])
            self._jobs[job.id] = job
            self._specs[job.id] = entry["spec"]
            serial = self._serial_of(job.id)
            self._next_serial = max(self._next_serial, serial + 1)
        elif op == "update":
            job_id = entry["id"]
            if job_id not in self._jobs:
                raise ServiceError(f"journal update for unknown job {job_id}")
            self._jobs[job_id] = self._jobs[job_id].with_state(**entry["changes"])
            if self._jobs[job_id].terminal:
                self._specs.pop(job_id, None)
        else:
            raise ServiceError(f"unknown journal op {op!r}")
        self._version = max(self._version, entry.get("version", 0))

    # ------------------------------------------------------------------
    # Mutations (all under the lock, all journaled, all bump the version)
    # ------------------------------------------------------------------
    def _bump(self) -> int:
        self._version += 1
        return self._version

    def _update(self, job_id: str, **changes: Any) -> JobRecord:
        job = self._jobs.get(job_id)
        if job is None:
            raise ServiceError(f"unknown job {job_id!r}")
        version = self._bump()
        job = job.with_state(version=version, **changes)
        self._jobs[job_id] = job
        if job.terminal:
            self._specs.pop(job_id, None)
        self._append_journal(
            "update",
            {
                "id": job_id,
                "changes": {**changes, "version": version},
                "version": version,
            },
        )
        self._changed.notify_all()
        return job

    def submit(
        self,
        key: str,
        spec_digest: str,
        seed: int,
        kind: str,
        spec: Mapping[str, Any],
        total: int,
        force: bool = False,
        cached_digest: Optional[str] = None,
    ) -> tuple[JobRecord, bool]:
        """Record a submission; returns ``(job, created)``.

        * ``cached_digest`` set → the store already holds the verified
          result; the job is born ``done`` with ``cached=True`` and never
          touches the queue.
        * otherwise, an *active* job with the same key absorbs the
          submission (``created=False``) unless ``force`` — duplicates
          collapse to one execution by construction.
        """
        with self._lock:
            if cached_digest is None and not force:
                for job_id in self._queue_snapshot():
                    job = self._jobs[job_id]
                    if job.key == key and not job.terminal:
                        return job, False
                # Running jobs are no longer in the queue but still absorb
                # duplicates: the execution they stand for is the same.
                for job in self._jobs.values():
                    if job.key == key and not job.terminal:
                        return job, False
            job_id = f"job-{self._next_serial:06d}"
            self._next_serial += 1
            version = self._bump()
            job = JobRecord(
                id=job_id,
                key=key,
                spec_digest=spec_digest,
                seed=seed,
                kind=kind,
                force=force,
                progress={"done": 0, "total": total},
                version=version,
            )
            if cached_digest is not None:
                job = job.with_state(
                    state="done",
                    cached=True,
                    digest=cached_digest,
                    progress={"done": total, "total": total},
                )
            self._jobs[job_id] = job
            if not job.terminal:
                self._specs[job_id] = spec
                self._queue.append(job_id)
                self._enqueued.notify_all()
            self._append_journal(
                "submit", {"job": job.to_dict(), "spec": spec, "version": version}
            )
            self._changed.notify_all()
            return job, True

    def _queue_snapshot(self) -> list[str]:
        return list(self._queue)

    def claim(self, worker: str) -> Optional[tuple[JobRecord, Mapping[str, Any]]]:
        """Hand the oldest queued job (and its spec document) to a worker."""
        with self._lock:
            while self._queue:
                job_id = self._queue.pop(0)
                job = self._jobs.get(job_id)
                if job is None or job.state != "queued":
                    continue
                spec = self._specs.get(job_id)
                if spec is None:
                    continue
                self.executions += 1
                job = self._update(job_id, state="running", worker=worker)
                return job, spec
            return None

    def report_progress(self, job_id: str, done: int, total: int) -> JobRecord:
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                raise ServiceError(f"unknown job {job_id!r}")
            if job.terminal:
                return job
            return self._update(
                job_id, progress={"done": int(done), "total": int(total)}
            )

    def complete(self, job_id: str, digest: str, cached: bool = False) -> JobRecord:
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                raise ServiceError(f"unknown job {job_id!r}")
            total = int(job.progress.get("total", 1)) or 1
            return self._update(
                job_id,
                state="done",
                cached=cached,
                digest=digest,
                progress={"done": total, "total": total},
            )

    def fail(self, job_id: str, error: str) -> JobRecord:
        with self._lock:
            return self._update(job_id, state="failed", error=str(error))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def get(self, job_id: str) -> Optional[JobRecord]:
        with self._lock:
            return self._jobs.get(job_id)

    def spec_of(self, job_id: str) -> Optional[Mapping[str, Any]]:
        """The spec document of an *active* job (dropped once terminal)."""
        with self._lock:
            return self._specs.get(job_id)

    def jobs(self, state: Optional[str] = None) -> list[JobRecord]:
        if state is not None and state not in JOB_STATES:
            raise ServiceError(
                f"unknown job state {state!r}; known: {', '.join(JOB_STATES)}"
            )
        with self._lock:
            records = sorted(self._jobs.values(), key=lambda j: self._serial_of(j.id))
        if state is None:
            return records
        return [job for job in records if job.state == state]

    def counts(self) -> dict[str, int]:
        with self._lock:
            counts = {state: 0 for state in JOB_STATES}
            for job in self._jobs.values():
                counts[job.state] += 1
            counts["executions"] = self.executions
            counts["queue"] = len(self._queue)
            return counts

    def wait_for_queued(self, timeout: float, stopped: Callable[[], bool]) -> None:
        """Block until the queue holds a job, ``stopped()`` turns true (see
        :meth:`wake`) or ``timeout`` seconds pass.

        Only an enqueue wakes the waiters: a cached submission is born
        ``done`` and never does.
        """
        with self._lock:
            self._enqueued.wait_for(lambda: bool(self._queue) or stopped(), timeout)

    def wake(self) -> None:
        """Make every :meth:`wait_for_queued` caller re-check ``stopped``."""
        with self._lock:
            self._enqueued.notify_all()

    @property
    def version(self) -> int:
        with self._lock:
            return self._version

    def wait_for(
        self,
        job_id: str,
        since_version: int,
        timeout: Optional[float] = None,
        predicate: Optional[Callable[[JobRecord], bool]] = None,
    ) -> Optional[JobRecord]:
        """Block until ``job_id`` mutates past ``since_version``.

        Returns the job's current record (which satisfies the predicate
        or is newer than ``since_version``), or ``None`` on timeout.
        Terminal jobs return immediately — there is nothing left to wait
        for.
        """
        deadline = None if timeout is None else (self._now() + timeout)
        with self._lock:
            while True:
                job = self._jobs.get(job_id)
                if job is None:
                    raise ServiceError(f"unknown job {job_id!r}")
                if job.version > since_version or job.terminal:
                    if predicate is None or predicate(job) or job.terminal:
                        return job
                remaining = None
                if deadline is not None:
                    remaining = deadline - self._now()
                    if remaining <= 0:
                        return None
                self._changed.wait(timeout=remaining)

    @staticmethod
    def _now() -> float:
        import time

        return time.monotonic()

    def iter_updates(
        self, job_id: str, timeout: float, poll: float = 0.5
    ) -> Iterator[JobRecord]:
        """Yield each new version of a job until it turns terminal.

        The server's progress stream: yields the current record
        immediately, then one record per observed mutation (collapsing
        bursts), ending with the terminal record or when ``timeout``
        expires.
        """
        deadline = self._now() + timeout
        last_version = -1
        while True:
            job = self.get(job_id)
            if job is None:
                raise ServiceError(f"unknown job {job_id!r}")
            if job.version > last_version:
                last_version = job.version
                yield job
            if job.terminal:
                return
            remaining = deadline - self._now()
            if remaining <= 0:
                return
            self.wait_for(job_id, last_version, timeout=min(poll, remaining))
