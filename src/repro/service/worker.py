"""Workers: the processes that actually run submitted specs.

A worker is a loop over a *broker* — anything with ``claim`` /
``progress`` / ``complete`` / ``fail``.  The server's in-process worker
threads use :class:`LocalBroker` (direct ledger + store calls); a worker
on another host uses :class:`~repro.service.client.ServiceClient`, which
implements the same four methods over HTTP.  The loop itself cannot tell
the difference, which is the multi-host story: N workers on M machines
pointing at one server is pure configuration.

Execution goes through the one funnel every run in the repository uses,
:class:`~repro.api.ExperimentSession` — so the inline, sharded-sweep and
partitioned backends are all reachable from a submitted document, and
the digests a worker reports are the digests a local run would produce.
"""

from __future__ import annotations

import threading
import traceback
from typing import Any, Callable, Mapping, Optional, Protocol

from ..api import ExperimentSession, SweepSpec
from .protocol import result_envelope, spec_from_document


def execute_document(
    document: Mapping[str, Any],
    progress: Optional[Callable[[int, int], None]] = None,
) -> dict[str, Any]:
    """Run one submitted spec document and return its result envelope.

    ``progress`` receives ``(done, total)`` completed-task counts for
    sweeps; single experiments report ``(1, 1)`` on completion.
    """
    spec = spec_from_document(document)
    session = ExperimentSession()
    if isinstance(spec, SweepSpec):
        result = session.run_sweep(spec, progress=progress)
    else:
        result = session.run(spec)
        if progress is not None:
            progress(1, 1)
    return result_envelope(spec, result)


class Broker(Protocol):  # pragma: no cover - typing only
    """What a worker needs from whoever hands out jobs."""

    def claim(self, worker: str) -> Optional[tuple[Mapping[str, Any], Mapping[str, Any]]]:
        """Next ``(job document, spec document)`` pair, or ``None``."""
        ...

    def progress(self, job_id: str, done: int, total: int) -> None: ...

    def complete(self, job_id: str, envelope: Mapping[str, Any]) -> None: ...

    def fail(self, job_id: str, error: str) -> None: ...


class LocalBroker:
    """The in-process broker: direct calls into the ledger and store.

    ``complete`` is where a finished envelope becomes durable: it is
    digest-verified by :meth:`ResultStore.put` *before* the ledger marks
    the job done, so a crash between the two re-queues a job whose
    result is already stored — the next claim is a cheap cache hit, never
    a lost result.
    """

    def __init__(self, ledger, store) -> None:
        self.ledger = ledger
        self.store = store

    def claim(self, worker: str):
        claimed = self.ledger.claim(worker)
        if claimed is None:
            return None
        job, spec = claimed
        return job.to_dict(), spec

    def progress(self, job_id: str, done: int, total: int) -> None:
        self.ledger.report_progress(job_id, done, total)

    def complete(self, job_id: str, envelope: Mapping[str, Any]) -> None:
        job = self.ledger.get(job_id)
        if job is not None:
            spec = self.ledger.spec_of(job_id)
            if spec is not None:
                self.store.put(job.key, spec, envelope)
        self.ledger.complete(job_id, envelope["digest"])

    def fail(self, job_id: str, error: str) -> None:
        self.ledger.fail(job_id, error)

    def wait_for_work(self, timeout: float, stopped: Callable[[], bool]) -> None:
        """Idle until a job is queued (or ``stopped()``), at most ``timeout`` s."""
        self.ledger.wait_for_queued(timeout, stopped)

    def wake(self) -> None:
        """Cut every :meth:`wait_for_work` short so it re-checks ``stopped``."""
        self.ledger.wake()


class WorkerLoop:
    """Claim → execute → report, until stopped or the queue runs dry.

    Parameters
    ----------
    broker:
        A :class:`LocalBroker` or an HTTP
        :class:`~repro.service.client.ServiceClient`.
    name:
        Reported as the job's ``worker`` field.
    poll_interval:
        Seconds to wait between claims when the queue is empty.  A
        :class:`LocalBroker` ends the wait as soon as a job is queued; a
        remote broker is polled.
    drain:
        When True the loop exits as soon as a claim comes back empty
        (the ``repro work --drain`` one-shot mode); otherwise it keeps
        polling until :meth:`stop`.

    A loop runs one job at a time; N concurrent jobs are N loops (N
    ``repro work`` processes, or ``serve(workers=N)`` threads).
    """

    def __init__(
        self,
        broker: Broker,
        name: str = "worker",
        poll_interval: float = 0.2,
        drain: bool = False,
    ) -> None:
        self.broker = broker
        self.name = name
        self.poll_interval = poll_interval
        self.drain = drain
        self._stop = threading.Event()
        #: Jobs this loop completed (inspectable by tests and ``repro work``).
        self.completed = 0
        self.failed = 0

    def stop(self) -> None:
        self._stop.set()
        if isinstance(self.broker, LocalBroker):
            self.broker.wake()

    def _idle(self) -> None:
        """Wait ``poll_interval`` for work, or until :meth:`stop`: a local
        broker ends the wait when a job is queued, a remote one is polled."""
        if isinstance(self.broker, LocalBroker):
            self.broker.wait_for_work(self.poll_interval, self._stop.is_set)
        else:
            self._stop.wait(self.poll_interval)

    def run_one(self) -> bool:
        """Claim and execute at most one job; True when one was run."""
        claimed = self.broker.claim(self.name)
        if claimed is None:
            return False
        job, spec_document = claimed
        job_id = job["id"]

        def _progress(done: int, total: int) -> None:
            try:
                self.broker.progress(job_id, done, total)
            except Exception:
                # Progress is advisory; a lost update must not kill the
                # run (the completion report carries the final state).
                pass

        try:
            envelope = execute_document(spec_document, progress=_progress)
            self.broker.complete(job_id, envelope)
            self.completed += 1
        except (KeyboardInterrupt, SystemExit):
            self.broker.fail(job_id, "worker interrupted")
            raise
        except BaseException:
            self.failed += 1
            self.broker.fail(job_id, traceback.format_exc(limit=20))
        return True

    def run(self) -> None:
        """Loop until :meth:`stop` (or, with ``drain``, an empty queue)."""
        while not self._stop.is_set():
            ran = self.run_one()
            if ran:
                continue
            if self.drain:
                return
            self._idle()
