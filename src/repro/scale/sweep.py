"""The sharded sweep engine.

:class:`ShardedSweepRunner` fans independent (scenario × seed ×
topology) runs across a process pool and merges the outcomes into a
deterministic, order-stable report:

* **Determinism** — every run's seed is derived from the sweep's base
  seed and the task's identity *before* any work is distributed
  (:mod:`repro.scale.seeding`), so ``workers=1`` and ``workers=N``
  execute bit-identical runs; the per-run canonical trace digests (and
  the combined report digest) are equal by construction, and the
  determinism regression suite asserts exactly that.
* **Order stability** — outcomes are merged in submission order no
  matter which worker finishes first.
* **Failure propagation** — an exception inside a worker surfaces in the
  parent as a :class:`~repro.scale.task.SweepTaskError` naming the task,
  index and effective seed (reproducible in-process via
  ``run_task(error.task, seed=error.seed)``); a worker process dying
  outright (``BrokenProcessPool``) is reported the same way, flagged as
  possibly mis-attributed since a dead pool fails every in-flight task.
* **Interrupt hygiene** — Ctrl-C cancels all queued work and tears the
  pool down before re-raising.

``workers<=1`` (or a single-task sweep) bypasses multiprocessing
entirely and runs inline — same seeds, same outcomes, no pool overhead.

The digest-only channel: what crosses the pool boundary is a
:class:`~repro.scale.task.SweepOutcome` — the run's canonical digest
plus scalar metrics, never the trace.  A spec-mode task whose
experiment sets ``runtime.collection="digest"`` goes further: the
worker itself never materialises an event log (the recorder streams the
digest and metrics as events fire — see :mod:`repro.trace`), so sweep
memory stays flat in trace length while every digest remains
bit-identical to a full-trace run.
"""

from __future__ import annotations

import copy
import multiprocessing
import os
from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Iterable, Optional, Sequence

from ..trace.digest import combine_digests
from .families import get_family, load_run_path, run_task
from .seeding import derive_seed
from .task import SweepOutcome, SweepTask, SweepTaskError


def resolve_workers(workers: Optional[int]) -> int:
    """Normalise a worker-count request (``None``/``0`` → CPU count)."""
    if workers is None or workers == 0:
        return max(os.cpu_count() or 1, 1)
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    return workers


def _mp_context():
    """Prefer ``fork`` where available: workers inherit the family
    registry (document builders, dynamically registered ones included —
    a task names its family, the worker builds the spec and runs it), the
    topology cache and every module the parent has loaded, and start in
    milliseconds; elsewhere fall back to the platform default.

    Inheriting is all a worker gets for free: the packages load lazily, so
    what the parent never imported each worker of each pool imports for
    its first task.  :meth:`ShardedSweepRunner._run_pooled` therefore loads
    the tasks' run path (:func:`~repro.scale.families.load_run_path`)
    before it builds the pool."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _execute_indexed(task: SweepTask, index: int, seed: int) -> SweepOutcome:
    """Worker entry point: run one task and stamp its sweep position.

    ``run_task`` already timed the execution; only the index is added.
    """
    outcome = run_task(task, seed=seed)
    return outcome.with_position(index, outcome.wall_time)


@dataclass(frozen=True)
class SweepReport:
    """Merged, order-stable result of a sharded sweep.

    Implements the unified :class:`repro.api.Result` protocol alongside
    :class:`~repro.api.result.RunResult`: ``digest()``,
    ``check_specification()``, ``summary()`` and ``as_dict()``.
    """

    outcomes: tuple[SweepOutcome, ...]
    workers: int
    base_seed: int
    #: Wall-clock seconds of the whole sweep (parent-side, incl. merge).
    wall_time: float
    labels: dict[str, Any] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.outcomes)

    def digest(self) -> str:
        """Order-sensitive combination of the per-run digests.

        Equal across worker counts iff every run's trace and the merge
        order are identical — the sweep engine's determinism contract in
        one hex string.
        """
        return combine_digests(outcome.digest for outcome in self.outcomes)

    @property
    def all_hold(self) -> bool:
        """True when every run satisfied its specification."""
        return all(outcome.spec_holds for outcome in self.outcomes)

    @property
    def all_quiescent(self) -> bool:
        return all(outcome.quiescent for outcome in self.outcomes)

    @property
    def violating(self) -> tuple[SweepOutcome, ...]:
        return tuple(o for o in self.outcomes if not o.spec_holds)

    @property
    def total_messages(self) -> int:
        return sum(o.messages for o in self.outcomes)

    @property
    def total_decisions(self) -> int:
        return sum(o.decisions for o in self.outcomes)

    @property
    def worker_time(self) -> float:
        """Sum of per-run wall times (the work actually parallelised)."""
        return sum(o.wall_time for o in self.outcomes)

    def as_rows(self) -> list[dict[str, Any]]:
        return [o.as_row() for o in self.outcomes]

    def check_specification(self):
        """The sweep-level specification verdict.

        Per-run CD1–CD7 checks ran inside the workers; this aggregates
        their verdicts (see
        :class:`~repro.api.result.AggregateSpecification`).
        """
        from ..api.result import AggregateSpecification

        violations = tuple(
            f"run #{outcome.index} ({outcome.label}, seed={outcome.seed}): {violation}"
            for outcome in self.outcomes
            for violation in outcome.violations
        )
        return AggregateSpecification(
            holds=self.all_hold,
            checked_runs=len(self.outcomes),
            violation_list=violations,
        )

    def as_dict(self) -> dict[str, Any]:
        """JSON-serializable report (the CLI's ``--json`` payload)."""
        from ..api.result import json_safe

        return {
            "type": "sweep",
            "workers": self.workers,
            "base_seed": self.base_seed,
            "digest": self.digest(),
            "summary": self.summary(),
            "runs": [
                dict(
                    outcome.as_row(),
                    digest=outcome.digest,
                    wall_time=outcome.wall_time,
                    violations=list(outcome.violations),
                    # Extractor rows (locality cost points, repair
                    # verdicts) ride along only when the run's spec
                    # carried an extract block — absent otherwise, so
                    # pre-extractor payload shapes are unchanged.
                    **(
                        {"extract": json_safe(outcome.labels["extract"])}
                        if "extract" in outcome.labels
                        else {}
                    ),
                )
                for outcome in self.outcomes
            ],
            "labels": json_safe(self.labels),
        }

    def summary(self) -> dict[str, Any]:
        return {
            "runs": len(self.outcomes),
            "workers": self.workers,
            "all_hold": self.all_hold,
            "all_quiescent": self.all_quiescent,
            "total_messages": self.total_messages,
            "total_decisions": self.total_decisions,
            "wall_time": self.wall_time,
            "worker_time": self.worker_time,
            "digest": self.digest(),
            "violating_indices": [o.index for o in self.violating],
        }


class ShardedSweepRunner:
    """Fan independent simulation runs across a process pool.

    Parameters
    ----------
    workers:
        Pool size; ``None``/``0`` means one worker per CPU, ``1`` runs
        inline without a pool (the single-worker fallback path).
    base_seed:
        Root of the deterministic per-run seed derivation.
    """

    def __init__(self, workers: Optional[int] = None, base_seed: int = 0) -> None:
        self.workers = resolve_workers(workers)
        self.base_seed = base_seed

    # ------------------------------------------------------------------
    def seed_for(self, task: SweepTask, index: int) -> int:
        """The seed a task at ``index`` will run with (pure function)."""
        if task.seed is not None:
            return task.seed
        return derive_seed(self.base_seed, index, task.family, task.params)

    def run(
        self,
        tasks: Iterable[SweepTask],
        progress: Optional[Callable[[int, int], None]] = None,
    ) -> SweepReport:
        """Execute every task and merge outcomes in submission order.

        ``progress`` (optional) is called as ``progress(done, total)``
        each time a task completes — inline after each run, pooled from a
        completion callback (so it may fire from a pool-management
        thread).  It observes timing only; results, seeds and digests are
        identical with or without it.
        """
        task_list = list(tasks)
        started = perf_counter()
        # Fail fast on unknown families *before* spinning up a pool.
        for task in task_list:
            get_family(task.family)
        seeds = [self.seed_for(task, index) for index, task in enumerate(task_list)]
        if not task_list:
            return SweepReport(
                outcomes=(),
                workers=self.workers,
                base_seed=self.base_seed,
                wall_time=perf_counter() - started,
            )
        if self.workers <= 1 or len(task_list) == 1:
            outcomes = self._run_inline(task_list, seeds, progress)
        else:
            outcomes = self._run_pooled(task_list, seeds, progress)
        return SweepReport(
            outcomes=tuple(outcomes),
            workers=self.workers,
            base_seed=self.base_seed,
            wall_time=perf_counter() - started,
        )

    # ------------------------------------------------------------------
    def _run_inline(
        self,
        tasks: Sequence[SweepTask],
        seeds: Sequence[int],
        progress: Optional[Callable[[int, int], None]] = None,
    ) -> list[SweepOutcome]:
        """The single-worker fallback: same seeds, no pool."""
        outcomes = []
        total = len(tasks)
        for index, (task, seed) in enumerate(zip(tasks, seeds)):
            try:
                outcomes.append(_execute_indexed(task, index, seed))
            except (KeyboardInterrupt, SystemExit):
                raise
            except BaseException as exc:
                raise SweepTaskError(task, index, repr(exc), seed=seed) from exc
            if progress is not None:
                progress(index + 1, total)
        return outcomes

    def _make_executor(self) -> ProcessPoolExecutor:
        """Build the pool (overridable seam for the interrupt tests)."""
        return ProcessPoolExecutor(
            max_workers=self.workers, mp_context=_mp_context()
        )

    def _run_pooled(
        self,
        tasks: Sequence[SweepTask],
        seeds: Sequence[int],
        progress: Optional[Callable[[int, int], None]] = None,
    ) -> list[SweepOutcome]:
        load_run_path(tasks)
        # Never more workers than tasks: with ``fork`` the executor starts
        # all ``max_workers`` at the first submit, so "one per CPU" on a big
        # host would fork dozens of processes for a three-point sweep.
        sized = copy.copy(self)
        sized.workers = min(self.workers, len(tasks))
        executor = sized._make_executor()
        futures = {}
        wait_on_exit = True
        total = len(tasks)
        if progress is not None:
            import threading

            completed = [0]
            progress_lock = threading.Lock()

            def _tick(_future) -> None:
                # Fires on the pool's completion thread; count every
                # settled future (cancelled/failed included) so the
                # denominator stays honest even on error paths.
                with progress_lock:
                    completed[0] += 1
                    done_now = completed[0]
                progress(done_now, total)

        failures: list[tuple[int, BaseException]] = []
        try:
            try:
                for index, (task, seed) in enumerate(zip(tasks, seeds)):
                    future = executor.submit(_execute_indexed, task, index, seed)
                    if progress is not None:
                        future.add_done_callback(_tick)
                    futures[future] = index
            except BrokenProcessPool as exc:
                # A worker died before the last task was queued.  Cancel what
                # is queued (a broken pool never settles a cancelled future,
                # so it is not waited on); what already ran is read below.
                failures.append((index, exc))
                futures = {f: i for f, i in futures.items() if not f.cancel()}
            # Wait for everything, stopping at the first failure so a
            # crashed worker does not stall the sweep behind queued work.
            done, not_done = wait(futures, return_when=FIRST_EXCEPTION)
            by_index: dict[int, SweepOutcome] = {}
            for future in done:
                index = futures[future]
                exc = future.exception()
                if exc is not None:
                    failures.append((index, exc))
                    continue
                outcome = future.result()
                by_index[index] = outcome
            if failures:
                for future in not_done:
                    future.cancel()
                # A dead worker delivers BrokenProcessPool to *every*
                # in-flight future, innocent tasks included; a pickled
                # in-task exception identifies the culprit precisely, so
                # prefer it when both kinds are present.
                precise = [
                    f for f in failures if not isinstance(f[1], BrokenProcessPool)
                ]
                if precise:
                    index, exc = min(precise, key=lambda f: f[0])
                    reason = repr(exc)
                else:
                    index, exc = min(failures, key=lambda f: f[0])
                    reason = (
                        "worker process died (BrokenProcessPool); the crash may "
                        "belong to any task that was in flight, this is merely "
                        "the lowest-indexed one"
                    )
                raise SweepTaskError(
                    tasks[index], index, reason, seed=seeds[index]
                ) from exc
            # Completion order is whatever the pool produced; the merge
            # is by submission index, which makes aggregation
            # order-stable by construction.
            return [by_index[index] for index in range(len(tasks))]
        except (KeyboardInterrupt, SystemExit):
            # Do not block the interrupt on stragglers: cancel queued
            # work and abandon the pool (workers get SIGINT too).
            wait_on_exit = False
            raise
        finally:
            executor.shutdown(wait=wait_on_exit, cancel_futures=True)
