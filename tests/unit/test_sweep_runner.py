"""Unit tests for the sharded sweep engine (repro.scale)."""

from __future__ import annotations

import os
import time
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.api import ExperimentSpec, FailureSpec, TopologySpec
from repro.scale import (
    ShardedSweepRunner,
    SweepTask,
    SweepTaskError,
    UnknownFamilyError,
    derive_seed,
    register_family,
    resolve_workers,
    run_task,
    unregister_family,
)


def _spec(name: str, seed: int, **labels) -> ExperimentSpec:
    """A tiny run whose trace (and so digest) depends on ``seed``."""
    return ExperimentSpec(
        name=name,
        topology=TopologySpec("grid", {"width": 3, "height": 3}),
        failure=FailureSpec("explicit", {"crashes": [[[1, 1], 1.0 + seed % 97]]}),
        seed=seed,
        check=False,
        labels=labels,
    )


# Top-level family functions (document builders): picklable under any
# multiprocessing start method, and inherited by forked workers after
# registration.
def _echo_family(seed: int, **params) -> ExperimentSpec:
    return _spec("echo", seed, **params)


def _slow_inverse_family(seed: int, delays=()) -> ExperimentSpec:
    # Sleeps per-task so later-submitted tasks finish *first*: exercises
    # order-stable merging against completion order.
    time.sleep(delays[seed] if seed < len(delays) else 0.0)
    return _spec("slow-inverse", seed)


def _failing_family(seed: int) -> ExperimentSpec:
    raise ValueError(f"boom at seed {seed}")


def _dying_family(seed: int) -> ExperimentSpec:
    os._exit(3)  # simulate a worker process dying outright


def _interrupt_family(seed: int) -> ExperimentSpec:
    raise KeyboardInterrupt


@pytest.fixture(autouse=True)
def _temp_families():
    register_family("echo", _echo_family)
    register_family("slow-inverse", _slow_inverse_family)
    register_family("failing", _failing_family)
    register_family("dying", _dying_family)
    register_family("interrupting", _interrupt_family)
    yield
    for name in ("echo", "slow-inverse", "failing", "dying", "interrupting"):
        unregister_family(name)


class TestSeeding:
    def test_derive_seed_is_deterministic_and_spread(self):
        first = derive_seed(0, 1, "echo", {"a": 1})
        assert first == derive_seed(0, 1, "echo", {"a": 1})
        others = {
            derive_seed(0, 2, "echo", {"a": 1}),
            derive_seed(1, 1, "echo", {"a": 1}),
            derive_seed(0, 1, "other", {"a": 1}),
            derive_seed(0, 1, "echo", {"a": 2}),
        }
        assert first not in others and len(others) == 4

    def test_seed_for_honours_explicit_seed(self):
        runner = ShardedSweepRunner(workers=1, base_seed=7)
        assert runner.seed_for(SweepTask("echo", seed=42), index=3) == 42
        derived = runner.seed_for(SweepTask("echo"), index=3)
        assert derived == derive_seed(7, 3, "echo", {})

    def test_resolve_workers(self):
        assert resolve_workers(None) >= 1
        assert resolve_workers(0) >= 1
        assert resolve_workers(3) == 3
        with pytest.raises(ValueError):
            resolve_workers(-1)


class TestInlineFallback:
    def test_empty_task_list(self):
        report = ShardedSweepRunner(workers=4).run([])
        assert len(report) == 0
        assert report.all_hold and report.all_quiescent
        assert report.outcomes == ()
        assert report.digest() == report.digest()  # stable empty digest

    def test_single_worker_never_builds_a_pool(self, monkeypatch):
        def forbidden(self):
            raise AssertionError("workers=1 must not build a process pool")

        monkeypatch.setattr(ShardedSweepRunner, "_make_executor", forbidden)
        report = ShardedSweepRunner(workers=1).run(
            [SweepTask("echo", seed=s) for s in range(3)]
        )
        assert [o.seed for o in report.outcomes] == [0, 1, 2]

    def test_single_task_with_many_workers_runs_inline(self, monkeypatch):
        def forbidden(self):
            raise AssertionError("a one-task sweep must not build a pool")

        monkeypatch.setattr(ShardedSweepRunner, "_make_executor", forbidden)
        report = ShardedSweepRunner(workers=8).run([SweepTask("echo", seed=5)])
        assert len(report) == 1 and report.outcomes[0].seed == 5

    def test_a_pool_is_never_larger_than_its_task_list(self, monkeypatch):
        # With the fork context the executor starts all max_workers at the
        # first submit: "one per CPU" must not fork 64 processes for 3 tasks.
        built = []
        real_make_executor = ShardedSweepRunner._make_executor

        def recording(self):
            built.append(real_make_executor(self))
            return built[-1]

        monkeypatch.setattr(ShardedSweepRunner, "_make_executor", recording)
        tasks = [SweepTask("echo", params={"tag": "x"}) for _ in range(3)]
        pooled = ShardedSweepRunner(workers=8, base_seed=3).run(tasks)
        assert [executor._max_workers for executor in built] == [3]
        assert pooled.workers == 8  # the report still says what was asked for
        inline = ShardedSweepRunner(workers=1, base_seed=3).run(tasks)
        assert [o.digest for o in pooled.outcomes] == [o.digest for o in inline.outcomes]
        assert pooled.digest() == inline.digest()

    def test_inline_failure_wraps_task_context(self):
        runner = ShardedSweepRunner(workers=1)
        tasks = [SweepTask("echo", seed=0), SweepTask("failing", seed=9)]
        with pytest.raises(SweepTaskError) as info:
            runner.run(tasks)
        assert info.value.index == 1
        assert info.value.task.family == "failing"
        assert isinstance(info.value.__cause__, ValueError)

    def test_inline_keyboard_interrupt_propagates_unwrapped(self):
        with pytest.raises(KeyboardInterrupt):
            ShardedSweepRunner(workers=1).run([SweepTask("interrupting", seed=0)])

    def test_unknown_family_fails_fast(self):
        with pytest.raises(UnknownFamilyError):
            ShardedSweepRunner(workers=1).run([SweepTask("no-such-family")])
        # With a pool requested the check still happens before forking.
        with pytest.raises(UnknownFamilyError):
            ShardedSweepRunner(workers=4).run([SweepTask("no-such-family")])

    def test_run_task_unknown_family(self):
        with pytest.raises(UnknownFamilyError):
            run_task(SweepTask("definitely-not-registered"))


class TestPooledExecution:
    def test_outcomes_merge_in_submission_order(self):
        delays = (0.4, 0.0)  # task 0 finishes last
        tasks = [
            SweepTask("slow-inverse", seed=s, params={"delays": delays})
            for s in range(2)
        ]
        report = ShardedSweepRunner(workers=2).run(tasks)
        assert [o.seed for o in report.outcomes] == [0, 1]
        assert [o.index for o in report.outcomes] == [0, 1]

    def test_pool_and_inline_agree(self):
        tasks = [SweepTask("echo", params={"tag": "x"}) for _ in range(4)]
        inline = ShardedSweepRunner(workers=1, base_seed=3).run(tasks)
        pooled = ShardedSweepRunner(workers=2, base_seed=3).run(tasks)
        assert [o.seed for o in inline.outcomes] == [o.seed for o in pooled.outcomes]
        assert inline.digest() == pooled.digest()

    def test_worker_exception_propagates_with_task_context(self):
        tasks = [SweepTask("echo", seed=0), SweepTask("failing", seed=1)]
        with pytest.raises(SweepTaskError) as info:
            ShardedSweepRunner(workers=2).run(tasks)
        assert info.value.index == 1
        assert info.value.task.family == "failing"
        assert "boom" in info.value.reason

    @pytest.mark.parametrize(
        "params", [{}, {"spec": None}, {"spec": {"runtime": {"engine": "nope"}}}]
    )
    def test_a_malformed_spec_task_fails_in_its_worker_not_before_the_pool(self, params):
        # The parent reads each spec task's runtime block to load its engine
        # before forking; what it cannot read is still the task's failure.
        tasks = [SweepTask("echo", seed=0), SweepTask("spec", params=params, seed=1)]
        with pytest.raises(SweepTaskError) as info:
            ShardedSweepRunner(workers=2).run(tasks)
        assert info.value.index == 1 and info.value.task.family == "spec"

    def test_worker_process_death_is_reported(self):
        tasks = [SweepTask("dying", seed=0)] + [SweepTask("echo", seed=s) for s in (1, 2)]
        with pytest.raises(SweepTaskError) as info:
            ShardedSweepRunner(workers=2).run(tasks)
        assert "worker process died" in str(info.value)

    def test_a_pool_that_breaks_between_submits_is_reported(self, monkeypatch):
        # A worker dying before the last task is queued breaks ``submit``
        # itself; that is the same dead worker the futures report.
        queued = Future()
        shutdowns = []

        class BreakingExecutor:
            submits = 0

            def submit(self, fn, *args):
                self.submits += 1
                if self.submits == 2:
                    raise BrokenProcessPool("a child process terminated abruptly")
                return queued

            def shutdown(self, wait=True, cancel_futures=False):
                shutdowns.append(cancel_futures)

        monkeypatch.setattr(
            ShardedSweepRunner, "_make_executor", lambda self: BreakingExecutor()
        )
        with pytest.raises(SweepTaskError) as info:
            ShardedSweepRunner(workers=2).run([SweepTask("echo", seed=s) for s in range(3)])
        assert "worker process died" in str(info.value)
        assert info.value.index == 1 and info.value.seed == 1
        assert isinstance(info.value.__cause__, BrokenProcessPool)
        assert queued.cancelled() and shutdowns == [True]

    def test_keyboard_interrupt_cancels_and_abandons_pool(self, monkeypatch):
        shutdown_calls = []

        class FakeFuture:
            def __init__(self):
                self.cancelled_flag = False

            def cancel(self):
                self.cancelled_flag = True

        class FakeExecutor:
            def submit(self, fn, *args):
                return FakeFuture()

            def shutdown(self, wait=True, cancel_futures=False):
                shutdown_calls.append({"wait": wait, "cancel_futures": cancel_futures})

        import repro.scale.sweep as sweep_module

        monkeypatch.setattr(
            ShardedSweepRunner, "_make_executor", lambda self: FakeExecutor()
        )

        def interrupted_wait(futures, return_when=None):
            raise KeyboardInterrupt

        monkeypatch.setattr(sweep_module, "wait", interrupted_wait)
        with pytest.raises(KeyboardInterrupt):
            ShardedSweepRunner(workers=2).run(
                [SweepTask("echo", seed=s) for s in range(3)]
            )
        assert shutdown_calls == [{"wait": False, "cancel_futures": True}]


class TestReport:
    def test_summary_and_rows(self):
        report = ShardedSweepRunner(workers=1).run(
            [SweepTask("echo", seed=s) for s in range(3)]
        )
        summary = report.summary()
        assert summary["runs"] == 3
        assert summary["all_hold"] is True
        assert summary["violating_indices"] == []
        rows = report.as_rows()
        assert [row["index"] for row in rows] == [0, 1, 2]

    def test_digest_is_order_sensitive(self):
        forward = ShardedSweepRunner(workers=1).run(
            [SweepTask("echo", seed=s) for s in (1, 2)]
        )
        backward = ShardedSweepRunner(workers=1).run(
            [SweepTask("echo", seed=s) for s in (2, 1)]
        )
        assert forward.digest() != backward.digest()
