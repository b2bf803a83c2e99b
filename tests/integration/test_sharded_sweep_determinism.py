"""Determinism regression suite for the scale subsystem.

Two contracts, each able to silently break the reproducibility the whole
repository is built on:

* **Sharding is invisible** — a sweep's per-run canonical trace digests
  (and the merged report digest) are identical for ``workers=1`` and
  ``workers=N``.
* **Batched dispatch is invisible** — a full simulation run produces an
  identical trace whether the scheduler uses the batched same-timestamp
  fast path or the unbatched reference loop.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.api import SweepSpec, run_spec
from repro.churn import crash_recover_recrash
from repro.core import CliffEdgeNode
from repro.experiments import churn_property_sweep, property_sweep, run_cliff_edge
from repro.failures import region_crash
from repro.graph.generators import grid, torus
from repro.scale import ShardedSweepRunner, churn_property_tasks, property_tasks, torus_scale_tasks
from repro.sim import ConstantLatency, EventScheduler, PerfectFailureDetector, Simulator
from repro.trace import collect_metrics

GOLDEN_SPEC = Path(__file__).resolve().parents[1] / "data" / "golden_spec.json"
#: Pinned canonical digest of the golden sweep spec itself (a pure
#: function of the document — breaks only if the spec format changes).
GOLDEN_SPEC_DIGEST = "59cc4ec8cd67e75be8ae211e740e86d1f1c4c00fd4da4efb887206d31d13f5d9"


class TestShardedSweepDeterminism:
    def test_property_sweep_digest_equal_across_worker_counts(self):
        seeds = tuple(range(4))
        sequential = property_sweep(seeds=seeds, workers=1)
        sharded = property_sweep(seeds=seeds, workers=2)
        assert [case.digest for case in sequential] == [case.digest for case in sharded]
        assert [case.as_row() for case in sequential] == [
            case.as_row() for case in sharded
        ]

    def test_churn_sweep_digest_equal_across_worker_counts(self):
        seeds = tuple(range(3))
        sequential = churn_property_sweep(seeds=seeds, workers=1)
        sharded = churn_property_sweep(seeds=seeds, workers=2)
        assert [case.digest for case in sequential] == [case.digest for case in sharded]

    def test_torus_family_report_digest_equal_across_worker_counts(self):
        tasks = torus_scale_tasks(side=8, scenarios=3)
        one = ShardedSweepRunner(workers=1).run(tasks)
        many = ShardedSweepRunner(workers=3).run(tasks)
        assert one.digest() == many.digest()
        assert [o.digest for o in one.outcomes] == [o.digest for o in many.outcomes]
        assert one.all_hold and one.all_quiescent

    def test_derived_seeds_do_not_depend_on_worker_count(self):
        tasks = property_tasks(range(3)) + churn_property_tasks(range(2))
        for workers in (1, 2, 4):
            runner = ShardedSweepRunner(workers=workers, base_seed=11)
            seeds = [runner.seed_for(task, i) for i, task in enumerate(tasks)]
            assert seeds == [
                ShardedSweepRunner(workers=1, base_seed=11).seed_for(task, i)
                for i, task in enumerate(tasks)
            ]


class TestGoldenSpecDeterminism:
    """The golden sweep spec pins the declarative layer end to end."""

    def _load(self) -> SweepSpec:
        from repro.api import load_spec

        spec = load_spec(GOLDEN_SPEC.read_text())
        assert isinstance(spec, SweepSpec)
        return spec

    def test_golden_spec_digest_is_pinned(self):
        spec = self._load()
        assert spec.digest() == GOLDEN_SPEC_DIGEST

    def test_golden_spec_round_trips_byte_identically(self):
        spec = self._load()
        assert spec.to_json() + "\n" == GOLDEN_SPEC.read_text()
        assert SweepSpec.from_json(spec.to_json()) == spec

    def test_golden_sweep_digest_equal_across_worker_counts(self):
        import dataclasses

        spec = self._load()
        sharded = run_spec(spec)
        inline = run_spec(dataclasses.replace(spec, workers=1))
        assert sharded.digest() == inline.digest()
        assert [o.digest for o in sharded.outcomes] == [
            o.digest for o in inline.outcomes
        ]
        assert sharded.all_hold and sharded.all_quiescent
        assert len(sharded) == len(spec)

    def test_spec_task_seeds_are_pinned_not_derived(self):
        # Experiment-mode tasks pin the point's own seed, so the runner's
        # base seed cannot perturb spec-driven runs.
        spec = self._load()
        for task, point in zip(spec.tasks(), spec.expand()):
            assert task.seed == point.seed


class TestBatchedDispatchDeterminism:
    """Full runs through the Simulator: batched vs unbatched scheduler."""

    @staticmethod
    def _run(graph, apply_schedules, batch_dispatch: bool):
        sim = Simulator(
            graph,
            latency=ConstantLatency(1.0),
            failure_detector=PerfectFailureDetector(1.0),
            seed=5,
            scheduler=EventScheduler(batch_dispatch=batch_dispatch),
        )
        sim.populate(lambda node: CliffEdgeNode(node))
        apply_schedules(sim)
        sim.run()
        return sim

    @pytest.mark.parametrize("seed", [0, 1])
    def test_static_block_run_identical_traces(self, seed):
        graph = grid(6, 6)
        schedule = region_crash(graph, [(2, 2), (2, 3), (3, 2), (3, 3)], at=1.0)
        runs = {}
        for batched in (True, False):
            sim = Simulator(
                graph,
                latency=ConstantLatency(1.0),
                failure_detector=PerfectFailureDetector(1.0),
                seed=seed,
                scheduler=EventScheduler(batch_dispatch=batched),
            )
            sim.populate(lambda node: CliffEdgeNode(node))
            schedule.applied_to(sim)
            sim.run()
            runs[batched] = sim
        assert runs[True].trace.digest() == runs[False].trace.digest()
        assert runs[True].processed_events == runs[False].processed_events
        metrics = collect_metrics(runs[True].trace)
        assert metrics.decisions > 0

    def test_churn_run_identical_traces(self):
        graph = torus(6, 6)
        crashes, membership = crash_recover_recrash(
            graph, [(1, 1), (1, 2)], crash_at=1.0, recover_at=12.0, recrash_at=30.0
        )
        digests = set()
        for batched in (True, False):
            sim = Simulator(
                graph,
                latency=ConstantLatency(1.0),
                failure_detector=PerfectFailureDetector(1.0),
                seed=2,
                scheduler=EventScheduler(batch_dispatch=batched),
            )
            sim.populate(lambda node: CliffEdgeNode(node))
            membership.applied_to(sim, crashes=crashes)
            sim.run()
            digests.add(sim.trace.digest())
        assert len(digests) == 1

    def test_run_churn_default_matches_unbatched_outcomes(self):
        # run_cliff_edge uses the default (batched) scheduler; its decisions
        # must match an explicitly unbatched execution of the same script.
        graph = torus(6, 6)
        crashes, membership = crash_recover_recrash(
            graph, [(2, 2)], crash_at=1.0, recover_at=10.0, recrash_at=25.0
        )
        batched_result = run_cliff_edge(graph, crashes, membership, seed=3, check=True)
        sim = Simulator(
            graph,
            latency=ConstantLatency(1.0),
            failure_detector=PerfectFailureDetector(1.0),
            seed=3,
            scheduler=EventScheduler(batch_dispatch=False),
        )
        sim.populate(lambda node: CliffEdgeNode(node))
        membership.applied_to(sim, crashes=crashes)
        sim.run()
        assert batched_result.specification.holds
        assert batched_result.trace.digest() == sim.trace.digest()


@pytest.mark.slow
class TestLargeTorusFamily:
    """The 4096-node scale family (ROADMAP item); slow-marked."""

    def test_4096_node_family_runs_and_verifies(self):
        tasks = torus_scale_tasks(side=64, scenarios=4)
        report = ShardedSweepRunner(workers=2).run(tasks)
        assert [outcome.nodes for outcome in report.outcomes] == [4096] * 4
        assert report.all_hold and report.all_quiescent
        assert report.digest() == ShardedSweepRunner(workers=1).run(tasks).digest()
