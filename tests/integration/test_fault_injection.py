"""Cross-substrate fault-injection integration suite.

The fault layer's end-to-end promise: for a given spec + seed, the
*same* messages are lost, duplicated and delayed on every substrate —
the sequential simulator, the partitioned simulator at any partition
count, and the asyncio runtime on the virtual-time loop.  This suite
pins that promise (digest equality, decided-view agreement) and the
degradation report built on top of it.
"""

from __future__ import annotations

import json

import pytest

from repro.api import (
    ExperimentSession,
    ExperimentSpec,
    SpecError,
    fault_preset,
    fault_sweep_spec,
    quickstart_spec,
    run_spec,
)
from repro.cli import main as cli_main
from repro.experiments import degradation_from_sweep, run_degradation
from repro.experiments.degradation import QUIESCENCE, excuse_set
from repro.experiments.runner import run_cliff_edge
from repro.failures import region_crash
from repro.graph.generators import grid, torus
from repro.sim import EventKind
from repro.sim.faults import DuplicatingLinks, LossyLinks, ReorderingLinks, compose_faults
from repro.sim.partition import PartitionError, run_partitioned

BLOCK = [(2, 2), (2, 3), (3, 2), (3, 3)]

FAULT_MODELS = {
    "loss": LossyLinks(0.05),
    "duplication": DuplicatingLinks(0.3, copies=3),
    "reorder": ReorderingLinks(1.0),
    "combined": compose_faults(
        LossyLinks(0.02), DuplicatingLinks(0.1), ReorderingLinks(0.5)
    ),
}


class TestPartitionedEquivalence:
    @pytest.mark.parametrize("name", sorted(FAULT_MODELS))
    def test_digest_identical_across_partition_counts(self, name):
        faults = FAULT_MODELS[name]
        graph = torus(8, 8)
        schedule = region_crash(graph, BLOCK, at=1.0)
        sequential = run_cliff_edge(graph, schedule, seed=0, faults=faults)
        for partitions in (2, 4):
            partitioned = run_partitioned(
                graph,
                schedule,
                partitions=partitions,
                seed=0,
                backend="inline",
                faults=faults,
            )
            assert partitioned.digest() == sequential.digest(), name
            assert list(partitioned.trace) == list(sequential.trace), name

    def test_fault_events_present_and_identical(self):
        graph = torus(8, 8)
        schedule = region_crash(graph, BLOCK, at=1.0)
        faults = FAULT_MODELS["combined"]
        sequential = run_cliff_edge(graph, schedule, seed=0, faults=faults)
        lost = list(sequential.trace.of_kind(EventKind.MESSAGE_LOST))
        duplicated = list(sequential.trace.of_kind(EventKind.MESSAGE_DUPLICATED))
        assert lost and duplicated
        partitioned = run_partitioned(
            graph, schedule, partitions=3, seed=0, backend="inline", faults=faults
        )
        assert list(partitioned.trace.of_kind(EventKind.MESSAGE_LOST)) == lost

    def test_custom_model_rejected_loudly(self):
        class Custom:
            def deliveries(self, source, target, sequence, seed=0):
                return (0.0,)

            def max_extra_delay(self):
                return 0.0

        graph = grid(6, 6)
        schedule = region_crash(graph, BLOCK, at=1.0)
        with pytest.raises(PartitionError, match="not supported"):
            run_partitioned(
                graph, schedule, partitions=2, seed=0, backend="inline", faults=Custom()
            )


def _spec_with(faults):
    return quickstart_spec(side=6, block=2, seed=1).with_faults(faults)


class TestSpecRouting:
    """The ``faults`` block reaches every engine the session can pick."""

    @pytest.mark.parametrize(
        "faults",
        [{"loss": 0.05}, {"duplication": 0.3}, {"reorder": 1.0, "seed": 4}],
        ids=["loss", "duplication", "reorder"],
    )
    def test_sequential_and_partitioned_sessions_agree(self, faults):
        spec = _spec_with(faults)
        sequential = ExperimentSession().run(spec)
        sharded = ExperimentSession().run(spec.with_partitions(3))
        assert sharded.digest() == sequential.digest()

    def test_sim_and_virtual_asyncio_decide_identically(self):
        """Decided views must agree across the simulator and the
        virtual-time asyncio runtime under faults.  Duplication and
        bounded reorder never change *what* is decided here — only loss
        could, and this rate keeps the scenario deliverable."""
        spec = _spec_with({"duplication": 0.3, "reorder": 0.3, "seed": 2})
        sim = ExperimentSession().run(spec.with_engine("sim"))
        virtual = ExperimentSession().run(spec.with_engine("asyncio-virtual"))
        assert sim.quiescent and virtual.quiescent
        assert sim.decided_views == virtual.decided_views
        assert sim.specification.holds and virtual.specification.holds

    def test_virtual_asyncio_faulted_digest_reproducible(self):
        spec = _spec_with({"loss": 0.1, "seed": 5}).with_engine("asyncio-virtual")
        first = ExperimentSession().run(spec)
        second = ExperimentSession().run(spec)
        assert first.digest() == second.digest()

    def test_spec_document_round_trip_preserves_faults(self):
        spec = _spec_with({"loss": 0.05, "reorder": 0.5})
        round_tripped = ExperimentSpec.from_json(spec.to_json())
        assert round_tripped == spec
        assert run_spec(round_tripped).digest() == ExperimentSession().run(spec).digest()


class TestDegradationReport:
    def test_loss_axis_degrades_only_excused_properties(self):
        report = run_degradation(
            quickstart_spec(side=6, block=2), "loss", rates=[0.0, 0.1], seeds=[0, 1]
        )
        assert report.axis == "loss"
        assert len(report.points) == 4
        baseline = [point for point in report.points if point.rate == 0.0]
        assert all(point.spec_holds and point.quiescent for point in baseline)
        assert all(point.faults is None for point in baseline)
        assert report.acceptable, report.summary()
        failing = report.failing_rates()
        assert all(code in excuse_set({"loss": 0.1}) for code in failing)

    def test_duplication_axis_holds_everywhere(self):
        report = run_degradation(
            quickstart_spec(side=6, block=2), "duplication", rates=[0.3], seeds=[0]
        )
        assert report.holds_everywhere, report.summary()

    def test_unknown_axis_rejected(self):
        with pytest.raises(SpecError, match="unknown fault axis"):
            run_degradation(quickstart_spec(), "latency", rates=[0.1])

    def test_sweep_and_in_process_reports_agree(self):
        """`run_degradation` is `degradation_from_sweep` over the sweep it
        builds: both reproduce the battery recorded when `run_degradation`
        still built its points itself (rate, seed, digest, failed)."""
        recorded = [
            (0.0, 0, "c3757f2b24122d03c7552fe63c89a8e8933e141e1818e4bdede1f35229d8a0ff", ()),
            (0.0, 1, "c3757f2b24122d03c7552fe63c89a8e8933e141e1818e4bdede1f35229d8a0ff", ()),
            (0.1, 0, "7ef65c5c6cdf742339d234ca438299e95a5c4669f7612b03d0a78091e4af3d46", ("CD7",)),
            (0.1, 1, "c04e0fa8560c9b60d0bf3b75edf100bc0ec7971fc4953541f710782fa0d12da5", ("CD7",)),
        ]
        sweep = fault_sweep_spec(axis="loss", rates=(0.0, 0.1), seeds=(0, 1))
        from_sweep = degradation_from_sweep(sweep, run_spec(sweep))
        in_process = run_degradation(
            quickstart_spec(side=6, block=2), "loss", rates=[0.0, 0.1], seeds=[0, 1]
        )
        for report in (from_sweep, in_process):
            assert [
                (p.rate, p.seed, p.digest, p.failed_properties) for p in report.points
            ] == recorded
            assert [p.faults for p in report.points] == [None, None] + 2 * [{"loss": 0.1}]

    def test_quiescence_pseudo_property_excused_only_under_loss(self):
        assert QUIESCENCE in excuse_set({"loss": 0.1})
        assert QUIESCENCE not in excuse_set({"duplication": 0.5})
        assert QUIESCENCE not in excuse_set(None)


class TestFaultsCli:
    def _run(self, argv):
        lines: list[str] = []
        code = cli_main(argv, write=lines.append)
        return code, "\n".join(str(line) for line in lines)

    def test_run_faults_override_matches_in_process_run(self, tmp_path):
        """``repro run --faults dupes`` must execute exactly the spec
        with the preset's block installed — same digest as in-process."""
        path = tmp_path / "spec.json"
        path.write_text(_spec_with(None).to_json())
        code, output = self._run(["run", str(path), "--faults", "dupes", "--json"])
        assert code == 0
        expected = ExperimentSession().run(_spec_with(fault_preset("dupes")))
        assert json.loads(output)["digest"] == expected.digest()

    def test_sweep_faults_prints_degradation_table(self):
        code, output = self._run(
            ["sweep", "--faults", "loss=0:0.1", "--cases", "1"]
        )
        assert "degradation along 'loss'" in output
        assert "holds" in output and "excused by the fault model" in output
        assert code == 0

    def test_sweep_faults_conflicts_return_usage_error(self):
        code, output = self._run(["sweep", "--faults", "loss=0:0.1", "--churn"])
        assert code == 2 and "--faults" in output
        code, output = self._run(["sweep", "--faults", "loss=0.1", "--cases", "1"])
        assert code == 2 and "axis" in output

    def test_churn_faults_stay_deterministic(self):
        argv = [
            "churn",
            "--scenario",
            "steady",
            "--nodes",
            "36",
            "--duration",
            "30",
            "--faults",
            "loss=0.01",
            "--json",
        ]
        code, first = self._run(argv)
        _, second = self._run(argv)
        assert json.loads(first)["runs"][0]["digest"] == (
            json.loads(second)["runs"][0]["digest"]
        )
