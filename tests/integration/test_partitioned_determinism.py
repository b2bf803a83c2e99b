"""Determinism suite of the partitioned simulator backend.

The contract under test: for any scenario the backend supports,
``run_partitioned(..., partitions=N)`` produces a trace **bit-identical**
(same canonical digest, same event list) to the sequential simulator —
for every partition count, on both the inline and the process backend.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import (
    ExperimentSpec,
    FailureSpec,
    MembershipSpec,
    RuntimeSpec,
    SpecError,
    SweepSpec,
    TopologySpec,
    run_spec,
)
from repro.churn import crash_recover_recrash, flash_crowd_joins, steady_state_churn
from repro.churn.membership import MembershipSchedule, leave
from repro.experiments.runner import run_cliff_edge
from repro.failures import cascade_crash, region_crash
from repro.graph.generators import grid, torus
from repro.sim import EventKind, UniformLatency
from repro.sim.failure_detector import JitteredFailureDetector
from repro.sim.partition import (
    PartitionError,
    measure_worker_payloads,
    run_partitioned,
)
from repro.trace import TraceUnavailableError, collect_metrics


def _assert_equal_traces(sequential, partitioned):
    assert partitioned.digest() == sequential.digest()
    assert list(partitioned.trace) == list(sequential.trace)


class TestStaticDeterminism:
    def test_torus_block_digest_equal_across_partition_counts(self):
        graph = torus(8, 8)
        schedule = region_crash(graph, [(2, 2), (2, 3), (3, 2), (3, 3)], at=1.0)
        sequential = run_cliff_edge(graph, schedule, seed=0, check=True)
        assert sequential.specification.holds
        for partitions in (1, 2, 3, 5):
            partitioned = run_partitioned(
                graph,
                schedule,
                partitions=partitions,
                seed=0,
                check=True,
                backend="inline",
            )
            _assert_equal_traces(sequential, partitioned)
            assert partitioned.specification.holds
            assert partitioned.quiescent
            assert partitioned.partitions == partitions

    def test_mid_epoch_crashes_cross_barrier_windows(self):
        # Crashes at fractional times spread across several barrier
        # windows: the barrier protocol must neither delay nor reorder
        # the replicated control events relative to in-flight messages.
        graph = torus(10, 10)
        schedule = region_crash(
            graph, [(2, 2), (2, 3), (3, 2), (3, 3), (4, 3)], at=1.3, spread=2.7
        )
        sequential = run_cliff_edge(graph, schedule, seed=1)
        partitioned = run_partitioned(
            graph, schedule, partitions=4, seed=1, backend="inline"
        )
        _assert_equal_traces(sequential, partitioned)
        assert partitioned.barrier_rounds > 1

    def test_cascade_digest_equal(self):
        graph = torus(10, 10)
        schedule = cascade_crash(graph, (5, 5), 6, start=0.7, spacing=0.4)
        sequential = run_cliff_edge(graph, schedule, seed=2)
        for partitions in (2, 3):
            partitioned = run_partitioned(
                graph, schedule, partitions=partitions, seed=2, backend="inline"
            )
            _assert_equal_traces(sequential, partitioned)

    def test_until_clamp_matches_sequential(self):
        graph = torus(10, 10)
        schedule = cascade_crash(graph, (5, 5), 6, start=0.7, spacing=0.4)
        sequential = run_cliff_edge(graph, schedule, seed=2, until=4.9)
        partitioned = run_partitioned(
            graph, schedule, partitions=3, seed=2, until=4.9, backend="inline"
        )
        _assert_equal_traces(sequential, partitioned)
        assert partitioned.quiescent == sequential.quiescent
        assert not partitioned.quiescent

    def test_process_backend_digest_equal(self):
        graph = torus(8, 8)
        schedule = region_crash(graph, [(4, 4), (4, 5)], at=1.0)
        sequential = run_cliff_edge(graph, schedule, seed=3)
        partitioned = run_partitioned(
            graph, schedule, partitions=2, seed=3, backend="process"
        )
        _assert_equal_traces(sequential, partitioned)

    def test_ablation_knobs_forwarded(self):
        graph = grid(8, 8)
        schedule = region_crash(graph, [(3, 3), (3, 4), (4, 3)], at=1.0)
        for arbitration, early in ((False, False), (True, True)):
            sequential = run_cliff_edge(
                graph,
                schedule,
                seed=4,
                arbitration_enabled=arbitration,
                early_termination=early,
            )
            partitioned = run_partitioned(
                graph,
                schedule,
                partitions=3,
                seed=4,
                arbitration_enabled=arbitration,
                early_termination=early,
                backend="inline",
            )
            _assert_equal_traces(sequential, partitioned)


class TestChurnDeterminism:
    def test_steady_churn_digest_equal(self):
        graph = torus(8, 8)
        schedule, membership = steady_state_churn(
            graph, churn_rate=0.05, duration=40.0, seed=3
        )
        sequential = run_cliff_edge(graph, schedule, membership, seed=3, check=True)
        for partitions in (1, 2, 4):
            partitioned = run_partitioned(
                graph,
                schedule,
                membership,
                partitions=partitions,
                seed=3,
                check=True,
                backend="inline",
            )
            _assert_equal_traces(sequential, partitioned)
            assert partitioned.specification.holds == sequential.specification.holds
            assert len(partitioned.epochs) == len(sequential.epochs)
            assert partitioned.final_graph == sequential.final_graph

    def test_recover_race_digest_equal(self):
        graph = torus(10, 10)
        schedule, membership = crash_recover_recrash(
            graph, [(1, 1), (1, 2)], crash_at=1.0, recover_at=6.0, recrash_at=14.0
        )
        sequential = run_cliff_edge(graph, schedule, membership, seed=4)
        partitioned = run_partitioned(
            graph, schedule, membership, partitions=3, seed=4, backend="inline"
        )
        _assert_equal_traces(sequential, partitioned)

    def test_flash_crowd_joins_digest_equal(self):
        # Joining nodes do not exist when the graph is partitioned; each
        # one is adopted by the shard owning its first attachment point,
        # identically on every partition.
        graph = torus(10, 10)
        schedule = region_crash(graph, [(7, 7), (7, 8)], at=2.0)
        membership = flash_crowd_joins(graph, count=5, at=3.0, spacing=0.8, seed=9)
        sequential = run_cliff_edge(graph, schedule, membership, seed=9)
        partitioned = run_partitioned(
            graph, schedule, membership, partitions=4, seed=9, backend="inline"
        )
        _assert_equal_traces(sequential, partitioned)

    def test_leaves_digest_equal(self):
        graph = torus(10, 10)
        schedule = region_crash(graph, [(7, 7), (7, 8)], at=2.0)
        membership = MembershipSchedule((leave((0, 5), 2.5), leave((9, 1), 3.1)))
        sequential = run_cliff_edge(graph, schedule, membership, seed=5)
        partitioned = run_partitioned(
            graph, schedule, membership, partitions=2, seed=5, backend="inline"
        )
        _assert_equal_traces(sequential, partitioned)


class TestCrossPartitionOrdering:
    def test_crossing_deliveries_interleave_in_sequential_order(self):
        # A node on a shard border receives same-timestamp messages from
        # senders owned by different shards; the keyed scheduler must
        # interleave them exactly as the sequential run's insertion order
        # did — the per-receiver delivery sequence is the witness.
        graph = torus(8, 8)
        schedule = region_crash(graph, [(2, 2), (2, 3), (3, 2), (3, 3)], at=1.0)
        sequential = run_cliff_edge(graph, schedule, seed=0)
        partitioned = run_partitioned(
            graph, schedule, partitions=4, seed=0, backend="inline"
        )
        for result in (sequential, partitioned):
            assert result.metrics.messages_sent > 0

        def deliveries(result):
            return [
                (event.node, event.peer, event.time, repr(event.payload))
                for event in result.trace.of_kind(EventKind.MESSAGE_DELIVERED)
            ]

        assert deliveries(partitioned) == deliveries(sequential)

    def test_fifo_order_preserved_per_channel(self):
        graph = torus(8, 8)
        schedule = region_crash(graph, [(2, 2), (2, 3)], at=1.0, spread=0.5)
        partitioned = run_partitioned(
            graph, schedule, partitions=4, seed=1, backend="inline"
        )
        last_delivery: dict = {}
        for event in partitioned.trace.of_kind(EventKind.MESSAGE_DELIVERED):
            channel = (event.peer, event.node)
            assert last_delivery.get(channel, -1.0) < event.time
            last_delivery[channel] = event.time


class TestStrictValidation:
    def test_random_latency_is_rejected(self):
        graph = grid(4, 4)
        schedule = region_crash(graph, [(1, 1)], at=1.0)
        with pytest.raises(PartitionError):
            run_partitioned(
                graph,
                schedule,
                partitions=2,
                latency=UniformLatency(0.5, 1.5),
                backend="inline",
            )

    def test_jittered_detector_is_rejected(self):
        graph = grid(4, 4)
        schedule = region_crash(graph, [(1, 1)], at=1.0)
        with pytest.raises(PartitionError):
            run_partitioned(
                graph,
                schedule,
                partitions=2,
                failure_detector=JitteredFailureDetector(0.5, 1.5),
                backend="inline",
            )

    def test_too_many_partitions_rejected(self):
        graph = grid(3, 3)
        schedule = region_crash(graph, [(1, 1)], at=1.0)
        with pytest.raises(PartitionError):
            run_partitioned(graph, schedule, partitions=10, backend="inline")

    def test_unknown_backend_rejected(self):
        graph = grid(3, 3)
        schedule = region_crash(graph, [(1, 1)], at=1.0)
        with pytest.raises(PartitionError):
            run_partitioned(graph, schedule, partitions=2, backend="threads")

    def test_max_events_budget_violation_raises(self):
        graph = torus(8, 8)
        schedule = region_crash(graph, [(2, 2), (2, 3)], at=1.0)
        with pytest.raises(PartitionError):
            run_partitioned(
                graph, schedule, partitions=2, max_events=50, backend="inline"
            )


class TestSpecLayerIntegration:
    def _static_spec(self, partitions: int = 1) -> ExperimentSpec:
        return ExperimentSpec(
            topology=TopologySpec("torus", {"width": 8, "height": 8}),
            failure=FailureSpec(
                "region", {"members": [[2, 2], [2, 3], [3, 2]], "at": 1.0}
            ),
            runtime=RuntimeSpec(partitions=partitions),
            seed=2,
        )

    def test_partitioned_spec_digest_equals_sequential_spec(self):
        sequential = run_spec(self._static_spec())
        partitioned = run_spec(self._static_spec(partitions=4))
        assert partitioned.digest() == sequential.digest()
        assert partitioned.labels["partitions"] == 4
        assert partitioned.labels["spec_digest"] != sequential.labels["spec_digest"]

    def test_partitioned_churn_spec_digest_equal(self):
        churn_params = {"churn_rate": 0.05, "duration": 30.0}
        base = ExperimentSpec(
            topology=TopologySpec("torus", {"width": 8, "height": 8}),
            failure=FailureSpec("steady_churn", churn_params),
            membership=MembershipSpec("steady_churn", churn_params),
            seed=7,
        )
        assert run_spec(base.with_partitions(3)).digest() == run_spec(base).digest()

    def test_unbatched_partitioned_spec_rejected(self):
        spec = ExperimentSpec(
            topology=TopologySpec("grid", {"width": 4, "height": 4}),
            runtime=RuntimeSpec(batched=False, partitions=2),
        )
        with pytest.raises(SpecError):
            run_spec(spec)

    def test_asyncio_partitions_rejected_at_construction(self):
        with pytest.raises(SpecError):
            RuntimeSpec(engine="asyncio", partitions=2)


_DIGEST_CHILD_SCRIPT = """
import sys
sys.path.insert(0, {src!r})
from repro.experiments.runner import run_cliff_edge
from repro.failures import region_crash
from repro.graph.generators import torus
from repro.sim.partition import run_partitioned
graph = torus(8, 8)
schedule = region_crash(graph, [(2, 2), (2, 3), (3, 2), (3, 3)], at=1.0)
print(run_partitioned(
    graph, schedule, partitions=2, seed=0, backend="inline",
    collection="digest",
).digest())
print(run_cliff_edge(graph, schedule, seed=0, check=False).digest())
"""


class TestDigestCollection:
    """``collection="digest"`` ships zero trace bytes but must stay
    digest-identical to a full-trace run — on every partition count,
    on both backends, through the spec layer and through sweeps."""

    def _scenario(self):
        graph = torus(8, 8)
        schedule = region_crash(graph, [(2, 2), (2, 3), (3, 2), (3, 3)], at=1.0)
        return graph, schedule

    def test_digest_mode_equal_across_partition_counts(self):
        graph, schedule = self._scenario()
        sequential = run_cliff_edge(graph, schedule, seed=0)
        for partitions in (1, 2, 4):
            lean = run_partitioned(
                graph,
                schedule,
                partitions=partitions,
                seed=0,
                backend="inline",
                collection="digest",
            )
            assert lean.digest() == sequential.digest()
            assert len(lean.trace) == len(sequential.trace)
            assert lean.trace.end_time() == sequential.trace.end_time()

    def test_digest_mode_equal_on_process_backend(self):
        graph, schedule = self._scenario()
        sequential = run_cliff_edge(graph, schedule, seed=0)
        lean = run_partitioned(
            graph,
            schedule,
            partitions=2,
            seed=0,
            backend="process",
            collection="digest",
        )
        assert lean.digest() == sequential.digest()

    def test_digest_mode_outcome_surface_matches_full_trace(self):
        """Metrics, decisions and the crash set survive without a log."""
        graph, schedule = self._scenario()
        full = run_partitioned(
            graph, schedule, partitions=2, seed=0, backend="inline"
        )
        lean = run_partitioned(
            graph,
            schedule,
            partitions=2,
            seed=0,
            backend="inline",
            collection="digest",
        )
        assert collect_metrics(lean.trace) == collect_metrics(full.trace)
        assert lean.trace.decisions() == full.trace.decisions()
        assert lean.trace.crashed_nodes() == full.trace.crashed_nodes()
        with pytest.raises(TraceUnavailableError):
            lean.trace.events

    def test_digest_mode_rejects_checkers_and_churn(self):
        graph, schedule = self._scenario()
        with pytest.raises(PartitionError):
            run_partitioned(
                graph,
                schedule,
                partitions=2,
                check=True,
                backend="inline",
                collection="digest",
            )
        churn_graph = torus(8, 8)
        churn_schedule, membership = steady_state_churn(
            churn_graph, churn_rate=0.05, duration=20.0, seed=3
        )
        with pytest.raises(PartitionError):
            run_partitioned(
                churn_graph,
                churn_schedule,
                membership,
                partitions=2,
                backend="inline",
                collection="digest",
            )

    def _digest_spec(self, partitions: int = 1) -> ExperimentSpec:
        return ExperimentSpec(
            topology=TopologySpec("torus", {"width": 8, "height": 8}),
            failure=FailureSpec(
                "region", {"members": [[2, 2], [2, 3], [3, 2]], "at": 1.0}
            ),
            runtime=RuntimeSpec(partitions=partitions),
            check=False,
            seed=2,
        )

    def test_spec_layer_digest_collection_equal(self):
        base = self._digest_spec()
        sequential = run_spec(base)
        for partitions in (1, 4):
            lean = run_spec(
                self._digest_spec(partitions).with_collection("digest")
            )
            assert lean.digest() == sequential.digest()

    def test_sweep_digest_collection_equal(self):
        """A digest-collection sweep (workers never materialise a log)
        reports the same combined digest as a full-trace sweep."""
        base = self._digest_spec()
        full = run_spec(SweepSpec(experiment=base, seeds=(0, 1), workers=1))
        lean = run_spec(
            SweepSpec(
                experiment=base.with_collection("digest"),
                seeds=(0, 1),
                workers=1,
            )
        )
        assert lean.digest() == full.digest()

    def test_digest_mode_is_hash_seed_independent(self):
        """Partials combined across shards must agree between interpreters
        started with different PYTHONHASHSEED values (the spawn-worker
        reality), and with an in-process full-trace run."""
        src = str(Path(__file__).resolve().parents[2] / "src")
        outputs = set()
        for hash_seed in ("1", "12345"):
            completed = subprocess.run(
                [sys.executable, "-c", _DIGEST_CHILD_SCRIPT.format(src=src)],
                capture_output=True,
                text=True,
                env={"PYTHONHASHSEED": hash_seed, "PATH": "/usr/bin:/bin"},
                check=True,
            )
            outputs.add(completed.stdout.strip())
        assert len(outputs) == 1
        lean_digest, full_digest = outputs.pop().splitlines()
        assert lean_digest == full_digest
        graph, schedule = self._scenario()
        assert lean_digest == run_cliff_edge(graph, schedule, seed=0).digest()


class TestSerializationBudget:
    """Byte budgets of what each collection mode ships per worker.

    ``measure_worker_payloads`` reports the packed wire blob (what the
    pipe carries), the raw pickle, and — for full traces — the
    pre-columnar object-trace baseline the columns replaced."""

    def test_digest_payloads_fit_fixed_budget_small(self):
        graph = torus(8, 8)
        schedule = region_crash(graph, [(2, 2), (2, 3), (3, 2), (3, 3)], at=1.0)
        measured = measure_worker_payloads(
            graph, schedule, partitions=2, collection="digest", seed=0
        )
        assert max(measured["raw_payload_bytes"]) < 4096
        assert max(measured["payload_bytes"]) < 4096

    def test_columnar_wire_bytes_under_quarter_of_object_baseline_small(self):
        graph = torus(8, 8)
        schedule = region_crash(graph, [(2, 2), (2, 3), (3, 2), (3, 3)], at=1.0)
        measured = measure_worker_payloads(
            graph, schedule, partitions=2, collection="trace", seed=0
        )
        baseline = measured["total_object_baseline_bytes"]
        assert measured["total_payload_bytes"] <= baseline * 0.25
        # The columnar representation is smaller before compression too.
        assert measured["total_raw_payload_bytes"] < baseline

    @pytest.mark.slow
    def test_4096_node_budgets(self):
        """The issue's headline numbers: on a 4096-node torus the digest
        mode ships a few KB per worker regardless of trace length, and
        the columnar wire format stays under a quarter of the object
        baseline."""
        side = 64
        graph = torus(side, side)
        schedule = region_crash(
            graph, [(30, 30), (30, 31), (31, 30), (31, 31)], at=1.0
        )
        digest_measured = measure_worker_payloads(
            graph, schedule, partitions=4, collection="digest", seed=3
        )
        assert max(digest_measured["raw_payload_bytes"]) < 8192
        trace_measured = measure_worker_payloads(
            graph, schedule, partitions=4, collection="trace", seed=3
        )
        baseline = trace_measured["total_object_baseline_bytes"]
        assert trace_measured["total_payload_bytes"] <= baseline * 0.25
        assert trace_measured["total_raw_payload_bytes"] < baseline
        # Digest payloads are orders of magnitude below even the
        # compressed columnar wire bytes.
        assert (
            digest_measured["total_payload_bytes"] * 10
            < trace_measured["total_payload_bytes"]
        )
