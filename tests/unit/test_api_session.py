"""Unit tests for :mod:`repro.api.session`, the topology cache, and the
unified Result protocol."""

from __future__ import annotations

import json
import sys
import threading

import pytest

from repro.api import (
    ExperimentSession,
    ExperimentSpec,
    FailureSpec,
    MembershipSpec,
    Result,
    RuntimeSpec,
    SpecError,
    SweepSpec,
    TopologySpec,
    build_topology,
    churn_scenario_spec,
    clear_topology_cache,
    figure_spec,
    quickstart_spec,
    run_spec,
    run_spec_json,
    topology_cache_info,
)
from repro.churn.runner import ChurnRunResult
from repro.experiments import (
    churn_flash_crowd_scenario,
    churn_recovery_race_scenario,
    churn_steady_scenario,
    fig1a_scenario,
)
from repro.experiments.runner import RunResult, run_cliff_edge
from repro.failures import region_crash
from repro.graph.generators import grid, square_region


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_topology_cache()
    yield
    clear_topology_cache()


class TestTopologyCache:
    def test_cache_hit_returns_same_instance(self):
        spec = TopologySpec("grid", {"width": 5, "height": 5})
        first = build_topology(spec)
        second = build_topology(spec)
        assert first is second
        info = topology_cache_info()
        assert info.hits == 1 and info.misses == 1

    def test_equivalent_specs_share_one_build(self):
        a = TopologySpec("grid", {"width": 5, "height": 5})
        b = TopologySpec("grid", {"height": 5, "width": 5})
        assert build_topology(a) is build_topology(b)

    def test_different_specs_build_different_graphs(self):
        small = build_topology(TopologySpec("grid", {"width": 4, "height": 4}))
        large = build_topology(TopologySpec("grid", {"width": 5, "height": 5}))
        assert len(small) != len(large)
        assert topology_cache_info().misses == 2

    def test_cache_eviction_respects_maxsize(self):
        from repro.api import set_topology_cache_size

        try:
            set_topology_cache_size(2)
            for side in (4, 5, 6):
                build_topology(TopologySpec("grid", {"width": side, "height": side}))
            assert topology_cache_info().size == 2
            # The oldest entry (side=4) was evicted; rebuilding is a miss.
            build_topology(TopologySpec("grid", {"width": 4, "height": 4}))
            assert topology_cache_info().misses == 4
        finally:
            set_topology_cache_size(32)

    def test_cached_graph_equals_direct_build(self):
        spec = TopologySpec("torus", {"width": 5, "height": 5})
        cached = build_topology(spec)
        direct = spec.build_uncached()
        assert cached.nodes == direct.nodes
        assert cached.edge_count == direct.edge_count

    def test_threads_sharing_the_cached_graph_reproduce_the_pinned_digest(self):
        """Service workers share one cached snapshot, hence one border memo:
        racing fills must store equal values."""
        spec = quickstart_spec(side=8, seed=0)
        document = spec.to_json()
        graph = build_topology(spec.topology)
        digests: list[str] = []
        start = threading.Barrier(4)

        def worker():
            start.wait(timeout=30)
            digests.append(run_spec_json(document).digest())

        threads = [threading.Thread(target=worker) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert digests == [
            "41aa48f9a129dce03f7cad063ac435e50abfee4af1ded5e10f2ae6d2c79c2ecb"
        ] * 4
        assert build_topology(spec.topology) is graph and graph._border_memo


class TestSessionEquivalence:
    """Spec-driven runs must be digest-identical to the classic APIs."""

    def test_quickstart_spec_matches_run_cliff_edge(self):
        spec = quickstart_spec(side=6, block=2, seed=0)
        via_spec = ExperimentSession().run(spec)
        graph = grid(6, 6)
        block = sorted(square_region((1, 1), 2))
        direct = run_cliff_edge(graph, region_crash(graph, block, at=1.0), seed=0, check=True)
        assert via_spec.digest() == direct.digest()
        assert via_spec.specification.holds

    # The scenario builders run their preset spec through the session, so
    # comparing one to the other proves nothing any more: the digests below
    # are what the builders produced while they still called the runners
    # themselves (tests/unit/test_one_description.py has the full battery).
    def test_figure_1a_spec_matches_scenario(self):
        assert figure_spec("1a") == fig1a_scenario().spec
        assert figure_spec("1a").digest().startswith("7ab8d5aa96bb2984")
        # Its trace digest moves with the hash seed (str node ids, pinned in
        # a PYTHONHASHSEED=0 subprocess by the battery); the decided views
        # do not.
        via_spec = ExperimentSession().run(figure_spec("1a"))
        assert sorted(sorted(view.members) for view in via_spec.decided_views) == [
            ["barcelona", "geneva", "lyon"],
            ["honolulu", "osaka", "seoul", "shanghai"],
        ]

    @pytest.mark.parametrize(
        "name, builder",
        [
            ("steady", churn_steady_scenario),
            ("race", churn_recovery_race_scenario),
            ("flash", churn_flash_crowd_scenario),
        ],
    )
    def test_churn_scenario_specs_match_builders(self, name, builder):
        digest = {
            "steady": "8badf79ab3b0988b",
            "race": "d307aa830fd1aab0",
            "flash": "4b35794a2f872b9e",
        }[name]
        spec = churn_scenario_spec(name, nodes=36, seed=2)
        via_spec = ExperimentSession().run(spec)
        direct = builder(nodes=36, seed=2).run(check=True, seed=2, runtime="sim")
        assert via_spec.digest().startswith(digest)
        assert direct.digest().startswith(digest)
        assert isinstance(via_spec, ChurnRunResult)

    def test_session_routes_static_specs_to_run_result(self):
        result = ExperimentSession().run(quickstart_spec())
        assert isinstance(result, RunResult)

    def test_unbatched_runtime_spec_is_trace_equal(self):
        spec = quickstart_spec(side=5, block=2)
        batched = ExperimentSession().run(spec)
        unbatched = ExperimentSession().run(
            ExperimentSpec.from_dict(
                dict(spec.to_dict(), runtime=dict(spec.runtime.to_dict(), batched=False))
            )
        )
        assert batched.digest() == unbatched.digest()

    def test_churn_spec_rejects_ablation_knobs(self):
        spec = churn_scenario_spec("race", nodes=36)
        bad = ExperimentSpec.from_dict(dict(spec.to_dict(), early_termination=True))
        with pytest.raises(SpecError):
            ExperimentSession().run(bad)

    def test_asyncio_spec_rejects_sim_only_knobs(self):
        base = churn_scenario_spec("flash", nodes=16, runtime="asyncio")
        for override in (
            {"early_termination": True},
            {"arbitration": False},
            {"runtime": dict(base.runtime.to_dict(), batched=False)},
            {"runtime": dict(base.runtime.to_dict(), latency={"kind": "constant"})},
            {"runtime": dict(base.runtime.to_dict(), until=50.0)},
            {"runtime": dict(base.runtime.to_dict(), max_events=10)},
        ):
            bad = ExperimentSpec.from_dict(dict(base.to_dict(), **override))
            with pytest.raises(SpecError, match="asyncio"):
                ExperimentSession().run(bad)

    def test_coupled_kinds_resolve_once_and_stay_consistent(self):
        spec = churn_scenario_spec("steady", nodes=16, seed=4)
        graph, schedule, membership = ExperimentSession().resolve(spec)
        # Both halves come from one builder call and must validate together.
        membership.validate(graph, crashes=schedule)
        assert len(schedule) > 0 and len(membership) > 0

    def test_coupled_kinds_reject_divergent_params(self):
        # A grid override touching only one half would silently build an
        # inconsistent scenario; the session must refuse it.
        sweep = SweepSpec(
            experiment=churn_scenario_spec("race", nodes=16),
            grid={"failure.params.recover_at": (4.0, 8.0)},
        )
        for point in sweep.expand():
            with pytest.raises(SpecError, match="identical"):
                ExperimentSession().resolve(point)

    def test_coupled_kinds_reject_a_lone_half(self):
        spec = churn_scenario_spec("race", nodes=16)
        lone = ExperimentSpec.from_dict(
            dict(spec.to_dict(), membership={"kind": "none", "params": {}})
        )
        with pytest.raises(SpecError, match="pair"):
            ExperimentSession().resolve(lone)

    def test_spec_labels_and_digest_reach_the_result(self):
        result = ExperimentSession().run(quickstart_spec(side=5))
        assert result.labels["scenario"] == "quickstart"
        assert result.labels["spec_digest"] == quickstart_spec(side=5).digest()


class TestResultProtocol:
    def test_all_three_layers_implement_result(self):
        run_result = ExperimentSession().run(quickstart_spec(side=5))
        churn_result = ExperimentSession().run(churn_scenario_spec("flash", nodes=16))
        report = ExperimentSession().run_sweep(
            SweepSpec(experiment=quickstart_spec(side=5), seeds=(0,))
        )
        for outcome in (run_result, churn_result, report):
            assert isinstance(outcome, Result)
            assert isinstance(outcome.digest(), str) and outcome.digest()
            json.dumps(outcome.as_dict())

    def test_shared_mixin_backs_both_run_results(self):
        from repro.api import DecisionResultMixin

        assert issubclass(RunResult, DecisionResultMixin)
        assert issubclass(ChurnRunResult, DecisionResultMixin)
        run_result = ExperimentSession().run(quickstart_spec(side=5))
        assert run_result.deciding_nodes
        view = next(iter(run_result.decided_views))
        assert run_result.decisions_on(view)

    def test_sweep_report_check_specification_aggregates(self):
        report = ExperimentSession().run_sweep(
            SweepSpec(experiment=quickstart_spec(side=5), seeds=(0, 1))
        )
        aggregate = report.check_specification()
        assert aggregate.holds
        assert aggregate.checked_runs == 2
        assert "holds" in aggregate.summary()

    def test_as_dict_payload_shape(self):
        result = ExperimentSession().run(quickstart_spec(side=5))
        payload = result.as_dict()
        assert payload["type"] == "run"
        assert payload["specification"]["holds"] is True
        assert payload["digest"] == result.digest()
        assert payload["metrics"]["decisions"] == result.metrics.decisions


class TestRunSpecConveniences:
    def test_run_spec_dispatches_on_spec_type(self):
        assert isinstance(run_spec(quickstart_spec(side=5)), RunResult)
        report = run_spec(SweepSpec(experiment=quickstart_spec(side=5), seeds=(0,)))
        assert len(report) == 1

    def test_run_spec_json_round_trips_through_documents(self):
        from repro.api import run_spec_json

        result = run_spec_json(quickstart_spec(side=5).to_json())
        assert result.specification.holds

    def test_membership_spec_static_detection(self):
        assert MembershipSpec().is_static
        assert MembershipSpec("flash_crowd", {"count": 0}).is_static
        assert not MembershipSpec("flash_crowd", {"count": 2}).is_static
        assert not MembershipSpec("steady_churn").is_static

    def test_runtime_spec_resolvers(self):
        runtime = RuntimeSpec(
            latency={"kind": "uniform", "low": 0.5, "high": 1.5},
            failure_detector={"kind": "perfect", "detection_delay": 2.0},
        )
        assert runtime.resolve_latency().low == 0.5
        assert runtime.resolve_failure_detector().detection_delay == 2.0
        assert RuntimeSpec().resolve_latency() is None
        with pytest.raises(SpecError):
            RuntimeSpec(latency={"kind": "wormhole"}).resolve_latency()
