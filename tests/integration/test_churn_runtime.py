"""Integration tests for the churn subsystem on both runtimes."""

from __future__ import annotations

import os

import pytest

from repro.api import ExperimentSession, churn_scenario_spec
from repro.churn import (
    MembershipSchedule,
    check_churn_all,
    crash_recover_recrash,
    leave,
    recover,
)
from repro.cli import main as cli_main
from repro.experiments import run_cliff_edge
from repro.failures import CrashSchedule, region_crash
from repro.graph import KnowledgeGraph, Region
from repro.graph.generators import grid
from repro.runtime import run_asyncio
from repro.sim.events import EventKind


BLOCK = [(2, 2), (2, 3), (3, 2), (3, 3)]

def churn_asyncio(*args, **kwargs):
    """The churn harness's asyncio leg, on virtual time by default.

    CI routes this leg through the deterministic virtual-time loop
    (ROADMAP item 3): zero real sleeps, reproducible digests.  Set
    ``REPRO_CHURN_WALLCLOCK=1`` to drive the same runtime on the wall
    clock instead; dedicated wall-clock coverage also lives in
    ``tests/integration/test_asyncio_runtime.py``.
    """
    kwargs.setdefault(
        "virtual", os.environ.get("REPRO_CHURN_WALLCLOCK", "") != "1"
    )
    return run_asyncio(*args, **kwargs)


class TestCrashRecoverRecrash:
    @pytest.fixture(scope="class")
    def scenario(self):
        graph = grid(6, 6)
        crashes, membership = crash_recover_recrash(
            graph, BLOCK, crash_at=1.0, recover_at=40.0, recrash_at=80.0
        )
        return graph, crashes, membership

    @pytest.fixture(scope="class")
    def sim_result(self, scenario):
        graph, crashes, membership = scenario
        return run_cliff_edge(graph, crashes, membership, check=True)

    @pytest.fixture(scope="class")
    def async_result(self, scenario):
        graph, crashes, membership = scenario
        return churn_asyncio(graph, crashes, membership, check=True)

    def test_simulator_satisfies_epoch_specification(self, sim_result):
        assert sim_result.quiescent
        assert sim_result.specification.holds, sim_result.specification.summary()

    def test_block_decided_once_per_crash_epoch(self, sim_result):
        block_view = tuple(sorted(frozenset(BLOCK), key=repr))
        # 8 border nodes decide in each of the two crash epochs.
        assert sim_result.decided_view_multiset.count(block_view) == 16
        assert sim_result.decided_views == {Region(frozenset(BLOCK))}

    def test_epochs_reconstructed(self, sim_result):
        # initial epoch + one per recovered node.
        assert len(sim_result.epochs) == 1 + len(BLOCK)
        assert all(
            epoch.graph == sim_result.base_graph for epoch in sim_result.epochs
        )

    def test_asyncio_satisfies_epoch_specification(self, async_result):
        assert async_result.quiescent
        assert async_result.specification.holds, async_result.specification.summary()

    def test_runtimes_reach_identical_decisions(self, sim_result, async_result):
        # Race-free timing: both runtimes must produce the *same multiset*
        # of decisions, not merely the same distinct views.
        assert sim_result.decided_view_multiset == async_result.decided_view_multiset
        assert sim_result.deciding_nodes == async_result.deciding_nodes

    def test_fresh_incarnation_spawned(self, sim_result):
        restarts = [
            event
            for event in sim_result.trace.of_kind(EventKind.NODE_STARTED)
            if event.node in set(BLOCK)
        ]
        # one initial start + one per recovery
        assert len(restarts) == 2 * len(BLOCK)


class TestRecoveryRace:
    def test_recovery_racing_agreement_stays_within_spec(self):
        result = ExperimentSession().run(churn_scenario_spec("race", seed=1))
        assert result.quiescent
        assert result.specification.holds, result.specification.summary()
        # Whatever the interleaving, only the block itself is ever decided.
        block = frozenset([(1, 1), (1, 2), (2, 1), (2, 2)])
        assert result.decided_views <= {Region(block)}


class TestSteadyChurn:
    def test_steady_scenario_holds_and_decides_every_cycle(self):
        spec = churn_scenario_spec("steady", nodes=64, churn_rate=0.05, seed=1)
        result = ExperimentSession().run(spec)
        assert result.quiescent
        assert result.specification.holds, result.specification.summary()
        assert result.metrics.decisions >= len(result.membership)


class TestFlashCrowd:
    def test_joins_grow_graph_without_disturbing_agreement(self):
        result = ExperimentSession().run(churn_scenario_spec("flash", crowd=6, seed=2))
        assert result.quiescent
        assert result.specification.holds, result.specification.summary()
        assert len(result.final_graph) == len(result.base_graph) + 6
        block = frozenset([(1, 1), (1, 2), (2, 1), (2, 2)])
        assert result.decided_views == {Region(block)}
        # Newcomers never speak: they are outside every faulty-domain scope.
        joined = {event.node for event in result.trace.of_kind(EventKind.NODE_JOINED)}
        speakers = {
            event.node for event in result.trace.of_kind(EventKind.MESSAGE_SENT)
        }
        assert not (joined & speakers)


class TestGracefulLeave:
    def test_leave_mid_agreement_merges_into_region(self):
        graph = grid(6, 6)
        crashes = region_crash(graph, [(2, 2), (2, 3)], at=1.0)
        leaves = MembershipSchedule((leave((1, 2), 2.5), leave((5, 5), 4.0)))
        result = run_cliff_edge(graph, crashes, leaves, check=True)
        assert result.quiescent
        assert result.specification.holds, result.specification.summary()
        merged = Region(frozenset({(1, 2), (2, 2), (2, 3)}))
        lone = Region(frozenset({(5, 5)}))
        assert result.decided_views == {merged, lone}

    def test_static_checkers_still_work_on_unchurned_runs(self):
        graph = grid(6, 6)
        crashes = region_crash(graph, BLOCK, at=1.0)
        result = run_cliff_edge(graph, crashes, MembershipSchedule(), check=True)
        assert len(result.epochs) == 1
        assert result.specification.holds
        # The epoch-quotiented checkers agree with the static ones here.
        report = check_churn_all(graph, result.trace)
        assert report.holds


class TestDistantWatcherRecovery:
    def test_non_neighbour_subscribers_learn_of_recoveries(self):
        """Recovery announcements must reach the old incarnation's distant
        watchers, not just graph neighbours.

        On t-a-A-B, node ``a`` monitors B transitively (line 7) after A
        and B crash.  When both recover and only A re-crashes, ``a`` must
        have dropped B from its crashed knowledge — the epoch-2 decision
        is {A}, not the stale {A, B}.
        """
        graph = KnowledgeGraph([("t", "a"), ("a", "A"), ("A", "B")])
        crashes = CrashSchedule(
            (("A", 1.0), ("B", 1.0), ("A", 80.0)), allow_recrash=True
        )
        membership = MembershipSchedule((recover("A", 40.0), recover("B", 40.0)))
        for runner in (run_cliff_edge, churn_asyncio):
            result = runner(graph, crashes, membership, check=True)
            assert result.quiescent
            assert result.specification.holds, (
                runner.__name__ + ":\n" + result.specification.summary()
            )
            assert result.decided_views == {
                Region(frozenset({"A", "B"})),
                Region(frozenset({"A"})),
            }, runner.__name__


class TestScheduleErrorSurfacing:
    def test_asyncio_raises_when_membership_event_fails(self):
        """A failing membership event must not masquerade as quiescence."""

        class ExplodingPolicy:
            def neighbours_for(self, node, *, current, base, crashed, rng):
                raise RuntimeError("attachment exploded")

        graph = grid(4, 4)
        crashes = CrashSchedule((((1, 1), 1.0),))
        membership = MembershipSchedule(
            (recover((1, 1), 5.0, ExplodingPolicy()),)
        )
        with pytest.raises(RuntimeError, match="attachment exploded"):
            run_asyncio(graph, crashes, membership)

    def test_asyncio_validates_membership_upfront(self):
        graph = grid(4, 4)
        bad = MembershipSchedule((recover((1, 1), 5.0),))  # never crashed
        with pytest.raises(Exception):
            run_asyncio(graph, CrashSchedule(), bad)


class TestChurnCli:
    def test_cli_steady_runs_end_to_end(self):
        lines: list[str] = []
        code = cli_main(
            ["churn", "--nodes", "64", "--churn-rate", "0.05", "--seed", "1"],
            write=lines.append,
        )
        assert code == 0
        output = "\n".join(lines)
        assert "epoch-quotiented specification CD1-CD7: holds" in output

    def test_cli_race_compares_runtimes(self):
        lines: list[str] = []
        code = cli_main(
            ["churn", "--scenario", "race", "--runtime", "both", "--seed", "1"],
            write=lines.append,
        )
        assert code == 0
        assert any("runtimes decided identical views: True" in line for line in lines)
