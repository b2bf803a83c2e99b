"""Integration tests for the footnote-6 early-termination optimisation (EXP-A3)."""

from __future__ import annotations

import pytest

from repro import region_crash, run_cliff_edge
from repro.experiments import early_termination_ablation
from repro.failures import growing_region_crash
from repro.graph import Region
from repro.graph.generators import grid, square_region, torus
from repro.sim import JitteredFailureDetector


class TestEarlyTerminationEquivalence:
    @pytest.fixture(scope="class")
    def pair(self):
        graph = torus(12, 12)
        schedule = region_crash(graph, square_region((1, 1), 3), at=1.0)
        plain = run_cliff_edge(graph, schedule, early_termination=False, check=True)
        early = run_cliff_edge(graph, schedule, early_termination=True, check=True)
        return plain, early

    def test_same_views_and_deciders(self, pair):
        plain, early = pair
        assert plain.decided_views == early.decided_views
        assert plain.deciding_nodes == early.deciding_nodes
        # One view, decided by the whole border of the 3x3 block.
        assert len(plain.decided_views) == 1 and len(plain.deciding_nodes) == 12

    def test_same_decision_values(self, pair):
        plain, early = pair
        plain_values = {d.node: repr(d.value) for d in plain.decisions}
        early_values = {d.node: repr(d.value) for d in early.decisions}
        assert plain_values == early_values

    def test_specification_holds_for_both(self, pair):
        plain, early = pair
        assert plain.specification.holds
        assert early.specification.holds

    def test_early_termination_saves_messages_and_time(self, pair):
        plain, early = pair
        assert early.metrics.messages_sent < plain.metrics.messages_sent
        assert early.metrics.bytes_sent < plain.metrics.bytes_sent
        assert early.metrics.last_decision_time < plain.metrics.last_decision_time

    def test_small_border_unaffected(self):
        """With a 2-node border there is only one round; nothing to save."""
        graph = grid(5, 5)
        schedule = region_crash(graph, [(0, 0)], at=1.0)
        plain = run_cliff_edge(graph, schedule, early_termination=False)
        early = run_cliff_edge(graph, schedule, early_termination=True)
        assert plain.metrics.messages_sent == early.metrics.messages_sent
        assert plain.decided_views == early.decided_views == {
            Region(frozenset({(0, 0)}))
        }


class TestEarlyTerminationRobustness:
    def test_growth_scenario_still_converges(self):
        graph = torus(10, 10)
        schedule = growing_region_crash(
            graph,
            [(1, 1), (1, 2)],
            growth_members=[(2, 1), (2, 2)],
            initial_at=1.0,
            growth_at=4.0,
            growth_spacing=2.0,
        )
        result = run_cliff_edge(
            graph,
            schedule,
            early_termination=True,
            failure_detector=JitteredFailureDetector(0.5, 2.0),
            check=True,
        )
        assert result.specification.holds, result.specification.summary()
        assert result.metrics.decisions > 0

    def test_random_scenarios_hold_specification(self):
        from repro.failures import random_connected_region

        for seed in range(6):
            graph = torus(9, 9)
            region = random_connected_region(graph, 4 + seed % 3, seed=seed)
            schedule = region_crash(graph, region.members, at=1.0, spread=float(seed % 4))
            result = run_cliff_edge(
                graph,
                schedule,
                early_termination=True,
                failure_detector=JitteredFailureDetector(0.5, 2.0),
                seed=seed,
                check=True,
            )
            assert result.specification.holds, result.specification.summary()

    def test_ablation_rows(self):
        points = early_termination_ablation()
        assert len(points) == 4
        by_workload: dict[str, dict[bool, object]] = {}
        for point in points:
            assert point.specification_holds
            by_workload.setdefault(point.workload, {})[point.early_termination] = point
        for workload, pair in by_workload.items():
            assert pair[True].messages < pair[False].messages, workload
            assert pair[True].decisions == pair[False].decisions
            assert pair[True].decided_views == pair[False].decided_views
