"""Integration tests for the locality claims (EXP-L1/L2) and baselines (EXP-B*)."""

from __future__ import annotations

import pytest

from repro.api import SpecError, locality_sweep_spec, run_spec, torus_region_spec
from repro.experiments import (
    global_consensus_comparison,
    gossip_comparison,
    locality_is_flat,
    uncoordinated_comparison,
)


def _rows(sweep) -> list[dict]:
    """The ``locality`` extractor's row of every run of a sweep document."""
    return [outcome.labels["extract"] for outcome in run_spec(sweep).outcomes]


class TestLocalitySystemSize:
    @pytest.fixture(scope="class")
    def points(self):
        return _rows(locality_sweep_spec("l1", sides=(8, 12, 16, 24), region_side=3))

    def test_specification_holds_everywhere(self, points):
        assert all(point["spec_holds"] for point in points)

    def test_message_cost_is_flat(self, points):
        assert locality_is_flat(points)
        messages = {point["messages"] for point in points}
        # Identical seed and identical local scenario: exactly equal costs.
        assert len(messages) == 1

    def test_speaking_nodes_do_not_grow(self, points):
        speaking = {point["speaking_nodes"] for point in points}
        assert len(speaking) == 1
        assert speaking.pop() == points[0]["border_size"]

    def test_bytes_are_flat(self, points):
        assert len({point["bytes"] for point in points}) == 1

    def test_system_sizes_really_grow(self, points):
        sizes = [point["system_size"] for point in points]
        assert sizes == sorted(sizes)
        assert sizes[-1] > 8 * sizes[0]

    def test_decisions_match_border(self, points):
        assert all(point["decisions"] == point["border_size"] for point in points)

    def test_rows_have_expected_keys(self, points):
        assert list(points[0]) == [
            "system_size", "region_size", "border_size", "messages", "bytes",
            "speaking_nodes", "decisions", "decided_views", "rejections",
            "decision_time", "spec_holds",
        ]  # fmt: skip


class TestLocalityRegionSize:
    @pytest.fixture(scope="class")
    def points(self):
        return _rows(locality_sweep_spec("l2", region_sides=(1, 2, 3, 4), side=16))

    def test_specification_holds_everywhere(self, points):
        assert all(point["spec_holds"] for point in points)

    def test_cost_grows_with_region(self, points):
        messages = [point["messages"] for point in points]
        assert messages == sorted(messages)
        assert messages[-1] > 10 * messages[0]

    def test_border_grows_linearly_with_side(self, points):
        assert [point["border_size"] for point in points] == [4, 8, 12, 16]

    def test_speaking_nodes_track_border(self, points):
        assert all(point["speaking_nodes"] == point["border_size"] for point in points)

    def test_region_side_validation(self):
        with pytest.raises(SpecError, match="two nodes wider"):
            torus_region_spec(side=4, region_side=3)


class TestGlobalConsensusBaseline:
    @pytest.fixture(scope="class")
    def points(self):
        return global_consensus_comparison(sides=(6, 8, 10), region_side=2)

    def test_baseline_cost_grows_with_system(self, points):
        global_messages = [point.global_messages for point in points]
        assert global_messages == sorted(global_messages)
        assert global_messages[-1] > 2 * global_messages[0]

    def test_cliff_edge_cost_stays_flat(self, points):
        assert len({point.cliff_edge_messages for point in points}) == 1

    def test_ratio_widens(self, points):
        ratios = [point.message_ratio for point in points]
        assert ratios == sorted(ratios)
        assert ratios[-1] > ratios[0]

    def test_global_involves_whole_network(self, points):
        for point in points:
            assert point.global_speaking_nodes >= point.system_size - point.region_size
            assert point.cliff_edge_speaking_nodes < point.system_size // 2


class TestGossipBaseline:
    @pytest.fixture(scope="class")
    def points(self):
        return gossip_comparison(sides=(8, 12), region_side=2)

    def test_gossip_informs_whole_network(self, points):
        for point in points:
            assert point.gossip_informed_nodes >= point.system_size - point.region_size
            assert point.cliff_edge_involved_nodes < point.system_size // 4

    def test_gossip_cost_grows_with_system(self, points):
        gossip = [point.gossip_messages for point in points]
        assert gossip == sorted(gossip)
        assert gossip[-1] > gossip[0]

    def test_gossip_converges_but_installs_many_views(self, points):
        for point in points:
            assert point.gossip_converged
            assert point.gossip_view_installs > point.cliff_edge_decisions


class TestUncoordinatedBaseline:
    @pytest.fixture(scope="class")
    def points(self):
        return uncoordinated_comparison(sides=(8,), region_side=3)

    def test_uncoordinated_conflicts_cliff_edge_none(self, points):
        for point in points:
            assert point.cliff_conflicting_pairs == 0
            assert point.uncoordinated_conflicting_pairs > 0

    def test_rows_render(self, points):
        from repro.experiments import format_table

        text = format_table([point.as_row() for point in points])
        assert "uncoord_conflicts" in text
