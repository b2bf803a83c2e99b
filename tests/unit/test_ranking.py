"""Unit tests for the region ranking relation (§3.1)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.api import build_topology, load_spec
from repro.graph import (
    DEFAULT_RANKING,
    RANKINGS,
    CanonicalRanking,
    KnowledgeGraph,
    Region,
    SizeBorderRanking,
    SizeOnlyRanking,
    max_ranked_region,
    region_precedes,
)
from repro.graph.generators import grid


@pytest.fixture
def ranking_graph() -> KnowledgeGraph:
    """A graph with regions of controlled sizes and border sizes.

    - {a1} and {b1} are singletons with different border sizes.
    - {a1, a2} is a two-node region.
    - {c1} and {c2} are singletons with identical border sizes (tie-break).
    """
    return KnowledgeGraph(
        [
            ("a1", "a2"),
            ("a1", "p1"),
            ("a1", "p2"),
            ("a2", "p3"),
            ("b1", "p1"),
            ("c1", "p2"),
            ("c2", "p3"),
            ("p1", "p2"),
            ("p2", "p3"),
        ]
    )


class TestCanonicalRanking:
    def test_larger_region_outranks(self, ranking_graph):
        small = Region(frozenset({"a1"}))
        large = Region(frozenset({"a1", "a2"}))
        assert region_precedes(ranking_graph, small, large)
        assert not region_precedes(ranking_graph, large, small)

    def test_equal_size_larger_border_outranks(self, ranking_graph):
        # a1 has neighbours {a2, p1, p2} -> border of {a1} has 3 nodes;
        # b1 has a single neighbour -> border of {b1} has 1 node.
        rich = Region(frozenset({"a1"}))
        poor = Region(frozenset({"b1"}))
        assert region_precedes(ranking_graph, poor, rich)
        assert not region_precedes(ranking_graph, rich, poor)

    def test_tie_break_is_deterministic_and_antisymmetric(self, ranking_graph):
        first = Region(frozenset({"c1"}))
        second = Region(frozenset({"c2"}))
        forwards = region_precedes(ranking_graph, first, second)
        backwards = region_precedes(ranking_graph, second, first)
        assert forwards != backwards

    def test_irreflexive(self, ranking_graph):
        region = Region(frozenset({"a1"}))
        assert not region_precedes(ranking_graph, region, region)

    def test_subsumes_set_inclusion(self):
        """A strict superset always outranks its subsets (used by Theorem 4)."""
        graph = grid(4, 4)
        small = Region(frozenset({(1, 1)}))
        medium = Region(frozenset({(1, 1), (1, 2)}))
        large = Region(frozenset({(1, 1), (1, 2), (2, 2)}))
        assert region_precedes(graph, small, medium)
        assert region_precedes(graph, medium, large)
        assert region_precedes(graph, small, large)

    def test_max_ranked_region(self, ranking_graph):
        regions = [
            Region(frozenset({"b1"})),
            Region(frozenset({"a1", "a2"})),
            Region(frozenset({"c1"})),
        ]
        best = max_ranked_region(ranking_graph, regions)
        assert best.members == frozenset({"a1", "a2"})

    def test_max_ranked_region_empty_raises(self, ranking_graph):
        with pytest.raises(ValueError):
            max_ranked_region(ranking_graph, [])

    def test_key_orders_like_precedes(self, ranking_graph):
        ranking = CanonicalRanking()
        regions = [
            Region(frozenset({"b1"})),
            Region(frozenset({"a1"})),
            Region(frozenset({"a1", "a2"})),
        ]
        ordered = sorted(regions, key=lambda r: ranking.key(ranking_graph, r))
        for lower, higher in zip(ordered, ordered[1:]):
            assert ranking.precedes(ranking_graph, lower, higher)

    def test_key_is_a_function_of_the_region_value(self, ranking_graph):
        ranking = CanonicalRanking()
        forward = Region(frozenset(["a1", "a2"]))
        backward = Region(frozenset(["a2", "a1"]))
        first = ranking.key(ranking_graph, forward)  # fills the border memo
        assert ranking.key(ranking_graph, backward) == first
        assert ranking.key(ranking_graph, forward) == first == (2, 3, ("'a1'", "'a2'"))

    def test_key_on_the_golden_scenario_is_pinned(self):
        """The value the pre-memo implementation returned for the crashed
        block of ``tests/data/golden_spec.json`` (6x6 torus)."""
        golden = Path(__file__).resolve().parents[1] / "data" / "golden_spec.json"
        experiment = json.loads(golden.read_text())["experiment"]
        graph = build_topology(load_spec(json.dumps(experiment)).topology)
        block = [tuple(node) for node in experiment["failure"]["params"]["members"]]
        for members in (block, block[::-1]):
            assert CanonicalRanking().key(graph, Region(frozenset(members))) == (
                4,
                8,
                ("(1, 1)", "(1, 2)", "(2, 1)", "(2, 2)"),
            )


class TestAblationRankings:
    def test_registry_contains_all_variants(self):
        assert set(RANKINGS) == {"canonical", "size-only", "size-border"}
        assert DEFAULT_RANKING.name == "canonical"

    def test_size_only_ignores_border(self, ranking_graph):
        ranking = SizeOnlyRanking()
        rich = Region(frozenset({"a1"}))
        poor = Region(frozenset({"b1"}))
        assert not ranking.precedes(ranking_graph, poor, rich)
        assert not ranking.precedes(ranking_graph, rich, poor)

    def test_size_only_still_orders_sizes(self, ranking_graph):
        ranking = SizeOnlyRanking()
        small = Region(frozenset({"a1"}))
        large = Region(frozenset({"a1", "a2"}))
        assert ranking.precedes(ranking_graph, small, large)

    def test_size_border_breaks_fewer_ties(self, ranking_graph):
        ranking = SizeBorderRanking()
        first = Region(frozenset({"c1"}))
        second = Region(frozenset({"c2"}))
        # identical size and border size -> incomparable under this variant
        assert not ranking.precedes(ranking_graph, first, second)
        assert not ranking.precedes(ranking_graph, second, first)

    def test_size_border_max_uses_the_full_canonical_key(self, ranking_graph):
        region = Region(frozenset({"a1"}))
        assert SizeBorderRanking().key(ranking_graph, region) == CanonicalRanking().key(
            ranking_graph, region
        )
        assert SizeOnlyRanking().key(ranking_graph, region) == (1, ("'a1'",))

    def test_ablation_max_ranked_is_deterministic(self, ranking_graph):
        regions = [Region(frozenset({"c1"})), Region(frozenset({"c2"}))]
        for ranking in RANKINGS.values():
            first = ranking.max_ranked(ranking_graph, regions)
            second = ranking.max_ranked(ranking_graph, list(reversed(regions)))
            assert first == second
