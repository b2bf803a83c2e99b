"""Unit tests for regions, faulty domains and faulty clusters."""

from __future__ import annotations

import copy
import pickle

import pytest

from repro.graph import (
    GraphError,
    KnowledgeGraph,
    Region,
    RegionError,
    are_adjacent,
    cluster_border,
    clustered,
    faulty_clusters,
    faulty_domains,
)


class TestRegion:
    def test_empty_region_rejected(self):
        with pytest.raises(RegionError):
            Region(frozenset())

    def test_of_validates_connectivity(self, line_graph):
        with pytest.raises(RegionError):
            Region.of(line_graph, ["a", "c"])

    def test_of_accepts_connected(self, line_graph):
        region = Region.of(line_graph, ["a", "b"])
        assert region.members == frozenset({"a", "b"})

    def test_of_rejects_empty(self, line_graph):
        with pytest.raises(RegionError):
            Region.of(line_graph, [])

    def test_set_protocol(self, line_graph):
        region = Region.of(line_graph, ["a", "b", "c"])
        assert "a" in region
        assert "e" not in region
        assert len(region) == 3
        assert set(iter(region)) == {"a", "b", "c"}

    def test_overlaps(self, line_graph):
        first = Region.of(line_graph, ["a", "b"])
        second = Region.of(line_graph, ["b", "c"])
        third = Region.of(line_graph, ["d", "e"])
        assert first.overlaps(second)
        assert not first.overlaps(third)

    def test_issubset_and_union(self, line_graph):
        small = Region.of(line_graph, ["b"])
        big = Region.of(line_graph, ["a", "b", "c"])
        assert small.issubset(big)
        assert not big.issubset(small)
        assert small.union(big) == frozenset({"a", "b", "c"})

    def test_border(self, line_graph):
        region = Region.of(line_graph, ["b", "c"])
        assert region.border(line_graph) == frozenset({"a", "d"})

    def test_closed_neighbourhood(self, line_graph):
        region = Region.of(line_graph, ["c"])
        assert region.closed_neighbourhood(line_graph) == frozenset({"b", "c", "d"})

    def test_is_crashed_region(self, line_graph):
        region = Region.of(line_graph, ["b", "c"])
        assert region.is_crashed_region(line_graph, ["b", "c", "e"])
        assert not region.is_crashed_region(line_graph, ["b"])

    def test_sorted_members_and_repr(self, line_graph):
        region = Region.of(line_graph, ["c", "b"])
        assert region.sorted_members() == ("b", "c")
        assert "Region" in repr(region)

    def test_hashable_and_equal(self, line_graph):
        first = Region.of(line_graph, ["a", "b"])
        second = Region(frozenset({"a", "b"}))
        assert first == second
        assert hash(first) == hash(second)
        assert len({first, second}) == 1
        assert first == first  # identity fast path
        assert first != Region(frozenset({"a"}))
        assert first != frozenset({"a", "b"})


class TestRegionWireStability:
    """Derived state (repr order, rank key, hash) is rebuilt, never shipped."""

    NODES = [(2, 1), (1, 2), (1, 1), (10, 1)]

    def test_hash_keeps_the_generated_dataclass_value(self):
        # ``hash((members,))``, not ``hash(members)``: the value fixes the
        # iteration order of every ``set[Region]`` (decided views, received).
        for nodes in (self.NODES, ["a", "b"], [3]):
            assert hash(Region(frozenset(nodes))) == hash((frozenset(nodes),))

    def test_derived_state_is_a_function_of_the_value(self):
        forward = Region(frozenset(self.NODES))
        backward = Region(frozenset(reversed(self.NODES)))
        assert forward.sorted_members() == backward.sorted_members() == (
            (1, 1), (1, 2), (10, 1), (2, 1)
        )
        assert forward.lexicographic_key() == backward.lexicographic_key() == (
            "(1, 1)", "(1, 2)", "(10, 1)", "(2, 1)"
        )
        assert repr(forward) == "Region({(1, 1), (1, 2), (10, 1), (2, 1)})"
        assert list(forward.members) == list(backward.members)

    def test_pickle_and_deepcopy_do_not_change_with_use(self, small_grid):
        region = Region(frozenset({(1, 1), (1, 2)}))
        fresh = (pickle.dumps(region), pickle.dumps(copy.deepcopy(region)))
        region.sorted_members(), region.lexicographic_key(), hash(region), repr(region)
        region.border(small_grid)
        assert (pickle.dumps(region), pickle.dumps(copy.deepcopy(region))) == fresh
        assert fresh[0] == pickle.dumps(Region(frozenset({(1, 2), (1, 1)})))

    def test_round_trip_rebuilds_the_derived_state(self):
        region = Region(frozenset(self.NODES))
        for clone in (pickle.loads(pickle.dumps(region)), copy.deepcopy(region)):
            assert clone == region and clone is not region
            assert clone.sorted_members() == region.sorted_members()
            assert clone.lexicographic_key() == region.lexicographic_key()
            assert hash(clone) == hash(region)
            assert list(clone.members) == list(region.members)


@pytest.fixture
def cluster_graph() -> KnowledgeGraph:
    """Two faulty domains sharing a border node, plus one isolated domain.

    f1a-f1b is domain A, f2a is domain B; they share border node ``x``.
    g1 is a separate domain far away, bordered only by ``y`` and ``z``.
    """
    return KnowledgeGraph(
        [
            ("f1a", "f1b"),
            ("f1a", "x"),
            ("x", "f2a"),
            ("f1b", "p"),
            ("f2a", "q"),
            ("p", "q"),
            ("q", "y"),
            ("y", "g1"),
            ("g1", "z"),
            ("z", "p"),
        ]
    )


class TestFaultyDomains:
    def test_domains_are_components(self, cluster_graph):
        domains = faulty_domains(cluster_graph, ["f1a", "f1b", "f2a", "g1"])
        members = {domain.members for domain in domains}
        assert members == {
            frozenset({"f1a", "f1b"}),
            frozenset({"f2a"}),
            frozenset({"g1"}),
        }

    def test_unknown_faulty_node_raises(self, cluster_graph):
        with pytest.raises(GraphError):
            faulty_domains(cluster_graph, ["nope"])

    def test_no_faulty_nodes(self, cluster_graph):
        assert faulty_domains(cluster_graph, []) == frozenset()

    def test_adjacency_via_shared_border(self, cluster_graph):
        domain_a = Region(frozenset({"f1a", "f1b"}))
        domain_b = Region(frozenset({"f2a"}))
        domain_c = Region(frozenset({"g1"}))
        assert are_adjacent(cluster_graph, domain_a, domain_b)
        assert not are_adjacent(cluster_graph, domain_a, domain_c)

    def test_self_adjacency(self, cluster_graph):
        domain = Region(frozenset({"g1"}))
        assert are_adjacent(cluster_graph, domain, domain)


class TestFaultyClusters:
    def test_clusters_partition_domains(self, cluster_graph):
        clusters = faulty_clusters(cluster_graph, ["f1a", "f1b", "f2a", "g1"])
        assert len(clusters) == 2
        sizes = sorted(len(cluster) for cluster in clusters)
        assert sizes == [1, 2]

    def test_clustered_predicate(self, cluster_graph):
        faulty = ["f1a", "f1b", "f2a", "g1"]
        domain_a = Region(frozenset({"f1a", "f1b"}))
        domain_b = Region(frozenset({"f2a"}))
        domain_c = Region(frozenset({"g1"}))
        assert clustered(cluster_graph, faulty, domain_a, domain_b)
        assert not clustered(cluster_graph, faulty, domain_a, domain_c)

    def test_transitive_clustering(self):
        """A ‖ B and B ‖ C puts A and C in the same cluster even if A ∦ C."""
        graph = KnowledgeGraph(
            [
                ("a1", "x1"),
                ("x1", "b1"),
                ("b1", "x2"),
                ("x2", "c1"),
                ("x1", "x2"),
                ("a1", "pa"),
                ("c1", "pc"),
                ("pa", "pc"),
            ]
        )
        faulty = ["a1", "b1", "c1"]
        clusters = faulty_clusters(graph, faulty)
        assert len(clusters) == 1
        domain_a = Region(frozenset({"a1"}))
        domain_c = Region(frozenset({"c1"}))
        assert not are_adjacent(graph, domain_a, domain_c)
        assert clustered(graph, faulty, domain_a, domain_c)

    def test_cluster_border_union(self, cluster_graph):
        clusters = faulty_clusters(cluster_graph, ["f1a", "f1b", "f2a"])
        assert len(clusters) == 1
        border = cluster_border(cluster_graph, next(iter(clusters)))
        assert border == frozenset({"x", "p", "q"})

    def test_fig2_style_chain_is_one_cluster(self):
        from repro.experiments.topologies import fig2_topology

        layout = fig2_topology()
        clusters = faulty_clusters(layout.graph, layout.all_faulty())
        assert len(clusters) == 1
        assert len(next(iter(clusters))) == 4
