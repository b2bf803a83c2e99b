"""Unit tests for the KnowledgeGraph substrate."""

from __future__ import annotations

import copy
import pickle

import pytest

from repro.graph import GraphError, KnowledgeGraph


class TestConstruction:
    def test_empty_graph(self):
        graph = KnowledgeGraph()
        assert len(graph) == 0
        assert graph.edge_count == 0
        assert graph.nodes == frozenset()

    def test_nodes_and_edges_counted(self):
        graph = KnowledgeGraph([("a", "b"), ("b", "c")])
        assert len(graph) == 3
        assert graph.edge_count == 2

    def test_isolated_nodes_allowed(self):
        graph = KnowledgeGraph([("a", "b")], nodes=["c"])
        assert "c" in graph
        assert graph.degree("c") == 0

    def test_duplicate_edges_collapse(self):
        graph = KnowledgeGraph([("a", "b"), ("b", "a"), ("a", "b")])
        assert graph.edge_count == 1
        assert graph.degree("a") == 1

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            KnowledgeGraph([("a", "a")])

    def test_from_adjacency_symmetrises(self):
        graph = KnowledgeGraph.from_adjacency({"a": ["b"], "b": [], "c": ["a"]})
        assert graph.has_edge("a", "b")
        assert graph.has_edge("b", "a")
        assert graph.has_edge("a", "c")
        assert len(graph) == 3

    def test_tuple_node_ids(self):
        graph = KnowledgeGraph([((0, 0), (0, 1))])
        assert (0, 0) in graph
        assert graph.has_edge((0, 1), (0, 0))


class TestBasicQueries:
    def test_neighbours(self, line_graph):
        assert line_graph.neighbours("b") == frozenset({"a", "c"})
        assert line_graph.neighbors("b") == frozenset({"a", "c"})

    def test_neighbours_unknown_node(self, line_graph):
        with pytest.raises(GraphError):
            line_graph.neighbours("zzz")

    def test_degree(self, line_graph):
        assert line_graph.degree("a") == 1
        assert line_graph.degree("c") == 2

    def test_has_edge(self, line_graph):
        assert line_graph.has_edge("a", "b")
        assert not line_graph.has_edge("a", "c")
        assert not line_graph.has_edge("a", "missing")

    def test_edges_listed_once(self, line_graph):
        edges = list(line_graph.edges())
        assert len(edges) == 4
        assert len({frozenset(edge) for edge in edges}) == 4

    def test_contains_and_iter(self, line_graph):
        assert "a" in line_graph
        assert "zzz" not in line_graph
        assert set(iter(line_graph)) == {"a", "b", "c", "d", "e"}

    def test_adjacency_mapping_copy(self, line_graph):
        mapping = line_graph.adjacency()
        assert mapping["a"] == frozenset({"b"})
        mapping["a"] = frozenset()
        assert line_graph.neighbours("a") == frozenset({"b"})

    def test_equality_and_hash(self):
        first = KnowledgeGraph([("a", "b"), ("b", "c")])
        second = KnowledgeGraph([("b", "c"), ("a", "b")])
        third = KnowledgeGraph([("a", "b")])
        assert first == second
        assert hash(first) == hash(second)
        assert first != third

    def test_repr(self, line_graph):
        assert "nodes=5" in repr(line_graph)
        assert "edges=4" in repr(line_graph)


class TestBorder:
    def test_border_of_single_node(self, line_graph):
        assert line_graph.border(["c"]) == frozenset({"b", "d"})

    def test_border_excludes_members(self, line_graph):
        assert line_graph.border(["b", "c"]) == frozenset({"a", "d"})

    def test_border_of_everything_is_empty(self, line_graph):
        assert line_graph.border(line_graph.nodes) == frozenset()

    def test_border_matches_paper_definition(self, diamond_graph):
        border = diamond_graph.border(["c1", "c2"])
        assert border == frozenset({"n1", "n2", "n3", "n4"})

    def test_closed_neighbourhood(self, diamond_graph):
        scope = diamond_graph.closed_neighbourhood(["c1"])
        assert scope == frozenset({"c1", "n1", "n2", "c2"})


class TestBorderMemoIsInvisible:
    """The memo is derived state: never pickled, copied, compared or hashed."""

    def test_pickle_and_deepcopy_do_not_change_with_use(self, small_grid):
        fresh = (pickle.dumps(small_grid), pickle.dumps(copy.deepcopy(small_grid)))
        small_grid.border([(1, 1), (1, 2)])
        small_grid.closed_neighbourhood([(0, 0)])
        assert small_grid._border_memo
        assert (
            pickle.dumps(small_grid),
            pickle.dumps(copy.deepcopy(small_grid)),
        ) == fresh

    def test_clones_start_empty_and_answer(self, small_grid):
        expected = small_grid.border([(1, 1)])
        for clone in (pickle.loads(pickle.dumps(small_grid)), copy.deepcopy(small_grid)):
            assert clone._border_memo == {}
            assert clone == small_grid and hash(clone) == hash(small_grid)
            assert clone.border([(1, 1)]) == expected

    def test_equal_sets_share_one_answer(self, line_graph):
        first = line_graph.border(["b", "c"])
        assert line_graph.border(frozenset({"c", "b"})) is first
        assert line_graph.border(["b"]) is not first

    def test_empty_border_is_remembered_too(self, line_graph):
        assert line_graph.border(line_graph.nodes) == frozenset()
        assert line_graph.nodes in line_graph._border_memo

    def test_unknown_node_is_never_remembered(self, line_graph):
        for _ in range(2):
            with pytest.raises(GraphError):
                line_graph.border(["a", "zzz"])
        assert line_graph._border_memo == {}


class TestConnectivity:
    def test_empty_set_not_connected(self, line_graph):
        assert not line_graph.is_connected_subset([])

    def test_single_node_connected(self, line_graph):
        assert line_graph.is_connected_subset(["c"])

    def test_connected_subset(self, line_graph):
        assert line_graph.is_connected_subset(["a", "b", "c"])

    def test_disconnected_subset(self, line_graph):
        assert not line_graph.is_connected_subset(["a", "c"])

    def test_unknown_node_raises(self, line_graph):
        with pytest.raises(GraphError):
            line_graph.is_connected_subset(["a", "zzz"])

    def test_whole_graph_connected(self, small_grid):
        assert small_grid.is_connected()

    def test_connected_components_partition(self, line_graph):
        components = line_graph.connected_components(["a", "b", "d", "e"])
        assert components == frozenset(
            {frozenset({"a", "b"}), frozenset({"d", "e"})}
        )

    def test_connected_components_empty(self, line_graph):
        assert line_graph.connected_components([]) == frozenset()

    def test_connected_components_single(self, line_graph):
        assert line_graph.connected_components(["c"]) == frozenset({frozenset({"c"})})


class TestPathsAndSubgraphs:
    def test_shortest_path_to_self(self, line_graph):
        assert line_graph.shortest_path_length("a", "a") == 0

    def test_shortest_path_length(self, line_graph):
        assert line_graph.shortest_path_length("a", "e") == 4

    def test_shortest_path_unreachable(self):
        graph = KnowledgeGraph([("a", "b")], nodes=["c"])
        assert graph.shortest_path_length("a", "c") is None

    def test_shortest_path_unknown_nodes(self, line_graph):
        with pytest.raises(GraphError):
            line_graph.shortest_path_length("a", "zzz")

    def test_subgraph(self, line_graph):
        sub = line_graph.subgraph(["a", "b", "c"])
        assert len(sub) == 3
        assert sub.has_edge("a", "b")
        assert not sub.has_edge("c", "d")

    def test_subgraph_unknown_node(self, line_graph):
        with pytest.raises(GraphError):
            line_graph.subgraph(["a", "zzz"])

    def test_without(self, line_graph):
        survivor = line_graph.without(["c"])
        assert "c" not in survivor
        assert not survivor.is_connected()

    def test_to_networkx_roundtrip(self, line_graph):
        nx_graph = line_graph.to_networkx()
        assert nx_graph.number_of_nodes() == 5
        assert nx_graph.number_of_edges() == 4
