"""Property-based tests for dynamic membership.

Two families:

* graph re-insertion invariants — removing a node and re-inserting it with
  its old edges is the identity, and insertion behaves like the inverse of
  removal in general;
* protocol invariants under churn — a random node of a random connected
  graph crashes, recovers and re-crashes, and the run must satisfy the
  epoch-quotiented CD1–CD7 specification, reach quiescence, and decide the
  node's region in both crash epochs.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.churn import crash_recover_recrash
from repro.experiments import run_cliff_edge
from repro.graph import GraphError, KnowledgeGraph

from .test_graph_invariants import connected_graphs


@st.composite
def graph_and_node(draw, min_nodes=3, max_nodes=12):
    graph = draw(connected_graphs(min_nodes=min_nodes, max_nodes=max_nodes))
    node = draw(st.sampled_from(sorted(graph.nodes)))
    return graph, node


class TestReinsertionInvariants:
    @given(graph_and_node())
    @settings(max_examples=80, deadline=None)
    def test_remove_then_reinsert_is_identity(self, data):
        graph, node = data
        rebuilt = graph.without([node]).with_node(node, graph.neighbours(node))
        assert rebuilt == graph
        assert rebuilt.edge_count == graph.edge_count

    @given(graph_and_node())
    @settings(max_examples=80, deadline=None)
    def test_with_node_adds_exactly_the_given_edges(self, data):
        graph, anchor = data
        newcomer = "fresh"
        neighbours = graph.neighbours(anchor) | {anchor}
        grown = graph.with_node(newcomer, neighbours)
        assert newcomer in grown
        assert grown.neighbours(newcomer) == frozenset(neighbours)
        assert grown.edge_count == graph.edge_count + len(neighbours)
        # The old adjacency is untouched except for the new edges.
        for node in graph.nodes:
            expected = graph.neighbours(node) | (
                {newcomer} if node in neighbours else frozenset()
            )
            assert grown.neighbours(node) == expected

    @given(graph_and_node())
    @settings(max_examples=40, deadline=None)
    def test_with_node_rejects_existing_and_unknown(self, data):
        graph, node = data
        try:
            graph.with_node(node, graph.neighbours(node))
            raise AssertionError("existing node accepted")
        except GraphError:
            pass
        try:
            graph.with_node("fresh", ["no-such-node"])
            raise AssertionError("unknown neighbour accepted")
        except GraphError:
            pass

    @given(graph_and_node())
    @settings(max_examples=40, deadline=None)
    def test_join_preserves_connectivity(self, data):
        graph, anchor = data
        grown = graph.with_node("fresh", [anchor])
        assert grown.is_connected()

    @given(graph_and_node())
    @settings(max_examples=40, deadline=None)
    def test_with_edges_creates_endpoints_and_is_idempotent(self, data):
        graph, anchor = data
        grown = graph.with_edges([(anchor, "fresh"), ("fresh", "fresh2")])
        assert "fresh" in grown and "fresh2" in grown
        assert grown.has_edge(anchor, "fresh")
        assert grown.edge_count == graph.edge_count + 2
        # Re-adding existing edges changes nothing.
        assert grown.with_edges([(anchor, "fresh")]) == grown
        # with_node is equivalent to with_edges for a single newcomer.
        assert graph.with_edges([("fresh", anchor)]).neighbours("fresh") == (
            graph.with_node("fresh", [anchor]).neighbours("fresh")
        )


class TestChurnProtocolInvariants:
    @given(graph_and_node(min_nodes=4, max_nodes=10), st.integers(0, 3))
    @settings(max_examples=25, deadline=None)
    def test_crash_recover_recrash_satisfies_epoch_specification(self, data, seed):
        graph, victim = data
        crashes, membership = crash_recover_recrash(
            graph, [victim], crash_at=1.0, recover_at=40.0, recrash_at=80.0
        )
        result = run_cliff_edge(graph, crashes, membership, seed=seed, check=True)
        assert result.quiescent
        assert result.specification.holds, result.specification.summary()
        # The victim's region is decided in both crash epochs.
        views = result.decided_view_multiset
        assert views.count((victim,)) >= 2 * len(graph.neighbours(victim))
