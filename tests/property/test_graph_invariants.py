"""Property-based tests for the graph substrate (borders, components, regions)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import (
    GraphError,
    KnowledgeGraph,
    Region,
    faulty_clusters,
    faulty_domains,
)
from repro.graph.graph import _BORDER_MEMO_CAP


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------
@st.composite
def connected_graphs(draw, min_nodes=2, max_nodes=14):
    """A connected undirected graph with integer node ids.

    Built as a random spanning tree plus random extra edges, so connectivity
    holds by construction.
    """
    size = draw(st.integers(min_nodes, max_nodes))
    edges: list[tuple[int, int]] = []
    for node in range(1, size):
        parent = draw(st.integers(0, node - 1))
        edges.append((parent, node))
    extra = draw(
        st.lists(
            st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)).filter(
                lambda pair: pair[0] != pair[1]
            ),
            max_size=size,
        )
    )
    edges.extend(extra)
    return KnowledgeGraph(edges, nodes=range(size))


@st.composite
def graph_and_subset(draw):
    graph = draw(connected_graphs())
    nodes = sorted(graph.nodes)
    subset = draw(st.sets(st.sampled_from(nodes), max_size=len(nodes)))
    return graph, frozenset(subset)


# ---------------------------------------------------------------------------
# Border properties
# ---------------------------------------------------------------------------
class TestBorderProperties:
    @given(graph_and_subset())
    @settings(max_examples=80, deadline=None)
    def test_border_disjoint_from_set(self, data):
        graph, subset = data
        assert graph.border(subset).isdisjoint(subset)

    @given(graph_and_subset())
    @settings(max_examples=80, deadline=None)
    def test_border_members_have_neighbour_inside(self, data):
        graph, subset = data
        for node in graph.border(subset):
            assert graph.neighbours(node) & subset

    @given(graph_and_subset())
    @settings(max_examples=80, deadline=None)
    def test_outside_nodes_with_inside_neighbour_are_border(self, data):
        graph, subset = data
        for node in graph.nodes - subset:
            if graph.neighbours(node) & subset:
                assert node in graph.border(subset)

    @given(graph_and_subset())
    @settings(max_examples=50, deadline=None)
    def test_closed_neighbourhood_superset(self, data):
        graph, subset = data
        scope = graph.closed_neighbourhood(subset)
        assert subset <= scope
        assert graph.border(subset) <= scope


def reference_border(graph: KnowledgeGraph, nodes) -> set:
    """The paper's definition, computed here: no memo, no shared code."""
    inside = set(nodes)
    return {q for p in inside for q in graph.neighbours(p)} - inside


class TestBorderMemo:
    """``border`` answers from a per-snapshot table; the table is invisible."""

    @given(graph_and_subset())
    @settings(max_examples=80, deadline=None)
    def test_memoised_answers_equal_reference_for_every_spelling(self, data):
        graph, subset = data
        expected = reference_border(graph, subset)
        spellings = (
            subset,
            sorted(subset),
            set(subset),
            frozenset(sorted(subset, reverse=True)),
            iter(sorted(subset)),
        )
        for nodes in spellings:  # the first call fills, the rest hit
            assert graph.border(nodes) == expected
        for nodes in (subset, sorted(subset), set(subset)):
            assert graph.closed_neighbourhood(nodes) == expected | subset
        if subset:
            assert Region(subset).border(graph) == expected

    @given(graph_and_subset())
    @settings(max_examples=60, deadline=None)
    def test_derived_snapshots_start_empty_and_answer_for_their_own_edges(self, data):
        graph, subset = data
        graph.border(subset)
        new = len(graph)
        derived = [
            graph.with_node(new, neighbours=sorted(graph.nodes)[:2]),
            graph.with_edges([(0, new)]),
            graph.without([0]),
        ]
        for snapshot in derived:
            assert snapshot._border_memo == {}
            nodes = subset & snapshot.nodes
            assert snapshot.border(nodes) == reference_border(snapshot, nodes)
        # The parent still answers for its own edges.
        assert graph.border(subset) == reference_border(graph, subset)

    @given(graph_and_subset())
    @settings(max_examples=40, deadline=None)
    def test_unknown_node_raises_on_every_call(self, data):
        graph, subset = data
        nodes = subset | {"nowhere"}
        for _ in range(3):
            with pytest.raises(GraphError):
                graph.border(nodes)
        assert nodes not in graph._border_memo

    def test_table_never_exceeds_its_cap(self):
        side = 50  # 49 + 48 + ... intervals of a ring: more than the cap
        ring = KnowledgeGraph([(i, (i + 1) % side) for i in range(side)])
        queries = [
            frozenset(range(start, stop))
            for start in range(side)
            for stop in range(start + 1, side)
        ]
        assert len(queries) > _BORDER_MEMO_CAP
        for nodes in queries:
            assert ring.border(nodes) == reference_border(ring, nodes)
            assert len(ring._border_memo) <= _BORDER_MEMO_CAP
        for nodes in queries[::37]:  # after the wholesale clear, same answers
            assert ring.border(nodes) == reference_border(ring, nodes)


class TestComponentProperties:
    @given(graph_and_subset())
    @settings(max_examples=80, deadline=None)
    def test_components_partition_the_subset(self, data):
        graph, subset = data
        components = graph.connected_components(subset)
        union: set = set()
        for component in components:
            assert not union & component  # pairwise disjoint
            union |= component
        assert union == subset

    @given(graph_and_subset())
    @settings(max_examples=80, deadline=None)
    def test_each_component_is_connected(self, data):
        graph, subset = data
        for component in graph.connected_components(subset):
            assert graph.is_connected_subset(component)

    @given(graph_and_subset())
    @settings(max_examples=80, deadline=None)
    def test_components_are_maximal(self, data):
        graph, subset = data
        components = graph.connected_components(subset)
        for component in components:
            # No node outside the component (but in the subset) is adjacent
            # to it; otherwise the component would not be maximal.
            border_in_subset = graph.border(component) & subset
            assert not border_in_subset

    @given(graph_and_subset())
    @settings(max_examples=50, deadline=None)
    def test_whole_subset_connected_iff_single_component(self, data):
        graph, subset = data
        components = graph.connected_components(subset)
        if subset:
            assert graph.is_connected_subset(subset) == (len(components) == 1)
        else:
            assert components == frozenset()


class TestFaultyDomainProperties:
    @given(graph_and_subset())
    @settings(max_examples=60, deadline=None)
    def test_domains_equal_components(self, data):
        graph, faulty = data
        domains = faulty_domains(graph, faulty)
        assert {domain.members for domain in domains} == set(
            graph.connected_components(faulty)
        )

    @given(graph_and_subset())
    @settings(max_examples=60, deadline=None)
    def test_domain_borders_are_correct_nodes(self, data):
        graph, faulty = data
        for domain in faulty_domains(graph, faulty):
            assert domain.border(graph).isdisjoint(faulty)

    @given(graph_and_subset())
    @settings(max_examples=60, deadline=None)
    def test_clusters_partition_domains(self, data):
        graph, faulty = data
        domains = faulty_domains(graph, faulty)
        clusters = faulty_clusters(graph, faulty)
        seen: set[Region] = set()
        for cluster in clusters:
            for domain in cluster:
                assert domain not in seen
                seen.add(domain)
        assert seen == set(domains)

    @given(graph_and_subset())
    @settings(max_examples=40, deadline=None)
    def test_subgraph_preserves_membership(self, data):
        graph, subset = data
        sub = graph.subgraph(subset)
        assert sub.nodes == subset
        for u, v in sub.edges():
            assert graph.has_edge(u, v)
