"""Regions, faulty domains and faulty clusters.

The paper (§2.2) defines:

* a **region**: a connected subgraph of ``G`` (we represent a region by its
  vertex set);
* a **crashed region** at time ``t``: a region whose nodes have all crashed;
* a **faulty domain**: a region whose nodes are all faulty and whose border
  nodes are all correct (the *maximal* extent a crashed region can reach
  during the run);
* **adjacency** of faulty domains: two faulty domains are adjacent when
  their borders intersect;
* a **faulty cluster**: an equivalence class of the transitive closure of
  adjacency.

This module provides a small value type :class:`Region` plus the
faulty-domain / faulty-cluster computations used by the liveness property
CD7 and by the experiment harness.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

from .graph import GraphError, KnowledgeGraph, NodeId


class RegionError(ValueError):
    """Raised when a set of nodes does not form a valid region."""


@dataclass(frozen=True)
class Region:
    """A non-empty connected set of nodes of a :class:`KnowledgeGraph`.

    Instances are immutable and hashable; they are used as dictionary keys
    by the protocol (one consensus instance per proposed view).

    Use :meth:`Region.of` to build a validated region, or construct
    directly with a ``frozenset`` when connectivity has already been
    established (e.g. from ``connected_components``).
    """

    members: frozenset[NodeId]

    def __post_init__(self) -> None:
        if not self.members:
            raise RegionError("a region must contain at least one node")
        # Canonical layout: rebuild the member set by inserting in repr
        # order, so iteration order is a pure function of (value, hash
        # seed) — identical across pickle round trips and in every
        # process sharing the hash seed (the partitioned backend's
        # process workers fork, and downstream border computations
        # iterate regions into behaviour-observable orders).
        ordered = tuple(sorted(self.members, key=repr))
        store = object.__setattr__
        store(self, "members", frozenset(ordered))
        # Derived from ``members`` once, here: the repr order, the
        # lexicographic rank key and the hash are asked for on every
        # arbitration pass.
        store(self, "_sorted", ordered)
        store(self, "_lexicographic", tuple(map(repr, ordered)))
        # The value the generated dataclass hash had: it fixes the
        # iteration order of every ``set[Region]``.
        store(self, "_hash", hash((self.members,)))

    def __reduce__(self):
        # Unpickle through __init__ so the canonical layout is restored
        # and the derived state is rebuilt rather than shipped.
        return (type(self), (self.members,))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Region):
            return NotImplemented
        return self.members == other.members

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def of(cls, graph: KnowledgeGraph, nodes: Iterable[NodeId]) -> "Region":
        """Build a region after validating connectivity in ``graph``."""
        node_set = frozenset(nodes)
        if not node_set:
            raise RegionError("a region must contain at least one node")
        if not graph.is_connected_subset(node_set):
            raise RegionError(f"nodes {sorted(map(repr, node_set))} are not connected")
        return cls(node_set)

    # -- set-like behaviour -------------------------------------------------
    def __contains__(self, node: NodeId) -> bool:
        return node in self.members

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def overlaps(self, other: "Region") -> bool:
        """True when the two regions share at least one node (CD6 premise)."""
        return bool(self.members & other.members)

    def issubset(self, other: "Region") -> bool:
        return self.members <= other.members

    def union(self, other: "Region") -> frozenset[NodeId]:
        """Union of member sets (not necessarily connected)."""
        return self.members | other.members

    # -- graph-derived quantities -------------------------------------------
    def border(self, graph: KnowledgeGraph) -> frozenset[NodeId]:
        """The border of the region in ``graph`` (the paper's border(S))."""
        return graph.border(self.members)

    def closed_neighbourhood(self, graph: KnowledgeGraph) -> frozenset[NodeId]:
        """``S ∪ border(S)``, the locality scope of CD3."""
        return graph.closed_neighbourhood(self.members)

    def is_crashed_region(self, graph: KnowledgeGraph, crashed: Iterable[NodeId]) -> bool:
        """True when every member has crashed and the region is connected."""
        crashed_set = frozenset(crashed)
        return self.members <= crashed_set and graph.is_connected_subset(self.members)

    def sorted_members(self) -> tuple[NodeId, ...]:
        """Members sorted by ``repr`` — a stable, type-agnostic order."""
        return self._sorted

    def lexicographic_key(self) -> tuple[str, ...]:
        """The ``repr`` of every member, sorted: a total order on node sets.

        Node identifiers may be ints, strings or any hashable; their
        ``repr`` strings give every node set a canonical tuple that
        compares lexicographically, which is all the paper requires of
        the ranking's tie-break (§3.1).
        """
        return self._lexicographic

    def __repr__(self) -> str:
        return "Region({" + ", ".join(self._lexicographic) + "})"


# ---------------------------------------------------------------------------
# Faulty domains and clusters
# ---------------------------------------------------------------------------
def faulty_domains(
    graph: KnowledgeGraph, faulty: Iterable[NodeId]
) -> frozenset[Region]:
    """The faulty domains induced by a set of faulty nodes.

    A faulty domain is a maximal connected region of faulty nodes; by
    construction its border nodes are correct.  Two faulty domains are
    either equal or disjoint.
    """
    faulty_set = frozenset(faulty)
    unknown = faulty_set - graph.nodes
    if unknown:
        raise GraphError(f"unknown faulty nodes: {sorted(map(repr, unknown))}")
    return frozenset(
        Region(component) for component in graph.connected_components(faulty_set)
    )


def are_adjacent(graph: KnowledgeGraph, first: Region, second: Region) -> bool:
    """True when two faulty domains are adjacent (their borders intersect).

    The paper notes adjacency ``F ‖ H`` when ``border(F) ∩ border(H) ≠ ∅``.
    A domain is adjacent to itself by this definition.
    """
    return bool(first.border(graph) & second.border(graph))


def faulty_clusters(
    graph: KnowledgeGraph, faulty: Iterable[NodeId]
) -> frozenset[frozenset[Region]]:
    """Partition the faulty domains into faulty clusters.

    A faulty cluster is an equivalence class of the transitive closure of
    the adjacency relation between faulty domains (the paper's
    ``clustered`` relation, footnote 5).
    """
    domains = list(faulty_domains(graph, faulty))
    clusters: list[set[int]] = []
    assigned: dict[int, int] = {}
    for index, domain in enumerate(domains):
        merged_into: set[int] = set()
        for other_index in range(index):
            if are_adjacent(graph, domain, domains[other_index]):
                merged_into.add(assigned[other_index])
        if not merged_into:
            cluster_id = len(clusters)
            clusters.append({index})
            assigned[index] = cluster_id
        else:
            target = min(merged_into)
            clusters[target].add(index)
            assigned[index] = target
            for cluster_id in merged_into - {target}:
                for member in clusters[cluster_id]:
                    assigned[member] = target
                clusters[target].update(clusters[cluster_id])
                clusters[cluster_id] = set()
    return frozenset(
        frozenset(domains[index] for index in cluster)
        for cluster in clusters
        if cluster
    )


def clustered(
    graph: KnowledgeGraph,
    faulty: Iterable[NodeId],
    first: Region,
    second: Region,
) -> bool:
    """True when ``first`` and ``second`` belong to the same faulty cluster."""
    for cluster in faulty_clusters(graph, faulty):
        if first in cluster and second in cluster:
            return True
    return False


def cluster_border(graph: KnowledgeGraph, cluster: Iterable[Region]) -> frozenset[NodeId]:
    """Union of the borders of every domain in a cluster.

    These are exactly the nodes among which CD7 guarantees at least one
    decision.
    """
    result: set[NodeId] = set()
    for domain in cluster:
        result.update(domain.border(graph))
    return frozenset(result)
