"""Knowledge graph substrate.

The paper models the system as a finite undirected graph ``G = (Pi, E)``
where vertices are nodes of the distributed system and edges represent the
*knowledge* nodes have of each other ("node x knows node y").  All region,
border, and connected-component computations of the protocol are expressed
against this graph.

The paper additionally assumes that "each node can query G on demand,
either by directly contacting live nodes, or using some underlying topology
service for crashed nodes".  We realise that assumption with a single
read-only :class:`KnowledgeGraph` instance shared by every simulated node.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator, Mapping
from typing import Optional

NodeId = Hashable

#: Most border answers one snapshot remembers.  ``api.cache`` shares a
#: snapshot across runs and service worker threads for the life of the
#: process, so the table is bounded (a few MB at most); a run asks about a
#: few hundred node sets and any answer can be recomputed, so reaching the
#: bound empties the table.
_BORDER_MEMO_CAP = 1024


class GraphError(ValueError):
    """Raised when a graph is constructed or queried inconsistently."""


class KnowledgeGraph:
    """An immutable, undirected graph of node identifiers.

    A single instance is a *snapshot* of the topology: it never changes,
    even when nodes crash.  Crashes are modelled separately (see
    :mod:`repro.failures`); the graph keeps answering queries about crashed
    nodes, playing the role of the "underlying topology service" the paper
    assumes.  Dynamic membership (:mod:`repro.churn`) is modelled by the
    runtimes swapping in *derived* snapshots built with :meth:`with_node`,
    :meth:`with_edges` and :meth:`without` at membership-epoch boundaries.

    Parameters
    ----------
    edges:
        Iterable of ``(u, v)`` pairs.  Self loops are rejected.
    nodes:
        Optional iterable of extra (possibly isolated) nodes.

    Examples
    --------
    >>> g = KnowledgeGraph([("a", "b"), ("b", "c")])
    >>> sorted(g.neighbours("b"))
    ['a', 'c']
    >>> g.degree("b")
    2
    """

    __slots__ = ("_adjacency", "_edge_count", "_frozen_nodes", "_border_memo")

    def __init__(
        self,
        edges: Iterable[tuple[NodeId, NodeId]] = (),
        nodes: Iterable[NodeId] = (),
    ) -> None:
        adjacency: dict[NodeId, set[NodeId]] = {}
        edge_count = 0
        for node in nodes:
            adjacency.setdefault(node, set())
        for u, v in edges:
            if u == v:
                raise GraphError(f"self loop on node {u!r} is not allowed")
            adjacency.setdefault(u, set())
            adjacency.setdefault(v, set())
            if v not in adjacency[u]:
                edge_count += 1
            adjacency[u].add(v)
            adjacency[v].add(u)
        self._adjacency: dict[NodeId, frozenset[NodeId]] = {
            node: frozenset(neigh) for node, neigh in adjacency.items()
        }
        self._edge_count = edge_count
        self._frozen_nodes = frozenset(self._adjacency)
        #: ``border`` answers of this snapshot, by node set.  Derived state:
        #: a derived snapshot starts empty, and the table is left out of
        #: pickles, copies, ``==`` and ``hash``.
        self._border_memo: dict[frozenset[NodeId], frozenset[NodeId]] = {}

    def __getstate__(self) -> tuple[None, dict[str, object]]:
        # The slot-state pair ``object`` would build, minus the memo.
        return None, {
            "_adjacency": self._adjacency,
            "_edge_count": self._edge_count,
            "_frozen_nodes": self._frozen_nodes,
        }

    def __setstate__(self, state: tuple[None, dict[str, object]]) -> None:
        for slot, value in state[1].items():
            setattr(self, slot, value)
        self._border_memo = {}

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> frozenset[NodeId]:
        """The set of all node identifiers in the graph."""
        return self._frozen_nodes

    @property
    def edge_count(self) -> int:
        """Number of undirected edges."""
        return self._edge_count

    def __len__(self) -> int:
        return len(self._adjacency)

    def __contains__(self, node: NodeId) -> bool:
        return node in self._adjacency

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._adjacency)

    def edges(self) -> Iterator[tuple[NodeId, NodeId]]:
        """Iterate over each undirected edge exactly once."""
        seen: set[frozenset[NodeId]] = set()
        for u, neighbours in self._adjacency.items():
            for v in neighbours:
                key = frozenset((u, v))
                if key not in seen:
                    seen.add(key)
                    yield (u, v)

    def neighbours(self, node: NodeId) -> frozenset[NodeId]:
        """Return the neighbours (the *border*) of a single node."""
        try:
            return self._adjacency[node]
        except KeyError:
            raise GraphError(f"unknown node {node!r}") from None

    # American-spelling alias, used by some callers.
    neighbors = neighbours

    def degree(self, node: NodeId) -> int:
        """Number of neighbours of ``node``."""
        return len(self.neighbours(node))

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        """True when ``{u, v}`` is an edge of the graph."""
        return u in self._adjacency and v in self._adjacency[u]

    def adjacency(self) -> Mapping[NodeId, frozenset[NodeId]]:
        """Read-only adjacency mapping (node -> neighbour set)."""
        return dict(self._adjacency)

    # ------------------------------------------------------------------
    # Set-level queries used by the protocol
    # ------------------------------------------------------------------
    def border(self, nodes: Iterable[NodeId]) -> frozenset[NodeId]:
        """Border of a set of nodes, exactly as defined in the paper.

        ``border(S) = {q in Pi \\ S | exists p in S : (p, q) in E}`` — the
        nodes *outside* ``S`` with at least one neighbour *inside* ``S``.

        Computed once per snapshot and node set.  Every caller of an equal
        set receives the same frozenset, so it is built from the set's
        canonical layout (members inserted in ``repr`` order, as
        :class:`~repro.graph.regions.Region` lays out its members): its
        iteration order — which multicast fan-out makes observable — is
        that of a fresh computation on a region, whoever asked first.
        """
        node_set = frozenset(nodes)
        memo = self._border_memo
        border = memo.get(node_set)
        if border is None:
            result: set[NodeId] = set()
            for node in frozenset(sorted(node_set, key=repr)):
                result.update(self.neighbours(node))
            border = frozenset(result - node_set)
            # Plain dict operations, each atomic under the interpreter lock:
            # racing threads store equal values, and an unknown node raised
            # above, before anything was stored.
            if len(memo) >= _BORDER_MEMO_CAP:
                memo.clear()
            memo[node_set] = border
        return border

    def closed_neighbourhood(self, nodes: Iterable[NodeId]) -> frozenset[NodeId]:
        """``S ∪ border(S)`` — the locality scope of CD3."""
        node_set = frozenset(nodes)
        return node_set | self.border(node_set)

    def is_connected_subset(self, nodes: Iterable[NodeId]) -> bool:
        """True when the subgraph induced by ``nodes`` is connected.

        The empty set is conventionally *not* connected (a region in the
        paper is a non-empty connected subgraph).
        """
        node_set = frozenset(nodes)
        if not node_set:
            return False
        for node in node_set:
            if node not in self._adjacency:
                raise GraphError(f"unknown node {node!r}")
        start = next(iter(node_set))
        seen = {start}
        frontier = [start]
        while frontier:
            current = frontier.pop()
            for neighbour in self._adjacency[current]:
                if neighbour in node_set and neighbour not in seen:
                    seen.add(neighbour)
                    frontier.append(neighbour)
        return seen == node_set

    def connected_components(self, nodes: Iterable[NodeId]) -> frozenset[frozenset[NodeId]]:
        """Maximal connected regions of the induced subgraph ``G[nodes]``.

        This is the paper's ``connectedComponents(S)`` primitive (§3.1).
        """
        remaining = set(frozenset(nodes))
        for node in remaining:
            if node not in self._adjacency:
                raise GraphError(f"unknown node {node!r}")
        components: list[frozenset[NodeId]] = []
        while remaining:
            start = next(iter(remaining))
            seen = {start}
            frontier = [start]
            while frontier:
                current = frontier.pop()
                for neighbour in self._adjacency[current]:
                    if neighbour in remaining and neighbour not in seen:
                        seen.add(neighbour)
                        frontier.append(neighbour)
            remaining -= seen
            components.append(frozenset(seen))
        return frozenset(components)

    def is_connected(self) -> bool:
        """True when the whole graph is connected (and non-empty)."""
        return self.is_connected_subset(self._frozen_nodes)

    def shortest_path_length(self, source: NodeId, target: NodeId) -> Optional[int]:
        """Hop distance between two nodes, or ``None`` when unreachable."""
        if source not in self._adjacency:
            raise GraphError(f"unknown node {source!r}")
        if target not in self._adjacency:
            raise GraphError(f"unknown node {target!r}")
        if source == target:
            return 0
        distances = {source: 0}
        frontier = [source]
        while frontier:
            next_frontier: list[NodeId] = []
            for node in frontier:
                for neighbour in self._adjacency[node]:
                    if neighbour not in distances:
                        distances[neighbour] = distances[node] + 1
                        if neighbour == target:
                            return distances[neighbour]
                        next_frontier.append(neighbour)
            frontier = next_frontier
        return None

    # ------------------------------------------------------------------
    # Derived graphs and interop
    # ------------------------------------------------------------------
    def subgraph(self, nodes: Iterable[NodeId]) -> "KnowledgeGraph":
        """The subgraph induced by ``nodes``."""
        node_set = frozenset(nodes)
        for node in node_set:
            if node not in self._adjacency:
                raise GraphError(f"unknown node {node!r}")
        edges = [
            (u, v)
            for u, v in self.edges()
            if u in node_set and v in node_set
        ]
        return KnowledgeGraph(edges, nodes=node_set)

    def without(self, nodes: Iterable[NodeId]) -> "KnowledgeGraph":
        """The subgraph obtained by removing ``nodes`` (e.g. crashed ones)."""
        removed = frozenset(nodes)
        return self.subgraph(self._frozen_nodes - removed)

    def with_edges(
        self, edges: Iterable[tuple[NodeId, NodeId]]
    ) -> "KnowledgeGraph":
        """A new graph with ``edges`` added (endpoints are created if new).

        The churn subsystem uses this (together with :meth:`with_node` and
        :meth:`without`) to derive each membership epoch's graph from the
        previous one; the graph itself stays immutable.
        """
        return KnowledgeGraph(
            list(self.edges()) + list(edges), nodes=self._frozen_nodes
        )

    def with_node(
        self, node: NodeId, neighbours: Iterable[NodeId] = ()
    ) -> "KnowledgeGraph":
        """A new graph with ``node`` inserted, attached to ``neighbours``.

        Every neighbour must already exist: a joining node can only attach
        to nodes the topology service knows about.  Inserting an existing
        node is rejected — recoveries that change the node's edges go
        through ``without([node]).with_node(node, new_neighbours)``.
        """
        if node in self._adjacency:
            raise GraphError(f"node {node!r} is already in the graph")
        neighbour_set = frozenset(neighbours)
        if node in neighbour_set:
            raise GraphError(f"self loop on node {node!r} is not allowed")
        unknown = neighbour_set - self._frozen_nodes
        if unknown:
            raise GraphError(
                f"cannot attach {node!r} to unknown nodes "
                f"{sorted(map(repr, unknown))}"
            )
        return KnowledgeGraph(
            list(self.edges()) + [(node, n) for n in sorted(neighbour_set, key=repr)],
            nodes=self._frozen_nodes | {node},
        )

    def to_networkx(self):  # pragma: no cover - optional interop
        """Export to a :class:`networkx.Graph` when networkx is installed."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(self._frozen_nodes)
        graph.add_edges_from(self.edges())
        return graph

    @classmethod
    def from_adjacency(
        cls, adjacency: Mapping[NodeId, Iterable[NodeId]]
    ) -> "KnowledgeGraph":
        """Build a graph from a ``node -> neighbours`` mapping.

        The mapping may be asymmetric; edges are symmetrised.
        """
        edges = [
            (node, neighbour)
            for node, neighbours in adjacency.items()
            for neighbour in neighbours
        ]
        return cls(edges, nodes=adjacency.keys())

    def __repr__(self) -> str:
        return (
            f"KnowledgeGraph(nodes={len(self._adjacency)}, "
            f"edges={self._edge_count})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KnowledgeGraph):
            return NotImplemented
        return self._adjacency == other._adjacency

    def __hash__(self) -> int:
        return hash(
            frozenset((node, neigh) for node, neigh in self._adjacency.items())
        )
