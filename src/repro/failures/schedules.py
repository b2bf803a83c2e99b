"""Crash schedules and fault injectors.

A *crash schedule* is simply a list of ``(node, time)`` pairs fed to the
simulator.  The builders in this module produce the failure patterns the
paper reasons about:

* an entire region crashing (correlated failure — the motivating case);
* a region crashing and then *growing* while the protocol is running
  (the Fig. 1b situation that creates conflicting views);
* cascades of adjacent regions (faulty clusters, Fig. 2);
* uniformly random crashes (stress tests for the property sweep).
"""

from __future__ import annotations

import random
from collections.abc import Collection, Iterable, Sequence
from dataclasses import dataclass, field

from ..graph import GraphError, KnowledgeGraph, NodeId, Region


class ScheduleError(ValueError):
    """Raised when a crash schedule is inconsistent with the graph."""


@dataclass(frozen=True)
class CrashSchedule:
    """An immutable list of timed crashes.

    Under the paper's static model a node crashes at most once, and the
    constructor rejects duplicates as almost-certain scenario bugs.  Churn
    scenarios (:mod:`repro.churn`) legitimately re-crash a node after it
    recovered; they construct their schedules with ``allow_recrash=True``
    and rely on :meth:`repro.churn.MembershipSchedule.validate` to check
    that every re-crash is preceded by a recovery.
    """

    crashes: tuple[tuple[NodeId, float], ...] = field(default_factory=tuple)
    allow_recrash: bool = False

    def __post_init__(self) -> None:
        seen: set[NodeId] = set()
        for node, time in self.crashes:
            if time < 0:
                raise ScheduleError(f"negative crash time for {node!r}")
            if node in seen and not self.allow_recrash:
                raise ScheduleError(f"{node!r} scheduled to crash twice")
            seen.add(node)

    @property
    def nodes(self) -> frozenset[NodeId]:
        """All nodes that crash in this schedule."""
        return frozenset(node for node, _ in self.crashes)

    @property
    def last_time(self) -> float:
        """Time of the last crash (0.0 for an empty schedule)."""
        return max((time for _, time in self.crashes), default=0.0)

    def __iter__(self):
        return iter(self.crashes)

    def __len__(self) -> int:
        return len(self.crashes)

    def shifted(self, offset: float) -> "CrashSchedule":
        """The same schedule with every crash delayed by ``offset``."""
        if offset < 0:
            raise ScheduleError("offset must be non-negative")
        return CrashSchedule(
            tuple((node, time + offset) for node, time in self.crashes),
            allow_recrash=self.allow_recrash,
        )

    def merged(self, other: "CrashSchedule") -> "CrashSchedule":
        """Union of two schedules (node sets must be disjoint)."""
        overlap = self.nodes & other.nodes
        if overlap:
            raise ScheduleError(
                f"schedules overlap on {sorted(map(repr, overlap))}"
            )
        return CrashSchedule(
            self.crashes + other.crashes,
            allow_recrash=self.allow_recrash or other.allow_recrash,
        )

    def validate(self, graph: KnowledgeGraph) -> None:
        """Check every crashed node exists in ``graph``."""
        unknown = self.nodes - graph.nodes
        if unknown:
            raise ScheduleError(f"unknown nodes in schedule: {sorted(map(repr, unknown))}")

    def applied_to(self, sim) -> None:
        """Feed the schedule into a :class:`~repro.sim.network.Simulator`."""
        sim.schedule_crashes(self.crashes)


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------
def region_crash(
    graph: KnowledgeGraph,
    members: Iterable[NodeId],
    at: float = 1.0,
    spread: float = 0.0,
) -> CrashSchedule:
    """Crash every member of a (connected) region.

    With ``spread > 0`` the members crash in deterministic `repr` order,
    evenly spaced over ``[at, at + spread]`` — a correlated but not
    perfectly simultaneous failure, which exercises the incremental view
    construction of lines 5–11.
    """
    member_list = sorted(frozenset(members), key=repr)
    if not member_list:
        raise ScheduleError("cannot crash an empty region")
    if not graph.is_connected_subset(member_list):
        raise ScheduleError("crashed members must form a connected region")
    if spread < 0:
        raise ScheduleError("spread must be non-negative")
    if len(member_list) == 1 or spread == 0:
        return CrashSchedule(tuple((node, at) for node in member_list))
    step = spread / (len(member_list) - 1)
    return CrashSchedule(
        tuple((node, at + index * step) for index, node in enumerate(member_list))
    )


def growing_region_crash(
    graph: KnowledgeGraph,
    initial_members: Iterable[NodeId],
    growth_members: Sequence[NodeId],
    initial_at: float = 1.0,
    growth_at: float = 10.0,
    growth_spacing: float = 2.0,
) -> CrashSchedule:
    """A region crashes, then grows node by node while the protocol runs.

    This is the Fig. 1b pattern: F1 crashes first, then ``paris``-like
    border members crash later, turning F1 into F3 and changing the
    constituency mid-agreement.
    """
    initial = region_crash(graph, initial_members, at=initial_at)
    growth_list = list(growth_members)
    if not growth_list:
        return initial
    overlap = initial.nodes & set(growth_list)
    if overlap:
        raise ScheduleError(
            f"growth nodes already in the initial region: {sorted(map(repr, overlap))}"
        )
    crashes = list(initial.crashes)
    accumulated = set(initial.nodes)
    for index, node in enumerate(growth_list):
        if node not in graph:
            raise ScheduleError(f"unknown growth node {node!r}")
        if not (graph.neighbours(node) & accumulated):
            raise ScheduleError(
                f"growth node {node!r} is not adjacent to the crashed region"
            )
        crashes.append((node, growth_at + index * growth_spacing))
        accumulated.add(node)
    return CrashSchedule(tuple(crashes))


def multi_region_crash(
    graph: KnowledgeGraph,
    regions: Iterable[Iterable[NodeId]],
    at: float = 1.0,
    stagger: float = 0.0,
) -> CrashSchedule:
    """Several disjoint regions crash (simultaneously or staggered)."""
    schedule = CrashSchedule()
    for index, members in enumerate(regions):
        schedule = schedule.merged(
            region_crash(graph, members, at=at + index * stagger)
        )
    return schedule


def random_connected_region(
    graph: KnowledgeGraph,
    size: int,
    seed: int = 0,
    forbidden: Iterable[NodeId] = (),
) -> Region:
    """A random connected region of ``size`` nodes (seeded BFS growth)."""
    if size < 1:
        raise ScheduleError("region size must be positive")
    forbidden_set = frozenset(forbidden)
    candidates = sorted(graph.nodes - forbidden_set, key=repr)
    return _grow_region(graph, size, random.Random(seed), candidates, forbidden_set)


def _grow_region(
    graph: KnowledgeGraph,
    size: int,
    rng: random.Random,
    candidates: Sequence[NodeId],
    forbidden: Collection[NodeId],
) -> Region:
    """The draw of :func:`random_connected_region` from its ``repr``-ordered
    candidates (the nodes not in ``forbidden``); shared with
    :func:`repro.churn.steady_state_churn`, which filters one ordering per
    schedule instead of sorting per draw."""
    if not candidates:
        raise ScheduleError("no candidate nodes available")
    for _ in range(256):
        start = rng.choice(candidates)
        members = {start}
        frontier = list(graph.neighbours(start).difference(forbidden))
        while frontier and len(members) < size:
            next_node = frontier.pop(rng.randrange(len(frontier)))
            if next_node in members:
                continue
            members.add(next_node)
            frontier.extend((graph.neighbours(next_node) - members).difference(forbidden))
        if len(members) == size:
            return Region(frozenset(members))
    raise ScheduleError(
        f"could not grow a connected region of size {size} "
        f"(graph too small or too constrained)"
    )


def random_crashes(
    graph: KnowledgeGraph,
    count: int,
    seed: int = 0,
    start: float = 1.0,
    spacing: float = 1.0,
    keep_connected_survivors: bool = False,
) -> CrashSchedule:
    """``count`` crashes of uniformly random distinct nodes.

    With ``keep_connected_survivors=True`` candidates whose removal would
    disconnect the surviving graph are skipped (useful when a scenario
    requires the correct nodes to stay mutually reachable).
    """
    if count < 0:
        raise ScheduleError("count must be non-negative")
    rng = random.Random(seed)
    available = sorted(graph.nodes, key=repr)
    rng.shuffle(available)
    chosen: list[NodeId] = []
    crashed: set[NodeId] = set()
    for node in available:
        if len(chosen) >= count:
            break
        if keep_connected_survivors:
            survivors = graph.nodes - crashed - {node}
            if survivors and not graph.is_connected_subset(survivors):
                continue
        chosen.append(node)
        crashed.add(node)
    if len(chosen) < count:
        raise ScheduleError(
            f"could only select {len(chosen)} of {count} requested crashes"
        )
    return CrashSchedule(
        tuple((node, start + index * spacing) for index, node in enumerate(chosen))
    )


def cascade_crash(
    graph: KnowledgeGraph,
    seed_node: NodeId,
    size: int,
    start: float = 1.0,
    spacing: float = 1.0,
) -> CrashSchedule:
    """A failure cascade spreading outwards from ``seed_node`` by BFS order.

    Deterministic: neighbours are visited in ``repr`` order.  Produces the
    "crashed region keeps growing under the protocol's feet" workloads used
    by the adversarial property sweep.
    """
    if seed_node not in graph:
        raise GraphError(f"unknown node {seed_node!r}")
    if size < 1:
        raise ScheduleError("cascade size must be positive")
    order: list[NodeId] = []
    seen = {seed_node}
    frontier = [seed_node]
    while frontier and len(order) < size:
        current = frontier.pop(0)
        order.append(current)
        for neighbour in sorted(graph.neighbours(current), key=repr):
            if neighbour not in seen:
                seen.add(neighbour)
                frontier.append(neighbour)
    if len(order) < size:
        raise ScheduleError(
            f"graph only allows a cascade of {len(order)} nodes from {seed_node!r}"
        )
    return CrashSchedule(
        tuple((node, start + index * spacing) for index, node in enumerate(order))
    )
