"""Membership schedules: timed join / recover / leave events.

A :class:`MembershipSchedule` is the churn counterpart of
:class:`~repro.failures.schedules.CrashSchedule`: an immutable list of
timed membership events that both runtimes replay identically.  The two
schedules *compose* — a churn scenario is a ``(CrashSchedule,
MembershipSchedule)`` pair sharing one timeline — and
:meth:`MembershipSchedule.validate` replays the combined timeline against
the graph to catch impossible scripts (recovering a live node, re-crashing
a node that never recovered, joining twice, ...) before a runtime sees
them.

The builders produce the scenario families of the churn experiments:

* :func:`recovery_for` — every crashed node comes back after a fixed
  downtime (steady-state churn, combined with a crash builder);
* :func:`crash_recover_recrash` — one region crashes, recovers, and
  crashes again: the cliff-edge race against in-flight consensus;
* :func:`steady_state_churn` — independent crash→recover cycles at a
  target churn rate;
* :func:`flash_crowd_joins` — a burst of brand-new nodes joining by
  locality.
"""

from __future__ import annotations

import enum
import heapq
import math
import random
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from typing import Any, Optional

from ..failures import CrashSchedule, ScheduleError
from ..failures.schedules import _grow_region
from ..graph import KnowledgeGraph, NodeId
from .attachment import FreshJoinByLocality


class MembershipError(ValueError):
    """Raised when a membership schedule is inconsistent."""


class MembershipEventKind(enum.Enum):
    """The three kinds of membership events."""

    JOIN = "join"
    RECOVER = "recover"
    LEAVE = "leave"


@dataclass(frozen=True)
class MembershipEvent:
    """One timed membership event.

    ``attachment`` is an :class:`~repro.churn.attachment.AttachmentPolicy`
    (or an explicit iterable of neighbour ids) for joins and recoveries;
    ``None`` means "keep the old edges", which is only meaningful for
    recoveries.
    """

    time: float
    kind: MembershipEventKind
    node: NodeId
    attachment: Any = None

    def __post_init__(self) -> None:
        if self.time < 0:
            raise MembershipError(f"negative time for {self.kind.value} of {self.node!r}")
        if self.kind is MembershipEventKind.JOIN and self.attachment is None:
            raise MembershipError(
                f"join of {self.node!r} needs an attachment policy or edge list"
            )
        if self.kind is MembershipEventKind.LEAVE and self.attachment is not None:
            raise MembershipError(f"leave of {self.node!r} takes no attachment")


def join(node: NodeId, at: float, attachment: Any) -> MembershipEvent:
    """A brand-new node joins at ``at``."""
    return MembershipEvent(at, MembershipEventKind.JOIN, node, attachment)


def recover(node: NodeId, at: float, attachment: Any = None) -> MembershipEvent:
    """A crashed node recovers at ``at`` (old edges unless told otherwise)."""
    return MembershipEvent(at, MembershipEventKind.RECOVER, node, attachment)


def leave(node: NodeId, at: float) -> MembershipEvent:
    """A live node announces its departure at ``at`` (permanent)."""
    return MembershipEvent(at, MembershipEventKind.LEAVE, node)


@dataclass(frozen=True)
class MembershipSchedule:
    """An immutable list of timed membership events."""

    events: tuple[MembershipEvent, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))

    @property
    def nodes(self) -> frozenset[NodeId]:
        """All nodes touched by the schedule."""
        return frozenset(event.node for event in self.events)

    @property
    def joining_nodes(self) -> frozenset[NodeId]:
        """Nodes that join (do not exist in the base graph)."""
        return frozenset(
            event.node
            for event in self.events
            if event.kind is MembershipEventKind.JOIN
        )

    @property
    def last_time(self) -> float:
        """Time of the last event (0.0 for an empty schedule)."""
        return max((event.time for event in self.events), default=0.0)

    def __iter__(self) -> Iterator[MembershipEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def of_kind(self, kind: MembershipEventKind) -> tuple[MembershipEvent, ...]:
        return tuple(event for event in self.events if event.kind is kind)

    def shifted(self, offset: float) -> "MembershipSchedule":
        """The same schedule with every event delayed by ``offset``."""
        if offset < 0:
            raise MembershipError("offset must be non-negative")
        return MembershipSchedule(
            tuple(
                MembershipEvent(
                    event.time + offset, event.kind, event.node, event.attachment
                )
                for event in self.events
            )
        )

    def merged(self, other: "MembershipSchedule") -> "MembershipSchedule":
        """Union of two schedules, kept in time order."""
        merged = sorted(
            self.events + other.events, key=lambda e: (e.time, repr(e.node))
        )
        return MembershipSchedule(tuple(merged))

    def timeline(
        self, crashes: Optional[CrashSchedule] = None
    ) -> list[tuple[float, int, str, NodeId, Optional[MembershipEvent]]]:
        """The canonical merged crash + membership timeline.

        Entries are ``(time, priority, kind, node, event)`` with crashes
        carrying priority 0 and membership events priority 1, so
        same-timestamp ties resolve crash-first, then by the node's
        deterministic ``repr``.  Every consumer — :meth:`validate`, the
        simulator application in
        :func:`repro.experiments.runner.build_simulator`,
        and the asyncio runtime's schedule task — iterates this one
        ordering, which keeps the two runtimes in lockstep on ties.
        """
        timeline: list[tuple[float, int, str, NodeId, Optional[MembershipEvent]]] = []
        if crashes is not None:
            timeline.extend(
                (time, 0, "crash", node, None) for node, time in crashes.crashes
            )
        timeline.extend(
            (event.time, 1, event.kind.value, event.node, event)
            for event in self.events
        )
        timeline.sort(key=lambda item: (item[0], item[1], repr(item[3])))
        return timeline

    def validate(
        self,
        graph: KnowledgeGraph,
        crashes: Optional[CrashSchedule] = None,
    ) -> None:
        """Replay the combined crash + membership timeline and check it.

        Raises :class:`MembershipError` when the script is impossible:
        recovering a node that is not down, re-crashing a node that never
        recovered, a join of an existing node, a leave of a dead node,
        events touching unknown nodes, and so on.
        """
        LIVE, CRASHED, DEPARTED, ABSENT = "live", "crashed", "departed", "absent"
        status: dict[NodeId, str] = {node: LIVE for node in graph.nodes}
        for time, _, kind, node, _event in self.timeline(crashes):
            current = status.get(node, ABSENT)
            if kind == "crash":
                if current != LIVE:
                    raise MembershipError(
                        f"crash of {node!r} at t={time} but the node is {current}"
                    )
                status[node] = CRASHED
            elif kind == "join":
                if current != ABSENT:
                    raise MembershipError(
                        f"join of {node!r} at t={time} but the node is {current}"
                    )
                status[node] = LIVE
            elif kind == "recover":
                if current != CRASHED:
                    raise MembershipError(
                        f"recovery of {node!r} at t={time} but the node is {current}"
                    )
                status[node] = LIVE
            elif kind == "leave":
                if current != LIVE:
                    raise MembershipError(
                        f"leave of {node!r} at t={time} but the node is {current}"
                    )
                status[node] = DEPARTED

    def applied_to(self, sim, crashes: Optional[CrashSchedule] = None) -> None:
        """Feed the schedule (and ``crashes``) into a simulator.

        Items are scheduled in :meth:`timeline` order; the simulator's
        event queue is FIFO at equal timestamps, so insertion order *is*
        the canonical tie order.  Joins are registered as they appear,
        ahead of any (validated-later) crash of the same node, which
        satisfies the simulator's schedule-time sanity checks.
        """
        for _time, _priority, kind, node, event in self.timeline(crashes):
            if kind == "crash":
                sim.schedule_crash(node, _time)
            elif event.kind is MembershipEventKind.JOIN:
                sim.schedule_join(node, _time, event.attachment)
            elif event.kind is MembershipEventKind.RECOVER:
                sim.schedule_recover(node, _time, event.attachment)
            else:
                sim.schedule_leave(node, _time)


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------
def recovery_for(
    crashes: CrashSchedule,
    downtime: float = 10.0,
    attachment: Any = None,
) -> MembershipSchedule:
    """Every crashed node recovers ``downtime`` after its (last) crash."""
    if downtime <= 0:
        raise MembershipError("downtime must be positive")
    last_crash: dict[NodeId, float] = {}
    for node, time in crashes.crashes:
        last_crash[node] = max(time, last_crash.get(node, 0.0))
    events = tuple(
        recover(node, time + downtime, attachment)
        for node, time in sorted(last_crash.items(), key=lambda item: repr(item[0]))
    )
    return MembershipSchedule(events)


def crash_recover_recrash(
    graph: KnowledgeGraph,
    members: Iterable[NodeId],
    crash_at: float = 1.0,
    recover_at: float = 40.0,
    recrash_at: float = 80.0,
    attachment: Any = None,
) -> tuple[CrashSchedule, MembershipSchedule]:
    """A region crashes, recovers, and crashes again.

    This is the cliff-edge race the churn subsystem exists for: the same
    border must agree on the same region twice, in two different
    membership epochs, and the epoch-quotiented CD1–CD7 specification must
    hold across the whole run.
    """
    member_list = sorted(frozenset(members), key=repr)
    if not member_list:
        raise MembershipError("cannot churn an empty region")
    if not (crash_at < recover_at < recrash_at):
        raise MembershipError("expected crash_at < recover_at < recrash_at")
    if not graph.is_connected_subset(member_list):
        raise MembershipError("churned members must form a connected region")
    crashes = CrashSchedule(
        tuple((node, crash_at) for node in member_list)
        + tuple((node, recrash_at) for node in member_list),
        allow_recrash=True,
    )
    membership = MembershipSchedule(
        tuple(recover(node, recover_at, attachment) for node in member_list)
    )
    return crashes, membership


def steady_state_churn(
    graph: KnowledgeGraph,
    churn_rate: float = 0.05,
    duration: float = 100.0,
    seed: int = 0,
    start: float = 1.0,
    downtime: float = 15.0,
    region_size: int = 1,
    attachment: Any = None,
    settle_margin: float = 15.0,
) -> tuple[CrashSchedule, MembershipSchedule]:
    """Independent crash→recover cycles at a target churn rate.

    ``churn_rate`` is the expected fraction of the population that starts
    a crash→recover cycle per unit of simulated time; over ``duration``
    time units the builder schedules about ``churn_rate * |Pi| *
    duration`` cycles (at least one), each crashing a connected region of
    ``region_size`` nodes and recovering it ``downtime`` later.

    The independence constraint is *spatio-temporal*: a cycle's region
    must be disjoint from (and non-adjacent to) the regions of cycles it
    overlaps **in time** — a cycle occupies its neighbourhood from its
    crash until ``settle_margin`` after its recovery, leaving room for
    the post-recovery announcements to settle.  Nodes are reusable across
    non-overlapping cycles, so high rates genuinely schedule more cycles
    instead of silently saturating at the graph's disjoint-packing limit.
    Cycle starts are spread uniformly over ``[start, start + duration]``;
    cycles that cannot be placed when the graph is momentarily saturated
    are dropped (the returned schedules reveal the realised count).

    The cost is linear in what is placed: occupied zones expire off a heap
    as time advances, a per-node count says which nodes are busy, and a
    start that finds every node busy draws its sub-seed and nothing else —
    ``O(starts + placed * |Pi|)``.
    """
    if churn_rate <= 0:
        raise MembershipError("churn rate must be positive")
    if duration <= 0:
        raise MembershipError("duration must be positive")
    if settle_margin <= 0:
        raise MembershipError("settle margin must be positive")
    rng = random.Random(seed)
    wanted = max(1, math.floor(churn_rate * len(graph) * duration + 0.5))
    starts = sorted(start + rng.random() * duration for _ in range(wanted))
    ordered = sorted(graph.nodes, key=repr)
    #: Cycles still occupying their neighbourhood: (busy_until, seq, zone).
    active: list[tuple[float, int, frozenset[NodeId]]] = []
    #: Per node, how many active zones hold it (a free node is absent).
    busy: dict[NodeId, int] = {}
    crash_events: list[tuple[NodeId, float]] = []
    membership_events: list[MembershipEvent] = []
    placed = 0
    for at in starts:
        while active and active[0][0] <= at:
            for node in heapq.heappop(active)[2]:
                busy[node] -= 1
                if not busy[node]:
                    del busy[node]
        # One sub-seed per start, placeable or not: the stream stays the
        # one every recorded schedule was drawn from.
        sub_seed = rng.randrange(2**31)
        if region_size < 1 or len(busy) == len(graph):
            # No region can be drawn: the graph is momentarily saturated
            # with in-flight cycles (or the size is impossible).  Drop the
            # cycle rather than violate independence.
            continue
        try:
            region = _grow_region(
                graph,
                region_size,
                random.Random(sub_seed),
                [node for node in ordered if node not in busy],
                busy,
            )
        except ScheduleError:
            continue
        members = frozenset(region.members)
        neighbourhood = graph.closed_neighbourhood(members)
        zone = neighbourhood | graph.border(neighbourhood)
        heapq.heappush(active, (at + downtime + settle_margin, placed, zone))
        for node in zone:
            busy[node] = busy.get(node, 0) + 1
        placed += 1
        for node in sorted(members, key=repr):
            crash_events.append((node, at))
            membership_events.append(recover(node, at + downtime, attachment))
    if not placed:
        raise MembershipError(
            "graph too small/constrained for even one churn cycle"
        )
    crash_events.sort(key=lambda item: (item[1], repr(item[0])))
    membership_events.sort(key=lambda event: (event.time, repr(event.node)))
    return (
        CrashSchedule(tuple(crash_events), allow_recrash=True),
        MembershipSchedule(tuple(membership_events)),
    )


def flash_crowd_joins(
    graph: KnowledgeGraph,
    count: int = 8,
    at: float = 1.0,
    spacing: float = 0.5,
    fanout: int = 2,
    seed: int = 0,
    prefix: str = "newcomer",
) -> MembershipSchedule:
    """A burst of ``count`` brand-new nodes joining by locality.

    Node ids are ``f"{prefix}-{i}"``; each newcomer attaches to ``fanout``
    live nodes near a seeded-random anchor.  With ``spacing=0`` the whole
    crowd arrives in one instant.
    """
    if count < 1:
        raise MembershipError("a flash crowd needs at least one newcomer")
    if spacing < 0:
        raise MembershipError("spacing must be non-negative")
    rng = random.Random(seed)
    anchor_pool = sorted(graph.nodes, key=repr)
    events = []
    for index in range(count):
        anchor = anchor_pool[rng.randrange(len(anchor_pool))]
        events.append(
            join(
                f"{prefix}-{index}",
                at + index * spacing,
                FreshJoinByLocality(fanout=fanout, anchor=anchor),
            )
        )
    return MembershipSchedule(tuple(events))
