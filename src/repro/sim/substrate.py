"""The substrate kernel: one control plane under every execution substrate.

The paper's model (§2.2–2.3) is one thing — event-driven processes over a
perfect failure detector and reliable FIFO channels — and the churn
extension adds one membership service on top of it.  :class:`Substrate`
owns all of it: the process registry, incarnations, crash / leave
("stop"), join / recover ("enter"), attachment resolution, crash
monitoring, the guards on deferred notifications, timers and
announcements, and the link-fault decision.  A concrete substrate
(:class:`~repro.sim.network.Simulator` and through it
:class:`~repro.sim.partition.PartitionSimulator`,
:class:`~repro.runtime.async_runtime.AsyncRuntime`) supplies the seam —
how time passes, how a callback is deferred, how an item reaches its
node — and its own message path, which is where the substrates really
differ (latency + FIFO clock against zero-latency inboxes) and is
therefore **not** shared.  ``docs/ARCHITECTURE.md`` tabulates who
overrides what, and why.
"""

from __future__ import annotations

import random
import weakref
from collections.abc import Callable, Iterable
from typing import Any, Optional

from ..graph import KnowledgeGraph, NodeId
from ..trace import TraceRecorder
from .events import EventKind
from .failure_detector import FailureDetectorPolicy
from .faults import FaultModel
from .process import MembershipChange, Process


class SimulationError(RuntimeError):
    """Raised on substrate misuse (unknown nodes, missing processes, ...)."""


class SubstrateContext:
    """The :class:`~repro.sim.process.ProcessContext` every substrate hands out.

    A handle *into* its substrate, which owns it (``Substrate._contexts``):
    the reference back is weak, so a substrate and its thousands of
    contexts, nodes and their state are no reference cycle and a finished
    run is freed the moment its result is dropped, not at the next full
    garbage collection.
    """

    __slots__ = ("_substrate", "node_id")

    def __init__(self, substrate: "Substrate", node_id: NodeId) -> None:
        self._substrate = weakref.proxy(substrate)
        self.node_id = node_id

    @property
    def graph(self) -> KnowledgeGraph:
        return self._substrate.graph

    def now(self) -> float:
        return self._substrate._now()

    def send(self, target: NodeId, message: Any) -> None:
        self._substrate._send(self.node_id, target, message)

    def multicast(self, targets: Iterable[NodeId], message: Any) -> None:
        # The paper's best-effort multicast: a plain loop of sends.
        for target in targets:
            self._substrate._send(self.node_id, target, message)

    def monitor_crash(self, targets: Iterable[NodeId]) -> None:
        self._substrate._monitor(self.node_id, targets)

    def set_timer(self, delay: float, tag: Any = None) -> None:
        self._substrate._set_timer(self.node_id, delay, tag)

    def record(
        self,
        kind: EventKind,
        payload: Any = None,
        peer: NodeId | None = None,
        **detail: Any,
    ) -> None:
        substrate = self._substrate
        substrate.trace.emit(
            substrate._now(), kind, node=self.node_id, peer=peer, payload=payload, **detail
        )


class Substrate:
    """Processes, failure detection and membership over a small seam.

    ``failure_detector`` is whatever :meth:`_detector_delay` consults (a
    substrate may accept ``None`` and answer with a flat delay); ``seed``
    seeds the attachment RNG and keys the link-fault decisions.
    """

    # Slots (no __dict__) so a typo'd attribute fails loudly on the
    # simulators; AsyncRuntime declares none and keeps its __dict__.
    __slots__ = (
        "graph", "failure_detector", "faults", "trace", "_rng",
        "_fault_seed", "_fault_seq", "_processes", "_contexts", "_process_factory",
        "_crashed", "_departed", "_crash_times", "_subscriptions", "_notification_scheduled",
        "_base_graph", "_incarnation", "_epoch", "__weakref__",
    )

    #: Clock units per unit of model time.  Timers and fault offsets are
    #: given in model time and multiplied by this; ``x * 1.0`` is
    #: float-exact, so the simulators (whose clock *is* model time) pay
    #: nothing for sharing the code with the scaled asyncio clock.
    time_scale = 1.0

    def __init__(
        self,
        graph: KnowledgeGraph,
        failure_detector: Optional[FailureDetectorPolicy],
        seed: int = 0,
        trace: TraceRecorder | None = None,
        faults: FaultModel | None = None,
    ) -> None:
        self.graph = graph
        self.failure_detector = failure_detector
        self.faults = faults
        self.trace = trace if trace is not None else TraceRecorder()
        #: Attachment policies draw from this stream on every substrate
        #: (the simulator also draws latency and detector jitter from it).
        self._rng = random.Random(seed)
        # Fault decisions never touch self._rng: they come from dedicated
        # per-message keyed RNGs (repro.sim.faults.message_rng), so the
        # shared stream stays in lockstep with fault-free and partitioned
        # runs and the fault pattern agrees across substrates.  The
        # per-channel send counters are the message-identity half of the key.
        self._fault_seed = seed
        self._fault_seq: dict[tuple[NodeId, NodeId], int] = {}
        self._processes: dict[NodeId, Process] = {}
        self._contexts: dict[NodeId, SubstrateContext] = {}
        self._crashed: set[NodeId] = set()
        #: Nodes that left gracefully (as dead as crashed ones, but
        #: permanently: a departed node never recovers).
        self._departed: set[NodeId] = set()
        self._crash_times: dict[NodeId, float] = {}
        self._subscriptions: dict[NodeId, set[NodeId]] = {}
        self._notification_scheduled: set[tuple[NodeId, NodeId]] = set()
        #: The topology before any membership event (attachment policies
        #: consult it, e.g. to restore a recovering node's old edges).
        self._base_graph = graph
        #: Per-node incarnation counter; bumped on join/recover so stale
        #: deliveries, timers and notifications aimed at a previous life of
        #: the node can be recognised and dropped.
        self._incarnation: dict[NodeId, int] = {}
        #: Membership epoch counter (0 = the initial static epoch).
        self._epoch = 0
        self._process_factory: Optional[Callable[[NodeId], Process]] = None

    # ------------------------------------------------------------------
    # The seam (every substrate defines these)
    # ------------------------------------------------------------------
    def _now(self) -> float:
        """Current time on the substrate's clock."""
        raise NotImplementedError

    def _defer(self, delay: float, callback: Callable[[], None], fanout: Any = None) -> None:
        """Run ``callback`` after ``delay`` clock units (``fanout`` names the
        target of a replicated fan-out; only the partitions read it)."""
        raise NotImplementedError

    def _dispatch(self, node: NodeId, kind: str, payload: Any) -> None:
        """Hand one guarded item to ``node``: :meth:`_handle` inline on the
        simulator, the node's inbox (whose task calls it) on asyncio."""
        raise NotImplementedError

    def _detector_delay(self, observer: NodeId, subject: NodeId) -> float:
        """Clock units between an event at ``subject`` and ``observer``
        hearing of it — a crash notification or a membership announcement
        alike.  Hides which RNG stream a jittered policy draws from."""
        raise NotImplementedError

    def _send(self, source: NodeId, target: NodeId, message: Any) -> None:
        """The message path; only :meth:`_fault_offsets` inside it is shared."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Optional hooks
    # ------------------------------------------------------------------
    def _delivers_to(self, node: NodeId) -> bool:
        """Whether this substrate runs the handlers of ``node`` (always,
        except on a partition, where it is an ownership test)."""
        return True

    def _admit(self, node: NodeId, neighbours: frozenset[NodeId]) -> None:
        """A brand-new node is about to enter the graph (partitions assign
        its owner here, before NODE_JOINED is emitted)."""

    def _wire(self, node: NodeId) -> None:
        """A process was just installed at ``node`` mid-run (asyncio gives
        it a fresh inbox and task here — see :meth:`_activate`)."""

    def _notifiable(self, subscriber: NodeId, kind: EventKind) -> bool:
        """Whether a stop of ``kind`` schedules a notification for
        ``subscriber``: not for one that has itself stopped.  (Scheduling
        it anyway would be dropped by the guard, but would draw detector
        jitter from ``_rng`` per dead subscriber and move every digest
        taken under a jittered detector.)"""
        return subscriber not in self._crashed and subscriber not in self._departed

    # ------------------------------------------------------------------
    # Configuration and inspection
    # ------------------------------------------------------------------
    def add_process(self, node_id: NodeId, process: Process) -> None:
        """Install the behaviour of one node."""
        if node_id not in self.graph:
            raise SimulationError(f"node {node_id!r} is not in the graph")
        self._processes[node_id] = process
        self._contexts[node_id] = SubstrateContext(self, node_id)

    def populate(self, factory: Callable[[NodeId], Process]) -> None:
        """Install ``factory(node)`` on every graph node lacking a process.

        The factory is kept so that nodes joining or recovering later can
        be given a fresh process of the same kind.
        """
        self._process_factory = factory
        for node in self.graph.nodes:
            if node not in self._processes:
                self.add_process(node, factory(node))

    def process(self, node_id: NodeId) -> Process:
        """The process installed at ``node_id`` (for inspection in tests)."""
        try:
            return self._processes[node_id]
        except KeyError:
            raise SimulationError(f"no process installed at {node_id!r}") from None

    @property
    def crashed_nodes(self) -> frozenset[NodeId]:
        """Nodes that have crashed so far."""
        return frozenset(self._crashed)

    @property
    def departed_nodes(self) -> frozenset[NodeId]:
        """Nodes that left gracefully so far."""
        return frozenset(self._departed)

    @property
    def membership_epoch(self) -> int:
        """Number of membership events applied so far (0 = static run)."""
        return self._epoch

    @property
    def base_graph(self) -> KnowledgeGraph:
        """The topology before any membership event."""
        return self._base_graph

    def is_crashed(self, node: NodeId) -> bool:
        return node in self._crashed

    def crash_time(self, node: NodeId) -> Optional[float]:
        """When ``node`` crashed or left, or ``None`` if it is running."""
        return self._crash_times.get(node)

    # ------------------------------------------------------------------
    # Handling one item
    # ------------------------------------------------------------------
    def _handle(self, node: NodeId, kind: str, payload: Any) -> None:
        """Trace one item that passed its guard and run ``node``'s handler."""
        process = self._processes[node]
        context = self._contexts[node]
        emit, now = self.trace.emit, self._now()
        if kind == "message":
            sender, message = payload
            emit(now, EventKind.MESSAGE_DELIVERED, node=node, peer=sender, payload=message)
            process.on_message(context, sender, message)
        elif kind == "crash":
            emit(now, EventKind.CRASH_NOTIFIED, node=node, peer=payload)
            process.on_crash(context, payload)
        elif kind == "timer":
            process.on_timer(context, payload)
        else:
            who, what = payload.node, payload.kind
            emit(now, EventKind.MEMBERSHIP_NOTIFIED, node=node, peer=who, payload=what)
            process.on_membership(context, payload)

    def _inc(self, node: NodeId) -> int:
        return self._incarnation.get(node, 0)

    def _current(self, node: NodeId, incarnation: int) -> bool:
        """Whether the life of ``node`` a deferred item was addressed to is
        still running (not stopped, not superseded by a fresh incarnation
        — which re-subscribes and is told separately)."""
        return (
            node not in self._crashed
            and node not in self._departed
            and self._inc(node) == incarnation
            and node in self._processes
        )

    # ------------------------------------------------------------------
    # Link faults (the one shared piece of the message path)
    # ------------------------------------------------------------------
    def _fault_offsets(
        self, source: NodeId, target: NodeId, message: Any, now: float
    ) -> tuple[float, ...]:
        """Decide the fate of one send under ``self.faults``.

        Returns the delivery offsets (model time) of the copies to
        deliver; an empty tuple means lost, and MESSAGE_LOST is already
        emitted.  The channel's counter advances on *every* send, so the
        decision is a pure function of message identity and lines up
        across substrates and partition counts.
        """
        channel = (source, target)
        sequence = self._fault_seq.get(channel, 0)
        self._fault_seq[channel] = sequence + 1
        offsets = self.faults.deliveries(source, target, sequence, self._fault_seed)
        if not offsets:
            self.trace.emit(
                now, EventKind.MESSAGE_LOST, node=source, peer=target, payload=message
            )
        return offsets

    def _record_duplication(
        self, source: NodeId, target: NodeId, message: Any, now: float, copies: int
    ) -> None:
        # Apart from _fault_offsets: asyncio's send-time drop sits between
        # the two emissions.  Callers test copies > 1 (off the hot path).
        self.trace.emit(
            now,
            EventKind.MESSAGE_DUPLICATED,
            node=source,
            peer=target,
            payload=message,
            copies=copies,
        )

    # ------------------------------------------------------------------
    # Failure detection and timers
    # ------------------------------------------------------------------
    def _detection_delay(self, observer: NodeId, subject: NodeId) -> float:
        delay = self._detector_delay(observer, subject)
        if delay < 0:
            raise SimulationError("failure detector produced a negative delay")
        return delay

    def _monitor(self, subscriber: NodeId, targets: Iterable[NodeId]) -> None:
        target_list = list(targets)
        for target in target_list:
            if target not in self.graph:
                raise SimulationError(f"cannot monitor unknown node {target!r}")
        if not target_list:
            return
        self.trace.emit(
            self._now(),
            EventKind.CRASH_MONITORED,
            node=subscriber,
            payload=tuple(sorted(map(repr, target_list))),
        )
        subscriptions = self._subscriptions
        for target in target_list:
            # Not setdefault(target, set()): start() monitors every node from
            # each of its neighbours, and all but the first would build a set
            # to throw away.
            if target in subscriptions:
                subscriptions[target].add(subscriber)
            else:
                subscriptions[target] = {subscriber}
            if target in self._crashed or target in self._departed:
                self._schedule_notification(subscriber, target)

    def _schedule_notification(
        self, subscriber: NodeId, crashed: NodeId, fanout: Any = None
    ) -> None:
        key = (subscriber, crashed)
        if key in self._notification_scheduled:
            return
        self._notification_scheduled.add(key)
        delay = self._detection_delay(subscriber, crashed)
        incarnation = self._inc(subscriber)
        self._defer(
            delay, lambda: self._notify_crash(subscriber, crashed, incarnation), fanout
        )

    def _notify_crash(self, subscriber: NodeId, crashed: NodeId, incarnation: int) -> None:
        if not self._current(subscriber, incarnation):
            return
        if crashed not in self._crashed and crashed not in self._departed:
            # The crashed node recovered before the notification fired;
            # the membership announcement supersedes it.
            return
        self._dispatch(subscriber, "crash", crashed)

    def _set_timer(self, node: NodeId, delay: float, tag: Any) -> None:
        if delay < 0:
            raise SimulationError("timer delay must be non-negative")
        incarnation = self._inc(node)
        self._defer(
            delay * self.time_scale, lambda: self._fire_timer(node, tag, incarnation)
        )

    def _fire_timer(self, node: NodeId, tag: Any, incarnation: int) -> None:
        if self._current(node, incarnation):
            self._dispatch(node, "timer", tag)

    # ------------------------------------------------------------------
    # Stop: crash and graceful leave
    # ------------------------------------------------------------------
    def _crash(self, node: NodeId) -> None:
        self._stop(node, self._crashed, EventKind.NODE_CRASHED)

    def _leave(self, node: NodeId) -> None:
        """A graceful leave: an *announced* fail-stop.

        The node stops executing instantly (exactly like a crash), stays
        in the graph snapshot — the topology service keeps answering
        queries about it, as it does for crashed nodes — and subscribers
        are notified through the ordinary failure-detector channel, so the
        border runs the same agreement it would run for a crash.  This is
        what overlay maintenance does for departures in practice; the
        ground truth (NODE_LEFT vs NODE_CRASHED) stays distinguishable for
        the epoch-quotiented property checkers.  Leaves are permanent: a
        departed node never recovers.
        """
        self._stop(node, self._departed, EventKind.NODE_LEFT)

    def _stop(self, node: NodeId, stopped: set[NodeId], kind: EventKind) -> None:
        if node not in self.graph:
            raise SimulationError(f"cannot apply {kind.value} to unknown node {node!r}")
        if node in self._crashed or node in self._departed:
            return
        stopped.add(node)
        now = self._now()
        self._crash_times[node] = now
        self.trace.emit(now, kind, node=node)
        for subscriber in sorted(self._subscriptions.get(node, ()), key=repr):
            if self._notifiable(subscriber, kind):
                self._schedule_notification(subscriber, node, fanout=subscriber)

    # ------------------------------------------------------------------
    # Enter: join and recover
    # ------------------------------------------------------------------
    def _resolve_attachment(self, node: NodeId, attachment: Any) -> frozenset[NodeId]:
        """Turn a join/recover attachment into a concrete neighbour set.

        ``None`` keeps the node's current edges (only meaningful for a
        recovery), an attachment policy (any object with a
        ``neighbours_for`` method, see :mod:`repro.churn.attachment`) is
        asked, and anything else is an explicit iterable of neighbour ids.
        """
        if attachment is None:
            if node in self.graph:
                return self.graph.neighbours(node)
            raise SimulationError(
                f"joining node {node!r} needs an attachment policy or edge list"
            )
        if hasattr(attachment, "neighbours_for"):
            attachment = attachment.neighbours_for(
                node,
                current=self.graph,
                base=self._base_graph,
                # Departed nodes are as dead as crashed ones for attachment
                # purposes: a policy must never hand out edges to them.
                crashed=frozenset(self._crashed | self._departed),
                rng=self._rng,
            )
        return frozenset(attachment)

    def _join(self, node: NodeId, attachment: Any) -> None:
        if node in self.graph:
            raise SimulationError(f"joining node {node!r} is already in the graph")
        neighbours = self._resolve_attachment(node, attachment)
        if not neighbours:
            raise SimulationError(f"joining node {node!r} attaches to nothing")
        self._admit(node, neighbours)
        self.graph = self.graph.with_node(node, neighbours)
        self._enter("join", EventKind.NODE_JOINED, node, neighbours)

    def _recover(self, node: NodeId, attachment: Any) -> None:
        if node not in self.graph:
            raise SimulationError(f"cannot recover unknown node {node!r}")
        if node not in self._crashed:
            raise SimulationError(f"cannot recover live node {node!r}")
        neighbours = self._resolve_attachment(node, attachment)
        if not neighbours:
            raise SimulationError(f"recovering node {node!r} attaches to nothing")
        if neighbours != self.graph.neighbours(node):
            self.graph = self.graph.without([node]).with_node(node, neighbours)
        self._crashed.discard(node)
        self._crash_times.pop(node, None)
        # A future re-crash must be notifiable again, and pending
        # notifications aimed at the dead incarnation must not leak into
        # the fresh one (the incarnation guard catches in-flight ones).
        self._notification_scheduled = {
            (subscriber, crashed)
            for subscriber, crashed in self._notification_scheduled
            if crashed != node and subscriber != node
        }
        # The fresh incarnation starts with no subscriptions of its own,
        # and nobody is subscribed to it: monitorCrash relationships are
        # per-incarnation on both sides.  Interested neighbours re-monitor
        # through the membership announcement, and more distant border
        # nodes re-learn it transitively (line 7 of Algorithm 1), which
        # restores the static model's adjacency-ordered notifications.
        # The announcement must still reach everyone who was watching the
        # *old* incarnation — including non-neighbour border nodes — so
        # the audience is captured before the subscription wipe.
        old_watchers = frozenset(self._subscriptions.pop(node, set()))
        for subscribers in self._subscriptions.values():
            subscribers.discard(node)
        self._enter("recover", EventKind.NODE_RECOVERED, node, neighbours, old_watchers)

    def _enter(
        self,
        change: str,
        kind: EventKind,
        node: NodeId,
        neighbours: frozenset[NodeId],
        extra: frozenset[NodeId] = frozenset(),
    ) -> None:
        """The common tail of join and recover.  Its order is part of the
        determinism contract: NODE_JOINED/NODE_RECOVERED, then the fresh
        process (:meth:`_activate`), then the announcement."""
        self._epoch += 1
        incarnation = self._incarnation[node] = self._inc(node) + 1
        self.trace.emit(
            self._now(),
            kind,
            node=node,
            payload=tuple(sorted(neighbours, key=repr)),
            epoch=self._epoch,
        )
        self._activate(node)
        self._announce(
            MembershipChange(change, node, neighbours, incarnation=incarnation), extra
        )

    def _activate(self, node: NodeId) -> None:
        """Spawn, wire and start the fresh process of a joined/recovered
        node (a partition does so only for a node it owns).

        ``_wire`` sits between installing the process and NODE_STARTED
        because asyncio creates the node's task there and the virtual
        loop's genealogical keys depend on task-creation order.
        """
        if self._process_factory is None:
            raise SimulationError(
                "no process factory installed; call populate() before "
                "scheduling membership events"
            )
        process = self._process_factory(node)
        seed_incarnation = getattr(process, "set_incarnation", None)
        if callable(seed_incarnation):
            # Let the fresh process mint instance generations that can
            # never collide with its previous life's (see
            # CliffEdgeNode.set_incarnation).
            seed_incarnation(self._inc(node))
        self._processes[node] = process
        context = self._contexts[node] = SubstrateContext(self, node)
        self._wire(node)
        self.trace.emit(self._now(), EventKind.NODE_STARTED, node=node)
        process.on_start(context)

    def _announce(
        self, change: MembershipChange, extra: frozenset[NodeId] = frozenset()
    ) -> None:
        """Announce a membership change to the nodes that care.

        The announcement reaches current subscribers of the node, its
        (new) neighbours, and any ``extra`` audience the caller captured
        (recoveries pass the previous incarnation's watchers), after the
        same per-pair delay the failure detector would impose — the
        membership service is assumed to be exactly as timely as crash
        detection.
        """
        targets = set(self._subscriptions.get(change.node, set())) | set(extra)
        if change.node in self.graph:
            targets |= self.graph.neighbours(change.node)
        for target in sorted(targets, key=repr):
            if target == change.node or target in self._crashed or target in self._departed:
                continue
            if not self._delivers_to(target):
                # A partition announces only to the targets it runs; the
                # other partitions replay the same membership event and
                # announce to theirs, so the union over partitions is
                # exactly this loop's sequential target set.
                continue
            delay = self._detection_delay(target, change.node)
            incarnation = self._inc(target)
            self._defer(
                delay,
                lambda t=target, i=incarnation: self._notify_membership(t, i, change),
                fanout=target,
            )

    def _notify_membership(
        self, subscriber: NodeId, incarnation: int, change: MembershipChange
    ) -> None:
        if self._current(subscriber, incarnation):
            self._dispatch(subscriber, "membership", change)
