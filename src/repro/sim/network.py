"""The deterministic discrete-event simulator.

:class:`Simulator` is the :class:`~repro.sim.substrate.Substrate` adapter
over an :class:`~repro.sim.scheduler.EventScheduler`: the kernel owns the
processes, the perfect failure detector and the membership control
plane; this module adds the simulated clock, the public ``schedule_*`` /
``start`` / ``run`` surface, and the message path — reliable FIFO
channels with a pluggable latency model.

Model guarantees (matching §2.2 of the paper):

* channels are reliable and FIFO between every ordered pair of nodes;
* nodes are asynchronous — there is no bound on relative speeds, modelled
  here by the latency model's jitter;
* a crashed node stops executing instantly: its handlers are never invoked
  again, it sends nothing, and messages addressed to it are dropped;
* the failure detector is perfect (strong accuracy + strong completeness),
  with a configurable notification-delay policy.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from typing import Any, Optional

from ..graph import KnowledgeGraph, NodeId
from ..trace import TraceRecorder
from .events import EventKind
from .failure_detector import FailureDetectorPolicy, PerfectFailureDetector
from .faults import FaultModel
from .latency import ConstantLatency, LatencyModel
from .process import Process
from .scheduler import EventScheduler
from .substrate import SimulationError, Substrate

#: Minimal spacing between two deliveries on the same FIFO channel; keeps
#: delivery order equal to send order even under jittered latencies.
_FIFO_EPSILON = 1e-9

#: Default safety valve for :meth:`Simulator.run` — far above anything the
#: experiments need, but low enough to abort a livelocked run quickly.
DEFAULT_MAX_EVENTS = 5_000_000


class Simulator(Substrate):
    """Discrete-event execution of processes on a knowledge graph.

    Parameters
    ----------
    graph:
        The static knowledge graph ``G``.
    latency:
        Latency model for point-to-point messages.
    failure_detector:
        Notification-delay policy of the perfect failure detector.
    seed:
        Seed for all randomness (latency jitter, detector jitter).
    trace:
        Optional pre-existing recorder; a fresh one is created otherwise.
    scheduler:
        Optional pre-built :class:`EventScheduler` (the determinism
        regression suite injects an unbatched one to compare dispatch
        modes); a fresh batched scheduler is created otherwise.
    faults:
        Optional :class:`~repro.sim.faults.FaultModel` injecting
        deterministic message loss / duplication / reordering at the
        send site; ``None`` (the default) keeps the paper's reliable
        FIFO channels and the exact fault-free event stream.
    """

    # Substrate declares the kernel's slots; these are the adapter's own.
    __slots__ = ("latency", "_scheduler", "_channel_clock", "_started", "_pending_joins")

    def __init__(
        self,
        graph: KnowledgeGraph,
        latency: LatencyModel | None = None,
        failure_detector: FailureDetectorPolicy | None = None,
        seed: int = 0,
        trace: TraceRecorder | None = None,
        scheduler: EventScheduler | None = None,
        faults: FaultModel | None = None,
    ) -> None:
        super().__init__(
            graph,
            failure_detector if failure_detector is not None else PerfectFailureDetector(1.0),
            seed=seed,
            trace=trace,
            faults=faults,
        )
        self.latency = latency if latency is not None else ConstantLatency(1.0)
        self._scheduler = scheduler if scheduler is not None else EventScheduler()
        self._channel_clock: dict[tuple[NodeId, NodeId], float] = {}
        self._started = False
        #: Nodes a join was scheduled for (crashes, recoveries and leaves
        #: may be scheduled for them before they exist).
        self._pending_joins: set[NodeId] = set()

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def add_process(self, node_id: NodeId, process: Process) -> None:
        """Install the behaviour of one node (before :meth:`start`)."""
        if self._started:
            raise SimulationError("cannot add processes after start()")
        super().add_process(node_id, process)

    # The perf ledger wraps vars(Simulator)["populate"] (and ["run"]), so
    # both must stay defined on this class, not only on the kernel.
    populate = Substrate.populate

    def schedule_crash(self, node: NodeId, time: float) -> None:
        """Crash ``node`` at absolute simulated time ``time``."""
        if node not in self.graph and node not in self._pending_joins:
            raise SimulationError(f"node {node!r} is not in the graph")
        self._schedule_event_at(time, lambda: self._crash(node))

    def schedule_crashes(self, crashes: Iterable[tuple[NodeId, float]]) -> None:
        """Schedule many ``(node, time)`` crashes."""
        for node, time in crashes:
            self.schedule_crash(node, time)

    def schedule_call(self, time: float, callback: Callable[[], None]) -> None:
        """Schedule an arbitrary callback (used by scenario scripts)."""
        self._schedule_event_at(time, callback)

    # ------------------------------------------------------------------
    # Dynamic membership (churn) scheduling
    # ------------------------------------------------------------------
    def schedule_join(self, node: NodeId, time: float, attachment: Any) -> None:
        """A brand-new ``node`` joins at ``time``.

        ``attachment`` is either an iterable of neighbour ids or an
        attachment policy (any object with a ``neighbours_for`` method, see
        :mod:`repro.churn.attachment`) resolved at join time against the
        then-current graph.
        """
        if node in self.graph or node in self._pending_joins:
            raise SimulationError(f"node {node!r} is already part of the system")
        self._pending_joins.add(node)
        self._schedule_event_at(time, lambda: self._join(node, attachment))

    def schedule_recover(
        self, node: NodeId, time: float, attachment: Any = None
    ) -> None:
        """A crashed ``node`` recovers at ``time``.

        With ``attachment=None`` the node keeps the edges it had when it
        crashed; otherwise the attachment policy decides where the fresh
        incarnation re-attaches (the rejoin-via-repair-plan and locality
        policies of :mod:`repro.churn.attachment`).
        """
        if node not in self.graph and node not in self._pending_joins:
            raise SimulationError(f"node {node!r} is not in the graph")
        self._schedule_event_at(time, lambda: self._recover(node, attachment))

    def schedule_leave(self, node: NodeId, time: float) -> None:
        """A live ``node`` leaves gracefully at ``time``."""
        if node not in self.graph and node not in self._pending_joins:
            raise SimulationError(f"node {node!r} is not in the graph")
        self._schedule_event_at(time, lambda: self._leave(node))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _now(self) -> float:
        return self._scheduler.now

    now = property(_now, doc="Current simulated time.")

    def start(self) -> None:
        """Deliver the ``init`` event to every process at time 0."""
        if self._started:
            raise SimulationError("start() called twice")
        missing = self.graph.nodes - self._processes.keys()
        if missing:
            raise SimulationError(
                f"{len(missing)} graph nodes have no process installed; "
                "call populate() or add_process() for every node"
            )
        self._started = True
        for node in sorted(self._processes, key=repr):
            context = self._contexts[node]
            self.trace.emit(self.now, EventKind.NODE_STARTED, node=node)
            self._processes[node].on_start(context)

    def run(
        self,
        until: Optional[float] = None,
        max_events: int = DEFAULT_MAX_EVENTS,
    ) -> float:
        """Run the simulation; starts it first if necessary.

        Returns the simulated time at which the run stopped (queue drained,
        ``until`` reached, or ``max_events`` executed).
        """
        if not self._started:
            self.start()
        return self._scheduler.run(until=until, max_events=max_events)

    def is_quiescent(self) -> bool:
        """True when no further event can occur."""
        return self._scheduler.is_idle()

    @property
    def processed_events(self) -> int:
        return self._scheduler.processed_events

    # ------------------------------------------------------------------
    # The seam
    # ------------------------------------------------------------------
    # Every scheduling action funnels through _schedule_event_at / _defer
    # (message deliveries through _schedule_delivery) so that
    # :class:`repro.sim.partition.PartitionSimulator` can stamp each event
    # with a genealogical order key.  ``fanout`` identifies replicated
    # fan-out sites (crash notifications, membership announcements) whose
    # sequential tie order is "sorted by target repr"; the sequential
    # simulator ignores it.
    def _schedule_event_at(
        self, time: float, callback: Callable[[], None], fanout: Any = None
    ) -> None:
        self._scheduler.schedule_at(time, callback)

    def _defer(self, delay: float, callback: Callable[[], None], fanout: Any = None) -> None:
        self._scheduler.schedule(delay, callback)

    #: A guarded item runs its handler inline, inside the firing event.
    _dispatch = Substrate._handle

    def _detector_delay(self, observer: NodeId, subject: NodeId) -> float:
        # Latency, detector jitter and attachment share the one stream.
        return self.failure_detector.delay(observer, subject, self._rng)

    # ------------------------------------------------------------------
    # The message path
    # ------------------------------------------------------------------
    def _send(self, source: NodeId, target: NodeId, message: Any) -> None:
        # Hot path: every local/bound name below is touched once per
        # protocol message, so attribute lookups are hoisted to locals.
        if target not in self.graph:
            # Departed and crashed nodes stay in the graph snapshot, so an
            # id outside it was never part of the system: a caller bug.
            raise SimulationError(f"message addressed to unknown node {target!r}")
        if source in self._crashed or source in self._departed:
            # A crashed (or departed) node cannot send; this only happens
            # if a handler stopped its own node mid-event, which the model
            # forbids.
            return
        scheduler = self._scheduler
        now = scheduler.now
        self.trace.emit(
            now, EventKind.MESSAGE_SENT, node=source, peer=target, payload=message
        )
        delay = self.latency.sample(source, target, self._rng)
        if delay <= 0:
            raise SimulationError("latency model produced a non-positive delay")
        channel = (source, target)
        channel_clock = self._channel_clock
        earliest = channel_clock.get(channel, 0.0) + _FIFO_EPSILON
        delivery_time = now + delay
        if delivery_time < earliest:
            delivery_time = earliest
        channel_clock[channel] = delivery_time
        target_incarnation = self._incarnation.get(target, 0)
        if self.faults is None:
            self._schedule_delivery(
                delivery_time, source, target, message, target_incarnation
            )
            return
        # Fault layer: the base delivery above (latency sample, FIFO clamp,
        # channel-clock advance) is computed identically with faults on or
        # off, so the fault-free path stays byte-stable and a dropped
        # message still consumes its FIFO slot.
        offsets = self._fault_offsets(source, target, message, now)
        if len(offsets) > 1:
            self._record_duplication(source, target, message, now, len(offsets))
        for offset in offsets:
            self._schedule_delivery(
                delivery_time + offset, source, target, message, target_incarnation
            )

    def _schedule_delivery(
        self,
        delivery_time: float,
        source: NodeId,
        target: NodeId,
        message: Any,
        target_incarnation: int,
    ) -> None:
        """Schedule one delivered copy (partition subclass keys/envelopes it)."""
        self._scheduler.schedule_at(
            delivery_time,
            lambda: self._deliver(source, target, message, target_incarnation),
        )

    def _deliver(
        self,
        source: NodeId,
        target: NodeId,
        message: Any,
        target_incarnation: int = 0,
    ) -> None:
        emit = self.trace.emit
        now = self._scheduler.now
        if (
            target in self._crashed
            or target in self._departed
            or target not in self.graph
            or self._incarnation.get(target, 0) != target_incarnation
        ):
            # Crashed, departed, or addressed to a previous incarnation of
            # a node that has since recovered/rejoined: never delivered.
            emit(
                now,
                EventKind.MESSAGE_DROPPED,
                node=target,
                peer=source,
                payload=message,
            )
            return
        emit(
            now,
            EventKind.MESSAGE_DELIVERED,
            node=target,
            peer=source,
            payload=message,
        )
        self._processes[target].on_message(self._contexts[target], source, message)
