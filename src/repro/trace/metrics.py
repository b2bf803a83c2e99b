"""Run metrics derived from traces.

The locality claims of the paper (CD3 and the "local complexity" headline)
are about *costs*: how many messages are exchanged, how many bytes, how
many nodes ever speak, how long until decisions land.  This module turns a
:class:`~repro.trace.recorder.TraceRecorder` into those numbers, which the
experiments print and ``repro report`` tabulates.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

from ..graph import NodeId
from ..sim.events import EventKind, TraceEvent, payload_size
from .columns import EventColumns
from .recorder import TraceRecorder


@dataclass(frozen=True)
class RunMetrics:
    """Aggregate cost and outcome metrics of a single run."""

    #: Total point-to-point messages handed to the network.
    messages_sent: int
    #: Total messages delivered (sent minus drops to crashed nodes).
    messages_delivered: int
    #: Estimated bytes across all sent messages.
    bytes_sent: int
    #: Nodes that sent at least one message.
    speaking_nodes: int
    #: Nodes that received at least one crash notification.
    notified_nodes: int
    #: Number of DECIDED events.
    decisions: int
    #: Number of distinct deciding nodes.
    deciding_nodes: int
    #: Number of distinct decided views.
    decided_views: int
    #: Number of VIEW_PROPOSED events.
    proposals: int
    #: Number of VIEW_REJECTED events.
    rejections: int
    #: Number of failed consensus attempts (INSTANCE_FAILED events).
    failed_instances: int
    #: Simulated time of the first decision (None when nobody decided).
    first_decision_time: Optional[float]
    #: Simulated time of the last decision (None when nobody decided).
    last_decision_time: Optional[float]
    #: Simulated time of the last event of the run.
    end_time: float
    #: Messages sent per node (only nodes that sent anything).
    per_node_messages: dict[NodeId, int] = field(default_factory=dict)

    @property
    def max_messages_per_node(self) -> int:
        """The busiest node's message count (0 when nobody spoke)."""
        return max(self.per_node_messages.values(), default=0)

    def as_row(self) -> dict[str, object]:
        """Flat dictionary used by the experiment table printers."""
        return {
            "messages_sent": self.messages_sent,
            "messages_delivered": self.messages_delivered,
            "bytes_sent": self.bytes_sent,
            "speaking_nodes": self.speaking_nodes,
            "notified_nodes": self.notified_nodes,
            "decisions": self.decisions,
            "deciding_nodes": self.deciding_nodes,
            "decided_views": self.decided_views,
            "proposals": self.proposals,
            "rejections": self.rejections,
            "failed_instances": self.failed_instances,
            "first_decision_time": self.first_decision_time,
            "last_decision_time": self.last_decision_time,
            "end_time": self.end_time,
            "max_messages_per_node": self.max_messages_per_node,
        }


#: The kinds whose rows :meth:`StreamingRunMetrics._observe` reads field by
#: field; MESSAGE_DELIVERED is only counted, no other kind is looked at.
_FOLDED_KINDS = (
    EventKind.MESSAGE_SENT,
    EventKind.DECIDED,
    EventKind.VIEW_PROPOSED,
    EventKind.VIEW_REJECTED,
    EventKind.INSTANCE_FAILED,
    EventKind.CRASH_NOTIFIED,
)


@dataclass
class StreamingRunMetrics:
    """Mutable single-pass accumulator producing a :class:`RunMetrics`.

    Digest-only runs (``collection="digest"``) keep no event log, so the
    recorder folds metrics as events fire instead; partition workers ship
    this accumulator (a few counters and small sets) across the process
    boundary and the coordinator :meth:`merge`\\ s the per-shard halves.
    For any event stream, observing every event then :meth:`finalize`
    equals :func:`collect_metrics` over the full trace — the trace-
    equivalence property suite pins this.
    """

    messages_sent: int = 0
    messages_delivered: int = 0
    bytes_sent: int = 0
    proposals: int = 0
    rejections: int = 0
    failed_instances: int = 0
    decisions: int = 0
    first_decision_time: Optional[float] = None
    last_decision_time: Optional[float] = None
    end_time: float = 0.0
    per_node_messages: Counter = field(default_factory=Counter)
    notified_nodes: set = field(default_factory=set)
    deciding_nodes: set = field(default_factory=set)
    decided_views: set = field(default_factory=set)

    def observe(self, event: TraceEvent) -> None:
        """Fold one event (events must arrive in trace order)."""
        self._observe(event.time, event.kind, event.node, event.payload)

    def observe_columns(self, columns: EventColumns) -> None:
        """Fold a whole columnar trace (equal to :meth:`observe` for each
        event, without building any).  It filters on the raw kinds column
        first: deliveries are one count, the kinds that only move
        ``end_time`` are never visited, and the fold reads the rest row by
        row."""
        times, kinds, nodes, _, payloads, _, ids = columns.arrays()
        for kind in _FOLDED_KINDS:
            for index in columns.rows_of(kind):
                node = nodes[index]
                self._observe(
                    times[index], kind, ids[node] if node >= 0 else None, payloads[index]
                )
        self.messages_delivered += kinds.count(EventKind.MESSAGE_DELIVERED.code)
        if times:
            self.end_time = times[-1]

    def _observe(self, time: float, kind: EventKind, node: Optional[NodeId], payload) -> None:
        self.end_time = time
        if kind is EventKind.MESSAGE_SENT:
            self.messages_sent += 1
            self.bytes_sent += payload_size(payload)
            if node is not None:
                self.per_node_messages[node] += 1
        elif kind is EventKind.MESSAGE_DELIVERED:
            self.messages_delivered += 1
        elif kind is EventKind.DECIDED:
            self.decisions += 1
            self.deciding_nodes.add(node)
            self.decided_views.add(payload)
            if self.first_decision_time is None or time < self.first_decision_time:
                self.first_decision_time = time
            if self.last_decision_time is None or time > self.last_decision_time:
                self.last_decision_time = time
        elif kind is EventKind.VIEW_PROPOSED:
            self.proposals += 1
        elif kind is EventKind.VIEW_REJECTED:
            self.rejections += 1
        elif kind is EventKind.INSTANCE_FAILED:
            self.failed_instances += 1
        elif kind is EventKind.CRASH_NOTIFIED:
            self.notified_nodes.add(node)

    def merge(self, other: "StreamingRunMetrics") -> None:
        """Fold another shard's accumulator into this one (in place)."""
        self.messages_sent += other.messages_sent
        self.messages_delivered += other.messages_delivered
        self.bytes_sent += other.bytes_sent
        self.proposals += other.proposals
        self.rejections += other.rejections
        self.failed_instances += other.failed_instances
        self.decisions += other.decisions
        times = [
            t for t in (self.first_decision_time, other.first_decision_time)
            if t is not None
        ]
        self.first_decision_time = min(times) if times else None
        times = [
            t for t in (self.last_decision_time, other.last_decision_time)
            if t is not None
        ]
        self.last_decision_time = max(times) if times else None
        self.end_time = max(self.end_time, other.end_time)
        self.per_node_messages.update(other.per_node_messages)
        self.notified_nodes |= other.notified_nodes
        self.deciding_nodes |= other.deciding_nodes
        self.decided_views |= other.decided_views

    def finalize(self) -> RunMetrics:
        """The immutable :class:`RunMetrics` of everything observed."""
        return RunMetrics(
            messages_sent=self.messages_sent,
            messages_delivered=self.messages_delivered,
            bytes_sent=self.bytes_sent,
            speaking_nodes=len(self.per_node_messages),
            notified_nodes=len(self.notified_nodes),
            decisions=self.decisions,
            deciding_nodes=len(self.deciding_nodes),
            decided_views=len(self.decided_views),
            proposals=self.proposals,
            rejections=self.rejections,
            failed_instances=self.failed_instances,
            first_decision_time=self.first_decision_time,
            last_decision_time=self.last_decision_time,
            end_time=self.end_time,
            per_node_messages=dict(self.per_node_messages),
        )


def collect_metrics(trace: TraceRecorder) -> RunMetrics:
    """Compute :class:`RunMetrics` from a finished trace.

    One :class:`StreamingRunMetrics` fold either way: digest-only
    recorders fed it as events fired, full traces feed it their columns in
    one pass (the trace-equivalence property suite pins that they agree).
    """
    return trace.streamed_metrics()


def communicating_nodes(trace: TraceRecorder) -> frozenset[NodeId]:
    """All nodes that sent or received a protocol message.

    The locality property CD3 bounds exactly this set: it must stay inside
    the union of faulty domains and their borders.
    """
    nodes: set[NodeId] = set()
    for event in trace.of_kind(EventKind.MESSAGE_SENT, EventKind.MESSAGE_DELIVERED):
        if event.node is not None:
            nodes.add(event.node)
        if event.peer is not None:
            nodes.add(event.peer)
    return frozenset(nodes)


def message_pairs(trace: TraceRecorder) -> frozenset[tuple[NodeId, NodeId]]:
    """All (sender, receiver) pairs that exchanged at least one message."""
    pairs: set[tuple[NodeId, NodeId]] = set()
    for event in trace.of_kind(EventKind.MESSAGE_SENT):
        if event.node is not None and event.peer is not None:
            pairs.add((event.node, event.peer))
    return frozenset(pairs)
