"""Event records shared by the simulator and the trace machinery.

Every observable action of a run — a message being sent or delivered, a
node crashing, a failure-detector notification, a proposal, a rejection, a
decision — is recorded as a :class:`TraceEvent`.  The offline property
checkers (:mod:`repro.core.properties`) and the experiment metrics
(:mod:`repro.trace.metrics`) work exclusively on these records, so they are
independent of which runtime (simulator or asyncio) produced them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Optional

from ..graph import NodeId


class EventKind(enum.Enum):
    """The kinds of events a run can produce."""

    def __init__(self, _value: str) -> None:
        #: Position in definition order — the columnar trace's kind code
        #: (see repro.trace.columns).  A plain attribute, so the per-event
        #: paths read it without going through ``Enum.__hash__``.
        self.code = len(type(self).__members__)

    #: A node started executing the protocol (the paper's ``init`` event).
    NODE_STARTED = "node_started"
    #: A node crashed (fault injection).
    NODE_CRASHED = "node_crashed"
    #: A previously crashed node recovered and rejoined (churn).
    NODE_RECOVERED = "node_recovered"
    #: A brand-new node joined the system (churn).
    NODE_JOINED = "node_joined"
    #: A node left the system gracefully (churn).
    NODE_LEFT = "node_left"
    #: The membership service notified a subscriber of a join/recover/leave.
    MEMBERSHIP_NOTIFIED = "membership_notified"
    #: A failure detector notified a subscriber of a crash.
    CRASH_NOTIFIED = "crash_notified"
    #: A node subscribed to crash notifications for a set of targets.
    CRASH_MONITORED = "crash_monitored"
    #: A point-to-point message was handed to the network.
    MESSAGE_SENT = "message_sent"
    #: A point-to-point message was delivered to its destination.
    MESSAGE_DELIVERED = "message_delivered"
    #: A message was dropped (destination crashed before delivery).
    MESSAGE_DROPPED = "message_dropped"
    #: A node proposed a view (started a consensus instance).
    VIEW_PROPOSED = "view_proposed"
    #: A node rejected a lower-ranked view.
    VIEW_REJECTED = "view_rejected"
    #: A node completed a round of a consensus instance.
    ROUND_COMPLETED = "round_completed"
    #: A consensus attempt failed and the node reset (line 37).
    INSTANCE_FAILED = "instance_failed"
    #: A node decided on a view (the ``decide`` output event).
    DECIDED = "decided"
    #: Free-form application or baseline event.
    CUSTOM = "custom"
    # New kinds are appended after CUSTOM: columnar trace storage encodes
    # kinds by enum-definition position (see repro.trace.columns), so
    # inserting one mid-list would silently re-code every pickled trace.
    #: An injected link fault dropped a message (repro.sim.faults).
    MESSAGE_LOST = "message_lost"
    #: An injected link fault delivered extra copies of a message.
    MESSAGE_DUPLICATED = "message_duplicated"


@dataclass(frozen=True)
class TraceEvent:
    """One timestamped event of a run.

    Attributes
    ----------
    time:
        Simulated time (or wall-clock offset for the asyncio runtime).
    kind:
        The :class:`EventKind`.
    node:
        The node at which the event happened (``None`` for global events).
    peer:
        The other endpoint for message / notification events.
    payload:
        Event-specific data: the message for send/deliver, the view for
        proposals and decisions, the decision value for DECIDED, …
    detail:
        Optional free-form metadata (round numbers, byte sizes, labels).
    """

    time: float
    kind: EventKind
    node: Optional[NodeId] = None
    peer: Optional[NodeId] = None
    payload: Any = None
    detail: dict[str, Any] = field(default_factory=dict)

    def describe(self) -> str:
        """A one-line human-readable description (used by example scripts)."""
        parts = [f"t={self.time:.3f}", self.kind.value]
        if self.node is not None:
            parts.append(f"node={self.node!r}")
        if self.peer is not None:
            parts.append(f"peer={self.peer!r}")
        if self.payload is not None:
            parts.append(f"payload={self.payload!r}")
        if self.detail:
            parts.append(f"detail={self.detail!r}")
        return " ".join(parts)


@dataclass(frozen=True)
class PartitionEnvelope:
    """A partition-crossing message of the partitioned simulator backend.

    When a node owned by one partition sends to a node owned by another,
    the sending partition computes the delivery exactly as the sequential
    simulator would — same latency sample, same per-channel FIFO clamp,
    same capture of the target's incarnation at send time — and wraps the
    result in one of these instead of scheduling it locally.  Envelopes
    are exchanged at the deterministic epoch barriers of
    :mod:`repro.sim.partition` and injected into the destination
    partition's keyed scheduler, where ``key`` (the genealogical order key
    minted at the send site) slots the delivery into exactly the position
    the sequential run's insertion order would have given it.

    Envelopes must pickle: under the process backend they cross a real
    process boundary.  Payloads are the protocol's own (frozen, value
    semantic) message dataclasses, so a pickle round-trip preserves both
    behaviour and the canonical trace encoding.
    """

    #: Absolute simulated delivery time (computed by the *sender*).
    delivery_time: float
    #: Genealogical order key of the delivery event (see partition.py).
    key: tuple
    #: Sending node (owned by the emitting partition).
    source: NodeId
    #: Destination node (owned by the receiving partition).
    target: NodeId
    #: The message object itself.
    payload: Any
    #: The target's incarnation as known at send time; the destination
    #: drops the delivery if the target has since re-incarnated, exactly
    #: like the sequential simulator's in-flight-message guard.
    target_incarnation: int = 0


def payload_size(payload: Any) -> int:
    """A deterministic byte-size estimate of a message payload.

    The simulator does not serialise messages; for bandwidth metrics we
    charge the length of a canonical ``repr``.  This is crude but stable,
    monotone in the amount of information carried (opinion vectors grow
    with the border size), and identical across runtimes, which is all the
    locality experiments need.
    """
    if payload is None:
        return 0
    sizer = getattr(payload, "wire_size", None)
    if callable(sizer):
        return int(sizer())
    return len(repr(payload))
