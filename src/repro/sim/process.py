"""Transport-agnostic process model.

The paper specifies the protocol in a mono-threaded event-based model
(§2.3): a node reacts to ``init``, ``crash`` and message-delivery events,
and triggers ``multicast`` / ``monitorCrash`` / ``decide`` events of its
own.  We mirror that model with two small abstractions:

* :class:`Process` — the behaviour of a node: three event handlers.
* :class:`ProcessContext` — the services a runtime offers a process while
  it handles an event (send, multicast, subscribe to crashes, read the
  clock, record protocol-level trace events).

The same :class:`Process` subclass (e.g.
:class:`repro.core.protocol.CliffEdgeNode`) runs unchanged on the
deterministic simulator (:mod:`repro.sim.network`) and on the asyncio
runtime (:mod:`repro.runtime`); both are adapters over the one kernel in
:mod:`repro.sim.substrate`, whose ``SubstrateContext`` is the only
:class:`ProcessContext` implementation.
"""

from __future__ import annotations

import abc
from collections.abc import Iterable
from dataclasses import dataclass
from typing import Any, Protocol, runtime_checkable

from ..graph import KnowledgeGraph, NodeId
from .events import EventKind


@dataclass(frozen=True)
class MembershipChange:
    """A membership event as announced to a live process.

    The substrate kernel (:mod:`repro.sim.substrate`) delivers one of
    these through :meth:`Process.on_membership` whenever a node the
    process is connected to joins, recovers or leaves.  The
    announcement plays the role of the underlying membership service the
    paper's topology-service assumption implies; like crash notifications
    it arrives after a detector-dependent delay.
    """

    #: One of ``"join"``, ``"recover"``, ``"leave"``.
    kind: str
    #: The node that joined / recovered / left.
    node: NodeId
    #: The node's neighbours in the *new* membership epoch (empty for leave).
    neighbours: frozenset[NodeId] = frozenset()
    #: The node's incarnation number in the new epoch (0 = initial life).
    #: Protocol-level epoch fencing (``CliffEdgeNode``'s instance
    #: generations) uses it to tell state involving the node's *previous*
    #: life from state the fresh incarnation itself created.
    incarnation: int = 0

    @property
    def alive(self) -> bool:
        """True when the change (re)introduces a live node."""
        return self.kind in ("join", "recover")


@runtime_checkable
class ProcessContext(Protocol):
    """Runtime services available to a process while handling an event."""

    node_id: NodeId
    graph: KnowledgeGraph

    def now(self) -> float:
        """Current (simulated or wall-clock) time."""
        ...

    def send(self, target: NodeId, message: Any) -> None:
        """Send a point-to-point message over a reliable FIFO channel."""
        ...

    def multicast(self, targets: Iterable[NodeId], message: Any) -> None:
        """Best-effort multicast: a plain loop of point-to-point sends."""
        ...

    def monitor_crash(self, targets: Iterable[NodeId]) -> None:
        """Subscribe to crash notifications for ``targets`` (the paper's
        ``monitorCrash`` event)."""
        ...

    def set_timer(self, delay: float, tag: Any = None) -> None:
        """Ask the runtime to call ``on_timer(ctx, tag)`` after ``delay``.

        The cliff-edge protocol itself never needs timers (it is purely
        event driven); they exist for baselines and applications built on
        the same substrate (e.g. the global-consensus baseline collects
        crash reports for a fixed window before starting).
        """
        ...

    def record(
        self,
        kind: EventKind,
        payload: Any = None,
        peer: NodeId | None = None,
        **detail: Any,
    ) -> None:
        """Record a protocol-level trace event attributed to this node."""
        ...


class Process(abc.ABC):
    """Behaviour of one node, written against :class:`ProcessContext`.

    Handlers must be deterministic functions of the process state and the
    event; all nondeterminism (scheduling, latencies, crash timing) lives
    in the runtime, which keeps simulator runs reproducible.
    """

    @abc.abstractmethod
    def on_start(self, ctx: ProcessContext) -> None:
        """Handle the ``init`` event (protocol start-up)."""

    @abc.abstractmethod
    def on_crash(self, ctx: ProcessContext, crashed: NodeId) -> None:
        """Handle a ``crash | q`` notification from the failure detector."""

    @abc.abstractmethod
    def on_message(self, ctx: ProcessContext, sender: NodeId, message: Any) -> None:
        """Handle delivery of a point-to-point message."""

    def on_timer(self, ctx: ProcessContext, tag: Any) -> None:
        """Handle a timer set earlier with ``ctx.set_timer`` (default no-op)."""

    def on_membership(self, ctx: ProcessContext, change: MembershipChange) -> None:
        """Handle a membership announcement (default no-op).

        Only runs under churn workloads (:mod:`repro.churn`); processes
        written against the static crash-only model never see one.
        """

    def on_stop(self, ctx: ProcessContext) -> None:
        """Optional hook invoked when the runtime shuts the process down."""


class IdleProcess(Process):
    """A process that does nothing — useful as filler in large topologies.

    Nodes far away from any crashed region never participate in the
    protocol (that is the point of CD3); runs over big graphs can
    instantiate the protocol only on nodes that could possibly border a
    crashed region and use :class:`IdleProcess` elsewhere, or simply use
    the protocol everywhere and rely on it staying silent.
    """

    def __init__(self, node_id: NodeId | None = None) -> None:
        # The node id is accepted (and ignored) so the class can be passed
        # directly as a ``populate()`` factory.
        self.node_id = node_id

    def on_start(self, ctx: ProcessContext) -> None:  # pragma: no cover - trivial
        return None

    def on_crash(self, ctx: ProcessContext, crashed: NodeId) -> None:
        return None

    def on_message(self, ctx: ProcessContext, sender: NodeId, message: Any) -> None:
        return None
