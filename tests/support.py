"""Test support utilities shared across unit, integration and property tests."""

from __future__ import annotations

import dataclasses
import enum
import hashlib
from collections.abc import Mapping, Set
from typing import Any

from repro.graph import KnowledgeGraph, NodeId
from repro.sim.events import EventKind, TraceEvent


class FakeContext:
    """A hand-driven :class:`~repro.sim.process.ProcessContext`.

    Used by the protocol unit tests to feed events to a single
    :class:`~repro.core.protocol.CliffEdgeNode` and observe exactly what it
    sends, monitors and records — without any simulator in the loop.
    """

    def __init__(self, graph: KnowledgeGraph, node_id: NodeId, time: float = 0.0) -> None:
        self.graph = graph
        self.node_id = node_id
        self.time = time
        #: every point-to-point send as (target, message)
        self.sent: list[tuple[NodeId, Any]] = []
        #: every multicast as (tuple-of-targets, message)
        self.multicasts: list[tuple[tuple[NodeId, ...], Any]] = []
        #: union of all monitored nodes
        self.monitored: set[NodeId] = set()
        #: (delay, tag) pairs of requested timers
        self.timers: list[tuple[float, Any]] = []
        #: protocol-level trace events recorded by the process
        self.records: list[TraceEvent] = []

    # -- ProcessContext API -------------------------------------------------
    def now(self) -> float:
        return self.time

    def send(self, target: NodeId, message: Any) -> None:
        self.sent.append((target, message))

    def multicast(self, targets, message: Any) -> None:
        target_tuple = tuple(targets)
        self.multicasts.append((target_tuple, message))
        for target in target_tuple:
            self.sent.append((target, message))

    def monitor_crash(self, targets) -> None:
        self.monitored.update(targets)

    def set_timer(self, delay: float, tag: Any = None) -> None:
        self.timers.append((delay, tag))

    def record(self, kind: EventKind, payload=None, peer=None, **detail) -> None:
        self.records.append(
            TraceEvent(
                time=self.time,
                kind=kind,
                node=self.node_id,
                peer=peer,
                payload=payload,
                detail=detail,
            )
        )

    # -- helpers -------------------------------------------------------------
    def recorded_kinds(self) -> list[EventKind]:
        return [event.kind for event in self.records]

    def last_multicast(self) -> tuple[tuple[NodeId, ...], Any]:
        if not self.multicasts:
            raise AssertionError("no multicast was issued")
        return self.multicasts[-1]

    def clear(self) -> None:
        self.sent.clear()
        self.multicasts.clear()
        self.records.clear()


def deliver_own_multicast(node, ctx: FakeContext, index: int = -1) -> None:
    """Deliver a node's own multicast back to itself (self-delivery).

    The protocol relies on the best-effort multicast looping back to the
    sender; in simulator runs the network does it, in these unit tests the
    helper does.
    """
    targets, message = ctx.multicasts[index]
    if ctx.node_id in targets:
        node.on_message(ctx, ctx.node_id, message)


def record_all(events, collection: str = "trace"):
    """A :class:`TraceRecorder` of ``collection`` that recorded ``events``."""
    from repro.trace import TraceRecorder

    recorder = TraceRecorder(collection=collection)
    for event in events:
        recorder.record(event)
    return recorder


def reference_canonical_text(value: Any) -> str:
    """The ``isinstance``-chain definition of ``canonical_text``.

    Kept verbatim as the memo-free, dispatch-free reference that
    :func:`repro.trace.digest.canonical_text` (exact-type dispatch) and the
    digest renderer (identity memos) must reproduce byte for byte.
    """
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        return repr(value)
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = ", ".join(
            f"{field.name}={reference_canonical_text(getattr(value, field.name))}"
            for field in dataclasses.fields(value)
        )
        return f"{type(value).__name__}({fields})"
    if isinstance(value, Mapping):
        items = sorted(
            (reference_canonical_text(key), reference_canonical_text(item))
            for key, item in value.items()
        )
        inner = ", ".join(f"{key}: {item}" for key, item in items)
        return f"{{{inner}}}"
    if isinstance(value, (Set, frozenset, set)):
        inner = ", ".join(sorted(reference_canonical_text(item) for item in value))
        return f"{{{inner}}}"
    if isinstance(value, (tuple, list)):
        inner = ", ".join(reference_canonical_text(item) for item in value)
        return f"({inner})"
    return repr(value)


def reference_trace_digest(events, kinds=None) -> str:
    """The node-composed trace digest straight from its definition
    (``repro.trace.digest`` module docstring), on the reference renderer."""
    hashers: dict[Any, Any] = {}
    for event in events:
        if kinds is not None and event.kind not in kinds:
            continue
        hasher = hashers.setdefault(event.node, hashlib.sha256())
        hasher.update(reference_canonical_text(event).encode("utf-8") + b"\n")
    total = 0
    for node, hasher in hashers.items():
        key = reference_canonical_text(node).encode("utf-8")
        leaf = hashlib.sha256(b"node\x1f" + key + b"\x1f" + hasher.digest()).digest()
        total = (total + int.from_bytes(leaf, "big")) % (1 << 256)
    return format(total, "064x")
