"""Struct-of-arrays storage for trace events.

A full object trace holds one :class:`~repro.sim.events.TraceEvent`
dataclass per event — six attribute slots, a detail dict, and a payload
reference each.  At partition-worker scale that representation is the
dominant cost of a run: every worker pickles tens of thousands of event
objects back to the coordinator, and the parent holds them all live.

:class:`EventColumns` stores the same information column-wise instead:

* ``times`` — one ``array('d')`` of timestamps (8 bytes/event);
* ``kinds`` — one ``array('B')`` of :class:`~repro.sim.events.EventKind`
  codes in enum *definition* order (stable across processes, unlike
  anything hash-derived);
* ``nodes`` / ``peers`` — ``array('i')`` indices into an interned id
  table (``-1`` encodes ``None``), so a node id is stored once no matter
  how many events mention it;
* ``payloads`` / ``details`` — plain object lists (payloads are shared
  references; an empty detail dict is stored as ``None``).

Pickling is then one buffer per numeric column plus the two object
lists, and :class:`~repro.trace.recorder.TraceRecorder` reconstructs
:class:`~repro.sim.events.TraceEvent` objects lazily — equal (dataclass
equality) to the originals — only when a caller actually iterates.
"""

from __future__ import annotations

from array import array
from typing import Any, Iterable, Iterator, Optional

from ..sim.events import EventKind, TraceEvent

#: Kind codes are positions in enum definition order — deterministic and
#: identical in every interpreter, which pickled columns rely on.
_KINDS: tuple[EventKind, ...] = tuple(EventKind)
_KIND_INDEX: dict[EventKind, int] = {kind: index for index, kind in enumerate(_KINDS)}


class EventColumns:
    """Columnar (struct-of-arrays) backing store for a trace."""

    __slots__ = (
        "_times",
        "_kinds",
        "_nodes",
        "_peers",
        "_payloads",
        "_details",
        "_ids",
        "_id_index",
    )

    def __init__(self) -> None:
        self._times = array("d")
        self._kinds = array("B")
        self._nodes = array("i")
        self._peers = array("i")
        self._payloads: list[Any] = []
        self._details: list[Optional[dict]] = []
        #: Interned node-id objects; ``_id_index`` maps id -> position and
        #: is rebuilt (not shipped) on unpickle.
        self._ids: list[Any] = []
        self._id_index: dict[Any, int] = {}

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    def _intern(self, identity: Any) -> int:
        if identity is None:
            return -1
        index = self._id_index.get(identity)
        if index is None:
            index = len(self._ids)
            self._ids.append(identity)
            self._id_index[identity] = index
        return index

    def append(self, event: TraceEvent) -> None:
        """Append one event's fields (the event object is not retained)."""
        self._times.append(event.time)
        self._kinds.append(_KIND_INDEX[event.kind])
        self._nodes.append(self._intern(event.node))
        self._peers.append(self._intern(event.peer))
        self._payloads.append(event.payload)
        self._details.append(event.detail if event.detail else None)

    def append_row_from(self, other: "EventColumns", index: int) -> None:
        """Copy row ``index`` of ``other`` without building an event.

        This is the k-way merge hot path: kind codes copy verbatim (the
        code table is a module constant), node ids re-intern through the
        destination table, payload/detail move as references.
        """
        self._times.append(other._times[index])
        self._kinds.append(other._kinds[index])
        node = other._nodes[index]
        self._nodes.append(self._intern(other._ids[node]) if node >= 0 else -1)
        peer = other._peers[index]
        self._peers.append(self._intern(other._ids[peer]) if peer >= 0 else -1)
        self._payloads.append(other._payloads[index])
        self._details.append(other._details[index])

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._times)

    def event(self, index: int) -> TraceEvent:
        """Reconstruct row ``index`` as a :class:`TraceEvent`."""
        node = self._nodes[index]
        peer = self._peers[index]
        detail = self._details[index]
        return TraceEvent(
            time=self._times[index],
            kind=_KINDS[self._kinds[index]],
            node=self._ids[node] if node >= 0 else None,
            peer=self._ids[peer] if peer >= 0 else None,
            payload=self._payloads[index],
            detail=detail if detail is not None else {},
        )

    def __iter__(self) -> Iterator[TraceEvent]:
        for index in range(len(self._times)):
            yield self.event(index)

    def events_of_kinds(self, kinds: Iterable[EventKind]) -> list[TraceEvent]:
        """Rows whose kind is in ``kinds`` — filters on the raw kind
        column, so non-matching rows are never reconstructed."""
        wanted = {_KIND_INDEX[kind] for kind in kinds}
        return [
            self.event(index)
            for index, code in enumerate(self._kinds)
            if code in wanted
        ]

    def events_at_node(self, node: Any) -> list[TraceEvent]:
        """Rows attributed to ``node`` (one interned-id comparison each)."""
        wanted = self._id_index.get(node)
        if wanted is None:
            return []
        return [
            self.event(index)
            for index, code in enumerate(self._nodes)
            if code == wanted
        ]

    def first_of(self, kind: EventKind) -> Optional[TraceEvent]:
        wanted = _KIND_INDEX[kind]
        for index, code in enumerate(self._kinds):
            if code == wanted:
                return self.event(index)
        return None

    def last_of(self, kind: EventKind) -> Optional[TraceEvent]:
        wanted = _KIND_INDEX[kind]
        for index in range(len(self._kinds) - 1, -1, -1):
            if self._kinds[index] == wanted:
                return self.event(index)
        return None

    def end_time(self) -> float:
        return self._times[-1] if self._times else 0.0

    # ------------------------------------------------------------------
    # The raw columns — for read-only one-pass folds (digest, metrics) and,
    # as the pickled state, one buffer each; the id index is derived state.
    # ------------------------------------------------------------------
    def arrays(self) -> tuple:
        """``(times, kind codes, node indices, peer indices, payloads,
        details, ids)`` in the encodings of the module docstring."""
        return (
            self._times,
            self._kinds,
            self._nodes,
            self._peers,
            self._payloads,
            self._details,
            self._ids,
        )

    __getstate__ = arrays

    def __setstate__(self, state) -> None:
        (
            self._times,
            self._kinds,
            self._nodes,
            self._peers,
            self._payloads,
            self._details,
            self._ids,
        ) = state
        self._id_index = {identity: index for index, identity in enumerate(self._ids)}
