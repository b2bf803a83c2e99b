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
from collections.abc import Sequence
from itertools import chain
from typing import Any, Iterator, Optional

from ..sim.events import EventKind, TraceEvent

#: Kind codes are positions in enum definition order — deterministic and
#: identical in every interpreter, which pickled columns rely on.  A kind
#: carries its own code (``EventKind.code``); this is the way back.
_KINDS: tuple[EventKind, ...] = tuple(EventKind)


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
        "_rows",
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
        #: kind code -> [rows scanned so far, indices of that kind among
        #: them]: the index behind :meth:`rows_of` (derived, not shipped).
        self._rows: dict[int, list] = {}

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    def _intern(self, identity: Any) -> int:
        index = len(self._ids)
        self._ids.append(identity)
        self._id_index[identity] = index
        return index

    def append_row(
        self,
        time: float,
        kind: EventKind,
        node: Any,
        peer: Any,
        payload: Any,
        detail: Optional[dict],
    ) -> None:
        """Append one event as its fields — the write path of every
        recorder; no :class:`TraceEvent` is involved.  ``detail`` may be
        ``None`` or empty (stored as ``None`` either way)."""
        id_index = self._id_index
        if node is None:
            node_index = -1
        else:
            node_index = id_index.get(node)
            if node_index is None:
                node_index = self._intern(node)
        if peer is None:
            peer_index = -1
        else:
            peer_index = id_index.get(peer)
            if peer_index is None:
                peer_index = self._intern(peer)
        self._times.append(time)
        self._kinds.append(kind.code)
        self._nodes.append(node_index)
        self._peers.append(peer_index)
        self._payloads.append(payload)
        self._details.append(detail or None)

    def append_row_from(self, other: "EventColumns", index: int) -> None:
        """Copy row ``index`` of ``other`` without building an event.

        This is the k-way merge hot path: node ids re-intern through the
        destination table, payload/detail move as references.
        """
        ids = other._ids
        node, peer = other._nodes[index], other._peers[index]
        self.append_row(
            other._times[index],
            _KINDS[other._kinds[index]],
            ids[node] if node >= 0 else None,
            ids[peer] if peer >= 0 else None,
            other._payloads[index],
            other._details[index],
        )

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._times)

    def rows_of(self, *kinds: EventKind) -> Sequence[int]:
        """Indices of the rows whose kind is one of ``kinds``, in trace
        order (read-only).

        Every reader that wants some kinds starts here and then reads the
        raw columns (:meth:`arrays`) or materialises the rows it reports on
        (:meth:`event`).  The per-kind index behind it grows lazily by
        ``array.index`` scans of the raw kinds column, so a sparse kind —
        decisions, crashes, membership changes — costs its own number of
        rows, not the trace's, and asking again costs nothing.
        """
        codes = self._kinds
        end = len(codes)
        found = []
        for kind in kinds:
            code = kind.code
            entry = self._rows.get(code)
            if entry is None:
                entry = self._rows[code] = [0, array("I")]
            start, rows = entry
            if start < end:
                try:
                    while True:
                        start = codes.index(code, start) + 1
                        rows.append(start - 1)
                except ValueError:
                    entry[0] = end
            found.append(rows)
        if len(found) == 1:
            return found[0]
        return sorted(chain.from_iterable(found))

    def event(self, index: int) -> TraceEvent:
        """Reconstruct row ``index`` as a :class:`TraceEvent`."""
        node = self._nodes[index]
        peer = self._peers[index]
        detail = self._details[index]
        return TraceEvent(
            self._times[index],
            _KINDS[self._kinds[index]],
            self._ids[node] if node >= 0 else None,
            self._ids[peer] if peer >= 0 else None,
            self._payloads[index],
            detail if detail is not None else {},
        )

    def __iter__(self) -> Iterator[TraceEvent]:
        for index in range(len(self._times)):
            yield self.event(index)

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
        self._rows = {}
