"""Trace recording.

A :class:`TraceRecorder` accumulates the :class:`~repro.sim.events.TraceEvent`
records produced by a run.  Both runtimes (the discrete-event simulator and
the asyncio runtime) write into the same structure, so property checkers
and metrics never need to know where a trace came from.

Collection modes
----------------
``collection="trace"`` (the default) keeps the full trace — stored
columnar (:class:`~repro.trace.columns.EventColumns`, one array per
field with interned node ids) behind the unchanged query API; events are
reconstructed lazily on iteration and compare equal to what was
recorded.

``collection="digest"`` keeps **no event log**.  The recorder folds the
canonical digest (:class:`~repro.trace.digest.StreamingTraceDigest`) and
the run metrics (:class:`~repro.trace.metrics.StreamingRunMetrics`)
incrementally as events fire, and retains only the handful of
outcome-bearing events (``DECIDED``, ``NODE_CRASHED``) that result
objects need.  ``digest()``, ``len()``, ``end_time()``, ``decisions()``,
``crashes()`` and kind filters over the retained kinds keep working;
anything that needs the full log raises :class:`TraceUnavailableError`
with a pointer back to ``collection="trace"``.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from typing import TYPE_CHECKING, Any, Optional

from ..graph import NodeId
from ..sim.events import EventKind, TraceEvent
from .columns import EventColumns

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .metrics import RunMetrics, StreamingRunMetrics


class TraceUnavailableError(RuntimeError):
    """A query needed the full event log of a digest-only recorder."""


#: Event kinds a digest-only recorder still retains as objects: the
#: outcome surface (decisions, ground-truth crash set) that result
#: objects expose even when the trace itself is not kept.
DIGEST_RETAINED_KINDS = frozenset({EventKind.DECIDED, EventKind.NODE_CRASHED})
_RETAINED_CODES = frozenset(kind.code for kind in DIGEST_RETAINED_KINDS)


class TraceRecorder:
    """An append-only log of trace events with simple query helpers.

    Events go in as rows — ``(time, kind, node, peer, payload, detail)``,
    straight from :meth:`emit`'s arguments to the recorder's one sink: the
    columnar store (``collection="trace"``), the streamed digest + metrics
    fold (``collection="digest"``), or a partition's keyed log (the
    subclass in :mod:`repro.sim.partition`).  A
    :class:`~repro.sim.events.TraceEvent` is built only for a listener,
    for a retained outcome event of a digest-only recorder, or for a
    caller that asks for events.
    """

    COLLECTIONS = ("trace", "digest")

    def __init__(self, collection: str = "trace") -> None:
        if collection not in self.COLLECTIONS:
            raise ValueError(
                f"unknown collection mode {collection!r}; "
                f"known: {', '.join(self.COLLECTIONS)}"
            )
        self._collection = collection
        self._listeners: list[Callable[[TraceEvent], None]] = []
        self._columns: Optional[EventColumns] = None
        self._digest_stream = None
        self._metrics_stream: Optional["StreamingRunMetrics"] = None
        self._retained: list[TraceEvent] = []
        self._count = 0
        self._end_time = 0.0
        #: Set when this recorder was rebuilt from merged worker state
        #: (the per-node hashers are gone, so recording is closed).
        self._sealed_digest: Optional[str] = None
        self._sealed_partial: Optional[int] = None
        if collection == "trace":
            self._columns = EventColumns()
        else:
            from .digest import StreamingTraceDigest
            from .metrics import StreamingRunMetrics

            self._digest_stream = StreamingTraceDigest()
            self._metrics_stream = StreamingRunMetrics()

    @property
    def collection(self) -> str:
        """The collection mode: ``"trace"`` or ``"digest"``."""
        return self._collection

    @classmethod
    def from_columns(cls, columns: EventColumns) -> "TraceRecorder":
        """A full-trace recorder over an existing columnar store (the
        partitioned backend's merge constructs traces this way)."""
        recorder = cls()
        recorder._columns = columns
        return recorder

    @classmethod
    def from_digest_state(
        cls,
        *,
        partial: int,
        events: int,
        retained: Iterable[TraceEvent],
        metrics: "StreamingRunMetrics",
        end_time: float,
    ) -> "TraceRecorder":
        """A digest-only recorder rebuilt from merged worker state.

        ``partial`` is the combined node-composed digest sum (see
        :func:`~repro.trace.digest.combine_partials`); the recorder is
        sealed — further :meth:`emit` / :meth:`record` calls raise.
        """
        from .digest import hex_of_partial

        recorder = cls(collection="digest")
        recorder._sealed_digest = hex_of_partial(partial)
        recorder._sealed_partial = partial
        recorder._count = events
        recorder._retained = list(retained)
        recorder._metrics_stream = metrics
        recorder._end_time = end_time
        return recorder

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def emit(
        self,
        time: float,
        kind: EventKind,
        node: Optional[NodeId] = None,
        peer: Optional[NodeId] = None,
        payload: Any = None,
        **detail: Any,
    ) -> None:
        """Record one event, given as its fields — the one entry every
        substrate writes through.

        The fields go straight to the recorder's sink as a row: the
        columnar store, or :meth:`_fold_row`.  No event object is built
        unless a listener is registered, and nothing is returned — the
        recorded event is ``trace.events[-1]`` for whoever wants one.
        """
        columns = self._columns
        if columns is not None:
            columns.append_row(time, kind, node, peer, payload, detail)
        else:
            self._fold_row(time, kind, node, peer, payload, detail)
        if self._listeners:
            event = TraceEvent(time, kind, node, peer, payload, detail)
            for listener in self._listeners:
                listener(event)

    def _fold_row(self, time, kind, node, peer, payload, detail) -> None:
        """The sink of a recorder without columns: fold the row into the
        streamed digest and metrics, retain it if it is an outcome.  (A
        partition's recorder overrides this to key and filter first.)"""
        if self._sealed_digest is not None:
            raise TraceUnavailableError(
                "this recorder was rebuilt from merged digest state "
                "and is read-only"
            )
        self._digest_stream.update_row(time, kind, node, peer, payload, detail)
        self._metrics_stream._observe(time, kind, node, payload)
        if kind.code in _RETAINED_CODES:
            self._retained.append(TraceEvent(time, kind, node, peer, payload, detail))
        self._count += 1
        self._end_time = time

    def record(self, event: TraceEvent) -> None:
        """Record an existing event: the row :meth:`emit` would land for
        its fields, and ``event`` itself to the listeners."""
        sink = self._columns.append_row if self._columns is not None else self._fold_row
        sink(event.time, event.kind, event.node, event.peer, event.payload, event.detail)
        for listener in self._listeners:
            listener(event)

    def add_listener(self, listener: Callable[[TraceEvent], None]) -> None:
        """Register a callback invoked on every future event (live metrics)."""
        self._listeners.append(listener)

    # ------------------------------------------------------------------
    # Digest-mode guards and accessors
    # ------------------------------------------------------------------
    def _require_log(self, what: str) -> EventColumns:
        columns = self._columns
        if columns is None:
            raise TraceUnavailableError(
                f"collection='digest' keeps no event log, so {what} is "
                "unavailable; run with collection='trace' to keep the "
                "full trace"
            )
        return columns

    @property
    def columns(self) -> EventColumns:
        """The columnar event log, for readers that work on rows
        (:meth:`EventColumns.rows_of` and the raw arrays); raises
        :class:`TraceUnavailableError` on a digest-only recorder."""
        return self._require_log("the event log")

    def digest_partial(self) -> Optional[int]:
        """The composable mod-2\\ :sup:`256` digest partial, when known.

        Digest-only recorders carry their node-composed partial sum — the
        32-byte state partition workers and the experiment service ship
        instead of a trace (``hex_of_partial(digest_partial())`` equals
        :meth:`digest`).  Full-trace recorders return ``None``: their
        digest is recomputed from the event log on demand and no partial
        is maintained.
        """
        if self._sealed_partial is not None:
            return self._sealed_partial
        if self._digest_stream is not None:
            return self._digest_stream.partial()
        return None

    def streamed_metrics(self) -> "RunMetrics":
        """The metrics of everything recorded so far: the fold kept as
        events fired (digest-only recorders) or one pass over the columns."""
        stream = self._metrics_stream
        if stream is None:
            from .metrics import StreamingRunMetrics

            stream = StreamingRunMetrics()
            stream.observe_columns(self._columns)
        return stream.finalize()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def events(self) -> tuple[TraceEvent, ...]:
        """All events recorded so far, in order."""
        return tuple(self._require_log("the event list"))

    def __len__(self) -> int:
        columns = self._columns
        return len(columns) if columns is not None else self._count

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._require_log("iteration"))

    def of_kind(self, *kinds: EventKind) -> list[TraceEvent]:
        """Events whose kind is one of ``kinds``.

        Digest-only recorders answer this for the retained outcome kinds
        (``DECIDED``, ``NODE_CRASHED``) and raise otherwise.
        """
        columns = self._columns
        if columns is not None:
            return [columns.event(index) for index in columns.rows_of(*kinds)]
        wanted = set(kinds)
        if wanted <= DIGEST_RETAINED_KINDS:
            return [event for event in self._retained if event.kind in wanted]
        missing = ", ".join(sorted(kind.name for kind in wanted - DIGEST_RETAINED_KINDS))
        raise TraceUnavailableError(
            f"collection='digest' retains only "
            f"{', '.join(sorted(k.name for k in DIGEST_RETAINED_KINDS))} events; "
            f"{missing} needs collection='trace'"
        )

    def at_node(self, node: NodeId) -> list[TraceEvent]:
        """Events attributed to ``node``."""
        return self._require_log("per-node filtering").events_at_node(node)

    def decisions(self) -> list[TraceEvent]:
        """All DECIDED events (available in every collection mode)."""
        return self.of_kind(EventKind.DECIDED)

    def crashes(self) -> list[TraceEvent]:
        """All NODE_CRASHED events (available in every collection mode)."""
        return self.of_kind(EventKind.NODE_CRASHED)

    def crashed_nodes(self) -> frozenset[NodeId]:
        """The set of nodes that crashed during the run."""
        return frozenset(event.node for event in self.crashes() if event.node is not None)

    def messages_sent(self) -> list[TraceEvent]:
        return self.of_kind(EventKind.MESSAGE_SENT)

    def messages_delivered(self) -> list[TraceEvent]:
        return self.of_kind(EventKind.MESSAGE_DELIVERED)

    def first(self, kind: EventKind) -> Optional[TraceEvent]:
        """The earliest event of ``kind`` or ``None``."""
        return self._end_of(kind, 0)

    def last(self, kind: EventKind) -> Optional[TraceEvent]:
        """The latest event of ``kind`` or ``None``."""
        return self._end_of(kind, -1)

    def _end_of(self, kind: EventKind, position: int) -> Optional[TraceEvent]:
        columns = self._columns
        if columns is None:
            matching = self.of_kind(kind)
            return matching[position] if matching else None
        rows = columns.rows_of(kind)
        return columns.event(rows[position]) if rows else None

    def end_time(self) -> float:
        """Timestamp of the last recorded event (0.0 for an empty trace)."""
        columns = self._columns
        return columns.end_time() if columns is not None else self._end_time

    def filter(self, predicate: Callable[[TraceEvent], bool]) -> list[TraceEvent]:
        """Events matching an arbitrary predicate."""
        return [event for event in self._require_log("filtering") if predicate(event)]

    def extend(self, events: Iterable[TraceEvent]) -> None:
        """Append many events (used when merging per-node asyncio logs)."""
        for event in events:
            self.record(event)

    def to_lines(self) -> list[str]:
        """Human-readable rendering of the whole trace."""
        return [event.describe() for event in self._require_log("rendering")]

    def digest(self, *kinds: EventKind) -> str:
        """Canonical digest of the trace (hex string).

        Without arguments every event contributes; with ``kinds`` only
        those event kinds do.  The encoding is independent of the hash
        seed of the recording process (see :mod:`repro.trace.digest`), so
        digests compare across worker processes and machines.  Digest-only
        recorders stream the unfiltered digest as events fire; kind
        filters over the retained kinds recompute from the retained
        events, other filters raise.
        """
        from .digest import StreamingTraceDigest, trace_digest

        columns = self._columns
        if columns is not None:
            stream = StreamingTraceDigest(kinds=kinds if kinds else None)
            stream.fold_columns(columns)
            return stream.hexdigest()
        if not kinds:
            if self._sealed_digest is not None:
                return self._sealed_digest
            return self._digest_stream.hexdigest()
        return trace_digest(self.of_kind(*kinds), kinds=kinds)
