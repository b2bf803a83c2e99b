"""Deterministic discrete-event scheduler.

A tiny future-event-list scheduler: callbacks are executed in increasing
timestamp order, ties broken by insertion order, so a run is a pure
function of (topology, processes, crash schedule, latency model, seed).
Determinism is what makes the hypothesis-based property tests and the
``repro report`` numbers reproducible.

Two throughput optimisations keep large runs (4096-node tori, high churn
rates) cheap without changing the observable order of callbacks:

* **lazy-deletion compaction** — cancelled entries are left in the heap
  (cancelling is O(1)) but counted; once they outnumber the live entries
  the heap is rebuilt without them, so a workload that cancels heavily
  (failure-detector churn) keeps the heap — and every push/pop — bounded
  by the number of *live* events;
* **batched same-timestamp dispatch** — :meth:`EventScheduler.run` drains
  every callback sharing one timestamp in a single inner loop with the
  heap operations bound to locals, skipping the per-event peek/bounds
  bookkeeping of the naive loop.  Callbacks scheduled *at the current
  timestamp* by a running callback join the tail of the same batch, which
  is exactly the order the unbatched loop would produce.

:class:`KeyedEventScheduler` is the partitioned-backend variant: it
replaces the insertion-order tie-break with caller-supplied total-order
keys, so shards of one run (:mod:`repro.sim.partition`) can reproduce the
sequential interleaving without observing global insertion order, and
its :meth:`~KeyedEventScheduler.run_window` runs one barrier window
``[now, end)`` at a time.  The virtual-time asyncio loop
(:mod:`repro.vtime.loop`) is the other keyed-scheduler client: it mints
the same genealogical keys for asyncio callbacks, which is what makes
the real runtime's wakeup order — and hence its trace digest —
deterministic.
"""

from __future__ import annotations

import heapq
from typing import Callable, Optional


class SchedulerError(RuntimeError):
    """Raised on scheduler misuse (e.g. scheduling in the past)."""


#: Below this heap size compaction is pointless (the rebuild costs more
#: than the dead entries ever will).
_COMPACTION_MIN_QUEUE = 64


class _ScheduledEntry:
    """One heap entry: ``(time, sequence)`` ordered, payload uncompared."""

    __slots__ = ("time", "sequence", "callback", "cancelled", "pending")

    def __init__(self, time: float, sequence: int, callback: Callable[[], None]) -> None:
        self.time = time
        self.sequence = sequence
        self.callback = callback
        self.cancelled = False
        #: True while the entry sits unexecuted in the heap; cleared when
        #: it is popped for execution, so a late ``cancel()`` cannot
        #: corrupt the lazy-deletion counter.
        self.pending = True

    def __lt__(self, other: "_ScheduledEntry") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.sequence < other.sequence


class EventHandle:
    """Handle returned by :meth:`EventScheduler.schedule`; supports cancel."""

    __slots__ = ("_entry", "_scheduler")

    def __init__(self, entry: _ScheduledEntry, scheduler: "EventScheduler") -> None:
        self._entry = entry
        self._scheduler = scheduler

    def cancel(self) -> None:
        """Prevent the callback from running (idempotent).

        Cancelling after the callback already executed is a no-op, as it
        was in the scan-based implementation — the entry is gone from the
        heap, so it must not count towards lazy deletion.
        """
        entry = self._entry
        if entry.pending and not entry.cancelled:
            entry.cancelled = True
            entry.callback = _CANCELLED_CALLBACK
            self._scheduler._note_cancelled()

    @property
    def cancelled(self) -> bool:
        return self._entry.cancelled

    @property
    def time(self) -> float:
        return self._entry.time


def _CANCELLED_CALLBACK() -> None:  # pragma: no cover - never invoked
    raise SchedulerError("cancelled callback invoked")


class EventScheduler:
    """A future event list processed in timestamp order.

    Parameters
    ----------
    batch_dispatch:
        When True (the default), :meth:`run` uses the batched
        same-timestamp fast path.  The unbatched reference loop is kept
        behind ``batch_dispatch=False`` so the determinism regression
        suite can assert both produce identical traces.
    """

    __slots__ = ("_queue", "_next_sequence", "_now", "_processed", "_cancelled", "_batch_dispatch")

    def __init__(self, batch_dispatch: bool = True) -> None:
        self._queue: list[_ScheduledEntry] = []
        self._next_sequence = 0
        self._now = 0.0
        self._processed = 0
        #: Cancelled entries still sitting in the heap (lazy deletion).
        self._cancelled = 0
        self._batch_dispatch = batch_dispatch

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of callbacks executed so far."""
        return self._processed

    @property
    def pending_events(self) -> int:
        """Number of scheduled, not-yet-executed, not-cancelled callbacks."""
        return len(self._queue) - self._cancelled

    @property
    def heap_size(self) -> int:
        """Raw heap length, cancelled entries included (observability)."""
        return len(self._queue)

    @property
    def batch_dispatch(self) -> bool:
        """Whether :meth:`run` uses the batched fast path."""
        return self._batch_dispatch

    def schedule(self, delay: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` to run ``delay`` time units from now."""
        if delay < 0:
            raise SchedulerError(f"cannot schedule in the past (delay={delay})")
        return self._push(self._now + delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` at an absolute simulated time."""
        if time < self._now:
            raise SchedulerError(
                f"cannot schedule at {time} before current time {self._now}"
            )
        return self._push(time, callback)

    def _push(self, time: float, callback: Callable[[], None]) -> EventHandle:
        entry = _ScheduledEntry(time, self._next_sequence, callback)
        self._next_sequence += 1
        heapq.heappush(self._queue, entry)
        return EventHandle(entry, self)

    # ------------------------------------------------------------------
    # Lazy-deletion bookkeeping
    # ------------------------------------------------------------------
    def _note_cancelled(self) -> None:
        self._cancelled += 1
        self._maybe_compact()

    def _maybe_compact(self) -> None:
        """Rebuild the heap once cancelled entries exceed the live ones.

        Rebuilding preserves the ``(time, sequence)`` order exactly —
        ``heapify`` over the surviving entries yields the same pop order —
        so compaction is invisible to the event stream.  The rebuild is
        done *in place* (slice assignment) because :meth:`run` holds a
        local reference to the queue list while callbacks — which may
        cancel events and trigger compaction — are executing.
        """
        queue = self._queue
        if len(queue) < _COMPACTION_MIN_QUEUE or self._cancelled * 2 <= len(queue):
            return
        queue[:] = [entry for entry in queue if not entry.cancelled]
        heapq.heapify(queue)
        self._cancelled = 0

    def step(self) -> bool:
        """Execute the next pending callback.  Returns False when empty."""
        queue = self._queue
        while queue:
            entry = heapq.heappop(queue)
            if entry.cancelled:
                self._cancelled -= 1
                continue
            entry.pending = False
            self._now = entry.time
            self._processed += 1
            entry.callback()
            return True
        return False

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> float:
        """Run until the queue drains, ``until`` is reached, or the budget ends.

        Returns the simulated time when the loop stopped.
        """
        if self._batch_dispatch:
            return self._run_batched(until, max_events)
        return self._run_sequential(until, max_events)

    def _run_batched(self, until: Optional[float], max_events: Optional[int]) -> float:
        """The fast path: drain same-timestamp batches with local bindings."""
        queue = self._queue
        pop = heapq.heappop
        executed = 0
        budget = max_events if max_events is not None else -1
        while queue:
            if budget >= 0 and executed >= budget:
                break
            head = queue[0]
            if head.cancelled:
                pop(queue)
                self._cancelled -= 1
                continue
            batch_time = head.time
            if until is not None and batch_time > until:
                self._now = until
                break
            self._now = batch_time
            # Drain the whole timestamp; callbacks scheduling at
            # ``batch_time`` append to this very batch (higher sequence).
            while queue and queue[0].time == batch_time:
                entry = pop(queue)
                if entry.cancelled:
                    self._cancelled -= 1
                    continue
                entry.pending = False
                self._processed += 1
                executed += 1
                entry.callback()
                if budget >= 0 and executed >= budget:
                    break
        return self._now

    def _run_sequential(self, until: Optional[float], max_events: Optional[int]) -> float:
        """The reference loop (one peek + one step per event)."""
        executed = 0
        while self._queue:
            if max_events is not None and executed >= max_events:
                break
            next_entry = self._peek()
            if next_entry is None:
                break
            if until is not None and next_entry.time > until:
                self._now = until
                break
            if not self.step():
                break
            executed += 1
        return self._now

    def _peek(self) -> Optional[_ScheduledEntry]:
        while self._queue and self._queue[0].cancelled:
            heapq.heappop(self._queue)
            self._cancelled -= 1
        return self._queue[0] if self._queue else None

    def next_event_time(self) -> Optional[float]:
        """Timestamp of the next pending event, or ``None`` when idle."""
        entry = self._peek()
        return entry.time if entry is not None else None

    def is_idle(self) -> bool:
        """True when no non-cancelled events remain."""
        return self._peek() is None


class _KeyedEntry(_ScheduledEntry):
    """A heap entry ordered by ``(time, key)`` instead of insertion order."""

    __slots__ = ("key",)

    def __init__(
        self, time: float, sequence: int, callback: Callable[[], None], key: tuple
    ) -> None:
        super().__init__(time, sequence, callback)
        self.key = key

    def __lt__(self, other: "_ScheduledEntry") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.key < other.key  # type: ignore[attr-defined]


class KeyedEventScheduler(EventScheduler):
    """An event list tie-broken by explicit total-order keys.

    The sequential :class:`EventScheduler` breaks timestamp ties by
    insertion order — a *global* property no single partition of a
    partitioned run can observe.  This variant instead orders equal-time
    entries by a caller-supplied ``key``: the partitioned backend mints
    genealogical keys (see :mod:`repro.sim.partition`) that are
    order-isomorphic to the sequential run's insertion order, so events
    received from other partitions at a barrier interleave exactly where
    the sequential run would have placed them.

    The plain :meth:`schedule` / :meth:`schedule_at` entry points are
    disabled: mixing keyed and insertion-ordered entries in one heap would
    silently corrupt the total order, so an un-refactored call site fails
    loudly instead.

    ``context``, when set, is the owning partition simulator:
    :meth:`run_window` stores each entry's ``(time, key)`` into it before
    invoking the callback (resetting the per-event child/emit counters),
    which keeps the per-event cost to four attribute stores instead of a
    wrapper closure per scheduled event.
    """

    __slots__ = ("context",)

    def __init__(self, batch_dispatch: bool = True) -> None:
        super().__init__(batch_dispatch=batch_dispatch)
        self.context = None

    def schedule(self, delay: float, callback: Callable[[], None]) -> EventHandle:
        raise SchedulerError("KeyedEventScheduler requires schedule_keyed()")

    def schedule_at(self, time: float, callback: Callable[[], None]) -> EventHandle:
        raise SchedulerError("KeyedEventScheduler requires schedule_keyed()")

    def schedule_keyed(
        self, time: float, key: tuple, callback: Callable[[], None]
    ) -> EventHandle:
        """Schedule ``callback`` at absolute ``time``, tie-broken by ``key``."""
        if time < self._now:
            raise SchedulerError(
                f"cannot schedule at {time} before current time {self._now}"
            )
        entry = _KeyedEntry(time, self._next_sequence, callback, key)
        self._next_sequence += 1
        heapq.heappush(self._queue, entry)
        return EventHandle(entry, self)

    def run_window(
        self,
        bound: float,
        inclusive: bool = False,
        max_events: Optional[int] = None,
    ) -> int:
        """Run one barrier window: events with ``time < bound`` (or
        ``<= bound`` when ``inclusive`` — the final, ``until``-clamped
        window).  Events at exactly the exclusive ``bound`` must wait,
        because a cross-partition envelope may still arrive for that
        timestamp at the barrier.  Unlike :meth:`run`, the clock is *not*
        advanced to the bound when the loop stops early — ``now`` stays at
        the last executed event, so a later window (or an injected
        envelope) can still schedule at any time ``>= now``.

        Returns the number of callbacks executed."""
        queue = self._queue
        pop = heapq.heappop
        ctx = self.context
        executed = 0
        budget = max_events if max_events is not None else -1
        try:
            while queue:
                head = queue[0]
                if head.cancelled:
                    pop(queue)
                    self._cancelled -= 1
                    continue
                time = head.time
                if (time > bound) if inclusive else (time >= bound):
                    break
                if budget >= 0 and executed >= budget:
                    break
                entry = pop(queue)
                entry.pending = False
                self._now = time
                self._processed += 1
                executed += 1
                if ctx is not None:
                    ctx._ctx_time = time
                    ctx._ctx_key = entry.key  # type: ignore[attr-defined]
                    ctx._ctx_children = 0
                    ctx._ctx_emits = 0
                entry.callback()
        finally:
            if ctx is not None:
                # Between windows (envelope injection, barrier idling) no
                # event is executing; minting and emission must see that.
                ctx._ctx_key = None
        return executed
