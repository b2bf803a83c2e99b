"""Outside-in spans: wrappers the benchmark installs around layer boundaries.

A span is ``(id, name, start, end, parent, op)``: ``parent`` is the id of
the span that was open on the same thread when this one started (``None``
at the top), ``op`` the operation the benchmark was running.  Spans stay
in memory until the workload ends.  Nothing under ``src/`` knows about
them: :meth:`SpanRecorder.install` replaces class and module attributes
with timing wrappers and :meth:`SpanRecorder.remove` puts the originals
back, so wrappers must go in *before* a runtime is constructed (the
simulator binds ``_send``/``_deliver`` at init) and come out afterwards.
"""

from __future__ import annotations

import itertools
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Optional


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: int


class SpanRecorder:
    """Records spans from the wrappers it installs."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: The operation spans are attributed to; the benchmark sets it.
        self.op = -1
        #: ``note`` results summed per ``(span name, op)`` (see :meth:`wrap`).
        self.notes: dict[tuple[str, int], int] = defaultdict(int)
        self._ids = itertools.count()
        self._local = threading.local()
        self._installed: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def wrap(
        self,
        name: str,
        function: Callable[..., Any],
        note: Optional[Callable[[Any], int]] = None,
    ) -> Callable[..., Any]:
        """``function`` timed as a span called ``name``.

        ``note``, when given, is called with the first positional argument
        (the instance of a wrapped method) after the call returns, and its
        result is added to ``notes[name, op]`` — how counts that live on a
        runtime object nobody keeps (``processed_events``) get out.
        """
        append = self.spans.append
        ids = self._ids
        local = self._local
        new = tuple.__new__  # Span(...) costs three times as much per call

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                append(new(Span, (span_id, name, start, end, parent, self.op)))
                if note is not None:
                    self.notes[name, self.op] += note(args[0])

        wrapper.__wrapped__ = function  # type: ignore[attr-defined]
        return wrapper

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around a block of the benchmark's own code."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent, self.op))

    def install(self, targets: Iterable[tuple]) -> None:
        """Wrap ``owner.attribute`` for each ``(owner, attribute, name[, note])``."""
        for owner, attribute, name, *rest in targets:
            # vars() and not getattr: a wrapper must replace the attribute
            # where it is defined, and restoring must not turn an inherited
            # method into an own one.
            original = vars(owner)[attribute]
            self._installed.append((owner, attribute, original))
            setattr(owner, attribute, self.wrap(name, original, *rest))

    def remove(self) -> None:
        """Restore every attribute :meth:`install` replaced."""
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)

    @contextmanager
    def installed(self, targets: Iterable[tuple]) -> Iterator[None]:
        """The wrappers are in for the block, and out again however it ends."""
        self.install(targets)
        try:
            yield
        finally:
            self.remove()


def covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for low, high in sorted(intervals):
        low = max(low, reach)
        high = min(high, end)
        if high > low:
            total += high - low
            reach = high
    return total


def self_times(spans: Iterable[Span]) -> dict[str, tuple[float, int]]:
    """``{name: (self seconds, calls)}`` over ``spans``.

    A span's self time is its duration minus the part of that interval its
    child spans cover; children that overlap one another (work on other
    threads) are counted once.
    """
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    totals: dict[str, list] = defaultdict(lambda: [0.0, 0])
    for span in spans:
        duration = span.end - span.start
        inside = children.get(span.id)
        if inside:
            duration -= covered(inside, span.start, span.end)
        entry = totals[span.name]
        entry[0] += duration
        entry[1] += 1
    return {name: (seconds, calls) for name, (seconds, calls) in totals.items()}


def dump(spans: Iterable[Span]) -> dict[str, Any]:
    """Spans as a compact JSON document (times in µs from the first start)."""
    spans = list(spans)
    names = sorted({span.name for span in spans})
    index = {name: position for position, name in enumerate(names)}
    origin = min((span.start for span in spans), default=0.0)
    return {
        "fields": ["id", "name", "start_us", "end_us", "parent", "op"],
        "names": names,
        "spans": [
            [
                span.id,
                index[span.name],
                round((span.start - origin) * 1e6),
                round((span.end - origin) * 1e6),
                span.parent,
                span.op,
            ]
            for span in spans
        ],
    }
