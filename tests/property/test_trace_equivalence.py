"""Trace-equivalence property battery.

The trace pipeline has three representations of one run — the columnar
store behind ``collection="trace"``, the streamed digest/metrics state
behind ``collection="digest"``, and the plain event list they both
abstract — plus a composition law (per-worker partial sums) that the
partitioned backend relies on.  This suite pins their equivalences on
hypothesis-generated event streams:

* columnar round-trip: a ``TraceRecorder`` stores events columnar but
  must replay them equal, in order, with the same digest — including
  after a pickle round-trip of the columns (the worker wire format);
* streaming == batch: folding events one at a time through
  :class:`StreamingTraceDigest` equals digesting the finished list and
  equals the column walk behind ``TraceRecorder.digest()``, for every
  kind-filter combination, and the one renderer they share produces
  byte-identical event lines to the canonical encoder (the memo-free
  ``isinstance`` chain kept in ``tests/support.py``);
* compositionality: splitting a stream by node, folding each part
  separately and summing the partials equals the whole-trace digest, for
  any interleaving of the per-node subsequences;
* digest-mode recorder == trace-mode recorder on every query both
  support, and :class:`StreamingRunMetrics` (observe, merge, finalize)
  equals :func:`collect_metrics` over the full trace.
"""

from __future__ import annotations

import pickle
import random

from hypothesis import given, settings, strategies as st

from repro.sim.events import EventKind, TraceEvent
from repro.trace import digest as digest_module
from repro.trace import (
    DIGEST_RETAINED_KINDS,
    EventColumns,
    StreamingRunMetrics,
    StreamingTraceDigest,
    TraceRecorder,
    TraceUnavailableError,
    collect_metrics,
    combine_partials,
    event_line,
    hex_of_partial,
    trace_digest,
)
from tests.support import record_all, reference_canonical_text, reference_trace_digest

#: ``None`` is the node of a global event (column index -1).
NODES = ["a", "b", "c", (0, 1), (1, 2), 7, None]
KINDS = list(EventKind)

#: Hashable payload values (DECIDED payloads land in a set) covering the
#: canonical-text shapes: primitives, tuples, frozensets, None.
payload_values = st.one_of(
    st.none(),
    st.integers(-(2**40), 2**40),
    st.text(max_size=8),
    st.tuples(st.integers(0, 99), st.text(max_size=4)),
    st.frozensets(st.integers(0, 9), max_size=4),
)

detail_values = st.dictionaries(
    st.text(min_size=1, max_size=6),
    st.one_of(st.integers(0, 999), st.text(max_size=6)),
    max_size=2,
)


@st.composite
def event_streams(draw, min_size=0, max_size=60):
    """An ordered stream of trace events over a small node universe.

    Payloads are drawn from a per-stream pool and reused *by object
    identity* across events — exactly how the simulator shares one
    message object between its SENT and DELIVERED records — so the
    streaming digest's identity-keyed payload cache is exercised on
    every run.
    """
    pool_size = draw(st.integers(1, 6))
    pool = draw(
        st.lists(payload_values, min_size=pool_size, max_size=pool_size)
    )
    count = draw(st.integers(min_size, max_size))
    times = sorted(
        draw(
            st.lists(
                st.floats(0.0, 500.0, allow_nan=False, allow_infinity=False),
                min_size=count,
                max_size=count,
            )
        )
    )
    events = []
    for time in times:
        kind = draw(st.sampled_from(KINDS))
        node = draw(st.sampled_from(NODES))
        peer = draw(st.one_of(st.none(), st.sampled_from(NODES)))
        payload = draw(st.sampled_from(pool))
        detail = draw(detail_values)
        events.append(
            TraceEvent(
                time=time, kind=kind, node=node, peer=peer,
                payload=payload, detail=detail,
            )
        )
    return events


kind_filters = st.one_of(
    st.none(),
    st.sets(st.sampled_from(KINDS), min_size=1, max_size=4),
)


class TestColumnarRoundTrip:
    @given(event_streams())
    @settings(max_examples=60, deadline=None)
    def test_recorder_replays_events_equal_and_in_order(self, events):
        recorder = record_all(events)
        assert list(recorder) == events
        assert recorder.events == tuple(events)
        assert len(recorder) == len(events)
        assert recorder.digest() == trace_digest(events)

    @given(event_streams())
    @settings(max_examples=40, deadline=None)
    def test_columns_survive_pickle(self, events):
        """The worker wire format: columns must round-trip through pickle
        with events, digest and further appends intact."""
        columns = EventColumns()
        for event in events:
            columns.append(event)
        restored = pickle.loads(pickle.dumps(columns))
        assert list(restored) == events
        assert trace_digest(restored) == trace_digest(events)
        extra = TraceEvent(time=1000.0, kind=EventKind.CUSTOM, node="a")
        restored.append(extra)
        assert list(restored) == events + [extra]

    @given(event_streams(), kind_filters)
    @settings(max_examples=60, deadline=None)
    def test_kind_filtered_queries_match_list_comprehension(self, events, kinds):
        recorder = record_all(events)
        if kinds is None:
            return
        wanted = tuple(kinds)
        expected = [event for event in events if event.kind in kinds]
        assert recorder.of_kind(*wanted) == expected


class TestStreamingDigestEqualsBatch:
    @given(event_streams(), kind_filters)
    @settings(max_examples=60, deadline=None)
    def test_streamed_equals_batch_for_kind_filters(self, events, kinds):
        stream = StreamingTraceDigest(kinds=kinds)
        for event in events:
            stream.update(event)
        assert stream.hexdigest() == trace_digest(events, kinds=kinds)
        filtered = [e for e in events if kinds is None or e.kind in kinds]
        assert stream.hexdigest() == trace_digest(filtered)

    @given(event_streams(), kind_filters)
    @settings(max_examples=60, deadline=None)
    def test_column_fold_equals_event_fold_equals_streamed(self, events, kinds):
        """The renderer's two feeders agree with each other and with the
        reference, also on a recorder rebuilt from pickled columns (what
        the partitioned backend's merge digests)."""
        wanted = tuple(kinds) if kinds is not None else ()
        expected = reference_trace_digest(events, kinds)
        recorder = record_all(events)
        assert recorder.digest(*wanted) == expected  # column walk
        assert trace_digest(events, kinds=kinds) == expected  # streamed updates
        assert trace_digest(iter(recorder), kinds=kinds) == expected  # rebuilt events
        columns = EventColumns()
        for event in events:
            columns.append(event)
        rebuilt = TraceRecorder.from_columns(pickle.loads(pickle.dumps(columns)))
        assert rebuilt.digest(*wanted) == expected
        assert collect_metrics(rebuilt) == collect_metrics(record_all(events, "digest"))

    @given(event_streams(min_size=1))
    @settings(max_examples=60, deadline=None)
    def test_fast_line_matches_canonical_encoding(self, events):
        """The memoising renderer must be byte-identical to the canonical
        dataclass encoding — including when one payload object recurs
        (memo hit) and when equal-but-distinct objects appear."""
        memo = {}

        def line(event):
            return digest_module._event_line(
                event.time,
                digest_module._KIND_INDEX[event.kind],
                digest_module._text(event.node, memo),
                digest_module._text(event.peer, memo),
                event.payload,
                event.detail,
                memo,
            ).decode("utf-8")

        for event in events:
            assert line(event) == event_line(event) + "\n"
            assert event_line(event) == reference_canonical_text(event)
        # Equal payloads behind distinct objects must also agree.
        first = events[0]
        if first.payload is not None:
            clone = TraceEvent(
                time=first.time, kind=first.kind, node=first.node,
                peer=first.peer, payload=pickle.loads(pickle.dumps(first.payload)),
                detail=dict(first.detail),
            )
            assert line(clone) == event_line(first) + "\n"

    @given(event_streams())
    @settings(max_examples=40, deadline=None)
    def test_digest_is_sensitive_to_any_single_event_change(self, events):
        if not events:
            return
        base = trace_digest(events)
        index = len(events) // 2
        victim = events[index]
        mutated = TraceEvent(
            time=victim.time, kind=victim.kind, node=victim.node,
            peer=victim.peer, payload=("mutated", victim.payload),
            detail=victim.detail,
        )
        assert trace_digest(events[:index] + [mutated] + events[index + 1:]) != base
        assert trace_digest(events[:index] + events[index + 1:]) != base


class TestDigestComposition:
    @given(event_streams(), st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_split_by_node_partials_sum_to_whole(self, events, split_seed):
        """The partition-worker contract: nodes distributed arbitrarily
        across disjoint workers, each folding only its own events, must
        combine to the whole-trace digest."""
        rng = random.Random(split_seed)
        owner = {node: rng.randrange(3) for node in NODES}
        shards = [StreamingTraceDigest() for _ in range(3)]
        for event in events:
            shards[owner[event.node]].update(event)
        combined = combine_partials(shard.partial() for shard in shards)
        assert hex_of_partial(combined) == trace_digest(events)

    @given(event_streams(), st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_digest_invariant_under_cross_node_interleaving(self, events, shuffle_seed):
        """Any merge order that preserves each node's subsequence digests
        identically — the documented trade-off of the node-composed sum."""
        queues = {}
        for event in events:
            queues.setdefault(event.node, []).append(event)
        rng = random.Random(shuffle_seed)
        interleaved = []
        pending = {node: list(queue) for node, queue in queues.items()}
        while pending:
            node = rng.choice(sorted(pending, key=repr))
            interleaved.append(pending[node].pop(0))
            if not pending[node]:
                del pending[node]
        assert trace_digest(interleaved) == trace_digest(events)


class TestDigestModeRecorder:
    @given(event_streams())
    @settings(max_examples=60, deadline=None)
    def test_digest_mode_agrees_with_trace_mode(self, events):
        full = record_all(events, collection="trace")
        lean = record_all(events, collection="digest")
        assert lean.digest() == full.digest()
        assert len(lean) == len(full)
        assert lean.end_time() == full.end_time()
        assert lean.decisions() == full.decisions()
        assert lean.crashes() == full.crashes()
        assert lean.crashed_nodes() == full.crashed_nodes()
        retained = tuple(DIGEST_RETAINED_KINDS)
        assert lean.digest(*retained) == full.digest(*retained)

    @given(event_streams())
    @settings(max_examples=40, deadline=None)
    def test_streamed_metrics_equal_collected_metrics(self, events):
        full = record_all(events, collection="trace")
        lean = record_all(events, collection="digest")
        streamed, collected = collect_metrics(lean), collect_metrics(full)
        assert streamed == collected
        # dict equality ignores order; table printers do not.
        assert list(streamed.per_node_messages) == list(collected.per_node_messages)

    @given(event_streams(), st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_metrics_merge_equals_whole_stream(self, events, split_seed):
        """Per-shard metrics accumulators merged at the coordinator equal
        one accumulator that saw every event (in trace order)."""
        rng = random.Random(split_seed)
        owner = {node: rng.randrange(3) for node in NODES}
        shards = [StreamingRunMetrics() for _ in range(3)]
        whole = StreamingRunMetrics()
        for event in events:
            shards[owner[event.node]].observe(event)
            whole.observe(event)
        merged = StreamingRunMetrics()
        for shard in shards:
            merged.merge(shard)
        assert merged.finalize() == whole.finalize()

    @given(event_streams(min_size=1))
    @settings(max_examples=30, deadline=None)
    def test_log_queries_raise_trace_unavailable(self, events):
        lean = record_all(events, collection="digest")
        for query in (
            lambda: lean.events,
            lambda: list(iter(lean)),
            lambda: lean.at_node(events[0].node),
            lambda: lean.to_lines(),
            lambda: lean.of_kind(EventKind.MESSAGE_SENT),
            lambda: lean.digest(EventKind.MESSAGE_SENT),
        ):
            try:
                query()
            except TraceUnavailableError:
                continue
            raise AssertionError(f"{query} should have raised TraceUnavailableError")
