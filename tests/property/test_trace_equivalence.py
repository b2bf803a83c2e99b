"""Trace-equivalence property battery.

Events are rows, in (``emit`` → columns, streamed fold or a partition's
keyed log) and out (readers filter on the raw kinds column).  On generated
streams none of it can be told from the plain event list: the columns
replay it, also through pickle; the renderer's feeders match the reference
encoder under every kind filter; per-node partials compose under any split
and interleaving; a digest-only recorder agrees with a full one; and every
reader gives from rows — full trace, digest fold, two merged shards — what
the materialised list gives.
"""

from __future__ import annotations

import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.churn.epochs import build_epochs
from repro.churn.properties import build_ground_truth, check_churn_locality
from repro.core.properties import Decision, check_locality, extract_decisions
from repro.graph import Region, faulty_domains, generators
from repro.sim.events import EventKind, TraceEvent
from repro.sim.partition import _merge_traces, _PartitionTraceRecorder
from repro.trace import digest as digest_module
from repro.trace import DIGEST_RETAINED_KINDS, StreamingRunMetrics, StreamingTraceDigest
from repro.trace import TraceRecorder, TraceUnavailableError, collect_metrics, combine_partials
from repro.trace import event_line, hex_of_partial, trace_digest
from tests.support import record_all, reference_canonical_text, reference_trace_digest

#: ``None`` is the node of a global event (column index -1).
NODES = ["a", "b", "c", (0, 1), (1, 2), 7, None]
KINDS = list(EventKind)
K = EventKind

#: Hashable (DECIDED payloads land in a set), covering the canonical-text shapes.
payload_values = st.one_of(
    st.none(), st.integers(-(2**40), 2**40), st.text(max_size=8),
    st.tuples(st.integers(0, 99), st.text(max_size=4)), st.frozensets(st.integers(0, 9), max_size=4),
)  # fmt: skip
detail_values = st.dictionaries(
    st.text(min_size=1, max_size=6), st.one_of(st.integers(0, 999), st.text(max_size=6)), max_size=2
)
kind_filters = st.one_of(st.none(), st.sets(st.sampled_from(KINDS), min_size=1, max_size=4))


@st.composite
def event_streams(draw, min_size=0, max_size=60):
    """An ordered stream of events over a small node universe.  Payloads
    recur *by object identity* (as one message is shared by its SENT and
    DELIVERED rows), so the renderer's identity memo is always exercised."""
    pool = draw(st.lists(payload_values, min_size=1, max_size=6))
    times = sorted(draw(st.lists(st.floats(0.0, 500.0), min_size=min_size, max_size=max_size)))
    node, peer = st.sampled_from(NODES), st.one_of(st.none(), st.sampled_from(NODES))
    return [
        TraceEvent(time, *map(draw, (st.sampled_from(KINDS), node, peer, st.sampled_from(pool), detail_values)))
        for time in times
    ]


def split(events, seed: int, fold, feed: str) -> list:
    """Three ``fold()``s, each ``feed``-ing on the events of the nodes it drew."""
    rng = random.Random(seed)
    owner = {node: rng.randrange(3) for node in NODES}
    shards = [fold() for _ in range(3)]
    for event in events:
        getattr(shards[owner[event.node]], feed)(event)
    return shards


class TestColumnarRoundTrip:
    @given(event_streams())
    @settings(max_examples=60, deadline=None)
    def test_recorder_replays_events_equal_and_in_order(self, events):
        recorder = record_all(events)
        assert list(recorder) == events and recorder.events == tuple(events) and len(recorder) == len(events)
        assert recorder.digest() == reference_trace_digest(events)

    @given(event_streams())
    @settings(max_examples=40, deadline=None)
    def test_columns_survive_pickle(self, events):
        """The worker wire format keeps events, digest, row index, appends."""
        restored = pickle.loads(pickle.dumps(record_all(events).columns))
        assert list(restored) == events
        assert trace_digest(restored) == trace_digest(events)
        restored.append_row(1000.0, K.CUSTOM, "a", None, None, None)
        assert list(restored) == events + [TraceEvent(1000.0, K.CUSTOM, node="a")]
        assert restored.rows_of(K.CUSTOM)[-1] == len(events)

    @given(event_streams(), kind_filters)
    @settings(max_examples=60, deadline=None)
    def test_kind_filtered_queries_match_list_comprehension(self, events, kinds):
        recorder = record_all(events)
        for wanted in [kinds] if kinds else [{kind} for kind in KINDS]:
            expected = [event for event in events if event.kind in wanted]
            assert recorder.of_kind(*wanted) == expected
            assert recorder.of_kind(*wanted) == expected  # the row index, asked again
        assert recorder.first(K.DECIDED) == next((e for e in events if e.kind is K.DECIDED), None)


class TestStreamingDigestEqualsBatch:
    @given(event_streams(), kind_filters)
    @settings(max_examples=60, deadline=None)
    def test_column_fold_equals_event_fold_equals_streamed(self, events, kinds):
        """The renderer's feeders agree with the reference, also on columns
        rebuilt from a pickle (what the partitioned backend's merge digests)."""
        wanted = tuple(kinds) if kinds is not None else ()
        expected = reference_trace_digest(events, kinds)
        assert record_all(events).digest(*wanted) == expected  # column walk
        assert trace_digest(events, kinds=kinds) == expected  # streamed events
        rows = StreamingTraceDigest(kinds=kinds)  # streamed rows, as emit feeds them
        for e in events:
            rows.update_row(e.time, e.kind, e.node, e.peer, e.payload, e.detail)
        assert rows.hexdigest() == expected
        rebuilt = TraceRecorder.from_columns(pickle.loads(pickle.dumps(record_all(events).columns)))
        assert rebuilt.digest(*wanted) == expected

    @given(event_streams(min_size=1))
    @settings(max_examples=60, deadline=None)
    def test_fast_line_matches_canonical_encoding(self, events):
        """Byte-identical to the canonical dataclass encoding — also when a
        payload object recurs (memo hit) or an equal-but-distinct one appears."""
        memo = {}

        def line(event):
            return digest_module._event_line(
                event.time, event.kind.code, digest_module._text(event.node, memo),
                digest_module._text(event.peer, memo), event.payload, event.detail, memo,
            ).decode("utf-8")  # fmt: skip

        for event in events:
            assert line(event) == event_line(event) + "\n"
            assert event_line(event) == reference_canonical_text(event)
        first = events[0]  # an equal payload behind a distinct object must agree too
        clone = TraceEvent(
            first.time, first.kind, first.node, first.peer,
            pickle.loads(pickle.dumps(first.payload)), dict(first.detail),
        )  # fmt: skip
        assert line(clone) == event_line(first) + "\n"

    @given(event_streams(min_size=1))
    @settings(max_examples=40, deadline=None)
    def test_digest_is_sensitive_to_any_single_event_change(self, events):
        base, index = trace_digest(events), len(events) // 2
        victim = events[index]
        mutated = TraceEvent(victim.time, victim.kind, victim.node, payload=("mutated", victim.payload))
        assert trace_digest(events[:index] + [mutated] + events[index + 1 :]) != base
        assert trace_digest(events[:index] + events[index + 1 :]) != base


class TestDigestComposition:
    @given(event_streams(), st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_split_by_node_partials_sum_to_whole(self, events, split_seed):
        """The partition-worker contract: disjoint workers, each folding only
        its own nodes' events, combine to the whole-trace digest."""
        shards = split(events, split_seed, StreamingTraceDigest, "update")
        combined = combine_partials(shard.partial() for shard in shards)
        assert hex_of_partial(combined) == trace_digest(events)

    @given(event_streams(), st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_digest_invariant_under_cross_node_interleaving(self, events, shuffle_seed):
        """Any merge order that preserves each node's subsequence digests
        identically — the documented trade-off of the node-composed sum."""
        pending = {}
        for event in events:
            pending.setdefault(event.node, []).append(event)
        rng = random.Random(shuffle_seed)
        interleaved = []
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
        assert (len(lean), lean.end_time()) == (len(full), full.end_time())
        assert lean.decisions() == full.decisions()
        assert lean.crashes() == full.crashes()
        assert lean.crashed_nodes() == full.crashed_nodes()
        retained = tuple(DIGEST_RETAINED_KINDS)
        assert lean.digest(*retained) == full.digest(*retained)

    @given(event_streams(), st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_metrics_merge_equals_whole_stream(self, events, split_seed):
        """Per-shard metrics accumulators merged at the coordinator equal
        one accumulator that saw every event (in trace order)."""
        merged = StreamingRunMetrics()
        for shard in split(events, split_seed, StreamingRunMetrics, "observe"):
            merged.merge(shard)
        assert merged.finalize() == collect_metrics(record_all(events))

    @given(event_streams(min_size=1))
    @settings(max_examples=30, deadline=None)
    def test_log_queries_raise_trace_unavailable(self, events):
        lean = record_all(events, collection="digest")
        for query in (
            lambda: lean.events, lambda: lean.columns, lambda: list(iter(lean)),
            lambda: lean.at_node(events[0].node), lambda: lean.to_lines(),
            lambda: lean.of_kind(K.MESSAGE_SENT), lambda: lean.digest(K.MESSAGE_SENT),
        ):  # fmt: skip
            with pytest.raises(TraceUnavailableError):
                query()


RING = generators.ring(8)
STATUS = {K.NODE_CRASHED: "crashed", K.NODE_LEFT: "departed", K.NODE_RECOVERED: "live", K.NODE_JOINED: "live"}
RUN_KINDS = [*STATUS, K.MESSAGE_SENT, K.MESSAGE_SENT, K.MESSAGE_DELIVERED, K.DECIDED,
             K.MEMBERSHIP_NOTIFIED, K.CRASH_NOTIFIED, K.VIEW_PROPOSED]  # fmt: skip


@st.composite
def run_rows(draw):
    """A churned run over an 8-ring, as the rows its substrate would emit.
    Readers fold rows, they do not police the run: only the joins and
    recoveries have to make sense, to the graph they change."""
    graph, rows, time = RING, [], 0.0
    for step in range(draw(st.integers(0, 40))):
        time += draw(st.sampled_from([0.0, 0.25, 1.0]))
        kind = draw(st.sampled_from(RUN_KINDS))
        node, peer = (draw(st.sampled_from(sorted(graph.nodes))) for _ in "np")
        payload, detail = ("message", step % 4), {}
        if kind is K.NODE_RECOVERED:
            payload = tuple(sorted(graph.neighbours(node) | ({peer} - {node})))
            graph = graph.without([node]).with_node(node, payload)
        elif kind is K.NODE_JOINED:
            node, payload = 100 + step, (peer,)
            graph = graph.with_node(node, payload)
        elif kind is K.DECIDED:
            payload, detail = Region(frozenset({peer})), {"decision": step % 3}
        rows.append((time, kind, node, peer, payload, detail))
    return rows


class Shard:
    """A stand-in partition: owns one parity of the ids, keys by position."""

    position = -1  # of the row being emitted, in the whole run

    def __init__(self, parity: int, collection: str) -> None:
        self.parity, self.trace = parity, _PartitionTraceRecorder(self, collection)

    def _emit_key(self, node):
        return (Shard.position,) if node % 2 == self.parity else None


def recorded(rows, collection: str, shards: int) -> TraceRecorder:
    """The rows through ``emit``: one recorder, or two shards merged as the
    partitioned backend merges its workers' pickled payloads."""
    traces = [Shard(parity, collection).trace for parity in range(shards)] or [TraceRecorder(collection)]
    for Shard.position, (time, kind, node, peer, payload, detail) in enumerate(rows):
        for trace in traces:
            trace.emit(time, kind, node, peer, payload, **detail)
    if not shards:
        return traces[0]
    return _merge_traces([pickle.loads(pickle.dumps(trace.payload())) for trace in traces])


def scopes(graph, faulty):
    return [d.closed_neighbourhood(graph) for d in faulty_domains(graph, faulty & graph.nodes)]


def leaks(events, scopes_at) -> int:
    """Messages of the list that stay inside no scope of their moment."""
    return sum(
        event.kind is K.MESSAGE_SENT
        and event.node != event.peer
        and not any(event.node in scope and event.peer in scope for scope in scopes_at(index))
        for index, event in enumerate(events)
    )


class TestReadersFromRows:
    @given(run_rows())
    @settings(max_examples=60, deadline=None)
    def test_every_reader_agrees_with_the_list(self, rows):
        events = [TraceEvent(*row) for row in rows]
        of = lambda *kinds: [(i, e) for i, e in enumerate(events) if e.kind in kinds]  # noqa: E731
        whole = StreamingRunMetrics()
        for event in events:
            whole.observe(event)
        for collection, shards in (("trace", 0), ("trace", 2), ("digest", 0), ("digest", 2)):
            trace = recorded(rows, collection, shards)
            assert trace.digest() == reference_trace_digest(events)
            assert extract_decisions(trace) == [Decision.from_event(e) for _, e in of(K.DECIDED)]
            metrics = collect_metrics(trace)
            assert metrics == whole.finalize()
            if (collection, shards) != ("digest", 2):  # (merged accumulators go shard by shard)
                assert list(metrics.per_node_messages) == list(whole.per_node_messages)
            if collection == "trace":
                assert list(trace) == events
                self.check_churn_readers(trace, events, of)

    @staticmethod
    def check_churn_readers(trace, events, of):
        epochs = build_epochs(RING, trace)
        opened = [(i, e.time) for i, e in of(K.NODE_JOINED, K.NODE_RECOVERED)]
        assert [(epoch.start_index, epoch.start_time) for epoch in epochs] == [(0, 0.0), *opened]
        assert [epoch.end_index for epoch in epochs] == [*(i for i, _ in opened), len(events)]
        assert epochs[-1].graph.nodes == RING.nodes | {e.node for _, e in of(K.NODE_JOINED)}
        gt = build_ground_truth(RING, trace, epochs)
        for node in {event.node for event in events}:
            assert gt.history.get(node, []) == [(i, STATUS[e.kind]) for i, e in of(*STATUS) if e.node == node]
        assert gt.decisions == [(i, Decision.from_event(e)) for i, e in of(K.DECIDED)]
        for (node, peer), hits in gt.notifications.items():
            assert hits == [i for i, e in of(K.MEMBERSHIP_NOTIFIED) if (e.node, e.peer) == (node, peer)]
        assert sum(map(len, gt.notifications.values())) == len(of(K.MEMBERSHIP_NOTIFIED))
        static = scopes(RING, trace.crashed_nodes())
        report = check_locality(RING, trace, trace.crashed_nodes() & RING.nodes)
        assert len(report.violations) == leaks(events, lambda index: static)
        failed = of(K.NODE_CRASHED, K.NODE_LEFT)
        churned = {
            e.index: scopes(e.graph, frozenset(f.node for i, f in failed if i < e.end_index))
            for e in epochs
        }
        report = check_churn_locality(gt, trace)
        assert len(report.violations) == leaks(events, lambda index: churned[gt.epoch_at(index).index])
