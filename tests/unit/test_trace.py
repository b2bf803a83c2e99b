"""Unit tests for trace recording and metrics extraction."""

from __future__ import annotations

import pickle

import pytest

from repro.graph import Region
from repro.sim import EventKind, TraceEvent, payload_size
from repro.trace import (
    StreamingRunMetrics,
    TraceRecorder,
    TraceUnavailableError,
    collect_metrics,
    communicating_nodes,
    message_pairs,
)


def make_trace() -> TraceRecorder:
    """A small hand-written trace with two decisions and three messages."""
    trace = TraceRecorder()
    view = Region(frozenset({"x"}))
    trace.emit(0.0, EventKind.NODE_STARTED, node="a")
    trace.emit(1.0, EventKind.NODE_CRASHED, node="x")
    trace.emit(2.0, EventKind.CRASH_NOTIFIED, node="a", peer="x")
    trace.emit(2.0, EventKind.VIEW_PROPOSED, node="a", payload=view)
    trace.emit(2.5, EventKind.MESSAGE_SENT, node="a", peer="b", payload="m1")
    trace.emit(3.0, EventKind.MESSAGE_DELIVERED, node="b", peer="a", payload="m1")
    trace.emit(3.5, EventKind.MESSAGE_SENT, node="b", peer="a", payload="m2")
    trace.emit(4.0, EventKind.MESSAGE_DELIVERED, node="a", peer="b", payload="m2")
    trace.emit(4.5, EventKind.MESSAGE_SENT, node="a", peer="x", payload="m3")
    trace.emit(5.0, EventKind.MESSAGE_DROPPED, node="x", peer="a", payload="m3")
    trace.emit(6.0, EventKind.VIEW_REJECTED, node="b", payload=view)
    trace.emit(7.0, EventKind.DECIDED, node="a", payload=view, decision="plan")
    trace.emit(7.5, EventKind.DECIDED, node="b", payload=view, decision="plan")
    return trace


class TestTraceRecorder:
    def test_events_in_order(self):
        trace = make_trace()
        times = [event.time for event in trace]
        assert times == sorted(times)
        assert len(trace) == 13

    def test_of_kind(self):
        trace = make_trace()
        assert len(trace.of_kind(EventKind.MESSAGE_SENT)) == 3
        assert len(trace.of_kind(EventKind.MESSAGE_SENT, EventKind.MESSAGE_DELIVERED)) == 5

    def test_at_node(self):
        trace = make_trace()
        assert all(event.node == "a" for event in trace.at_node("a"))
        assert len(trace.at_node("a")) == 7

    def test_decisions_and_crashes(self):
        trace = make_trace()
        assert len(trace.decisions()) == 2
        assert trace.crashed_nodes() == frozenset({"x"})

    def test_first_and_last(self):
        trace = make_trace()
        assert trace.first(EventKind.DECIDED).node == "a"
        assert trace.last(EventKind.DECIDED).node == "b"
        assert trace.first(EventKind.CUSTOM) is None
        assert trace.last(EventKind.CUSTOM) is None

    def test_end_time(self):
        assert make_trace().end_time() == 7.5
        assert TraceRecorder().end_time() == 0.0

    def test_filter(self):
        trace = make_trace()
        late = trace.filter(lambda event: event.time > 6.5)
        assert len(late) == 2

    def test_listener_called(self):
        trace = TraceRecorder()
        seen = []
        trace.add_listener(lambda event: seen.append(event.kind))
        trace.emit(1.0, EventKind.NODE_CRASHED, node="x")
        assert seen == [EventKind.NODE_CRASHED]

    def test_extend(self):
        trace = TraceRecorder()
        trace.extend(make_trace().events)
        assert len(trace) == 13

    def test_to_lines_and_describe(self):
        trace = make_trace()
        lines = trace.to_lines()
        assert len(lines) == len(trace)
        assert "node_crashed" in lines[1]
        assert "t=1.000" in lines[1]


class TestRowPath:
    """Events go in as rows; the object entries are that path plus an event."""

    @pytest.mark.parametrize("collection", TraceRecorder.COLLECTIONS)
    def test_record_and_extend_land_the_row_emit_would(self, collection):
        emitted = make_trace()
        recorded, extended = TraceRecorder(collection), TraceRecorder(collection)
        for event in emitted.events:
            recorded.record(event)
        extended.extend(emitted.events)
        for other in (recorded, extended):
            assert other.digest() == emitted.digest()
            assert len(other) == len(emitted) and other.end_time() == emitted.end_time()
            assert other.decisions() == emitted.decisions()
            assert collect_metrics(other) == collect_metrics(emitted)
        if collection == "trace":
            assert recorded.events == emitted.events
            # Not only equal events: the same columns, byte for byte.
            assert pickle.dumps(recorded) == pickle.dumps(emitted)

    def test_emit_returns_nothing_and_builds_no_event_without_a_listener(self, monkeypatch):
        import repro.trace.recorder as recorder_module

        built = []
        monkeypatch.setattr(
            recorder_module, "TraceEvent", lambda *fields: built.append(fields) or fields
        )
        trace = TraceRecorder()
        assert trace.emit(1.0, EventKind.MESSAGE_SENT, node="a", peer="b", payload="m") is None
        assert len(trace) == 1 and built == []
        trace.add_listener(lambda event: None)
        trace.emit(2.0, EventKind.MESSAGE_DELIVERED, node="b", peer="a", payload="m")
        assert len(built) == 1

    @pytest.mark.parametrize("collection", TraceRecorder.COLLECTIONS)
    def test_a_listener_added_mid_run_sees_every_later_event_as_an_equal_event(self, collection):
        source = make_trace().events
        trace, seen = TraceRecorder(collection), []
        for event in source[:5]:
            trace.emit(event.time, event.kind, event.node, event.peer, event.payload, **event.detail)
        trace.add_listener(seen.append)
        for event in source[5:9]:
            trace.emit(event.time, event.kind, event.node, event.peer, event.payload, **event.detail)
        for event in source[9:]:
            trace.record(event)
        assert seen == list(source[5:])
        assert all(type(event) is TraceEvent for event in seen)
        assert trace.digest() == make_trace().digest()

    def test_a_recorder_rebuilt_from_digest_state_is_read_only(self):
        lean = TraceRecorder("digest")
        lean.extend(make_trace().events)
        rebuilt = TraceRecorder.from_digest_state(
            partial=lean.digest_partial(),
            events=len(lean),
            retained=lean.of_kind(EventKind.DECIDED, EventKind.NODE_CRASHED),
            metrics=StreamingRunMetrics(),
            end_time=lean.end_time(),
        )
        assert rebuilt.digest() == lean.digest() and len(rebuilt) == len(lean)
        assert rebuilt.decisions() == lean.decisions()
        with pytest.raises(TraceUnavailableError, match="read-only"):
            rebuilt.emit(9.0, EventKind.NODE_CRASHED, node="y")
        with pytest.raises(TraceUnavailableError, match="read-only"):
            rebuilt.record(TraceEvent(9.0, EventKind.NODE_CRASHED, node="y"))
        assert len(rebuilt) == len(lean)

    def test_rows_of_filters_on_the_kinds_column_and_follows_appends(self):
        trace = make_trace()
        columns = trace.columns
        sent = list(columns.rows_of(EventKind.MESSAGE_SENT))
        assert sent == [4, 6, 8]
        assert list(columns.rows_of(EventKind.DECIDED, EventKind.NODE_CRASHED)) == [1, 11, 12]
        assert list(columns.rows_of(EventKind.CUSTOM)) == []
        trace.emit(8.0, EventKind.MESSAGE_SENT, node="b", peer="a", payload="m4")
        assert list(columns.rows_of(EventKind.MESSAGE_SENT)) == [4, 6, 8, 13]
        restored = pickle.loads(pickle.dumps(columns))
        assert list(restored.rows_of(EventKind.MESSAGE_SENT)) == [4, 6, 8, 13]
        with pytest.raises(TraceUnavailableError):
            TraceRecorder("digest").columns


class TestPayloadSize:
    def test_none_payload(self):
        assert payload_size(None) == 0

    def test_plain_payload_uses_repr(self):
        assert payload_size("abc") == len(repr("abc"))

    def test_wire_size_hook(self):
        class Sized:
            def wire_size(self):
                return 123

        assert payload_size(Sized()) == 123


class TestMetrics:
    def test_collect_metrics_counts(self):
        metrics = collect_metrics(make_trace())
        assert metrics.messages_sent == 3
        assert metrics.messages_delivered == 2
        assert metrics.decisions == 2
        assert metrics.deciding_nodes == 2
        assert metrics.decided_views == 1
        assert metrics.proposals == 1
        assert metrics.rejections == 1
        assert metrics.failed_instances == 0
        assert metrics.notified_nodes == 1
        assert metrics.speaking_nodes == 2

    def test_decision_times(self):
        metrics = collect_metrics(make_trace())
        assert metrics.first_decision_time == 7.0
        assert metrics.last_decision_time == 7.5
        assert metrics.end_time == 7.5

    def test_no_decisions(self):
        trace = TraceRecorder()
        trace.emit(1.0, EventKind.MESSAGE_SENT, node="a", peer="b", payload="m")
        metrics = collect_metrics(trace)
        assert metrics.decisions == 0
        assert metrics.first_decision_time is None
        assert metrics.max_messages_per_node == 1

    def test_per_node_messages(self):
        metrics = collect_metrics(make_trace())
        assert metrics.per_node_messages == {"a": 2, "b": 1}
        assert metrics.max_messages_per_node == 2

    def test_bytes_sent_positive(self):
        assert collect_metrics(make_trace()).bytes_sent > 0

    def test_as_row_keys(self):
        row = collect_metrics(make_trace()).as_row()
        assert row["messages_sent"] == 3
        assert row["decisions"] == 2
        assert "bytes_sent" in row

    def test_communicating_nodes(self):
        nodes = communicating_nodes(make_trace())
        assert nodes == frozenset({"a", "b", "x"})

    def test_message_pairs(self):
        pairs = message_pairs(make_trace())
        assert pairs == frozenset({("a", "b"), ("b", "a"), ("a", "x")})
