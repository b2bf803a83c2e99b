"""Unit tests for canonical trace digests (repro.trace.digest)."""

from __future__ import annotations

import collections
import copy
import dataclasses
import enum
import gc
import importlib.util
import json
import pickle
import subprocess
import sys
import types
import weakref
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.api import run_spec_json
from repro.core.opinions import Accept
from repro.graph import Region
from repro.sim.events import EventKind, TraceEvent
from repro.trace import (
    StreamingTraceDigest,
    TraceRecorder,
    canonical_text,
    combine_digests,
    trace_digest,
)
from repro.trace.digest import _MEMO_CAP
from tests.support import record_all, reference_canonical_text, reference_trace_digest

ROOT = Path(__file__).resolve().parents[2]


class Colour(enum.Enum):
    RED = 1


class Word(str, enum.Enum):
    HELLO = "hello"


class Level(enum.IntEnum):
    LOW = 1


Point = collections.namedtuple("Point", "x y")


@dataclasses.dataclass(frozen=True)
class Frozen:
    left: object
    right: object = None


@dataclasses.dataclass
class Thawed:
    item: object
    other: object = 0


#: Values whose ``==``/``hash`` classes cut across their renderings.
atoms = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.sampled_from([0.0, -0.0, 1.0, 2.0, 2.5, float("nan"), float("inf")]),
    st.text(max_size=3),
    st.binary(max_size=3),
    st.sampled_from([Colour.RED, Word.HELLO, Level.LOW]),
)
hashable_values = st.recursive(
    atoms,
    lambda inner: st.one_of(
        st.tuples(inner, inner),
        st.frozensets(inner, max_size=3),
        st.builds(Point, inner, inner),
        st.builds(Frozen, inner, inner),
        st.builds(Accept, inner),
    ),
    max_leaves=8,
)
any_values = st.recursive(
    hashable_values,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.sets(hashable_values, max_size=3),
        st.dictionaries(hashable_values, inner, max_size=3),
        st.dictionaries(hashable_values, inner, max_size=3).map(collections.OrderedDict),
        st.dictionaries(hashable_values, inner, max_size=3).map(types.MappingProxyType),
        st.tuples(inner, inner),
        st.builds(Frozen, inner, inner),
        st.builds(Thawed, inner, inner),
    ),
    max_leaves=12,
)


class TestCanonicalText:
    def test_primitives(self):
        assert canonical_text(None) == "None"
        assert canonical_text(3) == "3"
        assert canonical_text(2.5) == "2.5"
        assert canonical_text("x") == "'x'"

    def test_sets_are_sorted(self):
        assert canonical_text(frozenset({"b", "a"})) == canonical_text({"a", "b"})
        assert canonical_text({3, 1, 2}) == "{1, 2, 3}"

    def test_mappings_are_sorted_by_key(self):
        assert canonical_text({"b": 1, "a": 2}) == canonical_text(
            dict([("a", 2), ("b", 1)])
        )

    def test_dataclasses_render_in_field_order(self):
        region = Region(frozenset({(1, 2), (0, 0)}))
        text = canonical_text(region)
        assert text.startswith("Region(members=")
        assert canonical_text(Region(frozenset({(0, 0), (1, 2)}))) == text

    def test_enum(self):
        assert canonical_text(EventKind.DECIDED) == "EventKind.DECIDED"

    def test_nested_event(self):
        event = TraceEvent(
            time=1.0,
            kind=EventKind.MESSAGE_SENT,
            node="a",
            peer="b",
            payload=frozenset({"y", "x"}),
            detail={"k": {"z", "a"}},
        )
        assert canonical_text(event) == canonical_text(
            TraceEvent(
                time=1.0,
                kind=EventKind.MESSAGE_SENT,
                node="a",
                peer="b",
                payload=frozenset({"x", "y"}),
                detail={"k": {"a", "z"}},
            )
        )


class TestFastDispatchEqualsReference:
    """The exact-type dispatch is an optimisation of the ``isinstance``
    chain (kept in ``tests/support.py``), never a second definition."""

    @given(any_values)
    @example((1, 2))
    @example((1.0, 2.0))
    @example((True, 2))
    @example([1, 1.0, True, -0.0, 0.0, float("nan")])
    @example({Word.HELLO: Level.LOW, "hello": 1})
    @example(Point(Frozen({1, 2}), Thawed([Point(1, 1.0)])))
    @example(types.MappingProxyType({(1, 2): frozenset({Accept(1), Accept(True)})}))
    @example(collections.OrderedDict([("b", {2, 1}), ("a", frozenset({2, 1}))]))
    @example(Thawed)
    @settings(max_examples=300, deadline=None)
    def test_canonical_text_equals_isinstance_chain(self, value):
        assert canonical_text(value) == reference_canonical_text(value)

    @given(any_values)
    @settings(max_examples=100, deadline=None)
    def test_event_line_equals_isinstance_chain(self, value):
        event = TraceEvent(
            time=1.5, kind=EventKind.CUSTOM, node=(0, 1), payload=value, detail={"k": value}
        )
        assert canonical_text(event) == reference_canonical_text(event)
        assert record_all([event]).digest() == reference_trace_digest([event])
        assert trace_digest([event, event]) == reference_trace_digest([event, event])


class TestMemoSoundness:
    """The rules of the ``repro.trace.digest`` docstring, enforced."""

    def test_equal_hashing_payloads_render_apart(self):
        """A memo keyed by ``==``/``hash`` would render the second of each
        pair with the first one's text."""
        payloads = [
            (1, 2), (1.0, 2.0), (True, 2), Accept(1), Accept(True), Accept(1.0),
            frozenset({1}), frozenset({1.0}), Frozen((0, 1)), Frozen((0.0, True)),
        ]
        assert len(set(payloads)) < len(payloads)  # they do collide by value
        assert len({reference_canonical_text(p) for p in payloads}) == len(payloads)
        events = [
            TraceEvent(time=float(index), kind=kind, node="a", peer="b", payload=payload)
            for kind in (EventKind.MESSAGE_SENT, EventKind.MESSAGE_DELIVERED)
            for index, payload in enumerate(payloads)
        ]
        expected = reference_trace_digest(events)
        assert record_all(events).digest() == expected
        assert record_all(events, "digest").digest() == expected
        assert trace_digest(events) == expected

    def test_mutable_values_are_never_memoised(self):
        """One ``list``/``dict``/``set``/non-frozen dataclass object, mutated
        between two events, must render its value at each event."""
        shared_list, shared_dict, shared_set, thawed = [1], {"k": 1}, {1}, Thawed(1)
        stream = StreamingTraceDigest()
        snapshots = []
        for step in (2, 3):
            for payload in (shared_list, shared_set, thawed):
                event = TraceEvent(
                    time=float(step), kind=EventKind.CUSTOM, node="a",
                    payload=payload, detail=shared_dict,
                )
                stream.update(event)
                snapshots.append(copy.deepcopy(event))
            shared_list.append(step)
            shared_dict["k"] = step
            shared_set.add(step)
            thawed.item = step
        assert stream.hexdigest() == reference_trace_digest(snapshots)

    def test_payloads_created_and_dropped_while_streaming(self):
        """Id reuse: a dropped payload's address is handed to the next one,
        which must not inherit its text (the memo's keep-alive reference)."""
        def events():
            for index in range(3 * _MEMO_CAP):
                yield TraceEvent(
                    time=float(index), kind=EventKind.CUSTOM, node=index % 3,
                    payload=(index, str(index)),  # a fresh object every time
                )

        stream = StreamingTraceDigest()
        for event in events():  # each payload is dropped before the next exists
            stream.update(event)
        assert stream.hexdigest() == reference_trace_digest(events())

    def test_streaming_memo_is_capped_and_releases_payloads(self):
        """``collection="digest"`` keeps no event log — and no payload log."""
        recorder = TraceRecorder(collection="digest")
        reference = []
        first = Frozen("first")
        dropped = weakref.ref(first)
        recorder.emit(0.0, EventKind.MESSAGE_SENT, node="a", peer="b", payload=first)
        reference.append(TraceEvent(0.0, EventKind.MESSAGE_SENT, "a", "b", Frozen("first")))
        del first
        for index in range(1, 2 * _MEMO_CAP):
            message = Frozen(index, (index, "x"))
            for kind in (EventKind.MESSAGE_SENT, EventKind.MESSAGE_DELIVERED):
                recorder.emit(float(index), kind, node="a", peer="b", payload=message)
                reference.append(TraceEvent(float(index), kind, "a", "b", message))
        assert len(recorder._digest_stream._memo) <= _MEMO_CAP
        gc.collect()
        assert dropped() is None
        assert recorder.digest() == reference_trace_digest(reference)

    def test_batch_fold_leaves_no_state_on_the_recorder(self):
        """Memo tables are per fold: the pickled trace (the ledger's exact
        ``trace.columns.pickle_bytes``) is the same before and after."""
        recorder = record_all(
            TraceEvent(
                time=float(index), kind=EventKind.CUSTOM, node=(index, index),
                payload=Region(frozenset({index})),
            )
            for index in range(50)
        )
        before = pickle.dumps(recorder, pickle.HIGHEST_PROTOCOL)
        attributes = set(vars(recorder))
        recorder.digest()
        assert set(vars(recorder)) == attributes
        assert pickle.dumps(recorder, pickle.HIGHEST_PROTOCOL) == before


class TestColumnFold:
    def test_empty_trace_and_global_events(self):
        assert TraceRecorder().digest() == reference_trace_digest([])
        events = [
            TraceEvent(time=0.0, kind=EventKind.CUSTOM),  # node=None
            TraceEvent(time=1.0, kind=EventKind.CUSTOM, node="a", peer=None),
            TraceEvent(time=2.0, kind=EventKind.CUSTOM, peer="a", detail={"x": 1}),
        ]
        expected = reference_trace_digest(events)
        assert record_all(events).digest() == expected
        assert record_all(events, "digest").digest() == expected
        assert record_all(events).digest(EventKind.DECIDED) == reference_trace_digest([])


def load_ledger_module(name: str):
    """A module of ``benchmarks/ledger`` by path (read-only use)."""
    spec = importlib.util.spec_from_file_location(
        f"ledger_{name}", ROOT / "benchmarks" / "ledger" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LEDGER_SMOKE = json.loads((ROOT / "benchmarks" / "ledger" / "expected.json").read_text())["smoke"]


class TestLedgerPinnedDigests:
    """Digest drift must fail ``pytest``, not only the perf ledger: rerun
    the ledger's seed-0 ``--smoke`` documents and compare with the digests
    ``benchmarks/ledger/expected.json`` pins (``service_mixed`` pins
    counts only; its digests are checked against local runs by the ledger)."""

    @pytest.mark.parametrize(
        "workload", [name for name, pinned in LEDGER_SMOKE.items() if "digest" in pinned]
    )
    def test_smoke_digest_is_reproduced(self, workload):
        plan = load_ledger_module("workloads").generate(workload, 0, "smoke")
        # The sequential twin where there is one: partitioned == sequential
        # and workers=2 == workers=1 are the determinism suites' business.
        document = plan.get("reference_document", plan["document"])
        result = run_spec_json(document)
        assert result.digest() == LEDGER_SMOKE[workload]["digest"]
        if workload != "sweep_torus32":
            assert len(result.trace) == LEDGER_SMOKE[workload]["units"]


class TestTraceDigest:
    def test_digest_changes_with_content(self):
        recorder = TraceRecorder()
        recorder.emit(0.0, EventKind.NODE_STARTED, node="a")
        first = recorder.digest()
        recorder.emit(1.0, EventKind.NODE_CRASHED, node="a")
        assert recorder.digest() != first

    def test_kind_filter(self):
        recorder = TraceRecorder()
        recorder.emit(0.0, EventKind.NODE_STARTED, node="a")
        recorder.emit(1.0, EventKind.DECIDED, node="a", payload="v")
        other = TraceRecorder()
        other.emit(0.5, EventKind.NODE_STARTED, node="b")
        other.emit(1.0, EventKind.DECIDED, node="a", payload="v")
        assert recorder.digest() != other.digest()
        assert recorder.digest(EventKind.DECIDED) == other.digest(EventKind.DECIDED)

    def test_trace_digest_matches_recorder_digest(self):
        recorder = TraceRecorder()
        recorder.emit(0.0, EventKind.NODE_STARTED, node="a")
        assert trace_digest(recorder.events) == recorder.digest()

    def test_combine_digests_is_order_sensitive(self):
        assert combine_digests(["a", "b"]) != combine_digests(["b", "a"])
        assert combine_digests([]) == combine_digests([])


_CHILD_SCRIPT = """
import sys
sys.path.insert(0, {src!r})
from repro.experiments import run_cliff_edge
from repro.failures import region_crash
from repro.graph.generators import grid
graph = grid(5, 5)
schedule = region_crash(graph, [(1, 1), (1, 2)], at=1.0)
print(run_cliff_edge(graph, schedule, seed=3).digest())
"""


class TestHashSeedIndependence:
    def test_digest_survives_different_hash_seeds(self):
        """The whole point: digests must compare across interpreters.

        ``frozenset``/``dict`` iteration order varies with
        PYTHONHASHSEED, which differs between independently *spawned*
        workers; a repr-based digest would diverge.
        """
        src = str(Path(__file__).resolve().parents[2] / "src")
        digests = set()
        for hash_seed in ("1", "2"):
            result = subprocess.run(
                [sys.executable, "-c", _CHILD_SCRIPT.format(src=src)],
                capture_output=True,
                text=True,
                env={"PYTHONHASHSEED": hash_seed, "PATH": "/usr/bin:/bin"},
                check=True,
            )
            digests.add(result.stdout.strip())
        assert len(digests) == 1
