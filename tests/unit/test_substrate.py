"""The substrate kernel on a fake substrate, and the guard against a second copy.

``ManualSubstrate`` supplies the seam with a hand-cranked clock and a
list of deferred callbacks — no scheduler, no event loop — so every test
here exercises :class:`repro.sim.substrate.Substrate` and nothing else.
The structural tests at the bottom fail as soon as a control-plane method
is defined on an adapter again.
"""

from __future__ import annotations

import pytest

from repro.graph import KnowledgeGraph
from repro.runtime import AsyncRuntime
from repro.sim import EventKind, Process, ProcessContext, SimulationError, Simulator
from repro.sim.partition import PartitionSimulator
from repro.sim.substrate import Substrate, SubstrateContext


class ManualSubstrate(Substrate):
    """The kernel over a manual clock; the message path is only a log."""

    def __init__(self, graph, faults=None):
        super().__init__(graph, None, seed=0, faults=faults)
        self.clock = 0.0
        self.deferred = []
        self.sent = []

    def _now(self):
        return self.clock

    def _defer(self, delay, callback, fanout=None):
        self.deferred.append((self.clock + delay, callback))

    _dispatch = Substrate._handle

    def _detector_delay(self, observer, subject):
        return 1.0

    def _send(self, source, target, message):
        offsets = (0.0,)
        if self.faults is not None:
            offsets = self._fault_offsets(source, target, message, self.clock)
            if len(offsets) > 1:
                self._record_duplication(source, target, message, self.clock, len(offsets))
        self.sent.append((source, target, message, offsets))

    def start(self):
        for node in sorted(self._processes, key=repr):
            self._processes[node].on_start(self._contexts[node])

    def advance(self, until):
        """Fire what is due by ``until``, earliest (then oldest) first."""
        while True:
            due = [item for item in self.deferred if item[0] <= until]
            if not due:
                break
            item = min(due, key=lambda entry: entry[0])
            self.deferred.remove(item)
            self.clock, callback = item
            callback()
        self.clock = until


class Watcher(Process):
    """Monitors its neighbours, re-monitors whoever comes back, logs the rest."""

    def __init__(self, node_id):
        self.node_id = node_id
        self.incarnation = 0
        self.crashes, self.changes, self.timers = [], [], []

    def set_incarnation(self, incarnation):
        self.incarnation = incarnation

    def on_start(self, ctx):
        ctx.monitor_crash(ctx.graph.neighbours(self.node_id))
        ctx.set_timer(10.0, f"life-{self.incarnation}")

    def on_crash(self, ctx, crashed):
        self.crashes.append((ctx.now(), crashed))

    def on_message(self, ctx, sender, message):
        raise AssertionError("the fake substrate delivers no messages")

    def on_timer(self, ctx, tag):
        self.timers.append((ctx.now(), tag))

    def on_membership(self, ctx, change):
        self.changes.append((ctx.now(), change.kind, change.node, change.incarnation))
        if change.alive:
            ctx.monitor_crash({change.node})


@pytest.fixture
def substrate():
    fake = ManualSubstrate(KnowledgeGraph([("a", "b"), ("b", "c")]))
    fake.populate(Watcher)
    fake.start()
    return fake


def kinds(substrate, *wanted):
    return [(e.time, e.kind, e.node, e.peer) for e in substrate.trace.events if e.kind in wanted]


class TestStop:
    def test_crash_notifies_subscribers_after_the_detector_delay(self, substrate):
        substrate.advance(1.0)
        substrate._crash("b")
        substrate._crash("b")  # a second crash is a no-op
        substrate.advance(5.0)
        assert substrate.process("a").crashes == [(2.0, "b")]
        assert substrate.process("c").crashes == [(2.0, "b")]
        assert substrate.crashed_nodes == frozenset({"b"})
        assert substrate.crash_time("b") == 1.0
        assert kinds(substrate, EventKind.NODE_CRASHED, EventKind.CRASH_NOTIFIED) == [
            (1.0, EventKind.NODE_CRASHED, "b", None),
            (2.0, EventKind.CRASH_NOTIFIED, "a", "b"),
            (2.0, EventKind.CRASH_NOTIFIED, "c", "b"),
        ]

    def test_stopped_subscribers_are_not_scheduled(self, substrate):
        substrate._crash("a")
        before = len(substrate.deferred)
        substrate._crash("b")  # a and c subscribe to b; a is dead
        assert len(substrate.deferred) == before + 1

    def test_leave_is_an_announced_permanent_stop(self, substrate):
        substrate.advance(1.0)
        substrate._leave("c")
        substrate.advance(3.0)
        assert substrate.process("b").crashes == [(2.0, "c")]
        assert substrate.departed_nodes == frozenset({"c"})
        assert not substrate.is_crashed("c")
        assert kinds(substrate, EventKind.NODE_LEFT) == [(1.0, EventKind.NODE_LEFT, "c", None)]
        with pytest.raises(SimulationError):
            substrate._recover("c", None)

    def test_unknown_node_cannot_stop(self, substrate):
        with pytest.raises(SimulationError):
            substrate._crash("zzz")


class TestEnter:
    def test_recover_drops_what_was_aimed_at_the_previous_life(self, substrate):
        substrate.advance(0.5)
        substrate._crash("a")  # b is told at 1.5 — but b's first life ends at 1.0
        substrate.advance(1.0)
        substrate._crash("b")
        substrate.advance(1.25)
        old_b = substrate.process("b")
        substrate._recover("b", None)
        substrate.advance(30.0)
        new_b = substrate.process("b")
        assert new_b is not old_b and new_b.incarnation == 1
        assert substrate.membership_epoch == 1
        # The stale notification (incarnation 0) was dropped; the fresh
        # life re-subscribed at 1.25 and is told once, a delay later.
        assert old_b.crashes == []
        assert new_b.crashes == [(2.25, "a")]
        # Likewise the first life's timer never fires, the second's does.
        assert old_b.timers == []
        assert new_b.timers == [(11.25, "life-1")]

    def test_recover_announces_to_the_old_watchers(self, substrate):
        substrate.advance(1.0)
        substrate._crash("b")
        substrate.advance(1.5)
        substrate._recover("b", None)
        substrate.advance(4.0)
        # b came back before its crash notification (due 2.0) fired: the
        # announcement supersedes it at both watchers.
        for watcher in ("a", "c"):
            assert substrate.process(watcher).crashes == []
            assert substrate.process(watcher).changes == [(2.5, "recover", "b", 1)]
        # Event order inside "enter" is part of every digest.
        entering = [e.kind for e in substrate.trace.events if e.node == "b" and e.time == 1.5]
        assert entering == [
            EventKind.NODE_RECOVERED, EventKind.NODE_STARTED, EventKind.CRASH_MONITORED
        ]

    def test_a_recrash_is_notifiable_again(self, substrate):
        substrate.advance(1.0)
        substrate._crash("b")
        substrate.advance(3.0)
        substrate._recover("b", None)
        substrate.advance(5.0)  # watchers re-monitor on the announcement (4.0)
        substrate._crash("b")
        substrate.advance(7.0)
        assert substrate.process("a").crashes == [(2.0, "b"), (6.0, "b")]

    def test_join_attaches_starts_and_announces(self, substrate):
        substrate.advance(2.0)
        substrate._join("d", ["c"])
        substrate.advance(4.0)
        assert "d" in substrate.graph and substrate.graph.neighbours("d") == {"c"}
        assert substrate.process("d").incarnation == 1
        assert substrate.process("c").changes == [(3.0, "join", "d", 1)]
        with pytest.raises(SimulationError):
            substrate._join("d", ["c"])
        with pytest.raises(SimulationError):
            substrate._join("e", [])

    def test_live_node_cannot_recover(self, substrate):
        with pytest.raises(SimulationError):
            substrate._recover("a", None)


class RecordingFaults:
    """Loses each channel's second message and doubles its third."""

    def __init__(self):
        self.asked = []

    def deliveries(self, source, target, sequence, seed):
        self.asked.append((source, target, sequence))
        return {1: (), 2: (0.0, 0.5)}.get(sequence, (0.0,))


def test_fault_decision_counts_every_send_per_channel():
    faults = RecordingFaults()
    fake = ManualSubstrate(KnowledgeGraph([("a", "b")]), faults=faults)
    for message in range(4):
        fake._send("a", "b", message)
    fake._send("b", "a", "other channel")
    assert faults.asked == [("a", "b", n) for n in range(4)] + [("b", "a", 0)]
    assert [offsets for *_rest, offsets in fake.sent] == [(0.0,), (), (0.0, 0.5), (0.0,), (0.0,)]
    lost = fake.trace.of_kind(EventKind.MESSAGE_LOST)
    doubled = fake.trace.of_kind(EventKind.MESSAGE_DUPLICATED)
    assert [(e.node, e.peer, e.payload) for e in lost] == [("a", "b", 1)]
    assert [(e.node, e.peer, e.payload) for e in doubled] == [("a", "b", 2)]


# ---------------------------------------------------------------------------
# One copy: the control plane lives on the kernel and nowhere else
# ---------------------------------------------------------------------------
CONTROL_PLANE = {
    "_join", "_recover", "_leave", "_crash", "_stop", "_enter", "_activate", "_announce",
    "_notify_membership", "_notify_crash", "_fire_timer", "_monitor", "_schedule_notification",
    "_set_timer", "_resolve_attachment", "_inc", "_current", "_handle", "_fault_offsets",
    "_record_duplication", "process",
}
#: What a partition may override of the kernel (docs/ARCHITECTURE.md, seam table).
PARTITION_HOOKS = {"_delivers_to", "_admit", "_activate", "_defer", "populate"}


@pytest.mark.parametrize("adapter", [Simulator, AsyncRuntime])
def test_adapters_define_no_control_plane(adapter):
    assert CONTROL_PLANE <= set(vars(Substrate))
    assert not CONTROL_PLANE & set(vars(adapter))


def test_partition_overrides_only_the_documented_hooks():
    kernel = {name for name, value in vars(Substrate).items() if callable(value)}
    overridden = kernel & set(vars(PartitionSimulator)) - {"__init__"}
    assert overridden == PARTITION_HOOKS


def test_every_substrate_hands_out_the_one_context():
    graph = KnowledgeGraph([("a", "b")])
    for substrate in (Simulator(graph), AsyncRuntime(graph), ManualSubstrate(graph)):
        substrate.populate(Watcher)
        context = substrate._contexts["a"]
        assert type(context) is SubstrateContext
        assert isinstance(context, ProcessContext)
