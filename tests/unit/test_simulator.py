"""Unit tests for the discrete-event simulator (network, FD, FIFO, crashes)."""

from __future__ import annotations

import pytest

from repro.failures import CrashSchedule
from repro.graph import KnowledgeGraph
from repro.sim import (
    ConstantLatency,
    EventKind,
    IdleProcess,
    PerfectFailureDetector,
    Process,
    ScriptedFailureDetector,
    SimulationError,
    Simulator,
    UniformLatency,
)
from repro.vtime import VirtualRuntime


class RecorderProcess(Process):
    """Records everything it sees; optionally replies / fans out messages."""

    def __init__(self, node_id, sends_on_start=(), reply=False):
        self.node_id = node_id
        self.sends_on_start = list(sends_on_start)
        self.reply = reply
        self.started = False
        self.received = []
        self.crashes_seen = []
        self.timers = []

    def on_start(self, ctx):
        self.started = True
        ctx.monitor_crash(ctx.graph.neighbours(self.node_id))
        for target, message in self.sends_on_start:
            ctx.send(target, message)

    def on_crash(self, ctx, crashed):
        self.crashes_seen.append((ctx.now(), crashed))

    def on_message(self, ctx, sender, message):
        self.received.append((ctx.now(), sender, message))
        if self.reply:
            ctx.send(sender, ("ack", message))

    def on_timer(self, ctx, tag):
        self.timers.append((ctx.now(), tag))


@pytest.fixture
def pair_graph():
    return KnowledgeGraph([("a", "b"), ("b", "c")])


def make_sim(graph, **kwargs):
    sim = Simulator(graph, **kwargs)
    sim.populate(RecorderProcess)
    return sim


class TestSetup:
    def test_add_process_unknown_node(self, pair_graph):
        sim = Simulator(pair_graph)
        with pytest.raises(SimulationError):
            sim.add_process("zzz", RecorderProcess("zzz"))

    def test_start_requires_all_processes(self, pair_graph):
        sim = Simulator(pair_graph)
        sim.add_process("a", RecorderProcess("a"))
        with pytest.raises(SimulationError):
            sim.start()

    def test_start_twice_rejected(self, pair_graph):
        sim = make_sim(pair_graph)
        sim.start()
        with pytest.raises(SimulationError):
            sim.start()

    def test_add_process_after_start_rejected(self, pair_graph):
        sim = make_sim(pair_graph)
        sim.start()
        with pytest.raises(SimulationError):
            sim.add_process("a", RecorderProcess("a"))

    def test_populate_respects_existing(self, pair_graph):
        sim = Simulator(pair_graph)
        special = RecorderProcess("a")
        sim.add_process("a", special)
        sim.populate(IdleProcess)
        assert sim.process("a") is special
        assert isinstance(sim.process("b"), IdleProcess)

    def test_start_triggers_on_start_for_all(self, pair_graph):
        sim = make_sim(pair_graph)
        sim.start()
        assert all(sim.process(node).started for node in pair_graph.nodes)
        started_events = sim.trace.of_kind(EventKind.NODE_STARTED)
        assert len(started_events) == 3


class TestMessaging:
    def test_message_delivered_with_latency(self, pair_graph):
        sim = Simulator(pair_graph, latency=ConstantLatency(2.0))
        sim.add_process("a", RecorderProcess("a", sends_on_start=[("b", "hello")]))
        sim.add_process("b", RecorderProcess("b"))
        sim.add_process("c", RecorderProcess("c"))
        sim.run()
        received = sim.process("b").received
        assert received == [(2.0, "a", "hello")]

    def test_reply_roundtrip(self, pair_graph):
        sim = Simulator(pair_graph, latency=ConstantLatency(1.0))
        sim.add_process("a", RecorderProcess("a", sends_on_start=[("b", "ping")]))
        sim.add_process("b", RecorderProcess("b", reply=True))
        sim.add_process("c", RecorderProcess("c"))
        sim.run()
        assert sim.process("a").received == [(2.0, "b", ("ack", "ping"))]

    def test_fifo_order_preserved_under_jitter(self):
        graph = KnowledgeGraph([("src", "dst")])
        sim = Simulator(graph, latency=UniformLatency(0.5, 3.0), seed=11)
        messages = [("dst", index) for index in range(20)]
        sim.add_process("src", RecorderProcess("src", sends_on_start=messages))
        sim.add_process("dst", RecorderProcess("dst"))
        sim.run()
        payloads = [message for _, _, message in sim.process("dst").received]
        assert payloads == list(range(20))

    def test_send_to_unknown_node_rejected(self, pair_graph):
        sim = Simulator(pair_graph)
        sim.add_process("a", RecorderProcess("a", sends_on_start=[("zzz", "x")]))
        sim.add_process("b", RecorderProcess("b"))
        sim.add_process("c", RecorderProcess("c"))
        with pytest.raises(SimulationError):
            sim.run()

    def test_message_to_crashed_node_dropped(self, pair_graph):
        sim = Simulator(pair_graph, latency=ConstantLatency(5.0))
        sim.add_process("a", RecorderProcess("a", sends_on_start=[("b", "x")]))
        sim.add_process("b", RecorderProcess("b"))
        sim.add_process("c", RecorderProcess("c"))
        sim.schedule_crash("b", 1.0)
        sim.run()
        assert sim.process("b").received == []
        dropped = sim.trace.of_kind(EventKind.MESSAGE_DROPPED)
        assert len(dropped) == 1
        assert dropped[0].node == "b"

    def test_sent_and_delivered_recorded(self, pair_graph):
        sim = Simulator(pair_graph)
        sim.add_process("a", RecorderProcess("a", sends_on_start=[("b", "x")]))
        sim.add_process("b", RecorderProcess("b"))
        sim.add_process("c", RecorderProcess("c"))
        sim.run()
        assert len(sim.trace.of_kind(EventKind.MESSAGE_SENT)) == 1
        assert len(sim.trace.of_kind(EventKind.MESSAGE_DELIVERED)) == 1


class TestCrashesAndFailureDetector:
    def test_crash_recorded_and_visible(self, pair_graph):
        sim = make_sim(pair_graph)
        sim.schedule_crash("b", 3.0)
        sim.run()
        assert sim.is_crashed("b")
        assert sim.crash_time("b") == 3.0
        assert sim.crashed_nodes == frozenset({"b"})

    def test_crash_twice_is_noop(self, pair_graph):
        sim = make_sim(pair_graph)
        sim.schedule_crash("b", 3.0)
        sim.schedule_crash("b", 4.0)
        sim.run()
        assert len(sim.trace.crashes()) == 1

    def test_crash_of_unknown_node_rejected(self, pair_graph):
        sim = make_sim(pair_graph)
        with pytest.raises(SimulationError):
            sim.schedule_crash("zzz", 1.0)

    def test_subscribers_notified_with_delay(self, pair_graph):
        sim = Simulator(pair_graph, failure_detector=PerfectFailureDetector(2.0))
        sim.populate(RecorderProcess)
        sim.schedule_crash("b", 1.0)
        sim.run()
        # a and c are neighbours of b and monitor it from on_start.
        assert sim.process("a").crashes_seen == [(3.0, "b")]
        assert sim.process("c").crashes_seen == [(3.0, "b")]

    def test_non_subscribers_not_notified(self, pair_graph):
        sim = make_sim(pair_graph)
        sim.schedule_crash("c", 1.0)
        sim.run()
        # a is not a neighbour of c, so it never subscribed to c.
        assert sim.process("a").crashes_seen == []
        assert sim.process("b").crashes_seen == [(2.0, "c")]

    def test_subscription_after_crash_still_notified(self):
        """Strong completeness also covers late subscribers."""
        graph = KnowledgeGraph([("a", "b"), ("b", "c")])

        class LateSubscriber(RecorderProcess):
            def on_crash(self, ctx, crashed):
                super().on_crash(ctx, crashed)
                # After hearing about b, subscribe to c (which already crashed).
                if crashed == "b":
                    ctx.monitor_crash({"c"})

        sim = Simulator(graph, failure_detector=PerfectFailureDetector(1.0))
        sim.add_process("a", LateSubscriber("a"))
        sim.add_process("b", RecorderProcess("b"))
        sim.add_process("c", RecorderProcess("c"))
        sim.schedule_crash("c", 0.5)
        sim.schedule_crash("b", 1.0)
        sim.run()
        seen = [crashed for _, crashed in sim.process("a").crashes_seen]
        assert seen == ["b", "c"]

    def test_notification_deduplicated(self, pair_graph):
        """Subscribing twice to the same node yields one notification."""

        class DoubleSubscriber(RecorderProcess):
            def on_start(self, ctx):
                super().on_start(ctx)
                ctx.monitor_crash({"b"})
                ctx.monitor_crash({"b"})

        sim = Simulator(pair_graph)
        sim.add_process("a", DoubleSubscriber("a"))
        sim.add_process("b", RecorderProcess("b"))
        sim.add_process("c", RecorderProcess("c"))
        sim.schedule_crash("b", 1.0)
        sim.run()
        assert len(sim.process("a").crashes_seen) == 1

    def test_crashed_subscriber_not_notified(self, pair_graph):
        sim = make_sim(pair_graph)
        sim.schedule_crash("a", 0.5)
        sim.schedule_crash("b", 1.0)
        sim.run()
        assert sim.process("a").crashes_seen == []

    def test_scripted_detector_orders_notifications(self):
        graph = KnowledgeGraph([("p", "x"), ("q", "x")])
        detector = ScriptedFailureDetector({("p", "x"): 10.0, ("q", "x"): 1.0})
        sim = Simulator(graph, failure_detector=detector)
        sim.populate(RecorderProcess)
        sim.schedule_crash("x", 1.0)
        sim.run()
        assert sim.process("q").crashes_seen == [(2.0, "x")]
        assert sim.process("p").crashes_seen == [(11.0, "x")]


class TestTimersAndScheduling:
    def test_timer_fires(self, pair_graph):
        class TimerProcess(RecorderProcess):
            def on_start(self, ctx):
                super().on_start(ctx)
                ctx.set_timer(4.0, "wake")

        sim = Simulator(pair_graph)
        sim.add_process("a", TimerProcess("a"))
        sim.add_process("b", RecorderProcess("b"))
        sim.add_process("c", RecorderProcess("c"))
        sim.run()
        assert sim.process("a").timers == [(4.0, "wake")]

    def test_timer_not_fired_for_crashed_node(self, pair_graph):
        class TimerProcess(RecorderProcess):
            def on_start(self, ctx):
                super().on_start(ctx)
                ctx.set_timer(4.0, "wake")

        sim = Simulator(pair_graph)
        sim.add_process("a", TimerProcess("a"))
        sim.add_process("b", RecorderProcess("b"))
        sim.add_process("c", RecorderProcess("c"))
        sim.schedule_crash("a", 1.0)
        sim.run()
        assert sim.process("a").timers == []

    def test_schedule_call(self, pair_graph):
        sim = make_sim(pair_graph)
        calls = []
        sim.schedule_call(2.0, lambda: calls.append(sim.now))
        sim.run()
        assert calls == [2.0]

    def test_run_until_bound(self, pair_graph):
        sim = make_sim(pair_graph)
        sim.schedule_crash("b", 10.0)
        sim.run(until=5.0)
        assert not sim.is_crashed("b")
        assert not sim.is_quiescent()
        sim.run()
        assert sim.is_crashed("b")
        assert sim.is_quiescent()

    def test_determinism_same_seed(self, small_grid):
        def build():
            sim = Simulator(small_grid, latency=UniformLatency(0.5, 2.0), seed=17)
            sim.populate(RecorderProcess)
            sim.schedule_crash((2, 2), 1.0)
            sim.run()
            return [
                (event.time, event.kind, repr(event.node), repr(event.peer))
                for event in sim.trace.events
            ]

        assert build() == build()


def _simulator(graph):
    sim = Simulator(graph)
    return sim, sim.run


def _virtual_runtime(graph):
    runtime = VirtualRuntime(graph)
    return runtime, lambda: runtime.run(CrashSchedule())


@pytest.fixture(params=[_simulator, _virtual_runtime], ids=["Simulator", "VirtualRuntime"])
def substrate(request, pair_graph):
    """``(substrate, run)`` — the same misuse must fail the same way on both."""
    return request.param(pair_graph)


class TestMisuseIsUniform:
    def _run_with(self, substrate, process_at_a):
        runtime, run = substrate
        runtime.add_process("a", process_at_a)
        runtime.add_process("b", RecorderProcess("b"))
        runtime.add_process("c", RecorderProcess("c"))
        run()

    def test_process_lookup_unknown(self, substrate):
        runtime, _run = substrate
        with pytest.raises(SimulationError):
            runtime.process("a")

    def test_monitor_unknown_node_rejected(self, substrate):
        class BadMonitor(RecorderProcess):
            def on_start(self, ctx):
                ctx.monitor_crash({"zzz"})

        with pytest.raises(SimulationError):
            self._run_with(substrate, BadMonitor("a"))

    def test_negative_timer_rejected(self, substrate):
        class BadTimer(RecorderProcess):
            def on_start(self, ctx):
                ctx.set_timer(-1.0, "never")

        with pytest.raises(SimulationError):
            self._run_with(substrate, BadTimer("a"))
        assert substrate[0].process("a").timers == []
