"""Unit tests for the CliffEdgeNode state machine (Algorithm 1).

These tests drive a single protocol node by hand through a
:class:`tests.support.FakeContext`, checking each block of the pseudocode
in isolation: view construction (lines 5-11), instance start (12-17),
opinion updates (18-25), rejection (26-31) and round completion / decision
(32-40).
"""

from __future__ import annotations

import pytest

from repro.core import (
    REJECT,
    Accept,
    CliffEdgeNode,
    ConstantValuePolicy,
    ProtocolError,
    RoundMessage,
)
from repro.graph import KnowledgeGraph, Region
from repro.sim import EventKind

from tests.support import FakeContext, deliver_own_multicast


@pytest.fixture
def line_graph():
    return KnowledgeGraph([("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")])


@pytest.fixture
def star_graph():
    """x is surrounded by p, q, r (border of {x} has three nodes)."""
    return KnowledgeGraph([("x", "p"), ("x", "q"), ("x", "r"), ("p", "q"), ("q", "r")])


def make_node(node_id, **kwargs):
    return CliffEdgeNode(node_id, decision_policy=ConstantValuePolicy("act"), **kwargs)


class TestStartup:
    def test_on_start_monitors_own_border(self, line_graph):
        node = make_node("b")
        ctx = FakeContext(line_graph, "b")
        node.on_start(ctx)
        assert ctx.monitored == {"a", "c"}

    def test_initial_state(self, line_graph):
        node = make_node("b")
        assert node.decided is None
        assert node.proposed is None
        assert not node.has_decided
        assert node.known_crashed_region() == frozenset()
        assert "idle" in node.describe_state()


class TestViewConstruction:
    def test_crash_updates_local_view_and_monitoring(self, line_graph):
        node = make_node("b")
        ctx = FakeContext(line_graph, "b")
        node.on_start(ctx)
        node.on_crash(ctx, "c")
        assert node.known_crashed_region() == frozenset({"c"})
        # border(c) = {b, d}; b and already-crashed nodes are excluded.
        assert "d" in ctx.monitored
        assert node.max_view == Region(frozenset({"c"}))

    def test_own_crash_notification_is_a_bug(self, line_graph):
        node = make_node("b")
        ctx = FakeContext(line_graph, "b")
        node.on_start(ctx)
        with pytest.raises(ProtocolError):
            node.on_crash(ctx, "b")

    def test_duplicate_crash_notification_ignored(self, line_graph):
        node = make_node("b")
        ctx = FakeContext(line_graph, "b")
        node.on_start(ctx)
        node.on_crash(ctx, "c")
        proposals_before = node.instances_started
        node.on_crash(ctx, "c")
        assert node.instances_started == proposals_before

    def test_growing_region_raises_max_view(self, line_graph):
        node = make_node("b")
        ctx = FakeContext(line_graph, "b")
        node.on_start(ctx)
        node.on_crash(ctx, "c")
        node.on_crash(ctx, "d")
        assert node.max_view == Region(frozenset({"c", "d"}))
        assert node.known_crashed_region() == frozenset({"c", "d"})

    def test_disjoint_components_pick_highest_ranked(self, line_graph):
        node = make_node("c")
        ctx = FakeContext(line_graph, "c")
        node.on_start(ctx)
        node.on_crash(ctx, "b")
        node.on_crash(ctx, "d")
        # {b} and {d} are disjoint singletons; the ranking breaks the tie
        # deterministically, and the proposal is one of the two.
        assert node.max_view.members in ({"b"}, {"d"})
        assert len(node.max_view) == 1


class TestInstanceStart:
    def test_proposal_multicast_to_border(self, line_graph):
        node = make_node("b")
        ctx = FakeContext(line_graph, "b")
        node.on_start(ctx)
        node.on_crash(ctx, "c")
        targets, message = ctx.last_multicast()
        assert set(targets) == {"b", "d"}
        assert isinstance(message, RoundMessage)
        assert message.round == 1
        assert message.view == Region(frozenset({"c"}))
        assert message.border == frozenset({"b", "d"})
        assert message.opinions["b"] == Accept("act")
        assert message.opinions["d"] is None
        assert node.proposed == "act"
        assert node.instances_started == 1

    def test_proposed_event_recorded(self, line_graph):
        node = make_node("b")
        ctx = FakeContext(line_graph, "b")
        node.on_start(ctx)
        node.on_crash(ctx, "c")
        assert EventKind.VIEW_PROPOSED in ctx.recorded_kinds()

    def test_no_second_proposal_while_instance_active(self, line_graph):
        node = make_node("b")
        ctx = FakeContext(line_graph, "b")
        node.on_start(ctx)
        node.on_crash(ctx, "c")
        node.on_crash(ctx, "d")
        # The bigger candidate is queued but not proposed yet (line 12 needs
        # proposed = ⊥, which only happens after the current instance ends).
        assert node.instances_started == 1
        assert node.candidate_view == Region(frozenset({"c", "d"}))


class TestSingleBorderInstance:
    def test_single_border_node_decides_alone(self, line_graph):
        """|border(V)| = 1: the edge case the paper's pseudocode glosses over."""
        node = make_node("b")
        ctx = FakeContext(line_graph, "b")
        node.on_start(ctx)
        node.on_crash(ctx, "a")
        targets, _ = ctx.last_multicast()
        assert set(targets) == {"b"}
        deliver_own_multicast(node, ctx)
        assert node.has_decided
        assert node.decided_view == Region(frozenset({"a"}))
        assert node.decided == "act"


class TestDecision:
    def test_two_border_nodes_decide_after_one_round(self, line_graph):
        node = make_node("b")
        ctx = FakeContext(line_graph, "b")
        node.on_start(ctx)
        node.on_crash(ctx, "c")
        deliver_own_multicast(node, ctx)
        assert not node.has_decided
        view = Region(frozenset({"c"}))
        border = frozenset({"b", "d"})
        node.on_message(
            ctx, "d", RoundMessage(1, view, border, {"d": Accept("act"), "b": None})
        )
        assert node.has_decided
        assert node.decided_view == view
        decided_events = [e for e in ctx.records if e.kind is EventKind.DECIDED]
        assert len(decided_events) == 1
        assert decided_events[0].payload == view

    def test_on_decide_callback(self, line_graph):
        calls = []
        node = CliffEdgeNode(
            "b",
            decision_policy=ConstantValuePolicy("act"),
            on_decide=lambda view, value: calls.append((view, value)),
        )
        ctx = FakeContext(line_graph, "b")
        node.on_start(ctx)
        node.on_crash(ctx, "a")
        deliver_own_multicast(node, ctx)
        assert calls == [(Region(frozenset({"a"})), "act")]

    def test_decided_node_never_proposes_again(self, line_graph):
        node = make_node("b")
        ctx = FakeContext(line_graph, "b")
        node.on_start(ctx)
        node.on_crash(ctx, "a")
        deliver_own_multicast(node, ctx)
        assert node.has_decided
        started = node.instances_started
        node.on_crash(ctx, "c")
        assert node.instances_started == started
        assert node.candidate_view is not None  # view construction continues

    def test_deterministic_pick_over_received_values(self, star_graph):
        """The decision value is picked from the full accept vector."""
        node = CliffEdgeNode("p")  # default coordinator-election policy
        ctx = FakeContext(star_graph, "p")
        node.on_start(ctx)
        node.on_crash(ctx, "x")
        deliver_own_multicast(node, ctx)
        view = Region(frozenset({"x"}))
        border = frozenset({"p", "q", "r"})
        own = node.proposed
        q_value, r_value = object(), object()
        from repro.core import ProposedRepair

        q_value = ProposedRepair(coordinator="q", view=view)
        r_value = ProposedRepair(coordinator="r", view=view)
        node.on_message(
            ctx, "q", RoundMessage(1, view, border, {"q": Accept(q_value)})
        )
        node.on_message(
            ctx, "r", RoundMessage(1, view, border, {"r": Accept(r_value)})
        )
        # Round 1 is complete; p multicasts round 2 — deliver it to itself,
        # then relay q's and r's round-2 messages.
        deliver_own_multicast(node, ctx)
        full = {"p": Accept(own), "q": Accept(q_value), "r": Accept(r_value)}
        node.on_message(ctx, "q", RoundMessage(2, view, border, full))
        node.on_message(ctx, "r", RoundMessage(2, view, border, full))
        assert node.has_decided
        # 'p' < 'q' < 'r' by repr, so the coordinator elected is p itself.
        assert node.decided.coordinator == "p"


class TestRounds:
    def test_three_border_nodes_need_two_rounds(self, star_graph):
        node = make_node("p")
        ctx = FakeContext(star_graph, "p")
        node.on_start(ctx)
        node.on_crash(ctx, "x")
        deliver_own_multicast(node, ctx)
        view = Region(frozenset({"x"}))
        border = frozenset({"p", "q", "r"})
        node.on_message(ctx, "q", RoundMessage(1, view, border, {"q": Accept("act")}))
        assert node.round == 1
        node.on_message(ctx, "r", RoundMessage(1, view, border, {"r": Accept("act")}))
        # Round 1 complete -> round 2 multicast goes out, carrying the
        # accumulated round-1 vector.
        assert node.round == 2
        targets, message = ctx.last_multicast()
        assert message.round == 2
        assert set(message.opinions) == {"p", "q", "r"}
        assert not node.has_decided

    def test_round_completed_event(self, star_graph):
        node = make_node("p")
        ctx = FakeContext(star_graph, "p")
        node.on_start(ctx)
        node.on_crash(ctx, "x")
        deliver_own_multicast(node, ctx)
        view = Region(frozenset({"x"}))
        border = frozenset({"p", "q", "r"})
        node.on_message(ctx, "q", RoundMessage(1, view, border, {"q": Accept("act")}))
        node.on_message(ctx, "r", RoundMessage(1, view, border, {"r": Accept("act")}))
        assert EventKind.ROUND_COMPLETED in ctx.recorded_kinds()

    def test_crashed_participants_not_waited_for(self, star_graph):
        node = make_node("p")
        ctx = FakeContext(star_graph, "p")
        node.on_start(ctx)
        node.on_crash(ctx, "x")
        deliver_own_multicast(node, ctx)
        view = Region(frozenset({"x"}))
        border = frozenset({"p", "q", "r"})
        node.on_message(ctx, "q", RoundMessage(1, view, border, {"q": Accept("act")}))
        # r crashes; p no longer waits for it and completes round 1, but the
        # final vector still has ⊥ for r, so the instance eventually fails
        # rather than deciding without r's opinion.
        node.on_crash(ctx, "r")
        assert node.round == 2
        node.on_message(
            ctx,
            "q",
            RoundMessage(2, view, border, {"q": Accept("act"), "p": Accept("act")}),
        )
        deliver_own_multicast(node, ctx)
        assert not node.has_decided
        assert node.instances_failed == 1
        # r's crash also grew the locally known region to {x, r}, so the
        # failed instance is immediately followed by a proposal of that
        # bigger view (lines 37 then 12).
        assert node.instances_started == 2
        assert node.current_view == Region(frozenset({"x", "r"}))


class TestRejection:
    @pytest.fixture
    def conflict_graph(self):
        """x has border {p, q, r}; y has border {p, s}.

        When both crash, a node proposing {x} outranks {y} (same size,
        bigger border), so p must reject s's proposal of {y}.
        """
        return KnowledgeGraph(
            [("x", "p"), ("x", "q"), ("x", "r"), ("y", "p"), ("y", "s"), ("q", "s")]
        )

    def _propose_x_then_receive_y(self, conflict_graph):
        node = make_node("p")
        ctx = FakeContext(conflict_graph, "p")
        node.on_start(ctx)
        node.on_crash(ctx, "x")
        assert node.current_view == Region(frozenset({"x"}))
        lower_view = Region(frozenset({"y"}))
        lower_border = conflict_graph.border(lower_view.members)
        ctx.clear()
        node.on_message(
            ctx, "s", RoundMessage(1, lower_view, lower_border, {"s": Accept("act")})
        )
        return node, ctx, lower_view, lower_border

    def test_lower_ranked_received_view_is_rejected(self, conflict_graph):
        node, ctx, lower_view, lower_border = self._propose_x_then_receive_y(conflict_graph)
        targets, message = ctx.last_multicast()
        assert set(targets) == set(lower_border)
        assert message.view == lower_view
        assert message.opinions["p"] is REJECT
        assert lower_view in node.rejected
        assert lower_view not in node.received
        assert EventKind.VIEW_REJECTED in ctx.recorded_kinds()

    def test_rejected_view_messages_ignored(self, conflict_graph):
        node, ctx, lower_view, lower_border = self._propose_x_then_receive_y(conflict_graph)
        ctx.clear()
        node.on_message(
            ctx, "s", RoundMessage(1, lower_view, lower_border, {"s": Accept("act")})
        )
        assert ctx.multicasts == []
        assert lower_view not in node.received
        assert lower_view in node.rejected

    def test_equal_or_higher_views_not_rejected(self, line_graph):
        node = make_node("b")
        ctx = FakeContext(line_graph, "b")
        node.on_start(ctx)
        node.on_crash(ctx, "c")
        bigger_view = Region(frozenset({"c", "d"}))
        bigger_border = line_graph.border(bigger_view.members)
        ctx.clear()
        node.on_message(ctx, "e", RoundMessage(1, bigger_view, bigger_border, {}))
        assert bigger_view in node.received
        assert bigger_view not in node.rejected
        # No rejection multicast was sent for it.
        assert all(message.view != bigger_view or not message.is_rejection()
                   for _, message in ctx.multicasts)

    def test_arbitration_can_be_disabled(self, line_graph):
        node = make_node("c", arbitration_enabled=False)
        ctx = FakeContext(line_graph, "c")
        node.on_start(ctx)
        node.on_crash(ctx, "b")
        node.on_crash(ctx, "d")
        other_member = ({"b", "d"} - set(node.current_view.members)).pop()
        other_view = Region(frozenset({other_member}))
        other_border = line_graph.border(other_view.members)
        ctx.clear()
        node.on_message(ctx, min(other_border, key=repr), RoundMessage(1, other_view, other_border, {}))
        assert other_view in node.received
        assert other_view not in node.rejected

    def test_incoming_reject_fails_the_instance(self, line_graph):
        node = make_node("b")
        ctx = FakeContext(line_graph, "b")
        node.on_start(ctx)
        node.on_crash(ctx, "c")
        deliver_own_multicast(node, ctx)
        view = Region(frozenset({"c"}))
        border = frozenset({"b", "d"})
        node.on_message(ctx, "d", RoundMessage(1, view, border, {"d": REJECT}))
        assert not node.has_decided
        assert node.proposed is None
        assert node.instances_failed == 1
        assert EventKind.INSTANCE_FAILED in ctx.recorded_kinds()

    def test_failed_instance_retries_with_bigger_candidate(self, line_graph):
        node = make_node("b")
        ctx = FakeContext(line_graph, "b")
        node.on_start(ctx)
        node.on_crash(ctx, "c")
        deliver_own_multicast(node, ctx)
        # A bigger crashed region becomes known while the instance runs.
        node.on_crash(ctx, "d")
        view = Region(frozenset({"c"}))
        border = frozenset({"b", "d"})
        node.on_message(ctx, "d", RoundMessage(1, view, border, {"d": REJECT}))
        # The failed instance is immediately followed by a proposal of the
        # bigger candidate view {c, d}.
        assert node.proposed is not None
        assert node.current_view == Region(frozenset({"c", "d"}))
        assert node.instances_started == 2


class TestMessageValidation:
    def test_non_round_message_rejected(self, line_graph):
        node = make_node("b")
        ctx = FakeContext(line_graph, "b")
        node.on_start(ctx)
        with pytest.raises(ProtocolError):
            node.on_message(ctx, "a", "not-a-protocol-message")

    def test_out_of_range_round_rejected(self, line_graph):
        node = make_node("b")
        ctx = FakeContext(line_graph, "b")
        node.on_start(ctx)
        view = Region(frozenset({"c"}))
        border = frozenset({"b", "d"})
        with pytest.raises(ProtocolError):
            node.on_message(ctx, "d", RoundMessage(5, view, border, {}))


class TestOnDemandState:
    """The eight containers of Algorithm 1 appear when first read, so a node
    the cliff edge never reaches holds none of them."""

    CONTAINERS = (
        "locally_crashed", "received", "rejected", "opinions", "waiting",
        "instance_border", "complete_senders", "instance_attempt",
    )  # fmt: skip

    def test_a_fresh_node_holds_none_and_reads_all_as_empty(self):
        node = make_node("b")
        assert not vars(node).keys() & set(self.CONTAINERS)
        for name in self.CONTAINERS:
            assert getattr(node, name) == type(getattr(node, name))()  # an empty set or dict
            assert name in vars(node)  # from now on an ordinary attribute
            assert getattr(node, name) is vars(node)[name]

    def test_each_node_gets_its_own_containers(self):
        first, second = make_node("a"), make_node("b")
        first.locally_crashed.add("c")
        assert second.locally_crashed == set()

    def test_nothing_else_appears_on_demand(self):
        # The class defines no __getattr__ (it would take every attribute
        # read of every node off the interpreter's fast path).
        node = make_node("b")
        assert not hasattr(node, "no_such_attribute")
        assert not hasattr(node, "__deepcopy__") and not hasattr(node, "__setstate__")
        assert "__getattr__" not in dir(CliffEdgeNode)

    def test_copies_and_pickles_keep_the_state(self, line_graph):
        import copy
        import pickle

        fresh = make_node("b")
        decided = make_node("b")
        ctx = FakeContext(line_graph, "b")
        decided.on_start(ctx)
        decided.on_crash(ctx, "a")  # a single-node border: decides on its own round 1
        deliver_own_multicast(decided, ctx)
        assert decided.has_decided and decided.locally_crashed == {"a"} and decided.received
        for node in (fresh, decided):
            for clone in (pickle.loads(pickle.dumps(node)), copy.deepcopy(node)):
                assert clone.decided == node.decided
                assert clone.locally_crashed == node.locally_crashed
                assert clone.received == node.received
                assert vars(clone).keys() == vars(node).keys()

    def test_only_the_border_of_a_crashed_block_ever_holds_state(self):
        from repro.api import ExperimentSession, torus_block_spec

        spec = torus_block_spec(side=16, block_side=2, origin=(4, 4))
        result = ExperimentSession().run(spec)
        assert result.specification.holds
        graph = result.graph
        block = frozenset(tuple(member) for member in spec.failure.params["members"])
        border = graph.border(block)
        holding = {
            node_id
            for node_id in graph.nodes
            if vars(result.simulator.process(node_id)).keys() & set(self.CONTAINERS)
        }
        assert len(graph) == 256 and len(block) == 4
        assert holding and holding <= border
        assert len(graph) - len(holding) >= 256 - len(border) - len(block)
