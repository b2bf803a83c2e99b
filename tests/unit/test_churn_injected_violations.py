"""Violations injected into hand-built churn ground truths.

Each case builds a :class:`~repro.churn.properties.ChurnGroundTruth` by
hand, plants violations next to look-alikes that must *not* be reported
(another view, another epoch, a non-border decider, a decider that fails
later, a causally stale decision), and asserts the exact messages, in
order, that the checkers gave when they still paired every decision with
every other one in its epoch.  An index that misses a pair, or visits the
pairs in another order, fails here.
"""

from __future__ import annotations

from repro.churn.epochs import MembershipEpoch
from repro.churn.properties import (
    ChurnGroundTruth,
    check_churn_border_agreement,
    check_churn_border_termination,
    check_churn_locality,
    check_churn_view_accuracy,
    check_churn_view_convergence,
)
from repro.core.properties import Decision
from repro.graph import KnowledgeGraph, Region
from repro.graph.generators import grid
from repro.sim.events import EventKind
from repro.trace import TraceRecorder

GRID = grid(4, 4)
LINE = KnowledgeGraph([("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")])


def ground_truth(graph, decisions, history=(), notifications=(), boundaries=(0,), length=100):
    """``decisions`` are ``(index, node, members, value)``; ``boundaries``
    the trace indices where the epochs start (all on ``graph``)."""
    ends = [*boundaries[1:], length]
    epochs = [
        MembershipEpoch(number, start, end, float(start), graph)
        for number, (start, end) in enumerate(zip(boundaries, ends))
    ]
    return ChurnGroundTruth(
        base_graph=graph,
        epochs=epochs,
        history=dict(history),
        decisions=[
            (index, Decision(float(index), node, Region(frozenset(members)), value))
            for index, node, members, value in decisions
        ],
        notifications=dict(notifications),
        epoch_starts=list(boundaries),
        trace_length=length,
    )


V1 = [(1, 1)]
V2 = [(1, 1), (1, 2)]
V3 = [(2, 2)]


def test_cd5_reports_a_value_split_on_one_border():
    gt = ground_truth(
        GRID,
        [
            (10, (0, 1), V1, "v"),
            (11, (2, 1), V1, "w"),  # the split
            (12, (1, 0), V1, "v"),
            (13, (3, 3), V1, 1),  # not on the border: compared, never compared against
            (14, (1, 2), V1, "1"),
            (15, (0, 1), V2, "q"),  # another view
            (16, (0, 1), [(1, 1), "ghost"], "x"),  # unknown member: CD2's
            (60, (2, 1), V1, "u"),  # another epoch
            (61, (1, 0), V1, "v"),
        ],
        history={(1, 1): [(5, "crashed")], (1, 2): [(6, "crashed")]},
        boundaries=(0, 50),
    )
    assert check_churn_border_agreement(gt).violations == [
        "(0, 1) decided (['(1, 1)'], 'v') but border node (2, 1) decided value 'w' in epoch 0",
        "(0, 1) decided (['(1, 1)'], 'v') but border node (1, 2) decided value '1' in epoch 0",
        "(2, 1) decided (['(1, 1)'], 'w') but border node (0, 1) decided value 'v' in epoch 0",
        "(2, 1) decided (['(1, 1)'], 'w') but border node (1, 0) decided value 'v' in epoch 0",
        "(2, 1) decided (['(1, 1)'], 'w') but border node (1, 2) decided value '1' in epoch 0",
        "(1, 0) decided (['(1, 1)'], 'v') but border node (2, 1) decided value 'w' in epoch 0",
        "(1, 0) decided (['(1, 1)'], 'v') but border node (1, 2) decided value '1' in epoch 0",
        "(3, 3) decided (['(1, 1)'], 1) but border node (0, 1) decided value 'v' in epoch 0",
        "(3, 3) decided (['(1, 1)'], 1) but border node (2, 1) decided value 'w' in epoch 0",
        "(3, 3) decided (['(1, 1)'], 1) but border node (1, 0) decided value 'v' in epoch 0",
        "(3, 3) decided (['(1, 1)'], 1) but border node (1, 2) decided value '1' in epoch 0",
        "(1, 2) decided (['(1, 1)'], '1') but border node (0, 1) decided value 'v' in epoch 0",
        "(1, 2) decided (['(1, 1)'], '1') but border node (2, 1) decided value 'w' in epoch 0",
        "(1, 2) decided (['(1, 1)'], '1') but border node (1, 0) decided value 'v' in epoch 0",
        "(2, 1) decided (['(1, 1)'], 'u') but border node (1, 0) decided value 'v' in epoch 1",
        "(1, 0) decided (['(1, 1)'], 'v') but border node (2, 1) decided value 'u' in epoch 1",
    ]


def test_cd5_skips_a_causally_stale_decision():
    # c recovered at 30; b was not told and someone learned of it after 40,
    # so b's decision at 40 belongs to the epoch the recovery closed.
    gt = ground_truth(
        LINE,
        [(20, "d", ["c"], 1), (40, "b", ["c"], 2), (45, "d", ["c"], 1)],
        history={"c": [(5, "crashed"), (30, "live")]},
        notifications={("a", "c"): [42]},
    )
    assert check_churn_border_agreement(gt).violations == []
    told = ground_truth(
        LINE,
        [(20, "d", ["c"], 1), (40, "b", ["c"], 2), (45, "d", ["c"], 1)],
        history={"c": [(5, "crashed"), (30, "live")]},
        notifications={("a", "c"): [42], ("b", "c"): [35]},
    )
    assert check_churn_border_agreement(told).violations == [
        "'d' decided ([\"'c'\"], 1) but border node 'b' decided value 2 in epoch 0",
        "'b' decided ([\"'c'\"], 2) but border node 'd' decided value 1 in epoch 0",
        "'b' decided ([\"'c'\"], 2) but border node 'd' decided value 1 in epoch 0",
        "'d' decided ([\"'c'\"], 1) but border node 'b' decided value 2 in epoch 0",
    ]


def test_cd6_reports_overlapping_views_in_one_epoch():
    gt = ground_truth(
        GRID,
        [
            (10, (0, 1), V1, 0),
            (11, (0, 2), V2, 0),  # overlaps V1
            (12, (3, 2), V3, 0),  # disjoint
            (13, (2, 1), V1, 0),  # equal to the first
            (14, (1, 3), [(1, 2)], 0),  # overlaps V2 only
            (15, (3, 0), [(1, 1), (2, 1)], 0),  # fails later: never compared
            (16, (2, 3), [(2, 2), (1, 2)], 0),  # overlaps V2, V3 and [(1, 2)]
            (70, (0, 0), [(1, 1), (1, 0)], 0),  # another epoch: alone there
        ],
        history={(3, 0): [(30, "crashed")]},
        boundaries=(0, 50),
    )
    assert check_churn_view_convergence(gt).violations == [
        "overlapping but different views decided in epoch 0 by (0, 1) (['(1, 1)']) "
        "and (0, 2) (['(1, 1)', '(1, 2)'])",
        "overlapping but different views decided in epoch 0 by (0, 2) (['(1, 1)', '(1, 2)']) "
        "and (2, 1) (['(1, 1)'])",
        "overlapping but different views decided in epoch 0 by (0, 2) (['(1, 1)', '(1, 2)']) "
        "and (1, 3) (['(1, 2)'])",
        "overlapping but different views decided in epoch 0 by (0, 2) (['(1, 1)', '(1, 2)']) "
        "and (2, 3) (['(1, 2)', '(2, 2)'])",
        "overlapping but different views decided in epoch 0 by (3, 2) (['(2, 2)']) "
        "and (2, 3) (['(1, 2)', '(2, 2)'])",
        "overlapping but different views decided in epoch 0 by (1, 3) (['(1, 2)']) "
        "and (2, 3) (['(1, 2)', '(2, 2)'])",
    ]


def test_cd3_reports_a_send_out_of_every_scope_of_its_epoch():
    trace = TraceRecorder()
    rows = [
        (EventKind.NODE_CRASHED, (1, 1), None),
        (EventKind.MESSAGE_SENT, (0, 1), (2, 1)),  # inside (1, 1)'s scope
        (EventKind.MESSAGE_SENT, (3, 3), (3, 2)),  # out of scope in epoch 0
        (EventKind.MESSAGE_SENT, (0, 0), (0, 1)),  # out of scope in epoch 0
        (EventKind.NODE_RECOVERED, (1, 1), None),
        (EventKind.MESSAGE_SENT, (3, 3), (3, 2)),  # (3, 3) crashes in epoch 1
        (EventKind.NODE_CRASHED, (3, 3), None),
        (EventKind.MESSAGE_SENT, (1, 0), (0, 1)),  # recovered (1, 1) stays in scope
        (EventKind.MESSAGE_SENT, (0, 0), (0, 1)),  # out of scope in epoch 1
        (EventKind.MESSAGE_SENT, (0, 3), (0, 2)),  # out of scope in epoch 1
    ]
    for index, (kind, node, peer) in enumerate(rows):
        trace.emit(float(index), kind, node=node, peer=peer)
    gt = ground_truth(
        GRID,
        [],
        history={(1, 1): [(0, "crashed"), (4, "live")], (3, 3): [(6, "crashed")]},
        boundaries=(0, 4),
        length=len(rows),
    )
    assert check_churn_locality(gt, trace).violations == [
        "message from (3, 3) to (3, 2) leaves every faulty-domain scope of epoch 0",
        "message from (0, 0) to (0, 1) leaves every faulty-domain scope of epoch 0",
        "message from (0, 0) to (0, 1) leaves every faulty-domain scope of epoch 1",
        "message from (0, 3) to (0, 2) leaves every faulty-domain scope of epoch 1",
    ]


def _cd4(notifications):
    # b decides on {c} at 20; d, the other border node, never decides.  d
    # crashed at 5 and recovered at 10, so the wave is excused exactly
    # when d still counts as down for b: b had not been told of d's
    # recovery and that recovery's announcements were still arriving after 20.
    gt = ground_truth(
        LINE,
        [(20, "b", ["c"], 0)],
        history={"c": [(1, "crashed")], "d": [(5, "crashed"), (10, "live")]},
        notifications=notifications,
    )
    return check_churn_border_termination(gt).violations


CD4_FAILURE = "'b' decided on [\"'c'\"] but correct border node 'd' never decided"


def test_cd4_excuse_turns_on_was_down_for():
    assert _cd4({("a", "d"): [25]}) == []  # the wave still propagates
    assert _cd4({("b", "d"): [15], ("a", "d"): [25]}) == [CD4_FAILURE]  # b was told
    assert _cd4({("a", "d"): [12]}) == [CD4_FAILURE]  # the wave ended before 20
    assert _cd4({("a", "d"): [20]}) == [CD4_FAILURE]  # not *after* the decision
    assert _cd4({("b", "d"): [10], ("a", "d"): [25]}) == []  # told before the recovery
    assert _cd4({("a", "e"): [25]}) == [CD4_FAILURE]  # another node's wave


def test_was_down_for_bounds():
    gt = ground_truth(
        LINE,
        [],
        history={"c": [(5, "crashed"), (10, "live"), (30, "crashed"), (40, "live")]},
        notifications={("a", "c"): [12, 45], ("b", "c"): [8, 33, 50], ("e", "c"): [20]},
    )
    down = {
        observer: [index for index in range(60) if gt.was_down_for(observer, "c", index)]
        for observer in "abde"
    }
    # Down at 6-10 and 31-40 for everyone.  After the recovery at 10 the
    # wave runs until the last announcement before c's next change (e at
    # 20), and a stops counting c down once told (12); after the recovery
    # at 40 the wave lasts until 50, and a is told at 45, b at 50.
    wave = [*range(6, 20), *range(31, 50)]
    assert down == {
        "a": [*range(6, 13), *range(31, 46)],
        "b": wave,
        "d": wave,
        "e": wave,
    }
    # CD2 asks was_down_for of every member: a view of c decided in a wave
    # holds, one decided after it does not.
    gt.decisions.extend(
        (index, Decision(float(index), observer, Region(frozenset(["c"])), 0))
        for observer, index in (("b", 19), ("b", 20), ("b", 45), ("d", 49), ("d", 50))
    )
    assert check_churn_view_accuracy(gt).violations == [
        "decided view contains 'c' which was live at the decision",
        "decided view contains 'c' which was live at the decision",
    ]
