"""Epoch-quotiented CD1–CD7 checkers for churned runs.

The paper's specification (§2.3) quantifies over a single execution with a
static graph and permanent crashes.  Under churn both assumptions fall:
the graph changes at joins/recoveries, and a region may crash, recover and
crash again.  The specification stays checkable by *quotienting over
membership epochs* (:mod:`repro.churn.epochs`): within one epoch the
static reasoning applies verbatim, and across epochs each property states
the strongest claim that survives recovery races:

* **CD1 Integrity** — no node decides twice on the same view *within one
  epoch*.  Deciding the same region again after it recovered and
  re-crashed is a fresh agreement about a fresh failure, not a duplicate.
* **CD2 View Accuracy** — every decision, evaluated in the graph of its
  epoch, is a connected region of nodes that were down (crashed *or*
  departed — a graceful leave is an announced fail-stop) at decision
  time, bordered by the decider.
* **CD3 Locality** — every message stays within the closed neighbourhood
  of a faulty domain, computed per epoch over the nodes that had been
  faulty at any point up to the end of that epoch.  (Keeping recovered
  regions in scope is deliberate: detection traffic raced by a recovery
  is still *local* traffic, which is all the property promises.)
* **CD4 Border Termination** — if a node decides ``(V, d)``, every border
  node of ``V`` in the decision's epoch eventually decides — unless it
  fails later in the run (the static excuse) or a member of ``V``
  recovers after the decision, cutting the wave short.
* **CD5 Uniform Border Agreement** — same-epoch decisions by border nodes
  of the same view carry the same pair.
* **CD6 View Convergence** — same-epoch decided views of nodes that never
  fail afterwards are equal or disjoint.
* **CD7 Progress** — at quiescence, every faulty cluster of the *final*
  epoch with a live border has a live border node that decided, after the
  cluster's last stint of failures began, on a view inside the cluster.
  Clusters that recovered before the run ended demand nothing.

On a run with no membership events every quotient collapses to the
original property, so these checkers are a strict generalisation of
:mod:`repro.core.properties`.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Optional

from ..core.properties import Decision, PropertyReport, SpecificationReport, locality_leaks
from ..graph import KnowledgeGraph, NodeId, Region, cluster_border, faulty_clusters
from ..sim.events import EventKind
from ..trace import TraceRecorder
from .epochs import MembershipEpoch, build_epochs

_LIVE, _CRASHED, _DEPARTED, _ABSENT = "live", "crashed", "departed", "absent"

_STATUS_OF_EVENT = {
    EventKind.NODE_CRASHED: _CRASHED,
    EventKind.NODE_LEFT: _DEPARTED,
    EventKind.NODE_RECOVERED: _LIVE,
    EventKind.NODE_JOINED: _LIVE,
}
_STATUS_OF_CODE = {kind.code: status for kind, status in _STATUS_OF_EVENT.items()}


@dataclass
class ChurnGroundTruth:
    """Everything the epoch-quotiented checkers need, precomputed."""

    base_graph: KnowledgeGraph
    epochs: list[MembershipEpoch]
    #: Per node: ordered ``(trace_index, status)`` transitions.
    history: dict[NodeId, list[tuple[int, str]]]
    #: ``(trace_index, Decision)`` pairs, in trace order.
    decisions: list[tuple[int, Decision]]
    #: ``(subscriber, changed_node) -> trace indices`` of membership
    #: announcements actually delivered to the subscriber.
    notifications: dict[tuple[NodeId, NodeId], list[int]]
    #: Epoch start indices, precomputed for the hot ``epoch_at`` lookups.
    epoch_starts: list[int]
    trace_length: int = 0
    #: ``changed_node -> sorted trace indices`` of every announcement about
    #: it, to whichever subscriber (derived from ``notifications``).
    waves: dict[NodeId, list[int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        waves: dict[NodeId, list[int]] = {}
        for (_, changed), indices in self.notifications.items():
            waves.setdefault(changed, []).extend(indices)
        for indices in waves.values():
            indices.sort()
        self.waves = waves

    # -- membership status ------------------------------------------------
    def status_at(self, node: NodeId, index: int) -> str:
        """The node's status just before trace index ``index``."""
        status = _LIVE if node in self.base_graph else _ABSENT
        for event_index, event_status in self.history.get(node, ()):
            if event_index >= index:
                break
            status = event_status
        return status

    def is_down_at(self, node: NodeId, index: int) -> bool:
        return self.status_at(node, index) in (_CRASHED, _DEPARTED)

    def fails_at_or_after(self, node: NodeId, index: int) -> bool:
        """True when the node crashes or leaves at trace index >= ``index``."""
        return any(
            event_index >= index and status in (_CRASHED, _DEPARTED)
            for event_index, status in self.history.get(node, ())
        )

    def recovers_after(self, node: NodeId, index: int) -> bool:
        return any(
            event_index > index and status == _LIVE
            for event_index, status in self.history.get(node, ())
        )

    def last_fail_index(self, node: NodeId) -> Optional[int]:
        result = None
        for event_index, status in self.history.get(node, ()):
            if status in (_CRASHED, _DEPARTED):
                result = event_index
        return result

    def was_down_for(self, observer: NodeId, node: NodeId, index: int) -> bool:
        """Whether ``node`` counts as down *from the observer's viewpoint*.

        Trace order across nodes is not causal order on the concurrent
        runtime: a recovery can be globally recorded while an observer —
        whose announcement is still in flight — decides based on the
        epoch it is still causally in.  A node therefore counts as down
        for the observer when it is globally down at ``index``, or when
        it recovered but the observer had not yet been handed the
        recovery announcement *and* that announcement wave was provably
        still propagating (someone received it after ``index``).  Without
        the propagation bound the carve-out would be vacuous: an observer
        the announcement machinery misses entirely would be excused
        forever, hiding genuine accuracy violations.
        """
        if self.is_down_at(node, index):
            return True
        down_before = any(
            event_index < index and status in (_CRASHED, _DEPARTED)
            for event_index, status in self.history.get(node, ())
        )
        if not down_before:
            return False
        last_recovery = max(
            (
                event_index
                for event_index, status in self.history.get(node, ())
                if event_index < index and status == _LIVE
            ),
            default=None,
        )
        if last_recovery is None:
            return False
        observer_notified = any(
            last_recovery < notified < index
            for notified in self.notifications.get((observer, node), ())
        )
        if observer_notified:
            return False
        # Bound the wave to *this* recovery: its announcements are the
        # ones delivered between the recovery and the node's next status
        # change.  Matching any later announcement about the node (a
        # subsequent recovery's wave) would excuse stale decisions made
        # long after this wave finished.
        next_change = min(
            (
                event_index
                for event_index, _ in self.history.get(node, ())
                if event_index > last_recovery
            ),
            default=self.trace_length + 1,
        )
        # Still propagating: the first announcement after ``index`` comes
        # before the node's next change.
        wave = self.waves.get(node, ())
        position = bisect_right(wave, index)
        return position < len(wave) and wave[position] < next_change

    def causally_stale(self, node: NodeId, view: Region, index: int) -> bool:
        """Whether a decision at ``index`` belongs to an earlier epoch.

        True when some member of ``view`` already recovered globally but
        the decider had not been handed the announcement: the decision was
        made in the epoch the decider was still causally in, and merely
        *recorded* after the global epoch boundary (possible on the
        concurrent runtime, where trace order is not causal order).
        """
        return any(
            not self.is_down_at(member, index)
            and self.was_down_for(node, member, index)
            for member in view.members
        )

    def epoch_at(self, index: int) -> MembershipEpoch:
        position = bisect_right(self.epoch_starts, index) - 1
        return self.epochs[max(position, 0)]

    @property
    def final_epoch(self) -> MembershipEpoch:
        return self.epochs[-1]

    def final_status(self, node: NodeId) -> str:
        return self.status_at(node, self.trace_length + 1)


def build_ground_truth(
    base_graph: KnowledgeGraph,
    trace: TraceRecorder,
    epochs: Optional[list[MembershipEpoch]] = None,
) -> ChurnGroundTruth:
    """Precompute the churn ground truth from the rows that carry it.

    Status changes and announcements are read off the raw columns; only
    the decisions are rebuilt as events.  ``epochs`` may be passed when
    the caller already reconstructed them (e.g.
    :class:`~repro.api.result.RunResult`), avoiding a second per-event
    graph rebuild.
    """
    columns = trace.columns
    _, kinds, nodes, peers, _, _, ids = columns.arrays()
    history: dict[NodeId, list[tuple[int, str]]] = {}
    for index in columns.rows_of(*_STATUS_OF_EVENT):
        if nodes[index] >= 0:
            history.setdefault(ids[nodes[index]], []).append(
                (index, _STATUS_OF_CODE[kinds[index]])
            )
    decisions = [
        (index, Decision.from_event(columns.event(index)))
        for index in columns.rows_of(EventKind.DECIDED)
    ]
    notifications: dict[tuple[NodeId, NodeId], list[int]] = {}
    for index in columns.rows_of(EventKind.MEMBERSHIP_NOTIFIED):
        if nodes[index] >= 0 and peers[index] >= 0:
            notifications.setdefault((ids[nodes[index]], ids[peers[index]]), []).append(index)
    if epochs is None:
        epochs = build_epochs(base_graph, trace)
    return ChurnGroundTruth(
        base_graph=base_graph,
        epochs=epochs,
        history=history,
        decisions=decisions,
        notifications=notifications,
        epoch_starts=[epoch.start_index for epoch in epochs],
        trace_length=len(trace),
    )


# ---------------------------------------------------------------------------
# Individual properties
# ---------------------------------------------------------------------------
def check_churn_integrity(gt: ChurnGroundTruth) -> PropertyReport:
    """CD1, quotiented: repeat (node, view) decisions need an epoch change.

    Two decisions by the same node on the same view are legitimate only
    when the node was told, in between, that the view's membership changed
    — a recovery/join announcement about a view member reached it, or the
    node itself was reincarnated.  The check is causal (per-decider
    announcement order), so it is sound on the concurrent runtime where
    global trace order can record an old decision after a newer epoch
    started.
    """
    report = PropertyReport("CD1 Integrity (epoch-quotiented)")
    last_index: dict[tuple[NodeId, Region], int] = {}
    for index, decision in gt.decisions:
        key = (decision.node, decision.view)
        previous = last_index.get(key)
        if previous is not None:
            announced = any(
                previous < notified < index
                for member in decision.view.members
                for notified in gt.notifications.get((decision.node, member), ())
            )
            reincarnated = any(
                previous < event_index < index and status == _LIVE
                for event_index, status in gt.history.get(decision.node, ())
            )
            if not (announced or reincarnated):
                report.fail(
                    f"node {decision.node!r} decided twice on view "
                    f"{sorted(map(repr, decision.view.members))} with no "
                    f"membership change in between"
                )
        last_index[key] = index
    return report


def check_churn_view_accuracy(gt: ChurnGroundTruth) -> PropertyReport:
    """CD2, quotiented: decisions are accurate in their epoch's graph."""
    report = PropertyReport("CD2 View Accuracy (epoch-quotiented)")
    for index, decision in gt.decisions:
        graph = gt.epoch_at(index).graph
        view = decision.view
        unknown = view.members - graph.nodes
        if unknown:
            report.fail(
                f"decided view contains {sorted(map(repr, unknown))} "
                f"unknown to the graph of epoch {gt.epoch_at(index).index}"
            )
            continue
        if not graph.is_connected_subset(view.members):
            report.fail(
                f"decided view {sorted(map(repr, view.members))} is not "
                f"connected in epoch {gt.epoch_at(index).index}"
            )
        if decision.node not in graph.border(view.members):
            report.fail(
                f"decider {decision.node!r} is not on the border of its view "
                f"{sorted(map(repr, view.members))} in epoch "
                f"{gt.epoch_at(index).index}"
            )
        for member in view.members:
            if not gt.was_down_for(decision.node, member, index):
                report.fail(
                    f"decided view contains {member!r} which was "
                    f"{gt.status_at(member, index)} at the decision"
                )
    return report


def check_churn_locality(
    gt: ChurnGroundTruth, trace: TraceRecorder
) -> PropertyReport:
    """CD3, quotiented: per-epoch locality over the ever-faulty scope."""
    report = PropertyReport("CD3 Locality (epoch-quotiented)")
    columns = trace.columns
    sent = columns.rows_of(EventKind.MESSAGE_SENT)
    # An epoch's scope is every node whose first crash/leave precedes the
    # epoch's end: a prefix of the nodes ordered by first failure.
    first_failure: dict[NodeId, int] = {}
    for node, transitions in gt.history.items():
        failed = [index for index, status in transitions if status in (_CRASHED, _DEPARTED)]
        if failed:
            first_failure[node] = min(failed)
    by_failure = sorted(first_failure, key=first_failure.__getitem__)
    failure_indices = [first_failure[node] for node in by_failure]
    for epoch in gt.epochs:
        rows = sent[bisect_left(sent, epoch.start_index) : bisect_left(sent, epoch.end_index)]
        if not rows:
            continue
        ever_faulty = by_failure[: bisect_left(failure_indices, epoch.end_index)]
        faulty = frozenset(ever_faulty) & epoch.graph.nodes
        for sender, receiver in locality_leaks(columns, rows, epoch.graph, faulty):
            report.fail(
                f"message from {sender!r} to {receiver!r} leaves every "
                f"faulty-domain scope of epoch {epoch.index}"
            )
    return report


def check_churn_border_agreement(gt: ChurnGroundTruth) -> PropertyReport:
    """CD5, quotiented: same-epoch border deciders agree on (V, d)."""
    report = PropertyReport("CD5 Uniform Border Agreement (epoch-quotiented)")
    by_epoch: dict[int, list[tuple[int, Decision]]] = {}
    for index, decision in gt.decisions:
        if gt.causally_stale(decision.node, decision.view, index):
            # Recorded after a newer epoch started but made in an older
            # one; comparing it against genuinely-new decisions would mix
            # epochs.  Its own epoch's comparisons already covered it.
            continue
        by_epoch.setdefault(gt.epoch_at(index).index, []).append((index, decision))
    for epoch_index, decisions in by_epoch.items():
        graph = gt.epochs[epoch_index].graph
        # Only decisions on the same view can disagree: each view's
        # deciders with their rendered values, in decision order.
        on_view: dict[Region, list[tuple[NodeId, str]]] = {}
        rendered = []
        for _, decision in decisions:
            value = repr(decision.value)
            rendered.append(value)
            on_view.setdefault(decision.view, []).append((decision.node, value))
        for (_, decision), value in zip(decisions, rendered):
            if decision.view.members - graph.nodes:
                continue  # reported by CD2
            border = graph.border(decision.view.members)
            for other_node, other_value in on_view[decision.view]:
                if other_node not in border or other_node == decision.node:
                    continue
                if other_value != value:
                    report.fail(
                        f"{decision.node!r} decided "
                        f"({sorted(map(repr, decision.view.members))}, "
                        f"{value}) but border node {other_node!r} "
                        f"decided value {other_value} in epoch {epoch_index}"
                    )
    return report


def check_churn_view_convergence(gt: ChurnGroundTruth) -> PropertyReport:
    """CD6, quotiented: same-epoch views of surviving deciders don't clash."""
    report = PropertyReport("CD6 View Convergence (epoch-quotiented)")
    by_epoch: dict[int, list[tuple[int, Decision]]] = {}
    for index, decision in gt.decisions:
        if gt.fails_at_or_after(decision.node, index):
            continue
        if gt.causally_stale(decision.node, decision.view, index):
            continue
        by_epoch.setdefault(gt.epoch_at(index).index, []).append((index, decision))
    for epoch_index, decisions in by_epoch.items():
        # Views overlap exactly when they share a member: pair each
        # decision with the later ones sharing one, in decision order.
        positions_of: dict[NodeId, list[int]] = {}
        for position, (_, decision) in enumerate(decisions):
            for member in decision.view.members:
                positions_of.setdefault(member, []).append(position)
        for position, (_, first) in enumerate(decisions):
            later = set()
            for member in first.view.members:
                positions = positions_of[member]
                later.update(positions[bisect_right(positions, position) :])
            for other in sorted(later):
                second = decisions[other][1]
                if first.view != second.view:
                    report.fail(
                        f"overlapping but different views decided in epoch "
                        f"{epoch_index} by {first.node!r} "
                        f"({sorted(map(repr, first.view.members))}) and "
                        f"{second.node!r} "
                        f"({sorted(map(repr, second.view.members))})"
                    )
    return report


def check_churn_border_termination(gt: ChurnGroundTruth) -> PropertyReport:
    """CD4, quotiented: decision waves complete unless churn cuts them short.

    Only sound on quiescent runs, like the static CD4.
    """
    report = PropertyReport("CD4 Border Termination (epoch-quotiented)")
    deciders = {decision.node for _, decision in gt.decisions}
    for index, decision in gt.decisions:
        graph = gt.epoch_at(index).graph
        if decision.view.members - graph.nodes:
            continue  # reported by CD2
        # The wave is cut short when churn touches the instance: a view
        # member recovering makes the region itself stale, a border
        # *participant* reincarnating mid-wave makes the instance state
        # stale (laggards restart it against the new incarnation while
        # early deciders keep their — still valid — decision), and a
        # causally stale decision (recorded after a member's recovery
        # whose announcement had not yet reached the decider) belongs to
        # the epoch that recovery closed, so the border abandoned the
        # wave legitimately.
        wave_disrupted = (
            any(gt.recovers_after(member, index) for member in decision.view.members)
            or any(
                gt.recovers_after(participant, index)
                for participant in graph.border(decision.view.members)
            )
            or gt.causally_stale(decision.node, decision.view, index)
            # The participant-level mirror of causal staleness: a border
            # participant recovered before the decision but the
            # announcement wave had not yet reached the decider.  The
            # decider completed the instance causally inside the closed
            # epoch; peers that processed the announcement first
            # abandoned the same instance legitimately.
            or any(
                not gt.is_down_at(participant, index)
                and gt.was_down_for(decision.node, participant, index)
                for participant in graph.border(decision.view.members)
            )
        )
        if wave_disrupted:
            continue
        for border_node in graph.border(decision.view.members):
            if (
                border_node in deciders
                or gt.is_down_at(border_node, index)
                or gt.fails_at_or_after(border_node, index)
            ):
                # Excused: already decided something, down at the decision,
                # or fails later in the run (the static CD4 excuse).  A
                # node that failed and recovered *before* the decision is
                # correct for the wave and stays on the hook.
                continue
            report.fail(
                f"{decision.node!r} decided on "
                f"{sorted(map(repr, decision.view.members))} but correct "
                f"border node {border_node!r} never decided"
            )
    return report


def check_churn_progress(gt: ChurnGroundTruth) -> PropertyReport:
    """CD7, quotiented: the final epoch's faulty clusters made progress.

    Only sound on quiescent runs, like the static CD7.
    """
    report = PropertyReport("CD7 Progress (epoch-quotiented)")
    final = gt.final_epoch
    faulty = frozenset(
        node
        for node in final.graph.nodes
        if gt.final_status(node) in (_CRASHED, _DEPARTED)
    )
    if not faulty:
        return report
    for cluster in faulty_clusters(final.graph, faulty):
        members = frozenset().union(*(domain.members for domain in cluster))
        live_border = cluster_border(final.graph, cluster) - faulty
        if not live_border:
            continue
        stint_start = min(
            (
                gt.last_fail_index(member)
                for member in members
                if gt.last_fail_index(member) is not None
            ),
            default=0,
        )
        progressed = any(
            decision.node in live_border
            and index >= stint_start
            and decision.view.members <= members
            for index, decision in gt.decisions
        )
        if not progressed:
            domains_text = [sorted(map(repr, domain.members)) for domain in cluster]
            report.fail(
                f"no live border node of final faulty cluster {domains_text} "
                f"decided after the cluster's last stint began"
            )
    return report


# ---------------------------------------------------------------------------
# Whole-specification check
# ---------------------------------------------------------------------------
def check_churn_all(
    base_graph: KnowledgeGraph,
    trace: TraceRecorder,
    include_liveness: bool = True,
    epochs: Optional[list[MembershipEpoch]] = None,
) -> SpecificationReport:
    """Check the epoch-quotiented CD1–CD7 specification on a churned run.

    ``base_graph`` is the pre-churn topology; per-epoch graphs are
    reconstructed from the trace (or taken from ``epochs`` when already
    available).  As with the static checkers, CD4 and CD7 are only sound
    on quiescent runs.
    """
    gt = build_ground_truth(base_graph, trace, epochs=epochs)
    report = SpecificationReport()
    report.add(check_churn_integrity(gt))
    report.add(check_churn_view_accuracy(gt))
    report.add(check_churn_locality(gt, trace))
    report.add(check_churn_border_agreement(gt))
    report.add(check_churn_view_convergence(gt))
    if include_liveness:
        report.add(check_churn_border_termination(gt))
        report.add(check_churn_progress(gt))
    return report

