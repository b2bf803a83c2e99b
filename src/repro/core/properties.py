"""Offline checkers for the CD1–CD7 specification properties.

Each checker inspects a finished run — the knowledge graph, the recorded
trace, and the ground-truth crash information — and reports violations.
The checkers implement the properties exactly as specified in §2.3 of the
paper; they are used by the integration tests, the property-based tests and
the EXP-C1 benchmark sweep.

Liveness-flavoured properties (CD4 Border Termination, CD7 Progress) are
only meaningful on *quiescent* runs (the simulator's event queue drained),
because "eventually" has no deadline; callers should only enable them in
that situation, which :func:`check_all` does by default.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..graph import (
    KnowledgeGraph,
    NodeId,
    Region,
    cluster_border,
    faulty_clusters,
    faulty_domains,
)
from ..sim.events import EventKind, TraceEvent
from ..trace import TraceRecorder


@dataclass(frozen=True)
class Decision:
    """A single decision extracted from the trace."""

    time: float
    node: NodeId
    view: Region
    value: object

    @classmethod
    def from_event(cls, event: TraceEvent) -> "Decision":
        if event.kind is not EventKind.DECIDED:
            raise ValueError("not a DECIDED event")
        return cls(
            time=event.time,
            node=event.node,
            view=event.payload,
            value=event.detail.get("decision"),
        )


@dataclass
class PropertyReport:
    """Outcome of checking one property."""

    name: str
    holds: bool = True
    violations: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.holds = False
        self.violations.append(message)

    def __bool__(self) -> bool:
        return self.holds


@dataclass
class SpecificationReport:
    """Outcome of checking the full CD1–CD7 specification on a run."""

    reports: dict[str, PropertyReport] = field(default_factory=dict)

    def add(self, report: PropertyReport) -> None:
        self.reports[report.name] = report

    @property
    def holds(self) -> bool:
        return all(report.holds for report in self.reports.values())

    def violations(self) -> list[str]:
        out: list[str] = []
        for report in self.reports.values():
            out.extend(f"{report.name}: {violation}" for violation in report.violations)
        return out

    def summary(self) -> str:
        lines = []
        for name, report in sorted(self.reports.items()):
            status = "OK " if report.holds else "FAIL"
            lines.append(f"[{status}] {name}")
            lines.extend(f"    {violation}" for violation in report.violations)
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------
def extract_decisions(trace: TraceRecorder) -> list[Decision]:
    """All decisions of a run, in timestamp order."""
    return [Decision.from_event(event) for event in trace.decisions()]


def _crash_times(trace: TraceRecorder) -> dict[NodeId, float]:
    return {
        event.node: event.time
        for event in trace.crashes()
        if event.node is not None
    }


# ---------------------------------------------------------------------------
# Individual properties
# ---------------------------------------------------------------------------
def check_integrity(trace: TraceRecorder) -> PropertyReport:
    """CD1: no node decides twice on the same region."""
    report = PropertyReport("CD1 Integrity")
    seen: set[tuple[NodeId, Region]] = set()
    for decision in extract_decisions(trace):
        key = (decision.node, decision.view)
        if key in seen:
            report.fail(
                f"node {decision.node!r} decided twice on view "
                f"{sorted(map(repr, decision.view.members))}"
            )
        seen.add(key)
    return report


def check_view_accuracy(graph: KnowledgeGraph, trace: TraceRecorder) -> PropertyReport:
    """CD2: decided views are crashed regions bordered by the decider."""
    report = PropertyReport("CD2 View Accuracy")
    crash_times = _crash_times(trace)
    for decision in extract_decisions(trace):
        view = decision.view
        if not graph.is_connected_subset(view.members):
            report.fail(
                f"decided view {sorted(map(repr, view.members))} is not connected"
            )
        if decision.node not in graph.border(view.members):
            report.fail(
                f"decider {decision.node!r} is not on the border of its view "
                f"{sorted(map(repr, view.members))}"
            )
        for member in view.members:
            crashed_at = crash_times.get(member)
            if crashed_at is None:
                report.fail(
                    f"decided view contains {member!r} which never crashed"
                )
            elif crashed_at > decision.time:
                report.fail(
                    f"decided view contains {member!r} which crashed at "
                    f"{crashed_at} after the decision at {decision.time}"
                )
    return report


def check_locality(
    graph: KnowledgeGraph,
    trace: TraceRecorder,
    faulty: Optional[frozenset[NodeId]] = None,
) -> PropertyReport:
    """CD3: messages only flow within faulty domains and their borders.

    ``faulty`` defaults to the set of nodes that crashed during the run
    (the faulty nodes of the execution).
    """
    report = PropertyReport("CD3 Locality")
    faulty_set = faulty if faulty is not None else trace.crashed_nodes()
    columns = trace.columns
    sent = columns.rows_of(EventKind.MESSAGE_SENT)
    for sender, receiver in locality_leaks(columns, sent, graph, faulty_set):
        report.fail(
            f"message from {sender!r} to {receiver!r} leaves every "
            f"faulty-domain scope"
        )
    return report


def locality_leaks(columns, rows, graph, faulty) -> list[tuple[NodeId, NodeId]]:
    """``(sender, receiver)`` of every message among ``rows`` (indices of
    ``MESSAGE_SENT`` rows of ``columns``) that stays inside the closed
    neighbourhood of no faulty domain of ``graph``, in trace order.

    Judged once per channel, on the interned endpoints of the raw columns:
    a run sends thousands of messages over a few hundred channels, and no
    event is rebuilt to look at one.
    """
    scopes = [domain.closed_neighbourhood(graph) for domain in faulty_domains(graph, faulty)]
    _, _, nodes, peers, _, _, ids = columns.arrays()
    leaking = {
        (sender, receiver)
        for sender, receiver in {(nodes[index], peers[index]) for index in rows}
        if sender >= 0
        and receiver >= 0
        and sender != receiver
        and not any(ids[sender] in scope and ids[receiver] in scope for scope in scopes)
    }
    if not leaking:
        return []
    return [
        (ids[nodes[index]], ids[peers[index]])
        for index in rows
        if (nodes[index], peers[index]) in leaking
    ]


def check_uniform_border_agreement(
    graph: KnowledgeGraph, trace: TraceRecorder
) -> PropertyReport:
    """CD5: deciders on the border of a decided view decide the same pair."""
    report = PropertyReport("CD5 Uniform Border Agreement")
    decisions = extract_decisions(trace)
    by_node: dict[NodeId, list[Decision]] = {}
    for decision in decisions:
        by_node.setdefault(decision.node, []).append(decision)
    for decision in decisions:
        border = graph.border(decision.view.members)
        for other_node, other_decisions in by_node.items():
            if other_node not in border:
                continue
            for other in other_decisions:
                if other.view != decision.view or repr(other.value) != repr(decision.value):
                    report.fail(
                        f"{decision.node!r} decided "
                        f"({sorted(map(repr, decision.view.members))}, {decision.value!r}) "
                        f"but border node {other_node!r} decided "
                        f"({sorted(map(repr, other.view.members))}, {other.value!r})"
                    )
    return report


def check_border_termination(
    graph: KnowledgeGraph, trace: TraceRecorder
) -> PropertyReport:
    """CD4: if someone decides (V, d), every correct border(V) node decides.

    Only sound on quiescent runs ("eventually" must have run its course).
    """
    report = PropertyReport("CD4 Border Termination")
    crashed = trace.crashed_nodes()
    deciders = {decision.node for decision in extract_decisions(trace)}
    for decision in extract_decisions(trace):
        for border_node in graph.border(decision.view.members):
            if border_node in crashed:
                continue
            if border_node not in deciders:
                report.fail(
                    f"{decision.node!r} decided on "
                    f"{sorted(map(repr, decision.view.members))} but correct border "
                    f"node {border_node!r} never decided"
                )
    return report


def check_view_convergence(trace: TraceRecorder) -> PropertyReport:
    """CD6: decided views of correct nodes are equal or disjoint."""
    report = PropertyReport("CD6 View Convergence")
    crashed = trace.crashed_nodes()
    decisions = [
        decision
        for decision in extract_decisions(trace)
        if decision.node not in crashed
    ]
    for index, first in enumerate(decisions):
        for second in decisions[index + 1 :]:
            if first.view.overlaps(second.view) and first.view != second.view:
                report.fail(
                    f"overlapping but different views decided by "
                    f"{first.node!r} ({sorted(map(repr, first.view.members))}) and "
                    f"{second.node!r} ({sorted(map(repr, second.view.members))})"
                )
    return report


def check_progress(
    graph: KnowledgeGraph,
    trace: TraceRecorder,
    faulty: Optional[frozenset[NodeId]] = None,
) -> PropertyReport:
    """CD7: every faulty cluster has at least one correct deciding border node.

    Only sound on quiescent runs.  Clusters whose border is entirely faulty
    are skipped (the property quantifies over correct border nodes, and a
    cluster without any cannot have one decide).
    """
    report = PropertyReport("CD7 Progress")
    faulty_set = faulty if faulty is not None else trace.crashed_nodes()
    if not faulty_set:
        return report
    crashed = trace.crashed_nodes()
    deciders = {
        decision.node
        for decision in extract_decisions(trace)
        if decision.node not in crashed
    }
    for cluster in faulty_clusters(graph, faulty_set):
        border = cluster_border(graph, cluster)
        correct_border = border - crashed
        if not correct_border:
            continue
        if not (correct_border & deciders):
            domains_text = [
                sorted(map(repr, domain.members)) for domain in cluster
            ]
            report.fail(
                f"no correct border node of faulty cluster {domains_text} decided"
            )
    return report


# ---------------------------------------------------------------------------
# Whole-specification check
# ---------------------------------------------------------------------------
def check_all(
    graph: KnowledgeGraph,
    trace: TraceRecorder,
    faulty: Optional[frozenset[NodeId]] = None,
    include_liveness: bool = True,
) -> SpecificationReport:
    """Check every CD property on a finished run.

    Parameters
    ----------
    graph:
        The knowledge graph of the run.
    trace:
        The recorded trace.
    faulty:
        Ground-truth faulty set; defaults to the nodes that crashed in the
        trace (correct for quiescent runs).
    include_liveness:
        Include CD4 and CD7, which are only sound on quiescent runs.
    """
    report = SpecificationReport()
    report.add(check_integrity(trace))
    report.add(check_view_accuracy(graph, trace))
    report.add(check_locality(graph, trace, faulty))
    report.add(check_uniform_border_agreement(graph, trace))
    report.add(check_view_convergence(trace))
    if include_liveness:
        report.add(check_border_termination(graph, trace))
        report.add(check_progress(graph, trace, faulty))
    return report


def assert_specification(
    graph: KnowledgeGraph,
    trace: TraceRecorder,
    faulty: Optional[frozenset[NodeId]] = None,
    include_liveness: bool = True,
) -> SpecificationReport:
    """Like :func:`check_all` but raises ``AssertionError`` on violations."""
    report = check_all(graph, trace, faulty, include_liveness)
    if not report.holds:
        raise AssertionError("specification violated:\n" + report.summary())
    return report
