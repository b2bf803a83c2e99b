"""The unified result surface of every run layer.

The paper's specification (§2.3, CD1–CD7) is a predicate over the
``decide`` events of one run and is silent about what produced them, so
:class:`RunResult` is the outcome of a run on *any* substrate and
:meth:`RunResult.from_trace` the one place a finished trace becomes one:
metrics, decisions, membership epochs and (on request) the verdict.
Without a membership schedule a run reports as the paper's static run
(``"type": "run"``, ``check_all``); with one — even the empty one the
session hands the asyncio engines — as a churn run (``"type":
"churn-run"``, epochs, ``check_churn_all``).  :class:`Result` is the
protocol it shares with :class:`~repro.scale.sweep.SweepReport`, so the
CLI's ``--json`` output, CI scripts and the session treat both alike.

This module sits *below* ``repro.core``, ``repro.churn`` and
``repro.trace`` in the import graph (every runner imports it, and
``repro.trace`` must not load before ``repro.sim``), so the tail imports
what it calls at call time.  That also keeps it measurable: the perf
ledger's spans replace ``collect_metrics``, ``check_all`` and
``check_churn_all`` as attributes of their modules, which a name bound
here at import time would bypass.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping, Optional, Protocol, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..churn.epochs import MembershipEpoch
    from ..churn.membership import MembershipSchedule
    from ..core.properties import Decision, SpecificationReport
    from ..core.protocol import CliffEdgeNode
    from ..failures import CrashSchedule
    from ..graph import KnowledgeGraph, NodeId, Region
    from ..sim import Simulator
    from ..trace import RunMetrics, TraceRecorder


# ---------------------------------------------------------------------------
# JSON encoding
# ---------------------------------------------------------------------------
def json_safe(value: Any) -> Any:
    """Recursively convert ``value`` into JSON-serializable primitives.

    Tuples, sets and frozensets become (sorted, for sets) lists, mappings
    become string-keyed dicts, enums their names, dataclasses dicts of
    their fields, and region-like objects lists of their members.  Node
    ids that are tuples (grid coordinates) become lists — the spec layer
    converts them back on the way in.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, enum.Enum):
        return value.name
    if isinstance(value, Mapping):
        return {str(key): json_safe(value[key]) for key in sorted(value, key=str)}
    if isinstance(value, (set, frozenset)):
        return sorted((json_safe(item) for item in value), key=repr)
    if isinstance(value, (list, tuple)):
        return [json_safe(item) for item in value]
    members = getattr(value, "members", None)
    if members is not None and isinstance(members, frozenset):
        return sorted((json_safe(item) for item in members), key=repr)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: json_safe(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    return repr(value)


# ---------------------------------------------------------------------------
# The protocol
# ---------------------------------------------------------------------------
@runtime_checkable
class Result(Protocol):
    """What every run layer's outcome can do."""

    def digest(self) -> str:
        """Canonical deterministic fingerprint of the outcome."""
        ...

    def check_specification(self) -> Any:
        """(Re)check the relevant specification and return its report."""
        ...

    def summary(self) -> Any:
        """Human-oriented summary (text for runs, a dict for sweeps)."""
        ...

    def as_dict(self) -> dict[str, Any]:
        """JSON-serializable dict of the outcome (machine consumers)."""
        ...


# ---------------------------------------------------------------------------
# The one run outcome
# ---------------------------------------------------------------------------
@dataclass
class RunResult:
    """Outcome of one protocol run on any substrate."""

    #: The topology after the last membership event.
    graph: KnowledgeGraph
    schedule: CrashSchedule
    trace: TraceRecorder
    metrics: RunMetrics
    decisions: list[Decision]
    #: The topology before any membership event.
    base_graph: KnowledgeGraph
    #: ``None`` for the paper's static run; a schedule (possibly empty)
    #: selects the churn report and the epoch-quotiented checkers.
    membership: Optional[MembershipSchedule] = None
    #: The membership epochs reconstructed from the trace (churn runs).
    epochs: Optional[list[MembershipEpoch]] = None
    #: Which runtime produced the run ("sim", "asyncio" or
    #: "asyncio-virtual").
    runtime: str = "sim"
    #: False when the run stopped (``until``, ``max_events``, the asyncio
    #: timeout) before it drained.
    quiescent: bool = True
    #: The live simulator of a sequential simulator run (post-run
    #: inspection); partitioned and asyncio runs keep none.
    simulator: Optional[Simulator] = None
    #: None until :meth:`check_specification` is called (or ``check=True``).
    specification: Optional[SpecificationReport] = None
    #: Extra labels attached by experiments (topology name, sweep point...).
    labels: dict[str, Any] = field(default_factory=dict)

    @classmethod
    def from_trace(
        cls,
        graph: KnowledgeGraph,
        schedule: CrashSchedule,
        trace: TraceRecorder,
        *,
        membership: Optional[MembershipSchedule] = None,
        base_graph: Optional[KnowledgeGraph] = None,
        check: bool = False,
        **fields: Any,
    ) -> RunResult:
        """Package a finished run: the only place a trace becomes an outcome.

        ``graph`` is the topology the run ended on, ``base_graph`` the
        one it started on (the same when omitted); ``fields`` are the
        remaining dataclass fields (``quiescent``, ``runtime``,
        ``simulator``, ``labels``, a subclass's own).
        """
        # Call-time imports: see the module docstring.
        from ..core.properties import extract_decisions
        from ..trace import collect_metrics

        if base_graph is None:
            base_graph = graph
        epochs = None
        if membership is not None:
            from ..churn.epochs import build_epochs

            epochs = build_epochs(base_graph, trace)
        result = cls(
            graph=graph,
            schedule=schedule,
            trace=trace,
            metrics=collect_metrics(trace),
            decisions=extract_decisions(trace),
            base_graph=base_graph,
            membership=membership,
            epochs=epochs,
            **fields,
        )
        if check:
            result.check_specification(include_liveness=result.quiescent)
        return result

    # -- decision bookkeeping -------------------------------------------
    @property
    def final_graph(self) -> "KnowledgeGraph":
        """Alias for :attr:`graph`, the counterpart of :attr:`base_graph`."""
        return self.graph

    @property
    def decided_views(self) -> "frozenset[Region]":
        """The distinct views decided during the run."""
        return frozenset(decision.view for decision in self.decisions)

    @property
    def deciding_nodes(self) -> "frozenset[NodeId]":
        """The nodes that decided during the run."""
        return frozenset(decision.node for decision in self.decisions)

    @property
    def decided_view_multiset(self) -> "tuple[tuple[NodeId, ...], ...]":
        """Every decision's view (sorted members), in decision order.

        Unlike :attr:`decided_views` this keeps re-decisions of the same
        region in later epochs distinguishable, which the cross-runtime
        equivalence tests compare.
        """
        return tuple(
            tuple(sorted(decision.view.members, key=repr))
            for decision in self.decisions
        )

    def decisions_on(self, view: "Region") -> "list[Decision]":
        """All decisions whose view equals ``view``."""
        return [decision for decision in self.decisions if decision.view == view]

    def node(self, node_id: "NodeId") -> "CliffEdgeNode":
        """The protocol instance at ``node_id`` (post-run inspection)."""
        from ..core.protocol import CliffEdgeNode

        if self.simulator is None:
            raise LookupError(
                f"this {self.runtime!r} run kept no live simulator to inspect "
                "(only sequential simulator runs do)"
            )
        process = self.simulator.process(node_id)
        if not isinstance(process, CliffEdgeNode):
            raise TypeError(f"process at {node_id!r} is not a CliffEdgeNode")
        return process

    def digest(self) -> str:
        """Canonical trace digest — the run's deterministic fingerprint.

        Two runs with identical (topology, schedule, seed, knobs) produce
        the same digest regardless of which process executed them; the
        sharded sweep engine (:mod:`repro.scale`) compares these.
        """
        return self.trace.digest()

    def check_specification(self, include_liveness: bool = True) -> "SpecificationReport":
        """Run the CD1–CD7 checkers (the epoch-quotiented ones on a run with
        a membership schedule) and cache the report."""
        if self.membership is None:
            from ..core.properties import check_all

            self.specification = check_all(
                self.graph,
                self.trace,
                faulty=self.schedule.nodes,
                include_liveness=include_liveness,
            )
        else:
            from ..churn.properties import check_churn_all

            self.specification = check_churn_all(
                self.base_graph,
                self.trace,
                include_liveness=include_liveness,
                epochs=self.epochs,
            )
        return self.specification

    # -- reports ----------------------------------------------------------
    def _scenario(self) -> dict[str, Any]:
        """The scenario's size: the head of :meth:`as_dict`, and — formatted
        — the first line of :meth:`summary`."""
        if self.membership is None:
            return {
                "type": "run",
                "nodes": len(self.graph),
                "edges": self.graph.edge_count,
                "crashed": json_safe(self.schedule.nodes),
            }
        from ..churn.membership import MembershipEventKind

        return {
            "type": "churn-run",
            "runtime": self.runtime,
            "nodes": len(self.base_graph),
            "final_nodes": len(self.graph),
            "edges": self.base_graph.edge_count,
            "final_edges": self.graph.edge_count,
            "crashes": len(self.schedule),
            "joins": len(self.membership.of_kind(MembershipEventKind.JOIN)),
            "recoveries": len(self.membership.of_kind(MembershipEventKind.RECOVER)),
            "leaves": len(self.membership.of_kind(MembershipEventKind.LEAVE)),
            "epochs": len(self.epochs),
        }

    def as_dict(self) -> dict[str, Any]:
        """JSON-serializable summary of the run (the ``--json`` payload)."""
        specification = self.specification
        return {
            **self._scenario(),
            "quiescent": self.quiescent,
            "metrics": json_safe(self.metrics),
            "decisions": [
                {
                    "time": decision.time,
                    "node": json_safe(decision.node),
                    "view": json_safe(decision.view),
                }
                for decision in self.decisions
            ],
            "decided_views": json_safe(self.decided_views),
            "specification": None
            if specification is None
            else {
                "holds": specification.holds,
                "violations": list(specification.violations()),
            },
            "digest": self.digest(),
            "labels": json_safe(self.labels),
        }

    def _headline(self) -> str:
        if self.membership is None:
            return (
                f"nodes={len(self.graph)} edges={self.graph.edge_count} "
                f"crashed={len(self.schedule.nodes)}"
            )
        return (
            "nodes={nodes}->{final_nodes} edges={edges}->{final_edges} "
            "crashes={crashes} joins={joins} recoveries={recoveries} "
            "leaves={leaves} epochs={epochs}"
        ).format(**self._scenario())

    def summary(self) -> str:
        """Multi-line human-readable summary (used by the CLI/examples)."""
        lines = [
            self._headline(),
            f"messages={self.metrics.messages_sent} "
            f"bytes={self.metrics.bytes_sent} "
            f"speaking_nodes={self.metrics.speaking_nodes}",
            f"decisions={self.metrics.decisions} "
            f"views={self.metrics.decided_views} "
            f"rejections={self.metrics.rejections} "
            f"failed_instances={self.metrics.failed_instances}",
        ]
        if self.membership is None:
            for view in sorted(self.decided_views, key=lambda v: sorted(map(repr, v.members))):
                deciders = sorted(repr(d.node) for d in self.decisions_on(view))
                members = sorted(map(repr, view.members))
                lines.append(f"view {members} decided by {deciders}")
            verdict = "specification"
        else:
            # A churned run can decide one region again in a later epoch.
            multiset = self.decided_view_multiset
            for members in sorted(set(multiset)):
                count = multiset.count(members)
                times = f" x{count}" if count > 1 else ""
                lines.append(f"view {list(map(repr, members))} decided{times}")
            verdict = "epoch-quotiented specification"
        if self.specification is not None:
            status = "holds" if self.specification.holds else "VIOLATED"
            lines.append(f"{verdict} CD1-CD7: {status}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Aggregate specification verdict (sweeps)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class AggregateSpecification:
    """The sweep-level specification verdict.

    Per-run CD1–CD7 checks happen inside the workers; this is their
    conjunction, with each surviving violation prefixed by the index of
    the run it came from.
    """

    holds: bool
    checked_runs: int
    violation_list: tuple[str, ...] = ()

    def violations(self) -> list[str]:
        return list(self.violation_list)

    def summary(self) -> str:
        status = "holds" if self.holds else "VIOLATED"
        lines = [f"specification across {self.checked_runs} runs: {status}"]
        lines.extend(f"    {violation}" for violation in self.violation_list)
        return "\n".join(lines)
