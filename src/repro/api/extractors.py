"""Result extractors: domain rows computed from a finished run.

An :class:`~repro.api.specs.ExperimentSpec` may carry an ``extract`` block
(``{"kind": ..., "params": {...}}``); its kind names one of the classes
below, whose constructor signature is the schema of ``params`` (checked
where the spec is written, like every other kind block).  The session
builds the extractor and then

1. asks it for an optional **decision policy** before the run
   (overlay repair decides repair *plans*, not plain views), and
2. asks it for a **row** afterwards, attached as
   ``result.labels["extract"]`` — which rides through JSON results,
   sweep reports and the experiment service untouched.  The EXP-L1/L2
   and EXP-R1 tables are these rows.

Extractors only *observe* (and, via the policy, parameterise) the run;
the trace digest is exactly that of the same spec without post-hoc
extraction (``tests/unit/test_extractors.py`` pins both).
"""

from __future__ import annotations

from typing import Any, Optional

from .specs import ExperimentSpec, SpecError


def _crashed(spec: ExperimentSpec, what: str) -> tuple:
    """The members of the spec's ``region`` failure."""
    if spec.failure.kind != "region":
        raise SpecError(
            f"the {spec.extract['kind']} extractor reads the crashed {what} from a "
            f"failure of kind 'region', got {spec.failure.kind!r}"
        )
    return spec.failure.params["members"]


def _holds(result) -> bool:
    return result.specification.holds if result.specification is not None else True


class LocalityExtractor:
    """EXP-L1/EXP-L2 cost rows: border size, messages, bytes, timing.

    The crashed region is read from the spec's own ``failure.params``
    (kind ``region``), so the extractor takes no parameters of its own.
    """

    def decision_policy(self, spec: ExperimentSpec, graph) -> Optional[Any]:
        return None

    def row(self, spec: ExperimentSpec, result) -> dict[str, Any]:
        from ..graph import Region

        region = Region.of(result.graph, _crashed(spec, "region"))
        metrics = result.metrics
        return {
            "system_size": len(result.graph),
            "region_size": len(region),
            "border_size": len(result.graph.border(region.members)),
            "messages": metrics.messages_sent,
            "bytes": metrics.bytes_sent,
            "speaking_nodes": metrics.speaking_nodes,
            "decisions": metrics.decisions,
            "decided_views": metrics.decided_views,
            "rejections": metrics.rejections,
            "decision_time": metrics.last_decision_time,
            "spec_holds": _holds(result),
        }


class RepairExtractor:
    """EXP-R1 overlay repair: decide plans, apply them, report the verdict.

    ``ring_size`` and ``successors`` name the
    :class:`~repro.repair.RingOverlay` the topology was generated from; the
    crashed arc is the spec's ``region`` failure members.  The decision
    policy makes border nodes agree on *repair plans*.
    """

    def __init__(self, ring_size: int, successors: int = 2) -> None:
        from ..repair import RingOverlay

        self.overlay = RingOverlay(ring_size, successors)

    def decision_policy(self, spec: ExperimentSpec, graph) -> Optional[Any]:
        from ..repair import RingRepairPolicy

        return RingRepairPolicy(self.overlay)

    def outcome(self, result):
        """The run's decided plans applied to the overlay (a
        :class:`~repro.repair.RepairOutcome`)."""
        from ..repair import apply_decisions

        return apply_decisions(self.overlay, result.schedule.nodes, result.decisions)

    def row(self, spec: ExperimentSpec, result) -> dict[str, Any]:
        arc = _crashed(spec, "arc")
        outcome = self.outcome(result)
        coordinators = sorted(map(repr, outcome.coordinators.values()))
        return {
            "ring_size": self.overlay.size,
            "successors": self.overlay.successors,
            "arc_length": len(arc),
            "decisions": result.metrics.decisions,
            "views": result.metrics.decided_views,
            "messages": result.metrics.messages_sent,
            "ring_restored": outcome.ring_restored,
            "survivors_connected": outcome.survivors_connected,
            "coordinator": coordinators[0] if coordinators else None,
            "spec_holds": _holds(result),
        }
