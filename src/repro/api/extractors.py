"""Result extractors: domain rows computed from a finished run.

The locality and overlay-repair experiments wrap their runs in
experiment-specific post-processing — locality cost rows
(:class:`~repro.experiments.locality.LocalityPoint`), overlay repair
verdicts (:class:`~repro.experiments.overlay_repair.OverlayRepairPoint`).
An *extractor* makes that declarative: an
:class:`~repro.api.specs.ExperimentSpec` may carry an ``extract`` block
(``{"kind": ..., "params": {...}}``), and the session then

1. asks the extractor for an optional **decision policy** before the run
   (overlay repair decides repair *plans*, not plain views), and
2. asks it for a **row** afterwards, attached as
   ``result.labels["extract"]`` — which rides through JSON results,
   sweep reports and the experiment service untouched.

Extractors only *observe* (and, via the policy, parameterise) the run;
the trace digest is exactly that of the same spec without post-hoc
extraction (``tests/unit/test_extractors.py`` pins both).
"""

from __future__ import annotations

from typing import Any, Mapping, Optional, Protocol

from .specs import ExperimentSpec, SpecError


class Extractor(Protocol):  # pragma: no cover - typing only
    """What the session needs from a registered extractor."""

    kind: str

    def decision_policy(self, spec: ExperimentSpec, graph) -> Optional[Any]:
        """A decision policy for the run, or ``None`` for the default."""
        ...

    def row(self, spec: ExperimentSpec, result) -> dict[str, Any]:
        """The domain row derived from the finished run."""
        ...


class LocalityExtractor:
    """EXP-L1/EXP-L2 cost rows: border size, messages, bytes, timing.

    The crashed region is read from the spec's own ``failure.params``
    (kind ``region``), so the extractor needs no parameters of its own.
    """

    kind = "locality"

    def decision_policy(self, spec: ExperimentSpec, graph) -> Optional[Any]:
        return None

    def row(self, spec: ExperimentSpec, result) -> dict[str, Any]:
        from ..experiments.locality import _point_from_result
        from ..graph import Region

        if spec.failure.kind != "region":
            raise SpecError(
                "the locality extractor reads the crashed region from a "
                f"failure of kind 'region', got {spec.failure.kind!r}"
            )
        members = spec.failure.params["members"]
        region = Region.of(result.graph, members)
        return dict(_point_from_result(result, region).as_row())


class RepairExtractor:
    """EXP-R1 overlay repair: decide plans, apply them, report the verdict.

    ``params`` must carry ``ring_size`` and ``successors`` (the
    :class:`~repro.repair.RingOverlay` the topology was generated from);
    the crashed arc is the spec's ``region`` failure members.  The
    decision policy makes border nodes agree on *repair plans*;
    :func:`~repro.experiments.overlay_repair.run_overlay_repair` returns
    this extractor's :meth:`repair_run`.
    """

    kind = "repair"

    def _overlay(self, spec: ExperimentSpec):
        from ..repair import RingOverlay

        params = dict(spec.extract.get("params", {})) if spec.extract else {}
        try:
            ring_size = int(params["ring_size"])
        except KeyError:
            raise SpecError(
                "the repair extractor needs extract.params.ring_size"
            ) from None
        successors = int(params.get("successors", 2))
        return RingOverlay(ring_size, successors)

    def decision_policy(self, spec: ExperimentSpec, graph) -> Optional[Any]:
        from ..repair import RingRepairPolicy

        return RingRepairPolicy(self._overlay(spec))

    def repair_run(self, spec: ExperimentSpec, result):
        """Apply the run's decided plans to the spec's overlay: the
        :class:`~repro.experiments.overlay_repair.OverlayRepairRun`."""
        from ..experiments.overlay_repair import OverlayRepairRun
        from ..repair import apply_decisions

        if spec.failure.kind != "region":
            raise SpecError(
                "the repair extractor reads the crashed arc from a failure "
                f"of kind 'region', got {spec.failure.kind!r}"
            )
        overlay = self._overlay(spec)
        arc = tuple(spec.failure.params["members"])
        outcome = apply_decisions(overlay, result.schedule.nodes, result.decisions)
        return OverlayRepairRun(overlay=overlay, arc=arc, result=result, outcome=outcome)

    def row(self, spec: ExperimentSpec, result) -> dict[str, Any]:
        return dict(self.repair_run(spec, result).point().as_row())


_EXTRACTORS: dict[str, Any] = {
    LocalityExtractor.kind: LocalityExtractor(),
    RepairExtractor.kind: RepairExtractor(),
}

#: Extractor kinds resolvable from an ``extract`` block.
EXTRACTOR_KINDS = tuple(sorted(_EXTRACTORS))


def get_extractor(kind: str) -> Extractor:
    """Look up a registered extractor by its ``extract.kind``."""
    try:
        return _EXTRACTORS[kind]
    except KeyError:
        raise SpecError(
            f"unknown extract kind {kind!r}; known: {', '.join(EXTRACTOR_KINDS)}"
        ) from None
