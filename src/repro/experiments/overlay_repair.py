"""End-to-end overlay repair experiment (EXP-R1).

The motivating application: a Chord-like ring overlay loses a contiguous
arc of nodes; the arc's border runs cliff-edge consensus with a
:class:`~repro.repair.plans.RingRepairPolicy`, agrees on a repair plan
(bridge edges + coordinator), and the plan is applied and verified.  The
EXP-R1 table is :func:`~repro.api.presets.repair_sweep_spec`'s
``extract`` rows; :func:`run_overlay_repair` keeps one run's artefacts.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..api.extractors import RepairExtractor
from ..api.presets import repair_spec
from ..api.session import ExperimentSession
from ..repair import RepairOutcome, RingOverlay
from .runner import RunResult


@dataclass
class OverlayRepairRun:
    """Full artefacts of one overlay-repair run (used by the example)."""

    overlay: RingOverlay
    arc: tuple[int, ...]
    result: RunResult
    outcome: RepairOutcome


def run_overlay_repair(
    ring_size: int = 32,
    successors: int = 2,
    arc_start: int = 5,
    arc_length: int = 4,
    spread: float = 0.5,
    seed: int = 0,
    check: bool = True,
) -> OverlayRepairRun:
    """Crash an arc of the ring, agree on a repair plan, apply and verify it
    (:func:`~repro.api.presets.repair_spec`)."""
    spec = repair_spec(
        ring_size=ring_size,
        successors=successors,
        arc_start=arc_start,
        arc_length=arc_length,
        seed=seed,
        spread=spread,
        check=check,
    )
    extractor = RepairExtractor(ring_size, successors)
    result = ExperimentSession().run(spec)
    arc = tuple(spec.failure.params["members"])
    return OverlayRepairRun(extractor.overlay, arc, result, extractor.outcome(result))
