"""End-to-end overlay repair experiment (EXP-R1).

The motivating application: a Chord-like ring overlay loses a contiguous
arc of nodes; the arc's border runs cliff-edge consensus with a
:class:`~repro.repair.plans.RingRepairPolicy`, agrees on a repair plan
(bridge edges + coordinator), and the plan is applied and verified.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..api.extractors import RepairExtractor
from ..api.presets import repair_spec
from ..api.session import ExperimentSession
from ..repair import RepairOutcome, RingOverlay
from .runner import RunResult


@dataclass(frozen=True)
class OverlayRepairPoint:
    """One ring size / arc length combination."""

    ring_size: int
    successors: int
    arc_length: int
    decisions: int
    decided_views: int
    messages: int
    ring_restored: bool
    survivors_connected: bool
    coordinator: Optional[object]
    specification_holds: bool

    def as_row(self) -> dict[str, object]:
        return {
            "ring_size": self.ring_size,
            "successors": self.successors,
            "arc_length": self.arc_length,
            "decisions": self.decisions,
            "views": self.decided_views,
            "messages": self.messages,
            "ring_restored": self.ring_restored,
            "survivors_connected": self.survivors_connected,
            "coordinator": self.coordinator,
            "spec_holds": self.specification_holds,
        }


@dataclass
class OverlayRepairRun:
    """Full artefacts of one overlay-repair run (used by the example)."""

    overlay: RingOverlay
    arc: tuple[int, ...]
    result: RunResult
    outcome: RepairOutcome

    def point(self) -> OverlayRepairPoint:
        coordinators = sorted(map(repr, self.outcome.coordinators.values()))
        return OverlayRepairPoint(
            ring_size=self.overlay.size,
            successors=self.overlay.successors,
            arc_length=len(self.arc),
            decisions=self.result.metrics.decisions,
            decided_views=self.result.metrics.decided_views,
            messages=self.result.metrics.messages_sent,
            ring_restored=self.outcome.ring_restored,
            survivors_connected=self.outcome.survivors_connected,
            coordinator=coordinators[0] if coordinators else None,
            specification_holds=(
                self.result.specification.holds
                if self.result.specification is not None
                else True
            ),
        )


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
    return RepairExtractor().repair_run(spec, ExperimentSession().run(spec))


def overlay_repair_sweep(
    ring_sizes: Sequence[int] = (16, 32, 64),
    arc_lengths: Sequence[int] = (2, 4, 6),
    successors: int = 2,
    seed: int = 0,
) -> list[OverlayRepairPoint]:
    """EXP-R1: repair quality and cost across ring and failure sizes."""
    points = []
    for ring_size in ring_sizes:
        for arc_length in arc_lengths:
            if arc_length >= ring_size // 2:
                continue
            run = run_overlay_repair(
                ring_size=ring_size,
                successors=successors,
                arc_start=3,
                arc_length=arc_length,
                seed=seed,
            )
            points.append(run.point())
    return points
