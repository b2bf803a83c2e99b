"""Locality experiments (EXP-L1, EXP-L2).

The headline claim of the paper is *local complexity*: "its cost is
independent of the size of the complete system, and only depends on the
shape and extent of the crashed region to be agreed upon".  The paper never
measures this; these sweeps do.

* :func:`system_size_sweep` (EXP-L1) keeps the crashed region fixed (a
  ``k x k`` block) and grows the torus around it.  Messages, bytes and the
  number of speaking nodes should stay flat.
* :func:`region_size_sweep` (EXP-L2) keeps the torus fixed and grows the
  crashed block.  Costs should grow with the region's border (the
  consensus participant count), roughly cubically in the border size for
  the unoptimised flooding rounds the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..api.presets import LOCALITY_SIDES_FULL, torus_region_spec
from ..api.session import ExperimentSession
from ..graph import Region
from .runner import RunResult


@dataclass(frozen=True)
class LocalityPoint:
    """One sweep point of a locality experiment."""

    system_size: int
    region_size: int
    border_size: int
    messages: int
    bytes_sent: int
    speaking_nodes: int
    decisions: int
    decided_views: int
    rejections: int
    decision_time: Optional[float]
    specification_holds: bool

    def as_row(self) -> dict[str, object]:
        return {
            "system_size": self.system_size,
            "region_size": self.region_size,
            "border_size": self.border_size,
            "messages": self.messages,
            "bytes": self.bytes_sent,
            "speaking_nodes": self.speaking_nodes,
            "decisions": self.decisions,
            "decided_views": self.decided_views,
            "rejections": self.rejections,
            "decision_time": self.decision_time,
            "spec_holds": self.specification_holds,
        }


def _point_from_result(result: RunResult, region: Region) -> LocalityPoint:
    border = result.graph.border(region.members)
    metrics = result.metrics
    specification = result.specification
    return LocalityPoint(
        system_size=len(result.graph),
        region_size=len(region),
        border_size=len(border),
        messages=metrics.messages_sent,
        bytes_sent=metrics.bytes_sent,
        speaking_nodes=metrics.speaking_nodes,
        decisions=metrics.decisions,
        decided_views=metrics.decided_views,
        rejections=metrics.rejections,
        decision_time=metrics.last_decision_time,
        specification_holds=specification.holds if specification is not None else True,
    )


def run_torus_region_scenario(
    side: int,
    region_side: int,
    seed: int = 0,
    jittered_detection: bool = True,
    check: bool = True,
) -> tuple[RunResult, Region]:
    """Crash a ``region_side x region_side`` block in a ``side x side`` torus
    (:func:`~repro.api.presets.torus_region_spec`)."""
    spec = torus_region_spec(
        side, region_side, seed=seed, jittered_detection=jittered_detection, check=check
    )
    result = ExperimentSession().run(spec)
    return result, Region.of(result.graph, spec.failure.params["members"])


def _torus_region_point(
    side: int, region_side: int, seed: int, check: bool
) -> LocalityPoint:
    result, region = run_torus_region_scenario(side, region_side, seed=seed, check=check)
    return _point_from_result(result, region)


def system_size_sweep(
    sides: Sequence[int] = LOCALITY_SIDES_FULL,
    region_side: int = 3,
    seed: int = 0,
    check: bool = True,
) -> list[LocalityPoint]:
    """EXP-L1: fixed crashed block, growing torus."""
    return [_torus_region_point(side, region_side, seed, check) for side in sides]


def region_size_sweep(
    region_sides: Sequence[int] = (1, 2, 3, 4, 5, 6),
    side: int = 32,
    seed: int = 0,
    check: bool = True,
) -> list[LocalityPoint]:
    """EXP-L2: fixed torus, growing crashed block."""
    return [
        _torus_region_point(side, region_side, seed, check)
        for region_side in region_sides
    ]


def locality_is_flat(points: Sequence[LocalityPoint], tolerance: float = 0.10) -> bool:
    """True when message cost varies by at most ``tolerance`` across points.

    Used by tests and ``repro report`` to state the EXP-L1 conclusion: with a
    fixed crashed region, the cost of the protocol does not grow with the
    system size.  (Identical seeds give identical runs, so in practice the
    spread is zero; the tolerance guards against jitter when callers vary
    seeds per point.)
    """
    if not points:
        return True
    messages = [point.messages for point in points]
    low, high = min(messages), max(messages)
    if low == 0:
        return high == 0
    return (high - low) / low <= tolerance
