"""Ablation experiments (EXP-A1, EXP-A2).

The paper's algorithm has two design choices worth isolating:

* **Arbitration** (line 26): a node proposing ``V_p`` rejects every
  lower-ranked view it hears about.  EXP-A1 disables the rule and re-runs
  the conflicting-view workloads: without arbitration, instances proposing
  stale views can only fail when a *crash* unblocks them, so under a
  growing crashed region the protocol stalls (nodes blocked forever inside
  a consensus instance whose participants have moved on).
* **The ranking relation** (§3.1): the full relation compares size, then
  border size, then a lexicographic tie-break, making it a strict total
  order that subsumes set inclusion.  EXP-A2 swaps in deliberately weaker
  variants (size-only, size+border) and measures how often incomparable
  ties appear — each tie is a pair of conflicting proposals that the
  arbitration rule cannot order, i.e. a liveness hazard.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Sequence

from ..api.presets import figure_spec, torus_region_spec
from ..api.session import ExperimentSession
from ..api.specs import ExperimentSpec, FailureSpec, RuntimeSpec
from ..failures import region_crash
from ..graph import RANKINGS, Region
from ..graph.generators import square_region, torus
from ..sim import JitteredFailureDetector
from ..sim.events import EventKind
from .runner import run_cliff_edge


@dataclass(frozen=True)
class ArbitrationPoint:
    """One workload run with and without the rejection rule."""

    scenario: str
    arbitration: bool
    decisions: int
    decided_views: int
    undecided_border_nodes: int
    blocked_proposers: int
    messages: int
    quiescent: bool

    def as_row(self) -> dict[str, object]:
        return {
            "scenario": self.scenario,
            "arbitration": self.arbitration,
            "decisions": self.decisions,
            "decided_views": self.decided_views,
            "undecided_border": self.undecided_border_nodes,
            "blocked_proposers": self.blocked_proposers,
            "messages": self.messages,
            "quiescent": self.quiescent,
        }


def _torus_workload(
    side: int, region_side: int, spread: float, detector_high: Optional[float], seed: int
) -> ExperimentSpec:
    """The locality point (:func:`torus_region_spec`) with this workload's
    crash spread and detector window (``None``: the perfect detector)."""
    spec = torus_region_spec(side, region_side, seed=seed)
    jitter = {"kind": "jittered", "low": 0.5, "high": detector_high}
    return dataclasses.replace(
        spec,
        failure=FailureSpec("region", {**spec.failure.params, "spread": spread}),
        runtime=RuntimeSpec(failure_detector=None if detector_high is None else jitter),
    )


def _arbitration_point(scenario_name: str, arbitration: bool, result) -> ArbitrationPoint:
    border = result.graph.border(result.schedule.nodes)
    blocked = sum(
        getattr(node, "proposed", None) is not None and not getattr(node, "has_decided", False)
        for node in map(result.simulator.process, border)
    )
    return ArbitrationPoint(
        scenario=scenario_name,
        arbitration=arbitration,
        decisions=result.metrics.decisions,
        decided_views=result.metrics.decided_views,
        undecided_border_nodes=len(border - result.deciding_nodes - result.schedule.nodes),
        blocked_proposers=blocked,
        messages=result.metrics.messages_sent,
        quiescent=result.simulator.is_quiescent(),
    )


def arbitration_ablation(seed: int = 0) -> list[ArbitrationPoint]:
    """EXP-A1: the Fig. 1b growth workload with and without rejection.

    Also includes a staggered torus crash, where view construction races
    the consensus rounds, as a second data point.
    """
    workloads = [
        ("fig1b-growth", figure_spec("1b", seed=seed)),
        ("staggered-torus", _torus_workload(10, 3, 6.0, 2.5, seed)),
    ]
    session = ExperimentSession()
    return [
        _arbitration_point(
            name,
            arbitration,
            session.run(dataclasses.replace(spec, arbitration=arbitration, check=False)),
        )
        for name, spec in workloads
        for arbitration in (True, False)
    ]


@dataclass(frozen=True)
class EarlyTerminationPoint:
    """One workload run with Algorithm 1 as written vs. footnote-6 early stop."""

    workload: str
    early_termination: bool
    messages: int
    bytes_sent: int
    decisions: int
    decided_views: int
    last_decision_time: float
    specification_holds: bool

    def as_row(self) -> dict[str, object]:
        return {
            "workload": self.workload,
            "early_termination": self.early_termination,
            "messages": self.messages,
            "bytes": self.bytes_sent,
            "decisions": self.decisions,
            "decided_views": self.decided_views,
            "last_decision_time": self.last_decision_time,
            "spec_holds": self.specification_holds,
        }


def early_termination_ablation(seed: int = 0) -> list[EarlyTerminationPoint]:
    """EXP-A3: the footnote-6 optimisation vs. the plain |border|-1 rounds.

    Runs the same torus workloads with and without early termination; the
    optimisation should cut messages and decision latency (it ends each
    instance "after two rounds, in the best case") without affecting the
    agreed views or the CD1–CD7 report.
    """
    workloads = [
        ("torus-3x3-simultaneous", _torus_workload(12, 3, 0.0, None, seed)),
        ("torus-4x4-staggered", _torus_workload(16, 4, 2.0, None, seed)),
    ]
    session = ExperimentSession()
    points: list[EarlyTerminationPoint] = []
    for name, spec in workloads:
        for early in (False, True):
            result = session.run(dataclasses.replace(spec, early_termination=early))
            points.append(
                EarlyTerminationPoint(
                    workload=name,
                    early_termination=early,
                    messages=result.metrics.messages_sent,
                    bytes_sent=result.metrics.bytes_sent,
                    decisions=result.metrics.decisions,
                    decided_views=result.metrics.decided_views,
                    last_decision_time=result.metrics.last_decision_time or 0.0,
                    specification_holds=result.specification.holds,
                )
            )
    return points


@dataclass(frozen=True)
class RankingPoint:
    """Behaviour of one ranking variant on conflicting-view workloads."""

    ranking: str
    is_total_order: bool
    incomparable_pairs: int
    decisions: int
    decided_views: int
    quiescent: bool
    specification_holds: bool

    def as_row(self) -> dict[str, object]:
        return {
            "ranking": self.ranking,
            "total_order": self.is_total_order,
            "incomparable_pairs": self.incomparable_pairs,
            "decisions": self.decisions,
            "decided_views": self.decided_views,
            "quiescent": self.quiescent,
            "spec_holds": self.specification_holds,
        }


def _incomparable_pairs(graph, ranking, views: Sequence[Region]) -> int:
    count = 0
    for first, second in combinations(set(views), 2):
        if first == second:
            continue
        if not ranking.precedes(graph, first, second) and not ranking.precedes(
            graph, second, first
        ):
            count += 1
    return count


def ranking_ablation(seed: int = 0) -> list[RankingPoint]:
    """EXP-A2: canonical ranking vs. deliberately weaker variants.

    The workload crashes two equally sized regions adjacent to a shared
    border node, so the size-only variant faces genuinely incomparable
    proposals.  The variant is a ranking *object* handed to the runner, which
    no spec field carries, so this is the one ablation not run from a spec.
    """
    graph = torus(10, 10)
    region_a = square_region((1, 1), 2)
    region_b = square_region((1, 4), 2)
    schedule = region_crash(graph, region_a, at=1.0).merged(
        region_crash(graph, region_b, at=1.0)
    )
    points: list[RankingPoint] = []
    for name, ranking in sorted(RANKINGS.items()):
        result = run_cliff_edge(
            graph,
            schedule,
            ranking=ranking,
            failure_detector=JitteredFailureDetector(0.5, 2.0),
            seed=seed,
            check=True,
        )
        proposed_views = [
            event.payload
            for event in result.trace.of_kind(EventKind.VIEW_PROPOSED)
        ]
        incomparable = _incomparable_pairs(graph, ranking, proposed_views)
        is_total = name == "canonical"
        points.append(
            RankingPoint(
                ranking=name,
                is_total_order=is_total,
                incomparable_pairs=incomparable,
                decisions=result.metrics.decisions,
                decided_views=result.metrics.decided_views,
                quiescent=result.simulator.is_quiescent(),
                specification_holds=result.specification.holds,
            )
        )
    return points
