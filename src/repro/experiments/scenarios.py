"""Executable reproductions of the paper's figures.

Each ``fig*_scenario`` builds the topology, the crash schedule and the
failure-detector timing that recreate the situation drawn in the paper, and
each ``run_fig*`` executes it and returns both the raw
:class:`~repro.experiments.runner.RunResult` and a small summary of the
figure-specific observations (who decided what, which conflicts arose and
how they were resolved).
"""

from __future__ import annotations

import math

from dataclasses import dataclass, field
from typing import Optional

from ..churn import (
    MembershipSchedule,
    crash_recover_recrash,
    flash_crowd_joins,
    run_churn,
    run_churn_asyncio,
    steady_state_churn,
)
from ..failures import CrashSchedule, growing_region_crash, multi_region_crash, region_crash
from ..graph import KnowledgeGraph, NodeId, Region
from ..graph.generators import torus
from ..sim import ConstantLatency, ScriptedFailureDetector
from ..sim.events import EventKind
from .runner import RunResult, run_cliff_edge
from .topologies import (
    FIG1_F1,
    FIG1_F2,
    FIG1_F3,
    Fig2Layout,
    Fig3Layout,
    fig1_topology,
    fig2_topology,
    fig3_topology,
)


@dataclass
class Scenario:
    """A ready-to-run scenario: topology + crash schedule + detector timing."""

    name: str
    graph: KnowledgeGraph
    schedule: CrashSchedule
    description: str = ""
    failure_detector: Optional[ScriptedFailureDetector] = None
    labels: dict = field(default_factory=dict)

    def run(self, check: bool = True, seed: int = 0) -> RunResult:
        result = run_cliff_edge(
            self.graph,
            self.schedule,
            failure_detector=self.failure_detector,
            seed=seed,
            check=check,
        )
        result.labels.update(self.labels)
        result.labels["scenario"] = self.name
        return result


# ---------------------------------------------------------------------------
# Figure 1a — two independent crashed regions, agreed locally
# ---------------------------------------------------------------------------
def fig1a_scenario() -> Scenario:
    """Fig. 1a: regions F1 (Europe) and F2 (Pacific) crash independently."""
    graph = fig1_topology()
    schedule = multi_region_crash(graph, [FIG1_F1, FIG1_F2], at=1.0)
    return Scenario(
        name="fig1a",
        graph=graph,
        schedule=schedule,
        description=(
            "Two disjoint crashed regions; each border agrees locally and "
            "nodes such as vancouver never talk to madrid (CD3)."
        ),
    )


# ---------------------------------------------------------------------------
# Figure 1b — F1 grows into F3 while the agreement is in flight
# ---------------------------------------------------------------------------
def fig1b_scenario(madrid_detection_delay: float = 40.0) -> Scenario:
    """Fig. 1b: paris crashes mid-protocol; madrid is slow to notice.

    The scripted failure detector delays madrid's detection of paris'
    crash, so madrid keeps trying to agree on F1 with london and roma while
    berlin (paris' surviving neighbour) pushes for F3.  The protocol must
    resolve the conflict through ranking-based rejection and converge on
    F3.
    """
    graph = fig1_topology()
    schedule = growing_region_crash(
        graph,
        FIG1_F1,
        growth_members=["paris"],
        initial_at=1.0,
        growth_at=4.0,
    )
    detector = ScriptedFailureDetector(default_delay=1.0)
    detector.set_delay("madrid", "paris", madrid_detection_delay)
    return Scenario(
        name="fig1b",
        graph=graph,
        schedule=schedule,
        failure_detector=detector,
        description=(
            "F1 grows into F3 = F1 ∪ {paris} before agreement completes; "
            "madrid and berlin initially hold conflicting views."
        ),
        labels={"madrid_detection_delay": madrid_detection_delay},
    )


@dataclass
class Fig1bObservations:
    """What the Fig. 1b run shows, extracted from the trace."""

    result: RunResult
    #: Views proposed by madrid over time (smallest first).
    madrid_proposals: list[Region]
    #: Views proposed by berlin over time.
    berlin_proposals: list[Region]
    #: The single view eventually decided.
    decided_view: Optional[Region]
    #: Number of rejection messages exchanged while resolving the conflict.
    rejections: int

    @property
    def conflict_arose(self) -> bool:
        """True when madrid and berlin really proposed different views."""
        return any(view not in self.berlin_proposals for view in self.madrid_proposals)

    @property
    def converged_on_f3(self) -> bool:
        return (
            self.decided_view is not None
            and self.decided_view.members == FIG1_F3
        )


def run_fig1b(check: bool = True, seed: int = 0) -> Fig1bObservations:
    """Run the Fig. 1b scenario and extract its headline observations."""
    scenario = fig1b_scenario()
    result = scenario.run(check=check, seed=seed)

    def proposals_of(node: NodeId) -> list[Region]:
        return [
            event.payload
            for event in result.trace.of_kind(EventKind.VIEW_PROPOSED)
            if event.node == node
        ]

    decided_views = sorted(result.decided_views, key=lambda v: len(v), reverse=True)
    return Fig1bObservations(
        result=result,
        madrid_proposals=proposals_of("madrid"),
        berlin_proposals=proposals_of("berlin"),
        decided_view=decided_views[0] if decided_views else None,
        rejections=result.metrics.rejections,
    )


# ---------------------------------------------------------------------------
# Figure 2 — a faulty cluster of adjacent domains
# ---------------------------------------------------------------------------
@dataclass
class Fig2Observations:
    """What the Fig. 2 run shows."""

    result: RunResult
    layout: Fig2Layout
    #: Faulty domains (by name F1..F4) that ended up decided.
    decided_domains: dict[str, bool]
    #: Node that decided each decided domain.
    deciders: dict[str, tuple[NodeId, ...]]

    @property
    def cluster_has_decision(self) -> bool:
        """CD7 for the single faulty cluster of the figure."""
        return any(self.decided_domains.values())


def fig2_scenario() -> Scenario:
    """Fig. 2: four adjacent faulty domains crash simultaneously."""
    layout = fig2_topology()
    schedule = multi_region_crash(layout.graph, layout.domains, at=1.0)
    return Scenario(
        name="fig2",
        graph=layout.graph,
        schedule=schedule,
        description=(
            "A faulty cluster F1‖F2‖F3‖F4; shared border nodes can only "
            "commit to one domain, so some lower-ranked domains may stay "
            "undecided while CD7 still holds for the cluster."
        ),
    )


def run_fig2(check: bool = True, seed: int = 0) -> Fig2Observations:
    """Run the Fig. 2 scenario and report which domains were decided."""
    layout = fig2_topology()
    scenario = fig2_scenario()
    result = scenario.run(check=check, seed=seed)
    decided_domains: dict[str, bool] = {}
    deciders: dict[str, tuple[NodeId, ...]] = {}
    for index, members in enumerate(layout.domains, start=1):
        name = f"F{index}"
        region = Region(frozenset(members))
        decisions = result.decisions_on(region)
        decided_domains[name] = bool(decisions)
        deciders[name] = tuple(sorted((d.node for d in decisions), key=repr))
    return Fig2Observations(
        result=result,
        layout=layout,
        decided_domains=decided_domains,
        deciders=deciders,
    )


# ---------------------------------------------------------------------------
# Figure 3 — overlapping views and CD6
# ---------------------------------------------------------------------------
@dataclass
class Fig3Observations:
    """What the Fig. 3 run shows."""

    result: RunResult
    layout: Fig3Layout
    #: The view decided in the first wave.
    first_wave_view: Optional[Region]
    #: Views decided after the second wave (should not conflict).
    post_growth_views: tuple[Region, ...]
    #: True when some node proposed the grown (overlapping) region.
    grown_region_proposed: bool

    @property
    def no_conflicting_decision(self) -> bool:
        """CD6 in action: every decided view pair is equal or disjoint."""
        views = [self.first_wave_view, *self.post_growth_views]
        views = [view for view in views if view is not None]
        for index, first in enumerate(views):
            for second in views[index + 1 :]:
                if first.overlaps(second) and first != second:
                    return False
        return True


def fig3_scenario(growth_at: float = 120.0) -> Scenario:
    """Fig. 3: a region is agreed, then grows after the agreement."""
    layout = fig3_topology()
    first = region_crash(layout.graph, layout.first_wave, at=1.0)
    second = CrashSchedule(
        tuple(
            (node, growth_at + index)
            for index, node in enumerate(layout.second_wave)
        )
    )
    return Scenario(
        name="fig3",
        graph=layout.graph,
        schedule=first.merged(second),
        description=(
            "A crashed region is agreed upon; it then grows over part of "
            "its own border.  The grown region overlaps the decided one, "
            "so CD6 forbids any conflicting second decision."
        ),
        labels={"growth_at": growth_at},
    )


def run_fig3(check: bool = True, seed: int = 0) -> Fig3Observations:
    """Run the Fig. 3 scenario and extract the convergence observations."""
    layout = fig3_topology()
    scenario = fig3_scenario()
    result = scenario.run(check=check, seed=seed)
    first_view = Region(frozenset(layout.first_wave))
    first_wave_decisions = result.decisions_on(first_view)
    post_growth = tuple(
        view for view in result.decided_views if view != first_view
    )
    grown_proposed = any(
        event.payload.members == layout.combined
        for event in result.trace.of_kind(EventKind.VIEW_PROPOSED)
    )
    return Fig3Observations(
        result=result,
        layout=layout,
        first_wave_view=first_view if first_wave_decisions else None,
        post_growth_views=post_growth,
        grown_region_proposed=grown_proposed,
    )


# ---------------------------------------------------------------------------
# Churn — dynamic-membership scenario family (not in the paper)
# ---------------------------------------------------------------------------
@dataclass
class ChurnScenario:
    """A ready-to-run churn scenario: topology + crashes + membership.

    The same scenario runs unchanged on the deterministic simulator
    (``runtime="sim"``), on the wall-clock asyncio runtime
    (``runtime="asyncio"``) and on the deterministic virtual-time loop
    (``runtime="asyncio-virtual"``); the integration tests assert they
    reach identical decisions.
    """

    name: str
    graph: KnowledgeGraph
    schedule: CrashSchedule
    membership: MembershipSchedule
    description: str = ""
    labels: dict = field(default_factory=dict)

    def run(
        self,
        check: bool = True,
        seed: int = 0,
        runtime: str = "sim",
        timeout: float = 60.0,
    ) -> RunResult:
        if runtime == "sim":
            result = run_churn(
                self.graph, self.schedule, self.membership, seed=seed, check=check
            )
        elif runtime in ("asyncio", "asyncio-virtual"):
            result = run_churn_asyncio(
                self.graph,
                self.schedule,
                self.membership,
                seed=seed,
                check=check,
                timeout=timeout,
                virtual=runtime == "asyncio-virtual",
            )
        else:
            raise ValueError(f"unknown runtime {runtime!r}")
        result.labels.update(self.labels)
        result.labels["scenario"] = self.name
        return result


def torus_side_for(nodes: int) -> int:
    """Side length of the torus approximating ``nodes`` nodes.

    The single source of the churn scenarios' sizing formula — the spec
    presets (:mod:`repro.api.presets`) reuse it so spec-driven runs stay
    digest-identical to the classic builders.
    """
    return max(3, round(math.sqrt(nodes)))


def _torus_for(nodes: int) -> KnowledgeGraph:
    side = torus_side_for(nodes)
    return torus(side, side)


def churn_steady_scenario(
    nodes: int = 64,
    churn_rate: float = 0.05,
    duration: float = 100.0,
    seed: int = 0,
    downtime: float = 15.0,
) -> ChurnScenario:
    """Steady-state churn: independent crash→recover cycles on a torus.

    ``churn_rate`` is the fraction of the population starting a cycle per
    unit time; the resulting workload keeps detection and agreement
    instances permanently in flight somewhere in the graph.
    """
    graph = _torus_for(nodes)
    schedule, membership = steady_state_churn(
        graph,
        churn_rate=churn_rate,
        duration=duration,
        seed=seed,
        downtime=downtime,
    )
    return ChurnScenario(
        name="churn-steady",
        graph=graph,
        schedule=schedule,
        membership=membership,
        description=(
            f"{len(schedule)} crashes / {len(membership)} recoveries over "
            f"{duration} time units on a {len(graph)}-node torus."
        ),
        labels={"churn_rate": churn_rate, "nodes": len(graph), "seed": seed},
    )


def churn_recovery_race_scenario(
    nodes: int = 64,
    recover_at: float = 6.0,
    recrash_at: float = 60.0,
    seed: int = 0,
) -> ChurnScenario:
    """Crash → recover → re-crash, with the recovery racing the agreement.

    A 2x2 block of the torus crashes at t=1; with the default detector
    latency the border's consensus instances are mid-round when the block
    recovers at ``recover_at``, so in-flight state must be discarded
    (epoch quotient) before the block re-crashes and is agreed on again.
    """
    graph = _torus_for(nodes)
    block = [(1, 1), (1, 2), (2, 1), (2, 2)]
    schedule, membership = crash_recover_recrash(
        graph, block, crash_at=1.0, recover_at=recover_at, recrash_at=recrash_at
    )
    return ChurnScenario(
        name="churn-race",
        graph=graph,
        schedule=schedule,
        membership=membership,
        description=(
            "A crashed block recovers while the border is still agreeing on "
            "it, then crashes again; both epochs must decide identically."
        ),
        labels={"recover_at": recover_at, "recrash_at": recrash_at, "seed": seed},
    )


def churn_flash_crowd_scenario(
    nodes: int = 64,
    crowd: int = 8,
    seed: int = 0,
) -> ChurnScenario:
    """A flash crowd joins while a crashed region is being agreed on.

    A 2x2 block crashes at t=1 and ``crowd`` brand-new nodes join by
    locality from t=3 onwards — the graph grows under the protocol's feet,
    and the joiners must neither disturb the in-flight agreement nor leak
    messages outside the faulty-domain scopes.
    """
    graph = _torus_for(nodes)
    block = [(1, 1), (1, 2), (2, 1), (2, 2)]
    schedule = region_crash(graph, block, at=1.0)
    membership = flash_crowd_joins(
        graph, count=crowd, at=3.0, spacing=1.0, seed=seed
    )
    return ChurnScenario(
        name="churn-flash-crowd",
        graph=graph,
        schedule=schedule,
        membership=membership,
        description=(
            f"{crowd} locality-attached joins arrive while the border agrees "
            "on a crashed block."
        ),
        labels={"crowd": crowd, "seed": seed},
    )


# ---------------------------------------------------------------------------
# Large-torus scale family (the sharded-sweep workload)
# ---------------------------------------------------------------------------
def torus_block_members(
    side: int, block_side: int, origin: tuple[int, int]
) -> list[tuple[int, int]]:
    """The member coordinates of a wrap-around block on a torus.

    Pure modular arithmetic — the single source of block placement shared
    by :func:`torus_block_scenario`, the ``torus-block`` sweep family and
    the spec presets, none of which need a graph to compute it.
    """
    ox, oy = origin
    return [
        ((ox + dx) % side, (oy + dy) % side)
        for dx in range(block_side)
        for dy in range(block_side)
    ]


def torus_block_origins(
    side: int, scenarios: int, block_side: int = 2
) -> list[tuple[int, int]]:
    """Block origins of the scale family, spread along the torus diagonal."""
    if scenarios < 1:
        raise ValueError("need at least one scenario")
    stride = max(side // scenarios, block_side + 2)
    origins = []
    for index in range(scenarios):
        offset = (index * stride) % side
        origins.append((offset, (offset + index) % side))
    return origins


def torus_block_scenario(
    side: int = 32,
    block_side: int = 2,
    origin: tuple[int, int] = (1, 1),
    at: float = 1.0,
) -> Scenario:
    """A ``block_side²`` block crash on a ``side×side`` torus.

    The workhorse of the scale sweeps: a ``side=32`` torus is the
    1024-node benchmark point, ``side=64`` the 4096-node one.  The block
    wraps around the torus when the origin sits near an edge (the torus
    has no edges, so the region stays connected), which lets the family
    builders spread scenarios anywhere without bounds checking.
    """
    if side < 3:
        raise ValueError("torus side must be at least 3")
    if not (1 <= block_side < side - 1):
        raise ValueError("block must be smaller than the torus")
    graph = torus(side, side)
    ox, oy = origin
    block = torus_block_members(side, block_side, origin)
    schedule = region_crash(graph, block, at=at)
    return Scenario(
        name=f"torus{side}x{side}-block{block_side}@{(ox % side, oy % side)}",
        graph=graph,
        schedule=schedule,
        description=(
            f"a {block_side}x{block_side} block crashes on a {side}x{side} "
            f"torus ({side * side} nodes); the border agrees locally."
        ),
        labels={
            "side": side,
            "nodes": side * side,
            "block_side": block_side,
            "origin": (ox % side, oy % side),
        },
    )


def torus_scale_family(
    side: int = 64,
    scenarios: int = 8,
    block_side: int = 2,
) -> list[Scenario]:
    """``scenarios`` independent block crashes spread over one big torus.

    ``side=64`` is the 4096-node scale family from the ROADMAP; each
    scenario crashes a distinct block along the torus diagonal, so a
    sweep over the family exercises many localities of the same large
    topology.  Runs are independent — ideal shards for
    :class:`~repro.scale.ShardedSweepRunner`.
    """
    return [
        torus_block_scenario(side=side, block_side=block_side, origin=origin)
        for origin in torus_block_origins(side, scenarios, block_side)
    ]
