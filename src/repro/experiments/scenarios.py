"""The classic scenario builders: a preset spec plus a description.

A :class:`Scenario` *is* an :class:`~repro.api.ExperimentSpec`: what a
builder here describes is written once, in :mod:`repro.api.presets` (the
figure builders, whose crash scripts come from the figure layouts, write
their spec themselves and ``figure_spec`` reads it back).  Each
``run_fig*`` executes its scenario and returns both the raw
:class:`~repro.experiments.runner.RunResult` and a small summary of the
figure-specific observations (who decided what, which conflicts arose and
how they were resolved).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Mapping, Optional

from ..api.presets import churn_scenario_spec, torus_block_origins, torus_block_spec

# Re-exported: this module is where the perf ledger and older callers import them from.
from ..api.presets import torus_block_members, torus_side_for  # noqa: F401
from ..api.session import ExperimentSession
from ..api.specs import ExperimentSpec, FailureSpec, RuntimeSpec, TopologySpec
from ..churn import MembershipSchedule
from ..failures import CrashSchedule, growing_region_crash, multi_region_crash, region_crash
from ..graph import KnowledgeGraph, NodeId, Region
from ..sim import FailureDetectorPolicy
from ..sim.events import EventKind
from .runner import RunResult
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
    """A ready-to-run scenario: a spec and a description of what it shows.

    ``graph``/``schedule``/``membership``/``failure_detector`` are what the
    session resolves the spec to, and :meth:`run` is the session's ``run``
    on it — on the simulator (``runtime="sim"``), wall-clock asyncio
    (``"asyncio"``) or the virtual-time loop (``"asyncio-virtual"``); the
    integration tests assert they reach identical decisions.  The script
    is fixed at build time: ``run(seed=…)`` seeds the *run* (latency and
    detector draws), never the crash or membership generators.
    """

    spec: ExperimentSpec
    description: str = ""

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def labels(self) -> dict:
        return dict(self.spec.labels)

    @cached_property
    def _resolved(self) -> tuple[KnowledgeGraph, CrashSchedule, MembershipSchedule]:
        return ExperimentSession().resolve(self.spec)

    @property
    def graph(self) -> KnowledgeGraph:
        return self._resolved[0]

    @property
    def schedule(self) -> CrashSchedule:
        return self._resolved[1]

    @property
    def membership(self) -> MembershipSchedule:
        return self._resolved[2]

    @property
    def failure_detector(self) -> Optional[FailureDetectorPolicy]:
        return self.spec.runtime.resolve_failure_detector()

    def run(
        self,
        check: bool = True,
        seed: int = 0,
        runtime: str = "sim",
        timeout: float = 60.0,
    ) -> RunResult:
        engine = dataclasses.replace(self.spec.runtime, engine=runtime, timeout=timeout)
        return ExperimentSession().run(
            dataclasses.replace(self.spec, check=check, seed=seed, runtime=engine)
        )


#: A churn scenario is a scenario whose spec has a membership half.
ChurnScenario = Scenario


def _figure_scenario(
    name: str,
    topology: str,
    schedule: CrashSchedule,
    description: str,
    failure_detector: Optional[Mapping[str, Any]] = None,
    labels: Optional[Mapping[str, Any]] = None,
) -> Scenario:
    """A figure scenario: its layout's crash script, spelled out."""
    spec = ExperimentSpec(
        name=name,
        topology=TopologySpec(topology),
        failure=FailureSpec("explicit", {"crashes": schedule.crashes}),
        runtime=RuntimeSpec(failure_detector=failure_detector),
        labels=labels or {},
    )
    return Scenario(spec, description)


# ---------------------------------------------------------------------------
# Figure 1a — two independent crashed regions, agreed locally
# ---------------------------------------------------------------------------
def fig1a_scenario() -> Scenario:
    """Fig. 1a: regions F1 (Europe) and F2 (Pacific) crash independently."""
    return _figure_scenario(
        "fig1a",
        "fig1",
        multi_region_crash(fig1_topology(), [FIG1_F1, FIG1_F2], at=1.0),
        "Two disjoint crashed regions; each border agrees locally and "
        "nodes such as vancouver never talk to madrid (CD3).",
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
    schedule = growing_region_crash(
        fig1_topology(),
        FIG1_F1,
        growth_members=["paris"],
        initial_at=1.0,
        growth_at=4.0,
    )
    return _figure_scenario(
        "fig1b",
        "fig1",
        schedule,
        "F1 grows into F3 = F1 ∪ {paris} before agreement completes; "
        "madrid and berlin initially hold conflicting views.",
        failure_detector={
            "kind": "scripted",
            "default_delay": 1.0,
            "delays": [["madrid", "paris", madrid_detection_delay]],
        },
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
    return _figure_scenario(
        "fig2",
        "fig2",
        multi_region_crash(layout.graph, layout.domains, at=1.0),
        "A faulty cluster F1‖F2‖F3‖F4; shared border nodes can only "
        "commit to one domain, so some lower-ranked domains may stay "
        "undecided while CD7 still holds for the cluster.",
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
    return _figure_scenario(
        "fig3",
        "fig3",
        first.merged(second),
        "A crashed region is agreed upon; it then grows over part of "
        "its own border.  The grown region overlaps the decided one, "
        "so CD6 forbids any conflicting second decision.",
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
def _with_params(sub_spec, **params):
    return dataclasses.replace(sub_spec, params={**sub_spec.params, **params})


def churn_steady_scenario(
    nodes: int = 64,
    churn_rate: float = 0.05,
    duration: float = 100.0,
    seed: int = 0,
    downtime: float = 15.0,
) -> Scenario:
    """Steady-state churn: independent crash→recover cycles on a torus.

    ``churn_rate`` is the fraction of the population starting a cycle per
    unit time; the resulting workload keeps detection and agreement
    instances permanently in flight somewhere in the graph.
    """
    spec = churn_scenario_spec(
        "steady",
        nodes=nodes,
        churn_rate=churn_rate,
        duration=duration,
        seed=seed,
        downtime=downtime,
    )
    # ``seed`` draws the script; pin it, or a run at another seed would
    # re-draw the cycles (the generator falls back to the run seed).
    scenario = Scenario(
        dataclasses.replace(
            spec,
            failure=_with_params(spec.failure, churn_seed=seed),
            membership=_with_params(spec.membership, churn_seed=seed),
        )
    )
    scenario.description = (
        f"{len(scenario.schedule)} crashes / {len(scenario.membership)} "
        f"recoveries over {duration} time units on a "
        f"{len(scenario.graph)}-node torus."
    )
    return scenario


def churn_recovery_race_scenario(
    nodes: int = 64,
    recover_at: float = 6.0,
    recrash_at: float = 60.0,
    seed: int = 0,
) -> Scenario:
    """Crash → recover → re-crash, with the recovery racing the agreement.

    A 2x2 block of the torus crashes at t=1; with the default detector
    latency the border's consensus instances are mid-round when the block
    recovers at ``recover_at``, so in-flight state must be discarded
    (epoch quotient) before the block re-crashes and is agreed on again.
    """
    return Scenario(
        churn_scenario_spec(
            "race", nodes=nodes, seed=seed, recover_at=recover_at, recrash_at=recrash_at
        ),
        "A crashed block recovers while the border is still agreeing on "
        "it, then crashes again; both epochs must decide identically.",
    )


def churn_flash_crowd_scenario(
    nodes: int = 64,
    crowd: int = 8,
    seed: int = 0,
) -> Scenario:
    """A flash crowd joins while a crashed region is being agreed on.

    A 2x2 block crashes at t=1 and ``crowd`` brand-new nodes join by
    locality from t=3 onwards — the graph grows under the protocol's feet,
    and the joiners must neither disturb the in-flight agreement nor leak
    messages outside the faulty-domain scopes.
    """
    spec = churn_scenario_spec("flash", nodes=nodes, seed=seed, crowd=crowd)
    # As for the steady script: ``seed`` draws the joiners' anchors.
    return Scenario(
        dataclasses.replace(
            spec, membership=_with_params(spec.membership, join_seed=seed)
        ),
        f"{crowd} locality-attached joins arrive while the border agrees "
        "on a crashed block.",
    )


# ---------------------------------------------------------------------------
# Large-torus scale family (the sharded-sweep workload)
# ---------------------------------------------------------------------------
def torus_block_scenario(
    side: int = 32,
    block_side: int = 2,
    origin: tuple[int, int] = (1, 1),
    at: float = 1.0,
) -> Scenario:
    """A ``block_side²`` block crash on a ``side×side`` torus
    (:func:`~repro.api.presets.torus_block_spec`)."""
    return Scenario(
        torus_block_spec(side=side, block_side=block_side, origin=origin, at=at),
        f"a {block_side}x{block_side} block crashes on a {side}x{side} "
        f"torus ({side * side} nodes); the border agrees locally.",
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
