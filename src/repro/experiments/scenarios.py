"""What the paper's figures show, read off their runs.

Each figure is one :class:`~repro.api.ExperimentSpec` built from its
layout (:func:`~repro.api.presets.fig1a_scenario` … ``fig3_scenario``,
re-exported here); ``run_fig*`` runs it through the session and returns
both the raw :class:`~repro.api.result.RunResult` and a small summary of
the figure-specific observations (who decided what, which conflicts arose
and how they were resolved).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

# fig1a_scenario is re-exported with the others; torus_block_members because
# this module is where the perf ledger imports it from.
from ..api.presets import (  # noqa: F401
    fig1a_scenario,
    fig1b_scenario,
    fig2_scenario,
    fig3_scenario,
    torus_block_members,
)
from ..api.result import RunResult
from ..api.session import ExperimentSession
from ..api.specs import ExperimentSpec
from ..graph import NodeId, Region
from ..sim.events import EventKind
from .topologies import FIG1_F3, Fig2Layout, Fig3Layout, fig2_topology, fig3_topology


def _run(spec: ExperimentSpec, check: bool, seed: int) -> RunResult:
    return ExperimentSession().run(dataclasses.replace(spec, check=check, seed=seed))


# ---------------------------------------------------------------------------
# Figure 1b — F1 grows into F3 while the agreement is in flight
# ---------------------------------------------------------------------------
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
    result = _run(fig1b_scenario(), check, seed)

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


def run_fig2(check: bool = True, seed: int = 0) -> Fig2Observations:
    """Run the Fig. 2 scenario and report which domains were decided."""
    layout = fig2_topology()
    result = _run(fig2_scenario(), check, seed)
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


def run_fig3(check: bool = True, seed: int = 0) -> Fig3Observations:
    """Run the Fig. 3 scenario and extract the convergence observations."""
    layout = fig3_topology()
    result = _run(fig3_scenario(), check, seed)
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
