"""Baseline comparison experiments (EXP-B1, EXP-B2).

EXP-B1 pits cliff-edge consensus against the whole-network flooding
consensus that classical approaches would use: same topology, same crashed
region, and two very different cost curves as the system grows.

EXP-B2 compares against the gossip / eventual-convergence style of
partitionable group membership: the gossip service floods crash information
across the whole connected component and never produces an explicit,
once-only decision; the comparison counts how many nodes end up involved
and how many intermediate views get installed.

EXP-B3 (supporting) compares against completely uncoordinated local repair
and counts the conflicting or duplicated repair actions that the agreement
layer prevents.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from ..api.presets import torus_region_spec
from ..api.session import run_spec
from ..baselines import (
    run_global_baseline,
    run_gossip_baseline,
    run_uncoordinated_baseline,
)
from ..failures import region_crash
from ..graph.generators import square_region, torus
from .runner import run_cliff_edge


@dataclass(frozen=True)
class BaselineComparisonPoint:
    """Cliff-edge vs. whole-network consensus on one system size."""

    system_size: int
    region_size: int
    cliff_edge_messages: int
    cliff_edge_speaking_nodes: int
    cliff_edge_bytes: int
    global_messages: int
    global_speaking_nodes: int
    global_bytes: int

    @property
    def message_ratio(self) -> float:
        """How many times more messages the global baseline needs."""
        if self.cliff_edge_messages == 0:
            return float("inf")
        return self.global_messages / self.cliff_edge_messages

    def as_row(self) -> dict[str, object]:
        return {
            "system_size": self.system_size,
            "region_size": self.region_size,
            "cliff_messages": self.cliff_edge_messages,
            "global_messages": self.global_messages,
            "ratio": round(self.message_ratio, 1),
            "cliff_speaking": self.cliff_edge_speaking_nodes,
            "global_speaking": self.global_speaking_nodes,
            "cliff_bytes": self.cliff_edge_bytes,
            "global_bytes": self.global_bytes,
        }


def global_consensus_comparison(
    sides: Sequence[int] = (6, 8, 10, 12, 16),
    region_side: int = 2,
    seed: int = 0,
) -> list[BaselineComparisonPoint]:
    """EXP-B1: message cost of cliff-edge vs. whole-network consensus."""
    points = []
    for side in sides:
        spec = torus_region_spec(side, region_side, seed=seed, check=False)
        cliff_result, region = run_spec(spec), spec.failure.params["members"]
        schedule = region_crash(cliff_result.graph, region, at=1.0)
        global_result = run_global_baseline(cliff_result.graph, schedule, seed=seed)
        points.append(
            BaselineComparisonPoint(
                system_size=side * side,
                region_size=len(region),
                cliff_edge_messages=cliff_result.metrics.messages_sent,
                cliff_edge_speaking_nodes=cliff_result.metrics.speaking_nodes,
                cliff_edge_bytes=cliff_result.metrics.bytes_sent,
                global_messages=global_result.metrics.messages_sent,
                global_speaking_nodes=global_result.metrics.speaking_nodes,
                global_bytes=global_result.metrics.bytes_sent,
            )
        )
    return points


@dataclass(frozen=True)
class GossipComparisonPoint:
    """Cliff-edge vs. gossip eventual convergence on one system size."""

    system_size: int
    region_size: int
    cliff_edge_messages: int
    cliff_edge_involved_nodes: int
    cliff_edge_decisions: int
    gossip_messages: int
    gossip_informed_nodes: int
    gossip_view_installs: int
    gossip_converged: bool

    def as_row(self) -> dict[str, object]:
        return {
            "system_size": self.system_size,
            "region_size": self.region_size,
            "cliff_messages": self.cliff_edge_messages,
            "gossip_messages": self.gossip_messages,
            "cliff_involved": self.cliff_edge_involved_nodes,
            "gossip_informed": self.gossip_informed_nodes,
            "cliff_decisions": self.cliff_edge_decisions,
            "gossip_installs": self.gossip_view_installs,
            "gossip_converged": self.gossip_converged,
        }


def gossip_comparison(
    sides: Sequence[int] = (8, 12, 16, 24),
    region_side: int = 2,
    seed: int = 0,
) -> list[GossipComparisonPoint]:
    """EXP-B2: explicit local agreement vs. network-wide eventual views."""
    points = []
    for side in sides:
        spec = torus_region_spec(side, region_side, seed=seed, check=False)
        cliff_result, region = run_spec(spec), spec.failure.params["members"]
        schedule = region_crash(cliff_result.graph, region, at=1.0)
        gossip_result = run_gossip_baseline(cliff_result.graph, schedule, seed=seed)
        points.append(
            GossipComparisonPoint(
                system_size=side * side,
                region_size=len(region),
                cliff_edge_messages=cliff_result.metrics.messages_sent,
                cliff_edge_involved_nodes=cliff_result.metrics.speaking_nodes,
                cliff_edge_decisions=cliff_result.metrics.decisions,
                gossip_messages=gossip_result.metrics.messages_sent,
                gossip_informed_nodes=gossip_result.informed_nodes,
                gossip_view_installs=gossip_result.total_installs,
                gossip_converged=gossip_result.converged,
            )
        )
    return points


@dataclass(frozen=True)
class UncoordinatedComparisonPoint:
    """Cliff-edge vs. uncoordinated repair under a growing crash scenario."""

    system_size: int
    region_size: int
    cliff_decided_views: int
    cliff_conflicting_pairs: int
    uncoordinated_actors: int
    uncoordinated_conflicting_pairs: int
    uncoordinated_duplicated_repairs: int

    def as_row(self) -> dict[str, object]:
        return {
            "system_size": self.system_size,
            "region_size": self.region_size,
            "cliff_views": self.cliff_decided_views,
            "cliff_conflicts": self.cliff_conflicting_pairs,
            "uncoord_actors": self.uncoordinated_actors,
            "uncoord_conflicts": self.uncoordinated_conflicting_pairs,
            "uncoord_duplicates": self.uncoordinated_duplicated_repairs,
        }


def uncoordinated_comparison(
    sides: Sequence[int] = (8, 12, 16),
    region_side: int = 3,
    grace_period: float = 1.5,
    seed: int = 0,
) -> list[UncoordinatedComparisonPoint]:
    """EXP-B3: agreement quality vs. acting unilaterally.

    The crash is spread over time (``spread > 0``) so an impatient,
    uncoordinated reaction acts on stale views; the cliff-edge run on the
    same schedule converges on the full region.  Both runs share one built
    graph and schedule because the baseline is a ``Process`` class no spec
    names, so neither goes through the session.
    """
    points = []
    for side in sides:
        graph = torus(side, side)
        members = square_region((1, 1), region_side)
        schedule = region_crash(graph, members, at=1.0, spread=4.0)
        cliff_result = run_cliff_edge(graph, schedule, seed=seed, check=False)
        cliff_views = sorted(cliff_result.decided_views, key=repr)
        cliff_conflicts = sum(
            first.overlaps(second) and first != second
            for first, second in combinations(cliff_views, 2)
        )
        uncoordinated = run_uncoordinated_baseline(
            graph, schedule, grace_period=grace_period, seed=seed
        )
        points.append(
            UncoordinatedComparisonPoint(
                system_size=side * side,
                region_size=region_side * region_side,
                cliff_decided_views=len(cliff_views),
                cliff_conflicting_pairs=cliff_conflicts,
                uncoordinated_actors=len(uncoordinated.actions),
                uncoordinated_conflicting_pairs=uncoordinated.conflicting_pairs,
                uncoordinated_duplicated_repairs=uncoordinated.duplicated_repairs,
            )
        )
    return points
