"""Adversarial property sweep (EXP-C1) and its churn extension.

The paper proves CD1–CD7; the sweep checks them empirically across many
randomised topologies and crash schedules, including the adversarial cases
the proofs worry about: regions growing mid-protocol, cascades, several
simultaneous regions, and slow/fast failure detection mixes.

The churn extension (:func:`run_churn_sweep_case`) layers a randomised
:class:`~repro.churn.MembershipSchedule` on top — joins and recoveries
racing the cascades — and checks the *epoch-quotiented* CD1–CD7
specification instead.

Every run is deterministic in its seed, so a violation (there should be
none) is immediately reproducible.  Both sweeps accept ``workers=N`` to
shard their cases over a process pool via
:class:`~repro.scale.ShardedSweepRunner`; the results (including the
canonical per-case trace digests) are identical for every worker count.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from ..churn import (
    MembershipEventKind,
    MembershipSchedule,
    flash_crowd_joins,
    recover,
    run_churn,
)
from ..failures import (
    CrashSchedule,
    cascade_crash,
    multi_region_crash,
    random_connected_region,
    region_crash,
)
from ..graph import KnowledgeGraph
from ..graph.generators import (
    barabasi_albert,
    clustered_communities,
    grid,
    random_geometric,
    torus,
    watts_strogatz,
)
from ..sim import JitteredFailureDetector
from .runner import run_cliff_edge


@dataclass(frozen=True)
class SweepCase:
    """One randomly generated run of the property sweep."""

    seed: int
    topology: str
    nodes: int
    crashed: int
    faulty_domains: int
    decisions: int
    decided_views: int
    messages: int
    quiescent: bool
    specification_holds: bool
    violations: tuple[str, ...]
    #: Canonical trace digest — the case's deterministic fingerprint.
    digest: str = ""

    def as_row(self) -> dict[str, object]:
        return {
            "seed": self.seed,
            "topology": self.topology,
            "nodes": self.nodes,
            "crashed": self.crashed,
            "domains": self.faulty_domains,
            "decisions": self.decisions,
            "views": self.decided_views,
            "messages": self.messages,
            "quiescent": self.quiescent,
            "spec_holds": self.specification_holds,
        }


def _random_topology(rng: random.Random) -> tuple[str, KnowledgeGraph]:
    """A randomly chosen, randomly parameterised topology."""
    choice = rng.randrange(6)
    if choice == 0:
        side = rng.randint(5, 9)
        return f"grid-{side}x{side}", grid(side, side)
    if choice == 1:
        side = rng.randint(5, 9)
        return f"torus-{side}x{side}", torus(side, side)
    if choice == 2:
        size = rng.randint(30, 70)
        return f"geometric-{size}", random_geometric(size, 0.3, seed=rng.randrange(10_000))
    if choice == 3:
        size = rng.randint(30, 70)
        return f"smallworld-{size}", watts_strogatz(size, 4, 0.2, seed=rng.randrange(10_000))
    if choice == 4:
        size = rng.randint(30, 70)
        return f"scalefree-{size}", barabasi_albert(size, 2, seed=rng.randrange(10_000))
    communities = rng.randint(3, 5)
    return (
        f"communities-{communities}",
        clustered_communities(communities, rng.randint(4, 7), seed=rng.randrange(10_000)),
    )


def _random_schedule(rng: random.Random, graph: KnowledgeGraph) -> CrashSchedule:
    """A randomly chosen crash pattern over ``graph``."""
    pattern = rng.randrange(4)
    max_region = max(1, min(len(graph) // 4, 8))
    if pattern == 0:
        region = random_connected_region(
            graph, rng.randint(1, max_region), seed=rng.randrange(10_000)
        )
        return region_crash(graph, region.members, at=1.0, spread=rng.uniform(0.0, 4.0))
    if pattern == 1:
        first = random_connected_region(
            graph, rng.randint(1, max_region), seed=rng.randrange(10_000)
        )
        second = random_connected_region(
            graph,
            rng.randint(1, max_region),
            seed=rng.randrange(10_000),
            forbidden=first.members,
        )
        return multi_region_crash(
            graph, [first.members, second.members], at=1.0, stagger=rng.uniform(0.0, 5.0)
        )
    if pattern == 2:
        start = rng.choice(sorted(graph.nodes, key=repr))
        size = rng.randint(2, max_region + 1)
        return cascade_crash(graph, start, size, start=1.0, spacing=rng.uniform(0.5, 3.0))
    region = random_connected_region(
        graph, rng.randint(2, max_region + 1), seed=rng.randrange(10_000)
    )
    # Same region, but crashing very slowly: view construction keeps racing
    # the consensus rounds, which is where arbitration earns its keep.
    return region_crash(graph, region.members, at=1.0, spread=rng.uniform(6.0, 15.0))


def run_sweep_case(seed: int) -> SweepCase:
    """Generate and execute one randomised case."""
    rng = random.Random(seed)
    topology_name, graph = _random_topology(rng)
    schedule = _random_schedule(rng, graph)
    result = run_cliff_edge(
        graph,
        schedule,
        failure_detector=JitteredFailureDetector(0.3, rng.uniform(1.0, 3.0)),
        seed=seed,
        check=True,
    )
    from ..graph import faulty_domains  # local import to avoid cycle at module load

    domains = faulty_domains(graph, schedule.nodes)
    specification = result.specification
    return SweepCase(
        seed=seed,
        topology=topology_name,
        nodes=len(graph),
        crashed=len(schedule.nodes),
        faulty_domains=len(domains),
        decisions=result.metrics.decisions,
        decided_views=result.metrics.decided_views,
        messages=result.metrics.messages_sent,
        quiescent=result.simulator.is_quiescent(),
        specification_holds=specification.holds if specification is not None else True,
        violations=tuple(specification.violations()) if specification is not None else (),
        digest=result.digest(),
    )


def property_sweep(
    seeds: Sequence[int] = tuple(range(20)), workers: int = 1
) -> list[SweepCase]:
    """EXP-C1: run the sweep for the given seeds.

    ``workers > 1`` shards the cases over a process pool; the returned
    cases (digests included) are identical to a ``workers=1`` run.
    """
    from ..scale import ShardedSweepRunner, property_tasks

    return ShardedSweepRunner(workers=workers).run(property_tasks(seeds)).cases()


# ---------------------------------------------------------------------------
# The adversarial churn extension of EXP-C1
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ChurnSweepCase:
    """One randomly generated churned run of the property sweep."""

    seed: int
    topology: str
    nodes: int
    crashed: int
    joins: int
    recoveries: int
    epochs: int
    decisions: int
    decided_views: int
    messages: int
    quiescent: bool
    specification_holds: bool
    violations: tuple[str, ...]
    #: Canonical trace digest — the case's deterministic fingerprint.
    digest: str = ""

    def as_row(self) -> dict[str, object]:
        return {
            "seed": self.seed,
            "topology": self.topology,
            "nodes": self.nodes,
            "crashed": self.crashed,
            "joins": self.joins,
            "recoveries": self.recoveries,
            "epochs": self.epochs,
            "decisions": self.decisions,
            "views": self.decided_views,
            "messages": self.messages,
            "quiescent": self.quiescent,
            "spec_holds": self.specification_holds,
        }


def random_churn_membership(
    rng: random.Random,
    graph: KnowledgeGraph,
    schedule: CrashSchedule,
    max_joins: int = 3,
    min_downtime: float = 4.0,
    max_downtime: float = 25.0,
) -> MembershipSchedule:
    """A randomised membership schedule racing ``schedule``'s crashes.

    A random subset of the crashed nodes recovers a short, random
    downtime after its crash (often while the border is still agreeing on
    the region — the adversarial race the epoch quotient exists for), and
    up to ``max_joins`` brand-new nodes join by locality while the
    cascade is in flight.  The result always validates against
    ``(graph, schedule)``.
    """
    last_crash: dict = {}
    for node, time in schedule.crashes:
        last_crash[node] = max(time, last_crash.get(node, 0.0))
    events = []
    for node in sorted(last_crash, key=repr):
        if rng.random() < 0.5:
            downtime = rng.uniform(min_downtime, max_downtime)
            events.append(recover(node, last_crash[node] + downtime))
    membership = MembershipSchedule(tuple(sorted(events, key=lambda e: (e.time, repr(e.node)))))
    join_count = rng.randrange(max_joins + 1)
    if join_count:
        joins = flash_crowd_joins(
            graph,
            count=join_count,
            at=rng.uniform(1.0, 8.0),
            spacing=rng.uniform(0.0, 2.0),
            seed=rng.randrange(10_000),
        )
        membership = membership.merged(joins)
    return membership


def run_churn_sweep_case(seed: int) -> ChurnSweepCase:
    """Generate and execute one randomised adversarial churn case.

    Reuses EXP-C1's random topology and crash-schedule generators, layers
    a random membership schedule on top, and checks the epoch-quotiented
    CD1–CD7 specification.
    """
    rng = random.Random(seed)
    topology_name, graph = _random_topology(rng)
    schedule = _random_schedule(rng, graph)
    membership = random_churn_membership(rng, graph, schedule)
    result = run_churn(
        graph,
        schedule,
        membership,
        failure_detector=JitteredFailureDetector(0.3, rng.uniform(1.0, 3.0)),
        seed=seed,
        check=True,
    )
    specification = result.specification
    return ChurnSweepCase(
        seed=seed,
        topology=topology_name,
        nodes=len(graph),
        crashed=len(schedule.nodes),
        joins=len(membership.joining_nodes),
        recoveries=len(membership.of_kind(MembershipEventKind.RECOVER)),
        epochs=len(result.epochs),
        decisions=result.metrics.decisions,
        decided_views=result.metrics.decided_views,
        messages=result.metrics.messages_sent,
        quiescent=result.quiescent,
        specification_holds=specification.holds if specification is not None else True,
        violations=tuple(specification.violations()) if specification is not None else (),
        digest=result.digest(),
    )


def churn_property_sweep(
    seeds: Sequence[int] = tuple(range(20)), workers: int = 1
) -> list[ChurnSweepCase]:
    """The adversarial churn extension of EXP-C1.

    ``workers > 1`` shards the cases over a process pool; results are
    identical to a ``workers=1`` run.
    """
    from ..scale import ShardedSweepRunner, churn_property_tasks

    return (
        ShardedSweepRunner(workers=workers).run(churn_property_tasks(seeds)).cases()
    )


def sweep_summary(cases: Sequence[SweepCase]) -> dict[str, object]:
    """Aggregate view of a sweep (``repro report``'s EXP-C1 claims)."""
    return {
        "cases": len(cases),
        "all_hold": all(case.specification_holds for case in cases),
        "all_quiescent": all(case.quiescent for case in cases),
        "total_decisions": sum(case.decisions for case in cases),
        "total_messages": sum(case.messages for case in cases),
        "violating_seeds": [case.seed for case in cases if not case.specification_holds],
    }
