"""The one written-down description of every experiment the repo ships.

A block coordinate, a detector window, a default time or a label is
spelled out here and nowhere else: the figure observations
(:mod:`repro.experiments.scenarios`), the sweep families
(:mod:`repro.scale.families`) and the CLI subcommands (whose
``--emit-spec`` prints these documents) all run a spec built here through
:class:`~repro.api.session.ExperimentSession`.  The perf ledger pins the
bytes :func:`churn_scenario_spec`, :func:`torus_sweep_spec` and
:func:`quickstart_spec` emit, so new parameters are keyword-only and
default to the old constants.
"""

from __future__ import annotations

import dataclasses
import math
import random
from typing import TYPE_CHECKING, Any, Mapping, Optional

from ..graph.generators import square_region
from .specs import (
    ExperimentSpec,
    FailureSpec,
    MembershipSpec,
    RuntimeSpec,
    SpecError,
    SweepSpec,
    TopologySpec,
)

if TYPE_CHECKING:
    from ..failures import CrashSchedule


def quickstart_spec(side: int = 6, block: int = 2, seed: int = 0) -> ExperimentSpec:
    """The ``repro quickstart`` run: a block crash in a ``side×side`` grid."""
    members = sorted(square_region((1, 1), block))
    return ExperimentSpec(
        name="quickstart",
        topology=TopologySpec("grid", {"width": side, "height": side}),
        failure=FailureSpec("region", {"members": members, "at": 1.0}),
        seed=seed,
        check=True,
        labels={"side": side, "block": block},
    )


def _figure(
    name: str,
    topology: str,
    crashes: CrashSchedule,
    failure_detector: Optional[Mapping[str, Any]] = None,
    labels: Optional[Mapping[str, Any]] = None,
) -> ExperimentSpec:
    """A figure run: its layout's crash script, spelled out."""
    return ExperimentSpec(
        name=name,
        topology=TopologySpec(topology),
        failure=FailureSpec("explicit", {"crashes": crashes.crashes}),
        runtime=RuntimeSpec(failure_detector=failure_detector),
        labels=labels or {},
    )


# The figure layouts live in repro.experiments.topologies (imported when a
# figure is built, so loading the presets loads no experiment module).
def fig1a_scenario() -> ExperimentSpec:
    """Fig. 1a: regions F1 (Europe) and F2 (Pacific) crash independently.

    Each border agrees locally, and nodes such as vancouver never talk to
    madrid (CD3).
    """
    from ..experiments.topologies import FIG1_F1, FIG1_F2, fig1_topology
    from ..failures import multi_region_crash

    return _figure("fig1a", "fig1", multi_region_crash(fig1_topology(), [FIG1_F1, FIG1_F2], at=1.0))


def fig1b_scenario(madrid_detection_delay: float = 40.0) -> ExperimentSpec:
    """Fig. 1b: paris crashes mid-protocol; madrid is slow to notice.

    F1 grows into F3 = F1 ∪ {paris} before agreement completes.  The
    scripted failure detector delays madrid's detection of paris' crash,
    so madrid keeps trying to agree on F1 with london and roma while berlin
    (paris' surviving neighbour) pushes for F3.  The protocol must resolve
    the conflict through ranking-based rejection and converge on F3.
    """
    from ..experiments.topologies import FIG1_F1, fig1_topology
    from ..failures import growing_region_crash

    return _figure(
        "fig1b",
        "fig1",
        growing_region_crash(
            fig1_topology(), FIG1_F1, growth_members=["paris"], initial_at=1.0, growth_at=4.0
        ),
        failure_detector={
            "kind": "scripted",
            "default_delay": 1.0,
            "delays": [["madrid", "paris", madrid_detection_delay]],
        },
        labels={"madrid_detection_delay": madrid_detection_delay},
    )


def fig2_scenario() -> ExperimentSpec:
    """Fig. 2: four adjacent faulty domains crash simultaneously.

    A faulty cluster F1‖F2‖F3‖F4: shared border nodes can only commit to
    one domain, so some lower-ranked domains may stay undecided while CD7
    still holds for the cluster.
    """
    from ..experiments.topologies import fig2_topology
    from ..failures import multi_region_crash

    layout = fig2_topology()
    return _figure("fig2", "fig2", multi_region_crash(layout.graph, layout.domains, at=1.0))


def fig3_scenario(growth_at: float = 120.0) -> ExperimentSpec:
    """Fig. 3: a region is agreed, then grows after the agreement.

    The grown region overlaps the decided one over part of its own border,
    so CD6 forbids any conflicting second decision.
    """
    from ..experiments.topologies import fig3_topology
    from ..failures import CrashSchedule, region_crash

    layout = fig3_topology()
    first = region_crash(layout.graph, layout.first_wave, at=1.0)
    second = CrashSchedule(
        tuple((node, growth_at + index) for index, node in enumerate(layout.second_wave))
    )
    return _figure("fig3", "fig3", first.merged(second), labels={"growth_at": growth_at})


def figure_spec(which: str, seed: int = 0) -> ExperimentSpec:
    """The run behind ``repro figure {1a,1b,2,3}`` as a spec.

    The figure commands derive extra observations from the trace (who
    proposed what, which domains decided); the spec is the *run* itself —
    the figure's topology, explicit crash script and detector timing — at
    ``seed``.
    """
    builders = {
        "1a": fig1a_scenario,
        "1b": fig1b_scenario,
        "2": fig2_scenario,
        "3": fig3_scenario,
    }
    try:
        builder = builders[which]
    except KeyError:
        raise SpecError(
            f"unknown figure {which!r}; known: {', '.join(sorted(builders))}"
        ) from None
    return builder().with_seed(seed)


#: The crashed block shared by the race and flash-crowd churn scenarios.
_CHURN_BLOCK = ((1, 1), (1, 2), (2, 1), (2, 2))


def torus_side_for(nodes: int) -> int:
    """Side length of the torus approximating ``nodes`` nodes (the churn
    scenarios' sizing formula)."""
    return max(3, round(math.sqrt(nodes)))


def churn_scenario_spec(
    scenario: str,
    nodes: int = 64,
    churn_rate: float = 0.05,
    duration: float = 100.0,
    seed: int = 0,
    runtime: str = "sim",
    *,
    downtime: float = 15.0,
    recover_at: float = 6.0,
    recrash_at: float = 60.0,
    crowd: int = 8,
) -> ExperimentSpec:
    """The churn scenario family: ``repro churn --scenario {steady,race,flash}``
    and the ``churn-scenario`` sweep family.

    * ``steady`` — independent crash→recover cycles on a torus:
      ``churn_rate`` is the fraction of the population starting a cycle per
      unit time, each node down for ``downtime``, over ``duration``; the
      workload keeps detection and agreement permanently in flight.
    * ``race`` — crash → recover → re-crash of a 2x2 block, the recovery
      at ``recover_at`` racing the border's agreement (in-flight state must
      be discarded) before the re-crash at ``recrash_at``.
    * ``flash`` — ``crowd`` brand-new nodes join by locality from t=3
      while the border agrees on a crashed block; they must neither
      disturb it nor leak messages outside the faulty-domain scopes.

    ``seed`` seeds the run, and the steady cycles and the flash joiners'
    anchors are drawn from it when the spec is resolved.  To keep one
    script at several run seeds, pin the draw: ``churn_seed`` in both the
    failure and membership params of ``steady``, ``join_seed`` in the
    membership params of ``flash``.
    """
    side = torus_side_for(nodes)
    topology = TopologySpec("torus", {"width": side, "height": side})
    engine = RuntimeSpec(engine=runtime)
    if scenario == "steady":
        churn_params = {
            "churn_rate": churn_rate,
            "duration": duration,
            "downtime": downtime,
        }
        return ExperimentSpec(
            name="churn-steady",
            topology=topology,
            failure=FailureSpec("steady_churn", churn_params),
            membership=MembershipSpec("steady_churn", churn_params),
            runtime=engine,
            seed=seed,
            labels={"churn_rate": churn_rate, "nodes": side * side, "seed": seed},
        )
    if scenario == "race":
        race_params = {
            "members": _CHURN_BLOCK,
            "crash_at": 1.0,
            "recover_at": recover_at,
            "recrash_at": recrash_at,
        }
        return ExperimentSpec(
            name="churn-race",
            topology=topology,
            failure=FailureSpec("race", race_params),
            membership=MembershipSpec("race", race_params),
            runtime=engine,
            seed=seed,
            labels={"recover_at": recover_at, "recrash_at": recrash_at, "seed": seed},
        )
    if scenario == "flash":
        if crowd < 1:
            # ``count: 0`` reads as a *static* run (MembershipSpec.is_static),
            # not as the error an empty crowd has always been.
            from ..churn.membership import MembershipError

            raise MembershipError("a flash crowd needs at least one newcomer")
        return ExperimentSpec(
            name="churn-flash-crowd",
            topology=topology,
            failure=FailureSpec("region", {"members": _CHURN_BLOCK, "at": 1.0}),
            membership=MembershipSpec(
                "flash_crowd", {"count": crowd, "at": 3.0, "spacing": 1.0}
            ),
            runtime=engine,
            seed=seed,
            labels={"crowd": crowd, "seed": seed},
        )
    raise SpecError(f"unknown churn scenario {scenario!r}; known: steady, race, flash")


def churn_scenario_description(scenario: str) -> str:
    """The one-line description the churn CLI prints for each scenario."""
    descriptions = {
        "steady": "independent crash-recover cycles keep agreement in flight",
        "race": (
            "a crashed block recovers while the border is still agreeing on "
            "it, then crashes again; both epochs must decide identically"
        ),
        "flash": "locality-attached joins arrive while the border agrees on a block",
    }
    try:
        return descriptions[scenario]
    except KeyError:
        raise SpecError(f"unknown churn scenario {scenario!r}") from None


#: The sides of the EXP-L1 system-size sweep (``--full`` extends it).
LOCALITY_SIDES = (8, 12, 16, 24, 32)
LOCALITY_SIDES_FULL = (8, 12, 16, 24, 32, 48, 64)


def torus_region_spec(
    side: int,
    region_side: int,
    seed: int = 0,
    jittered_detection: bool = True,
    check: bool = True,
) -> ExperimentSpec:
    """The locality point: a ``region_side²`` block of a ``side²`` torus
    crashes over one time unit under a jittered failure detector.

    The block sits at ``(1, 1)``, away from the wrap-around seam, so its
    shape is exactly a square (placement does not matter on a torus, but
    explicitness helps when reading traces).
    """
    if region_side + 2 > side:
        raise SpecError(
            "the torus must be at least two nodes wider than the crashed block"
        )
    members = sorted(square_region((1, 1), region_side))
    jitter = {"kind": "jittered", "low": 0.5, "high": 2.0}
    return ExperimentSpec(
        topology=TopologySpec("torus", {"width": side, "height": side}),
        failure=FailureSpec("region", {"members": members, "at": 1.0, "spread": 1.0}),
        runtime=RuntimeSpec(failure_detector=jitter if jittered_detection else None),
        seed=seed,
        check=check,
        labels={"torus_side": side, "region_side": region_side},
    )


def locality_sweep_spec(
    exp: str = "l1",
    sides=None,
    region_sides=(1, 2, 3, 4),
    region_side: int = 3,
    side: int = 32,
    seed: int = 0,
    workers: int = 1,
) -> SweepSpec:
    """The ``repro locality`` sweeps (EXP-L1 / EXP-L2) as sweep specs.

    Every point is a :func:`torus_region_spec` run whose ``locality``
    extractor reports the cost row.  EXP-L1 grows the torus around a fixed
    block: the width and height move in lockstep through a ``|``-coupled
    grid axis.  EXP-L2 grows the crashed block inside a fixed torus: the
    axis varies the failure members.
    """
    if exp == "l1":
        sides = tuple(sides) if sides is not None else LOCALITY_SIDES
        points = [torus_region_spec(side, region_side, seed=seed) for side in sides]
        sweep, name = "exp-l1-system-size", f"exp-l1-block{region_side}"
        labels = {"experiment": "EXP-L1", "region_side": region_side}
        grid = {"topology.params.width|topology.params.height": list(sides)}
    elif exp == "l2":
        points = [
            torus_region_spec(side, region_side, seed=seed)
            for region_side in region_sides
        ]
        sweep, name = "exp-l2-region-size", f"exp-l2-torus{side}"
        labels = {"experiment": "EXP-L2", "side": side}
        grid = {
            "failure.params.members": [
                point.failure.params["members"] for point in points
            ]
        }
    else:
        raise SpecError(f"unknown locality experiment {exp!r}; known: l1, l2")
    template = dataclasses.replace(
        points[0], name=name, extract={"kind": "locality"}, labels=labels
    )
    return SweepSpec(name=sweep, experiment=template, grid=grid, workers=workers)


def repair_spec(
    ring_size: int = 32,
    successors: int = 2,
    arc_start: int = 5,
    arc_length: int = 4,
    seed: int = 0,
    *,
    spread: float = 0.5,
    check: bool = True,
) -> ExperimentSpec:
    """The overlay repair run (EXP-R1): ``repro repair``,
    :func:`~repro.experiments.overlay_repair.run_overlay_repair` and each
    point of :func:`repair_sweep_spec`.

    An arc of a Chord-like ring crashes over ``spread`` time units.  The
    ``ring`` topology is exactly
    :meth:`~repro.repair.RingOverlay.knowledge_graph`, and the ``repair``
    extractor re-creates the overlay, supplies the
    :class:`~repro.repair.RingRepairPolicy` decision policy, applies the
    decided plans and reports the repair verdict.
    """
    arc = [(arc_start + offset) % ring_size for offset in range(arc_length)]
    return ExperimentSpec(
        name=f"exp-r1-ring{ring_size}-arc{arc_length}",
        topology=TopologySpec("ring", {"size": ring_size, "successors": successors}),
        failure=FailureSpec("region", {"members": arc, "at": 1.0, "spread": spread}),
        seed=seed,
        check=check,
        extract={
            "kind": "repair",
            "params": {"ring_size": ring_size, "successors": successors},
        },
        labels={"experiment": "EXP-R1", "arc_start": arc_start},
    )


def repair_sweep_spec(
    ring_sizes=(16, 32, 64),
    arc_lengths=(2, 4, 6),
    successors: int = 2,
    seed: int = 0,
) -> SweepSpec:
    """EXP-R1: :func:`repair_spec` over a ring size × arc length grid.

    Every arc starts at node 3.  The ring axis moves the topology and the
    extractor's overlay in lockstep; the arc axis varies the crashed
    members.  An arc must be shorter than half its ring, and a grid cannot
    skip a point, so a ring size too small for one of the arcs is an error.
    """
    for ring_size in ring_sizes:
        for arc_length in arc_lengths:
            if arc_length >= ring_size // 2:
                raise SpecError(
                    f"an arc of {arc_length} nodes needs a ring of at least "
                    f"{2 * arc_length + 2} nodes, got {ring_size}"
                )
    points = [
        repair_spec(ring_sizes[0], successors, 3, arc_length, seed)
        for arc_length in arc_lengths
    ]
    template = dataclasses.replace(points[0], name="exp-r1")
    grid = {
        "extract.params.ring_size|topology.params.size": list(ring_sizes),
        "failure.params.members": [point.failure.params["members"] for point in points],
    }
    return SweepSpec(name="exp-r1-overlay-repair", experiment=template, grid=grid)


#: Named link-fault configurations for ``--faults`` (see
#: :attr:`~repro.api.specs.RuntimeSpec.faults` for the knobs).  The rates
#: are deliberately mild: they degrade liveness measurably without
#: making every run vacuously undecided.
FAULT_PRESETS = {
    # 2% of messages silently vanish.
    "lossy": {"loss": 0.02},
    # one message in five arrives twice.
    "dupes": {"duplication": 0.2},
    # every message may be overtaken by up to one latency unit of traffic.
    "jumbled": {"reorder": 1.0},
    # all three at once, each mild.
    "hostile": {"loss": 0.01, "duplication": 0.1, "reorder": 0.5},
}


def fault_preset(name: str) -> dict:
    """The ``faults`` block of a named preset (a fresh mutable copy)."""
    try:
        return dict(FAULT_PRESETS[name])
    except KeyError:
        raise SpecError(
            f"unknown fault preset {name!r}; known: "
            f"{', '.join(sorted(FAULT_PRESETS))}"
        ) from None


def fault_sweep_spec(
    axis: str = "loss",
    rates=(0.0, 0.01, 0.02, 0.05),
    side: int = 6,
    block: int = 2,
    seeds=(0, 1, 2),
    workers: int = 1,
) -> SweepSpec:
    """A degradation sweep: the quickstart scenario under growing faults.

    ``axis`` is the fault knob to sweep (``loss``, ``duplication`` or
    ``reorder``) and ``rates`` its values — a grid axis at
    ``runtime.faults.<axis>``, crossed with ``seeds``.  Feed the finished
    report to :func:`repro.experiments.degradation_from_sweep` for the
    per-property degradation table.  Note ``reorder`` rates are window
    widths and must be positive; a 0 is only valid on the probability
    axes, where it doubles as the fault-free baseline.
    """
    template = quickstart_spec(side=side, block=block)
    return SweepSpec(
        name=f"faults-{axis}",
        experiment=template,
        seeds=tuple(seeds),
        grid={f"runtime.faults.{axis}": list(rates)},
        workers=workers,
    )


def property_sweep_spec(
    cases: int = 10, workers: int = 1, churn: bool = False, base_seed: int = 0
) -> SweepSpec:
    """The ``repro sweep`` command as a family-mode sweep spec."""
    family = "churn-property" if churn else "property"
    return SweepSpec(
        name=f"exp-c1-{family}",
        family=family,
        seeds=tuple(range(cases)),
        workers=workers,
        base_seed=base_seed,
    )


def _random_topology(rng: random.Random) -> tuple[str, TopologySpec]:
    """An EXP-C1 topology: a random kind with random params (the generator
    seed among them), named for the case table."""
    choice = rng.randrange(6)
    if choice < 2:
        kind, side = ("grid", "torus")[choice], rng.randint(5, 9)
        return f"{kind}-{side}x{side}", TopologySpec(kind, {"width": side, "height": side})
    if choice < 5:
        kind, shape = (
            ("geometric", {"radius": 0.3}),
            ("smallworld", {"degree": 4, "rewire": 0.2}),
            ("scalefree", {"attach": 2}),
        )[choice - 2]
        size = rng.randint(30, 70)
        return f"{kind}-{size}", TopologySpec(
            kind, {"size": size, **shape, "seed": rng.randrange(10_000)}
        )
    communities = rng.randint(3, 5)
    return f"communities-{communities}", TopologySpec(
        "communities",
        {
            "communities": communities,
            "community_size": rng.randint(4, 7),
            "seed": rng.randrange(10_000),
        },
    )


def _random_crashes(rng: random.Random, graph):
    """An EXP-C1 crash pattern over ``graph``."""
    from ..failures import cascade_crash, multi_region_crash, random_connected_region, region_crash

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


def random_churn_membership(
    rng: random.Random,
    graph,
    schedule,
    max_joins: int = 3,
    min_downtime: float = 4.0,
    max_downtime: float = 25.0,
):
    """A randomised membership schedule racing ``schedule``'s crashes.

    A random subset of the crashed nodes recovers a short, random
    downtime after its crash (often while the border is still agreeing on
    the region — the adversarial race the epoch quotient exists for), and
    up to ``max_joins`` brand-new nodes join by locality while the
    cascade is in flight.  The result always validates against
    ``(graph, schedule)``.
    """
    from ..churn import MembershipSchedule, flash_crowd_joins, recover

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


def _exp_c1_case_spec(seed: int, churn: bool) -> ExperimentSpec:
    """One EXP-C1 case, drawn from ``seed`` in one RNG stream: topology,
    crash schedule, membership script (churn only), detector jitter."""
    from ..churn import MembershipEventKind
    from ..graph import faulty_domains
    from .kinds import membership_rows

    rng = random.Random(seed)
    name, topology = _random_topology(rng)
    graph = topology.build()
    schedule = _random_crashes(rng, graph)
    labels = {
        "topology": name,
        "crashed": len(schedule.nodes),
        "domains": len(faulty_domains(graph, schedule.nodes)),
    }
    membership = MembershipSpec()
    if churn:
        drawn = random_churn_membership(rng, graph, schedule)
        # ``explicit`` is a churn run even without rows: the static tie
        # order would change an empty script's digest.
        membership = MembershipSpec("explicit", {"rows": membership_rows(drawn)})
        labels["joins"] = len(drawn.joining_nodes)
        labels["recoveries"] = len(drawn.of_kind(MembershipEventKind.RECOVER))
    detector = {"kind": "jittered", "low": 0.3, "high": rng.uniform(1.0, 3.0)}
    return ExperimentSpec(
        name=name,
        topology=topology,
        failure=FailureSpec("explicit", {"crashes": schedule.crashes}),
        membership=membership,
        runtime=RuntimeSpec(failure_detector=detector),
        seed=seed,
        check=True,
        labels=labels,
    )


def property_case_spec(seed: int) -> ExperimentSpec:
    """EXP-C1 case ``seed``: a random topology and crash schedule under a
    jittered detector, checked against CD1–CD7 (the ``property`` family)."""
    return _exp_c1_case_spec(seed, churn=False)


def churn_property_case_spec(seed: int) -> ExperimentSpec:
    """The adversarial churn case ``seed``: :func:`property_case_spec`'s
    draw plus random recoveries and locality joins racing the crashes,
    checked against the epoch-quotiented CD1–CD7 (``churn-property``)."""
    return _exp_c1_case_spec(seed, churn=True)


def torus_block_members(
    side: int, block_side: int, origin: tuple[int, int]
) -> list[tuple[int, int]]:
    """The member coordinates of a wrap-around block on a torus (pure
    modular arithmetic — no graph needed)."""
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


def torus_block_spec(
    side: int = 32,
    block_side: int = 2,
    origin: tuple[int, int] = (1, 1),
    at: float = 1.0,
    seed: int = 0,
    check: bool = True,
) -> ExperimentSpec:
    """A ``block_side²`` block crash on a ``side×side`` torus.

    The workhorse of the scale sweeps (the ``torus-block`` family):
    ``side=32`` is the 1024-node point, ``side=64`` the 4096-node one.  The
    block wraps around when the origin sits near an edge (the torus has
    none, so the region stays connected), which lets callers spread blocks
    anywhere without bounds checking.
    """
    if side < 3:
        raise SpecError("torus side must be at least 3")
    if not (1 <= block_side < side - 1):
        raise SpecError("block must be smaller than the torus")
    ox, oy = origin
    origin = (ox % side, oy % side)
    return ExperimentSpec(
        name=f"torus{side}x{side}-block{block_side}@{origin}",
        topology=TopologySpec("torus", {"width": side, "height": side}),
        failure=FailureSpec(
            "region",
            {"members": sorted(torus_block_members(side, block_side, origin)), "at": at},
        ),
        seed=seed,
        check=check,
        labels={
            "side": side,
            "nodes": side * side,
            "block_side": block_side,
            "origin": origin,
        },
    )


def torus_sweep_spec(
    side: int = 32,
    scenarios: int = 8,
    block_side: int = 2,
    workers: int = 1,
    check: bool = True,
) -> SweepSpec:
    """The large-torus scale family as an experiment-mode sweep spec.

    Block placement comes from the same :func:`torus_block_origins` /
    :func:`torus_block_members` arithmetic as :func:`torus_block_spec` —
    no graphs are built at spec-construction time.  The grid axis varies
    the crashed block's member set, so every point shares one
    :class:`TopologySpec` — and therefore one cached topology build per
    worker — and the template keeps a name and labels without an origin
    (the ledger pins this document's bytes).
    """
    member_sets = []
    for origin in torus_block_origins(side, scenarios, block_side):
        members = sorted(torus_block_members(side, block_side, origin))
        member_sets.append([list(node) for node in members])
    template = ExperimentSpec(
        name=f"torus{side}x{side}-block{block_side}",
        topology=TopologySpec("torus", {"width": side, "height": side}),
        failure=FailureSpec("region", {"members": member_sets[0], "at": 1.0}),
        check=check,
        labels={"side": side, "nodes": side * side, "block_side": block_side},
    )
    return SweepSpec(
        name=f"torus-scale-{side}",
        experiment=template,
        grid={"failure.params.members": member_sets},
        workers=workers,
    )
