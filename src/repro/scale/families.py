"""The scenario-family registry of the sharded sweep engine.

A *family* is a named, picklable-parameterised builder that turns
``(seed, **params)`` into one executed run and returns a compact
:class:`~repro.scale.task.SweepOutcome`.  Workers resolve families by
name, so a :class:`~repro.scale.task.SweepTask` crossing a process
boundary never carries live objects.

Built-in families:

* ``spec`` — the generic declarative family: ``params["spec"]`` is a
  serialized :class:`~repro.api.ExperimentSpec`, executed through
  :class:`~repro.api.ExperimentSession` (topology builds go through the
  spec-keyed cache, shared by tasks landing on the same worker).  Tasks
  cross the process boundary *as specs*, not as registered names — this
  is what :meth:`repro.api.SweepSpec.tasks` produces;
* ``property`` — one EXP-C1 randomised topology × crash-schedule case;
* ``churn-property`` — the adversarial churn extension of EXP-C1
  (random joins/recoveries racing cascades, epoch-quotiented CD1–CD7);
* ``churn-scenario`` — the PR-1 churn scenario family (steady / race /
  flash crowd) at a parameterised size;
* ``torus-block`` — a square block crash on an ``side×side`` torus (the
  large-torus scale family; ``side=64`` is the 4096-node workload).
  Backed by the spec layer, so repeated builds of the same big torus hit
  the topology cache.

Imports of the experiment harness happen lazily inside the family
functions: :mod:`repro.experiments` itself uses the sweep runner, and the
registry must stay importable from both directions.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Iterator, Optional

from .seeding import derive_seed
from .task import SweepOutcome, SweepTask, UnknownFamilyError

FamilyFn = Callable[..., SweepOutcome]

_REGISTRY: dict[str, FamilyFn] = {}


def register_family(name: str, fn: FamilyFn) -> None:
    """Register (or replace) a scenario family under ``name``."""
    _REGISTRY[name] = fn


def unregister_family(name: str) -> None:
    """Remove a family (used by tests registering throwaway families)."""
    _REGISTRY.pop(name, None)


def family_names() -> tuple[str, ...]:
    """All registered family names, sorted."""
    return tuple(sorted(_REGISTRY))


def get_family(name: str) -> FamilyFn:
    """Look up a family; raises :class:`UnknownFamilyError` when absent."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownFamilyError(
            f"unknown scenario family {name!r}; registered: {', '.join(family_names())}"
        ) from None


def run_task(task: SweepTask, seed: Optional[int] = None) -> SweepOutcome:
    """Execute one task in the current process (workers call this).

    ``seed`` overrides the task's own seed (the runner passes the derived
    per-run seed); the outcome is stamped with its wall-clock cost but
    not with its sweep index — the runner does that on merge.
    """
    family = get_family(task.family)
    effective_seed = seed if seed is not None else task.seed
    if effective_seed is None:
        effective_seed = derive_seed(0, task.family, task.params)
    started = time.perf_counter()
    outcome = family(effective_seed, **task.params)
    elapsed = time.perf_counter() - started
    return outcome.with_position(outcome.index, elapsed)


# ---------------------------------------------------------------------------
# Built-in families
# ---------------------------------------------------------------------------
def outcome_from_result(
    family: str,
    label: str,
    seed: int,
    result: Any,
    extra_labels: Optional[dict[str, Any]] = None,
) -> SweepOutcome:
    """Compress any run-layer :class:`~repro.api.Result` into an outcome.

    A :class:`~repro.api.result.RunResult`'s ``quiescent``, ``metrics``,
    ``specification`` and ``digest`` are all it needs.
    """
    specification = getattr(result, "specification", None)
    labels = dict(result.labels)
    if extra_labels:
        labels.update(extra_labels)
    return SweepOutcome(
        family=family,
        label=label,
        seed=seed,
        index=-1,
        digest=result.digest(),
        nodes=len(result.graph),
        messages=result.metrics.messages_sent,
        decisions=result.metrics.decisions,
        decided_views=result.metrics.decided_views,
        quiescent=result.quiescent,
        spec_holds=specification.holds if specification is not None else True,
        violations=(
            tuple(specification.violations()) if specification is not None else ()
        ),
        labels=labels,
    )


def _spec_family(seed: int, spec: dict[str, Any]) -> SweepOutcome:
    """One run of a serialized :class:`~repro.api.ExperimentSpec`.

    The runner-derived (or task-pinned) ``seed`` overrides the spec's own
    seed, so a spec template swept over many seeds stays one spec.
    """
    from ..api import ExperimentSession, ExperimentSpec

    experiment = ExperimentSpec.from_dict(spec).with_seed(seed)
    result = ExperimentSession().run(experiment)
    return outcome_from_result("spec", experiment.display_name(), seed, result)


def _property_family(seed: int) -> SweepOutcome:
    """One EXP-C1 case (static topology + crash schedule)."""
    from ..experiments.property_sweep import run_sweep_case

    case = run_sweep_case(seed)
    return SweepOutcome(
        family="property",
        label=case.topology,
        seed=seed,
        index=-1,
        digest=case.digest,
        nodes=case.nodes,
        messages=case.messages,
        decisions=case.decisions,
        decided_views=case.decided_views,
        quiescent=case.quiescent,
        spec_holds=case.specification_holds,
        violations=case.violations,
        labels={"topology": case.topology, "crashed": case.crashed},
        case=case,
    )


def _churn_property_family(seed: int) -> SweepOutcome:
    """One adversarial churn case (joins/recoveries racing cascades)."""
    from ..experiments.property_sweep import run_churn_sweep_case

    case = run_churn_sweep_case(seed)
    return SweepOutcome(
        family="churn-property",
        label=case.topology,
        seed=seed,
        index=-1,
        digest=case.digest,
        nodes=case.nodes,
        messages=case.messages,
        decisions=case.decisions,
        decided_views=case.decided_views,
        quiescent=case.quiescent,
        spec_holds=case.specification_holds,
        violations=case.violations,
        labels={
            "topology": case.topology,
            "crashed": case.crashed,
            "joins": case.joins,
            "recoveries": case.recoveries,
            "epochs": case.epochs,
        },
        case=case,
    )


def _churn_scenario_family(
    seed: int,
    scenario: str = "steady",
    nodes: int = 64,
    **scenario_params: Any,
) -> SweepOutcome:
    """One run of the PR-1 churn scenario family on the simulator."""
    from ..experiments.scenarios import (
        churn_flash_crowd_scenario,
        churn_recovery_race_scenario,
        churn_steady_scenario,
    )

    builders = {
        "steady": churn_steady_scenario,
        "race": churn_recovery_race_scenario,
        "flash": churn_flash_crowd_scenario,
    }
    try:
        builder = builders[scenario]
    except KeyError:
        raise UnknownFamilyError(
            f"unknown churn scenario {scenario!r}; expected one of {sorted(builders)}"
        ) from None
    built = builder(nodes=nodes, seed=seed, **scenario_params)
    result = built.run(check=True, seed=seed, runtime="sim")
    specification = result.specification
    return SweepOutcome(
        family="churn-scenario",
        label=built.name,
        seed=seed,
        index=-1,
        digest=result.digest(),
        nodes=len(result.base_graph),
        messages=result.metrics.messages_sent,
        decisions=result.metrics.decisions,
        decided_views=result.metrics.decided_views,
        quiescent=result.quiescent,
        spec_holds=specification.holds if specification is not None else True,
        violations=(
            tuple(specification.violations()) if specification is not None else ()
        ),
        labels=dict(result.labels, epochs=len(result.epochs)),
    )


def _torus_block_family(
    seed: int,
    side: int = 32,
    block_side: int = 2,
    origin: tuple[int, int] = (1, 1),
    at: float = 1.0,
    check: bool = True,
) -> SweepOutcome:
    """A square block crash on a ``side×side`` torus (scale workload).

    Implemented through the spec layer: the block is computed without
    touching the graph, and the ``side×side`` torus build goes through
    the spec-keyed topology cache — tasks of the same family landing on
    the same worker rebuild it zero times instead of once each (the
    ROADMAP's "caching repeated topology builds" item).
    """
    from ..api import (
        ExperimentSession,
        ExperimentSpec,
        FailureSpec,
        SpecError,
        TopologySpec,
    )

    from ..experiments.scenarios import torus_block_members

    if side < 3:
        raise SpecError("torus side must be at least 3")
    if not (1 <= block_side < side - 1):
        raise SpecError("block must be smaller than the torus")
    ox, oy = tuple(origin)
    block = sorted(torus_block_members(side, block_side, (ox, oy)))
    name = f"torus{side}x{side}-block{block_side}@{(ox % side, oy % side)}"
    spec = ExperimentSpec(
        name=name,
        topology=TopologySpec("torus", {"width": side, "height": side}),
        failure=FailureSpec("region", {"members": block, "at": at}),
        seed=seed,
        check=check,
        labels={
            "side": side,
            "nodes": side * side,
            "block_side": block_side,
            "origin": (ox % side, oy % side),
        },
    )
    result = ExperimentSession().run(spec)
    return outcome_from_result("torus-block", name, seed, result)


register_family("spec", _spec_family)
register_family("property", _property_family)
register_family("churn-property", _churn_property_family)
register_family("churn-scenario", _churn_scenario_family)
register_family("torus-block", _torus_block_family)


# ---------------------------------------------------------------------------
# Task-list builders
# ---------------------------------------------------------------------------
def property_tasks(seeds: Iterator[int] | range | tuple[int, ...]) -> list[SweepTask]:
    """EXP-C1 tasks, one per seed."""
    return [SweepTask("property", seed=seed) for seed in seeds]


def churn_property_tasks(
    seeds: Iterator[int] | range | tuple[int, ...]
) -> list[SweepTask]:
    """Adversarial churn EXP-C1 tasks, one per seed."""
    return [SweepTask("churn-property", seed=seed) for seed in seeds]


def torus_scale_tasks(
    side: int = 32,
    scenarios: int = 8,
    block_side: int = 2,
    check: bool = True,
) -> list[SweepTask]:
    """The large-torus scale family as sweep tasks (``side=64`` → 4096
    nodes).  Block placement is delegated to
    :func:`repro.experiments.scenarios.torus_scale_family` — the single
    source of truth for the family — so the sharded sweep and the
    in-process scenario list always describe the same workload.
    """
    from ..experiments.scenarios import torus_scale_family

    family = torus_scale_family(side=side, scenarios=scenarios, block_side=block_side)
    return [
        SweepTask(
            "torus-block",
            params={
                "side": side,
                "block_side": block_side,
                "origin": scenario.labels["origin"],
                "check": check,
            },
            label=scenario.name,
        )
        for scenario in family
    ]
