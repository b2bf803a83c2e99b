"""The scenario-family registry of the sharded sweep engine.

A *family* is a named document builder: it turns ``(seed, **params)``
into one :class:`~repro.api.ExperimentSpec`.  Workers resolve families by
name, so a :class:`~repro.scale.task.SweepTask` crossing a process
boundary never carries live objects, and :func:`run_task` is the one
place a task executes: the family's spec through
:class:`~repro.api.ExperimentSession`, compressed into a
:class:`~repro.scale.task.SweepOutcome`.

Built-in families:

* ``spec`` — the generic declarative family: ``params["spec"]`` is a
  serialized :class:`~repro.api.ExperimentSpec` (topology builds go
  through the spec-keyed cache, shared by tasks landing on the same
  worker).  Tasks cross the process boundary *as specs*, not as
  registered names — this is what :meth:`repro.api.SweepSpec.tasks`
  produces;
* ``property`` — one EXP-C1 randomised topology × crash-schedule case:
  :func:`~repro.api.presets.property_case_spec`;
* ``churn-property`` — the adversarial churn extension of EXP-C1
  (random joins/recoveries racing cascades, epoch-quotiented CD1–CD7):
  :func:`~repro.api.presets.churn_property_case_spec`;
* ``churn-scenario`` — the churn scenario family (steady / race / flash
  crowd) at a parameterised size:
  :func:`~repro.api.presets.churn_scenario_spec`;
* ``torus-block`` — a square block crash on an ``side×side`` torus (the
  large-torus scale family; ``side=64`` is the 4096-node workload):
  :func:`~repro.api.presets.torus_block_spec`, so repeated builds of the
  same big torus hit the topology cache.

Every family is a view of a preset, so any task's document can be
written down (``run_spec(property_case_spec(530))`` replays a case).
The presets are imported inside the builders: :mod:`repro.experiments`
itself uses the sweep runner, and the registry must stay importable from
both directions.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Optional

from .seeding import derive_seed
from .task import SweepOutcome, SweepTask, UnknownFamilyError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api.specs import ExperimentSpec

FamilyFn = Callable[..., "ExperimentSpec"]

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
    from ..api.session import ExperimentSession

    family = get_family(task.family)
    effective_seed = seed if seed is not None else task.seed
    if effective_seed is None:
        effective_seed = derive_seed(0, task.family, task.params)
    started = time.perf_counter()
    spec = family(effective_seed, **task.params)
    result = ExperimentSession().run(spec)
    outcome = outcome_from_result(task.family, spec.display_name(), effective_seed, result)
    return outcome.with_position(outcome.index, time.perf_counter() - started)


def outcome_from_result(family: str, label: str, seed: int, result: Any) -> SweepOutcome:
    """Compress any run-layer :class:`~repro.api.Result` into an outcome.

    A :class:`~repro.api.result.RunResult`'s ``quiescent``, ``metrics``,
    ``specification``, ``epochs`` and ``digest`` are all it needs; a churn
    run's epoch count rides along as the ``epochs`` label.
    """
    specification = getattr(result, "specification", None)
    labels = dict(result.labels)
    if result.epochs is not None:
        labels["epochs"] = len(result.epochs)
    return SweepOutcome(
        family=family,
        label=label,
        seed=seed,
        index=-1,
        digest=result.digest(),
        # The graph the run started on, as ``RunResult.as_dict()["nodes"]``.
        nodes=len(result.base_graph),
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


# ---------------------------------------------------------------------------
# Built-in families: document builders
# ---------------------------------------------------------------------------
def _spec_family(seed: int, spec: dict[str, Any]) -> "ExperimentSpec":
    """A serialized :class:`~repro.api.ExperimentSpec`; the runner-derived
    (or task-pinned) ``seed`` overrides the document's own, so a spec
    template swept over many seeds stays one spec."""
    from ..api.specs import ExperimentSpec

    return ExperimentSpec.from_dict(spec).with_seed(seed)


def _property_family(seed: int) -> "ExperimentSpec":
    from ..api.presets import property_case_spec

    return property_case_spec(seed)


def _churn_property_family(seed: int) -> "ExperimentSpec":
    from ..api.presets import churn_property_case_spec

    return churn_property_case_spec(seed)


def _churn_scenario_family(
    seed: int, scenario: str = "steady", **params: Any
) -> "ExperimentSpec":
    from ..api.presets import churn_scenario_spec

    return churn_scenario_spec(scenario, seed=seed, **params)


def _torus_block_family(seed: int, **params: Any) -> "ExperimentSpec":
    from ..api.presets import torus_block_spec

    return torus_block_spec(seed=seed, **params)


register_family("spec", _spec_family)
register_family("property", _property_family)
register_family("churn-property", _churn_property_family)
register_family("churn-scenario", _churn_scenario_family)
register_family("torus-block", _torus_block_family)


def load_run_path(tasks: Iterable[SweepTask]) -> None:
    """Import what ``tasks`` will run, in the process about to fork their
    workers.

    The families import inside their bodies, so a parent that only
    expands a sweep and hands out tasks has loaded none of the run path —
    and a forked worker inherits what its parent loaded and imports the
    rest itself, once per worker of every pool.  A ``spec`` task names its
    engine in its own document; any other family is taken to run the
    simulator, as every built-in one does.  (What a family imports in its
    own body beyond the runner, like the EXP-C1 case generator, its
    workers still import.)
    """
    from ..api.session import runner_for
    from ..api.specs import RuntimeSpec

    runtimes: list[Any] = []
    for task in tasks:
        try:
            runtime = task.params["spec"].get("runtime", {}) if task.family == "spec" else {}
            if runtime not in runtimes:
                runtimes.append(runtime)
                runner_for(RuntimeSpec.from_dict(runtime))
        except (LookupError, AttributeError, TypeError, ValueError):
            # A malformed task is for the worker that runs it to report, with
            # its index and seed (``SweepTaskError``); not for this to pre-empt.
            continue


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
    nodes): the blocks of
    :func:`repro.experiments.scenarios.torus_scale_family`, one
    ``torus-block`` task each, labelled with the name of the spec the task
    will run.
    """
    from ..api.presets import torus_block_origins, torus_block_spec

    return [
        SweepTask(
            "torus-block",
            params={
                "side": side,
                "block_side": block_side,
                "origin": origin,
                "check": check,
            },
            label=torus_block_spec(side, block_side, origin).name,
        )
        for origin in torus_block_origins(side, scenarios, block_side)
    ]
