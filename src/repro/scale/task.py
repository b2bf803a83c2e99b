"""Task and outcome records of the sharded sweep engine.

A :class:`SweepTask` is a *picklable description* of one independent
simulation run — scenario family name plus parameters plus (optionally) a
pinned seed.  Workers never receive live simulators or callbacks: they
receive task descriptions, rebuild the scenario from the family registry,
run it, and send back a compact, picklable :class:`SweepOutcome`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Optional


class SweepError(RuntimeError):
    """Base class for sharded-sweep failures."""


class UnknownFamilyError(SweepError):
    """A task referenced a scenario family that is not registered."""


class SweepTaskError(SweepError):
    """A task failed inside a worker; wraps the original exception.

    ``task``, ``index`` and ``seed`` (the *effective* per-run seed the
    runner derived) identify the failing run, so a sweep failure is
    immediately reproducible in-process with
    ``run_task(error.task, seed=error.seed)``.
    """

    def __init__(
        self,
        task: "SweepTask",
        index: int,
        reason: str,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__(
            f"sweep task #{index} ({task.family!r}, seed={seed if seed is not None else task.seed}) "
            f"failed: {reason}"
        )
        self.task = task
        self.index = index
        self.reason = reason
        #: The effective seed the run executed with (reproduce via
        #: ``run_task(error.task, seed=error.seed)``).
        self.seed = seed if seed is not None else task.seed


@dataclass(frozen=True)
class SweepTask:
    """One independent run of a sweep.

    Attributes
    ----------
    family:
        Name of a registered scenario family (see
        :mod:`repro.scale.families`).
    params:
        Keyword parameters handed to the family builder.  Must be
        picklable and canonically encodable (they feed seed derivation).
    seed:
        Explicit per-run seed; ``None`` derives one deterministically
        from the sweep's base seed and the task's identity.
    label:
        Free-form display label (defaults to ``family``).
    """

    family: str
    params: dict[str, Any] = field(default_factory=dict)
    seed: Optional[int] = None
    label: str = ""

    def display_label(self) -> str:
        return self.label or self.family


@dataclass(frozen=True)
class SweepOutcome:
    """The compact, picklable result of one sweep run.

    Heavy artefacts (traces, simulators) stay in the worker; what crosses
    the process boundary is the deterministic fingerprint (``digest``),
    the specification verdict and the headline metrics.  What a family
    says beyond those (an EXP-C1 case's topology, a churn run's epoch
    count) is in ``labels``.
    """

    family: str
    label: str
    seed: int
    #: Submission index inside the sweep (aggregation is sorted by this).
    index: int
    #: Canonical trace digest of the run (``""`` when a family opts out).
    digest: str
    nodes: int
    messages: int
    decisions: int
    decided_views: int
    quiescent: bool
    spec_holds: bool
    violations: tuple[str, ...] = ()
    #: Wall-clock seconds the run took inside its worker.
    wall_time: float = 0.0
    labels: dict[str, Any] = field(default_factory=dict)

    def as_row(self) -> dict[str, Any]:
        """A flat table row (CLI / report rendering)."""
        return {
            "index": self.index,
            "family": self.family,
            "label": self.label,
            "seed": self.seed,
            "nodes": self.nodes,
            "messages": self.messages,
            "decisions": self.decisions,
            "views": self.decided_views,
            "quiescent": self.quiescent,
            "spec_holds": self.spec_holds,
            "digest": self.digest[:12],
        }

    def with_position(self, index: int, wall_time: float) -> "SweepOutcome":
        """The same outcome stamped with its sweep position and timing."""
        return replace(self, index=index, wall_time=wall_time)
