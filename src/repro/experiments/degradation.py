"""Degradation reports: which CD1–CD7 properties survive which faults.

The fault layer (:mod:`repro.sim.faults`) breaks the paper's channel
assumptions on purpose; this module answers the question that makes such
runs *interpretable*: **which properties failed, at what fault rate, and
was that failure licensed by the fault model?**

The excuse set encodes what the specification can still promise once a
channel assumption is gone:

* **loss** removes messages without retransmission, so the
  liveness-flavoured properties — CD4 Border Termination, CD7 Progress —
  and quiescence itself may legitimately fail.  The safety properties
  (CD1, CD2, CD3, CD5, CD6) are *never* excused: a safety violation
  under loss is a genuine protocol finding, not noise.
* **duplication** and **reorder** excuse nothing.  Duplicated copies and
  bounded-delay inversions change *when* and *how often* messages
  arrive, never whether they arrive, so the full CD1–CD7 specification
  is still expected to hold.

A :class:`DegradationReport` is built from a finished sweep
(:func:`degradation_from_sweep`, zipping the sweep's expanded specs with
its outcomes — same order by construction); :func:`run_degradation` runs
that sweep in-process from a template and an axis.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Optional, Sequence

from ..api.result import json_safe
from ..api.session import ExperimentSession
from ..api.specs import ExperimentSpec, SpecError, SweepSpec
from ..sim.faults import FAULT_AXES

#: Pseudo-property recorded when a run fails to reach quiescence: the
#: liveness checkers are skipped on such runs (they would be unsound), so
#: without this marker a stalled run would masquerade as fully passing.
QUIESCENCE = "quiescence"

#: Fault knob -> property codes licensed to fail under that fault alone.
EXCUSED_PROPERTIES: dict[str, frozenset[str]] = {
    "loss": frozenset({"CD4", "CD7", QUIESCENCE}),
    "duplication": frozenset(),
    "reorder": frozenset(),
}


def excuse_set(faults: Optional[Mapping[str, Any]]) -> frozenset[str]:
    """Property codes licensed to fail under this ``faults`` block."""
    if not faults:
        return frozenset()
    excused: frozenset[str] = frozenset()
    for knob, value in faults.items():
        if value:  # a stage at rate 0 never fires and licenses nothing
            excused |= EXCUSED_PROPERTIES.get(knob, frozenset())
    return excused


def _property_code(name: str) -> str:
    """``"CD4 Border Termination: ..."`` → ``"CD4"``."""
    return name.split(":", 1)[0].split()[0]


@dataclass(frozen=True)
class DegradationPoint:
    """One (fault configuration, seed) run of the degradation battery."""

    #: The run's ``faults`` block (``None`` for the fault-free baseline).
    faults: Optional[Mapping[str, Any]]
    #: The swept axis value at this point (0.0 for the baseline).
    rate: float
    seed: int
    #: CD1–CD7 verdict of the run (True when nothing failed).
    spec_holds: bool
    quiescent: bool
    #: Short codes of the failed properties (plus ``"quiescence"`` when
    #: the run stalled), sorted.
    failed_properties: tuple[str, ...]
    #: The subset of :attr:`failed_properties` the fault model licenses.
    excused: tuple[str, ...]
    #: Failures the fault model does *not* license — real findings.
    unexcused: tuple[str, ...]
    #: Full violation messages, for drill-down.
    violations: tuple[str, ...]
    #: Canonical trace digest of the run (pins reproducibility).
    digest: str = ""

    @property
    def acceptable(self) -> bool:
        """True when every failure at this point is excused."""
        return not self.unexcused

    def as_dict(self) -> dict[str, Any]:
        return {
            "faults": json_safe(dict(self.faults)) if self.faults else None,
            "rate": self.rate,
            "seed": self.seed,
            "spec_holds": self.spec_holds,
            "quiescent": self.quiescent,
            "failed_properties": list(self.failed_properties),
            "excused": list(self.excused),
            "unexcused": list(self.unexcused),
            "violations": list(self.violations),
            "digest": self.digest,
        }


@dataclass
class DegradationReport:
    """How the CD1–CD7 specification degrades along one fault axis."""

    #: The swept fault knob (``"loss"``, ``"duplication"``, ``"reorder"``).
    axis: str
    points: tuple[DegradationPoint, ...] = ()
    labels: dict[str, Any] = field(default_factory=dict)

    @property
    def acceptable(self) -> bool:
        """True when every failure across the battery is excused."""
        return all(point.acceptable for point in self.points)

    @property
    def holds_everywhere(self) -> bool:
        """True when no property failed at any rate (excused or not)."""
        return all(
            point.spec_holds and point.quiescent for point in self.points
        )

    def failing_rates(self) -> dict[str, list[float]]:
        """Property code -> sorted rates at which it failed."""
        rates: dict[str, set[float]] = {}
        for point in self.points:
            for code in point.failed_properties:
                rates.setdefault(code, set()).add(point.rate)
        return {code: sorted(values) for code, values in sorted(rates.items())}

    def unexcused_points(self) -> list[DegradationPoint]:
        return [point for point in self.points if not point.acceptable]

    def as_dict(self) -> dict[str, Any]:
        return {
            "type": "degradation",
            "axis": self.axis,
            "acceptable": self.acceptable,
            "holds_everywhere": self.holds_everywhere,
            "failing_rates": self.failing_rates(),
            "points": [point.as_dict() for point in self.points],
            "labels": json_safe(self.labels),
        }

    def summary(self) -> str:
        """Human-readable degradation table, one row per point."""
        lines = [
            f"degradation along {self.axis!r} "
            f"({len(self.points)} points)",
            f"{self.axis:>12}  seed  verdict     failed",
        ]
        for point in self.points:
            if point.spec_holds and point.quiescent:
                verdict, failed = "holds", "-"
            elif point.acceptable:
                verdict = "excused"
                failed = ",".join(point.failed_properties)
            else:
                verdict = "VIOLATED"
                failed = ",".join(
                    f"{code}!" if code in point.unexcused else code
                    for code in point.failed_properties
                )
            lines.append(
                f"{point.rate:>12g}  {point.seed:>4}  {verdict:<10}  {failed}"
            )
        for code, rates in self.failing_rates().items():
            lines.append(
                f"{code} fails at {self.axis}={', '.join(f'{r:g}' for r in rates)}"
            )
        lines.append(
            "all failures excused by the fault model"
            if self.acceptable
            else "UNEXCUSED failures present (marked '!')"
        )
        return "\n".join(lines)


def _failures(
    spec_holds: bool,
    quiescent: bool,
    violations: Iterable[str],
    faults: Optional[Mapping[str, Any]],
) -> tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]:
    """Split a run's failures into (all, excused, unexcused) codes."""
    codes = {_property_code(violation) for violation in violations}
    if not spec_holds and not codes:
        codes.add("CD?")
    if not quiescent:
        codes.add(QUIESCENCE)
    excused = excuse_set(faults)
    failed = tuple(sorted(codes))
    return (
        failed,
        tuple(code for code in failed if code in excused),
        tuple(code for code in failed if code not in excused),
    )


def run_degradation(
    spec: ExperimentSpec,
    axis: str,
    rates: Sequence[float],
    seeds: Sequence[int] = (),
    session=None,
) -> DegradationReport:
    """Run the fault battery in-process and report the degradation.

    ``spec`` is the scenario template (its own ``faults`` block, if any,
    stays active on every point); ``axis`` is the fault knob to sweep and
    ``rates`` its values, each run at every seed in ``seeds`` (the
    template's seed when empty) — a one-worker ``runtime.faults.<axis>``
    sweep handed to :func:`degradation_from_sweep`, so a rate must be one
    the knob accepts (0 is the baseline on the probability axes; a
    ``reorder`` window must be positive).  Checking is forced on: a
    degradation report without the CD1–CD7 verdict would be vacuous.
    """
    if axis not in FAULT_AXES:
        raise SpecError(f"unknown fault axis {axis!r}; known: {', '.join(FAULT_AXES)}")
    sweep = SweepSpec(
        experiment=dataclasses.replace(spec, check=True),
        seeds=tuple(seeds),
        grid={f"runtime.faults.{axis}": [float(rate) for rate in rates]},
    )
    return degradation_from_sweep(sweep, (session or ExperimentSession()).run_sweep(sweep))


def sweep_fault_axes(spec: SweepSpec) -> list[str]:
    """The fault knobs a sweep's grid moves (``runtime.faults.*`` paths)."""
    axes = []
    for path in sorted(spec.grid):
        for sub_path in path.split("|"):
            prefix, _, leaf = sub_path.rpartition(".")
            if prefix == "runtime.faults" and leaf in FAULT_AXES:
                axes.append(leaf)
    return axes


def degradation_from_sweep(spec: SweepSpec, report) -> DegradationReport:
    """Build the degradation report from a finished experiment sweep.

    ``report`` is the :class:`~repro.scale.SweepReport` of running
    ``spec``; the sweep's expanded specs and its outcomes are zipped by
    submission order (identical by construction), so every point carries
    full fault context without re-running anything.
    """
    axes = sweep_fault_axes(spec)
    if not axes:
        raise SpecError(
            "sweep grid moves no fault knob (expected a "
            "'runtime.faults.<loss|duplication|reorder>' axis)"
        )
    axis = axes[0]
    specs = spec.expand()
    outcomes = sorted(report.outcomes, key=lambda outcome: outcome.index)
    if len(specs) != len(outcomes):
        raise SpecError(
            f"sweep shape mismatch: {len(specs)} expanded specs vs "
            f"{len(outcomes)} outcomes"
        )
    points = []
    for point_spec, outcome in zip(specs, outcomes):
        faults = point_spec.runtime.faults
        # A block with every axis at rate 0 switches no stage on: that is the
        # fault-free baseline, digest for digest, and is reported as such.
        active = faults and any(faults.get(knob) for knob in FAULT_AXES)
        faults_dict = dict(faults) if active else None
        rate = float((faults_dict or {}).get(axis, 0.0))
        spec_holds = outcome.spec_holds if outcome.spec_holds is not None else True
        failed, excused, unexcused = _failures(
            spec_holds, outcome.quiescent, outcome.violations, faults_dict
        )
        points.append(
            DegradationPoint(
                faults=faults_dict,
                rate=rate,
                seed=point_spec.seed,
                spec_holds=spec_holds,
                quiescent=outcome.quiescent,
                failed_properties=failed,
                excused=excused,
                unexcused=unexcused,
                violations=tuple(outcome.violations),
                digest=outcome.digest,
            )
        )
    degradation = DegradationReport(axis=axis, points=tuple(points))
    degradation.labels.update(dict(report.labels))
    return degradation
