"""What the ledger reports — names, units, bounds — and the arithmetic on samples.

``BENCHMARK.json`` at the repository root is the one declaration of every
metric's name, unit and direction, and of the bound of each end-to-end
metric; this module reads it and adds only what that file has no field
for: which counts are *exact*.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Any, Optional, Sequence

ROOT = Path(__file__).resolve().parents[2]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())

WORKLOADS: tuple[str, ...] = tuple(entry["name"] for entry in DECLARED["workloads"])
END_TO_END: dict[str, dict[str, Any]] = {m["name"]: m for m in DECLARED["end_to_end"]}
PER_LAYER: dict[str, dict[str, Any]] = {m["name"]: m for m in DECLARED["per_layer"]}
RUN_SECONDS: int = DECLARED["run_seconds"]

#: Simulated statistics: identical between two runs of one seed, and between
#: parent and change for any change that claims to alter only speed.
EXACT = frozenset(
    {
        "sim.scheduler.events",
        "core.protocol.calls",
        "core.protocol.messages_sent",
        "core.protocol.bytes_sent",
        "core.protocol.decisions",
        "core.protocol.msgs_per_decision",
        "graph.border.calls",
        "graph.ranking.calls",
        "trace.emit.calls",
        "trace.columns.pickle_bytes",
        "churn.membership.changes",
        "sim.partition.barrier_rounds",
        "sim.partition.payload_bytes",
        "vtime.loop.callbacks",
        "scale.sweep.task_pickle_bytes",
        "service.cache_hits",
        "service.cache_misses",
    }
)


def bound_of(name: str) -> Optional[float]:
    """The share by which ``name`` may worsen, or ``None`` if it has no bound."""
    return END_TO_END[name]["bound"] if name in END_TO_END else None


def definition(name: str) -> dict[str, Any]:
    """The declared ``{"name", "unit", "better"[, "bound"]}`` of a metric."""
    return END_TO_END.get(name) or PER_LAYER[name]


def tail_percentile(count: int) -> Optional[int]:
    """The highest whole percentile that leaves at least ten samples beyond it.

    ``None`` when that percentile would not lie above the median.
    """
    highest = 100 * (count - 10) // count if count > 0 else 0
    return highest if highest > 50 else None


def percentile(values: Sequence[float], rank: int) -> float:
    """The ``rank``-th percentile of ``values`` (linear interpolation)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[rank - 1]


def spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the median."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (quartiles[2] - quartiles[0]) / median if median else 0.0


def entry(
    name: str, value: float, samples: Optional[Sequence[float]] = None, count: int = 1
) -> dict[str, Any]:
    """One reported metric: its value, declared unit, and its samples or their count."""
    reported: dict[str, Any] = {"value": value, "unit": definition(name)["unit"], "n": count}
    if samples is not None:
        reported.update(n=len(samples), min=min(samples), max=max(samples), samples=list(samples))
    return reported


def median_entry(name: str, samples: Sequence[float]) -> dict[str, Any]:
    """A metric reported as the median of ``samples``."""
    return entry(name, statistics.median(samples), samples)
