#!/usr/bin/env python3
"""Compare two ledger results: ``python benchmarks/ledger/compare.py A.json B.json``.

A is the base (the parent commit, or the first of two sets of one commit),
B the candidate.  One row per (workload, metric): A's value, B's value,
their ratio B/A, the metric's bound and a verdict —

``ok``          B is no worse than A by more than the bound;
``regressed``   it is worse by more than the bound;
``unresolved``  the spread of either side's samples (quartile distance over
                median) is wider than the bound, or a side has a single
                sample and so no spread to show: the medians settle nothing —
                unless every B sample beats every A sample;
``differs``     an *exact* count changed (compared when seed and size match);
``-``           a per-layer metric: it has no bound, so it is reported, not
                judged.  That includes the timings (``wall_s`` …), which do
                not repeat within a bound on the sizing host (README).

Exits 1 on any ``regressed`` or ``differs`` row or a higher ``failed_share``,
2 if the two results come from different hosts (``cpus`` or python minor
version) and ``--allow-host-mismatch`` was not given.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

import metrics  # noqa: E402


def host_mismatch(base: dict[str, Any], candidate: dict[str, Any]) -> Optional[str]:
    """Why the two host stamps cannot be compared, if they cannot."""
    for field, render in (
        ("cpus", str),
        ("python", lambda version: ".".join(version.split(".")[:2])),
    ):
        ours, theirs = render(base["host"][field]), render(candidate["host"][field])
        if ours != theirs:
            return f"{field}: {ours} vs {theirs}"
    return None


def verdict(name: str, base: dict[str, Any], candidate: dict[str, Any], same_inputs: bool) -> str:
    if name in metrics.EXACT:
        if not same_inputs:
            return "-"
        return "ok" if base["value"] == candidate["value"] else "differs"
    bound = metrics.bound_of(name)
    if bound is None or not base["value"]:
        return "-"
    lower_is_better = metrics.definition(name)["better"] == "lower"
    # A metric measured once per run (peak RSS, the service pass's rate) has
    # no "samples" and is judged on its value; one that is sampled has to
    # show a spread inside the bound before its median counts.
    ours, theirs = base.get("samples"), candidate.get("samples")
    if ours is not None and theirs is not None:
        too_few = min(len(ours), len(theirs)) < 2
        if too_few or max(metrics.spread(ours), metrics.spread(theirs)) > bound:
            clear_win = max(theirs) < min(ours) if lower_is_better else min(theirs) > max(ours)
            return "ok" if clear_win else "unresolved"
    change = (candidate["value"] - base["value"]) / base["value"]
    worse_by = change if lower_is_better else -change
    return "regressed" if worse_by > bound else "ok"


def compare(base: dict[str, Any], candidate: dict[str, Any]) -> tuple[list[tuple], bool]:
    """The rows, and whether anything in them fails the comparison."""
    same_inputs = (base["seed"], base["size"]) == (candidate["seed"], candidate["size"])
    rows: list[tuple] = []
    failed = False
    for workload in metrics.WORKLOADS:
        ours = base["workloads"].get(workload)
        theirs = candidate["workloads"].get(workload)
        if ours is None or theirs is None:
            continue
        for name, entry in ours["metrics"].items():
            if name not in theirs["metrics"]:
                continue
            other = theirs["metrics"][name]
            outcome = verdict(name, entry, other, same_inputs)
            failed |= outcome in ("regressed", "differs")
            ratio = other["value"] / entry["value"] if entry["value"] else float("nan")
            bound = metrics.bound_of(name)
            rows.append((workload, name, entry["value"], other["value"], ratio, bound, outcome))
        more_failures = theirs["failed_share"] > ours["failed_share"]
        failed |= more_failures
        rows.append(
            (
                workload,
                "failed_share",
                ours["failed_share"],
                theirs["failed_share"],
                float("nan"),
                0.0,
                "regressed" if more_failures else "ok",
            )
        )
    return rows, failed


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="result A: the base of every ratio")
    parser.add_argument("candidate", type=Path, help="result B")
    parser.add_argument(
        "--allow-host-mismatch",
        action="store_true",
        help="compare even if cpus or python minor version differ",
    )
    args = parser.parse_args(argv)
    base = json.loads(args.base.read_text())
    candidate = json.loads(args.candidate.read_text())
    mismatch = host_mismatch(base, candidate)
    if mismatch is not None and not args.allow_host_mismatch:
        print(f"compare.py: results come from different hosts ({mismatch})", file=sys.stderr)
        return 2
    rows, failed = compare(base, candidate)
    print(f"{'workload':26} {'metric':34} {'A':>12} {'B':>12} {'B/A':>7} {'bound':>6} verdict")
    for workload, name, ours, theirs, ratio, bound, outcome in rows:
        limit = "" if bound is None else f"{bound:.2f}"
        print(
            f"{workload:26} {name:34} {ours:12.6g} {theirs:12.6g} {ratio:7.3f} {limit:>6} {outcome}"
        )
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
