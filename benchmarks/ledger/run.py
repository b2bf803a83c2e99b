#!/usr/bin/env python3
"""Perf ledger: spec document → verified digest, end to end and layer by layer.

    python benchmarks/ledger/run.py [--workload NAME]... [--seed N]
        [--seconds S | --reps N] [--trace {0,1}]... [--smoke] [--out FILE]

Generates every selected workload from ``--seed`` in this process, runs
each in a fresh subprocess, verifies every operation, prints every metric
as ``workload metric value unit``, and exits non-zero if any operation
failed.  End-to-end metrics are measured with tracing off (``--trace 0``,
the default); ``--trace 1`` is a separate run under the benchmark's own
span wrappers that yields the per-layer metrics; give both for both.

The last line of standard output is one JSON object — ``correct``,
``attempted``, ``failed``, ``metrics`` — holding, for a single workload,
every metric ``BENCHMARK.json`` declares for that kind of run.

See README.md beside this file for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter
from typing import Any, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import metrics  # noqa: E402
from hostspeed import kernel_seconds, reference_seconds  # noqa: E402

try:
    import workloads  # noqa: E402
except ModuleNotFoundError as error:
    raise SystemExit(f"run.py: {error}; the ledger needs the checkout's src/repro") from None

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: A child that runs longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 170.0
SMOKE_REPS = 2
#: Pinned digests and exact counts, used when ``--seed`` matches theirs.
EXPECTED = HERE / "expected.json"


def host_stamp() -> dict[str, Any]:
    """Where these numbers were taken; ``compare.py`` refuses to mix hosts."""
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"  # a checkout without git
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "git_commit": commit,
        "captured_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def spawn(request: dict[str, Any]) -> dict[str, Any]:
    """Run one child to completion; a child that dies is one failed operation.

    The reference kernel runs here before the child's set-up and in the
    child right after it.
    """
    kernel_before = kernel_seconds()
    request["started"] = time.time()
    process = subprocess.Popen(
        [sys.executable, str(HERE / "child.py")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        output, _ = process.communicate(json.dumps(request), timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # The child may have forked pool or partition workers: kill the group.
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        return {"attempted": 1, "failures": [f"timed out after {CHILD_TIMEOUT_S:.0f} s"]}
    lines = output.strip().splitlines()
    try:
        outcome = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"attempted": 1, "failures": [f"child exited {process.returncode} without a result"]}
    outcome["kernel_before_s"] = kernel_before
    return outcome


def check_pinned(outcome: dict[str, Any], pinned: dict[str, Any]) -> None:
    """Hold the run's *exact* counts to the pinned ones (one more verified operation)."""
    reported = {name: entry["value"] for name, entry in outcome.get("metrics", {}).items()}
    reported["units"] = outcome.get("units")
    wrong = [
        f"{name} is {reported[name]}, pinned {value}"
        for name, value in {"units": pinned["units"], **pinned.get("exact", {})}.items()
        if name in reported and reported[name] != value
    ]
    outcome["attempted"] += 1
    if wrong:
        outcome["failures"].append("exact counts: " + "; ".join(wrong))


def run_workload(
    workload: str, trace: bool, args: argparse.Namespace, pinned: Optional[dict[str, Any]]
) -> dict[str, Any]:
    """Generate the workload's plan here; set it up and measure it in children."""
    size = "smoke" if args.smoke else "full"
    started = perf_counter()
    plan = workloads.generate(workload, args.seed, size)
    generation_s = perf_counter() - started
    request = {
        "workload": workload,
        "plan": plan,
        "size": workloads.SIZES[size],
        "seconds": args.seconds,
        "reps": args.reps,
        "trace": trace,
        "pinned": pinned,
        "setup_only": True,
    }
    # Set-up several times over, each in a fresh process; the last goes on
    # to measure.  A traced run reports no set-up time and sets up once.
    rehearsals = [] if trace else [spawn(request) for _ in range(SETUPS - 1)]
    outcome = spawn({**request, "setup_only": False})
    for rehearsal in rehearsals:
        outcome["attempted"] += rehearsal["attempted"]
        outcome["failures"] += rehearsal["failures"]
    if pinned is not None and "metrics" in outcome:
        check_pinned(outcome, pinned)
    setups = [run for run in (*rehearsals, outcome) if "setup_s" in run]
    if setups and "metrics" in outcome:
        kernels = [(run["kernel_before_s"], run["kernel_after_s"]) for run in setups]
        outcome["metrics"]["host.kernel_s"] = metrics.median_entry(
            "host.kernel_s", [seconds for pair in kernels for seconds in pair]
        )
        if not trace:
            outcome["metrics"]["setup_s"] = metrics.median_entry(
                "setup_s",
                [
                    reference_seconds(generation_s + run["setup_s"], *pair)
                    for run, pair in zip(setups, kernels)
                ],
            )
    return outcome


def merge(untraced: Optional[dict[str, Any]], traced: Optional[dict[str, Any]]) -> dict[str, Any]:
    """One workload's record; a metric both runs report is the untraced one's."""
    runs = [run for run in (traced, untraced) if run is not None]
    merged: dict[str, Any] = {
        "attempted": sum(run["attempted"] for run in runs),
        "failures": [failure for run in runs for failure in run["failures"]],
        "digest": runs[-1].get("digest"),
        "units": runs[-1].get("units"),
        "metrics": {},
    }
    for run in runs:
        merged["metrics"].update(run.get("metrics", {}))
    merged["failed"] = len(merged["failures"])
    merged["failed_share"] = merged["failed"] / merged["attempted"]
    return merged


def print_metrics(workload: str, record: dict[str, Any]) -> None:
    for name, entry in record["metrics"].items():
        detail = f"n={entry['n']}"
        if "samples" in entry:
            detail += f" min={entry['min']:.6g} max={entry['max']:.6g}"
        print(f"{workload} {name} {entry['value']:.6g} {entry['unit']} {detail}")
    print(
        f"{workload} failed_share {record['failed_share']:.6g} ratio "
        f"failed={record['failed']} attempted={record['attempted']}"
    )
    for failure in record["failures"]:
        print(f"{workload} FAILED {failure}", file=sys.stderr)


def declared_metrics(record: dict[str, Any], trace: bool) -> dict[str, Any]:
    """Every metric BENCHMARK.json declares for this kind of run.

    A per-layer metric this workload never enters reads 0.
    """
    declared = metrics.PER_LAYER if trace else metrics.END_TO_END
    return {
        name: {
            "value": record["metrics"].get(name, {}).get("value", 0),
            "unit": definition["unit"],
        }
        for name, definition in declared.items()
    }


def parse(argv: Optional[list[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload",
        action="append",
        choices=metrics.WORKLOADS,
        help="run only this workload (repeatable; default: all six)",
    )
    parser.add_argument("--seed", type=int, default=0, help="every document derives from it")
    parser.add_argument(
        "--seconds",
        type=float,
        default=float(metrics.RUN_SECONDS),
        help="how long each batch workload measures (five ops at least)",
    )
    parser.add_argument(
        "--reps", type=int, help="timed ops per batch workload, overriding --seconds"
    )
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        action="append",
        help="0 (default): end to end, tracing off; 1: the traced, per-layer run; "
        "give it twice for both",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small sizes, 2 reps: proves the harness, not the numbers",
    )
    parser.add_argument("--out", type=Path, help="write the full result as JSON")
    args = parser.parse_args(argv)
    if args.smoke and args.reps is None:
        args.reps = SMOKE_REPS
    return args


def main(argv: Optional[list[str]] = None) -> int:
    args = parse(argv)
    selected = args.workload or list(metrics.WORKLOADS)
    traces = sorted({bool(trace) for trace in args.trace or [0]})
    expected = json.loads(EXPECTED.read_text())
    pinned = expected["smoke" if args.smoke else "full"] if args.seed == expected["seed"] else {}

    records = {}
    for workload in selected:
        runs: dict[bool, dict[str, Any]] = {
            trace: run_workload(workload, trace, args, pinned.get(workload)) for trace in traces
        }
        records[workload] = merge(runs.get(False), runs.get(True))
        print_metrics(workload, records[workload])

    result = {
        "ledger": 1,
        "host": host_stamp(),
        "seed": args.seed,
        "size": "smoke" if args.smoke else "full",
        "seconds": args.seconds,
        "reps": args.reps,
        "traces": [int(trace) for trace in traces],
        "workloads": records,
    }
    if args.out is not None:
        args.out.write_text(json.dumps(result, indent=1) + "\n")
    attempted = sum(record["attempted"] for record in records.values())
    failed = sum(record["failed"] for record in records.values())
    if len(selected) == 1:
        reported = declared_metrics(records[selected[0]], traces[-1])
    else:
        reported = {
            workload: {
                name: {"value": entry["value"], "unit": entry["unit"]}
                for name, entry in record["metrics"].items()
            }
            for workload, record in records.items()
        }
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": reported}
        )
    )
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
