#!/usr/bin/env python
"""CI smoke test for deterministic link-fault injection.

Proves the fault layer's determinism claim end to end through the real
CLI: a loss sweep of spec documents piped into ``repro run -`` must
produce byte-identical canonical digests across **fresh interpreter
processes with different PYTHONHASHSEED values**, and the degradation
report (``repro sweep --faults``) must have the promised shape — the
fault-free baseline holds, every failure at positive loss is excused by
the fault model, and the per-point digests match the ``repro run``
digests for the same (rate, seed).  Last, the cost bound: a fault decision
is one keyed hash plus a few RNG draws per message, so each fault model
(and all three composed) must run within ``MAX_OVERHEAD`` x the fault-free
wall time, best of two on each side.

Exits non-zero (with a diagnostic) on any violation.  Run directly::

    python scripts/faults_smoke.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

_ROOT = Path(__file__).resolve().parent.parent
_SRC = _ROOT / "src"
sys.path.insert(0, str(_SRC))

LOSS_RATES = (0.0, 0.02, 0.05)
SEEDS = (0, 1)

MAX_OVERHEAD = 5.0
OVERHEAD_CONFIGS = {
    "loss": {"loss": 0.05},
    "duplication": {"duplication": 0.2, "copies": 2},
    "reorder": {"reorder": 1.0, "reorder_rate": 0.5},
    "composed": {"loss": 0.02, "duplication": 0.1, "reorder": 0.5},
}


def _document(rate: float, seed: int) -> str:
    from repro.api import quickstart_spec

    spec = quickstart_spec(seed=seed)
    if rate:
        spec = spec.with_faults({"loss": rate})
    return spec.to_json()


def cli_run_digest(document: str, hashseed: str) -> str:
    """Pipe one spec document through ``repro run -`` in a fresh process."""
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(_SRC), env.get("PYTHONPATH", "")])
    )
    completed = subprocess.run(
        [sys.executable, "-m", "repro", "run", "-", "--json"],
        input=document,
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    # Exit 1 means "ran fine but the spec did not hold" — expected under
    # loss (the degradation report, not the exit code, judges that).
    if completed.returncode not in (0, 1):
        raise SystemExit(
            f"CLI run failed (rc={completed.returncode}):\n{completed.stderr}"
        )
    return json.loads(completed.stdout)["digest"]


def best_wall(session, spec) -> float:
    """Best-of-two wall time of one run, digest included."""
    walls = []
    for _ in range(2):
        started = perf_counter()
        session.run(spec).digest()
        walls.append(perf_counter() - started)
    return min(walls)


def main() -> int:
    # 1. Digest stability: every (rate, seed) point, two fresh
    #    interpreters, two PYTHONHASHSEED values, one digest.
    digests: dict[tuple[float, int], str] = {}
    for rate in LOSS_RATES:
        for seed in SEEDS:
            document = _document(rate, seed)
            per_point = {cli_run_digest(document, hs) for hs in ("1", "31337")}
            if len(per_point) != 1:
                print(
                    f"FAIL: loss={rate} seed={seed} digests differ across "
                    f"PYTHONHASHSEED values: {sorted(per_point)}",
                    file=sys.stderr,
                )
                return 1
            digests[(rate, seed)] = per_point.pop()
    print(f"cross-process digests stable at {len(digests)} fault points OK")

    # Faults must actually change the trace.
    if digests[(0.0, 0)] == digests[(0.05, 0)]:
        print("FAIL: loss=0.05 digest equals the fault-free digest", file=sys.stderr)
        return 1
    print("faulted digest differs from the fault-free baseline OK")

    # 2. Degradation report shape, via the real sweep command.
    from repro.cli import main as cli_main

    lines: list[str] = []
    axis = ":".join(str(rate) for rate in LOSS_RATES)
    code = cli_main(
        ["sweep", "--faults", f"loss={axis}", "--cases", str(len(SEEDS)), "--json"],
        write=lines.append,
    )
    payload = json.loads("\n".join(str(line) for line in lines))
    degradation = payload["degradation"]
    if code != 0 or not degradation["acceptable"]:
        print(f"FAIL: degradation unacceptable:\n{degradation}", file=sys.stderr)
        return 1
    if degradation["axis"] != "loss":
        print(f"FAIL: wrong axis {degradation['axis']!r}", file=sys.stderr)
        return 1
    points = degradation["points"]
    if len(points) != len(LOSS_RATES) * len(SEEDS):
        print(f"FAIL: expected {len(LOSS_RATES) * len(SEEDS)} points, "
              f"got {len(points)}", file=sys.stderr)
        return 1
    for point in points:
        if point["rate"] == 0.0:
            if not (point["spec_holds"] and point["quiescent"]):
                print(f"FAIL: fault-free baseline does not hold: {point}", file=sys.stderr)
                return 1
        if point["unexcused"]:
            print(f"FAIL: unexcused failures {point['unexcused']} at "
                  f"loss={point['rate']}", file=sys.stderr)
            return 1
    print(f"degradation report shape OK ({len(points)} points, all excused)")

    # 3. The sweep's per-point digests equal the `repro run` digests.
    sweep_digests = {
        (point["rate"], point["seed"]): point["digest"] for point in points
    }
    if sweep_digests != digests:
        diff = {key for key in digests if sweep_digests.get(key) != digests[key]}
        print(f"FAIL: sweep digests diverge from run digests at {sorted(diff)}",
              file=sys.stderr)
        return 1
    print("sweep point digests match `repro run -` digests OK")

    # 4. Fault injection stays within MAX_OVERHEAD x the fault-free run.
    from repro.api import ExperimentSession, quickstart_spec

    session = ExperimentSession()
    base = quickstart_spec(side=8)
    clean = best_wall(session, base)
    for label, faults in OVERHEAD_CONFIGS.items():
        overhead = best_wall(session, base.with_faults(faults)) / clean
        if overhead > MAX_OVERHEAD:
            print(f"FAIL: {label} faults cost {overhead:.2f}x the fault-free wall "
                  f"time (bound {MAX_OVERHEAD}x)", file=sys.stderr)
            return 1
    print(f"every fault model within {MAX_OVERHEAD}x of the fault-free wall time OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
