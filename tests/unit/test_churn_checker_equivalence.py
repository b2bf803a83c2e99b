"""The epoch-quotiented checkers report what they always reported.

``tests/data/churn_checker_reports.json`` holds, for every churn run below,
each property's failure list in order (its length and the sha256 of the
list) as the checkers produced it when they still paired every decision
with every other one in its epoch, rescanned every history per epoch and
scanned every announcement per recovery wave.  Real runs almost always
satisfy the specification, so each run's ground truth is also checked after
six deterministic mutations that make the checkers fail a lot:

* ``values`` — every third decision carries another value (CD5);
* ``views`` — every fourth decision's view grows by one border node (CD2,
  CD4, CD5, CD6 — and :meth:`was_down_for` on live members);
* ``history`` — every third node loses its crash and leave transitions
  (CD2, CD3, CD7);
* ``notifications`` — every other announcement delivery is forgotten (the
  causal carve-outs of CD1, CD2, CD4, CD5, CD6);
* ``decisions`` — every fifth decision is dropped (CD4, CD7);
* ``late`` — every decision is recorded 97 rows later than it was, often
  after a view member's recovery (the causal carve-outs again, and the
  recovery-wave bound of :meth:`was_down_for`).

The runs: EXP-C1 churn-property seeds 0–199 and 530 (whose CD7 violation
is ROADMAP item 1's counterexample), and the benchmark's steady churn
document at smoke (64 nodes) and full (256 nodes) size.  The tier-1 case
runs a spread sample of them; the ``slow`` case runs them all.  Both run in
a ``PYTHONHASHSEED=0`` child, as the record was made: a joiner's id is a
``str``, and a run's trace order can follow the hash seed.

Regenerate (only on purpose) with
``python -m tests.unit.test_churn_checker_equivalence`` under
``PYTHONHASHSEED=0``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
DATA = REPO / "tests" / "data" / "churn_checker_reports.json"

ALL_RUNS = [f"seed:{seed}" for seed in [*range(200), 530]] + ["ledger:smoke", "ledger:full"]
#: Every tenth seed, the counterexample and the smoke-size ledger document.
SAMPLE_RUNS = [f"seed:{seed}" for seed in range(0, 200, 10)] + ["seed:530", "ledger:smoke"]
MUTATIONS = ("values", "views", "history", "notifications", "decisions", "late")


def _spec(run):
    from repro.api import churn_property_case_spec, churn_scenario_spec

    kind, name = run.split(":")
    if kind == "seed":
        return churn_property_case_spec(int(name))
    nodes, duration = (64, 100.0) if name == "smoke" else (256, 200.0)
    return churn_scenario_spec(
        "steady", nodes=nodes, churn_rate=0.1, duration=duration, seed=0, runtime="sim"
    )


def _mutated(gt, mutation):
    from repro.graph import Region

    replace = dataclasses.replace
    if mutation == "values":
        decisions = [
            (index, replace(d, value=("mutant", p % 2)) if p % 3 == 0 else d)
            for p, (index, d) in enumerate(gt.decisions)
        ]
        return replace(gt, decisions=decisions)
    if mutation == "views":
        decisions = []
        for p, (index, d) in enumerate(gt.decisions):
            border = sorted(gt.epoch_at(index).graph.border(d.view.members), key=repr)
            if p % 4 == 1 and border:
                grown = Region(d.view.members | {border[p % len(border)]})
                d = replace(d, view=grown)
            decisions.append((index, d))
        return replace(gt, decisions=decisions)
    if mutation == "history":
        history = {
            node: [t for t in transitions if rank % 3 or t[1] == "live"]
            for rank, (node, transitions) in enumerate(
                sorted(gt.history.items(), key=lambda item: repr(item[0]))
            )
        }
        return replace(gt, history=history)
    if mutation == "notifications":
        notifications = {key: indices[1::2] for key, indices in gt.notifications.items()}
        return replace(gt, notifications=notifications)
    if mutation == "decisions":
        decisions = [pair for p, pair in enumerate(gt.decisions) if p % 5 != 2]
        return replace(gt, decisions=decisions)
    return replace(gt, decisions=[(index + 97, d) for index, d in gt.decisions])


def _reports(gt, trace):
    """Each property's failure count, and one hash of every failure list in order."""
    from repro.churn import properties as P

    reports = [
        P.check_churn_integrity(gt),
        P.check_churn_view_accuracy(gt),
        P.check_churn_locality(gt, trace),
        P.check_churn_border_agreement(gt),
        P.check_churn_view_convergence(gt),
        P.check_churn_border_termination(gt),
        P.check_churn_progress(gt),
    ]
    text = json.dumps([[report.name, report.violations] for report in reports])
    return {
        "failures": [len(report.violations) for report in reports],
        "sha256": hashlib.sha256(text.encode()).hexdigest()[:16],
    }


def record(runs):
    """``{run: {variant: {failures, sha256}}}`` for ``runs``."""
    from repro.api import run_spec
    from repro.churn.properties import build_ground_truth

    out = {}
    for run in runs:
        result = run_spec(_spec(run))
        gt = build_ground_truth(result.base_graph, result.trace, epochs=result.epochs)
        out[run] = {"original": _reports(gt, result.trace)}
        for mutation in MUTATIONS:
            out[run][mutation] = _reports(_mutated(gt, mutation), result.trace)
    return out


def _in_child(runs):
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=f"{REPO / 'src'}{os.pathsep}{REPO}")
    code = (
        "import json, sys\n"
        "from tests.unit.test_churn_checker_equivalence import record\n"
        "print(json.dumps(record(json.loads(sys.argv[1]))))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, json.dumps(runs)],
        env=env,
        cwd=REPO,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    return json.loads(out)


RECORDED = json.loads(DATA.read_text())


def _assert_matches(runs):
    got = _in_child(runs)
    for run in runs:
        assert got[run] == RECORDED[run], run


def test_the_record_covers_every_run_and_makes_the_checkers_fail():
    assert sorted(RECORDED) == sorted(ALL_RUNS)
    # Every property fails somewhere under the mutations; only seed 530's
    # CD7 fails unmutated.
    per_property = [
        sum(counts)
        for counts in zip(*(r[v]["failures"] for r in RECORDED.values() for v in MUTATIONS))
    ]
    assert all(per_property), per_property
    failing = [run for run, r in RECORDED.items() if any(r["original"]["failures"])]
    assert failing == ["seed:530"]
    assert RECORDED["seed:530"]["original"]["failures"] == [0, 0, 0, 0, 0, 0, 1]


def test_sampled_runs_report_what_they_reported():
    _assert_matches(SAMPLE_RUNS)


@pytest.mark.slow
def test_every_run_reports_what_it_reported():
    _assert_matches(ALL_RUNS)


if __name__ == "__main__":
    lines = [f"{json.dumps(run)}: {json.dumps(r, sort_keys=True)}" for run, r in record(ALL_RUNS).items()]
    DATA.write_text("{\n" + ",\n".join(lines) + "\n}\n")
