"""EXP-C1 cases are documents.

Every EXP-C1 case is an :class:`~repro.api.ExperimentSpec` drawn from its
seed (:func:`~repro.api.property_case_spec`,
:func:`~repro.api.churn_property_case_spec`) and run through the session
like every other sweep task.  ``tests/data/exp_c1_digests.json`` holds what
the cases produced **at the commit where they still built their graphs
and schedules by hand** and called the runners themselves (digest, CD1–CD7
verdict, quiescence, churn epoch count), recorded under
``PYTHONHASHSEED=0`` on ``workers=1``.  Churn seeds 59, 132 and 134 draw
an empty membership script and must still run as churn runs (epochs, the
epoch-quotiented checkers, the churn tie order): only ``membership:
none`` is static.
"""

from __future__ import annotations

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

from repro.api import (
    ExperimentSpec,
    churn_property_case_spec,
    property_case_spec,
    quickstart_spec,
    run_spec_json,
)
from repro.cli import main
from repro.scale import SweepTask, family_names, get_family, run_task

REPO = Path(__file__).resolve().parents[2]
RECORDED = json.loads((REPO / "tests" / "data" / "exp_c1_digests.json").read_text())

#: Run in a fresh ``PYTHONHASHSEED=0`` interpreter: a joiner's id is a
#: ``str``, and what a run iterates over ``str`` ids may follow the hash seed.
_CHILD = """
import json
from repro.api import SweepSpec, run_spec

sweeps = [
    SweepSpec(family="property", seeds=tuple(range(10))),
    SweepSpec(family="churn-property", seeds=(*range(10), 59, 132, 134)),
]
record = {}
for outcome in (outcome for sweep in sweeps for outcome in run_spec(sweep).outcomes):
    row = {"digest": outcome.digest, "spec_holds": outcome.spec_holds, "quiescent": outcome.quiescent}
    if outcome.family == "churn-property":
        row["epochs"] = outcome.labels["epochs"]
    record[f"{outcome.family}:{outcome.seed}"] = row
print(json.dumps(record, sort_keys=True))
"""


def test_cases_match_the_record():
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(REPO / "src"))
    out = subprocess.run(
        [sys.executable, "-c", _CHILD], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert json.loads(out) == RECORDED


def test_an_empty_script_is_still_a_churn_run():
    spec = churn_property_case_spec(59)
    assert spec.membership.kind == "explicit" and spec.membership.params["rows"] == ()
    assert not spec.membership.is_static
    assert property_case_spec(59).membership.is_static


def test_a_case_document_round_trips_and_draws_the_same_case_twice():
    spec = churn_property_case_spec(8)
    assert ExperimentSpec.from_json(spec.to_json()) == spec == churn_property_case_spec(8)
    assert spec.name == spec.labels["topology"]
    kinds = {row[0] for row in spec.membership.params["rows"]}
    assert kinds == {"join", "recover"}


def test_case_530_replays_as_a_document(tmp_path):
    # The CD7 counterexample (ROADMAP item 1) written down: the file, the
    # CLI and the sweep task all run the same case.
    path = tmp_path / "case-530.json"
    path.write_text(churn_property_case_spec(530).to_json())
    lines = []
    assert main(["run", str(path), "--json"], write=lines.append) == 1
    payload = json.loads("\n".join(lines))
    replayed = run_spec_json(path.read_text())
    outcome = run_task(SweepTask("churn-property", seed=530))
    assert payload["digest"] == replayed.digest() == outcome.digest
    violations = payload["specification"]["violations"]
    assert violations == list(replayed.specification.violations()) == list(outcome.violations)
    assert any(violation.startswith("CD7") for violation in violations)


BUILT_IN_PARAMS = {
    "spec": {"spec": quickstart_spec().to_dict()},
    "property": {},
    "churn-property": {},
    "churn-scenario": {"nodes": 16},
    "torus-block": {"side": 8},
}


def test_every_family_is_a_document_builder():
    assert sorted(BUILT_IN_PARAMS) == sorted(family_names())
    for name, params in BUILT_IN_PARAMS.items():
        assert isinstance(get_family(name)(3, **params), ExperimentSpec), name


def test_run_task_is_the_only_session_run_in_the_sweep_engine():
    scale = REPO / "src" / "repro" / "scale"
    hits = [
        path.name
        for path in sorted(scale.glob("*.py"))
        for _ in range(path.read_text().count("ExperimentSession("))
    ]
    assert hits == ["families.py"]
    assert "ExperimentSession().run(spec)" in inspect.getsource(run_task)
