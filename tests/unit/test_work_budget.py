"""What a checked run does, counted — not timed.

A run costs what its trace rows cost: ``TraceRecorder.emit`` lands a row
without building an event, and the readers (metrics, decisions, epochs,
ground truth, the locality checkers, the digest) filter on the raw kinds
column and rebuild only the outcome rows they report on.  Wall time on a
shared host cannot hold that (it drifts by more than the whole effect); two
exact counts can.  Each case runs the perf ledger's own seed-0 ``--smoke``
document in a fresh ``PYTHONHASHSEED=0`` interpreter — once to fill the
caches and lazy imports, once counted — the way ``test_import_budget.py``
counts modules.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
_ENV = {
    **os.environ,
    "PYTHONHASHSEED": "0",
    "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), str(ROOT / "benchmarks" / "ledger"), os.environ.get("PYTHONPATH")])
    ),
}

#: Python-level plus C-level calls (``sys.setprofile``) of the counted op,
#: as measured at the change that introduced this file (python 3.10 and 3.11
#: agree to within 40 calls; 3.12 inlines comprehensions and reads 1–2 %
#: lower).  The parent commit read 531 534 and 577 520.  Raising a number
#: here is a decision: say in CHANGES.md what the calls bought.
MEASURED_CALLS = {"static_torus64": 440_661, "churn_steady256": 440_440}
#: A run may cost this much more than measured before the guard fails.
HEADROOM = 1.03
#: The outcome rows (decisions, crashes, membership changes) are rebuilt as
#: events by each reader that reports on them — ``check_all`` alone asks for
#: the decisions eight times — and by nobody else.
READERS, CONSTANT = 8, 16

SCRIPT = """
import json, sys
import workloads
from repro.api import run_spec_json
from repro.sim.events import EventKind, TraceEvent

document = workloads.generate({workload!r}, 0, "smoke")["document"]
run_spec_json(document).digest()

built, calls = [0], [0]
original = TraceEvent.__init__
def counting(self, *args, **kwargs):
    built[0] += 1
    original(self, *args, **kwargs)
TraceEvent.__init__ = counting
result = run_spec_json(document)
result.digest()
TraceEvent.__init__ = original

def profile(frame, event, arg):
    if event == "call" or event == "c_call":
        calls[0] += 1
sys.setprofile(profile)
run_spec_json(document).digest()
sys.setprofile(None)

rows = result.trace.columns.rows_of
print(json.dumps({{
    "holds": result.specification.holds,
    "events": len(result.trace),
    "built": built[0],
    "calls": calls[0],
    "outcomes": len(rows(
        EventKind.DECIDED, EventKind.NODE_CRASHED, EventKind.NODE_LEFT,
        EventKind.NODE_JOINED, EventKind.NODE_RECOVERED,
    )),
}}))
"""


@pytest.fixture(scope="module", params=sorted(MEASURED_CALLS))
def counted(request):
    completed = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(SCRIPT).format(workload=request.param)],
        capture_output=True,
        text=True,
        env=_ENV,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    return request.param, json.loads(completed.stdout.splitlines()[-1])


def test_a_checked_run_builds_events_for_its_outcome_rows_only(counted):
    _workload, seen = counted
    assert seen["holds"]
    assert seen["built"] <= READERS * seen["outcomes"] + CONSTANT, seen
    # ... which is a sliver of the trace, not a multiple of it (the parent
    # rebuilt every row once per reader: 8 496 and 22 316 events here).
    assert seen["built"] * 10 < seen["events"], seen


def test_a_checked_run_stays_inside_its_call_budget(counted):
    workload, seen = counted
    ceiling = int(MEASURED_CALLS[workload] * HEADROOM)
    assert seen["calls"] <= ceiling, (
        f"{workload}: {seen['calls']} calls, measured {MEASURED_CALLS[workload]}, ceiling {ceiling}"
    )
