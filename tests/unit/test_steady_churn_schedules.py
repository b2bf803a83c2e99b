"""The steady-churn builder draws the schedules it always drew.

``tests/data/steady_churn_schedules.json`` holds, per case, the sha256 of
both schedules' canonical text (or the error a case raises), recorded when
the builder still rebuilt its busy set and redrew a region for every cycle
start, placeable or not.  The cases span saturated and unsaturated regimes
(rates 0.02 / 0.1 / 0.3 over 50 and 200 time units), region sizes 1 and 2,
int, tuple and ``str`` node ids (``str`` ids only with single-node regions,
whose draw does not iterate a set), non-default ``downtime`` and
``settle_margin``, and the scripts too constrained for one cycle.

Regenerate (only on purpose) with ``python -m tests.unit.test_steady_churn_schedules``.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import pytest

import repro.churn.membership as membership
from repro.churn import MembershipError, steady_state_churn
from repro.graph import KnowledgeGraph
from repro.graph.generators import grid, ring, torus

DATA = Path(__file__).resolve().parents[1] / "data" / "steady_churn_schedules.json"


def _str_ring(size):
    return KnowledgeGraph([(f"n{i}", f"n{(i + 1) % size}") for i in range(size)])


GRAPHS = {
    "torus8": lambda: torus(8, 8),
    "torus16": lambda: torus(16, 16),
    "grid10": lambda: grid(10, 10),
    "ring40": lambda: ring(40),
    "strring30": lambda: _str_ring(30),
    "torus3": lambda: torus(3, 3),
}

CASES = (
    [
        {"graph": "torus8", "churn_rate": rate, "duration": duration, "seed": seed}
        for rate in (0.02, 0.1, 0.3)
        for duration in (50.0, 200.0)
        for seed in (0, 1, 7)
    ]
    + [
        {"graph": "torus16", "churn_rate": 0.1, "duration": 200.0, "seed": 0},
        {"graph": "torus16", "churn_rate": 0.3, "duration": 50.0, "seed": 7},
        {"graph": "torus16", "churn_rate": 0.02, "duration": 200.0, "seed": 1},
        {"graph": "torus16", "churn_rate": 0.1, "duration": 50.0, "seed": 1, "region_size": 2},
        {"graph": "torus8", "churn_rate": 0.1, "duration": 200.0, "seed": 7, "region_size": 2},
        {"graph": "torus8", "churn_rate": 0.02, "duration": 50.0, "seed": 0, "region_size": 2},
        {"graph": "grid10", "churn_rate": 0.1, "duration": 200.0, "seed": 0},
        {"graph": "grid10", "churn_rate": 0.3, "duration": 50.0, "seed": 1, "region_size": 2},
        {"graph": "grid10", "churn_rate": 0.02, "duration": 200.0, "seed": 7, "region_size": 2},
        {
            "graph": "grid10",
            "churn_rate": 0.1,
            "duration": 50.0,
            "seed": 7,
            "downtime": 4.0,
            "settle_margin": 2.5,
        },
        {
            "graph": "torus8",
            "churn_rate": 0.3,
            "duration": 50.0,
            "seed": 1,
            "start": 3.0,
            "downtime": 30.0,
            "settle_margin": 40.0,
            "region_size": 2,
        },
        {"graph": "ring40", "churn_rate": 0.1, "duration": 200.0, "seed": 0, "region_size": 2},
        {"graph": "ring40", "churn_rate": 0.3, "duration": 50.0, "seed": 1, "downtime": 6.0},
        {"graph": "strring30", "churn_rate": 0.1, "duration": 200.0, "seed": 7},
        {"graph": "strring30", "churn_rate": 0.02, "duration": 50.0, "seed": 0, "settle_margin": 1.0},
        # Too constrained for one cycle: every draw fails, nothing is placed.
        {"graph": "torus3", "churn_rate": 0.1, "duration": 50.0, "seed": 0, "region_size": 10},
        {"graph": "torus8", "churn_rate": 0.1, "duration": 50.0, "seed": 0, "region_size": 0},
    ]
)


def case_id(case):
    return ",".join(f"{key}={value}" for key, value in case.items())


def canonical_text(crashes, schedule):
    lines = [f"allow_recrash {crashes.allow_recrash!r}"]
    lines += [f"crash {node!r} {time!r}" for node, time in crashes.crashes]
    lines += [
        f"{event.kind.value} {event.node!r} {event.time!r} {event.attachment!r}"
        for event in schedule
    ]
    return "\n".join(lines)


def draw(case):
    params = dict(case)
    graph = GRAPHS[params.pop("graph")]()
    try:
        crashes, schedule = steady_state_churn(graph, **params)
    except MembershipError as exc:
        return f"MembershipError: {exc}"
    return hashlib.sha256(canonical_text(crashes, schedule).encode()).hexdigest()


def record():
    return {case_id(case): draw(case) for case in CASES}


RECORDED = json.loads(DATA.read_text())


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_the_schedule_is_the_recorded_one(case):
    assert draw(case) == RECORDED[case_id(case)]


def test_every_recorded_case_is_drawn():
    assert sorted(RECORDED) == sorted(map(case_id, CASES))
    assert sum(value.startswith("MembershipError") for value in RECORDED.values()) == 2


def test_the_ledger_document_draws_one_region_per_placed_cycle(monkeypatch):
    # The 256-node steady document of the benchmark (rate 0.1 over 200 time
    # units) asks for 5 120 cycle starts and can place 284 of them; only the
    # placed ones may grow a region.
    from repro.api import ExperimentSession, churn_scenario_spec

    grown = []
    real = membership._grow_region

    def counting(*args, **kwargs):
        grown.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(membership, "_grow_region", counting)
    spec = churn_scenario_spec("steady", nodes=256, churn_rate=0.1, duration=200.0, seed=0)
    _, crashes, schedule = ExperimentSession().resolve(spec)
    assert len(grown) == len(crashes.crashes) == len(schedule) == 284


def test_a_draw_that_cannot_succeed_gives_up_after_one_attempt(monkeypatch):
    # Region size 2 on a saturated 10x10 grid: 1 500 draws, 1 478 of them
    # with no two adjacent free nodes left.  Each of those used to retry 256
    # seeded attempts (378 392 in all); one attempt grows a whole free
    # component, so one is enough to know.
    class CountingRandom(random.Random):
        attempts = 0

        def choice(self, seq):
            CountingRandom.attempts += 1
            return super().choice(seq)

    draws = []
    real = membership._grow_region

    def counting(graph, size, rng, candidates, forbidden):
        draws.append(size)
        counted = CountingRandom()
        counted.setstate(rng.getstate())  # the same stream, counted
        return real(graph, size, counted, candidates, forbidden)

    monkeypatch.setattr(membership, "_grow_region", counting)
    case = {"graph": "grid10", "churn_rate": 0.3, "duration": 50.0, "seed": 1, "region_size": 2}
    assert draw(case) == RECORDED[case_id(case)]
    assert len(draws) == 1_500
    assert CountingRandom.attempts < 2 * len(draws)


if __name__ == "__main__":
    DATA.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
