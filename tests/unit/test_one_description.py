"""One description per experiment: the classic entry points, pinned.

Every experiment the repo ships is one spec (:mod:`repro.api.presets`) run
through :class:`~repro.api.ExperimentSession`; the scenario builders, sweep
families and classic CLI subcommands are views of that spec, not a second
copy of it.

The first half of this file is a battery over the classic entry points —
names, descriptions, sizes, rows, labels and trace digests — whose values
were **recorded at the commit where those entry points still ran their own
imperative path** (``run_cliff_edge`` / ``run_churn`` / ``run_churn_asyncio``
called from ``experiments/`` directly) and live in
``tests/data/one_description.json``.  It is what the refactor onto the spec
layer was checked against, and what a changed preset default trips.  Result
``labels`` are compared without the keys a run gains by going through the
session (``spec_digest``, ``extract``).

Figure scenarios use ``str`` node ids, so their trace digests depend on
``PYTHONHASHSEED`` (docs/ARCHITECTURE.md, "Determinism and the hash seed");
they are pinned in a ``PYTHONHASHSEED=0`` subprocess, everything else
in-process.

The second half holds the guards that make the fork impossible again.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import (
    ExperimentSession,
    churn_scenario_spec,
    json_safe,
    load_spec,
    locality_sweep_spec,
    repair_spec,
    torus_block_spec,
    torus_region_spec,
)
from repro.churn.membership import MembershipError
from repro.cli import main
from repro.experiments import (
    ChurnScenario,
    Scenario,
    case_row,
    churn_flash_crowd_scenario,
    churn_property_sweep,
    churn_recovery_race_scenario,
    churn_steady_scenario,
    fig1a_scenario,
    fig1b_scenario,
    fig2_scenario,
    fig3_scenario,
    overlay_repair_sweep,
    property_sweep,
    region_size_sweep,
    run_fig1b,
    run_fig2,
    run_fig3,
    run_overlay_repair,
    run_torus_region_scenario,
    system_size_sweep,
    torus_block_scenario,
    torus_scale_family,
)
from repro.scale import SweepTask, run_task, torus_scale_tasks

REPO = Path(__file__).resolve().parents[2]

#: Labels a run gains by going through the session; never recorded.
_SESSION_LABELS = ("spec_digest", "extract")


def _own_labels(labels) -> dict:
    return {key: value for key, value in labels.items() if key not in _SESSION_LABELS}


def _fingerprint(value) -> str:
    """A short hash of a script (crash list, membership events): ``repr`` of
    int/float/tuple data is stable across processes and hash seeds."""
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _scenario_record(scenario) -> dict:
    record = {
        "name": scenario.name,
        "description": scenario.description,
        "nodes": len(scenario.graph),
        "crashes": len(scenario.schedule),
        "script": _fingerprint(scenario.schedule.crashes),
        "labels": dict(scenario.labels),
    }
    membership = getattr(scenario, "membership", None)
    if membership is not None and len(membership):
        record["membership"] = len(membership)
        record["membership_script"] = _fingerprint(
            [(e.kind.name, e.node, e.time) for e in membership]
        )
    return json_safe(record)


def _result_record(result, digest: bool = True) -> dict:
    payload = result.as_dict()
    record = {
        "type": payload["type"],
        "runtime": result.runtime,
        "nodes": len(result.base_graph),
        "final_nodes": len(result.graph),
        "messages": result.metrics.messages_sent,
        "decisions": result.metrics.decisions,
        "decided_views": result.metrics.decided_views,
        "quiescent": result.quiescent,
        "holds": None if result.specification is None else result.specification.holds,
        "labels": _own_labels(result.labels),
    }
    if digest:
        record["digest"] = result.digest()[:16]
    return json_safe(record)


def _outcome_record(outcome) -> dict:
    return json_safe(
        {
            "family": outcome.family,
            "label": outcome.label,
            "seed": outcome.seed,
            "digest": outcome.digest[:16],
            "nodes": outcome.nodes,
            "messages": outcome.messages,
            "decisions": outcome.decisions,
            "decided_views": outcome.decided_views,
            "quiescent": outcome.quiescent,
            "spec_holds": outcome.spec_holds,
            "labels": _own_labels(outcome.labels),
        }
    )


# ---------------------------------------------------------------------------
# The battery: classic entry points with non-default arguments
# ---------------------------------------------------------------------------
FIGURES = {
    "fig1a": fig1a_scenario,
    "fig1b": fig1b_scenario,
    "fig1b-delay10": lambda: fig1b_scenario(madrid_detection_delay=10.0),
    "fig2": fig2_scenario,
    "fig3": fig3_scenario,
    "fig3-growth60": lambda: fig3_scenario(growth_at=60.0),
}

CHURN = {
    "steady": lambda: churn_steady_scenario(nodes=36, seed=2),
    "steady-args": lambda: churn_steady_scenario(
        nodes=36, churn_rate=0.1, duration=40.0, seed=5, downtime=8.0
    ),
    "race": lambda: churn_recovery_race_scenario(nodes=36, seed=2),
    "race-args": lambda: churn_recovery_race_scenario(
        nodes=36, recover_at=4.0, recrash_at=30.0, seed=1
    ),
    "flash": lambda: churn_flash_crowd_scenario(nodes=36, crowd=3, seed=5),
    "flash-default-crowd": lambda: churn_flash_crowd_scenario(nodes=16, seed=2),
}

CHURN_FAMILY_TASKS = {
    "family-steady": SweepTask(
        "churn-scenario",
        params={"scenario": "steady", "nodes": 16, "churn_rate": 0.1, "duration": 30.0},
        seed=3,
    ),
    "family-race": SweepTask(
        "churn-scenario",
        params={"scenario": "race", "nodes": 36, "recover_at": 5.0},
        seed=1,
    ),
    "family-flash": SweepTask(
        "churn-scenario", params={"scenario": "flash", "nodes": 16, "crowd": 2}, seed=4
    ),
    "family-default": SweepTask("churn-scenario", params={"nodes": 16}, seed=0),
}


def _figure_entry(build):
    def observe():
        scenario = build()
        record = _scenario_record(scenario)
        record["crash_list"] = json_safe(scenario.schedule.crashes)
        detector = scenario.failure_detector
        record["detector"] = (
            None
            if detector is None
            else json_safe(
                {
                    "default_delay": detector.default_delay,
                    "delays": sorted(
                        [list(pair), delay] for pair, delay in detector.delays.items()
                    ),
                }
            )
        )
        # Message counts and digests of the figure runs move with the hash
        # seed; the verdict and the result's shape do not.
        result = scenario.run(seed=1)
        run = _result_record(result, digest=False)
        record["run"] = {key: run[key] for key in ("type", "nodes", "holds", "labels")}
        return record

    return observe


def _churn_entry(build, runtime):
    def observe():
        scenario = build()
        record = _scenario_record(scenario)
        record["run"] = _result_record(scenario.run(seed=2, runtime=runtime))
        return record

    return observe


def _torus_block():
    scenario = torus_block_scenario(side=12, origin=(11, 11))
    record = _scenario_record(scenario)
    record["run"] = _result_record(scenario.run(seed=1))
    return record


def _torus_scale():
    family = torus_scale_family(side=12, scenarios=3, block_side=3)
    tasks = torus_scale_tasks(side=12, scenarios=3, block_side=3, check=False)
    outcome = run_task(tasks[1], seed=5)
    return {
        "family": [_scenario_record(scenario) for scenario in family],
        "tasks": json_safe(
            [[task.family, task.params, task.seed, task.label] for task in tasks]
        ),
        "outcome": _outcome_record(outcome),
    }


def _torus_region(**kwargs):
    def observe():
        result, region = run_torus_region_scenario(8, 3, seed=2, **kwargs)
        return {"region": json_safe(region), "run": _result_record(result)}

    return observe


def _locality_sweeps():
    return {
        "l1": [point.as_row() for point in system_size_sweep(sides=(8, 12), seed=1)],
        "l2": [
            point.as_row()
            for point in region_size_sweep(region_sides=(1, 3), side=10, seed=1)
        ],
    }


def _overlay_repair(**kwargs):
    def observe():
        run = run_overlay_repair(ring_size=16, arc_start=3, arc_length=3, **kwargs)
        record = _result_record(run.result)
        # {} on the imperative path; the spec's labels through the session.
        del record["labels"]
        return json_safe(
            {
                "arc": run.arc,
                "overlay": [run.overlay.size, run.overlay.successors],
                "run": record,
                "point": run.point().as_row(),
                "outcome": run.outcome.summary(),
            }
        )

    return observe


def _overlay_sweep():
    points = overlay_repair_sweep(ring_sizes=(16, 24), arc_lengths=(2, 4), seed=1)
    return json_safe([point.as_row() for point in points])


def _property_sweeps():
    def rows(sweep, workers):
        cases = sweep(seeds=(0, 1, 2), workers=workers)
        return [dict(case_row(case), digest=case.digest[:16]) for case in cases]

    record = {}
    for name, sweep in (("static", property_sweep), ("churn", churn_property_sweep)):
        inline = rows(sweep, workers=1)
        assert inline == rows(sweep, workers=2)
        record[name] = json_safe(inline)
    return record


def _figure_observations():
    fig1b, fig2, fig3 = run_fig1b(seed=1), run_fig2(seed=1), run_fig3(seed=1)
    return json_safe(
        {
            "fig1b": {
                "conflict_arose": fig1b.conflict_arose,
                "converged_on_f3": fig1b.converged_on_f3,
                "decided_view": fig1b.decided_view,
                "holds": fig1b.result.specification.holds,
            },
            "fig2": {
                "cluster_has_decision": fig2.cluster_has_decision,
                "domains": sorted(fig2.decided_domains),
                "holds": fig2.result.specification.holds,
            },
            "fig3": {
                "first_wave_view": fig3.first_wave_view,
                "grown_region_proposed": fig3.grown_region_proposed,
                "no_conflicting_decision": fig3.no_conflicting_decision,
                "holds": fig3.result.specification.holds,
            },
        }
    )


ENTRIES = {
    **{name: _figure_entry(build) for name, build in FIGURES.items()},
    **{
        f"{name}@{runtime}": _churn_entry(build, runtime)
        for name, build in CHURN.items()
        for runtime in ("sim", "asyncio-virtual")
    },
    **{
        name: (lambda task=task: _outcome_record(run_task(task)))
        for name, task in CHURN_FAMILY_TASKS.items()
    },
    "torus-block": _torus_block,
    "torus-scale": _torus_scale,
    "torus-region": _torus_region(),
    "torus-region-no-jitter": _torus_region(jittered_detection=False, check=False),
    "locality-sweeps": _locality_sweeps,
    "overlay-repair": _overlay_repair(),
    "overlay-repair-args": _overlay_repair(spread=0.0, check=False, seed=2),
    "overlay-sweep": _overlay_sweep,
    "property-sweeps": _property_sweeps,
    "figure-observations": _figure_observations,
}

#: ``repro … --emit-spec`` invocations and the digest of the document each
#: prints (the document is a pure function of the flags).
EMIT_SPEC = {
    "quickstart": ["quickstart"],
    "quickstart-args": ["--seed", "3", "quickstart", "--side", "8", "--block", "3"],
    "figure-1a": ["figure", "1a"],
    "figure-1b": ["--seed", "3", "figure", "1b"],
    "figure-2": ["figure", "2"],
    "figure-3": ["figure", "3"],
    "locality-l1": ["locality"],
    "locality-l2": ["--seed", "2", "locality", "--exp", "l2"],
    "locality-full": ["locality", "--full"],
    "repair": ["repair"],
    "repair-args": ["repair", "--ring-size", "16", "--arc-start", "3", "--arc-length", "3"],
    "churn-race": ["churn", "--scenario", "race"],
    "churn-flash-virtual": ["churn", "--scenario", "flash", "--runtime", "asyncio-virtual"],
    "churn-steady": ["churn", "--scenario", "steady", "--nodes", "36", "--seed", "4"],
    "sweep": ["sweep", "--cases", "4"],
    "sweep-churn": ["sweep", "--cases", "3", "--churn", "--workers", "2"],
}


def _emit_spec_digest(argv) -> str:
    lines: list[str] = []
    assert main([*argv, "--emit-spec"], write=lines.append) == 0
    return load_spec("\n".join(lines)).digest()[:16]


def _hashseed0_figure_digests() -> dict:
    """Figure run digests, computed under ``PYTHONHASHSEED=0``."""
    script = (
        "from repro.experiments import *\n"
        "for name, build in [('fig1a', fig1a_scenario), ('fig1b', fig1b_scenario),\n"
        "                    ('fig2', fig2_scenario), ('fig3', fig3_scenario)]:\n"
        "    print(name, build().run(seed=0).digest()[:16])\n"
        "print('fig1b-delay10-seed3',\n"
        "      fig1b_scenario(madrid_detection_delay=10.0).run(seed=3).digest()[:16])\n"
        "print('fig3-growth60', fig3_scenario(growth_at=60.0).run(check=False).digest()[:16])\n"
    )
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH", "")])
    )
    output = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        check=True,
        timeout=120,
    )
    return dict(line.split() for line in output.stdout.splitlines())


RECORDED = json.loads((REPO / "tests" / "data" / "one_description.json").read_text())


class TestRecordedBattery:
    def test_the_record_covers_the_battery(self):
        assert sorted(RECORDED["entries"]) == sorted(ENTRIES)
        assert sorted(RECORDED["emit_spec"]) == sorted(EMIT_SPEC)

    @pytest.mark.parametrize("name", sorted(ENTRIES))
    def test_classic_entry_point_matches_the_record(self, name):
        assert ENTRIES[name]() == RECORDED["entries"][name]

    @pytest.mark.parametrize("name", sorted(EMIT_SPEC))
    def test_emit_spec_document_matches_the_record(self, name):
        assert _emit_spec_digest(EMIT_SPEC[name]) == RECORDED["emit_spec"][name]

    def test_figure_digests_under_hashseed_0(self):
        assert _hashseed0_figure_digests() == RECORDED["figure_digests_hashseed0"]


# ---------------------------------------------------------------------------
# The guards: one description, one run path
# ---------------------------------------------------------------------------
SRC = REPO / "src" / "repro"

#: The modules that used to call the runners themselves.
FORMER_IMPERATIVE_PATH = (
    "experiments/scenarios.py",
    "experiments/locality.py",
    "experiments/overlay_repair.py",
    "experiments/property_sweep.py",
    "scale/families.py",
    "cli.py",
)


@pytest.fixture
def session_runs(monkeypatch):
    """Every spec handed to ``ExperimentSession.run``, in call order."""
    specs = []
    real_run = ExperimentSession.run

    def run(self, spec):
        specs.append(spec)
        return real_run(self, spec)

    monkeypatch.setattr(ExperimentSession, "run", run)
    return specs


def _experiment_only(spec):
    """``spec`` without what names and post-processes it."""
    return dataclasses.replace(spec, name="", labels={}, extract=None)


class TestOneRunPath:
    def test_churn_scenario_is_scenario(self):
        assert ChurnScenario is Scenario

    @pytest.mark.parametrize(
        "build",
        [
            fig1b_scenario,
            lambda: churn_recovery_race_scenario(nodes=16, seed=1),
            lambda: torus_block_scenario(side=8),
        ],
    )
    def test_scenario_run_is_the_session_on_its_spec(self, build, session_runs):
        scenario = build()
        result = scenario.run(check=False, seed=3, runtime="asyncio-virtual", timeout=5.0)
        ran = dataclasses.replace(
            scenario.spec,
            check=False,
            seed=3,
            runtime=dataclasses.replace(
                scenario.spec.runtime, engine="asyncio-virtual", timeout=5.0
            ),
        )
        assert session_runs == [ran]
        assert result.runtime == "asyncio-virtual"
        assert result.labels["spec_digest"] == ran.digest()

    def test_wrappers_and_families_run_their_preset(self, session_runs):
        run_torus_region_scenario(8, 3, seed=2, jittered_detection=False, check=False)
        run_overlay_repair(
            ring_size=16, arc_start=3, arc_length=3, spread=0.0, check=False, seed=2
        )
        run_task(CHURN_FAMILY_TASKS["family-race"])
        run_task(
            SweepTask(
                "torus-block", params={"side": 8, "origin": [7, 7], "check": False}, seed=4
            )
        )
        assert session_runs == [
            torus_region_spec(8, 3, seed=2, jittered_detection=False, check=False),
            repair_spec(
                ring_size=16, arc_start=3, arc_length=3, seed=2, spread=0.0, check=False
            ),
            churn_scenario_spec("race", nodes=36, seed=1, recover_at=5.0),
            torus_block_spec(side=8, origin=(7, 7), seed=4, check=False),
        ]

    @pytest.mark.parametrize(
        "argv",
        [
            ["--seed", "3", "quickstart", "--side", "5"],
            ["figure", "1a"],
            ["--seed", "3", "figure", "1b"],
            ["figure", "2"],
            ["figure", "3"],
            ["repair", "--ring-size", "16", "--arc-start", "3", "--arc-length", "3"],
            ["churn", "--scenario", "flash", "--nodes", "16", "--seed", "2"],
            ["churn", "--nodes", "16", "--churn-rate", "0.1", "--duration", "20"],
        ],
    )
    def test_cli_runs_the_document_it_emits(self, argv, session_runs):
        assert main(argv, write=lambda line: None) == 0
        assert [spec.digest()[:16] for spec in session_runs] == [_emit_spec_digest(argv)]

    def test_locality_sweeps_run_the_points_the_documents_list(self, session_runs):
        system_size_sweep(sides=(8, 12), region_side=2, seed=1)
        region_size_sweep(region_sides=(1, 2), side=8, seed=1)
        listed = [
            *locality_sweep_spec("l1", sides=(8, 12), region_side=2, seed=1).expand(),
            *locality_sweep_spec("l2", region_sides=(1, 2), side=8, seed=1).expand(),
        ]
        assert list(map(_experiment_only, session_runs)) == list(
            map(_experiment_only, listed)
        )

    def test_a_sweep_row_counts_the_nodes_the_run_started_on(self):
        # A 16-node torus and two joiners: the run ends on 18 nodes, which
        # is what a ``spec``-family row used to report while the
        # ``churn-scenario`` row and ``as_dict()["nodes"]`` said 16.
        document = churn_scenario_spec("flash", nodes=16, seed=4, crowd=2)
        as_spec = run_task(SweepTask("spec", params={"spec": document.to_dict()}, seed=4))
        as_family = run_task(CHURN_FAMILY_TASKS["family-flash"])
        result = ExperimentSession().run(document)
        assert as_spec.digest == as_family.digest == result.digest()
        assert len(result.graph) == 18
        assert as_spec.nodes == as_family.nodes == result.as_dict()["nodes"] == 16

    def test_no_imperative_runner_call_is_left(self):
        call = re.compile(r"\b(run_cliff_edge|run_churn|run_churn_asyncio)\(")
        hits = [
            f"{path}:{number}"
            for path in FORMER_IMPERATIVE_PATH
            for number, line in enumerate((SRC / path).read_text().splitlines(), 1)
            if call.search(line)
        ]
        assert hits == []

    @pytest.mark.parametrize(
        "literal",
        [
            "-block{block_side}@",  # the torus-block name
            "(1, 1), (1, 2), (2, 1), (2, 2)",  # the churn scenarios' crashed block
            '"low": 0.5, "high": 2.0',  # the locality point's detector jitter
        ],
    )
    def test_each_description_is_written_once(self, literal):
        hits = [
            path.relative_to(SRC).as_posix()
            for path in sorted(SRC.rglob("*.py"))
            for _ in range(path.read_text().count(literal))
        ]
        assert hits == ["api/presets.py"]

    def test_no_preset_mirrors_other_code(self):
        assert "mirror" not in (SRC / "api" / "presets.py").read_text().lower()


class TestScriptIsFixedAtBuildTime:
    """A scenario's crash and membership script is drawn by the seed it was
    *built* with; ``run(seed=…)`` seeds the run only."""

    @pytest.mark.parametrize(
        "build, digest",
        [
            (lambda: churn_steady_scenario(nodes=36, seed=5), "929bc14eda74"),
            (lambda: churn_flash_crowd_scenario(nodes=36, seed=5), "ba66922f9d62"),
        ],
    )
    def test_run_seed_does_not_redraw_the_script(self, build, digest, session_runs):
        scenario = build()
        result = scenario.run(seed=7)
        assert result.digest().startswith(digest)
        assert result.digest() == build().run(seed=5).digest()
        # What ran is what the scenario shows.
        assert result.schedule == scenario.schedule
        assert [(e.kind, e.node, e.time) for e in result.membership] == [
            (e.kind, e.node, e.time) for e in scenario.membership
        ]
        assert session_runs[0].seed == 7

    def test_presets_do_not_pin_the_generator_seed(self):
        # The documents the ledger and `repro churn --emit-spec` pin.
        for name in ("steady", "flash"):
            spec = churn_scenario_spec(name, nodes=36, seed=5)
            assert "churn_seed" not in spec.failure.params
            assert "churn_seed" not in spec.membership.params
            assert "join_seed" not in spec.membership.params

    def test_an_empty_flash_crowd_is_still_an_error(self):
        with pytest.raises(MembershipError, match="at least one newcomer"):
            churn_flash_crowd_scenario(crowd=0)
