"""One description per experiment, one way in per substrate: pinned.

Every experiment the repo ships is one spec (:mod:`repro.api.presets`) run
through :class:`~repro.api.ExperimentSession`; the figure runs, sweep
families and classic CLI subcommands are views of that spec, not a second
copy of it.  Below the session there is one entry point per substrate:
``run_cliff_edge`` (simulator), ``run_partitioned`` and ``run_asyncio``
(either clock).

The first part of this file is a battery over the classic entry points —
names, sizes, rows, labels and trace digests — whose values were
**recorded at the commit where those entry points still ran their own
imperative path** (the simulator and churn runners called from
``experiments/`` directly) and live in ``tests/data/one_description.json``.
It is what the refactor onto the spec layer was checked against, and what a
changed preset default trips.  Result ``labels`` are compared without the
keys a run gains by going through the session (``spec_digest``,
``extract``), and records without the one-line ``description`` the scenario
wrapper objects used to carry (the figures' now live in their builders'
docstrings, the churn scenarios' in ``churn_scenario_description``).

The second part replays ``tests/data/removed_entry_points.json``: the
digest, verdict and quiescence of every call a test or example made
through the asyncio wrappers, the churn forwarder and the scenario
wrappers that were folded into ``run_asyncio``, ``run_cliff_edge`` and
plain specs — recorded through the removed calls, replayed through the
surviving ones.

Figure runs use ``str`` node ids, so their trace digests depend on
``PYTHONHASHSEED`` (docs/ARCHITECTURE.md, "Determinism and the hash seed");
they and the replayed calls are pinned in a ``PYTHONHASHSEED=0``
subprocess, everything else in-process.

The last part holds the guards that make the fork impossible again.
"""

from __future__ import annotations

import ast
import asyncio
import dataclasses
import hashlib
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro import CliffEdgeNode, region_crash, run_cliff_edge
from repro.api import (
    ExperimentSession,
    build_topology,
    churn_scenario_spec,
    json_safe,
    load_spec,
    locality_sweep_spec,
    repair_spec,
    torus_block_spec,
    torus_region_spec,
)
from repro.api.presets import torus_block_origins
from repro.churn import (
    MembershipSchedule,
    crash_recover_recrash,
    flash_crowd_joins,
    leave,
    recover,
    steady_state_churn,
)
from repro.churn.membership import MembershipError
from repro.cli import main
from repro.experiments import (
    case_row,
    churn_property_sweep,
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
)
from repro.failures import CrashSchedule, growing_region_crash
from repro.graph import KnowledgeGraph
from repro.graph.generators import grid, ring, torus
from repro.runtime import AsyncRuntime, run_asyncio
from repro.scale import SweepTask, run_task, torus_scale_tasks
from repro.sim import ScriptedFailureDetector

REPO = Path(__file__).resolve().parents[2]

#: Labels a run gains by going through the session; never recorded.
_SESSION_LABELS = ("spec_digest", "extract")


def _own_labels(labels) -> dict:
    return {key: value for key, value in labels.items() if key not in _SESSION_LABELS}


def _fingerprint(value) -> str:
    """A short hash of a script (crash list, membership events): ``repr`` of
    int/float/tuple data is stable across processes and hash seeds."""
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _without_descriptions(record):
    """``record`` without its (nested) ``description`` keys."""
    if isinstance(record, dict):
        return {
            key: _without_descriptions(value)
            for key, value in record.items()
            if key != "description"
        }
    if isinstance(record, list):
        return [_without_descriptions(value) for value in record]
    return record


def _pinned(spec):
    """``spec`` with its churn script drawn from its own seed at any run
    seed: a ``churn_seed``/``join_seed`` param, as the classic builders
    wrote it."""

    def pin(block, key):
        return dataclasses.replace(block, params={**block.params, key: spec.seed})

    if spec.failure.kind == "steady_churn":
        return dataclasses.replace(
            spec,
            failure=pin(spec.failure, "churn_seed"),
            membership=pin(spec.membership, "churn_seed"),
        )
    if spec.membership.kind == "flash_crowd":
        return dataclasses.replace(spec, membership=pin(spec.membership, "join_seed"))
    return spec


def _run(spec, engine=None, timeout=None, **changes):
    """The session's run of ``spec`` with ``changes`` (and the runtime's
    ``engine``/``timeout``, when given)."""
    runtime = spec.runtime
    if engine is not None:
        runtime = dataclasses.replace(runtime, engine=engine)
    if timeout is not None:
        runtime = dataclasses.replace(runtime, timeout=timeout)
    return ExperimentSession().run(dataclasses.replace(spec, runtime=runtime, **changes))


def _spec_record(spec) -> dict:
    graph, schedule, membership = ExperimentSession().resolve(spec)
    record = {
        "name": spec.name,
        "nodes": len(graph),
        "crashes": len(schedule),
        "script": _fingerprint(schedule.crashes),
        "labels": dict(spec.labels),
    }
    if len(membership):
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
    "steady": lambda: churn_scenario_spec("steady", nodes=36, seed=2),
    "steady-args": lambda: churn_scenario_spec(
        "steady", nodes=36, churn_rate=0.1, duration=40.0, seed=5, downtime=8.0
    ),
    "race": lambda: churn_scenario_spec("race", nodes=36, seed=2),
    "race-args": lambda: churn_scenario_spec(
        "race", nodes=36, recover_at=4.0, recrash_at=30.0, seed=1
    ),
    "flash": lambda: churn_scenario_spec("flash", nodes=36, crowd=3, seed=5),
    "flash-default-crowd": lambda: churn_scenario_spec("flash", nodes=16, seed=2),
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
        spec = build()
        record = _spec_record(spec)
        record["crash_list"] = json_safe(ExperimentSession().resolve(spec)[1].crashes)
        detector = spec.runtime.resolve_failure_detector()
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
        result = _run(spec, seed=1)
        run = _result_record(result, digest=False)
        record["run"] = {key: run[key] for key in ("type", "nodes", "holds", "labels")}
        return record

    return observe


def _churn_entry(build, runtime):
    def observe():
        spec = _pinned(build())
        record = _spec_record(spec)
        record["run"] = _result_record(_run(spec, seed=2, engine=runtime))
        return record

    return observe


def _torus_block():
    spec = torus_block_spec(side=12, origin=(11, 11))
    record = _spec_record(spec)
    record["run"] = _result_record(_run(spec, seed=1))
    return record


def _torus_scale():
    family = [
        torus_block_spec(side=12, block_side=3, origin=origin)
        for origin in torus_block_origins(12, 3, 3)
    ]
    tasks = torus_scale_tasks(side=12, scenarios=3, block_side=3, check=False)
    outcome = run_task(tasks[1], seed=5)
    return {
        "family": [_spec_record(spec) for spec in family],
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
        "import dataclasses\n"
        "from repro.api import run_spec\n"
        "from repro.experiments import *\n"
        "for name, build in [('fig1a', fig1a_scenario), ('fig1b', fig1b_scenario),\n"
        "                    ('fig2', fig2_scenario), ('fig3', fig3_scenario)]:\n"
        "    print(name, run_spec(build()).digest()[:16])\n"
        "print('fig1b-delay10-seed3',\n"
        "      run_spec(fig1b_scenario(madrid_detection_delay=10.0).with_seed(3)).digest()[:16])\n"
        "grown = dataclasses.replace(fig3_scenario(growth_at=60.0), check=False)\n"
        "print('fig3-growth60', run_spec(grown).digest()[:16])\n"
    )
    return dict(line.split() for line in _hashseed0(script).splitlines())


def _hashseed0(script: str) -> str:
    """What ``script`` prints in a fresh ``PYTHONHASHSEED=0`` interpreter."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), str(REPO), env.get("PYTHONPATH", "")])
    )
    output = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO,
        check=True,
        timeout=120,
    )
    return output.stdout


RECORDED = json.loads((REPO / "tests" / "data" / "one_description.json").read_text())


class TestRecordedBattery:
    def test_the_record_covers_the_battery(self):
        assert sorted(RECORDED["entries"]) == sorted(ENTRIES)
        assert sorted(RECORDED["emit_spec"]) == sorted(EMIT_SPEC)

    @pytest.mark.parametrize("name", sorted(ENTRIES))
    def test_classic_entry_point_matches_the_record(self, name):
        assert ENTRIES[name]() == _without_descriptions(RECORDED["entries"][name])

    @pytest.mark.parametrize("name", sorted(EMIT_SPEC))
    def test_emit_spec_document_matches_the_record(self, name):
        assert _emit_spec_digest(EMIT_SPEC[name]) == RECORDED["emit_spec"][name]

    def test_figure_digests_under_hashseed_0(self):
        assert _hashseed0_figure_digests() == RECORDED["figure_digests_hashseed0"]


# ---------------------------------------------------------------------------
# The removed entry points, replayed through the surviving calls
# ---------------------------------------------------------------------------
_BLOCK = [(2, 2), (2, 3), (3, 2), (3, 3)]


class _RaisesOnMessage(CliffEdgeNode):
    def on_message(self, ctx, sender, message):
        if self.node_id == (0, 1):
            raise KeyError("boom")
        super().on_message(ctx, sender, message)


class _ExplodingPolicy:
    def neighbours_for(self, node, *, current, base, crashed, rng):
        raise RuntimeError("attachment exploded")


def _grid6():
    graph = grid(6, 6)
    return graph, region_crash(graph, _BLOCK, at=1.0)


def _grid4():
    graph = grid(4, 4)
    return graph, region_crash(graph, [(1, 1)], at=1.0)


def _crash_recover_recrash6():
    graph = grid(6, 6)
    return (
        graph,
        *crash_recover_recrash(graph, _BLOCK, crash_at=1.0, recover_at=40.0, recrash_at=80.0),
    )


def _distant_watcher():
    graph = KnowledgeGraph([("t", "a"), ("a", "A"), ("A", "B")])
    crashes = CrashSchedule((("A", 1.0), ("B", 1.0), ("A", 80.0)), allow_recrash=True)
    return graph, crashes, MembershipSchedule((recover("A", 40.0), recover("B", 40.0)))


def _scripted_detector():
    delays = {}
    for crashed in _BLOCK:
        delays[((2, 1), crashed)] = 8.0
        delays[((1, 2), crashed)] = 8.0
    return ScriptedFailureDetector(delays, default_delay=1.0)


def _growing_ring():
    graph = ring(12, successors=2)
    return graph, growing_region_crash(
        graph, [4, 5], growth_members=[6], initial_at=1.0, growth_at=6.0
    )


def _announced(detector):
    graph = grid(4, 4)
    return run_asyncio(
        graph,
        region_crash(graph, [(1, 1)], at=1.0),
        MembershipSchedule((recover((1, 1), 20.0),)),
        virtual=True,
        detection_delay=0.25,
        time_scale=0.5,
        failure_detector=detector,
    )


def _adversarial():
    graph = grid(3, 3)
    crashes = CrashSchedule((((1, 1), 1.0), ((1, 2), 2.5)))
    membership = MembershipSchedule((recover((1, 1), 9.0),)).merged(
        flash_crowd_joins(graph, count=2, at=3.0, spacing=0.5, seed=7)
    )
    return graph, crashes, membership


def _torus10_block():
    graph = torus(10, 10)
    return graph, region_crash(graph, [(7, 7), (7, 8)], at=2.0)


def _awaited(graph, schedule, timeout):
    async def run():
        runtime = AsyncRuntime(graph)
        runtime.populate(CliffEdgeNode)
        return await runtime.run(schedule, timeout=timeout)

    return asyncio.run(run())


#: Each recorded call shape, as the call that replaces it.  ``wall`` entries
#: ran on the wall-clock loop, whose interleaving (and so digest) the host
#: decides: they record verdict and quiescence only.
SURVIVING_CALLS = {
    "asyncio/grid6-block-timeout30": lambda: run_asyncio(*_grid6(), timeout=30.0),
    "asyncio/grid6-block-timeout20": lambda: run_asyncio(*_grid6(), timeout=20.0),
    "asyncio/ring12-growing": lambda: run_asyncio(*_growing_ring(), timeout=30.0),
    "asyncio/handler-error": lambda: run_asyncio(*_grid4(), node_factory=_RaisesOnMessage),
    "asyncio/awaited-grid4": lambda: _awaited(*_grid4(), timeout=20.0),
    "virtual/grid6-scripted-detector": lambda: run_asyncio(
        *_grid6(), virtual=True, failure_detector=_scripted_detector()
    ),
    "virtual/grid5-slow-detector": lambda: run_asyncio(
        grid(5, 5),
        region_crash(grid(5, 5), [(2, 2), (2, 3)], at=1.0),
        virtual=True,
        detection_delay=10.0,
        time_scale=1.0,
        timeout=120.0,
    ),
    "virtual/grid6-block-timeout20": lambda: run_asyncio(*_grid6(), virtual=True, timeout=20.0),
    "virtual/handler-error": lambda: run_asyncio(
        *_grid4(), virtual=True, node_factory=_RaisesOnMessage
    ),
    "churn-sim/grid6-crash-recover-recrash": lambda: run_cliff_edge(
        *_crash_recover_recrash6(), check=True
    ),
    "churn-sim/grid6-leaves": lambda: run_cliff_edge(
        grid(6, 6),
        region_crash(grid(6, 6), [(2, 2), (2, 3)], at=1.0),
        MembershipSchedule((leave((1, 2), 2.5), leave((5, 5), 4.0))),
        check=True,
    ),
    "churn-sim/grid6-empty-membership": lambda: run_cliff_edge(
        *_grid6(), MembershipSchedule(), check=True
    ),
    "churn-sim/distant-watcher": lambda: run_cliff_edge(*_distant_watcher(), check=True),
    "churn-sim/torus6-crash-recover-recrash-seed3": lambda: run_cliff_edge(
        torus(6, 6),
        *crash_recover_recrash(
            torus(6, 6), [(2, 2)], crash_at=1.0, recover_at=10.0, recrash_at=25.0
        ),
        seed=3,
        check=True,
    ),
    "churn-sim/torus8-steady-seed3": lambda: run_cliff_edge(
        torus(8, 8),
        *steady_state_churn(torus(8, 8), churn_rate=0.05, duration=40.0, seed=3),
        seed=3,
        check=True,
    ),
    "churn-sim/torus10-race-seed4": lambda: run_cliff_edge(
        torus(10, 10),
        *crash_recover_recrash(
            torus(10, 10), [(1, 1), (1, 2)], crash_at=1.0, recover_at=6.0, recrash_at=14.0
        ),
        seed=4,
    ),
    "churn-sim/torus10-flash-seed9": lambda: run_cliff_edge(
        *_torus10_block(),
        flash_crowd_joins(torus(10, 10), count=5, at=3.0, spacing=0.8, seed=9),
        seed=9,
    ),
    "churn-sim/torus10-leaves-seed5": lambda: run_cliff_edge(
        *_torus10_block(),
        MembershipSchedule((leave((0, 5), 2.5), leave((9, 1), 3.1))),
        seed=5,
    ),
    "churn-sim/torus8-tie-order-empty": lambda: run_cliff_edge(
        torus(8, 8), CrashSchedule((((1, 3), 1.0), ((1, 1), 1.0))), MembershipSchedule()
    ),
    "churn-sim/grid3-adversarial-seed2": lambda: run_cliff_edge(
        *_adversarial(), seed=2, check=True
    ),
    "churn-virtual/grid6-crash-recover-recrash": lambda: run_asyncio(
        *_crash_recover_recrash6(), virtual=True, check=True
    ),
    "churn-virtual/distant-watcher": lambda: run_asyncio(
        *_distant_watcher(), virtual=True, check=True
    ),
    "churn-virtual/announce-policy": lambda: _announced(
        ScriptedFailureDetector({((1, 2), (1, 1)): 7.0}, default_delay=1.0)
    ),
    "churn-virtual/announce-flat": lambda: _announced(None),
    "churn-virtual/race16-seed9": lambda: run_asyncio(
        *ExperimentSession().resolve(churn_scenario_spec("race", nodes=16, seed=9)),
        virtual=True,
        seed=9,
        check=True,
    ),
    "churn-asyncio/grid6-crash-recover-recrash": lambda: run_asyncio(
        *_crash_recover_recrash6(), check=True
    ),
    "churn-asyncio/grid3-adversarial-seed1": lambda: run_asyncio(
        *_adversarial(), seed=1, check=True, timeout=60.0
    ),
    "churn-asyncio/exploding-attachment": lambda: run_asyncio(
        grid(4, 4),
        CrashSchedule((((1, 1), 1.0),)),
        MembershipSchedule((recover((1, 1), 5.0, _ExplodingPolicy()),)),
    ),
    "churn-asyncio/unvalidated-membership": lambda: run_asyncio(
        grid(4, 4), CrashSchedule(), MembershipSchedule((recover((1, 1), 5.0),))
    ),
    "spec/steady64-seed1": lambda: _run(churn_scenario_spec("steady", seed=1)),
    "spec/race64-seed1": lambda: _run(churn_scenario_spec("race", seed=1)),
    "spec/flash64-crowd6-seed2": lambda: _run(churn_scenario_spec("flash", crowd=6, seed=2)),
    "spec/race16-seed5-virtual": lambda: _run(
        churn_scenario_spec("race", nodes=16, seed=5), engine="asyncio-virtual", seed=0
    ),
    "spec/steady36-seed2": lambda: _run(churn_scenario_spec("steady", nodes=36, seed=2)),
    "spec/race36-seed2": lambda: _run(churn_scenario_spec("race", nodes=36, seed=2)),
    "spec/flash36-seed2": lambda: _run(churn_scenario_spec("flash", nodes=36, seed=2)),
    "spec/steady36-script5-run7": lambda: _run(
        _pinned(churn_scenario_spec("steady", nodes=36, seed=5)), seed=7
    ),
    "spec/flash36-script5-run7": lambda: _run(
        _pinned(churn_scenario_spec("flash", nodes=36, seed=5)), seed=7
    ),
    **{
        name: (
            lambda spec=spec: _run(
                spec, engine="asyncio-virtual", timeout=5.0, check=False, seed=3
            )
        )
        for name, spec in (
            ("spec/fig1b-virtual-seed3", fig1b_scenario()),
            ("spec/race16-seed1-virtual-seed3", churn_scenario_spec("race", nodes=16, seed=1)),
            ("spec/torus8-block-virtual-seed3", torus_block_spec(side=8)),
        )
    },
}
WALL = {name for name in SURVIVING_CALLS if name.startswith(("asyncio/", "churn-asyncio/"))}


def _replay_record(name: str) -> dict:
    """What the recorder kept of one call: the error it raised, or its
    verdict (checked here when the call did not ask), quiescence, shape and
    — off the wall clock — digest."""
    try:
        result = SURVIVING_CALLS[name]()
    except Exception as exc:
        return {"raises": f"{type(exc).__name__}: {exc}"}
    report = result.specification or result.check_specification(
        include_liveness=result.quiescent
    )
    record = {
        "holds": report.holds,
        "quiescent": result.quiescent,
        "runtime": result.runtime,
        "type": result.as_dict()["type"],
    }
    if name not in WALL and "raises" not in REMOVED[name]:
        record["digest"] = result.digest()[:16]
    return record


def replay_removed_entry_points() -> dict:
    """Every recorded call shape, replayed (run in a ``PYTHONHASHSEED=0``
    child: the figure and ``str``-id scripts are hash-seed dependent)."""
    replayed = {name: _replay_record(name) for name in SURVIVING_CALLS}
    replayed["family/torus64-4-nodes"] = {
        "nodes": [
            len(build_topology(torus_block_spec(side=64, origin=origin).topology))
            for origin in torus_block_origins(64, 4)
        ]
    }
    return replayed


REMOVED = json.loads((REPO / "tests" / "data" / "removed_entry_points.json").read_text())


class TestRemovedEntryPoints:
    def test_every_recorded_call_shape_is_replayed(self):
        assert sorted(REMOVED) == sorted([*SURVIVING_CALLS, "family/torus64-4-nodes"])

    def test_the_surviving_calls_reproduce_the_record(self):
        script = (
            "import json\n"
            "from tests.unit.test_one_description import replay_removed_entry_points\n"
            "print(json.dumps(replay_removed_entry_points(), sort_keys=True))\n"
        )
        replayed = json.loads(_hashseed0(script))
        mismatched = {
            name: (replayed[name], recorded)
            for name, recorded in REMOVED.items()
            if replayed[name] != recorded
        }
        assert mismatched == {}


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


def _constructions(tree: ast.AST, classes: frozenset) -> list[tuple[str, str]]:
    """``(enclosing qualified name, class)`` of every call of one of
    ``classes`` in a module's syntax tree."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, [*scope, child.name])
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in classes:
                    found.append((".".join(scope), name))
            visit(child, scope)

    visit(tree, [])
    return found


def _facade_exports() -> set[str]:
    """Every name a ``repro`` package's table re-exports."""
    exported = set()
    for init in sorted(SRC.rglob("__init__.py")):
        package = ".".join(("repro", *init.parent.relative_to(SRC).parts))
        exported.update(getattr(importlib.import_module(package), "__all__", ()))
    return exported


class TestOneRunPath:
    @pytest.mark.parametrize("engine", ["asyncio", "asyncio-virtual"])
    def test_both_asyncio_engines_run_through_run_asyncio(self, engine, monkeypatch):
        import repro.runtime.async_runtime as async_runtime

        virtual = []
        real = async_runtime.run_asyncio

        def spy(*args, **kwargs):
            virtual.append(kwargs["virtual"])
            return real(*args, **kwargs)

        monkeypatch.setattr(async_runtime, "run_asyncio", spy)
        spec = torus_block_spec(side=8, seed=3, check=False).with_engine(engine)
        result = ExperimentSession().run(spec)
        assert virtual == [engine == "asyncio-virtual"]
        assert result.runtime == engine
        assert result.labels["spec_digest"] == spec.digest()

    def test_only_run_asyncio_builds_an_asyncio_runtime(self):
        # VirtualRuntime wraps the AsyncRuntime it drives; nothing else in
        # src/ builds either, so there is one way onto the asyncio substrate.
        classes = frozenset({"AsyncRuntime", "VirtualRuntime"})
        built = [
            (path.relative_to(SRC).as_posix(), scope, name)
            for path in sorted(SRC.rglob("*.py"))
            for scope, name in _constructions(ast.parse(path.read_text()), classes)
        ]
        assert sorted(built) == [
            ("runtime/async_runtime.py", "run_asyncio", "AsyncRuntime"),
            ("runtime/async_runtime.py", "run_asyncio", "VirtualRuntime"),
            ("vtime/runtime.py", "VirtualRuntime.__init__", "AsyncRuntime"),
        ]

    def test_no_facade_exports_a_second_way_in(self):
        """One runner per substrate, one result class, no wrapper around a
        spec: no package table lists another substrate runner, a second
        run-result name, a scenario object, a scenario family or a mixin."""
        exported = _facade_exports()
        runners = {
            name
            for name in exported
            if re.fullmatch(r"run_(cliff|churn|async|virtual|partition|sim).*", name)
        }
        assert runners == {"run_asyncio", "run_cliff_edge", "run_partitioned"}
        assert {name for name in exported if name.endswith("RunResult")} == {
            "PartitionedRunResult",
            "RunResult",
        }
        assert {name for name in exported if "scenario" in name.lower()} == {
            "churn_scenario_description",
            "churn_scenario_spec",
            "fig1a_scenario",
            "fig1b_scenario",
            "fig2_scenario",
            "fig3_scenario",
            "run_torus_region_scenario",
        }
        # The torus experiments are spec builders and the sweep's tasks.
        assert {name for name in exported if name.startswith("torus_")} == {
            "torus_block_spec",
            "torus_region_spec",
            "torus_scale_tasks",
            "torus_sweep_spec",
        }
        assert not {name for name in exported if name.endswith("Mixin")}
        # What the perf ledger wraps, and nothing more (ROADMAP item 5).
        import repro.churn.runner as churn_runner

        assert {name for name in vars(churn_runner) if not name.startswith("_")} == {
            "check_churn_all",
            "collect_metrics",
        }

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
        call = re.compile(r"\b(run_cliff_edge|run_asyncio|run_partitioned)\(")
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
    """A churn script pinned in the spec (``churn_seed`` / ``join_seed``) is
    drawn by that seed, fixed when the spec is built; the spec's ``seed``
    then seeds the run only.  An unpinned preset draws it from the run seed."""

    @pytest.mark.parametrize(
        "build, digest",
        [
            (lambda: _pinned(churn_scenario_spec("steady", nodes=36, seed=5)), "929bc14eda74"),
            (lambda: _pinned(churn_scenario_spec("flash", nodes=36, seed=5)), "ba66922f9d62"),
        ],
    )
    def test_run_seed_does_not_redraw_the_script(self, build, digest, session_runs):
        spec = build()
        result = _run(spec, seed=7)
        assert result.digest().startswith(digest)
        assert result.digest() == _run(spec, seed=5).digest()
        # What ran is what the spec resolves to at its own seed.
        _, schedule, membership = ExperimentSession().resolve(spec)
        assert result.schedule == schedule
        assert [(e.kind, e.node, e.time) for e in result.membership] == [
            (e.kind, e.node, e.time) for e in membership
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
            churn_scenario_spec("flash", crowd=0)
