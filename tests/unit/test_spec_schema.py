"""One schema: the spec layer, recorded before it was declared once.

The dataclass fields *are* the document schema and a kind's builder
signature *is* the schema of its ``params`` (docs/ARCHITECTURE.md, "The
schema").  The first half of this file is what that refactor was checked
against; its values were **recorded at the commit where every spec class
still had a hand-written** ``to_dict``/``from_dict`` **pair and every kind an**
``if kind == …`` **branch**, and live in ``tests/data/spec_corpus.json``:

* a *corpus* of documents — every preset, the golden spec, the README's
  worked ``SPEC.json`` and every document the perf ledger generates — pinned
  by the **insertion-ordered** bytes of ``json.dumps(spec.to_dict())`` (the
  ledger counts ``scale.sweep.task_pickle_bytes`` exactly, and pickle memo
  indices make that order-sensitive; the digest sorts and would not notice),
  by ``digest()``, and per sweep by the task-pickle length and the expanded
  points;
* a *battery* of small runs — every failure, membership, latency and
  detector kind once with only its required params and once with every
  param set — pinned by run digest, spec digest and CD1–CD7 verdict: the
  ``-min`` entries are what holds the spec-level defaults, which are not the
  builders' (``cascade`` runs at ``spacing=2.0``, ``cascade_crash`` defaults
  to 1.0);
* the message of every malformed input that already raised ``SpecError``.

The second half is what failed at that commit — the inputs that constructed
and ran something other than what they said — and the guards that keep the
schema declared once.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
import pickle
import re
import sys
from pathlib import Path

import pytest

from repro.api import (
    FAULT_PRESETS,
    ExperimentSession,
    ExperimentSpec,
    FailureSpec,
    MembershipSpec,
    RuntimeSpec,
    SpecError,
    SweepSpec,
    TopologySpec,
    churn_property_case_spec,
    churn_scenario_spec,
    fault_sweep_spec,
    figure_spec,
    load_spec,
    locality_sweep_spec,
    property_case_spec,
    property_sweep_spec,
    quickstart_spec,
    repair_spec,
    torus_block_spec,
    torus_sweep_spec,
)

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src" / "repro"
RECORDED = json.loads((REPO / "tests" / "data" / "spec_corpus.json").read_text())


def _sha(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# The corpus: documents
# ---------------------------------------------------------------------------
def _readme_spec():
    block = re.search(r"```json\n(\{.*?\"spec\".*?)```", (REPO / "README.md").read_text(), re.DOTALL)
    return load_spec(block.group(1))


def _ledger_documents() -> dict:
    """Every document ``benchmarks/ledger/workloads.generate`` emits."""
    ledger = str(REPO / "benchmarks" / "ledger")
    sys.path.insert(0, ledger)
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.remove(ledger)
        sys.modules.pop("workloads", None)
    documents = {}
    for workload in workloads._GENERATORS:
        for seed in (0, 1, 7):
            for size in ("smoke", "full"):
                plan = workloads.generate(workload, seed, size)
                for key in ("document", "reference_document", "twin_document", "warmup_document"):
                    if key in plan:
                        text = plan[key] if isinstance(plan[key], str) else json.dumps(plan[key])
                        documents[f"ledger:{workload}:{seed}:{size}:{key}"] = (
                            lambda text=text: load_spec(text)
                        )
    return documents


CORPUS = {
    **{f"figure-{which}": (lambda which=which: figure_spec(which, seed=2)) for which in ("1a", "1b", "2", "3")},
    "quickstart": quickstart_spec,
    "quickstart-args": lambda: quickstart_spec(side=8, block=3, seed=5),
    **{
        f"churn-{scenario}@{engine}": (
            lambda scenario=scenario, engine=engine: churn_scenario_spec(
                scenario, nodes=36, seed=4, runtime=engine
            )
        )
        for scenario in ("steady", "race", "flash")
        for engine in RuntimeSpec.ENGINES
    },
    "churn-steady-shaped": lambda: churn_scenario_spec(
        "steady", nodes=256, churn_rate=0.1, duration=40.0, seed=1, downtime=8.0
    ),
    "repair": repair_spec,
    "repair-args": lambda: repair_spec(ring_size=16, arc_start=3, arc_length=3, seed=2, spread=0.0, check=False),
    "locality-l1": lambda: locality_sweep_spec("l1"),
    "locality-l2": lambda: locality_sweep_spec("l2", seed=2),
    "locality-l1-full": lambda: locality_sweep_spec("l1", sides=(8, 12, 16, 24, 32, 48, 64)),
    "property-sweep": lambda: property_sweep_spec(cases=4),
    "property-sweep-churn": lambda: property_sweep_spec(cases=3, workers=2, churn=True, base_seed=7),
    "fault-sweep-loss": fault_sweep_spec,
    "fault-sweep-reorder": lambda: fault_sweep_spec("reorder", rates=(0.5, 1.0), seeds=(4,), workers=2),
    "torus-block": lambda: torus_block_spec(side=12, origin=(11, 11), seed=1),
    "torus-sweep": lambda: torus_sweep_spec(side=12, scenarios=3, block_side=3, check=False),
    **{
        f"quickstart-faults-{name}": (lambda name=name: quickstart_spec().with_faults(FAULT_PRESETS[name]))
        for name in sorted(FAULT_PRESETS)
    },
    "quickstart-partitions-digest": lambda: quickstart_spec().with_partitions(4).with_collection("digest"),
    "golden": lambda: load_spec((REPO / "tests" / "data" / "golden_spec.json").read_text()),
    "readme": _readme_spec,
    "property-case-3": lambda: property_case_spec(3),
    "churn-property-case-530": lambda: churn_property_case_spec(530),
    **_ledger_documents(),
}


def document_record(spec) -> dict:
    """What a document is pinned by (see the module docstring)."""
    record = {"bytes": _sha(spec.to_dict()), "digest": spec.digest()[:16]}
    if isinstance(spec, SweepSpec):
        record["task_pickle_bytes"] = len(pickle.dumps(spec.tasks()))
        if spec.experiment is not None:
            record["points"] = _sha([point.to_dict() for point in spec.expand()])
        else:
            record["points"] = _sha(spec.expand_family_params())
    return record


# ---------------------------------------------------------------------------
# The battery: one small run per kind, minimal and fully spelled out
# ---------------------------------------------------------------------------
BLOCK = [[1, 1], [1, 2], [2, 1], [2, 2]]


def _run_spec(failure=None, membership=None, **runtime) -> ExperimentSpec:
    return ExperimentSpec(
        topology=TopologySpec("torus", {"width": 8, "height": 8}),
        failure=failure if failure is not None else FailureSpec("region", {"members": BLOCK}),
        membership=membership if membership is not None else MembershipSpec(),
        runtime=RuntimeSpec(**runtime),
        seed=3,
    )


def _coupled(kind: str, params: dict) -> ExperimentSpec:
    return _run_spec(FailureSpec(kind, params), MembershipSpec(kind, params))


FAILURES = {
    "none": {},
    "explicit-min": {},
    "explicit-full": {"crashes": [[[1, 1], 1.0], [[1, 2], 2.5]], "allow_recrash": True},
    "region-min": {"members": BLOCK},
    "region-full": {"members": BLOCK, "at": 2.0, "spread": 1.5},
    "multi_region-min": {"regions": [BLOCK, [[5, 5], [5, 6]]]},
    "multi_region-full": {"regions": [BLOCK, [[5, 5], [5, 6]]], "at": 2.0, "stagger": 0.5},
    "growing_region-min": {"initial": [[1, 1], [1, 2]], "growth": [[2, 1], [2, 2]]},
    "growing_region-full": {
        "initial": [[1, 1], [1, 2]],
        "growth": [[2, 1], [2, 2]],
        "initial_at": 2.0,
        "growth_at": 6.0,
        "growth_spacing": 1.0,
    },
    "cascade-min": {"start": [2, 2], "size": 4},
    "cascade-full": {"start": [2, 2], "size": 4, "start_at": 2.0, "spacing": 0.5},
    "random_region-min": {"size": 4},
    "random_region-full": {"size": 4, "at": 2.0, "spread": 1.0, "region_seed": 11},
}

COUPLED = {
    "steady_churn-min": {},
    "steady_churn-full": {"churn_rate": 0.1, "duration": 30.0, "downtime": 8.0, "churn_seed": 5},
    "race-min": {"members": BLOCK},
    "race-full": {"members": BLOCK, "crash_at": 2.0, "recover_at": 5.0, "recrash_at": 40.0},
}

MEMBERSHIPS = {
    "recoveries-min": {},
    "recoveries-full": {"events": [[[1, 1], 30.0], [[1, 2], 31.0]]},
    "leaves-min": {},
    "leaves-full": {"events": [[[5, 5], 4.0]]},
    "flash_crowd-min": {},
    "flash_crowd-count": {"count": 2},
    "flash_crowd-full": {"count": 3, "at": 2.0, "spacing": 0.5, "join_seed": 9},
}

#: ``explicit`` membership scripts (named apart from the ``explicit``
#: failure kind's entries); rows run in the order written.
SCRIPTS = {
    "script-empty": {},
    "script-full": {
        "rows": [
            ["leave", [5, 5], 4.0],
            ["join", [9, 9], 6.0, 2, [4, 4]],
            ["recover", [1, 1], 30.0],
        ]
    },
}

RUNTIMES = {
    "latency-default-kind": {"latency": {"delay": 2.0}},
    "constant-min": {"latency": {"kind": "constant"}},
    "constant-full": {"latency": {"kind": "constant", "delay": 0.5}},
    "uniform-min": {"latency": {"kind": "uniform"}},
    "uniform-full": {"latency": {"kind": "uniform", "low": 0.2, "high": 0.9}},
    "exponential-min": {"latency": {"kind": "exponential"}},
    "exponential-full": {"latency": {"kind": "exponential", "base": 0.2, "mean": 0.5}},
    "detector-default-kind": {"failure_detector": {"detection_delay": 2.5}},
    "perfect-min": {"failure_detector": {"kind": "perfect"}},
    "perfect-full": {"failure_detector": {"kind": "perfect", "detection_delay": 0.25}},
    "jittered-min": {"failure_detector": {"kind": "jittered"}},
    "jittered-full": {"failure_detector": {"kind": "jittered", "low": 0.2, "high": 4.0}},
    "scripted-min": {"failure_detector": {"kind": "scripted"}},
    "scripted-full": {
        "failure_detector": {
            "kind": "scripted",
            "delays": [[[0, 1], [1, 1], 8.0], [[3, 2], [2, 2], 5.0]],
            "default_delay": 0.5,
        }
    },
    "faults-all-knobs": {
        "faults": {
            "loss": 0.01,
            "duplication": 0.2,
            "copies": 3,
            "reorder": 0.5,
            "reorder_rate": 0.5,
            "seed": 4,
        }
    },
    "unbatched": {"batched": False},
    "until-30": {"until": 30},
}


def _kind(name: str) -> str:
    return name.rsplit("-", 1)[0] if name != "none" else name


BATTERY = {
    **{name: (lambda n=name, p=params: _run_spec(FailureSpec(_kind(n), p))) for name, params in FAILURES.items()},
    **{name: (lambda n=name, p=params: _coupled(_kind(n), p)) for name, params in COUPLED.items()},
    **{
        name: (lambda n=name, p=params: _run_spec(membership=MembershipSpec(_kind(n), p)))
        for name, params in MEMBERSHIPS.items()
    },
    **{
        name: (lambda p=params: _run_spec(membership=MembershipSpec("explicit", p)))
        for name, params in SCRIPTS.items()
    },
    **{name: (lambda r=runtime: _run_spec(**r)) for name, runtime in RUNTIMES.items()},
}


def run_record(spec: ExperimentSpec) -> dict:
    result = ExperimentSession().run(spec)
    return {
        "run": result.digest()[:16],
        "spec": spec.digest()[:16],
        "holds": result.specification.holds,
        "quiescent": result.quiescent,
    }


# ---------------------------------------------------------------------------
# Malformed inputs that have always raised
# ---------------------------------------------------------------------------
def _document(**overrides) -> dict:
    return dict(quickstart_spec().to_dict(), **overrides)


def _sweep(**overrides) -> SweepSpec:
    return SweepSpec(experiment=quickstart_spec(), **overrides)


def _membership(kind: str, **params):
    """Construct a membership block: its rows are checked there."""
    return MembershipSpec(kind, params)


def _crashes(*rows):
    return FailureSpec("explicit", {"crashes": rows})


MALFORMED = {
    "failure-kind": lambda: FailureSpec("meteor-strike"),
    "membership-kind": lambda: MembershipSpec("teleport"),
    "engine": lambda: RuntimeSpec(engine="quantum"),
    "topology-empty-kind": lambda: TopologySpec(""),
    "topology-kind": lambda: TopologySpec("klein-bottle").build_uncached(),
    "topology-param": lambda: TopologySpec("grid", {"sides": 6}).build_uncached(),
    "sweep-no-mode": lambda: SweepSpec(),
    "sweep-both-modes": lambda: _sweep(family="property"),
    "sweep-family-seed-axis": lambda: SweepSpec(family="property", seeds=(0,), grid={"seed": (1, 2)}),
    "sweep-family-unknown": lambda: load_spec(json.dumps({"spec": "sweep", "family": "nope", "seeds": [0]})),
    "sweep-ambiguous-seeds": lambda: _sweep(seeds=(0,), grid={"seed": (1, 2)}),
    "sweep-scalar-axis": lambda: _sweep(grid={"topology.params.width": 8}),
    "sweep-empty-axis": lambda: _sweep(grid={"seed": ()}),
    "sweep-family-expand": lambda: SweepSpec(family="property", seeds=(0,)).expand(),
    "sweep-experiment-family-params": lambda: _sweep().expand_family_params(),
    "version": lambda: ExperimentSpec.from_dict(_document(version=99)),
    "tag": lambda: ExperimentSpec.from_dict(_document(spec="sweep")),
    "sweep-tag": lambda: SweepSpec.from_dict(_document()),
    "runtime-key": lambda: RuntimeSpec.from_dict({"max_event": 1000}),
    "experiment-key": lambda: ExperimentSpec.from_dict(_document(aribtration=False)),
    "failure-key": lambda: FailureSpec.from_dict({"kind": "region", "member": []}),
    "membership-key": lambda: MembershipSpec.from_dict({"kind": "none", "parms": {}}),
    "topology-key": lambda: TopologySpec.from_dict({"kind": "grid", "param": {}}),
    "sweep-key": lambda: SweepSpec.from_dict(dict(_sweep().to_dict(), worker=4)),
    "topology-needs-kind": lambda: TopologySpec.from_dict({"params": {}}),
    "experiment-needs-topology": lambda: load_spec(json.dumps({"spec": "experiment"})),
    "experiment-not-a-mapping": lambda: ExperimentSpec.from_dict([]),
    "failure-not-a-mapping": lambda: load_spec(json.dumps(_document(failure="region"))),
    "runtime-not-a-mapping": lambda: load_spec(json.dumps(_document(runtime=None))),
    "untagged": lambda: load_spec(json.dumps({"hello": "world"})),
    "not-json": lambda: load_spec("not json at all"),
    "json-list": lambda: load_spec("[1, 2]"),
    "partitions-zero": lambda: RuntimeSpec(partitions=0),
    "partitions-float": lambda: RuntimeSpec(partitions=1.5),
    "partitions-bool": lambda: RuntimeSpec(partitions=True),
    "partitions-asyncio": lambda: RuntimeSpec(partitions=2, engine="asyncio"),
    "collection": lambda: RuntimeSpec(collection="video"),
    "collection-asyncio": lambda: RuntimeSpec(collection="digest", engine="asyncio-virtual"),
    "faults-range": lambda: RuntimeSpec(faults={"loss": 1.0}),
    "faults-copies-range": lambda: RuntimeSpec(faults={"duplication": 0.5, "copies": 1}),
    "faults-seed": lambda: RuntimeSpec(faults={"loss": 0.1, "seed": "x"}),
    "faults-orphan": lambda: RuntimeSpec(faults={"copies": 3, "reorder_rate": 0.5}),
    "faults-empty": lambda: RuntimeSpec(faults={"seed": 1}),
    "faults-key": lambda: RuntimeSpec(faults={"lss": 0.1}),
    "faults-not-a-mapping": lambda: RuntimeSpec(faults="loss=0.1"),
    "latency-kind": lambda: RuntimeSpec(latency={"kind": "warp"}),
    "latency-range": lambda: RuntimeSpec(latency={"kind": "constant", "delay": -1.0}),
    "latency-param": lambda: RuntimeSpec(latency={"kind": "constant", "dely": 1.0}),
    "latency-not-a-mapping": lambda: RuntimeSpec(latency=3.5),
    "detector-kind": lambda: RuntimeSpec(failure_detector={"kind": "nope"}),
    "detector-range": lambda: RuntimeSpec(failure_detector={"kind": "jittered", "low": 3.0, "high": 1.0}),
    "detector-param": lambda: RuntimeSpec(failure_detector={"kind": "jittered", "lo": 1}),
    "detector-script": lambda: RuntimeSpec(failure_detector={"kind": "scripted", "delays": [[1, 2]]}),
    "detector-not-a-mapping": lambda: RuntimeSpec(failure_detector="jittered"),
    "extract-not-a-mapping": lambda: ExperimentSpec.from_dict(_document(extract="locality")),
    "extract-key": lambda: ExperimentSpec.from_dict(_document(extract={"kind": "locality", "parms": {}})),
    "extract-needs-kind": lambda: ExperimentSpec.from_dict(_document(extract={"params": {}})),
    "membership-row-kind": lambda: _membership("explicit", rows=[["teleport", [1, 1], 3.0]]),
    "membership-row-join-short": lambda: _membership("explicit", rows=[["join", "joiner-0", 3.0]]),
    "membership-row-time-str": lambda: _membership("explicit", rows=[["leave", [1, 1], "3"]]),
    "recoveries-row-time-str": lambda: _membership("recoveries", events=[[[1, 1], "3"]]),
    # Rows used to be checked only when the run resolved them, and a crash
    # row's time was float()-coerced: "3" ran at 3.0, True at 1.0.
    "crash-row-time-str": lambda: _crashes([[1, 1], "3"]),
    "crash-row-time-bool": lambda: _crashes([[1, 1], 2.0], [[2, 2], True]),
    "crash-row-short": lambda: _crashes([[1, 1]]),
    "membership-row-kind-document": lambda: load_spec(
        json.dumps(_document(membership={"kind": "explicit", "params": {"rows": [["teleport", [1, 1], 3.0]]}}))
    ),
    "membership-rows-not-a-list": lambda: _membership("explicit", rows="recover"),
}

#: The messages that were reworded when the hand-written checks became the
#: schema's (everything else reads exactly as recorded): one format per
#: failure — ``bad {what} spec for kind {kind!r}: {reason}`` with the reason
#: ``inspect.Signature.bind`` gives, ``{Class}.{field} must be {type}``, and
#: every ``faults`` complaint under the ``bad faults spec:`` prefix the range
#: errors already had.
_TOPOLOGIES = (
    "chord, communities, complete, edges, fig1, fig2, fig3, geometric, grid, "
    "line, ring, scalefree, smallworld, star, torus"
)
_ORPHANS = (
    "faults keys 'copies', 'reorder_rate' need their base knob "
    "('copies' needs 'duplication', 'reorder_rate' needs 'reorder')"
)
REWORDED = {
    "detector-param": "bad failure-detector spec for kind 'jittered': got an unexpected keyword argument 'lo'",
    "latency-param": "bad latency spec for kind 'constant': got an unexpected keyword argument 'dely'",
    "latency-range": "bad latency spec for kind 'constant': latency must be positive",
    "latency-kind": "unknown latency kind 'warp'; known: constant, uniform, exponential",
    "topology-param": "bad topology spec for kind 'grid': missing a required argument: 'width'",
    "topology-empty-kind": f"unknown topology kind ''; known: {_TOPOLOGIES}",
    "partitions-bool": "RuntimeSpec.partitions must be int, got True",
    "partitions-float": "RuntimeSpec.partitions must be int, got 1.5",
    "faults-empty": "bad faults spec: faults block enables no fault: set 'loss', 'duplication' and/or 'reorder'",
    "faults-key": "bad faults spec: unknown faults keys 'lss'; known: copies, duplication, loss, reorder, reorder_rate, seed",
    "faults-orphan": f"bad faults spec: {_ORPHANS}",
    "faults-seed": "bad faults spec: faults 'seed' must be an integer, got 'x'",
    # The one kind added since: ``explicit`` membership scripts.
    "membership-kind": (
        "unknown membership kind 'teleport'; known: none, recoveries, leaves, "
        "flash_crowd, steady_churn, race, explicit"
    ),
}


def malformed_message(build) -> str:
    with pytest.raises(SpecError) as excinfo:
        build()
    return str(excinfo.value)


class TestRecordedCorpus:
    def test_the_record_covers_the_corpus(self):
        assert sorted(RECORDED["documents"]) == sorted(CORPUS)
        assert sorted(RECORDED["runs"]) == sorted(BATTERY)
        assert sorted(RECORDED["malformed"]) == sorted(MALFORMED)
        assert set(REWORDED) <= set(MALFORMED)

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_document_matches_the_record(self, name):
        spec = CORPUS[name]()
        assert document_record(spec) == RECORDED["documents"][name]
        assert load_spec(spec.to_json()) == spec
        assert _sha(load_spec(json.dumps(spec.to_dict())).to_dict()) == RECORDED["documents"][name]["bytes"]

    @pytest.mark.parametrize("name", sorted(BATTERY))
    def test_run_matches_the_record(self, name):
        assert run_record(BATTERY[name]()) == RECORDED["runs"][name]

    def test_the_battery_pins_the_spec_level_defaults(self):
        runs = RECORDED["runs"]
        # An empty crowd is the static run, not flash_crowd_joins' default 8.
        assert runs["flash_crowd-min"]["run"] == runs["region-min"]["run"]
        assert runs["flash_crowd-count"]["run"] != runs["region-min"]["run"]
        assert runs["constant-min"]["run"] == runs["region-min"]["run"]

    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_malformed_input_still_raises(self, name):
        expected = REWORDED.get(name, RECORDED["malformed"][name])
        assert malformed_message(MALFORMED[name]) == expected


# ---------------------------------------------------------------------------
# What failed at that commit: refused where written
# ---------------------------------------------------------------------------
#: Inputs that used to construct — and then ran the *default* scenario, died
#: in a worker with a ``KeyError``, or (``check: "no"``) did the opposite of
#: what they said — with what the refusal must name.
LAX = {
    "failure-param-typo": (
        lambda: FailureSpec("region", {"members": BLOCK, "spred": 5.0}),
        "bad failure spec for kind 'region': got an unexpected keyword argument 'spred'",
    ),
    "failure-param-missing": (
        lambda: FailureSpec("region"),
        "bad failure spec for kind 'region': missing a required argument: 'members'",
    ),
    "failure-none-takes-nothing": (lambda: FailureSpec("none", {"members": BLOCK}), "'members'"),
    "membership-param-typo": (
        lambda: MembershipSpec("flash_crowd", {"count": 2, "spacng": 9}),
        "bad membership spec for kind 'flash_crowd': got an unexpected keyword argument 'spacng'",
    ),
    "coupled-param-missing": (lambda: MembershipSpec("race"), "kind 'race': missing a required argument: 'members'"),
    "topology-param-typo": (lambda: TopologySpec("grid", {"sides": 6}), "bad topology spec for kind 'grid'"),
    "topology-kind": (lambda: TopologySpec("klein-bottle"), "unknown topology kind 'klein-bottle'"),
    "supplied-argument-as-param": (lambda: FailureSpec("random_region", {"size": 2, "graph": 1}), "'graph'"),
    "params-not-a-mapping": (lambda: FailureSpec("region", None), "FailureSpec.params must be a mapping"),
    "max_events-str": (lambda: RuntimeSpec(max_events="abc"), "RuntimeSpec.max_events must be int, got 'abc'"),
    "until-str": (lambda: RuntimeSpec(until="soon"), "RuntimeSpec.until must be float, got 'soon'"),
    "batched-int": (lambda: RuntimeSpec(batched=1), "RuntimeSpec.batched must be bool, got 1"),
    "check-str": (lambda: _run_spec_with(check="no"), "ExperimentSpec.check must be bool, got 'no'"),
    "seed-str": (lambda: _run_spec_with(seed="x"), "ExperimentSpec.seed must be int, got 'x'"),
    "seed-bool": (lambda: _run_spec_with(seed=True), "ExperimentSpec.seed must be int, got True"),
    "name-int": (lambda: _run_spec_with(name=5), "ExperimentSpec.name must be str, got 5"),
    "topology-dict": (
        lambda: ExperimentSpec(topology={"kind": "grid"}),
        "ExperimentSpec.topology must be TopologySpec",
    ),
    "workers-negative": (lambda: _sweep(workers=-3), "workers must be >= 0"),
    "workers-str": (lambda: _sweep(workers="two"), "SweepSpec.workers must be int, got 'two'"),
    "document-scalar": (
        lambda: load_spec(json.dumps(_document(runtime={"max_events": "abc"}))),
        "RuntimeSpec.max_events must be int",
    ),
}


def _run_spec_with(**fields) -> ExperimentSpec:
    return dataclasses.replace(_run_spec(), **fields)


class TestRefusedWhereWritten:
    @pytest.mark.parametrize("name", sorted(LAX))
    def test_lax_input_is_refused_at_construction(self, name):
        build, message = LAX[name]
        with pytest.raises(SpecError, match=re.escape(message)):
            build()

    def test_nothing_is_coerced(self):
        # 60 and 60.0 digest differently: an int is a valid float and is
        # written back as given.
        runtime = RuntimeSpec(timeout=60, until=30)
        assert [(type(v), v) for v in map(runtime.to_dict().get, ("timeout", "until"))] == [
            (int, 60),
            (int, 30),
        ]
        assert runtime.digest() != RuntimeSpec(timeout=60.0, until=30.0).digest()
        assert RuntimeSpec.from_dict(runtime.to_dict()) == runtime

    @pytest.mark.parametrize(
        "spec, key",
        [
            (_run_spec(FailureSpec("random_region", {"size": 4, "region_seed": None})), "region_seed"),
            (_coupled("steady_churn", {"duration": 20.0, "churn_seed": None}), "churn_seed"),
            (_run_spec(membership=MembershipSpec("flash_crowd", {"count": 2, "join_seed": None})), "join_seed"),
        ],
    )
    def test_a_null_generator_seed_is_the_experiment_seed(self, spec, key):
        # random.Random(None) seeds from the OS: four runs, four digests, and
        # the service cached whichever ran first under the one spec key.
        document = spec.to_dict()
        for block in ("failure", "membership"):
            document[block]["params"].pop(key, None)
        without = ExperimentSession().run(load_spec(json.dumps(document))).digest()
        assert ExperimentSession().run(spec).digest() == without
        assert ExperimentSession().run(spec).digest() == without


# ---------------------------------------------------------------------------
# The guards: declared once
# ---------------------------------------------------------------------------
def _kinds():
    from repro.api.specs import _KIND_TABLES

    return [(what, kind) for what, (table, _, _) in _KIND_TABLES.items() for kind in table]


class TestKindTables:
    @pytest.mark.parametrize("what, kind", _kinds())
    def test_a_kinds_params_are_its_builders_signature(self, what, kind):
        from repro.api.specs import _locate, check_kind

        _, signature, supplied = _locate(what, kind)
        params = tuple(name for name in signature.parameters if name not in supplied)
        check_kind(what, kind, params)
        for name in params or ("",):
            with pytest.raises(SpecError, match=f"bad {what} spec for kind '{kind}': .*'{name}x'"):
                check_kind(what, kind, (*params, name + "x"))

    def test_the_spec_level_defaults_are_written_down(self):
        # Trap (a): not the library builders' defaults (see the battery).
        import inspect

        from repro.api import kinds

        def defaults(adapter):
            return {
                name: parameter.default
                for name, parameter in inspect.signature(adapter).parameters.items()
                if parameter.default is not inspect.Parameter.empty
            }

        assert defaults(kinds.cascade) == {"start_at": 1.0, "spacing": 2.0}
        assert defaults(kinds.race) == {"crash_at": 1.0, "recover_at": 6.0, "recrash_at": 60.0}
        assert defaults(kinds.flash_crowd) == {"count": 0, "at": 3.0, "spacing": 1.0, "join_seed": None}


class TestFaultKnobs:
    def test_a_modifier_alone_is_rejected(self):
        from repro.sim.faults import FAULT_AXES, FAULT_KNOBS

        modifiers = [knob for knob, spec in FAULT_KNOBS.items() if spec.base]
        assert modifiers and set(FAULT_AXES) == {FAULT_KNOBS[knob].base for knob in modifiers} | {"loss"}
        for knob in modifiers:
            with pytest.raises(SpecError, match="base knob"):
                RuntimeSpec(faults={knob: 2})
            RuntimeSpec(faults={knob: 2 if knob == "copies" else 0.5, FAULT_KNOBS[knob].base: 0.5})

    def test_every_knob_is_a_stage_argument(self):
        from repro.sim.faults import FAULT_KNOBS

        every_stage = {spec.stage for spec in FAULT_KNOBS.values() if spec.stage}
        for knob, spec in FAULT_KNOBS.items():
            for stage in [spec.stage] if spec.stage else every_stage:
                assert spec.argument in {f.name for f in dataclasses.fields(stage)}, knob


def _full(cls):
    """An instance with every ``when_set`` field off its default."""
    runtime = RuntimeSpec(partitions=2, collection="digest", faults={"loss": 0.1})
    experiment = dataclasses.replace(_run_spec(), runtime=runtime, extract={"kind": "locality"})
    return {
        TopologySpec: experiment.topology,
        FailureSpec: experiment.failure,
        MembershipSpec: experiment.membership,
        RuntimeSpec: runtime,
        ExperimentSpec: experiment,
        SweepSpec: SweepSpec(experiment=experiment),
    }[cls]


class TestDeclaredOnce:
    SPECS = (SRC / "api" / "specs.py").read_text()
    CLI = (SRC / "cli.py").read_text()

    @pytest.mark.parametrize(
        "cls", [TopologySpec, FailureSpec, MembershipSpec, RuntimeSpec, ExperimentSpec, SweepSpec]
    )
    def test_every_field_is_serialised(self, cls):
        # There is no per-class serialiser left to forget a new field.
        emitted = set(_full(cls).to_dict()) - {"spec", "version"}
        assert emitted == {f.name for f in dataclasses.fields(cls)}
        assert cls.from_dict(_full(cls).to_dict()) == _full(cls)

    def test_one_serialiser_one_parser(self):
        assert self.SPECS.count("def to_dict(") == 1
        assert self.SPECS.count("def from_dict(") == 1

    def test_no_kind_chain_outside_is_static(self):
        import inspect

        chain = re.compile(r"if (self\.)?kind == ")
        is_static = inspect.getsource(MembershipSpec.is_static.fget)
        assert len(chain.findall(self.SPECS)) == len(chain.findall(is_static)) == 2

    def test_the_cli_reads_the_tables(self):
        from repro.sim.faults import FAULT_KNOBS

        literals = [f'"{engine}"' for engine in RuntimeSpec.ENGINES[2:]]
        literals += [f'"{knob}"' for knob, spec in FAULT_KNOBS.items() if spec.stage]
        literals += ['["trace", "digest"]', '"sim", "asyncio", ']
        assert [literal for literal in literals if literal in self.CLI] == []
        assert "choices=list(RuntimeSpec.ENGINES)" in self.CLI
