"""One run outcome, and it cannot fork again.

Every substrate — the simulator, its partitions, asyncio on either clock
— packages its finished trace through
:meth:`repro.api.result.RunResult.from_trace` and returns that one
class.  This file pins the class structure, the three report shapes
byte for byte (the battery's hashes were recorded *before* the four
result classes were merged), and the grep-level facts that keep a second
tail from growing back.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import re
from pathlib import Path

import pytest

from repro import run_cliff_edge
from repro.api import (
    ExperimentSession,
    ExperimentSpec,
    FailureSpec,
    MembershipSpec,
    TopologySpec,
    churn_scenario_spec,
    quickstart_spec,
    repair_spec,
)
from repro.api.result import RunResult
from repro.churn import MembershipSchedule
from repro.failures import CrashSchedule
from repro.graph.generators import torus
from repro.sim.partition import PartitionedRunResult

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


# ---------------------------------------------------------------------------
# The documents
# ---------------------------------------------------------------------------
def _churn(scenario: str) -> ExperimentSpec:
    spec = churn_scenario_spec(scenario, nodes=36, duration=40.0, seed=3)
    return dataclasses.replace(spec, check=True)


def _torus(membership: MembershipSpec) -> ExperimentSpec:
    return ExperimentSpec(
        name="membership-edge",
        topology=TopologySpec("torus", {"width": 5, "height": 5}),
        failure=FailureSpec("region", {"members": [(1, 1), (1, 2)], "at": 1.0}),
        membership=membership,
        seed=2,
    )


def _documents() -> dict[str, ExperimentSpec]:
    quick = quickstart_spec()
    documents = {
        "quickstart": quick,
        "quickstart-2p": quick.with_partitions(2),
        "quickstart-digest": quick.with_collection("digest"),
        "quickstart-2p-digest": quick.with_partitions(2).with_collection("digest"),
        "quickstart-vtime": quick.with_engine("asyncio-virtual"),
        "quickstart-faults": quick.with_faults({"duplication": 0.2, "reorder": 0.5}),
        "quickstart-unbatched": dataclasses.replace(
            quick, runtime=dataclasses.replace(quick.runtime, batched=False)
        ),
        "repair": repair_spec(),
        "leaves": _torus(MembershipSpec("leaves", {"events": [[(3, 3), 4.0]]})),
        # No events: ``is_static``, so the paper's report, not the churn one.
        "empty-recoveries": _torus(MembershipSpec("recoveries", {"events": []})),
    }
    for scenario in ("steady", "race", "flash"):
        spec = _churn(scenario)
        documents[f"churn-{scenario}"] = spec
        documents[f"churn-{scenario}-vtime"] = spec.with_engine("asyncio-virtual")
        documents[f"churn-{scenario}-2p"] = spec.with_partitions(2)
    return documents


DOCUMENTS = _documents()

#: sha256 (first 16 hex digits) of ``json.dumps(as_dict(), sort_keys=True)
#: + "\n" + summary()``, recorded at the commit before the merge.  Only
#: documents over tuple node ids: a figure document's string ids make
#: its digest depend on ``PYTHONHASHSEED`` (docs/ARCHITECTURE.md).
BATTERY = {
    "quickstart": "0341b4081e941a81",
    "quickstart-2p": "a5c946f3e8df07f2",
    "quickstart-digest": "5fec49f9e097f833",
    "quickstart-2p-digest": "e8fe025b49579a88",
    "quickstart-vtime": "d8fa844a5e45fec4",
    "quickstart-faults": "69c71c5834d93020",
    "quickstart-unbatched": "4cfe547c68f1b2c9",
    "repair": "cf3e06d07c989b9e",
    "leaves": "54de295aa00f3dc9",
    "empty-recoveries": "faff8738dfe2ada9",
    "churn-steady": "419bf794509e6635",
    "churn-steady-vtime": "aa3fc36e3f0eb57e",
    "churn-steady-2p": "8d27fc7580841c42",
    "churn-race": "f6a6164de37cd21a",
    "churn-race-vtime": "2f5ac33fc2898558",
    "churn-race-2p": "1656d4a1e241763f",
    "churn-flash": "040c0a4d1a0f567d",
    "churn-flash-vtime": "13ed7ff8492684f4",
    "churn-flash-2p": "b03cf9b1daeaf94b",
}

COMMON_KEYS = {
    "type", "nodes", "edges", "quiescent", "metrics", "decisions",
    "decided_views", "specification", "digest", "labels",
}  # fmt: skip
RUN_KEYS = COMMON_KEYS | {"crashed"}
PARTITIONED_KEYS = RUN_KEYS | {"partitions", "barrier_rounds"}
CHURN_KEYS = COMMON_KEYS | {
    "runtime", "final_nodes", "final_edges", "crashes", "joins",
    "recoveries", "leaves", "epochs",
}  # fmt: skip


@pytest.fixture(scope="module")
def results() -> dict[str, RunResult]:
    session = ExperimentSession()
    return {name: session.run(spec) for name, spec in DOCUMENTS.items()}


# ---------------------------------------------------------------------------
# One class
# ---------------------------------------------------------------------------
class TestOneClass:
    def test_partitioned_result_adds_two_fields_and_nothing_else(self):
        assert issubclass(PartitionedRunResult, RunResult)
        added = {
            name
            for name in vars(PartitionedRunResult)
            if not (name.startswith("__") and name.endswith("__"))
        }
        assert added == {"partitions", "barrier_rounds", "as_dict", "_headline"}
        own = [f.name for f in dataclasses.fields(PartitionedRunResult)]
        assert own[len(dataclasses.fields(RunResult)) :] == ["partitions", "barrier_rounds"]

    def test_every_runtime_returns_it(self, results):
        assert set(results) == set(BATTERY)
        for name, result in results.items():
            expected = PartitionedRunResult if name.startswith("quickstart-2p") else RunResult
            assert type(result) is expected, name

    def test_only_a_sequential_simulator_run_keeps_its_simulator(self, results):
        assert results["quickstart"].node((0, 1)).has_decided
        assert results["churn-race"].simulator.is_quiescent()
        for name in ("quickstart-2p", "quickstart-vtime", "churn-race-2p"):
            assert results[name].simulator is None
            with pytest.raises(LookupError, match="kept no live simulator"):
                results[name].node((0, 1))

    def test_churn_surface_reads_on_every_result(self, results):
        static, churned = results["quickstart"], results["churn-flash"]
        assert static.membership is None and static.epochs is None
        assert static.base_graph is static.graph is static.final_graph
        assert static.runtime == "sim" and static.quiescent
        assert len(static.decided_view_multiset) == len(static.decisions)
        assert len(churned.final_graph) == len(churned.base_graph) + 8
        assert churned.graph is churned.final_graph
        assert len(churned.epochs) == 9
        assert results["churn-flash-vtime"].runtime == "asyncio-virtual"


# ---------------------------------------------------------------------------
# Three report shapes, byte for byte
# ---------------------------------------------------------------------------
class TestReportShapes:
    @pytest.mark.parametrize("name", sorted(BATTERY))
    def test_as_dict_and_summary_are_byte_identical(self, results, name):
        result = results[name]
        payload = result.as_dict()
        # Names the host's choice (process on multi-core, inline otherwise).
        payload["labels"].pop("partition_backend", None)
        text = json.dumps(payload, sort_keys=True) + "\n" + result.summary()
        assert hashlib.sha256(text.encode("utf-8")).hexdigest()[:16] == BATTERY[name]

    def test_key_sets(self, results):
        for name, result in results.items():
            payload = result.as_dict()
            if name.startswith("quickstart-2p"):
                expected = PARTITIONED_KEYS
            elif payload["type"] == "run":
                expected = RUN_KEYS
            else:
                expected = CHURN_KEYS
            assert set(payload) == expected, name
        assert (len(RUN_KEYS), len(PARTITIONED_KEYS), len(CHURN_KEYS)) == (11, 13, 18)
        # The asyncio engines are handed the (empty) membership schedule.
        assert results["quickstart-vtime"].as_dict()["type"] == "churn-run"
        assert results["empty-recoveries"].as_dict()["type"] == "run"
        assert results["leaves"].as_dict()["type"] == "churn-run"

    def test_summary_first_and_last_lines(self, results):
        def ends(name):
            lines = results[name].summary().splitlines()
            return lines[0], lines[-1]

        assert ends("quickstart") == (
            "nodes=36 edges=60 crashed=4",
            "specification CD1-CD7: holds",
        )
        first, last = ends("quickstart-2p")
        assert re.fullmatch(r"nodes=36 edges=60 crashed=4 partitions=2 barriers=\d+", first)
        assert last == "specification CD1-CD7: holds"
        assert ends("churn-flash") == (
            "nodes=36->44 edges=72->88 crashes=4 joins=8 recoveries=0 leaves=0 epochs=9",
            "epoch-quotiented specification CD1-CD7: holds",
        )


# ---------------------------------------------------------------------------
# The schedule tie order (why static is not "churn with no events")
# ---------------------------------------------------------------------------
class TestScheduleTieOrder:
    """Same-time crashes listed out of ``repr`` order, sharing neighbour
    ``(1, 2)``: the static path applies them in the schedule's own order,
    the churn path in merged-timeline order, and the digests differ."""

    CRASHES = (((1, 3), 1.0), ((1, 1), 1.0))
    STATIC = "131b982bc549b24f2dbe4946e33aa817fd85aa258d171025344b38bc11f73f7f"
    TIMELINE = "cadc605c956be1f2147e4149467b373d83d71e8e5bd06f10b0c8c4c30ddd5217"

    def test_runner_digests_are_pinned_and_differ(self):
        graph, schedule = torus(8, 8), CrashSchedule(self.CRASHES)
        assert run_cliff_edge(graph, schedule).digest() == self.STATIC
        empty = MembershipSchedule()
        assert run_cliff_edge(graph, schedule, membership=empty).digest() == self.TIMELINE

    def test_session_keeps_the_schedule_order(self):
        spec = ExperimentSpec(
            topology=TopologySpec("torus", {"width": 8, "height": 8}),
            failure=FailureSpec(
                "explicit", {"crashes": [[node, time] for node, time in self.CRASHES]}
            ),
        )
        session = ExperimentSession()
        assert session.run(spec).digest() == self.STATIC
        assert session.run(spec.with_partitions(2)).digest() == self.STATIC


# ---------------------------------------------------------------------------
# It cannot fork again
# ---------------------------------------------------------------------------
def _hits(pattern: str) -> list[str]:
    return sorted(
        f"{path.relative_to(SRC)}:{number}"
        for path in SRC.rglob("*.py")
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(pattern, line)
    )


class TestOneTail:
    def test_decisions_are_extracted_in_one_place(self):
        calls = [hit for hit in _hits(r"extract_decisions\(") if "core/properties.py" not in hit]
        assert len(calls) == 1 and calls[0].startswith("api/result.py:")

    def test_epochs_are_built_by_the_tail_and_the_checkers_fallback(self):
        files = {hit.split(":")[0] for hit in _hits(r"(?<!def )build_epochs\(")}
        assert files == {"api/result.py", "churn/properties.py"}

    def test_one_class_checks_and_summarises_a_run(self):
        # api/result.py (the Result protocol + RunResult) and the sweep
        # report, which aggregates runs rather than being one.
        files = {hit.split(":")[0] for hit in _hits(r"def check_specification\(")}
        assert files == {"api/result.py", "scale/sweep.py"}
