"""The perf ledger's span contract, checked where a refactor will see it.

``benchmarks/ledger`` wraps ``vars(owner)[attribute]`` for every boundary
it times (``layers.span_targets``, ``spans.SpanRecorder.install``), so a
method moved to a base class, or a module that stops binding a function
it used to import, is a ``KeyError`` under ``run.py --trace 1`` — and
nowhere else.  ``layers.from_result`` sniffs attributes the same way
(``hasattr(result, "barrier_rounds")``, ``getattr(result, "membership",
None)``), so a result that grows a field it should not have dies in the
traced run's ``print_metrics`` only.  This reads the ledger's own code
(nothing under ``benchmarks/ledger`` is modified or duplicated) and
holds ``src/`` to it.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

from repro import CliffEdgeNode, region_crash
from repro.api import ExperimentSession, churn_scenario_spec, quickstart_spec
from repro.graph.generators import grid
from repro.sim import Simulator
from repro.vtime import VirtualRuntime

LEDGER = Path(__file__).resolve().parents[2] / "benchmarks" / "ledger"


@pytest.fixture(scope="module")
def layers():
    sys.path.insert(0, str(LEDGER))
    try:
        return importlib.import_module("layers")
    finally:
        sys.path.remove(str(LEDGER))
        for name in ("layers", "spans"):
            sys.modules.pop(name, None)


@pytest.fixture(scope="module")
def span_targets(layers):
    return layers.span_targets()


def test_every_wrapped_attribute_is_defined_on_its_owner(span_targets):
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attribute} ({name})"
        for owner, attribute, name, *_note in span_targets
        if attribute not in vars(owner)
    ]
    assert not missing, f"the ledger wraps these where they are defined: {missing}"


def test_notes_read_an_int_off_a_finished_run(span_targets):
    notes = {owner: note for owner, _attribute, _name, *rest in span_targets for note in rest}
    assert set(notes) == {Simulator, VirtualRuntime}
    graph = grid(4, 4)
    schedule = region_crash(graph, [(1, 1)], at=1.0)
    sim = Simulator(graph)
    sim.populate(CliffEdgeNode)
    schedule.applied_to(sim)
    sim.run()
    virtual = VirtualRuntime(graph)
    virtual.populate(CliffEdgeNode)
    virtual.run(schedule)
    for finished in (sim, virtual):
        count = notes[type(finished)](finished)
        assert isinstance(count, int) and count > 0


def test_from_result_reads_numbers_off_every_kind_of_result(layers):
    """Every ``RunResult`` with a ``barrier_rounds`` attribute, even
    ``None``, passes every other test and fails ``run.py --trace 1`` on
    ``static_torus64`` with ``unsupported format string passed to
    NoneType.__format__``."""
    static = quickstart_spec(side=5)
    churn = churn_scenario_spec("flash", nodes=16)
    documents = {
        "static": static,
        "churn": churn,
        "vtime": static.with_engine("asyncio-virtual"),
        "partitioned": static.with_partitions(2),
        "partitioned-churn": churn.with_partitions(2),
    }
    measured = {
        name: layers.from_result(ExperimentSession().run(spec))
        for name, spec in documents.items()
    }
    for name, numbers in measured.items():
        assert numbers["core.protocol.decisions"] > 0, name
        assert all(type(value) in (int, float) for value in numbers.values()), name
    assert {
        name for name, numbers in measured.items() if "sim.partition.barrier_rounds" in numbers
    } == {"partitioned"}
    # The asyncio engines are handed the (empty) membership schedule.
    assert {
        name for name, numbers in measured.items() if "churn.membership.changes" in numbers
    } == {"churn", "vtime", "partitioned-churn"}
    assert measured["vtime"]["churn.membership.changes"] == 0
