"""A finished run dies by reference count.

A substrate owns its per-node contexts and a context refers back to its
substrate *weakly* (``SubstrateContext``), so dropping a result frees the
simulator, its thousands of nodes and their state at once — not at the
next full garbage collection, which a run that allocates fewer tracked
objects only postpones (and the peak resident set grows with it).  Each
test runs with the collector off and then asks it what it would have had
to find.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.api import churn_scenario_spec, quickstart_spec, run_spec

STATIC = quickstart_spec(side=8)
CHURN = churn_scenario_spec("steady", nodes=32, churn_rate=0.1, duration=40.0, seed=1)


def run_and_drop(spec):
    """Run ``spec`` as the ledger does (digest included) and drop the result;
    returns a weak reference to its live simulator, if it kept one."""
    result = run_spec(spec)
    result.digest()
    assert result.specification.holds
    simulator = result.simulator
    return weakref.ref(simulator) if simulator is not None else None


@pytest.fixture
def collector_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


@pytest.mark.parametrize("spec", [STATIC, CHURN], ids=["static", "churn"])
def test_a_dropped_simulator_run_leaves_nothing_to_collect(spec, collector_off):
    run_and_drop(spec)  # lazy imports and caches: class creation makes cycles
    gc.collect()
    simulator = run_and_drop(spec)
    assert simulator() is None, "the simulator outlived its result"
    assert gc.collect() == 0


def test_a_dropped_virtual_time_run_leaves_no_node_to_collect(collector_off):
    spec = CHURN.with_engine("asyncio-virtual")
    run_and_drop(spec)
    gc.collect()
    run_and_drop(spec)
    gc.set_debug(gc.DEBUG_SAVEALL)
    gc.collect()
    left = sorted({type(item).__name__ for item in gc.garbage})
    assert not {"CliffEdgeNode", "SubstrateContext", "AsyncRuntime", "RoundMessage"} & set(left), left
    # What remains is the virtual loop and its scheduler, which point at
    # each other (``scheduler.context``) — a handful of objects per run.
    assert len(gc.garbage) <= 16, left


def test_a_context_does_not_keep_its_substrate_alive():
    from repro.core import CliffEdgeNode
    from repro.graph import generators
    from repro.sim import Simulator

    simulator = Simulator(generators.ring(4))
    simulator.populate(CliffEdgeNode)
    context = simulator._contexts[0]
    assert context.graph is simulator.graph and context.now() == 0.0
    del simulator
    with pytest.raises(ReferenceError):
        context.now()
