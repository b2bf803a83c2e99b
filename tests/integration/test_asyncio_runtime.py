"""Integration tests for the asyncio runtime and its parity with the simulator."""

from __future__ import annotations

import asyncio

import pytest

from repro import CliffEdgeNode, region_crash, run_cliff_edge
from repro.failures import growing_region_crash
from repro.graph import Region
from repro.graph.generators import grid, ring
from repro.runtime import AsyncRuntime, run_asyncio
from repro.core.properties import check_all


class TestQuickstartParity:
    @pytest.fixture(scope="class")
    def scenario(self):
        graph = grid(6, 6)
        block = [(2, 2), (2, 3), (3, 2), (3, 3)]
        return graph, region_crash(graph, block, at=1.0), frozenset(block)

    @pytest.fixture(scope="class")
    def async_result(self, scenario):
        graph, schedule, _ = scenario
        return run_asyncio(graph, schedule, timeout=30.0)

    def test_reaches_quiescence(self, async_result):
        assert async_result.quiescent

    def test_same_views_as_simulator(self, scenario, async_result):
        graph, schedule, _ = scenario
        sim_result = run_cliff_edge(graph, schedule)
        assert async_result.decided_views == sim_result.decided_views
        assert async_result.deciding_nodes == sim_result.deciding_nodes

    def test_expected_block_decided(self, scenario, async_result):
        _, _, block = scenario
        assert async_result.decided_views == {Region(block)}

    def test_safety_properties_hold_on_async_trace(self, scenario, async_result):
        graph, schedule, _ = scenario
        report = check_all(graph, async_result.trace, faulty=schedule.nodes)
        assert report.holds, report.summary()

    def test_metrics_populated(self, async_result):
        assert async_result.metrics.messages_sent > 0
        assert async_result.metrics.decisions == len(async_result.decisions)


class TestAsyncRuntimeBehaviour:
    def test_growing_region_scenario(self):
        graph = ring(12, successors=2)
        schedule = growing_region_crash(
            graph, [4, 5], growth_members=[6], initial_at=1.0, growth_at=6.0
        )
        result = run_asyncio(graph, schedule, timeout=30.0)
        assert result.quiescent
        report = check_all(graph, result.trace, faulty=schedule.nodes)
        assert report.holds, report.summary()
        # Depending on how the real-time growth interleaves with the rounds,
        # the agreement lands either on the initial region (growth arrived
        # after the decision, as in Fig. 3) or on the grown one (Fig. 1b);
        # both are within specification.
        assert result.decided_views
        for view in result.decided_views:
            assert view.members in (frozenset({4, 5}), frozenset({4, 5, 6}))

    def test_missing_process_rejected(self):
        graph = grid(3, 3)
        runtime = AsyncRuntime(graph)
        runtime.add_process((0, 0), CliffEdgeNode((0, 0)))
        with pytest.raises(Exception):
            asyncio.run(runtime.run(region_crash(graph, [(1, 1)], at=1.0)))

    def test_unknown_node_rejected(self):
        graph = grid(3, 3)
        runtime = AsyncRuntime(graph)
        with pytest.raises(Exception):
            runtime.add_process("nope", CliffEdgeNode("nope"))

    def test_async_entry_point_composes(self):
        # Inside a caller's own event loop the runtime is awaited directly.
        async def scenario():
            graph = grid(4, 4)
            runtime = AsyncRuntime(graph)
            runtime.populate(CliffEdgeNode)
            return await runtime.run(region_crash(graph, [(1, 1)], at=1.0), timeout=20.0)

        result = asyncio.run(scenario())
        assert result.decided_views == {Region(frozenset({(1, 1)}))}
        assert result.deciding_nodes == grid(4, 4).border({(1, 1)})

    def test_process_accessor(self):
        graph = grid(3, 3)
        runtime = AsyncRuntime(graph)
        runtime.populate(CliffEdgeNode)
        process = runtime.process((1, 1))
        assert isinstance(process, CliffEdgeNode)
