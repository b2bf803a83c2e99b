#!/usr/bin/env python3
"""Running the same protocol over asyncio.

The protocol classes are runtime-agnostic: this example executes the
quickstart scenario (a 2x2 block crashing in a 6x6 grid) first on the
deterministic discrete-event simulator and then on the asyncio runtime,
where every node is a real concurrent task with its own FIFO inbox, and
shows that both reach the same agreement.

Run with:  python examples/asyncio_runtime.py
"""

from __future__ import annotations

from repro import generators, region_crash, run_asyncio, run_cliff_edge


def main() -> None:
    graph = generators.grid(6, 6)
    crashed_block = [(2, 2), (2, 3), (3, 2), (3, 3)]
    schedule = region_crash(graph, crashed_block, at=1.0)

    print("=== deterministic simulator ===")
    sim_result = run_cliff_edge(graph, schedule, check=True)
    sim_views = {
        tuple(sorted(map(str, view.members))) for view in sim_result.decided_views
    }
    print(f"decisions: {sim_result.metrics.decisions}, views: {sorted(sim_views)}")
    print(f"CD1-CD7: {sim_result.specification.holds}")

    print()
    print("=== asyncio runtime (one task per node) ===")
    async_result = run_asyncio(graph, schedule, timeout=20.0)
    async_views = {
        tuple(sorted(map(str, view.members))) for view in async_result.decided_views
    }
    print(f"decisions: {async_result.metrics.decisions}, views: {sorted(async_views)}")
    print(f"reached quiescence: {async_result.quiescent}")

    print()
    agree = sim_views == async_views
    print(f"both runtimes agreed on the same crashed region(s): {agree}")
    deciders_match = sim_result.deciding_nodes == async_result.deciding_nodes
    print(f"same set of deciding nodes: {deciders_match}")


if __name__ == "__main__":
    main()
