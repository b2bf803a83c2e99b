#!/usr/bin/env python3
"""The asyncio runtime on a virtual clock: fast and digest-stable.

The wall-clock asyncio runtime really sleeps: schedule pacing,
failure-detector delays and quiescence polls all cost real time, and the
OS decides tie-breaks, so two runs of the same scenario produce
different traces.  This example executes the quickstart scenario (a 2x2
block crashing in a 6x6 grid) on the **virtual-time** loop
(:mod:`repro.vtime`) — the same unmodified runtime code with the clock
driven by the simulator's keyed scheduler — and shows the two headline
properties:

* zero real sleeps: the virtual run finishes in milliseconds while the
  wall-clock run sleeps through the same virtual seconds;
* determinism: two virtual runs produce byte-identical canonical
  digests (the wall-clock runtime cannot promise that).

Run with:  python examples/vtime_runtime.py
"""

from __future__ import annotations

from time import perf_counter

from repro import generators, region_crash, run_asyncio


def main() -> None:
    graph = generators.grid(6, 6)
    crashed_block = [(2, 2), (2, 3), (3, 2), (3, 3)]
    schedule = region_crash(graph, crashed_block, at=1.0)

    print("=== wall-clock asyncio (really sleeps) ===")
    started = perf_counter()
    wall_result = run_asyncio(graph, schedule, timeout=20.0)
    wall_elapsed = perf_counter() - started
    print(f"decisions: {wall_result.metrics.decisions}  "
          f"quiescent: {wall_result.quiescent}  wall time: {wall_elapsed:.3f}s")

    print()
    print("=== virtual-time asyncio (same code, simulator clock) ===")
    started = perf_counter()
    first = run_asyncio(graph, schedule, virtual=True, timeout=20.0)
    virtual_elapsed = perf_counter() - started
    second = run_asyncio(graph, schedule, virtual=True, timeout=20.0)
    print(f"decisions: {first.metrics.decisions}  "
          f"quiescent: {first.quiescent}  wall time: {virtual_elapsed:.3f}s")
    print(f"digest, run 1: {first.trace.digest()[:16]}…")
    print(f"digest, run 2: {second.trace.digest()[:16]}…")

    print()
    print("virtual runs digest-identical: "
          f"{first.trace.digest() == second.trace.digest()}")
    views = lambda result: {  # noqa: E731
        tuple(sorted(map(str, view.members))) for view in result.decided_views
    }
    print(f"wall-clock and virtual agree on the views: "
          f"{views(wall_result) == views(first)}")
    if virtual_elapsed > 0:
        print(f"speedup vs wall-clock: {wall_elapsed / virtual_elapsed:.1f}x")


if __name__ == "__main__":
    main()
