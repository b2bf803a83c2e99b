#!/usr/bin/env python3
"""Churn: a crashed region recovers and crashes again.

The paper's model is crash-only: once a region falls off the cliff it
never comes back.  Real overlays churn — nodes recover, rejoin and new
nodes arrive while detection and repair are in flight.  This example runs
the headline churn scenario:

1. a 2x2 block of a 6x6 grid crashes at t=1 and the border agrees on it;
2. the block *recovers* at t=40 — every view involving it is now stale,
   and the border nodes discard their epoch-1 state when the membership
   announcement reaches them;
3. the block crashes *again* at t=80, and the same border agrees on the
   same region a second time, in a fresh membership epoch.

The run is then checked against the epoch-quotiented CD1–CD7
specification (repro.churn.properties), and executed a second time on the
asyncio runtime to show both substrates decide identically.

Run with:  python examples/churn_recovery.py
"""

from __future__ import annotations

from repro import generators, run_asyncio, run_cliff_edge
from repro.churn import crash_recover_recrash
from repro.sim.events import EventKind


def main() -> None:
    # 1. Topology and the crash -> recover -> re-crash script.
    graph = generators.grid(6, 6)
    block = [(2, 2), (2, 3), (3, 2), (3, 3)]
    crashes, membership = crash_recover_recrash(
        graph, block, crash_at=1.0, recover_at=40.0, recrash_at=80.0
    )
    print(f"topology: {graph}")
    print(f"block {sorted(block)}: crash at t=1, recover at t=40, re-crash at t=80")

    # 2. Run on the deterministic simulator with the epoch-quotiented check.
    result = run_cliff_edge(graph, crashes, membership, check=True)
    print()
    print("=== simulator ===")
    print(result.summary())

    # 3. The same region is decided once per epoch in which it crashed.
    #    Epochs are delimited by *trace index* (several can share one
    #    timestamp), so attribution uses MembershipEpoch.covers().
    print()
    print("=== decisions by epoch ===")
    epoch_of_decision = {}
    for index, event in enumerate(result.trace):
        if event.kind is EventKind.DECIDED:
            epoch = next(e for e in result.epochs if e.covers(index))
            epoch_of_decision.setdefault(epoch.index, []).append(event)
    for epoch_index, events in sorted(epoch_of_decision.items()):
        deciders = sorted(repr(e.node) for e in events)
        print(f"  epoch {epoch_index}: {len(events)} decisions by {deciders}")

    print()
    print("=== epoch-quotiented specification ===")
    print(result.specification.summary())

    # 4. Credibility check: the asyncio runtime reaches the same views.
    async_result = run_asyncio(graph, crashes, membership, check=True)
    print()
    print("=== asyncio runtime ===")
    print(f"quiescent: {async_result.quiescent}")
    print(f"specification holds: {async_result.specification.holds}")
    same = async_result.decided_views == result.decided_views
    print(f"same decided views as the simulator: {same}")

    assert result.specification.holds
    assert async_result.specification.holds
    assert same


if __name__ == "__main__":
    main()
