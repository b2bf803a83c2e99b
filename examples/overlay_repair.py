#!/usr/bin/env python3
"""Overlay repair: the application the paper motivates.

A Chord-like ring of 32 nodes (each node knows its next two successors)
loses a contiguous arc of 4 nodes.  The arc's surviving neighbours run
cliff-edge consensus with a repair-plan decision policy: the agreed value
is simultaneously (a) the exact extent of the crashed arc, (b) the bridge
edges that stitch the ring back together, and (c) the coordinator elected
to drive the repair.  The script applies the plan and verifies the ring is
whole again.  Last, the EXP-R1 sweep document runs the same repair over
a grid of ring sizes and arc lengths.

Run with:  python examples/overlay_repair.py
"""

from __future__ import annotations

from repro.api import repair_sweep_spec, run_spec
from repro.experiments import format_table, run_overlay_repair


def main() -> None:
    run = run_overlay_repair(ring_size=32, successors=2, arc_start=5, arc_length=4)

    print("=== scenario ===")
    print(f"ring size:        {run.overlay.size} (successor list length "
          f"{run.overlay.successors})")
    print(f"crashed arc:      {list(run.arc)}")
    border = run.result.graph.border(run.arc)
    print(f"border (the cliff edge): {sorted(border)}")

    print()
    print("=== agreement ===")
    for decision in run.result.decisions:
        print(f"  {decision.node:>3} decided view={sorted(decision.view.members)}")
    plan = next(iter(run.outcome.plans.values()))
    print(f"agreed repair plan: {plan.describe()}")

    print()
    print("=== repair outcome ===")
    print(run.outcome.summary())

    print()
    print("=== cost ===")
    metrics = run.result.metrics
    print(f"messages: {metrics.messages_sent}   bytes: {metrics.bytes_sent}   "
          f"speaking nodes: {metrics.speaking_nodes} / {run.overlay.size}")

    print()
    print("=== specification (CD1-CD7) ===")
    print(run.result.specification.summary())

    print()
    print("=== EXP-R1: every ring size x arc length ===")
    sweep = run_spec(repair_sweep_spec(ring_sizes=(16, 32), arc_lengths=(2, 4)))
    rows = [outcome.labels["extract"] for outcome in sweep.outcomes]
    print(format_table(rows))
    print(f"every ring restored: {all(row['ring_restored'] for row in rows)}")


if __name__ == "__main__":
    main()
