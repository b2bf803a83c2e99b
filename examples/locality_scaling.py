#!/usr/bin/env python3
"""Locality: the protocol's cost does not depend on the system size.

The paper's headline property (CD3 Locality / "local complexity") is that
only the nodes around a crashed region ever participate, so the cost of an
agreement depends on the crashed region — never on how big the rest of the
system is.  This example measures it:

1. a fixed 3x3 region crashes in tori of growing size (the cost stays
   flat), and
2. blocks of growing size crash in a fixed torus (the cost grows with the
   border of the block);
3. the same scenario is run with the whole-network consensus baseline to
   show the curve the paper wants to avoid.

Steps 1 and 2 are sweep documents (``repro locality --emit-spec`` prints
the first); each run's ``locality`` extractor reports its cost row.

Run with:  python examples/locality_scaling.py          (quick sweep)
           python examples/locality_scaling.py --full   (larger sweep)
"""

from __future__ import annotations

import sys

from repro.api import locality_sweep_spec, run_spec
from repro.experiments import format_table, global_consensus_comparison, locality_is_flat


def cost_rows(sweep) -> list[dict]:
    """The ``locality`` extractor's row of every run of ``sweep``."""
    return [outcome.labels["extract"] for outcome in run_spec(sweep).outcomes]


def main() -> None:
    full = "--full" in sys.argv[1:]
    sides = (8, 12, 16, 24, 32, 48, 64) if full else (8, 12, 16, 24, 32)
    region_sides = (1, 2, 3, 4, 5, 6) if full else (1, 2, 3, 4)
    baseline_sides = (6, 8, 10, 12, 16) if full else (6, 8, 10)

    print("EXP-L1: fixed 3x3 crashed region, growing torus")
    rows = cost_rows(locality_sweep_spec("l1", sides=sides))
    print(format_table(rows))
    print(f"-> message cost flat across system sizes: {locality_is_flat(rows)}")
    print()

    print("EXP-L2: fixed 32x32 torus, growing crashed block")
    print(format_table(cost_rows(locality_sweep_spec("l2", region_sides=region_sides))))
    print("-> cost tracks the crashed region's border, not the system size")
    print()

    print("EXP-B1: the same failure handled by a whole-network consensus")
    rows = [point.as_row() for point in global_consensus_comparison(sides=baseline_sides)]
    print(format_table(rows))
    print("-> the baseline's cost grows with the system; cliff-edge stays put")


if __name__ == "__main__":
    main()
