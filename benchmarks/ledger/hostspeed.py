"""A fixed reference kernel: how fast is this host *right now*?

The 2-CPU sandbox this ledger was sized on is not steady: its speed drifts
by a fifth to nearly a half over minutes (README, "Noise floor").
``BENCHMARK.json`` must carry a bounded ``setup_s`` whose median may not
move by more than the bound between two sets of runs of one commit; raw
set-up seconds moved by up to 42 % there.  So ``setup_s`` — and nothing
else — is reported in *reference seconds*: measured seconds x ``NOMINAL_S``
/ (seconds this kernel took just before and just after the set-up).  The
kernel's own time is reported beside it as ``host.kernel_s``.

The kernel is frozen: it shares no code with ``src/``, so nothing a later
change does to the program can move it.  Its mix — dict and frozenset
traffic, tuple keys, string formatting, hashing — is the interpreter work
a set-up (imports, one simulated run, its digest) does.
"""

from __future__ import annotations

import hashlib
from time import perf_counter

#: What one kernel run takes on the sizing host at its quietest, so that
#: reference seconds there read like seconds.  Changing it rescales every
#: ``setup_s``: re-record the baseline if you do.
NOMINAL_S = 0.17


def kernel() -> int:
    counts: dict[tuple[int, int], int] = {}
    total = 0
    hasher = hashlib.blake2b()
    for index in range(300_000):
        key = (index % 499, index % 101)  # 50 k distinct keys: ~8 MB, below any op's peak
        members = frozenset((index % 13, index % 7, index % 5))
        counts[key] = counts.get(key, 0) + len(members)
        if index % 8 == 0:
            hasher.update(("%d:%r" % (index, key)).encode())
        total += len(counts)
    return total


def kernel_seconds() -> float:
    """Seconds one run of the reference kernel takes now."""
    started = perf_counter()
    kernel()
    return perf_counter() - started


def reference_seconds(seconds: float, *kernels: float) -> float:
    """``seconds`` scaled to the nominal host speed, given kernel timings around it."""
    return seconds * NOMINAL_S * len(kernels) / sum(kernels)
