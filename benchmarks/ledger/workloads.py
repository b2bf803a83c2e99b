"""The six workloads: every spec document, generated from the seed.

The driver process calls :func:`generate` once per workload and hands the
resulting plan — plain JSON: spec documents plus what to check them
against — to a fresh subprocess.  The program under test (``repro``) only
ever receives the generated documents; the seed never reaches it.

Why each workload exists is recorded in ``BENCHMARK.json`` and the README.
"""

from __future__ import annotations

import json
import random
from typing import Any

from repro.api import (
    ExperimentSpec,
    FailureSpec,
    RuntimeSpec,
    TopologySpec,
    churn_scenario_spec,
    quickstart_spec,
    torus_sweep_spec,
)
from repro.experiments.scenarios import torus_block_members

#: Problem sizes.  ``full`` is what every recorded number refers to;
#: ``smoke`` only proves the harness runs (CI, the ledger's own tests).
SIZES: dict[str, dict[str, Any]] = {
    "full": {
        "torus_side": 64,
        "block_side": 3,
        "churn_nodes": 256,
        "churn_duration": 200.0,
        "sweep_side": 32,
        "sweep_points": 32,
        # 60 fresh requests leave twelve samples beyond p80, 300 cached ones
        # fifteen beyond p95.  A fresh request takes ~0.3 s (the worker's poll
        # interval), so the pass lasts ~20 s whatever --seconds says.
        "service_documents": 60,
        "service_repeats": 5,
    },
    "smoke": {
        "torus_side": 16,
        # 3x3 blocks this close together spend 1.6 s arbitrating conflicts.
        "block_side": 2,
        "churn_nodes": 64,
        "churn_duration": 100.0,
        "sweep_side": 16,
        "sweep_points": 8,
        "service_documents": 8,
        "service_repeats": 4,
    },
}

BLOCKS = 4
PRELUDE_DOCUMENTS = 10


def _crash_time(seed: int) -> float:
    """When the seed's torus scenario starts crashing; seed 0 starts at 1.0.

    The scenario is translated in *time*, by a multiple of 1/1024 so that
    every simulated timestamp stays an exact binary fraction and ties fall
    as they do for seed 0.  Every seed is then the same protocol work in
    the same place — equal sizes, different digests.  Translating it in
    space would be equal work for the sequential run only: the partitioner
    grows its shards from fixed nodes, so moving the blocks across a shard
    boundary changes the partitioned run's cross traffic (measured: 0.85 s
    against 1.15 s per op between two shifts).
    """
    return 1.0 + (seed % 1024) / 1024


def _torus_document(
    seed: int, size: dict[str, Any], *, partitions: int, collection: str, check: bool
) -> str:
    """Four square blocks at the cell centres of a torus, crashed 0.5 apart.

    Placement follows ``benchmarks/bench_partitioned_run.build_scenario``.
    """
    side = size["torus_side"]
    columns = max(1, round(BLOCKS**0.5))
    rows = (BLOCKS + columns - 1) // columns
    regions = []
    for index in range(BLOCKS):
        row, column = divmod(index, columns)
        origin = (
            (column * side) // columns + side // (2 * columns),
            (row * side) // rows + side // (2 * rows),
        )
        regions.append(sorted(torus_block_members(side, size["block_side"], origin)))
    spec = ExperimentSpec(
        name=f"ledger-torus{side}",
        topology=TopologySpec("torus", {"width": side, "height": side}),
        failure=FailureSpec(
            "multi_region", {"regions": regions, "at": _crash_time(seed), "stagger": 0.5}
        ),
        runtime=RuntimeSpec(partitions=partitions, collection=collection),
        seed=seed,
        check=check,
    )
    return spec.to_json(indent=None)


def _static_torus(seed: int, size: dict[str, Any]) -> dict[str, Any]:
    return {
        "kind": "batch",
        "document": _torus_document(seed, size, partitions=1, collection="trace", check=True),
        "check": True,
        "unit": "events",
    }


def _partition2_torus_digest(seed: int, size: dict[str, Any]) -> dict[str, Any]:
    return {
        "kind": "batch",
        "document": _torus_document(seed, size, partitions=2, collection="digest", check=False),
        # Partitioned == sequential is the check this workload exists for.
        "reference_document": _torus_document(
            seed, size, partitions=1, collection="digest", check=False
        ),
        "check": False,
        "unit": "events",
    }


def _churn(seed: int, size: dict[str, Any], runtime: str) -> dict[str, Any]:
    spec = churn_scenario_spec(
        "steady",
        nodes=size["churn_nodes"],
        churn_rate=0.1,
        duration=size["churn_duration"],
        seed=seed,
        runtime=runtime,
    )
    return {
        "kind": "batch",
        "document": spec.to_json(indent=None),
        "check": True,
        "unit": "events",
    }


def _churn_steady(seed: int, size: dict[str, Any]) -> dict[str, Any]:
    return _churn(seed, size, "sim")


def _vtime_churn(seed: int, size: dict[str, Any]) -> dict[str, Any]:
    plan = _churn(seed, size, "asyncio-virtual")
    # The simulator twin: the traced run times it for vtime.substrate_ratio.
    plan["twin_document"] = _churn(seed, size, "sim")["document"]
    return plan


def _sweep_document(seed: int, side: int, points: int, workers: int) -> str:
    document = torus_sweep_spec(
        side=side, scenarios=points, block_side=2, workers=workers, check=True
    ).to_dict()
    document["base_seed"] = seed
    document["experiment"]["failure"]["params"]["at"] = _crash_time(seed)
    return json.dumps(document)


def _sweep_torus(seed: int, size: dict[str, Any]) -> dict[str, Any]:
    side, points = size["sweep_side"], size["sweep_points"]
    return {
        "kind": "batch",
        "document": _sweep_document(seed, side, points, workers=2),
        # workers=2 == workers=1 is the sweep engine's determinism contract.
        "reference_document": _sweep_document(seed, side, points, workers=1),
        "check": True,
        "unit": "points",
    }


def _service_mixed(seed: int, size: dict[str, Any]) -> dict[str, Any]:
    count = size["service_documents"]
    repeats = size["service_repeats"]
    # Distinct documents: the pass's own, one to warm the server up, and ten
    # the traced run sends before it installs its spans.
    documents = [
        quickstart_spec(side=8, seed=seed * 100_000 + index).to_dict()
        for index in range(count + 1 + PRELUDE_DOCUMENTS)
    ]
    # Any order makes a document's first appearance its fresh request: the
    # loop is closed, so that request has finished before the next is sent.
    order = [index for index in range(count) for _ in range(1 + repeats)]
    random.Random(seed).shuffle(order)
    return {
        "kind": "service",
        "documents": documents[:count],
        "order": order,
        "warmup_document": documents[count],
        "prelude_documents": documents[count + 1 :],
        "unit": "requests",
    }


_GENERATORS = {
    "static_torus64": _static_torus,
    "partition2_torus64_digest": _partition2_torus_digest,
    "churn_steady256": _churn_steady,
    "vtime_churn256": _vtime_churn,
    "sweep_torus32": _sweep_torus,
    "service_mixed": _service_mixed,
}


def generate(workload: str, seed: int, size: str) -> dict[str, Any]:
    """The plan of ``workload`` for ``seed``: its documents and how to check them."""
    return _GENERATORS[workload](seed, SIZES[size])
