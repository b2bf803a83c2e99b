"""Spec-keyed topology build cache.

Graph construction dominates large sweep runs (a 4096-node torus is
rebuilt for every block-crash scenario of the scale family), yet
:class:`~repro.graph.KnowledgeGraph` is immutable — the same spec always
builds an equivalent graph, and a built instance is safe to share between
runs.  This module therefore memoises :meth:`TopologySpec.build` in a
process-local LRU keyed by the spec's canonical digest.

The cache is per process: sweep workers each hold their own, so tasks
that land on the same worker share builds without any cross-process
coordination.  A fork-started worker inherits what its parent held at
the fork — this module, because :mod:`repro.api.session` imports it, and
whatever graphs the parent had built by then (a parent that only expands
a sweep builds none, so each worker builds a topology once).
The perf ledger's ``api.cache.build_cold_ms`` / ``build_warm_us`` measure the
cold/warm build times.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..graph import KnowledgeGraph
    from .specs import TopologySpec

#: Default maximum number of cached graphs per process.
DEFAULT_CACHE_SIZE = 32

_lock = threading.Lock()
_cache: "OrderedDict[str, KnowledgeGraph]" = OrderedDict()
_maxsize = DEFAULT_CACHE_SIZE
_hits = 0
_misses = 0


@dataclass(frozen=True)
class TopologyCacheInfo:
    """A point-in-time snapshot of the cache counters."""

    hits: int
    misses: int
    size: int
    maxsize: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


def build_topology(spec: "TopologySpec") -> "KnowledgeGraph":
    """Build (or fetch) the graph described by ``spec``.

    Cache hits return the *same* immutable graph instance; the simulator
    never mutates its input graph (churn swaps in derived snapshots), so
    sharing is safe across runs and threads.
    """
    global _hits, _misses
    key = spec.digest()
    with _lock:
        graph = _cache.get(key)
        if graph is not None:
            _cache.move_to_end(key)
            _hits += 1
            return graph
    # Build outside the lock: builds can be slow and are idempotent.
    graph = spec.build_uncached()
    with _lock:
        _misses += 1
        _cache[key] = graph
        _cache.move_to_end(key)
        while len(_cache) > _maxsize:
            _cache.popitem(last=False)
    return graph


def topology_cache_info() -> TopologyCacheInfo:
    """Current hit/miss/size counters."""
    with _lock:
        return TopologyCacheInfo(
            hits=_hits, misses=_misses, size=len(_cache), maxsize=_maxsize
        )


def clear_topology_cache() -> None:
    """Drop every cached graph and reset the counters."""
    global _hits, _misses
    with _lock:
        _cache.clear()
        _hits = 0
        _misses = 0


def set_topology_cache_size(maxsize: int) -> None:
    """Resize the cache (evicting oldest entries if shrinking)."""
    global _maxsize
    if maxsize < 0:
        raise ValueError("cache size must be non-negative")
    with _lock:
        _maxsize = maxsize
        while len(_cache) > _maxsize:
            _cache.popitem(last=False)
