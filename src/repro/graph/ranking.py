"""The region ranking relation ``≺`` of §3.1.

The protocol arbitrates between conflicting views with a strict total
order on regions.  The paper defines ``R ≻ S`` ("R outranks S") iff:

1. ``R`` contains more nodes than ``S``; or
2. they contain the same number of nodes but ``R``'s border contains more
   nodes than ``S``'s border; or
3. both sizes are equal and ``R`` is greater than ``S`` according to some
   strict total order on node sets (the paper suggests a lexicographic
   order on node ids — the concrete choice does not matter as long as it
   is a strict total order and is the same at every node).

The ordering therefore *subsumes set inclusion*: a strict superset always
outranks its subsets, a fact the progress proof (Theorem 4) relies on.

This module provides the canonical ranking plus two deliberately weaker
variants used by the ranking ablation experiment (EXP-A2); the variants
subclass it for ``max_ranked`` and the key they share.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import partial
from typing import Protocol

from .graph import KnowledgeGraph
from .regions import Region


class RegionRanking(Protocol):
    """Interface of a ranking relation usable by the protocol."""

    name: str

    def key(self, graph: KnowledgeGraph, region: Region) -> tuple:
        """Sort key; higher tuples mean higher-ranked regions."""
        ...

    def precedes(self, graph: KnowledgeGraph, lower: Region, higher: Region) -> bool:
        """``lower ≺ higher`` (strictly lower ranked)."""
        ...

    def max_ranked(self, graph: KnowledgeGraph, regions: Iterable[Region]) -> Region:
        """``maxRankedRegion(C)`` — the highest ranked region of a set."""
        ...


class CanonicalRanking:
    """The paper's ranking: size, then border size, then lexicographic.

    Every part of the key is a read: the border is the snapshot's
    memoised answer and the lexicographic part was laid out when the
    region was built.
    """

    name = "canonical"

    def key(self, graph: KnowledgeGraph, region: Region) -> tuple:
        members = region.members
        return (len(members), len(graph.border(members)), region.lexicographic_key())

    def precedes(self, graph: KnowledgeGraph, lower: Region, higher: Region) -> bool:
        if lower == higher:
            return False
        return self.key(graph, lower) < self.key(graph, higher)

    def max_ranked(self, graph: KnowledgeGraph, regions: Iterable[Region]) -> Region:
        candidates = list(regions)
        if not candidates:
            raise ValueError("maxRankedRegion of an empty collection")
        return max(candidates, key=partial(self.key, graph))


class SizeOnlyRanking(CanonicalRanking):
    """Ablation variant: rank by region size only (not a total order).

    Ties between distinct, equally sized regions are broken by the
    lexicographic key *anyway* so that ``max`` stays deterministic, but the
    ``precedes`` relation deliberately reports ``False`` on size ties —
    which is how a practitioner might naively implement the rule and what
    EXP-A2 measures the consequences of.
    """

    name = "size-only"

    def key(self, graph: KnowledgeGraph, region: Region) -> tuple:
        return (len(region), region.lexicographic_key())

    def precedes(self, graph: KnowledgeGraph, lower: Region, higher: Region) -> bool:
        if lower == higher:
            return False
        return len(lower) < len(higher)


class SizeBorderRanking(CanonicalRanking):
    """Ablation variant: size then border size, no lexicographic tie-break.

    ``max`` uses the full canonical key, so it stays deterministic; only
    ``precedes`` stops at the border size.
    """

    name = "size-border"

    def precedes(self, graph: KnowledgeGraph, lower: Region, higher: Region) -> bool:
        if lower == higher:
            return False
        return self.key(graph, lower)[:2] < self.key(graph, higher)[:2]


#: The ranking used everywhere unless an experiment overrides it.
DEFAULT_RANKING = CanonicalRanking()

#: All rankings, keyed by name, for the ablation harness.
RANKINGS: dict[str, RegionRanking] = {
    ranking.name: ranking
    for ranking in (CanonicalRanking(), SizeOnlyRanking(), SizeBorderRanking())
}


def region_precedes(
    graph: KnowledgeGraph,
    lower: Region,
    higher: Region,
    ranking: RegionRanking = DEFAULT_RANKING,
) -> bool:
    """Convenience wrapper: ``lower ≺ higher`` under ``ranking``."""
    return ranking.precedes(graph, lower, higher)


def max_ranked_region(
    graph: KnowledgeGraph,
    regions: Iterable[Region],
    ranking: RegionRanking = DEFAULT_RANKING,
) -> Region:
    """Convenience wrapper for ``maxRankedRegion``."""
    return ranking.max_ranked(graph, regions)
