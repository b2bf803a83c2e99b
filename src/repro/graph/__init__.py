"""Knowledge-graph substrate: topology, regions, borders and ranking."""

from .._lazy import facade

__all__, __getattr__, __dir__ = facade(
    __name__,
    {
        "graph": ("GraphError", "KnowledgeGraph", "NodeId"),
        "ranking": (
            "DEFAULT_RANKING", "RANKINGS", "CanonicalRanking", "RegionRanking",
            "SizeBorderRanking", "SizeOnlyRanking", "max_ranked_region",
            "region_precedes",
        ),
        "regions": (
            "Region", "RegionError", "are_adjacent", "cluster_border", "clustered",
            "faulty_clusters", "faulty_domains",
        ),
        "generators": (),  # the module is the export
    },
)
