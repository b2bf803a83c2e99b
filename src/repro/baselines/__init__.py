"""Baselines the paper motivates verbally: global consensus, gossip,
uncoordinated repair."""

from .._lazy import facade

__all__, __getattr__, __dir__ = facade(
    __name__,
    {
        "global_consensus": (
            "GlobalBaselineResult", "GlobalCrashMapNode", "run_global_baseline",
        ),
        "gossip": ("GossipBaselineResult", "GossipViewNode", "run_gossip_baseline"),
        "uncoordinated": (
            "UncoordinatedBaselineResult", "UncoordinatedRepairNode",
            "run_uncoordinated_baseline",
        ),
    },
)
