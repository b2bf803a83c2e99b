"""Experiment harness: figure runs, baselines, ablations and table printers."""

from .._lazy import facade

__all__, __getattr__, __dir__ = facade(
    __name__,
    {
        "ablation": (
            "ArbitrationPoint", "EarlyTerminationPoint", "RankingPoint",
            "arbitration_ablation", "early_termination_ablation", "ranking_ablation",
        ),
        "baseline_comparison": (
            "BaselineComparisonPoint", "GossipComparisonPoint",
            "UncoordinatedComparisonPoint", "global_consensus_comparison",
            "gossip_comparison", "uncoordinated_comparison",
        ),
        "degradation": (
            "EXCUSED_PROPERTIES", "DegradationPoint", "DegradationReport",
            "degradation_from_sweep", "excuse_set", "run_degradation",
            "sweep_fault_axes",
        ),
        "overlay_repair": ("OverlayRepairRun", "run_overlay_repair"),
        "report": ("ReportSection", "build_report", "failed_claims", "render_report"),
        "runner": ("RunResult", "build_simulator", "run_cliff_edge"),
        "scenarios": (
            "Fig1bObservations", "Fig2Observations", "Fig3Observations",
            "fig1a_scenario", "fig1b_scenario", "fig2_scenario", "fig3_scenario",
            "run_fig1b", "run_fig2", "run_fig3",
        ),
        "tables": (
            "case_row", "format_markdown_table", "format_table", "locality_is_flat",
            "rows_to_csv", "summarise_numeric", "sweep_summary",
        ),
        "topologies": (
            "FIG1_F1", "FIG1_F1_BORDER", "FIG1_F2", "FIG1_F2_BORDER", "FIG1_F3",
            "FIG1_F3_BORDER", "Fig2Layout", "Fig3Layout", "fig1_topology",
            "fig2_topology", "fig3_topology",
        ),
    },
)
