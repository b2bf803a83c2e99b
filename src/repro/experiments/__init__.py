"""Experiment harness: figure runs, sweeps and table printers."""

import sys

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
        "locality": (
            "LocalityPoint", "locality_is_flat", "region_size_sweep",
            "run_torus_region_scenario", "system_size_sweep",
        ),
        "overlay_repair": (
            "OverlayRepairPoint", "OverlayRepairRun", "overlay_repair_sweep",
            "run_overlay_repair",
        ),
        "property_sweep": (
            "case_row", "churn_property_sweep", "property_sweep", "sweep_summary",
        ),
        "report": ("ReportSection", "build_report", "failed_claims", "render_report"),
        "runner": ("RunResult", "build_simulator", "run_cliff_edge"),
        "scenarios": (
            "Fig1bObservations", "Fig2Observations", "Fig3Observations",
            "fig1a_scenario", "fig1b_scenario", "fig2_scenario", "fig3_scenario",
            "run_fig1b", "run_fig2", "run_fig3",
        ),
        "tables": (
            "format_markdown_table", "format_table", "rows_to_csv",
            "summarise_numeric",
        ),
        "topologies": (
            "FIG1_F1", "FIG1_F1_BORDER", "FIG1_F2", "FIG1_F2_BORDER", "FIG1_F3",
            "FIG1_F3_BORDER", "Fig2Layout", "Fig3Layout", "fig1_topology",
            "fig2_topology", "fig3_topology",
        ),
    },
)


class _Package(type(sys)):
    """``property_sweep`` is an export *and* the submodule that defines it.
    The import system binds a submodule over its package's attribute the
    moment anyone imports it, and ``__getattr__`` is never asked for a name
    that exists — so the name is a data descriptor: always the function,
    whoever imported what first, as the eager import used to leave it."""

    @property
    def property_sweep(self):
        from .property_sweep import property_sweep

        return property_sweep

    @property_sweep.setter
    def property_sweep(self, module):
        pass


sys.modules[__name__].__class__ = _Package
