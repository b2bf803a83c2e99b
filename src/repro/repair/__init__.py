"""Overlay-repair application built on cliff-edge consensus."""

from .._lazy import facade

__all__, __getattr__, __dir__ = facade(
    __name__,
    {
        "executor": ("RepairError", "RepairOutcome", "apply_decisions"),
        "overlay": ("RingOverlay",),
        "plans": ("RepairPlan", "RingRepairPolicy", "plan_for_view"),
    },
)
