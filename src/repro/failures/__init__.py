"""Crash schedules and fault injection."""

from .._lazy import facade

__all__, __getattr__, __dir__ = facade(
    __name__,
    {
        "schedules": (
            "CrashSchedule", "ScheduleError", "cascade_crash",
            "growing_region_crash", "multi_region_crash", "random_connected_region",
            "random_crashes", "region_crash",
        ),
    },
)
