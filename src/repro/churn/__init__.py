"""Dynamic membership (churn): joins, recoveries, leaves, and the
epoch-quotiented CD1–CD7 specification.

The paper's protocol assumes a static graph and permanent crashes.  This
package removes both assumptions while keeping the specification
checkable:

* :mod:`repro.churn.membership` — immutable timed join/recover/leave
  schedules composing with :class:`~repro.failures.CrashSchedule`, plus
  builders for the churn scenario families;
* :mod:`repro.churn.attachment` — edge re-attachment policies for nodes
  entering a new membership epoch;
* :mod:`repro.churn.epochs` — slicing a churned trace into
  constant-membership epochs with their graphs;
* :mod:`repro.churn.properties` — the epoch-quotiented CD1–CD7 checkers.

A churn run starts like any other: ``run_cliff_edge(graph, schedule,
membership)`` on the simulator, ``run_asyncio(graph, schedule,
membership)`` on asyncio, or a spec with a membership block.
"""

from .._lazy import facade

__all__, __getattr__, __dir__ = facade(
    __name__,
    {
        "attachment": (
            "AttachmentError", "AttachmentPolicy", "FreshJoinByLocality",
            "RejoinOldEdges", "RejoinViaRepairPlan",
        ),
        "epochs": ("MembershipEpoch", "build_epochs"),
        "membership": (
            "MembershipError", "MembershipEvent", "MembershipEventKind",
            "MembershipSchedule", "crash_recover_recrash", "flash_crowd_joins",
            "join", "leave", "recover", "recovery_for", "steady_state_churn",
        ),
        "properties": (
            "ChurnGroundTruth", "build_ground_truth", "check_churn_all",
        ),
    },
)
