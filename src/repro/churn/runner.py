"""Churn-scenario entry points on both runtimes.

A churn run is a run with a membership schedule, so nothing here
executes or packages one: :func:`run_churn` forwards to the one
simulator runner (:func:`repro.experiments.runner.run_cliff_edge`),
:func:`run_churn_asyncio` to the asyncio runtime — wall-clock, or the
virtual-time loop with ``virtual=True`` (:mod:`repro.vtime`) — and both
return the one :class:`~repro.api.result.RunResult`, of which
``ChurnRunResult`` is the former name.  What the module keeps is the
public signatures and their defaults (``timeout=60.0`` here, ``30.0`` on
the static twins).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..api.result import RunResult
from ..core import CliffEdgeNode, DEFAULT_DECISION_POLICY, DecisionPolicy
from ..failures import CrashSchedule
from ..graph import DEFAULT_RANKING, KnowledgeGraph, NodeId, RegionRanking
from ..runtime import run_cliff_edge_asyncio
from ..sim import FailureDetectorPolicy, FaultModel, LatencyModel
from ..sim.process import Process
from ..trace import collect_metrics  # noqa: F401  (the perf ledger wraps this binding)
from .membership import MembershipSchedule
from .properties import check_churn_all  # noqa: F401  (and this one)

ChurnRunResult = RunResult


def run_churn(
    graph: KnowledgeGraph,
    schedule: CrashSchedule,
    membership: MembershipSchedule,
    decision_policy: DecisionPolicy = DEFAULT_DECISION_POLICY,
    ranking: RegionRanking = DEFAULT_RANKING,
    latency: Optional[LatencyModel] = None,
    failure_detector: Optional[FailureDetectorPolicy] = None,
    seed: int = 0,
    node_factory: Optional[Callable[[NodeId], Process]] = None,
    check: bool = False,
    max_events: int = 5_000_000,
    until: Optional[float] = None,
    batch_dispatch: bool = True,
    faults: Optional[FaultModel] = None,
) -> RunResult:
    """Run a churn scenario on the deterministic simulator."""
    # Imported here: repro.experiments imports this package.
    from ..experiments.runner import run_cliff_edge

    return run_cliff_edge(
        graph,
        schedule,
        membership,
        decision_policy=decision_policy,
        ranking=ranking,
        latency=latency,
        failure_detector=failure_detector,
        seed=seed,
        node_factory=node_factory,
        check=check,
        max_events=max_events,
        until=until,
        batch_dispatch=batch_dispatch,
        faults=faults,
    )


def run_churn_asyncio(
    graph: KnowledgeGraph,
    schedule: CrashSchedule,
    membership: MembershipSchedule,
    node_factory: Optional[Callable[[NodeId], Process]] = None,
    detection_delay: float = 0.01,
    time_scale: float = 0.01,
    timeout: float = 60.0,
    seed: int = 0,
    check: bool = False,
    virtual: bool = False,
    failure_detector: Optional[FailureDetectorPolicy] = None,
    max_events: Optional[int] = None,
    faults: Optional[FaultModel] = None,
) -> RunResult:
    """Run the same churn scenario on the asyncio runtime.

    ``virtual=True`` drives the identical runtime code on the
    deterministic virtual-time loop (:mod:`repro.vtime`): zero real
    sleeps, digest-reproducible, and ``max_events`` bounds the loop's
    callback budget.  ``failure_detector`` (a simulator policy object)
    and ``faults`` (a :mod:`repro.sim.faults` model — fault decisions
    are keyed by message identity, so only the virtual loop makes the
    resulting run reproducible end to end) work on both clocks.
    """
    knobs = {
        "node_factory": node_factory if node_factory is not None else CliffEdgeNode,
        "detection_delay": detection_delay,
        "time_scale": time_scale,
        "timeout": timeout,
        "membership": membership,
        "seed": seed,
        "failure_detector": failure_detector,
        "faults": faults,
    }
    if virtual:
        from ..vtime import run_cliff_edge_virtual

        result = run_cliff_edge_virtual(graph, schedule, max_events=max_events, **knobs)
    else:
        result = run_cliff_edge_asyncio(graph, schedule, **knobs)
    if check:
        result.check_specification(include_liveness=result.quiescent)
    return result


def run_churn_virtual(
    graph: KnowledgeGraph,
    schedule: CrashSchedule,
    membership: MembershipSchedule,
    **kwargs: Any,
) -> RunResult:
    """Shorthand for :func:`run_churn_asyncio` with ``virtual=True``."""
    return run_churn_asyncio(graph, schedule, membership, virtual=True, **kwargs)
