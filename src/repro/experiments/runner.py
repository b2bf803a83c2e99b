"""High-level run harness.

Everything the examples, tests and benchmarks need to execute a cliff-edge
consensus scenario in one call: build a simulator over a graph, install a
:class:`~repro.core.protocol.CliffEdgeNode` on every node, apply a crash
schedule, run to quiescence, and package the outcome (trace, metrics,
decisions, property report) into a
:class:`~repro.api.result.RunResult`.  With a membership schedule the
same body is the churn runner.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from ..api.result import RunResult
from ..core import CliffEdgeNode, DEFAULT_DECISION_POLICY, DecisionPolicy
from ..core.properties import check_all  # noqa: F401  (the perf ledger wraps this binding)
from ..failures import CrashSchedule
from ..graph import DEFAULT_RANKING, KnowledgeGraph, NodeId, RegionRanking
from ..sim import EventScheduler, FailureDetectorPolicy, FaultModel, LatencyModel, Simulator
from ..trace import TraceRecorder, collect_metrics  # noqa: F401  (and this one)

if TYPE_CHECKING:  # pragma: no cover - repro.churn imports this package
    from ..churn.membership import MembershipSchedule


def build_simulator(
    graph: KnowledgeGraph,
    schedule: CrashSchedule,
    membership: Optional[MembershipSchedule] = None,
    decision_policy: DecisionPolicy = DEFAULT_DECISION_POLICY,
    ranking: RegionRanking = DEFAULT_RANKING,
    latency: Optional[LatencyModel] = None,
    failure_detector: Optional[FailureDetectorPolicy] = None,
    seed: int = 0,
    arbitration_enabled: bool = True,
    early_termination: bool = False,
    node_factory: Optional[Callable[[NodeId], CliffEdgeNode]] = None,
    batch_dispatch: bool = True,
    collection: str = "trace",
    faults: Optional[FaultModel] = None,
) -> Simulator:
    """Build a ready-to-run simulator with the protocol on every node.

    ``membership`` adds timed joins, recoveries and leaves to the crash
    schedule.  ``collection="digest"`` records no event log: the trace
    recorder folds the canonical digest and the run metrics as events
    fire.  ``faults`` installs a deterministic link-fault model
    (:mod:`repro.sim.faults`); ``None`` keeps reliable FIFO channels.
    """
    if membership is None:
        schedule.validate(graph)
    else:
        membership.validate(graph, schedule)
    sim = Simulator(
        graph,
        latency=latency,
        failure_detector=failure_detector,
        seed=seed,
        trace=TraceRecorder(collection=collection),
        scheduler=EventScheduler(batch_dispatch=batch_dispatch),
        faults=faults,
    )

    def default_factory(node_id: NodeId) -> CliffEdgeNode:
        return CliffEdgeNode(
            node_id,
            decision_policy=decision_policy,
            ranking=ranking,
            arbitration_enabled=arbitration_enabled,
            early_termination=early_termination,
        )

    sim.populate(node_factory if node_factory is not None else default_factory)
    if membership is None:
        # The schedule's own order — so not the same run as an empty
        # membership schedule when same-time crashes are listed out of
        # ``repr`` order (the digests differ).
        schedule.applied_to(sim)
    else:
        # One canonical merged timeline (crash-first on timestamp ties)
        # keeps the simulator's tie-breaking identical to validate() and
        # asyncio.
        membership.applied_to(sim, crashes=schedule)
    return sim


def run_cliff_edge(
    graph: KnowledgeGraph,
    schedule: CrashSchedule,
    membership: Optional[MembershipSchedule] = None,
    decision_policy: DecisionPolicy = DEFAULT_DECISION_POLICY,
    ranking: RegionRanking = DEFAULT_RANKING,
    latency: Optional[LatencyModel] = None,
    failure_detector: Optional[FailureDetectorPolicy] = None,
    seed: int = 0,
    arbitration_enabled: bool = True,
    early_termination: bool = False,
    node_factory: Optional[Callable[[NodeId], CliffEdgeNode]] = None,
    check: bool = False,
    max_events: int = 5_000_000,
    until: Optional[float] = None,
    batch_dispatch: bool = True,
    collection: str = "trace",
    faults: Optional[FaultModel] = None,
) -> RunResult:
    """Run a full cliff-edge consensus scenario and collect the results.

    Parameters
    ----------
    graph, schedule:
        Topology and crash schedule of the scenario.
    membership:
        ``None`` is the paper's static run; a ``MembershipSchedule``
        (even an empty one) makes it a churn run, reported with epochs
        and checked by the epoch-quotiented checkers.
    decision_policy, ranking, latency, failure_detector, seed:
        Protocol and substrate knobs (see the respective classes).
    arbitration_enabled:
        Disable the reject rule for the EXP-A1 ablation.
    early_termination:
        Enable the footnote-6 early-termination optimisation (EXP-A3).
    node_factory:
        Override how protocol instances are created (custom policies).
    check:
        When True, run the CD1–CD7 checkers and attach the report.
    max_events, until:
        Safety bounds forwarded to :meth:`Simulator.run`.
    batch_dispatch:
        Scheduler dispatch mode (the unbatched reference loop exists for
        the determinism regression suite).
    collection:
        ``"trace"`` (default) keeps the full columnar trace;
        ``"digest"`` streams digest + metrics only and keeps no event
        log.  Digest mode cannot be combined with ``check=True`` or a
        ``membership`` schedule (the CD1–CD7 checkers and epoch
        reconstruction walk the full trace).
    faults:
        Optional deterministic link-fault model (loss / duplication /
        reordering, :mod:`repro.sim.faults`); ``None`` keeps the paper's
        reliable FIFO channels.
    """
    if collection == "digest" and check:
        raise ValueError(
            "collection='digest' keeps no event log, so the CD1-CD7 "
            "checkers cannot run; use check=False or collection='trace'"
        )
    if collection == "digest" and membership is not None:
        raise ValueError(
            "collection='digest' keeps no event log, so churn epoch "
            "reconstruction cannot run; use collection='trace'"
        )
    sim = build_simulator(
        graph,
        schedule,
        membership,
        decision_policy=decision_policy,
        ranking=ranking,
        latency=latency,
        failure_detector=failure_detector,
        seed=seed,
        arbitration_enabled=arbitration_enabled,
        early_termination=early_termination,
        node_factory=node_factory,
        batch_dispatch=batch_dispatch,
        collection=collection,
        faults=faults,
    )
    sim.run(until=until, max_events=max_events)
    return RunResult.from_trace(
        sim.graph,
        schedule,
        sim.trace,
        membership=membership,
        base_graph=graph,
        check=check,
        quiescent=sim.is_quiescent(),
        simulator=sim,
    )
