"""Asyncio runtime.

The discrete-event simulator is the reference substrate (deterministic,
fast, exhaustively checkable).  :class:`AsyncRuntime` is the
:class:`~repro.sim.substrate.Substrate` adapter over an asyncio event
loop: the kernel owns the processes, failure detection and the
membership control plane; this module adds one task and one FIFO inbox
per node, the scaled clock, and the zero-latency message path.  Messages
are delivered in send order per channel but interleaving across nodes is
up to the event loop, exactly like the paper's asynchronous model.  The
loop may be the stock wall-clock one or
:class:`~repro.vtime.loop.VirtualClockEventLoop`; nothing here knows
which.

It exists for two reasons:

* a credibility check — the protocol logic is runtime-agnostic and the
  integration tests verify that asyncio runs reach the same decisions as
  simulator runs on the same scenarios;
* a stepping stone for anyone who wants to port the protocol onto a real
  transport: replace the queue plumbing with sockets and keep the
  processes untouched.
"""

from __future__ import annotations

import asyncio
import random
from collections.abc import Callable
from typing import Any, Optional

from ..api.result import RunResult
from ..failures import CrashSchedule
from ..graph import KnowledgeGraph, NodeId
from ..sim.events import EventKind
from ..sim.failure_detector import FailureDetectorPolicy
from ..sim.faults import FaultModel
from ..sim.process import Process
from ..sim.substrate import SimulationError, Substrate
from ..trace import collect_metrics  # noqa: F401  (the perf ledger wraps this binding)


AsyncRunResult = RunResult


class AsyncRuntime(Substrate):
    """Runs processes over asyncio tasks and queues.

    Parameters
    ----------
    graph:
        The knowledge graph shared by all nodes.
    detection_delay:
        Real-time delay (seconds) between a crash and its notifications —
        the perfect failure detector's latency.
    time_scale:
        Multiplier applied to the *simulated* times of a
        :class:`CrashSchedule` to turn them into real seconds.  The default
        compresses a typical scenario into well under a second.
    failure_detector:
        Optional :class:`~repro.sim.failure_detector.FailureDetectorPolicy`
        deciding per-(subscriber, crashed) notification delays in
        *simulated* time units (scaled by ``time_scale``, like the crash
        schedule itself).  ``None`` keeps the flat ``detection_delay``.
        This is the same policy object the simulator takes, so scripted
        scenarios run identically on both substrates.
    faults:
        Optional :class:`~repro.sim.faults.FaultModel`.  The same model
        object the simulator takes: decisions are keyed by the run seed
        and each message's per-channel send index, so on the virtual-time
        loop the fault pattern is identical to the simulator's.  Reorder
        offsets are simulated-time units (scaled by ``time_scale``).
    """

    def __init__(
        self,
        graph: KnowledgeGraph,
        detection_delay: float = 0.01,
        time_scale: float = 0.01,
        seed: int = 0,
        failure_detector: Optional[FailureDetectorPolicy] = None,
        faults: Optional[FaultModel] = None,
    ) -> None:
        super().__init__(graph, failure_detector, seed=seed, faults=faults)
        self.detection_delay = detection_delay
        self.time_scale = time_scale
        self._inboxes: dict[NodeId, asyncio.Queue] = {}
        self._tasks: dict[NodeId, asyncio.Task] = {}
        self._pending_callbacks = 0
        self._activity = 0
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._start_time = 0.0
        #: The first exception a handler raised inside a node task.
        self._handler_error: Optional[SimulationError] = None
        #: Dedicated stream for detector-policy jitter, so attachment
        #: resolution (the kernel's ``_rng``) and detection delays never
        #: perturb each other.
        self._detector_rng = random.Random(seed)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def now(self) -> float:
        if self._loop is None:
            return 0.0
        return self._loop.time() - self._start_time

    _now = now

    async def run(
        self,
        schedule: CrashSchedule,
        timeout: float = 30.0,
        settle_time: float = 0.05,
        membership: Any = None,
    ) -> RunResult:
        """Execute the scenario and wait for quiescence (or ``timeout``).

        ``membership`` is an optional
        :class:`~repro.churn.membership.MembershipSchedule`; its timed
        join/recover/leave events are interleaved with the crash schedule
        on the same scaled clock, exactly as the simulator does.
        """
        if membership is None:
            schedule.validate(self.graph)
        else:
            membership.validate(self.graph, schedule)
        missing = self.graph.nodes - self._processes.keys()
        if missing:
            raise SimulationError(
                f"{len(missing)} graph nodes have no process installed"
            )
        self._loop = asyncio.get_running_loop()
        self._start_time = self._loop.time()
        base_graph = self.graph

        nodes = sorted(self._processes, key=repr)
        for node in nodes:
            self._wire(node)
        crash_task: Optional[asyncio.Task] = None
        try:
            for node in nodes:
                self.trace.emit(self.now(), EventKind.NODE_STARTED, node=node)
                self._processes[node].on_start(self._contexts[node])
            crash_task = asyncio.create_task(self._apply_schedule(schedule, membership))
            quiescent = await self._wait_for_quiescence(crash_task, timeout, settle_time)
            if self._handler_error is not None:
                raise self._handler_error
            if crash_task.done() and not crash_task.cancelled():
                schedule_error = crash_task.exception()
                if schedule_error is not None:
                    # A crash/membership event failed to apply (bad
                    # attachment, impossible recovery, ...).  Swallowing it
                    # would report a quiescent-looking run that silently
                    # truncated the scenario; surface it like the
                    # simulator does.
                    raise schedule_error
        finally:
            # However the run ends — a handler raising in on_start
            # included — no node task outlives it.
            tasks = [crash_task] if crash_task is not None else []
            tasks.extend(self._tasks.values())
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)

        return RunResult.from_trace(
            self.graph,
            schedule,
            self.trace,
            membership=membership,
            base_graph=base_graph,
            runtime="asyncio",
            quiescent=quiescent,
        )

    # ------------------------------------------------------------------
    # The seam
    # ------------------------------------------------------------------
    def _defer(self, delay: float, callback: Callable[[], None], fanout: Any = None) -> None:
        self._pending_callbacks += 1
        self._loop.call_later(delay, self._fire, callback)

    def _fire(self, callback: Callable[[], None]) -> None:
        self._pending_callbacks -= 1
        callback()

    def _dispatch(self, node: NodeId, kind: str, payload: Any) -> None:
        self._inboxes[node].put_nowait((kind, payload))

    def _detector_delay(self, observer: NodeId, subject: NodeId) -> float:
        if self.failure_detector is None:
            return self.detection_delay
        return self.failure_detector.delay(observer, subject, self._detector_rng) * self.time_scale

    def _wire(self, node: NodeId) -> None:
        old_task = self._tasks.get(node)
        if old_task is not None:
            old_task.cancel()
        self._inboxes[node] = asyncio.Queue()
        self._tasks[node] = asyncio.create_task(self._node_loop(node))

    def _notifiable(self, subscriber: NodeId, kind: EventKind) -> bool:
        # A crash here has always scheduled (guard-dropped) notifications
        # for stopped subscribers too.  Each is one call_later, and the
        # perf ledger pins vtime_churn256's ``vtime.loop.callbacks`` at
        # exactly 15 168 — 8 of them these — so the kernel's skip applies
        # to leaves only.  Nothing is drawn for them when no jittered
        # policy is set, and no digest moves either way.
        return kind is EventKind.NODE_CRASHED or super()._notifiable(subscriber, kind)

    # ------------------------------------------------------------------
    # Node tasks and the schedule
    # ------------------------------------------------------------------
    async def _node_loop(self, node: NodeId) -> None:
        inbox = self._inboxes[node]
        while True:
            try:
                kind, payload = await inbox.get()
            except asyncio.CancelledError:
                # Cancelling is how a node task is told to stop.  Leaving
                # quietly matters: a task that ends *cancelled* keeps the
                # traceback, whose frames hold this runtime and — through
                # ``f_back`` — whoever drives it: a cycle around every node.
                return
            self._activity += 1
            if node in self._crashed or node in self._departed:
                continue
            try:
                self._handle(node, kind, payload)
            except Exception as exc:
                # Raised here it would die with this task: the inbox
                # never drains and the run burns its whole timeout to
                # report "not quiescent, nothing decided".  Keep the
                # first one for run() to raise, as the simulator does.
                if self._handler_error is None:
                    self._handler_error = SimulationError(
                        f"handler of node {node!r} raised on a {kind} item: {exc!r}"
                    )
                    self._handler_error.__cause__ = exc
                return

    async def _apply_schedule(
        self, schedule: CrashSchedule, membership: Any = None
    ) -> None:
        # Crashes and membership events share one scaled timeline.  The
        # ordering (including same-timestamp ties) comes from the single
        # canonical MembershipSchedule.timeline(), the same ordering
        # validate() checks and the simulator schedules — so the two
        # runtimes stay in lockstep on ties.
        if membership is not None:
            timeline = membership.timeline(schedule)
        else:
            timeline = sorted(
                ((time, 0, "crash", node, None) for node, time in schedule.crashes),
                key=lambda item: (item[0], item[1], repr(item[3])),
            )
        previous = 0.0
        for time, _, kind, node, event in timeline:
            await asyncio.sleep(max(0.0, (time - previous) * self.time_scale))
            previous = time
            if kind == "crash":
                self._crash(node)
            elif kind == "join":
                self._join(node, event.attachment)
            elif kind == "recover":
                self._recover(node, event.attachment)
            elif kind == "leave":
                self._leave(node)

    # ------------------------------------------------------------------
    # The message path (zero latency: straight into the target's inbox)
    # ------------------------------------------------------------------
    def _send(self, source: NodeId, target: NodeId, message: Any) -> None:
        if source in self._crashed or source in self._departed:
            return
        if target not in self._inboxes:
            raise SimulationError(f"message addressed to unknown node {target!r}")
        now = self.now()
        self.trace.emit(
            now, EventKind.MESSAGE_SENT, node=source, peer=target, payload=message
        )
        # Fault layer first: in the simulator the fault decision happens
        # at the send site (a lost message never reaches the delivery
        # drop-check), and the per-channel counter advances for *every*
        # send, so the decision stream lines up across substrates.
        offsets: tuple[float, ...] = (0.0,)
        if self.faults is not None:
            offsets = self._fault_offsets(source, target, message, now)
            if not offsets:
                return
        if target in self._crashed or target in self._departed:
            self.trace.emit(
                now, EventKind.MESSAGE_DROPPED, node=target, peer=source, payload=message
            )
            return
        if len(offsets) > 1:
            self._record_duplication(source, target, message, now, len(offsets))
        inbox = self._inboxes[target]
        for offset in offsets:
            if offset <= 0.0:
                inbox.put_nowait(("message", (source, message)))
            else:
                self._enqueue_later(offset * self.time_scale, source, target, message)

    def _enqueue_later(
        self, delay: float, source: NodeId, target: NodeId, message: Any
    ) -> None:
        """Deliver one fault-delayed copy after ``delay`` loop seconds."""
        incarnation = self._inc(target)

        def deliver() -> None:
            if target in self._crashed or target in self._departed:
                self.trace.emit(
                    self.now(),
                    EventKind.MESSAGE_DROPPED,
                    node=target,
                    peer=source,
                    payload=message,
                )
            elif self._inc(target) == incarnation:
                self._inboxes[target].put_nowait(("message", (source, message)))

        self._defer(delay, deliver)

    async def _wait_for_quiescence(
        self, crash_task: asyncio.Task, timeout: float, settle_time: float
    ) -> bool:
        deadline = self._loop.time() + timeout
        last_activity = -1
        while self._loop.time() < deadline:
            await asyncio.sleep(settle_time)
            if self._handler_error is not None:
                return False
            inboxes_empty = all(inbox.empty() for inbox in self._inboxes.values())
            idle = (
                crash_task.done()
                and inboxes_empty
                and self._pending_callbacks == 0
                and self._activity == last_activity
            )
            if idle:
                return True
            last_activity = self._activity
        return False


async def run_cliff_edge_async(
    graph: KnowledgeGraph,
    schedule: CrashSchedule,
    node_factory: Callable[[NodeId], Process],
    detection_delay: float = 0.01,
    time_scale: float = 0.01,
    timeout: float = 30.0,
    membership: Any = None,
    seed: int = 0,
    failure_detector: Optional[FailureDetectorPolicy] = None,
    faults: Optional[FaultModel] = None,
) -> RunResult:
    """Convenience wrapper: populate, run, and collect results."""
    runtime = AsyncRuntime(
        graph,
        detection_delay=detection_delay,
        time_scale=time_scale,
        seed=seed,
        failure_detector=failure_detector,
        faults=faults,
    )
    runtime.populate(node_factory)
    return await runtime.run(schedule, timeout=timeout, membership=membership)


def run_cliff_edge_asyncio(
    graph: KnowledgeGraph,
    schedule: CrashSchedule,
    node_factory: Callable[[NodeId], Process],
    detection_delay: float = 0.01,
    time_scale: float = 0.01,
    timeout: float = 30.0,
    membership: Any = None,
    seed: int = 0,
    failure_detector: Optional[FailureDetectorPolicy] = None,
    faults: Optional[FaultModel] = None,
) -> RunResult:
    """Synchronous entry point (creates and drives its own event loop)."""
    return asyncio.run(
        run_cliff_edge_async(
            graph,
            schedule,
            node_factory,
            detection_delay=detection_delay,
            time_scale=time_scale,
            timeout=timeout,
            membership=membership,
            seed=seed,
            failure_detector=failure_detector,
            faults=faults,
        )
    )
