"""The virtual-time runtime: real asyncio protocol code, simulator clock.

:class:`VirtualRuntime` runs the *unmodified*
:class:`~repro.runtime.async_runtime.AsyncRuntime` — the same Process
classes, inboxes, node tasks, timers, crash notifications and membership
mechanics the wall-clock runtime uses — on a
:class:`~repro.vtime.loop.VirtualClockEventLoop`.  Every ``await
asyncio.sleep`` inside the runtime (schedule pacing, quiescence polling)
and every ``loop.call_later`` (detector notifications, protocol timers)
lands in the virtual scheduler, so a run:

* performs **zero real sleeps** — wall-clock cost is the cost of the
  callbacks themselves, typically simulator speed;
* is a **pure function of its inputs** — task wakeup order is fixed by
  the loop's genealogical keys, so the trace (and therefore the
  canonical digest) is identical across repeated runs, across
  ``PYTHONHASHSEED`` values, and across host machines;
* keeps the asyncio timing *model* — zero message latency, scaled
  detector delays — so wall-clock and virtual runs of the same scenario
  are the same code following the same clock, one real and one simulated.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..failures import CrashSchedule
from ..graph import KnowledgeGraph, NodeId
from ..api.result import RunResult
from ..runtime.async_runtime import AsyncRuntime
from ..sim.failure_detector import FailureDetectorPolicy
from ..sim.faults import FaultModel
from ..sim.process import Process
from .loop import VirtualClockEventLoop


class VirtualRuntime:
    """Drives an :class:`AsyncRuntime` to completion on virtual time.

    The constructor mirrors :class:`AsyncRuntime` (plus the optional
    ``failure_detector`` policy both now share); configuration calls
    (``add_process``/``populate``/``process``) delegate to the wrapped
    runtime, and :meth:`run` is synchronous — the virtual loop needs no
    ``asyncio.run``.
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
        self.loop = VirtualClockEventLoop()
        self.runtime = AsyncRuntime(
            graph,
            detection_delay=detection_delay,
            time_scale=time_scale,
            seed=seed,
            failure_detector=failure_detector,
            faults=faults,
        )

    # -- delegated configuration ---------------------------------------
    @property
    def graph(self) -> KnowledgeGraph:
        return self.runtime.graph

    @property
    def trace(self):
        return self.runtime.trace

    def add_process(self, node_id: NodeId, process: Process) -> None:
        self.runtime.add_process(node_id, process)

    def populate(self, factory: Callable[[NodeId], Process]) -> None:
        self.runtime.populate(factory)

    def process(self, node_id: NodeId) -> Process:
        return self.runtime.process(node_id)

    def now(self) -> float:
        return self.runtime.now()

    # -- execution ------------------------------------------------------
    def run(
        self,
        schedule: CrashSchedule,
        timeout: float = 30.0,
        settle_time: float = 0.05,
        membership: Any = None,
        max_events: Optional[int] = None,
    ) -> RunResult:
        """Execute the scenario entirely in virtual time.

        ``timeout`` and ``settle_time`` keep their :class:`AsyncRuntime`
        meanings but are measured on the virtual clock — a run that would
        poll for 30 wall seconds completes the moment its callbacks do.
        ``max_events`` bounds the number of loop callbacks (the virtual
        analogue of the simulator's event budget).
        """
        result = self.loop.run_until_complete(
            self.runtime.run(
                schedule,
                timeout=timeout,
                settle_time=settle_time,
                membership=membership,
            ),
            max_events=max_events,
        )
        # The wrapped runtime does not know which loop drives it.
        result.runtime = "asyncio-virtual"
        return result
