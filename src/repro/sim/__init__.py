"""Deterministic discrete-event simulation substrate.

:mod:`~repro.sim.substrate` is the kernel every execution substrate
shares (processes, failure detection, membership, the fault decision);
:mod:`~repro.sim.network` is the simulator adapter over it.

Determinism invariants (what every module in this package preserves):

* a run is a pure function of ``(topology, processes, schedules, latency
  model, failure-detector policy, seed)`` — all nondeterminism lives in
  the seeded RNG, and handlers are never invoked outside the event loop;
* events execute in ``(timestamp, insertion order)`` — the scheduler's
  batched fast path, lazy-deletion compaction, and the keyed scheduler
  of the partitioned backend are all invisible to that order;
* channels are reliable and FIFO per ordered node pair (the delivery
  clamp in :meth:`Simulator._send`), crashed nodes stop instantly, and
  the failure detector is perfect — unless a :mod:`repro.sim.faults`
  model is installed, which breaks the channel assumptions *on purpose*
  with decisions that are themselves a pure function of the seed and
  each message's identity;
* the partitioned backend (:mod:`repro.sim.partition`) splits one run
  across shard schedulers and merges a trace *bit-identical* to the
  sequential simulator's — see that module's docstring for how.
"""

from .events import EventKind, PartitionEnvelope, TraceEvent, payload_size
from .failure_detector import (
    FailureDetectorPolicy,
    JitteredFailureDetector,
    PerfectFailureDetector,
    ScriptedFailureDetector,
)
from .faults import (
    ComposedFaults,
    DuplicatingLinks,
    FaultModel,
    FaultsError,
    LossyLinks,
    ReorderingLinks,
    compose_faults,
)
from .latency import (
    ConstantLatency,
    ExponentialLatency,
    LatencyModel,
    PerPairLatency,
    UniformLatency,
)
from .network import DEFAULT_MAX_EVENTS, SimulationError, Simulator
from .process import IdleProcess, Process, ProcessContext
from .scheduler import (
    EventHandle,
    EventScheduler,
    KeyedEventScheduler,
    SchedulerError,
)

__all__ = [
    "EventKind",
    "TraceEvent",
    "PartitionEnvelope",
    "payload_size",
    "FailureDetectorPolicy",
    "PerfectFailureDetector",
    "JitteredFailureDetector",
    "ScriptedFailureDetector",
    "LatencyModel",
    "ConstantLatency",
    "UniformLatency",
    "ExponentialLatency",
    "PerPairLatency",
    "FaultModel",
    "FaultsError",
    "LossyLinks",
    "DuplicatingLinks",
    "ReorderingLinks",
    "ComposedFaults",
    "compose_faults",
    "Simulator",
    "SimulationError",
    "DEFAULT_MAX_EVENTS",
    "Process",
    "ProcessContext",
    "IdleProcess",
    "EventScheduler",
    "KeyedEventScheduler",
    "EventHandle",
    "SchedulerError",
]
