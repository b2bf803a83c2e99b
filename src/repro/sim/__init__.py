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

from .._lazy import facade

__all__, __getattr__, __dir__ = facade(
    __name__,
    {
        "events": ("EventKind", "PartitionEnvelope", "TraceEvent", "payload_size"),
        "failure_detector": (
            "FailureDetectorPolicy", "JitteredFailureDetector",
            "PerfectFailureDetector", "ScriptedFailureDetector",
        ),
        "faults": (
            "ComposedFaults", "DuplicatingLinks", "FaultModel", "FaultsError",
            "LossyLinks", "ReorderingLinks", "compose_faults",
        ),
        "latency": (
            "ConstantLatency", "ExponentialLatency", "LatencyModel",
            "PerPairLatency", "UniformLatency",
        ),
        "network": ("DEFAULT_MAX_EVENTS", "SimulationError", "Simulator"),
        "process": ("IdleProcess", "Process", "ProcessContext"),
        "scheduler": (
            "EventHandle", "EventScheduler", "KeyedEventScheduler", "SchedulerError",
        ),
    },
)
