"""The scale subsystem: sharded multi-core sweep execution.

``repro.scale`` is the foundation for every workload too large for one
core: it fans independent (scenario × seed × topology) simulation runs
across a process pool with deterministic per-run seeding and merges the
results into an order-stable, digest-verifiable report.

* :mod:`repro.scale.task` — picklable task/outcome records and errors;
* :mod:`repro.scale.seeding` — hash-seed-independent seed derivation;
* :mod:`repro.scale.families` — the named scenario-family registry
  (EXP-C1 property cases, adversarial churn cases, churn scenarios, the
  large-torus block family) plus task-list builders;
* :mod:`repro.scale.sweep` — :class:`ShardedSweepRunner` itself.

Determinism invariants:

* a sweep's outcome — every run's canonical trace digest and the merged
  report digest — is a pure function of ``(tasks, base_seed)`` and is
  *independent of the worker count*: per-run seeds derive from
  ``(base_seed, submission index, family, params)`` through SHA-256
  before any work is distributed, and results merge in submission order
  no matter which worker finishes first;
* tasks cross process boundaries as *data* (family name + params, or a
  serialized spec), never as live objects, so a worker rebuilds each
  scenario from scratch and hash-seed differences cannot leak in;
* the engine parallelises *across* runs and composes with the
  partitioned backend (:mod:`repro.sim.partition`), which parallelises
  *inside* one run — a spec with ``runtime.partitions > 1`` inside a
  sweep runs its shards inline on the pool workers (no nested process
  fan-out oversubscribing the host), with an identical digest either
  way.

The determinism regression suite (``tests/integration``) holds the
project to all of this.
"""

from .._lazy import facade

__all__, __getattr__, __dir__ = facade(
    __name__,
    {
        "families": (
            "FamilyFn", "churn_property_tasks", "family_names", "get_family",
            "outcome_from_result", "property_tasks", "register_family", "run_task",
            "torus_scale_tasks", "unregister_family",
        ),
        "seeding": ("derive_seed",),
        "sweep": ("ShardedSweepRunner", "SweepReport", "resolve_workers"),
        "task": (
            "SweepError", "SweepOutcome", "SweepTask", "SweepTaskError",
            "UnknownFamilyError",
        ),
    },
)
