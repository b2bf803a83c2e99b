"""The declarative experiment API — the repo's single front door.

``repro.api`` turns every run in the repository into *data*:

* :mod:`repro.api.specs` — frozen, JSON-round-trippable spec dataclasses
  (:class:`TopologySpec`, :class:`FailureSpec`, :class:`MembershipSpec`,
  :class:`RuntimeSpec`, :class:`ExperimentSpec`, :class:`SweepSpec`) with
  canonical digests;
* :mod:`repro.api.cache` — the spec-keyed topology build cache;
* :mod:`repro.api.result` — :class:`RunResult`, the one outcome every
  substrate returns (``RunResult.from_trace`` is the only place a
  finished trace is packaged), and the :class:`Result` protocol it
  shares with ``SweepReport``;
* :mod:`repro.api.session` — :class:`ExperimentSession`, which resolves a
  spec to the right runtime/runner and executes it;
* :mod:`repro.api.presets` — the one description of every shipped
  experiment: what the scenario builders, the sweep families and the CLI
  subcommands run, and what ``--emit-spec`` prints.

Quick start::

    from repro.api import ExperimentSpec, TopologySpec, FailureSpec, run_spec

    spec = ExperimentSpec(
        topology=TopologySpec("grid", {"width": 6, "height": 6}),
        failure=FailureSpec("region", {"members": [[2, 2], [2, 3], [3, 2], [3, 3]]}),
    )
    result = run_spec(spec)
    assert result.specification.holds
    print(result.summary())

The same spec serializes with ``spec.to_json()`` and runs from the shell
with ``python -m repro run SPEC.json``.

Determinism invariants:

* spec digests are canonical — independent of ``PYTHONHASHSEED``, dict
  insertion order, field spelling (collections are normalised at
  construction) and the process computing them; they key the topology
  build cache and fingerprint sweep documents;
* resolving and running the same spec document in one process always
  produces the same result digest, whichever execution path the session
  picks — sequential simulator with or without a membership schedule,
  or the partitioned backend selected by ``RuntimeSpec.partitions``
  (serialized only when it differs from 1, so pre-partitioning documents
  and their digests are unchanged).  Across processes that holds for
  int and tuple-of-int node ids (every generated topology); the figure
  documents' ``str`` ids make their run digest depend on
  ``PYTHONHASHSEED`` (docs/ARCHITECTURE.md, "Determinism and the hash
  seed");
* ``Result.digest()`` is a pure function of the run's trace, never of
  labels, timing, or which worker/backend produced it.
"""

from .._lazy import facade

__all__, __getattr__, __dir__ = facade(
    __name__,
    {
        "cache": (
            "TopologyCacheInfo", "build_topology", "clear_topology_cache",
            "set_topology_cache_size", "topology_cache_info",
        ),
        "extractors": ("EXTRACTOR_KINDS", "get_extractor"),
        "presets": (
            "FAULT_PRESETS", "churn_property_case_spec", "churn_scenario_description",
            "churn_scenario_spec", "fault_preset", "fault_sweep_spec", "figure_spec",
            "locality_sweep_spec", "property_case_spec", "property_sweep_spec",
            "quickstart_spec", "repair_spec", "torus_block_spec", "torus_region_spec",
            "torus_sweep_spec",
        ),
        "result": (
            "AggregateSpecification", "Result", "RunResult", "json_safe",
        ),
        "session": ("ExperimentSession", "run_spec", "run_spec_json"),
        "specs": (
            "SPEC_VERSION", "TOPOLOGY_KINDS", "ExperimentSpec", "FailureSpec",
            "MembershipSpec", "RuntimeSpec", "SpecError", "SweepSpec",
            "TopologySpec", "iter_specs", "load_spec", "spec_digest",
            "spec_from_dict",
        ),
    },
)
