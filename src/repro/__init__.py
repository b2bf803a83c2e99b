"""repro — a reproduction of *Cliff-Edge Consensus: Agreeing on the Precipice*.

The package implements the paper's convergent detection of crashed regions
(cliff-edge consensus) together with everything needed to run and evaluate
it: a knowledge-graph substrate, a deterministic discrete-event simulator
with a perfect failure detector, an asyncio runtime, baselines, an
overlay-repair application, and an experiment harness.

Quick start
-----------
>>> from repro import generators, region_crash, run_cliff_edge
>>> graph = generators.grid(6, 6)
>>> crashed = [(2, 2), (2, 3), (3, 2), (3, 3)]
>>> result = run_cliff_edge(graph, region_crash(graph, crashed), check=True)
>>> result.specification.holds
True
>>> len(result.decided_views)
1

``import repro`` is cheap: this module and every package below it state
their exports as a ``submodule → names`` table (:mod:`repro._lazy`), and a
name's submodule loads when the name is first read.  The statement above
loads the graph layer, the schedules and the simulator's runner — not
asyncio, the partitioned backend, the sweep pool or the service.
"""

from ._lazy import facade

__all__, _export, __dir__ = facade(
    __name__,
    {
        "api": (
            "ExperimentSession", "ExperimentSpec", "FailureSpec", "MembershipSpec",
            "Result", "RuntimeSpec", "SweepSpec", "TopologySpec", "load_spec",
            "run_spec",
        ),
        "churn": (
            "ChurnRunResult", "MembershipEvent", "MembershipSchedule",
            "check_churn_all", "crash_recover_recrash", "flash_crowd_joins",
            "run_churn", "run_churn_asyncio", "steady_state_churn",
        ),
        "core": (
            "CliffEdgeNode", "CoordinatorElectionPolicy", "DecisionPolicy",
            "ProposedRepair", "RoundMessage", "assert_specification", "check_all",
        ),
        "experiments.runner": ("RunResult", "build_simulator", "run_cliff_edge"),
        "failures": (
            "CrashSchedule", "cascade_crash", "growing_region_crash",
            "multi_region_crash", "random_crashes", "region_crash",
        ),
        "graph": (
            "KnowledgeGraph", "NodeId", "Region", "faulty_clusters",
            "faulty_domains", "generators",
        ),
        "sim": (
            "ConstantLatency", "JitteredFailureDetector", "PerfectFailureDetector",
            "ScriptedFailureDetector", "Simulator", "UniformLatency",
        ),
        "sim.partition": (
            "PartitionedRunResult", "PartitionError", "partition_graph",
            "run_partitioned",
        ),
        "trace": ("RunMetrics", "TraceRecorder", "collect_metrics"),
    },
)
__all__.insert(0, "__version__")


def __getattr__(name: str):
    """An export off the table above, or the version — read, like them,
    on first use: ``import repro`` opens and parses no file."""
    if name != "__version__":
        return _export(name)
    value = globals()[name] = _read_version()
    return value


def _read_version() -> str:
    """The package version, sourced from ``pyproject.toml``.

    A source checkout (the common case: ``PYTHONPATH=src``) reads the
    project table directly, so ``repro --version`` reports the working
    tree's version even without an install; an installed
    distribution falls back to its own metadata.
    """
    from pathlib import Path

    pyproject = Path(__file__).resolve().parents[2] / "pyproject.toml"
    try:
        import tomllib

        with pyproject.open("rb") as handle:
            return tomllib.load(handle)["project"]["version"]
    except (OSError, KeyError, ImportError, ValueError):
        pass
    try:
        from importlib.metadata import version

        return version("repro-cliff-edge")
    except Exception:  # pragma: no cover - metadata missing entirely
        return "0.0.0+unknown"
