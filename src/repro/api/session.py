"""The experiment session: from spec to executed run.

:class:`ExperimentSession` is the single funnel through which every run
in the repository can be driven.  It resolves a declarative
:class:`~repro.api.specs.ExperimentSpec` to the right runtime and runner
(asyncio, partitioned simulator, or sequential simulator), builds the
topology through the spec-keyed cache, and returns the one
:class:`~repro.api.result.RunResult` whichever of them ran.

Sweeps go the same way: :meth:`ExperimentSession.run_sweep` turns a
:class:`~repro.api.specs.SweepSpec` into picklable-by-spec tasks for the
sharded sweep engine (:mod:`repro.scale`) and merges the outcomes into a
:class:`~repro.scale.SweepReport`.

Importing this module loads the spec layer, the result class and the
topology cache — no engine.  :func:`runner_for` is the one place a
runner module is imported, when a spec first needs it, and the package
``__init__``s import nothing on their own (:mod:`repro._lazy`), so a
static run never loads asyncio, the partitioned backend or the sweep
pool.  A process about to fork workers calls :func:`runner_for` before
it forks, so that its children inherit the run path instead of each
importing it again.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Union

from .cache import build_topology
from .result import RunResult
from .specs import COUPLED_KINDS, ExperimentSpec, RuntimeSpec, SpecError, SweepSpec
from .specs import build_kind, load_spec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..scale.sweep import SweepReport


def runner_for(runtime: RuntimeSpec) -> Callable[..., RunResult]:
    """The function that executes ``runtime`` — importing its module.

    The one place an engine's code is loaded: :meth:`ExperimentSession.run`
    calls it when it has a run to hand over, and a process about to fork
    workers calls it first (the sweep pool), so its children inherit the
    run path instead of each importing it again.  The simulator's runner
    module brings the protocol, the checkers and the trace layer; the
    partitioned backend is the same engine executed in shards and loads on
    top of it.  The name is read off its module at every call — the perf
    ledger wraps ``repro.sim.partition.run_partitioned`` there.
    """
    if runtime.engine != "sim":
        from ..churn.runner import run_churn_asyncio

        return run_churn_asyncio
    from ..experiments.runner import run_cliff_edge

    if runtime.partitions > 1:
        from ..sim.partition import run_partitioned

        return run_partitioned
    return run_cliff_edge


class ExperimentSession:
    """Resolve and execute declarative experiment specs.

    Parameters
    ----------
    use_cache:
        When True (the default) topology builds go through the
        process-local spec-keyed cache (:mod:`repro.api.cache`).
    """

    def __init__(self, use_cache: bool = True) -> None:
        self.use_cache = use_cache

    # ------------------------------------------------------------------
    def build_graph(self, spec: ExperimentSpec):
        """Build (or fetch from cache) the spec's topology."""
        if self.use_cache:
            return build_topology(spec.topology)
        return spec.topology.build_uncached()

    def resolve(self, spec: ExperimentSpec):
        """Materialise ``(graph, crash schedule, membership schedule)``."""
        graph = self.build_graph(spec)
        if spec.failure.kind in COUPLED_KINDS or spec.membership.kind in COUPLED_KINDS:
            # Coupled kinds describe ONE scenario whose crash and
            # membership halves derive from the same builder call; a
            # lone half, or halves with divergent params (e.g. a grid
            # override touching only one side), would silently build an
            # inconsistent scenario.
            if spec.failure.kind != spec.membership.kind:
                raise SpecError(
                    f"coupled churn kinds must pair up: failure kind is "
                    f"{spec.failure.kind!r} but membership kind is "
                    f"{spec.membership.kind!r}"
                )
            if spec.failure.params != spec.membership.params:
                raise SpecError(
                    f"coupled churn kind {spec.failure.kind!r} needs identical "
                    f"failure and membership params; got {dict(spec.failure.params)!r} "
                    f"vs {dict(spec.membership.params)!r} (grid overrides must "
                    f"target both halves)"
                )
            # One call builds both halves; each spec's resolve() would build twice.
            schedule, membership = build_kind(
                "failure", spec.failure.kind, spec.failure.params, graph=graph, seed=spec.seed
            )
            return graph, schedule, membership
        schedule = spec.failure.resolve(graph, spec.seed)
        membership = spec.membership.resolve(graph, schedule, spec.seed)
        return graph, schedule, membership

    # ------------------------------------------------------------------
    def run(self, spec: ExperimentSpec) -> RunResult:
        """Execute one experiment spec on its requested runtime.

        Every runtime returns the one :class:`~repro.api.result.RunResult`:
        the paper's static report for a static simulator run, the churn
        report (epochs, epoch-quotiented checkers) for churn and asyncio
        runs.
        """
        graph, schedule, membership = self.resolve(spec)
        runtime = spec.runtime
        extractor = None
        decision_policy = None
        if spec.extract is not None:
            from .extractors import get_extractor

            extractor = get_extractor(spec.extract["kind"])
            decision_policy = extractor.decision_policy(spec, graph)
            if decision_policy is not None and (
                runtime.engine != "sim"
                or runtime.partitions > 1
                or not spec.membership.is_static
            ):
                raise SpecError(
                    f"extract kind {spec.extract['kind']!r} supplies a "
                    "decision policy, which only the static single-partition "
                    "simulator runner supports"
                )
        if runtime.collection == "digest":
            # RuntimeSpec already pins engine='sim'; the remaining
            # incompatibilities need the resolved scenario to detect.
            if spec.check:
                raise SpecError(
                    "collection='digest' keeps no event log, so the CD1-CD7 "
                    "checkers cannot run; set check=False or use "
                    "collection='trace'"
                )
            if not spec.membership.is_static:
                raise SpecError(
                    "collection='digest' keeps no event log, so churn epoch "
                    "reconstruction cannot run; use collection='trace'"
                )
        if runtime.engine in ("asyncio", "asyncio-virtual"):
            virtual = runtime.engine == "asyncio-virtual"
            unsupported = []
            if not spec.arbitration:
                unsupported.append("arbitration=False")
            if spec.early_termination:
                unsupported.append("early_termination=True")
            if not runtime.batched:
                unsupported.append("batched=False")
            if runtime.latency is not None:
                unsupported.append("latency")
            if runtime.until is not None:
                unsupported.append("until")
            if not virtual and runtime.max_events != RuntimeSpec().max_events:
                # The virtual loop honours max_events as its callback
                # budget; the wall-clock loop has no event counter.
                unsupported.append("max_events")
            if unsupported:
                raise SpecError(
                    "the asyncio runtimes do not support these spec knobs: "
                    + ", ".join(unsupported)
                    + " (use engine='sim')"
                )
            result = runner_for(runtime)(
                graph,
                schedule,
                membership,
                detection_delay=runtime.detection_delay,
                time_scale=runtime.time_scale,
                timeout=runtime.timeout,
                seed=spec.seed,
                check=spec.check,
                virtual=virtual,
                failure_detector=runtime.resolve_failure_detector(),
                max_events=runtime.max_events if virtual else None,
                faults=runtime.resolve_faults(),
            )
        else:
            # One engine, the simulator; ``partitions`` only picks how it
            # is executed, so both paths take the same knobs.
            partitioned = runtime.partitions > 1
            if partitioned and not runtime.batched:
                raise SpecError(
                    "the partitioned backend uses the keyed scheduler; "
                    "batched=False selects the sequential reference loop "
                    "and cannot be combined with partitions > 1"
                )
            static = spec.membership.is_static
            if not static and (not spec.arbitration or spec.early_termination):
                raise SpecError(
                    "the churn runner has no arbitration/early-termination "
                    "ablation knobs; use a static membership spec"
                )
            knobs = {
                "latency": runtime.resolve_latency(),
                "failure_detector": runtime.resolve_failure_detector(),
                "seed": spec.seed,
                "arbitration_enabled": spec.arbitration,
                "early_termination": spec.early_termination,
                "check": spec.check,
                "max_events": runtime.max_events,
                "until": runtime.until,
                "collection": runtime.collection,
                "faults": runtime.resolve_faults(),
            }
            if partitioned:
                result = runner_for(runtime)(
                    graph, schedule, membership, partitions=runtime.partitions, **knobs
                )
            else:
                if decision_policy is not None:
                    knobs["decision_policy"] = decision_policy
                # None, not the empty schedule: the tie order differs
                # (see build_simulator), and so would the digest.
                result = runner_for(runtime)(
                    graph,
                    schedule,
                    None if static else membership,
                    batch_dispatch=runtime.batched,
                    **knobs,
                )
        result.labels.update(dict(spec.labels))
        if spec.name:
            result.labels.setdefault("scenario", spec.name)
        result.labels["spec_digest"] = spec.digest()
        if extractor is not None:
            # Post-hoc by construction: the row observes the finished run
            # (and the policy already shaped the trace), so the digest is
            # exactly that of the same spec without the extract block.
            result.labels["extract"] = extractor.row(spec, result)
        return result

    # ------------------------------------------------------------------
    def run_sweep(self, spec: SweepSpec, progress=None) -> "SweepReport":
        """Execute a sweep spec through the sharded sweep engine.

        Experiment-mode sweeps ship their points as serialized specs
        (picklable-by-spec); family-mode sweeps reference a registered
        scenario family by name.  Either way, per-run digests and the
        merged report digest are identical for every ``workers`` count.

        ``progress`` (optional) is called as ``progress(done, total)``
        after each completed task — the experiment service streams these
        counts to polling clients; results are unaffected.
        """
        from ..scale import ShardedSweepRunner

        runner = ShardedSweepRunner(workers=spec.workers, base_seed=spec.base_seed)
        report = runner.run(spec.tasks(), progress=progress)
        report.labels["spec_digest"] = spec.digest()
        if spec.name:
            report.labels["sweep"] = spec.name
        return report

    # ------------------------------------------------------------------
    def run_document(self, text: str) -> Any:
        """Parse a JSON spec document and execute it (either kind)."""
        spec = load_spec(text)
        if isinstance(spec, SweepSpec):
            return self.run_sweep(spec)
        return self.run(spec)


# ---------------------------------------------------------------------------
# Module-level conveniences
# ---------------------------------------------------------------------------
def run_spec(spec: Union[ExperimentSpec, SweepSpec]) -> Any:
    """Run a spec through a default session."""
    session = ExperimentSession()
    if isinstance(spec, SweepSpec):
        return session.run_sweep(spec)
    return session.run(spec)


def run_spec_json(text: str) -> Any:
    """Run a JSON spec document through a default session."""
    return ExperimentSession().run_document(text)
