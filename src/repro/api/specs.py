"""Declarative, serializable experiment specifications.

A *spec* is a frozen, JSON-round-trippable description of one experiment
(or a whole sweep of them): which topology to build, which failures and
membership events to inject, which runtime to execute on, and with what
seed.  Specs are *data* — they pickle trivially across process
boundaries, hash to a canonical digest (reusing the hash-seed-independent
encoding of :mod:`repro.trace.digest`), and fully reproduce a run:

>>> spec = ExperimentSpec(
...     topology=TopologySpec("grid", {"width": 6, "height": 6}),
...     failure=FailureSpec("region", {"members": [[2, 2], [2, 3], [3, 2], [3, 3]]}),
... )
>>> ExperimentSpec.from_json(spec.to_json()) == spec
True

Every collection inside a spec is normalised at construction time (lists
become tuples, mapping keys are sorted), so two specs describing the same
experiment compare equal and digest identically no matter how they were
written down.

The spec classes deliberately know nothing about simulators or runners;
resolution to live objects happens in :mod:`repro.api.session` (and the
topology build in :mod:`repro.api.cache`, keyed by ``TopologySpec``
digest).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping, Optional

#: Format version stamped into every serialized spec.
SPEC_VERSION = 1


class SpecError(ValueError):
    """Raised when a spec is malformed or cannot be deserialized."""


# ---------------------------------------------------------------------------
# Normalisation and encoding helpers
# ---------------------------------------------------------------------------
class FrozenParams(dict):
    """A hashable, string-keyed parameter mapping.

    :func:`freeze` guarantees every value is itself hashable (tuples,
    nested ``FrozenParams``, primitives), so the frozen spec dataclasses
    stay hashable — ``set(sweep.expand())`` and dict-keying by spec work.
    Treat instances as immutable; they back frozen dataclass fields.
    """

    def __hash__(self) -> int:  # type: ignore[override]
        return hash(tuple(sorted(self.items())))


def freeze(value: Any) -> Any:
    """Deep-normalise ``value`` into the canonical immutable spec form.

    Lists and tuples become tuples (recursively), mappings become
    hashable :class:`FrozenParams` with sorted string keys, sets become
    sorted tuples.  Applying :func:`freeze` twice is a no-op, which is
    what makes construction, JSON round-trips and digests all agree.
    """
    if isinstance(value, Mapping):
        return FrozenParams(
            (str(key), freeze(value[key])) for key in sorted(value, key=str)
        )
    if isinstance(value, (list, tuple)):
        return tuple(freeze(item) for item in value)
    if isinstance(value, (set, frozenset)):
        return tuple(sorted((freeze(item) for item in value), key=repr))
    return value


def thaw(value: Any) -> Any:
    """The JSON-safe counterpart of :func:`freeze` (tuples become lists)."""
    if isinstance(value, Mapping):
        return {str(key): thaw(value[key]) for key in sorted(value, key=str)}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [thaw(item) for item in freeze(value)]
    return value


def spec_digest(payload: Any) -> str:
    """Canonical SHA-256 digest of any spec payload.

    Reuses :func:`repro.trace.digest.canonical_text`, so the digest is
    independent of ``PYTHONHASHSEED``, dict insertion order, and which
    process computes it — the property the spec-keyed topology cache and
    the sharded sweep engine both rely on.
    """
    # Imported lazily: repro.trace must not load before repro.sim, and
    # repro.api is imported first by the package __init__.
    from ..trace.digest import canonical_text

    text = canonical_text(freeze(payload))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _require_mapping(data: Any, what: str) -> Mapping:
    if not isinstance(data, Mapping):
        raise SpecError(f"{what} must be a mapping, got {type(data).__name__}")
    return data


def _check_keys(data: Mapping, allowed: frozenset, what: str) -> None:
    """Reject unknown keys: a typo'd knob must not silently run defaults."""
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise SpecError(
            f"unknown {what} keys {', '.join(map(repr, unknown))}; "
            f"known: {', '.join(sorted(allowed))}"
        )


#: The keys of a kind+params sub-spec document.
_KIND_PARAMS_KEYS = frozenset({"kind", "params"})


def _check_tag(data: Mapping, expected: str) -> None:
    tag = data.get("spec", expected)
    if tag != expected:
        raise SpecError(f"expected a {expected!r} spec, got {tag!r}")
    version = data.get("version", SPEC_VERSION)
    if version != SPEC_VERSION:
        raise SpecError(f"unsupported spec version {version!r} (this is {SPEC_VERSION})")


class _SpecBase:
    """Shared serialization surface of every spec dataclass."""

    def as_dict(self) -> dict[str, Any]:
        """Alias for :meth:`to_dict` (the :class:`Result` protocol verb)."""
        return self.to_dict()  # type: ignore[attr-defined]

    def to_json(self, indent: Optional[int] = 2) -> str:
        """Serialize to a JSON document (stable key order)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)  # type: ignore[attr-defined]

    @classmethod
    def from_json(cls, text: str):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError(f"invalid spec JSON: {exc}") from exc
        return cls.from_dict(data)  # type: ignore[attr-defined]

    def digest(self) -> str:
        """Canonical digest of the spec (a pure function of its data)."""
        return spec_digest(self.to_dict())  # type: ignore[attr-defined]


# ---------------------------------------------------------------------------
# TopologySpec
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class TopologySpec(_SpecBase):
    """A named, parameterised topology build.

    ``kind`` selects a builder (see :data:`TOPOLOGY_KINDS`); ``params``
    are its keyword arguments.  Building happens through the spec-keyed
    cache in :mod:`repro.api.cache`.
    """

    kind: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.kind:
            raise SpecError("topology kind must be non-empty")
        object.__setattr__(self, "params", freeze(self.params))

    def to_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "params": thaw(self.params)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TopologySpec":
        data = _require_mapping(data, "TopologySpec")
        _check_keys(data, _KIND_PARAMS_KEYS, "TopologySpec")
        try:
            kind = data["kind"]
        except KeyError:
            raise SpecError("TopologySpec needs a 'kind'") from None
        return cls(kind=kind, params=data.get("params", {}))

    def build_uncached(self):
        """Build the graph directly, bypassing the cache."""
        import importlib

        try:
            module_name, attr = _TOPOLOGY_BUILDERS[self.kind]
        except KeyError:
            raise SpecError(
                f"unknown topology kind {self.kind!r}; "
                f"known: {', '.join(TOPOLOGY_KINDS)}"
            ) from None
        builder = getattr(importlib.import_module(module_name), attr)
        try:
            return builder(**dict(self.params))
        except TypeError as exc:
            raise SpecError(f"bad params for topology {self.kind!r}: {exc}") from exc

    def build(self):
        """Build the graph through the spec-keyed cache."""
        from .cache import build_topology

        return build_topology(self)


def _fig2_graph():
    from ..experiments.topologies import fig2_topology

    return fig2_topology().graph


def _fig3_graph():
    from ..experiments.topologies import fig3_topology

    return fig3_topology().graph


#: kind -> (module, attribute) of the builder; resolved lazily so the
#: spec layer stays importable before the generator modules.
_TOPOLOGY_BUILDERS = {
    "grid": ("repro.graph.generators", "grid"),
    "torus": ("repro.graph.generators", "torus"),
    "ring": ("repro.graph.generators", "ring"),
    "chord": ("repro.graph.generators", "chord_like"),
    "complete": ("repro.graph.generators", "complete"),
    "star": ("repro.graph.generators", "star"),
    "line": ("repro.graph.generators", "line"),
    "geometric": ("repro.graph.generators", "random_geometric"),
    "smallworld": ("repro.graph.generators", "watts_strogatz"),
    "scalefree": ("repro.graph.generators", "barabasi_albert"),
    "communities": ("repro.graph.generators", "clustered_communities"),
    "edges": ("repro.graph.generators", "from_edge_list"),
    "fig1": ("repro.experiments.topologies", "fig1_topology"),
    "fig2": (__name__, "_fig2_graph"),
    "fig3": (__name__, "_fig3_graph"),
}

#: Topology kinds resolvable by :meth:`TopologySpec.build`.
TOPOLOGY_KINDS = tuple(sorted(_TOPOLOGY_BUILDERS))


# ---------------------------------------------------------------------------
# FailureSpec
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class FailureSpec(_SpecBase):
    """A declarative crash schedule.

    Kinds mirror the builders of :mod:`repro.failures.schedules`:

    * ``none`` — no crashes;
    * ``explicit`` — ``crashes=[[node, time], ...]`` (``allow_recrash``);
    * ``region`` — ``members``, ``at``, ``spread``;
    * ``multi_region`` — ``regions``, ``at``, ``stagger``;
    * ``growing_region`` — ``initial``, ``growth``, ``initial_at``,
      ``growth_at``, ``growth_spacing``;
    * ``cascade`` — ``start``, ``size``, ``start_at``, ``spacing``;
    * ``random_region`` — ``size``, ``at``, ``spread`` (+ optional
      ``region_seed``; the experiment seed otherwise);
    * ``steady_churn`` / ``race`` — the crash half of the coupled churn
      builders (the matching :class:`MembershipSpec` kind supplies the
      membership half from the *same* parameters and seed).
    """

    kind: str = "none"
    params: Mapping[str, Any] = field(default_factory=dict)

    KINDS = (
        "none",
        "explicit",
        "region",
        "multi_region",
        "growing_region",
        "cascade",
        "random_region",
        "steady_churn",
        "race",
    )

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise SpecError(
                f"unknown failure kind {self.kind!r}; known: {', '.join(self.KINDS)}"
            )
        object.__setattr__(self, "params", freeze(self.params))

    def to_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "params": thaw(self.params)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FailureSpec":
        data = _require_mapping(data, "FailureSpec")
        _check_keys(data, _KIND_PARAMS_KEYS, "FailureSpec")
        return cls(kind=data.get("kind", "none"), params=data.get("params", {}))

    def resolve(self, graph, seed: int = 0):
        """Build the :class:`~repro.failures.CrashSchedule` over ``graph``."""
        from ..failures import (
            CrashSchedule,
            cascade_crash,
            growing_region_crash,
            multi_region_crash,
            random_connected_region,
            region_crash,
        )

        params = dict(self.params)
        if self.kind == "none":
            return CrashSchedule()
        if self.kind == "explicit":
            crashes = tuple(
                (node, float(time)) for node, time in params.get("crashes", ())
            )
            return CrashSchedule(crashes, allow_recrash=params.get("allow_recrash", False))
        if self.kind == "region":
            return region_crash(
                graph,
                params["members"],
                at=params.get("at", 1.0),
                spread=params.get("spread", 0.0),
            )
        if self.kind == "multi_region":
            return multi_region_crash(
                graph,
                params["regions"],
                at=params.get("at", 1.0),
                stagger=params.get("stagger", 0.0),
            )
        if self.kind == "growing_region":
            return growing_region_crash(
                graph,
                params["initial"],
                params["growth"],
                initial_at=params.get("initial_at", 1.0),
                growth_at=params.get("growth_at", 10.0),
                growth_spacing=params.get("growth_spacing", 2.0),
            )
        if self.kind == "cascade":
            return cascade_crash(
                graph,
                params["start"],
                params["size"],
                start=params.get("start_at", 1.0),
                spacing=params.get("spacing", 2.0),
            )
        if self.kind == "random_region":
            region = random_connected_region(
                graph, params["size"], seed=params.get("region_seed", seed)
            )
            return region_crash(
                graph,
                region.members,
                at=params.get("at", 1.0),
                spread=params.get("spread", 0.0),
            )
        # Coupled churn kinds: take the crash half of the shared builder.
        schedule, _membership = _resolve_coupled(self.kind, params, graph, seed)
        return schedule


# ---------------------------------------------------------------------------
# MembershipSpec
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class MembershipSpec(_SpecBase):
    """A declarative membership schedule.

    Kinds:

    * ``none`` — static membership;
    * ``recoveries`` — explicit ``events=[[node, time], ...]`` recoveries
      (old edges);
    * ``leaves`` — explicit ``events=[[node, time], ...]`` departures;
    * ``flash_crowd`` — ``count``, ``at``, ``spacing`` locality joins
      (+ optional ``join_seed``; the experiment seed otherwise);
    * ``steady_churn`` / ``race`` — the membership half of the coupled
      churn builders (see :class:`FailureSpec`).
    """

    kind: str = "none"
    params: Mapping[str, Any] = field(default_factory=dict)

    KINDS = ("none", "recoveries", "leaves", "flash_crowd", "steady_churn", "race")

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise SpecError(
                f"unknown membership kind {self.kind!r}; known: {', '.join(self.KINDS)}"
            )
        object.__setattr__(self, "params", freeze(self.params))

    @property
    def is_static(self) -> bool:
        """True when the spec adds no membership events at all."""
        if self.kind == "none":
            return True
        if self.kind in ("recoveries", "leaves"):
            return not self.params.get("events")
        if self.kind == "flash_crowd":
            return not self.params.get("count", 0)
        return False

    def to_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "params": thaw(self.params)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "MembershipSpec":
        data = _require_mapping(data, "MembershipSpec")
        _check_keys(data, _KIND_PARAMS_KEYS, "MembershipSpec")
        return cls(kind=data.get("kind", "none"), params=data.get("params", {}))

    def resolve(self, graph, schedule, seed: int = 0):
        """Build the :class:`~repro.churn.MembershipSchedule`."""
        from ..churn import MembershipSchedule, flash_crowd_joins
        from ..churn.membership import leave, recover

        params = dict(self.params)
        if self.kind == "none":
            return MembershipSchedule()
        if self.kind == "recoveries":
            events = tuple(
                recover(node, float(time)) for node, time in params.get("events", ())
            )
            return MembershipSchedule(
                tuple(sorted(events, key=lambda e: (e.time, repr(e.node))))
            )
        if self.kind == "leaves":
            events = tuple(
                leave(node, float(time)) for node, time in params.get("events", ())
            )
            return MembershipSchedule(
                tuple(sorted(events, key=lambda e: (e.time, repr(e.node))))
            )
        if self.kind == "flash_crowd":
            if not params.get("count", 0):
                return MembershipSchedule()
            return flash_crowd_joins(
                graph,
                count=params["count"],
                at=params.get("at", 3.0),
                spacing=params.get("spacing", 1.0),
                seed=params.get("join_seed", seed),
            )
        _schedule, membership = _resolve_coupled(self.kind, params, graph, seed)
        return membership


#: Kinds whose crash and membership halves come from one coupled builder.
#: The session refuses specs where the two halves diverge.
COUPLED_KINDS = ("steady_churn", "race")


def _resolve_coupled(kind: str, params: dict, graph, seed: int):
    """The coupled churn builders produce crash + membership halves from
    one call; the matching Failure/Membership spec kinds each take their
    half.  Both sides pass identical ``(kind, params, seed)``, so the
    halves always describe the same scenario."""
    from ..churn import crash_recover_recrash, steady_state_churn

    if kind == "steady_churn":
        return steady_state_churn(
            graph,
            churn_rate=params.get("churn_rate", 0.05),
            duration=params.get("duration", 100.0),
            seed=params.get("churn_seed", seed),
            downtime=params.get("downtime", 15.0),
        )
    if kind == "race":
        return crash_recover_recrash(
            graph,
            params["members"],
            crash_at=params.get("crash_at", 1.0),
            recover_at=params.get("recover_at", 6.0),
            recrash_at=params.get("recrash_at", 60.0),
        )
    raise SpecError(f"unknown coupled churn kind {kind!r}")


# ---------------------------------------------------------------------------
# RuntimeSpec
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class RuntimeSpec(_SpecBase):
    """Which runtime executes the experiment, and its substrate knobs.

    ``engine`` is ``"sim"`` (deterministic discrete-event simulator),
    ``"asyncio"`` (the wall-clock concurrent runtime) or
    ``"asyncio-virtual"`` (the same asyncio protocol code on the
    deterministic virtual-time loop, :mod:`repro.vtime` — zero real
    sleeps, digest-reproducible across processes and hash seeds).
    ``"asyncio-virtual"`` is a value added to an always-serialized field,
    so every pre-existing document and digest is byte-identical.
    ``batched`` selects the simulator's same-timestamp dispatch fast path
    (the unbatched reference loop exists for the determinism regression
    suite).  ``latency`` and ``failure_detector`` are small kind+params
    mappings (``constant``/``uniform``/``exponential`` latencies;
    ``perfect``/``jittered``/``scripted`` detectors); ``None`` means the
    runner defaults.  Latency models are simulator-only; detector
    policies work on all three engines (both asyncio engines scale the
    policy's simulated-time delays by ``time_scale``).

    ``partitions`` selects the partitioned simulator backend
    (:mod:`repro.sim.partition`): the graph is split into that many
    locality-aware shards whose schedulers run in parallel, with a merged
    trace digest *identical* to the sequential run.  ``1`` (the default)
    is the sequential simulator.  The field is serialized only when it
    differs from ``1``, so pre-partitioning spec documents and their
    digests are unchanged.

    ``collection`` selects what the run keeps of its trace:
    ``"trace"`` (the default) the full columnar event log, ``"digest"``
    only the streamed canonical digest + metrics — no event log exists
    anywhere, and partition/sweep workers ship no trace bytes.  The
    result's ``digest()`` is bit-identical either way.  Digest mode is
    simulator-only and, because the CD1–CD7 checkers and churn epoch
    reconstruction both walk the full trace, a digest-mode experiment
    must set ``check=False`` and use a static failure model.  Serialized
    only when not the default, like ``partitions``.

    ``faults`` injects deterministic link faults (:mod:`repro.sim.faults`)
    on every engine.  It is a flat mapping of knobs — ``loss`` (per-link
    drop probability, ``< 1``), ``duplication`` (+ optional ``copies``,
    default 2), ``reorder`` (a bounded extra-delay window in simulated
    time units, + optional ``reorder_rate``, default 1) and an optional
    extra ``seed`` — resolved into a composition applied in the fixed
    order loss → duplication → reorder.  Every decision is keyed by the
    run seed and the message's per-channel send index, so fault sweeps
    digest-reproduce exactly like fault-free runs.  Validated at
    construction; serialized only when set, so fault-free documents and
    digests are byte-identical to before the field existed.
    """

    engine: str = "sim"
    batched: bool = True
    latency: Optional[Mapping[str, Any]] = None
    failure_detector: Optional[Mapping[str, Any]] = None
    max_events: int = 5_000_000
    until: Optional[float] = None
    partitions: int = 1
    collection: str = "trace"
    #: asyncio-only knobs (ignored by the simulator).
    detection_delay: float = 0.01
    time_scale: float = 0.01
    timeout: float = 60.0
    #: Optional link-fault knobs (all engines); ``None`` — the default —
    #: keeps the paper's reliable FIFO channels and is not serialized.
    faults: Optional[Mapping[str, Any]] = None

    ENGINES = ("sim", "asyncio", "asyncio-virtual")
    COLLECTIONS = ("trace", "digest")
    #: The knobs a ``faults`` block may set.
    FAULT_KEYS = frozenset(
        {"loss", "duplication", "copies", "reorder", "reorder_rate", "seed"}
    )

    def __post_init__(self) -> None:
        if self.engine not in self.ENGINES:
            raise SpecError(
                f"unknown engine {self.engine!r}; known: {', '.join(self.ENGINES)}"
            )
        if not isinstance(self.partitions, int) or isinstance(self.partitions, bool):
            raise SpecError(
                f"partitions must be an integer, got {self.partitions!r}"
            )
        if self.partitions < 1:
            raise SpecError(f"partitions must be >= 1, got {self.partitions}")
        if self.partitions > 1 and self.engine != "sim":
            raise SpecError(
                "partitioned execution needs engine='sim' (the asyncio "
                "runtimes drive one event loop and cannot be partitioned)"
            )
        if self.collection not in self.COLLECTIONS:
            raise SpecError(
                f"unknown collection {self.collection!r}; "
                f"known: {', '.join(self.COLLECTIONS)}"
            )
        if self.collection == "digest" and self.engine != "sim":
            raise SpecError(
                "collection='digest' needs engine='sim' (the asyncio "
                "runtimes reconstruct membership epochs from the full "
                "trace)"
            )
        if self.latency is not None:
            latency = _require_mapping(self.latency, "RuntimeSpec.latency")
            object.__setattr__(self, "latency", freeze(latency))
            # Resolve now and discard: an unknown kind or a bad parameter
            # (negative delay, misspelled key) must fail at construction,
            # not deep inside a sweep worker.
            self.resolve_latency()
        if self.failure_detector is not None:
            detector = _require_mapping(self.failure_detector, "RuntimeSpec.failure_detector")
            object.__setattr__(self, "failure_detector", freeze(detector))
            # Resolve now and discard, for the same reason as the latency.
            self.resolve_failure_detector()
        if self.faults is not None:
            faults = _require_mapping(self.faults, "RuntimeSpec.faults")
            _check_keys(faults, self.FAULT_KEYS, "RuntimeSpec.faults")
            object.__setattr__(self, "faults", freeze(faults))
            # Resolve now and discard: a negative rate or an inert block
            # must fail at construction, not deep inside a sweep worker.
            self.resolve_faults()

    def to_dict(self) -> dict[str, Any]:
        data = {
            "engine": self.engine,
            "batched": self.batched,
            "latency": thaw(self.latency) if self.latency is not None else None,
            "failure_detector": (
                thaw(self.failure_detector) if self.failure_detector is not None else None
            ),
            "max_events": self.max_events,
            "until": self.until,
            "detection_delay": self.detection_delay,
            "time_scale": self.time_scale,
            "timeout": self.timeout,
        }
        if self.partitions != 1:
            # Omitted at the default so documents (and digests) written
            # before the partitioned backend existed stay byte-identical.
            data["partitions"] = self.partitions
        if self.collection != "trace":
            # Same rationale as partitions.
            data["collection"] = self.collection
        if self.faults is not None:
            # Same rationale again: fault-free documents (and digests)
            # written before the fault layer existed stay byte-identical.
            data["faults"] = thaw(self.faults)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RuntimeSpec":
        data = _require_mapping(data, "RuntimeSpec")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise SpecError(
                f"unknown RuntimeSpec keys {', '.join(map(repr, unknown))}; "
                f"known: {', '.join(sorted(known))}"
            )
        return cls(**dict(data))

    def resolve_latency(self):
        """Build the latency model (``None`` → runner default)."""
        if self.latency is None:
            return None
        from ..sim import ConstantLatency, UniformLatency
        from ..sim.latency import ExponentialLatency

        params = dict(self.latency)
        kind = params.pop("kind", "constant")
        models = {
            "constant": ConstantLatency,
            "uniform": UniformLatency,
            "exponential": ExponentialLatency,
        }
        try:
            model = models[kind]
        except KeyError:
            raise SpecError(
                f"unknown latency kind {kind!r}; known: {', '.join(sorted(models))}"
            ) from None
        try:
            return model(**params)
        except TypeError as exc:
            raise SpecError(f"bad latency spec for kind {kind!r}: {exc}") from exc
        except ValueError as exc:
            raise SpecError(f"bad latency spec: {exc}") from exc

    def resolve_failure_detector(self):
        """Build the failure-detector policy (``None`` → runner default)."""
        if self.failure_detector is None:
            return None
        from ..sim import (
            JitteredFailureDetector,
            PerfectFailureDetector,
            ScriptedFailureDetector,
        )

        params = dict(self.failure_detector)
        kind = params.pop("kind", "perfect")
        try:
            if kind == "perfect":
                return PerfectFailureDetector(**params)
            if kind == "jittered":
                return JitteredFailureDetector(**params)
            if kind == "scripted":
                delays = {
                    (subscriber, crashed): float(delay)
                    for subscriber, crashed, delay in params.pop("delays", ())
                }
                return ScriptedFailureDetector(delays=delays, **params)
        except (TypeError, ValueError) as exc:
            raise SpecError(f"bad failure-detector spec for kind {kind!r}: {exc}") from exc
        raise SpecError(
            f"unknown failure-detector kind {kind!r}; known: perfect, jittered, scripted"
        )

    def resolve_faults(self):
        """Build the link-fault model (``None`` → reliable channels).

        Stages compose in the fixed order loss → duplication → reorder;
        each draws from its own keyed RNG stream, so enabling one knob
        never perturbs another's decisions (see :mod:`repro.sim.faults`).
        """
        if self.faults is None:
            return None
        from ..sim.faults import (
            DuplicatingLinks,
            FaultsError,
            LossyLinks,
            ReorderingLinks,
            compose_faults,
        )

        params = dict(self.faults)
        seed = params.pop("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise SpecError(f"faults 'seed' must be an integer, got {seed!r}")
        stages = []
        try:
            if "loss" in params:
                stages.append(LossyLinks(rate=params.pop("loss"), seed=seed))
            if "duplication" in params:
                stages.append(
                    DuplicatingLinks(
                        rate=params.pop("duplication"),
                        copies=params.pop("copies", 2),
                        seed=seed,
                    )
                )
            if "reorder" in params:
                stages.append(
                    ReorderingLinks(
                        window=params.pop("reorder"),
                        rate=params.pop("reorder_rate", 1.0),
                        seed=seed,
                    )
                )
        except FaultsError as exc:
            raise SpecError(f"bad faults spec: {exc}") from exc
        if params:
            # Orphaned modifiers would silently do nothing — fail loudly.
            raise SpecError(
                f"faults keys {', '.join(map(repr, sorted(params)))} need their "
                "base knob ('copies' needs 'duplication', 'reorder_rate' "
                "needs 'reorder')"
            )
        if not stages:
            raise SpecError(
                "faults block enables no fault: set 'loss', 'duplication' "
                "and/or 'reorder'"
            )
        return compose_faults(*stages)


# ---------------------------------------------------------------------------
# ExperimentSpec
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ExperimentSpec(_SpecBase):
    """One fully described protocol run.

    The single funnel for every run in the repo: resolving the spec
    (see :class:`~repro.api.session.ExperimentSession`) builds the
    topology through the spec-keyed cache, materialises the crash and
    membership schedules, and executes on the requested runtime.
    """

    topology: TopologySpec
    failure: FailureSpec = field(default_factory=FailureSpec)
    membership: MembershipSpec = field(default_factory=MembershipSpec)
    runtime: RuntimeSpec = field(default_factory=RuntimeSpec)
    seed: int = 0
    check: bool = True
    arbitration: bool = True
    early_termination: bool = False
    name: str = ""
    labels: Mapping[str, Any] = field(default_factory=dict)
    #: Optional result extractor (``{"kind": ..., "params": {...}}``, see
    #: :mod:`repro.api.extractors`): derives a domain row from the
    #: finished run (locality cost point, overlay repair verdict) and may
    #: supply the run's decision policy.  ``None`` — the default — is not
    #: serialized, so pre-extractor documents and digests are unchanged.
    extract: Optional[Mapping[str, Any]] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", freeze(self.labels))
        if self.extract is not None:
            extract = _require_mapping(self.extract, "ExperimentSpec.extract")
            _check_keys(extract, _KIND_PARAMS_KEYS, "ExperimentSpec.extract")
            if not extract.get("kind"):
                raise SpecError("ExperimentSpec.extract needs a non-empty 'kind'")
            object.__setattr__(self, "extract", freeze(extract))

    def to_dict(self) -> dict[str, Any]:
        data = {
            "spec": "experiment",
            "version": SPEC_VERSION,
            "name": self.name,
            "topology": self.topology.to_dict(),
            "failure": self.failure.to_dict(),
            "membership": self.membership.to_dict(),
            "runtime": self.runtime.to_dict(),
            "seed": self.seed,
            "check": self.check,
            "arbitration": self.arbitration,
            "early_termination": self.early_termination,
            "labels": thaw(self.labels),
        }
        if self.extract is not None:
            # Omitted when absent so pre-extractor spec documents (and
            # their digests) stay byte-identical.
            data["extract"] = thaw(self.extract)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentSpec":
        data = _require_mapping(data, "ExperimentSpec")
        _check_tag(data, "experiment")
        _check_keys(
            data,
            frozenset(
                {"spec", "version", "name", "topology", "failure", "membership",
                 "runtime", "seed", "check", "arbitration", "early_termination",
                 "labels", "extract"}
            ),
            "ExperimentSpec",
        )
        try:
            topology = TopologySpec.from_dict(data["topology"])
        except KeyError:
            raise SpecError("ExperimentSpec needs a 'topology'") from None
        return cls(
            topology=topology,
            failure=FailureSpec.from_dict(data.get("failure", {})),
            membership=MembershipSpec.from_dict(data.get("membership", {})),
            runtime=RuntimeSpec.from_dict(data.get("runtime", {})),
            seed=data.get("seed", 0),
            check=data.get("check", True),
            arbitration=data.get("arbitration", True),
            early_termination=data.get("early_termination", False),
            name=data.get("name", ""),
            labels=data.get("labels", {}),
            extract=data.get("extract"),
        )

    def with_seed(self, seed: int) -> "ExperimentSpec":
        """The same experiment at a different seed."""
        return dataclasses.replace(self, seed=seed)

    def with_engine(self, engine: str) -> "ExperimentSpec":
        """The same experiment on a different runtime engine."""
        return dataclasses.replace(
            self, runtime=dataclasses.replace(self.runtime, engine=engine)
        )

    def with_partitions(self, partitions: int) -> "ExperimentSpec":
        """The same experiment on ``partitions`` simulator shards."""
        return dataclasses.replace(
            self, runtime=dataclasses.replace(self.runtime, partitions=partitions)
        )

    def with_faults(self, faults: Optional[Mapping[str, Any]]) -> "ExperimentSpec":
        """The same experiment with link faults injected (``None`` clears).

        ``faults`` is the flat knob mapping of
        :attr:`RuntimeSpec.faults` — e.g. ``{"loss": 0.05}`` or
        ``{"duplication": 0.1, "copies": 3, "reorder": 0.5}``.
        """
        return dataclasses.replace(
            self, runtime=dataclasses.replace(self.runtime, faults=faults)
        )

    def with_collection(self, collection: str) -> "ExperimentSpec":
        """The same experiment with a different trace collection mode.

        ``"digest"`` implies no CD1–CD7 checking (the checkers walk the
        full trace), so the returned spec also sets ``check=False``.
        """
        return dataclasses.replace(
            self,
            check=self.check and collection != "digest",
            runtime=dataclasses.replace(self.runtime, collection=collection),
        )

    def display_name(self) -> str:
        return self.name or f"{self.topology.kind}/{self.failure.kind}"


# ---------------------------------------------------------------------------
# SweepSpec
# ---------------------------------------------------------------------------
def _override(data: dict[str, Any], path: str, value: Any) -> None:
    """Set a dotted-path field inside a nested spec dict (in place)."""
    keys = path.split(".")
    target = data
    for key in keys[:-1]:
        nxt = target.get(key)
        if not isinstance(nxt, dict):
            nxt = {}
            target[key] = nxt
        target = nxt
    target[keys[-1]] = thaw(value)


@dataclass(frozen=True)
class SweepSpec(_SpecBase):
    """A declarative sweep: spec × seeds × grid expansion.

    Two modes:

    * **experiment mode** — ``experiment`` is a template
      :class:`ExperimentSpec`; the sweep is its cross product with
      ``seeds`` and ``grid`` (a mapping of dotted field paths to value
      lists, e.g. ``{"topology.params.width": [8, 16]}``).  A ``|``
      inside a path couples several fields into *one* axis that moves in
      lockstep — ``{"topology.params.width|topology.params.height":
      [8, 16]}`` sweeps square tori, not a width × height product.
      Tasks cross process boundaries as *specs* (picklable-by-spec),
      not as registered family names.
    * **family mode** — ``family`` names a registered scenario family
      (:mod:`repro.scale.families`) and the sweep is one task per
      (grid point × seed).  Here the dotted grid paths index into
      ``family_params`` (``{"nodes": [36, 64]}``, or ``"scenario_params.
      join_rate"`` for nested builders), with the same ``|`` coupling as
      experiment mode.  This is the spec form of the seed-randomised
      EXP-C1 generators: the scenario still derives from the seed, but
      the generator's knobs grid-expand from the document instead of
      requiring a hand-written driver script.
    """

    experiment: Optional[ExperimentSpec] = None
    family: str = ""
    family_params: Mapping[str, Any] = field(default_factory=dict)
    seeds: tuple[int, ...] = ()
    grid: Mapping[str, tuple] = field(default_factory=dict)
    workers: int = 1
    base_seed: int = 0
    name: str = ""

    def __post_init__(self) -> None:
        if (self.experiment is None) == (not self.family):
            raise SpecError("SweepSpec needs exactly one of 'experiment' or 'family'")
        object.__setattr__(self, "seeds", tuple(int(seed) for seed in self.seeds))
        object.__setattr__(self, "family_params", freeze(self.family_params))
        object.__setattr__(self, "grid", freeze(self.grid))
        if self.family and "seed" in self.grid:
            raise SpecError(
                "family-mode grids expand family_params; sweep seeds with "
                "the 'seeds' list, not a 'seed' grid axis"
            )
        if "seed" in self.grid and self.seeds:
            raise SpecError(
                "ambiguous seed sweep: use either the 'seeds' list or a "
                "'seed' grid axis, not both"
            )
        for path, values in self.grid.items():
            # A scalar here is a typo'd axis — and a string would
            # "expand" per character; both must fail loudly.
            if not isinstance(values, tuple) or not values:
                raise SpecError(
                    f"grid axis {path!r} needs a non-empty list of values, "
                    f"got {values!r}"
                )

    def to_dict(self) -> dict[str, Any]:
        return {
            "spec": "sweep",
            "version": SPEC_VERSION,
            "name": self.name,
            "experiment": self.experiment.to_dict() if self.experiment else None,
            "family": self.family,
            "family_params": thaw(self.family_params),
            "seeds": list(self.seeds),
            "grid": thaw(self.grid),
            "workers": self.workers,
            "base_seed": self.base_seed,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepSpec":
        data = _require_mapping(data, "SweepSpec")
        _check_tag(data, "sweep")
        _check_keys(
            data,
            frozenset(
                {"spec", "version", "name", "experiment", "family",
                 "family_params", "seeds", "grid", "workers", "base_seed"}
            ),
            "SweepSpec",
        )
        experiment = data.get("experiment")
        return cls(
            experiment=(
                ExperimentSpec.from_dict(experiment) if experiment is not None else None
            ),
            family=data.get("family", ""),
            family_params=data.get("family_params", {}),
            seeds=tuple(data.get("seeds", ())),
            grid=data.get("grid", {}),
            workers=data.get("workers", 1),
            base_seed=data.get("base_seed", 0),
            name=data.get("name", ""),
        )

    def expand(self) -> list[ExperimentSpec]:
        """Concrete experiment specs, in deterministic sweep order.

        Grid axes expand in sorted-path order (outermost first), seeds
        innermost.  Family-mode sweeps do not expand to experiment specs.
        """
        if self.experiment is None:
            raise SpecError("family-mode sweeps do not expand to experiment specs")
        points: list[dict[str, Any]] = [self.experiment.to_dict()]
        for path in sorted(self.grid):
            values = self.grid[path]
            # "a|b" couples several dotted paths into one lockstep axis:
            # every coupled field receives the same value per point.
            coupled = path.split("|")
            next_points = []
            for point in points:
                for value in values:
                    copy = json.loads(json.dumps(point))
                    for sub_path in coupled:
                        _override(copy, sub_path, value)
                    next_points.append(copy)
            points = next_points
        if "seed" in self.grid:
            # The grid axis owns the seed; overriding it with the
            # template's seed would collapse the axis into N clones.
            return [ExperimentSpec.from_dict(point) for point in points]
        seeds = self.seeds or (self.experiment.seed,)
        expanded = []
        for point in points:
            for seed in seeds:
                spec = ExperimentSpec.from_dict(point).with_seed(seed)
                expanded.append(spec)
        return expanded

    def expand_family_params(self) -> list[tuple[dict[str, Any], str]]:
        """Family-mode grid points as ``(params, label)`` pairs.

        Grid axes are dotted paths inside ``family_params``, expanded in
        sorted-path order with the same ``|`` coupling as experiment
        mode.  The label strings the axis assignments by their leaf
        field (``"nodes=64,rate=0.2"``) so sweep rows from different
        grid points stay tellable-apart; with no grid the single label
        is empty (the task then displays as the bare family name).
        """
        if self.experiment is not None:
            raise SpecError(
                "experiment-mode sweeps expand to specs; see expand()"
            )
        points: list[tuple[dict[str, Any], list[str]]] = [
            (thaw(self.family_params), [])
        ]
        for path in sorted(self.grid):
            values = self.grid[path]
            coupled = path.split("|")
            leaf = coupled[0].split(".")[-1]
            next_points = []
            for params, parts in points:
                for value in values:
                    copy = json.loads(json.dumps(params))
                    for sub_path in coupled:
                        _override(copy, sub_path, value)
                    next_points.append((copy, parts + [f"{leaf}={thaw(value)}"]))
            points = next_points
        return [(params, ",".join(parts)) for params, parts in points]

    def __len__(self) -> int:
        size = 1
        for values in self.grid.values():
            size *= len(values)
        if self.experiment is None:
            return size * len(self.seeds)
        return size * max(len(self.seeds), 1)

    def tasks(self) -> list:
        """The sweep as picklable :class:`~repro.scale.SweepTask` records.

        Experiment mode produces ``"spec"``-family tasks whose params
        *are* the serialized spec (picklable-by-spec); family mode
        produces one family task per (grid point × seed), grid
        outermost, seeds innermost.
        """
        from ..scale import SweepTask

        if self.experiment is not None:
            return [
                SweepTask(
                    "spec",
                    params={"spec": spec.to_dict()},
                    seed=spec.seed,
                    label=spec.display_name(),
                )
                for spec in self.expand()
            ]
        return [
            SweepTask(
                self.family,
                params=json.loads(json.dumps(params)),
                seed=seed,
                label=f"{self.family}[{label}]" if label else "",
            )
            for params, label in self.expand_family_params()
            for seed in self.seeds
        ]

    def run(self):
        """Execute the sweep (see :meth:`ExperimentSession.run_sweep`)."""
        from .session import ExperimentSession

        return ExperimentSession().run_sweep(self)


def load_spec(text: str):
    """Parse a JSON document into an :class:`ExperimentSpec` or
    :class:`SweepSpec`, dispatching on its ``"spec"`` tag."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"invalid spec JSON: {exc}") from exc
    data = _require_mapping(data, "spec document")
    tag = data.get("spec")
    if tag == "experiment":
        return ExperimentSpec.from_dict(data)
    if tag == "sweep":
        return SweepSpec.from_dict(data)
    raise SpecError(f"spec document needs \"spec\": \"experiment\"|\"sweep\", got {tag!r}")


def iter_specs(specs: SweepSpec) -> Iterator[ExperimentSpec]:
    """Convenience iterator over a sweep's concrete experiment specs."""
    yield from specs.expand()
