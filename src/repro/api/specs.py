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

The schema is declared once.  The dataclass fields *are* the document:
one ``to_dict``/``from_dict`` pair reads them (key order, which fields are
written only off their default, each scalar's JSON type).  A kind's builder
signature *is* the schema of its ``params``: the ``kind → (module,
attribute)`` tables say where each builder lives, and its parameter names,
which are required and their defaults are checked when the block is
*constructed* — a document that says something the schema does not know is
refused where it is written (HTTP 400 at submit), never run as the default
scenario or left to die in a worker.

The spec classes deliberately know nothing about simulators or runners;
resolution to live objects happens in :mod:`repro.api.session` (and the
topology build in :mod:`repro.api.cache`, keyed by ``TopologySpec``
digest).
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import importlib
import inspect
import json
from collections.abc import Mapping  # not typing's: its isinstance is 5x slower
from dataclasses import dataclass, field
from typing import Any, Iterator, NamedTuple, Optional

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


def _parse_json(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"invalid spec JSON: {exc}") from exc


def _check_keys(data: Mapping, allowed: frozenset, what: str) -> None:
    """Reject unknown keys: a typo'd knob must not silently run defaults."""
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise SpecError(
            f"unknown {what} keys {', '.join(map(repr, unknown))}; "
            f"known: {', '.join(sorted(allowed))}"
        )


# ---------------------------------------------------------------------------
# The schema: the dataclass fields are the document
# ---------------------------------------------------------------------------
#: What ``isinstance`` must accept for a scalar field, by annotation.  An
#: ``int`` is a valid ``float`` and is written back as given (``60`` and
#: ``60.0`` digest differently, so nothing is ever coerced); a ``bool`` is
#: an ``int`` to Python and never a number here.
_SCALARS = {"str": str, "bool": bool, "int": int, "float": (int, float)}


class _Field(NamedTuple):
    """One row of a spec class's schema (see :func:`_schema`)."""

    name: str
    annotation: str  # without its ``Optional[...]``
    nullable: bool
    required: bool
    nested: Optional[type]  # ``metadata={"spec": Class}``: a nested spec
    when_set: bool  # ``metadata={"when_set": True}``: omitted at ``default``
    default: Any


@functools.lru_cache(maxsize=None)
def _schema(cls: type) -> tuple[_Field, ...]:
    """``cls``'s document schema, read off its dataclass fields once.

    Rows come in *emission* order — ``name`` (the tagged documents lead with
    ``spec``, ``version``, ``name``), then the always-serialised fields in
    declaration order, then the ``when_set`` fields in declaration order —
    which reproduces the bytes every document has always had.  Nested
    documents keep this insertion order (only ``params``-like mappings are
    sorted, by :func:`thaw`): the perf ledger pins the pickled size of a
    sweep's tasks, and pickle memo indices are order-sensitive.
    """
    rows = []
    for f in dataclasses.fields(cls):
        nullable = f.type.startswith("Optional[")
        annotation = f.type[len("Optional[") : -1] if nullable else f.type
        required = f.default is f.default_factory is dataclasses.MISSING
        nested, when_set = f.metadata.get("spec"), f.metadata.get("when_set", False)
        rows.append(_Field(f.name, annotation, nullable, required, nested, when_set, f.default))
    return tuple(sorted(rows, key=lambda row: (row.when_set, row.name != "name")))


class _SpecBase:
    """The one serialization and validation surface of every spec dataclass."""

    #: The ``"spec"`` tag of a top-level document class; ``None`` for the
    #: nested blocks, which carry no tag, version or name.
    TAG: Optional[str] = None
    #: A ``kind`` + ``params`` block's name in :data:`_KIND_TABLES`.
    WHAT: Optional[str] = None

    def __post_init__(self) -> None:
        """Hold every field to its annotation — validate, never coerce.

        Mappings are frozen (normalisation, not coercion), nested specs must
        be instances of their class, scalars of their JSON type, and a kind
        block's param names must bind to its builder (:func:`check_kind`).
        """
        owner = type(self).__name__
        for row in _schema(type(self)):
            value = getattr(self, row.name)
            if value is None and row.nullable:
                continue
            if row.annotation.startswith("Mapping"):
                frozen = freeze(_require_mapping(value, f"{owner}.{row.name}"))
                object.__setattr__(self, row.name, frozen)
                continue
            expected = row.nested or _SCALARS.get(row.annotation)
            if expected is not None and (
                not isinstance(value, expected)
                or (isinstance(value, bool) and expected is not bool)
            ):
                raise SpecError(f"{owner}.{row.name} must be {row.annotation}, got {value!r}")
        if self.WHAT is not None:
            check_kind(self.WHAT, self.kind, tuple(self.params))
            check_rows(self.WHAT, self.kind, self.params)

    def to_dict(self) -> dict[str, Any]:
        """The JSON-safe document (see :func:`_schema` for the key order)."""
        data = {} if self.TAG is None else {"spec": self.TAG, "version": SPEC_VERSION}
        for row in _schema(type(self)):
            value = getattr(self, row.name)
            if row.when_set and value == row.default:
                continue
            data[row.name] = value.to_dict() if isinstance(value, _SpecBase) else thaw(value)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]):
        """Parse the document form; unknown keys and a wrong tag are errors."""
        data = _require_mapping(data, cls.__name__)
        schema = _schema(cls)
        known = frozenset(row.name for row in schema)
        if cls.TAG is not None:
            tag = data.get("spec", cls.TAG)
            if tag != cls.TAG:
                raise SpecError(f"expected a {cls.TAG!r} spec, got {tag!r}")
            version = data.get("version", SPEC_VERSION)
            if version != SPEC_VERSION:
                raise SpecError(
                    f"unsupported spec version {version!r} (this is {SPEC_VERSION})"
                )
            known |= {"spec", "version"}
        _check_keys(data, known, cls.__name__)
        values = {}
        for row in schema:
            if row.name not in data:
                if row.required:
                    raise SpecError(f"{cls.__name__} needs a {row.name!r}")
                continue
            value = data[row.name]
            if row.nested is not None and not (value is None and row.nullable):
                value = row.nested.from_dict(value)
            values[row.name] = value
        return cls(**values)

    #: The :class:`Result` protocol's verb for the same document.
    as_dict = to_dict

    def to_json(self, indent: Optional[int] = 2) -> str:
        """Serialize to a JSON document (stable key order)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str):
        return cls.from_dict(_parse_json(text))

    def digest(self) -> str:
        """Canonical digest of the spec (a pure function of its data)."""
        return spec_digest(self.to_dict())


# ---------------------------------------------------------------------------
# The kinds: a builder's signature is the schema of its params
# ---------------------------------------------------------------------------
#: The spec-level adapters, for the kinds whose parameter names or defaults
#: are not their builder's.
_ADAPTERS = "repro.api.kinds"
_GENERATORS = "repro.graph.generators"

#: kind -> (module, attribute) of the builder, resolved lazily so the spec
#: layer stays importable before the modules it describes.  A kind's
#: parameters, which of them are required and their defaults are exactly
#: the builder's signature (minus the arguments the session supplies).
_TOPOLOGY_BUILDERS = {
    "chord": (_GENERATORS, "chord_like"),
    "communities": (_GENERATORS, "clustered_communities"),
    "complete": (_GENERATORS, "complete"),
    "edges": (_GENERATORS, "from_edge_list"),
    "fig1": ("repro.experiments.topologies", "fig1_topology"),
    "fig2": (_ADAPTERS, "fig2_graph"),
    "fig3": (_ADAPTERS, "fig3_graph"),
    "geometric": (_GENERATORS, "random_geometric"),
    "grid": (_GENERATORS, "grid"),
    "line": (_GENERATORS, "line"),
    "ring": (_GENERATORS, "ring"),
    "scalefree": (_GENERATORS, "barabasi_albert"),
    "smallworld": (_GENERATORS, "watts_strogatz"),
    "star": (_GENERATORS, "star"),
    "torus": (_GENERATORS, "torus"),
}

_FAILURE_KINDS = {
    "none": (_ADAPTERS, "no_crashes"),
    "explicit": (_ADAPTERS, "explicit_crashes"),
    "region": ("repro.failures.schedules", "region_crash"),
    "multi_region": ("repro.failures.schedules", "multi_region_crash"),
    "growing_region": (_ADAPTERS, "growing_region"),
    "cascade": (_ADAPTERS, "cascade"),
    "random_region": (_ADAPTERS, "random_region"),
    "steady_churn": (_ADAPTERS, "steady_churn"),
    "race": (_ADAPTERS, "race"),
}

_MEMBERSHIP_KINDS = {
    "none": (_ADAPTERS, "static_membership"),
    "recoveries": (_ADAPTERS, "recoveries"),
    "leaves": (_ADAPTERS, "leaves"),
    "flash_crowd": (_ADAPTERS, "flash_crowd"),
    "steady_churn": (_ADAPTERS, "steady_churn"),
    "race": (_ADAPTERS, "race"),
    "explicit": (_ADAPTERS, "explicit_membership"),
}

_LATENCY_KINDS = {
    "constant": ("repro.sim.latency", "ConstantLatency"),
    "uniform": ("repro.sim.latency", "UniformLatency"),
    "exponential": ("repro.sim.latency", "ExponentialLatency"),
}

_DETECTOR_KINDS = {
    "perfect": ("repro.sim.failure_detector", "PerfectFailureDetector"),
    "jittered": ("repro.sim.failure_detector", "JitteredFailureDetector"),
    "scripted": (_ADAPTERS, "scripted_detector"),
}

#: what -> (kind table, the arguments the session supplies rather than the
#: block, the builder exceptions that mean "bad block").  Crash and
#: membership builders raise their own typed errors about the *scenario*
#: (a disconnected region, an empty crowd); those pass through.
_KIND_TABLES = {
    "topology": (_TOPOLOGY_BUILDERS, (), (TypeError,)),
    "failure": (_FAILURE_KINDS, ("graph", "seed"), ()),
    "membership": (_MEMBERSHIP_KINDS, ("graph", "seed"), ()),
    "latency": (_LATENCY_KINDS, (), (TypeError, ValueError)),
    "failure-detector": (_DETECTOR_KINDS, (), (TypeError, ValueError)),
}

#: Topology kinds resolvable by :meth:`TopologySpec.build`.
TOPOLOGY_KINDS = tuple(_TOPOLOGY_BUILDERS)

#: Kinds whose crash and membership halves come from one coupled builder
#: call returning ``(crashes, membership)``.  The session refuses specs
#: where the two halves diverge.
COUPLED_KINDS = ("steady_churn", "race")


@functools.lru_cache(maxsize=None)
def _locate(what: str, kind: str) -> tuple[Any, inspect.Signature, tuple[str, ...]]:
    """A kind's builder, its signature and the session-supplied arguments
    it takes (imports the builder's module on first use)."""
    table, supplied, _ = _KIND_TABLES[what]
    try:
        module, attribute = table[kind]
    except KeyError:
        raise SpecError(f"unknown {what} kind {kind!r}; known: {', '.join(table)}") from None
    builder = getattr(importlib.import_module(module), attribute)
    signature = inspect.signature(builder)
    return builder, signature, tuple(n for n in supplied if n in signature.parameters)


@functools.lru_cache(maxsize=1024)
def check_kind(what: str, kind: str, names: tuple[str, ...]) -> None:
    """Refuse an unknown kind, an unknown param or a missing required one
    where the block is written — not in a worker, and not by running the
    defaults instead.

    Memoised (a pass, that is; errors are raised afresh): the verdict
    depends on the names alone, and every ``dataclasses.replace`` of a
    sweep expansion re-validates.
    """
    _, signature, takes = _locate(what, kind)
    try:
        signature.bind(**dict.fromkeys(takes), **dict.fromkeys(names))
    except TypeError as exc:
        raise SpecError(f"bad {what} spec for kind {kind!r}: {exc}") from None


def check_rows(what: str, kind: str, params: Mapping[str, Any]) -> None:
    """Validate every row of a kind whose params list rows (an explicit
    crash schedule or membership script) with the check its builder runs
    on them — where the block is written, not in a worker."""
    rows = getattr(_locate(what, kind)[0], "rows", None)
    if rows is None:
        return
    param, check = rows
    value = params.get(param, ())
    if not isinstance(value, tuple):
        raise SpecError(f"bad {what} spec for kind {kind!r}: {param!r} must be a list of rows")
    for row in value:
        check(row)


def build_kind(what: str, kind: str, params: Mapping[str, Any], **supplied: Any) -> Any:
    """Call a kind's builder on a block's params (checked at construction)."""
    builder, _, takes = _locate(what, kind)
    try:
        return builder(**{name: supplied[name] for name in takes}, **params)
    except _KIND_TABLES[what][2] as exc:
        raise SpecError(f"bad {what} spec for kind {kind!r}: {exc}") from exc


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

    WHAT = "topology"

    def build_uncached(self):
        """Build the graph directly, bypassing the cache."""
        return build_kind(self.WHAT, self.kind, self.params)

    def build(self):
        """Build the graph through the spec-keyed cache."""
        from .cache import build_topology

        return build_topology(self)


# ---------------------------------------------------------------------------
# FailureSpec
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class FailureSpec(_SpecBase):
    """A declarative crash schedule.

    Kinds (a kind's defaults are its builder's signature — the adapters
    of :mod:`repro.api.kinds`, or :mod:`repro.failures.schedules`):

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

    WHAT = "failure"
    KINDS = tuple(_FAILURE_KINDS)

    def resolve(self, graph, seed: int = 0):
        """Build the :class:`~repro.failures.CrashSchedule` over ``graph``."""
        built = build_kind(self.WHAT, self.kind, self.params, graph=graph, seed=seed)
        return built[0] if self.kind in COUPLED_KINDS else built


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
    * ``explicit`` — a whole script, ``rows=[["recover"|"leave", node, t]
      | ["join", node, t, fanout, anchor], ...]`` run in the order written
      (a join attaches to ``fanout`` live nodes near ``anchor``); a churn
      run even when it lists no rows;
    * ``flash_crowd`` — ``count``, ``at``, ``spacing`` locality joins
      (+ optional ``join_seed``; the experiment seed otherwise);
    * ``steady_churn`` / ``race`` — the membership half of the coupled
      churn builders (see :class:`FailureSpec`).
    """

    kind: str = "none"
    params: Mapping[str, Any] = field(default_factory=dict)

    WHAT = "membership"
    KINDS = tuple(_MEMBERSHIP_KINDS)

    @property
    def is_static(self) -> bool:
        """True for a static run: ``none``, or a kind that draws no events.

        ``explicit`` is never static, rows or not: a static run and a churn
        run with an empty script differ in tie order, and so in digest."""
        if self.kind == "none":
            return True
        if self.kind in ("recoveries", "leaves"):
            return not self.params.get("events")
        if self.kind == "flash_crowd":
            return not self.params.get("count", 0)
        return False

    def resolve(self, graph, schedule, seed: int = 0):
        """Build the :class:`~repro.churn.MembershipSchedule`."""
        built = build_kind(self.WHAT, self.kind, self.params, graph=graph, seed=seed)
        return built[1] if self.kind in COUPLED_KINDS else built


# ---------------------------------------------------------------------------
# RuntimeSpec
# ---------------------------------------------------------------------------
def _resolve_block(what: str, block: Optional[Mapping[str, Any]], default_kind: str):
    """Build a flat ``{"kind": ..., **params}`` runtime block."""
    if block is None:
        return None
    params = dict(block)
    kind = params.pop("kind", default_kind)
    check_kind(what, kind, tuple(params))
    return build_kind(what, kind, params)


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
    partitions: int = field(default=1, metadata={"when_set": True})
    collection: str = field(default="trace", metadata={"when_set": True})
    #: asyncio-only knobs (ignored by the simulator).
    detection_delay: float = 0.01
    time_scale: float = 0.01
    timeout: float = 60.0
    #: Optional link-fault knobs (all engines); ``None`` — the default —
    #: keeps the paper's reliable FIFO channels and is not serialized.
    faults: Optional[Mapping[str, Any]] = field(default=None, metadata={"when_set": True})

    ENGINES = ("sim", "asyncio", "asyncio-virtual")
    COLLECTIONS = ("trace", "digest")

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.engine not in self.ENGINES:
            raise SpecError(
                f"unknown engine {self.engine!r}; known: {', '.join(self.ENGINES)}"
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
        # Resolve now and discard: an unknown kind or knob, a misspelled
        # key or a value out of range (negative delay, inert faults block)
        # must fail at construction, not deep inside a sweep worker.
        self.resolve_latency()
        self.resolve_failure_detector()
        self.resolve_faults()

    def resolve_latency(self):
        """Build the latency model (``None`` → runner default)."""
        return _resolve_block("latency", self.latency, "constant")

    def resolve_failure_detector(self):
        """Build the failure-detector policy (``None`` → runner default)."""
        return _resolve_block("failure-detector", self.failure_detector, "perfect")

    def resolve_faults(self):
        """Build the link-fault model (``None`` → reliable channels); the
        knobs and their composition order are :data:`repro.sim.faults.FAULT_KNOBS`."""
        if self.faults is None:
            return None
        from ..sim.faults import FaultsError, faults_from_knobs

        try:
            return faults_from_knobs(self.faults)
        except FaultsError as exc:
            raise SpecError(f"bad faults spec: {exc}") from exc


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

    topology: TopologySpec = field(metadata={"spec": TopologySpec})
    failure: FailureSpec = field(default_factory=FailureSpec, metadata={"spec": FailureSpec})
    membership: MembershipSpec = field(
        default_factory=MembershipSpec, metadata={"spec": MembershipSpec}
    )
    runtime: RuntimeSpec = field(default_factory=RuntimeSpec, metadata={"spec": RuntimeSpec})
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
    extract: Optional[Mapping[str, Any]] = field(default=None, metadata={"when_set": True})

    TAG = "experiment"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.extract is not None:
            _check_keys(self.extract, frozenset({"kind", "params"}), "ExperimentSpec.extract")
            if not self.extract.get("kind"):
                raise SpecError("ExperimentSpec.extract needs a non-empty 'kind'")

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

    experiment: Optional[ExperimentSpec] = field(default=None, metadata={"spec": ExperimentSpec})
    family: str = ""
    family_params: Mapping[str, Any] = field(default_factory=dict)
    seeds: tuple[int, ...] = ()
    grid: Mapping[str, tuple] = field(default_factory=dict)
    workers: int = 1
    base_seed: int = 0
    name: str = ""

    TAG = "sweep"

    def __post_init__(self) -> None:
        super().__post_init__()
        if (self.experiment is None) == (not self.family):
            raise SpecError("SweepSpec needs exactly one of 'experiment' or 'family'")
        object.__setattr__(self, "seeds", tuple(int(seed) for seed in self.seeds))
        if self.workers < 0:
            raise SpecError(
                f"workers must be >= 0 (0 = one per CPU), got {self.workers}"
            )
        if self.family:
            # Imported here: an experiment-mode sweep never loads the registry.
            from ..scale.families import UnknownFamilyError, get_family

            try:
                get_family(self.family)
            except UnknownFamilyError as exc:
                raise SpecError(str(exc)) from None
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


def spec_from_dict(data: Mapping[str, Any]):
    """Parse a spec document (dict form) into an :class:`ExperimentSpec` or
    :class:`SweepSpec`, dispatching on its ``"spec"`` tag."""
    data = _require_mapping(data, "spec document")
    tag = data.get("spec")
    for cls in (ExperimentSpec, SweepSpec):
        if tag == cls.TAG:
            return cls.from_dict(data)
    raise SpecError(f"spec document needs \"spec\": \"experiment\"|\"sweep\", got {tag!r}")


def load_spec(text: str):
    """Parse a JSON document (see :func:`spec_from_dict`)."""
    return spec_from_dict(_parse_json(text))


def iter_specs(specs: SweepSpec) -> Iterator[ExperimentSpec]:
    """Convenience iterator over a sweep's concrete experiment specs."""
    yield from specs.expand()
