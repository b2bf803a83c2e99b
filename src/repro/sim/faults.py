"""Deterministic link-fault models: loss, duplication, reordering.

The paper assumes reliable FIFO channels (§2.2).  This module is the
seam that *breaks* that assumption on purpose — and deterministically —
so fault sweeps are as reproducible as fault-free runs:

* :class:`LossyLinks` — drop each message independently with a per-link
  probability;
* :class:`DuplicatingLinks` — occasionally deliver a bounded number of
  extra copies of a message;
* :class:`ReorderingLinks` — delay individual messages by a bounded
  extra offset, letting later sends on the same channel overtake them
  (a bounded-delay permutation window);
* :func:`compose_faults` — chain any of the above into one model;
* :data:`FAULT_KNOBS` / :func:`faults_from_knobs` — the flat knob mapping
  (``{"loss": 0.02, "reorder": 0.5}``) that spec documents and ``--faults``
  write, declared once beside the stages it configures.

Determinism is the load-bearing property.  A fault decision must be a
pure function of the *message's identity*, never of execution order:

* the sequential simulator, the partitioned simulator (at any partition
  count) and the asyncio runtimes all consult the model at their send
  sites, so the decision for "the ``n``-th message on channel
  ``(source, target)``" has to come out identical everywhere;
* the simulator's shared seeded RNG (``Simulator._rng``) advances in
  *schedule order*, which differs between backends — drawing fault
  randomness from it would both fork the fault pattern across backends
  and desynchronise the latency/detector stream.

So every decision uses a dedicated :func:`message_rng`: a fresh
``random.Random`` seeded from a BLAKE2 hash of the canonical string
``seed|stage|repr(source)|repr(target)|sequence``.  Hashing text keeps
the stream independent of ``PYTHONHASHSEED`` and of which process asks;
keying by per-channel sequence number keeps it independent of global
interleaving (FIFO channels make per-channel send order itself
deterministic).

Fault models map the *base* delivery (the FIFO-clamped delivery time
the fault-free simulator would use) to a tuple of **extra delay
offsets**, one per delivered copy: ``()`` means the message is lost,
``(0.0,)`` is an undisturbed delivery, ``(0.0, 0.0)`` a duplicate, and
``(w,)`` a delivery delayed by ``w``.  Offsets are non-negative by
construction — faults only ever *delay* a message, never accelerate it
— which is what keeps the partitioned backend's conservative lookahead
(minimum cross-partition latency) valid under any reorder window; see
``repro.sim.partition._cross_lookahead``.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Any, Mapping, NamedTuple, Optional, Protocol, runtime_checkable


class FaultsError(ValueError):
    """Raised when a fault model is misconfigured."""


def message_rng(
    seed: int, stage: str, source: Any, target: Any, sequence: int
) -> random.Random:
    """A dedicated RNG for one (message, fault-stage) decision.

    Seeded from a BLAKE2 hash of a canonical text key, so the stream is
    a pure function of ``(seed, stage, source, target, sequence)`` —
    identical across processes, ``PYTHONHASHSEED`` values, partition
    counts and runtimes.
    """
    text = f"{seed}|{stage}|{source!r}|{target!r}|{sequence}"
    value = int.from_bytes(
        hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest(), "big"
    )
    return random.Random(value)


@runtime_checkable
class FaultModel(Protocol):
    """What a link-fault model must provide."""

    def deliveries(
        self, source: Any, target: Any, sequence: int, seed: int = 0
    ) -> tuple[float, ...]:
        """Extra-delay offsets of the delivered copies of one message.

        ``sequence`` is the 0-based send index on the FIFO channel
        ``(source, target)``; ``seed`` is the run's seed (combined with
        the model's own ``seed`` field).  An empty tuple drops the
        message; each returned offset is added to the base delivery
        time of one delivered copy.  All offsets are ``>= 0``.
        """
        ...

    def max_extra_delay(self) -> float:
        """Upper bound on any offset this model can return."""
        ...


class _SingleStage:
    """Mixin turning one ``apply(offsets, rng)`` stage into a model."""

    def deliveries(
        self, source: Any, target: Any, sequence: int, seed: int = 0
    ) -> tuple[float, ...]:
        rng = message_rng(
            seed + getattr(self, "seed", 0),
            type(self).__name__,
            source,
            target,
            sequence,
        )
        return self.apply((0.0,), rng)  # type: ignore[attr-defined]


def _check_probability(name: str, value: float, upper_inclusive: bool = True) -> None:
    limit_ok = value <= 1.0 if upper_inclusive else value < 1.0
    if not (isinstance(value, (int, float)) and 0.0 <= value and limit_ok):
        bound = "1" if upper_inclusive else "1 (exclusive)"
        raise FaultsError(f"{name} must be a probability in [0, {bound}], got {value!r}")


@dataclass(frozen=True)
class LossyLinks(_SingleStage):
    """Drop each message independently with probability ``rate``.

    ``rate`` must be ``< 1``: a channel that drops *everything* makes
    every liveness question vacuous and is almost always a configuration
    mistake.  The FIFO slot of a dropped message is still consumed (the
    loss happens in the network, after the send), so turning losses on
    never perturbs the delivery times of the surviving messages.
    """

    rate: float
    seed: int = 0

    def __post_init__(self) -> None:
        _check_probability("loss rate", self.rate, upper_inclusive=False)
        if not isinstance(self.seed, int):
            raise FaultsError(f"fault seed must be an int, got {self.seed!r}")

    def apply(self, offsets: tuple[float, ...], rng: random.Random) -> tuple[float, ...]:
        return tuple(offset for offset in offsets if rng.random() >= self.rate)

    def max_extra_delay(self) -> float:
        return 0.0


@dataclass(frozen=True)
class DuplicatingLinks(_SingleStage):
    """With probability ``rate``, deliver ``copies`` copies of a message.

    Copies share the original's delivery time (the scheduler's
    deterministic tie-break orders them), so duplication perturbs *what*
    arrives, never *when*.  ``copies`` bounds the blow-up: a duplicated
    message yields exactly ``copies`` deliveries, never more.
    """

    rate: float
    copies: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        _check_probability("duplication rate", self.rate)
        if not isinstance(self.copies, int) or self.copies < 2:
            raise FaultsError(f"copies must be an int >= 2, got {self.copies!r}")
        if not isinstance(self.seed, int):
            raise FaultsError(f"fault seed must be an int, got {self.seed!r}")

    def apply(self, offsets: tuple[float, ...], rng: random.Random) -> tuple[float, ...]:
        out: list[float] = []
        for offset in offsets:
            if rng.random() < self.rate:
                out.extend([offset] * self.copies)
            else:
                out.append(offset)
        return tuple(out)

    def max_extra_delay(self) -> float:
        return 0.0


@dataclass(frozen=True)
class ReorderingLinks(_SingleStage):
    """Delay each message by an extra ``uniform(0, window)`` with
    probability ``rate``, breaking FIFO order within a bounded window.

    The offset is *added* to the FIFO-clamped base delivery time and the
    channel's FIFO clock is advanced by the base time only, so a delayed
    message can be overtaken by at most ``window`` time units of later
    traffic — a bounded-delay permutation, not arbitrary reordering.
    Offsets are never negative, which keeps the partitioned backend's
    minimum-latency lookahead sound (see ``_cross_lookahead``).
    """

    window: float
    rate: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not (isinstance(self.window, (int, float)) and self.window > 0):
            raise FaultsError(f"reorder window must be > 0, got {self.window!r}")
        _check_probability("reorder rate", self.rate)
        if not isinstance(self.seed, int):
            raise FaultsError(f"fault seed must be an int, got {self.seed!r}")

    def apply(self, offsets: tuple[float, ...], rng: random.Random) -> tuple[float, ...]:
        return tuple(
            offset + rng.uniform(0.0, self.window) if rng.random() < self.rate else offset
            for offset in offsets
        )

    def max_extra_delay(self) -> float:
        return float(self.window)


@dataclass(frozen=True)
class ComposedFaults:
    """Several fault stages applied in order to each message.

    Every stage draws from its own :func:`message_rng` stream (keyed by
    stage position and class), so adding a stage never perturbs the
    decisions of the others — ``loss=0.1`` drops the same messages
    whether or not duplication is also enabled.
    """

    stages: tuple[Any, ...]

    def __post_init__(self) -> None:
        if not self.stages:
            raise FaultsError("ComposedFaults needs at least one stage")
        for stage in self.stages:
            if not callable(getattr(stage, "apply", None)):
                raise FaultsError(f"{stage!r} is not a fault stage (no apply method)")
        object.__setattr__(self, "stages", tuple(self.stages))

    def deliveries(
        self, source: Any, target: Any, sequence: int, seed: int = 0
    ) -> tuple[float, ...]:
        offsets: tuple[float, ...] = (0.0,)
        for position, stage in enumerate(self.stages):
            if not offsets:
                break
            rng = message_rng(
                seed + getattr(stage, "seed", 0),
                f"{position}:{type(stage).__name__}",
                source,
                target,
                sequence,
            )
            offsets = stage.apply(offsets, rng)
        return offsets

    def max_extra_delay(self) -> float:
        return sum(stage.max_extra_delay() for stage in self.stages)


def compose_faults(*models: Any) -> Any:
    """Chain fault models into one (a single model passes through)."""
    if not models:
        raise FaultsError("compose_faults needs at least one model")
    if len(models) == 1:
        return models[0]
    stages: list[Any] = []
    for model in models:
        if isinstance(model, ComposedFaults):
            stages.extend(model.stages)
        else:
            stages.append(model)
    return ComposedFaults(tuple(stages))


class FaultKnob(NamedTuple):
    """One knob of a ``faults`` block (``RuntimeSpec.faults``, ``--faults``)."""

    stage: Optional[type]  # the stage it configures (``None``: all — the seed)
    argument: str  # the stage constructor argument its value becomes
    value_type: type  # how ``--faults knob=value`` parses the value
    base: Optional[str] = None  # the knob this one modifies and is inert without


#: The ``faults`` knobs, declared once: the spec's validation, the CLI's
#: ``--faults`` parser and the degradation sweeps all read this table.  Row
#: order is composition order — loss → duplication → reorder — and each
#: stage draws from its own keyed RNG stream, so enabling one knob never
#: perturbs another's decisions.
FAULT_KNOBS = {
    "loss": FaultKnob(LossyLinks, "rate", float),
    "duplication": FaultKnob(DuplicatingLinks, "rate", float),
    "copies": FaultKnob(DuplicatingLinks, "copies", int, base="duplication"),
    "reorder": FaultKnob(ReorderingLinks, "window", float),
    "reorder_rate": FaultKnob(ReorderingLinks, "rate", float, base="reorder"),
    "seed": FaultKnob(None, "seed", int),
}

#: The knobs that switch a stage on (what a degradation sweep can move).
FAULT_AXES = tuple(k for k, knob in FAULT_KNOBS.items() if knob.stage and not knob.base)


def faults_from_knobs(block: Mapping[str, Any]) -> Any:
    """Build the fault model a flat knob mapping describes.

    Raises :class:`FaultsError` for an unknown knob, a non-integer seed, a
    modifier without its base knob (it would silently do nothing), a value
    outside its stage's range, and a block that enables no fault at all.
    """
    unknown = sorted(set(block) - set(FAULT_KNOBS))
    if unknown:
        raise FaultsError(
            f"unknown faults keys {', '.join(map(repr, unknown))}; "
            f"known: {', '.join(sorted(FAULT_KNOBS))}"
        )
    seed = block.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise FaultsError(f"faults 'seed' must be an integer, got {seed!r}")
    orphans = sorted(k for k in block if FAULT_KNOBS[k].base not in (None, *block))
    if orphans:
        needs = (f"{k!r} needs {knob.base!r}" for k, knob in FAULT_KNOBS.items() if knob.base)
        raise FaultsError(
            f"faults keys {', '.join(map(repr, orphans))} need their base knob "
            f"({', '.join(needs)})"
        )
    stages: dict[type, dict[str, Any]] = {}
    for k, knob in FAULT_KNOBS.items():
        if k in block and knob.stage is not None:
            stages.setdefault(knob.stage, {"seed": seed})[knob.argument] = block[k]
    if not stages:
        *first, last = map(repr, FAULT_AXES)
        raise FaultsError(f"faults block enables no fault: set {', '.join(first)} and/or {last}")
    return compose_faults(*(stage(**arguments) for stage, arguments in stages.items()))


#: Models the partitioned backend accepts: their decisions are pure
#: functions of message identity (no shared-RNG draws at send sites) and
#: their offsets are non-negative, so per-channel lockstep and the
#: minimum-latency lookahead both survive sharding.
_PARTITION_SAFE = (LossyLinks, DuplicatingLinks, ReorderingLinks, ComposedFaults)


def check_partition_safe(faults: Any) -> None:
    """Reject fault models the partitioned backend cannot shard.

    Raises :class:`FaultsError` unless ``faults`` (and, for a
    composition, every stage) is one of the built-in keyed-RNG models.
    A custom model could consume shared randomness at send sites or
    return negative offsets; either would silently fork the partitioned
    trace from the sequential one, so unknown models fail loudly.
    """
    if faults is None:
        return
    if isinstance(faults, ComposedFaults):
        for stage in faults.stages:
            if not isinstance(stage, _PARTITION_SAFE[:-1]):
                raise FaultsError(
                    f"fault stage {type(stage).__name__} is not supported by "
                    "the partitioned backend (needs keyed-RNG decisions and "
                    "non-negative offsets)"
                )
        return
    if not isinstance(faults, _PARTITION_SAFE[:-1]):
        raise FaultsError(
            f"fault model {type(faults).__name__} is not supported by the "
            "partitioned backend (needs keyed-RNG decisions and "
            "non-negative offsets)"
        )
