"""Canonical, hash-seed-independent trace digests.

The sharded sweep engine (:mod:`repro.scale`) and the partitioned
backend (:mod:`repro.sim.partition`) prove determinism by comparing
digests of traces produced in *different* worker processes.  A naive
``repr``-based digest would not survive that: ``frozenset`` and ``dict``
iteration order depends on ``PYTHONHASHSEED``, which differs between
independently started interpreters (e.g. under the ``spawn`` or
``forkserver`` multiprocessing start methods).

:func:`canonical_text` therefore encodes every value through a recursive
canonical form — collections are emitted in sorted order, dataclasses in
field order — so two structurally equal traces always produce the same
digest, no matter which process (or machine) recorded them.

The digest construction (node-composed)
---------------------------------------
The canonical trace digest is **composed per node**:

1. each node's ordered subsequence of events is folded into its own
   SHA-256 (one ``event_line`` + newline per event);
2. each finished per-node hash is bound to its node through one more
   SHA-256 leaf, ``sha256(b"node" 1F key 1F node_digest)`` where ``key``
   is :func:`canonical_text` of the node id;
3. the trace digest is the sum of all leaf values mod ``2**256``
   (rendered as 64 hex digits).

Stage 3 is commutative and associative, so the digest *composes*: a
worker that owns a disjoint subset of nodes can fold its events as they
fire (:class:`StreamingTraceDigest`), ship a single 32-byte partial sum
across the process boundary, and the coordinator adds the partials —
bit-identical to digesting the fully merged trace, with zero trace bytes
in flight.  This is exactly the partition-worker contract: each node's
events live entirely inside the partition that owns it, and the ordered
merge preserves every per-node subsequence.

The trade-off is explicit: the digest pins every node's event
*subsequence* (content and per-node order) but not the cross-node
interleaving of the merged trace.  The interleaving is pinned separately
by the determinism suite's full event-list equality assertions
(``tests/integration/test_partitioned_determinism.py``), and any
single-node reordering, dropped event, or changed payload still flips
the digest.

One renderer, two feeders, and the memo rules
---------------------------------------------
Every event line comes from one renderer (``_event_line`` over
``_text``).  :meth:`StreamingTraceDigest.update_row` feeds it one event at
a time, as its fields (:meth:`~StreamingTraceDigest.update` takes them off
an object); :meth:`StreamingTraceDigest.fold_columns` (the batch digest of
a full trace) feeds it straight from the ``EventColumns`` arrays without
rebuilding events.  Traces share most of their values (one message object
per multicast and per SENT/DELIVERED pair, one tuple per node id), so the
renderer memoises — under rules that keep every byte of the output:

* a memo key is an **identity with a keep-alive reference** (``id(value)``
  while the memo holds ``value``) or an **interned column index**, never
  ``==``/``hash`` alone: ``1 == 1.0 == True`` and ``(1, 2) == (1.0, 2.0)``
  hash equal and render differently;
* only exact ``tuple`` and ``frozenset`` instances and ``frozen=True``
  dataclass instances are kept — never a ``dict``, ``list`` or ``set``
  (event ``detail``, ``RoundMessage.opinions``), which can change;
* a memo lives for one fold or one stream and is cleared at
  :data:`_MEMO_CAP` entries, so a digest-only recorder keeps no payload
  log; it is never state of a ``TraceRecorder`` or ``EventColumns``
  (pickled traces do not change, the batch fold's tables die with it).
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
from collections.abc import Iterable, Mapping, Set
from typing import TYPE_CHECKING, Any, Optional

from .columns import _KINDS, EventColumns

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.events import EventKind, TraceEvent

#: Exact types rendered by ``repr`` (subclasses take the fallback chain).
_ATOMS = frozenset({type(None), bool, int, float, str, bytes})
#: Entries an identity memo may hold before it is cleared.
_MEMO_CAP = 4096
#: class -> (form, memoisable): how the exact-type dispatch renders an
#: instance — ``"seq"``, ``"set"``, ``"map"`` or a dataclass's field
#: names; ``None`` leaves the class to the ``isinstance`` chain.
_SHAPES: dict[type, tuple[Any, bool]] = {
    tuple: ("seq", True), list: ("seq", False), dict: ("map", False),
    frozenset: ("set", True), set: ("set", False),
}


def _shape(cls: type) -> tuple[Any, bool]:
    if dataclasses.is_dataclass(cls) and not issubclass(cls, (enum.Enum, type)):
        names = tuple(field.name for field in dataclasses.fields(cls))
        return names, cls.__dataclass_params__.frozen
    return None, False


def canonical_text(value: Any) -> str:
    """A deterministic textual encoding of ``value``.

    The encoding is injective enough for digesting: primitives render via
    ``repr``, sets and mappings are sorted by their elements' canonical
    text, sequences keep their order, dataclasses render as
    ``ClassName(field=..., ...)`` in declaration order, and anything else
    falls back to ``repr`` (which must itself be deterministic — every
    payload type in this repository either is a handled shape or defines
    a canonical ``__repr__``).
    """
    return _text(value, None)


def _text(value: Any, memo: Optional[dict[int, tuple[Any, str]]]) -> str:
    """:func:`canonical_text` by exact-type dispatch, memoising immutable
    values by identity in ``memo`` (see the module docstring's rules)."""
    cls = type(value)
    if cls in _ATOMS:
        return repr(value)
    shape = _SHAPES.get(cls)
    if shape is None:
        shape = _SHAPES[cls] = _shape(cls)
    form, frozen = shape
    if form is None:
        return _fallback_text(value, memo)
    keep = frozen and memo is not None
    if keep:
        hit = memo.get(id(value))
        if hit is not None:
            return hit[1]
    if form == "seq":
        text = "(" + ", ".join([_text(item, memo) for item in value]) + ")"
    elif form == "set":
        text = "{" + ", ".join(sorted([_text(item, memo) for item in value])) + "}"
    elif form == "map":
        items = sorted([(_text(key, memo), _text(item, memo)) for key, item in value.items()])
        text = "{" + ", ".join([f"{key}: {item}" for key, item in items]) + "}"
    else:
        fields = [f"{name}={_text(getattr(value, name), memo)}" for name in form]
        text = f"{cls.__name__}(" + ", ".join(fields) + ")"
    if keep:
        if len(memo) >= _MEMO_CAP:
            memo.clear()
        # Holding ``value`` keeps its id from being reused while cached.
        memo[id(value)] = (value, text)
    return text


def _fallback_text(value: Any, memo: Optional[dict]) -> str:
    """The ``isinstance`` chain, for every type the exact dispatch skips
    (``namedtuple``, ``str``/``int`` enums, ``Mapping``/``Set`` ABCs, …;
    dataclass instances never get here)."""
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        return repr(value)
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if isinstance(value, Mapping):
        items = sorted((_text(key, memo), _text(item, memo)) for key, item in value.items())
        inner = ", ".join(f"{key}: {item}" for key, item in items)
        return f"{{{inner}}}"
    if isinstance(value, (Set, frozenset, set)):
        inner = ", ".join(sorted(_text(item, memo) for item in value))
        return f"{{{inner}}}"
    if isinstance(value, (tuple, list)):
        inner = ", ".join(_text(item, memo) for item in value)
        return f"({inner})"
    return repr(value)


def event_line(event: "TraceEvent") -> str:
    """The canonical one-line encoding of a single trace event."""
    return canonical_text(event)


#: Domain separator of the per-node leaf hashes.
_LEAF_PREFIX = b"node\x1f"
#: The partial-sum group: addition mod 2**256.
_SUM_MASK = (1 << 256) - 1


def _leaf_value(key_bytes: bytes, node_digest: bytes) -> int:
    leaf = hashlib.sha256(_LEAF_PREFIX + key_bytes + b"\x1f" + node_digest).digest()
    return int.from_bytes(leaf, "big")


def hex_of_partial(partial: int) -> str:
    """Render a (combined) partial sum as the canonical 64-hex digest."""
    return format(partial & _SUM_MASK, "064x")


def combine_partials(partials: Iterable[int]) -> int:
    """Fold per-worker partial sums into one (order-independent).

    Sound only when the workers' node sets are disjoint — which the
    partitioned backend guarantees by construction (every node is owned
    by exactly one shard, joiners included).
    """
    total = 0
    for partial in partials:
        total = (total + partial) & _SUM_MASK
    return total


#: ``kind=EventKind.X`` by column kind code.
_KIND_TEXT = tuple(f"kind=EventKind.{kind.name}" for kind in _KINDS)


def _event_line(time, code, node_text, peer_text, payload, detail, memo) -> bytes:
    """The hashed bytes of one event — ``event_line(event)`` plus a newline
    — from raw fields: the kind as its column code, node and peer already
    rendered, ``detail`` possibly ``None`` (the columns' empty dict)."""
    detail_text = "{}" if detail is None else _text(detail, memo)
    return (
        f"TraceEvent(time={time!r}, {_KIND_TEXT[code]}, node={node_text}, "
        f"peer={peer_text}, payload={_text(payload, memo)}, detail={detail_text})\n"
    ).encode("utf-8")


class StreamingTraceDigest:
    """Fold the canonical trace digest incrementally, event by event.

    Feed events with :meth:`update` / :meth:`update_row` in emission order
    (or a whole columnar trace with :meth:`fold_columns`); :meth:`partial`
    yields the composable integer state (what partition workers ship),
    :meth:`hexdigest` the finished digest.  Both are non-destructive, so
    a digest can be inspected mid-stream.

    ``kinds`` restricts the fold to those event kinds, mirroring
    ``TraceRecorder.digest(*kinds)``.
    """

    __slots__ = ("_wanted", "_hashers", "_memo")

    def __init__(self, kinds: Optional[Iterable["EventKind"]] = None) -> None:
        #: Wanted kinds as column codes (``None``: every kind).
        self._wanted = (
            frozenset(kind.code for kind in kinds) if kinds is not None else None
        )
        #: node id -> (canonical key bytes, running SHA-256 of its events)
        self._hashers: dict[Any, tuple[bytes, Any]] = {}
        #: The renderer's identity memo (module docstring), one per stream.
        self._memo: dict[int, tuple[Any, str]] = {}

    def _hasher(self, node: Any, node_text: str) -> Any:
        entry = self._hashers.get(node)
        if entry is None:
            entry = self._hashers[node] = (node_text.encode("utf-8"), hashlib.sha256())
        return entry[1]

    def update(self, event: "TraceEvent") -> None:
        """Fold one event (a no-op if its kind is filtered out)."""
        self.update_row(
            event.time, event.kind, event.node, event.peer, event.payload, event.detail
        )

    def update_row(self, time, kind, node, peer, payload, detail) -> None:
        """Fold one event given as its fields (``detail`` may be ``None``):
        what a digest-only recorder does per emission."""
        code = kind.code
        if self._wanted is not None and code not in self._wanted:
            return
        memo = self._memo
        node_text = _text(node, memo)
        self._hasher(node, node_text).update(
            _event_line(time, code, node_text, _text(peer, memo), payload, detail, memo)
        )

    def fold_columns(self, columns: EventColumns) -> None:
        """Fold every row of a columnar trace, reading the arrays directly
        (equal to ``update(event)`` for each event of ``columns``)."""
        times, kinds, nodes, peers, payloads, details, ids = columns.arrays()
        memo, wanted = self._memo, self._wanted
        # One text per interned id; the extra last slot is ``None``, which
        # the columns encode as index -1.
        ids = [*ids, None]
        id_text = [_text(identity, memo) for identity in ids]
        for time, code, node, peer, payload, detail in zip(
            times, kinds, nodes, peers, payloads, details
        ):
            if wanted is None or code in wanted:
                self._hasher(ids[node], id_text[node]).update(
                    _event_line(time, code, id_text[node], id_text[peer], payload, detail, memo)
                )

    def partial(self) -> int:
        """The composable partial sum over the nodes folded so far."""
        total = 0
        for key_bytes, hasher in self._hashers.values():
            total = (total + _leaf_value(key_bytes, hasher.digest())) & _SUM_MASK
        return total

    def hexdigest(self) -> str:
        """The canonical digest of everything folded so far."""
        return hex_of_partial(self.partial())


def trace_digest(
    events: Iterable["TraceEvent"],
    kinds: Optional[Iterable["EventKind"]] = None,
) -> str:
    """The canonical digest of ``events`` (hex string).

    With ``kinds`` given, only events of those kinds contribute — e.g.
    digesting only ``DECIDED`` events compares outcomes while tolerating
    runtime-specific message interleavings.  Equal to streaming the same
    events through :class:`StreamingTraceDigest` (the property suite
    pins this).
    """
    stream = StreamingTraceDigest(kinds=kinds)
    for event in events:
        stream.update(event)
    return stream.hexdigest()


def combine_digests(digests: Iterable[str]) -> str:
    """Fold per-run digests into one order-sensitive aggregate digest.

    The sharded sweep runner digests each run in its worker and combines
    them *in submission order* in the parent, so the aggregate is equal
    iff every run's trace is equal and the merge order is stable.
    """
    hasher = hashlib.sha256()
    for digest in digests:
        hasher.update(digest.encode("ascii"))
        hasher.update(b"\n")
    return hasher.hexdigest()
