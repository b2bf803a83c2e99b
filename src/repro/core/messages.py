"""Protocol messages.

The only message of Algorithm 1 is the round message
``[r, V, border(V), op]`` (lines 17, 31 and 40): the round number, the
proposed view, the view's border (the instance's participant set) and an
opinion vector.  Rejections reuse the same shape with a vector carrying a
single ``reject`` entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from ..graph import NodeId, Region
from .opinions import REJECT, Opinion, is_accept, is_reject


@dataclass(frozen=True)
class RoundMessage:
    """One round message of a cliff-edge consensus instance.

    Attributes
    ----------
    round:
        The round this message belongs to (1-based, as in the paper).
    view:
        The proposed view ``V`` (a crashed region).
    border:
        ``border(V)`` — the participant set of the instance.
    opinions:
        The sender's opinion vector for round ``round - 1`` (or its own
        initial opinion for round 1), as a plain mapping.
    attempt:
        The sender's instance *generation* for this view (churn
        extension; always 0 in the static model).  Membership-epoch
        purges bump it, letting receivers discard stale in-flight
        messages from a closed attempt and adopt restarts they have not
        seen announced yet (see ``CliffEdgeNode.on_message``).

    Two derived values are computed once, at construction, and kept as
    plain attributes rather than fields — so they are in no digest (the
    canonical encoding walks ``dataclasses.fields``), no pickle
    (``__reduce__`` ships the constructor arguments) and no ``==``:
    ``rejectors``, the nodes whose entry is ``reject``, which every
    recipient's handler needs, and the :meth:`wire_size` every
    ``MESSAGE_SENT`` row is charged.
    """

    round: int
    view: Region
    border: frozenset[NodeId]
    opinions: Mapping[NodeId, Opinion] = field(default_factory=dict)
    attempt: int = 0

    def __post_init__(self) -> None:
        if self.round < 1:
            raise ValueError("round numbers are 1-based")
        # Canonical container layout: the border is rebuilt by inserting
        # its elements in repr order and the vector keeps repr key order,
        # so every process sharing the hash seed — including one that
        # received the message through a pickle round trip (the
        # partitioned backend's cross-shard envelopes, whose workers
        # fork) — iterates them identically.  Receivers
        # fold these containers into instance state whose iteration order
        # is observable (multicast fan-out, catch-up reply loops);
        # layout-canonical messages keep that behaviour a pure function of
        # the message *value*.
        object.__setattr__(
            self, "border", frozenset(sorted(self.border, key=repr))
        )
        # Freeze the mapping into a plain dict copy (canonical key order)
        # so the message is genuinely immutable from the recipient's
        # point of view.
        opinions = {
            node: opinion
            for node, opinion in sorted(
                self.opinions.items(), key=lambda item: repr(item[0])
            )
        }
        object.__setattr__(self, "opinions", opinions)
        known = [node for node, opinion in opinions.items() if opinion is not None]
        # A tuple: the common message has no rejector and shares ``()``.
        object.__setattr__(
            self, "rejectors", tuple([node for node in known if opinions[node] is REJECT])
        )
        # 8 bytes per node identifier referenced (view members, border
        # members, vector keys), 16 per non-``⊥`` opinion (tag + value)
        # and a fixed 16-byte header.
        identifier_count = len(self.view.members) + len(self.border) + len(opinions)
        object.__setattr__(self, "_wire_size", 16 + 8 * identifier_count + 16 * len(known))

    def __reduce__(self):
        # Unpickle through __init__ so __post_init__ restores the
        # canonical layout (the default dataclass pickling would restore
        # the containers with an arbitrary hash-table layout).
        return (
            type(self),
            (self.round, self.view, self.border, self.opinions, self.attempt),
        )

    def is_rejection(self) -> bool:
        """True when the message carries at least one ``reject`` opinion."""
        return bool(self.rejectors)

    def known_entries(self) -> int:
        """Number of non-``⊥`` entries carried."""
        return sum(1 for op in self.opinions.values() if op is not None)

    def wire_size(self) -> int:
        """Deterministic byte estimate used by the bandwidth metrics.

        The constants (see ``__post_init__``, which computes it once per
        message, not once per recipient) are arbitrary but fixed, so
        comparisons across runs are meaningful.
        """
        return self._wire_size

    def describe(self) -> str:
        """Short human-readable summary used by example scripts."""
        kind = "reject" if self.is_rejection() and self.round == 1 else "round"
        accepts = sum(1 for op in self.opinions.values() if is_accept(op))
        rejects = sum(1 for op in self.opinions.values() if is_reject(op))
        return (
            f"{kind} r={self.round} view={sorted(map(repr, self.view.members))} "
            f"(|border|={len(self.border)}, accepts={accepts}, rejects={rejects})"
        )


@dataclass(frozen=True)
class ApplicationMessage:
    """Envelope for non-protocol payloads (used by baselines and the repair
    application when they piggyback on the same simulator)."""

    topic: str
    body: Any = None

    def wire_size(self) -> int:
        return 16 + len(repr(self.body))
