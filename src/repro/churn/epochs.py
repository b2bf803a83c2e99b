"""Membership epochs: quotienting a churned run into static slices.

Within one *membership epoch* the knowledge graph is constant and every
node's incarnation is fixed, so the paper's static reasoning applies
unchanged.  A new epoch begins at every graph- or incarnation-changing
event — a join or a recovery.  (Graceful leaves are announced fail-stops:
they do not change the graph or any incarnation, so they behave exactly
like crashes and do not open a new epoch.)

Epoch boundaries are tracked by *trace index*, not timestamp: membership
events share timestamps with ordinary protocol events, and the recorded
order is the ground truth of what happened first.

:func:`build_epochs` reconstructs the per-epoch graphs from the base graph
plus the ``NODE_JOINED`` / ``NODE_RECOVERED`` trace events (whose payloads
carry the neighbour sets chosen by the attachment policies), so the
checkers need nothing beyond the trace a runtime already produces.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..graph import KnowledgeGraph
from ..sim.events import EventKind
from ..trace import TraceRecorder


@dataclass(frozen=True)
class MembershipEpoch:
    """One maximal slice of a run with constant membership."""

    #: 0-based epoch number (0 = the initial static epoch).
    index: int
    #: Trace index of the first event of the epoch.
    start_index: int
    #: Trace index one past the last event (``len(trace)`` for the last).
    end_index: int
    #: Timestamp of the event that opened the epoch (0.0 for epoch 0).
    start_time: float
    #: The knowledge graph in force during the epoch.
    graph: KnowledgeGraph

    def covers(self, trace_index: int) -> bool:
        return self.start_index <= trace_index < self.end_index


def build_epochs(
    base_graph: KnowledgeGraph, trace: TraceRecorder
) -> list[MembershipEpoch]:
    """Slice ``trace`` into membership epochs with their graphs."""
    boundaries: list[tuple[int, float, KnowledgeGraph]] = [(0, 0.0, base_graph)]
    graph = base_graph
    # Only the rows that open an epoch are read (and rebuilt as events).
    columns = trace.columns
    for index in columns.rows_of(EventKind.NODE_JOINED, EventKind.NODE_RECOVERED):
        event = columns.event(index)
        if event.kind is EventKind.NODE_JOINED:
            graph = graph.with_node(event.node, event.payload or ())
            boundaries.append((index, event.time, graph))
        else:
            neighbours = frozenset(event.payload or ())
            if neighbours != graph.neighbours(event.node):
                graph = graph.without([event.node]).with_node(
                    event.node, neighbours
                )
            boundaries.append((index, event.time, graph))
    epochs: list[MembershipEpoch] = []
    total = len(trace)
    for number, (start_index, start_time, epoch_graph) in enumerate(boundaries):
        end_index = (
            boundaries[number + 1][0] if number + 1 < len(boundaries) else total
        )
        epochs.append(
            MembershipEpoch(
                index=number,
                start_index=start_index,
                end_index=end_index,
                start_time=start_time,
                graph=epoch_graph,
            )
        )
    return epochs
