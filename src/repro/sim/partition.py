"""Partitioned parallel event scheduling for one large simulation run.

The sweep engine (:mod:`repro.scale`) shards across *runs*; this module
shards *inside* a run.  The knowledge graph is split into locality-aware
shards (:func:`partition_graph`), each shard gets its own
:class:`PartitionSimulator` with a keyed event scheduler running on a
worker (an OS process, or inline in the calling process), and the workers
exchange partition-crossing messages (:class:`~repro.sim.events.PartitionEnvelope`)
at deterministic epoch barriers.  The merged trace is **bit-identical**
to the sequential :class:`~repro.sim.network.Simulator` run of the same
scenario — the canonical trace digest is the equivalence oracle, exactly
as it is for the sweep engine.

Determinism invariants
----------------------
The backend reproduces the sequential run, not merely "a" correct run:

* **Genealogical order keys.**  The sequential scheduler breaks timestamp
  ties by global insertion order, which no single partition can observe.
  Every scheduled event therefore carries a nested *order key* encoding
  where in the sequential run its scheduling action would have happened:
  ``(0, n)`` for the n-th pre-start setup action (schedule replay is
  replicated, so ``n`` agrees everywhere), ``(1, rank, i)`` for the i-th
  action of node ``rank``'s ``on_start`` (ranks are global sorted-by-repr
  positions), and ``(2, parent_time, parent_key, child)`` for actions
  taken while an event executes — ``child`` is ``(0, counter)`` for a
  handler's own actions and ``(1, repr(target))`` for replicated fan-outs
  (crash notifications, membership announcements), whose sequential tie
  order is "sorted by target repr".  Lexicographic order over these keys
  equals the sequential insertion order among equal-time events, by
  induction over the event genealogy.
* **Replicated control plane.**  Crashes, joins, recoveries and leaves
  are statically scheduled, so every partition replays *all* of them,
  keeping graph snapshots, incarnations, membership epochs and the seeded
  RNG in lockstep (attachment policies are the only RNG consumers; the
  latency and failure-detector models must be RNG-free, which is
  validated up front).  Handlers, subscriptions and trace emissions are
  filtered to each partition's owned nodes; the union over partitions is
  exactly the sequential run.
* **Conservative barriers.**  Only point-to-point messages cross
  partitions.  An epoch window ``[s, s + lookahead)`` with ``lookahead =``
  the minimum cross-partition latency guarantees every envelope sent in a
  window is delivered at or after the next barrier, so no partition ever
  simulates past an input it has not yet received.  Windows hop to the
  next globally pending timestamp, so idle stretches cost one barrier.
* **Deterministic merge.**  Each emission is annotated with a merge key
  (start-phase: ``(1, rank, i)``; runtime: ``(2, time, event_key, i)``);
  per-partition logs are already sorted, and a k-way merge reconstructs
  the sequential trace byte-for-byte.

The determinism suite (``tests/integration/test_partitioned_determinism``)
pins ``partitions=N`` digest-equality against the sequential simulator
for static, mid-epoch-crash and steady-churn workloads.
"""

from __future__ import annotations

import heapq
import math
import os
import pickle
import zlib
from collections import deque
from dataclasses import dataclass
from typing import Any, Iterable, Optional

from ..api.result import RunResult
from ..core.protocol import CliffEdgeNode  # here, not in the forked worker that builds the nodes
from ..graph import KnowledgeGraph, NodeId
from ..trace import EventColumns, StreamingRunMetrics, TraceRecorder, combine_partials
from ..trace.recorder import _RETAINED_CODES
from .events import EventKind, PartitionEnvelope
from .failure_detector import (
    FailureDetectorPolicy,
    PerfectFailureDetector,
    ScriptedFailureDetector,
)
from .faults import FaultModel, FaultsError, check_partition_safe
from .latency import ConstantLatency, LatencyModel, PerPairLatency
from .network import DEFAULT_MAX_EVENTS, SimulationError, Simulator
from .scheduler import KeyedEventScheduler


class PartitionError(SimulationError):
    """Raised on partitioned-backend misuse or contract violations."""


# ---------------------------------------------------------------------------
# Graph partitioning
# ---------------------------------------------------------------------------
def partition_graph(
    graph: KnowledgeGraph, count: int
) -> tuple[frozenset[NodeId], ...]:
    """Split ``graph`` into ``count`` balanced, locality-aware shards.

    Deterministic: seeds are chosen by farthest-point sampling (BFS
    distance, ties by ``repr``), then grown breadth-first with the
    smallest shard claiming next, so sizes stay within a few nodes of
    each other and shards are contiguous wherever the graph allows.
    Nodes unreachable from every seed (disconnected leftovers) are dealt
    round-robin to the smallest shards in ``repr`` order.
    """
    if count < 1:
        raise PartitionError(f"partition count must be >= 1, got {count}")
    nodes = sorted(graph.nodes, key=repr)
    if count > len(nodes):
        raise PartitionError(
            f"cannot split {len(nodes)} nodes into {count} partitions"
        )
    if count == 1:
        return (frozenset(nodes),)

    def bfs_distances(sources: list[NodeId]) -> dict[NodeId, int]:
        dist = {source: 0 for source in sources}
        frontier = deque(sources)
        while frontier:
            current = frontier.popleft()
            for neighbour in sorted(graph.neighbours(current), key=repr):
                if neighbour not in dist:
                    dist[neighbour] = dist[current] + 1
                    frontier.append(neighbour)
        return dist

    seeds = [nodes[0]]
    while len(seeds) < count:
        dist = bfs_distances(seeds)
        best = None
        best_distance = -1.0
        for node in nodes:
            if node in seeds:
                continue
            node_distance = dist.get(node, math.inf)
            if node_distance > best_distance:
                best = node
                best_distance = node_distance
        assert best is not None
        seeds.append(best)

    owner: dict[NodeId, int] = {seed: index for index, seed in enumerate(seeds)}
    frontiers = [deque([seed]) for seed in seeds]
    sizes = [1] * count
    remaining = len(nodes) - count
    while remaining:
        # The smallest shard claims next, so sizes stay within one node of
        # each other as long as the frontiers allow.
        claimed = False
        for index in sorted(range(count), key=lambda i: (sizes[i], i)):
            frontier = frontiers[index]
            while frontier:
                head = frontier[0]
                free = [
                    neighbour
                    for neighbour in graph.neighbours(head)
                    if neighbour not in owner
                ]
                if free:
                    claim = min(free, key=repr)
                    owner[claim] = index
                    frontier.append(claim)
                    sizes[index] += 1
                    remaining -= 1
                    claimed = True
                    break
                frontier.popleft()
            if claimed:
                break
        if not claimed:
            # Disconnected leftovers: deal them to the smallest shards.
            for node in nodes:
                if node not in owner:
                    smallest = min(range(count), key=lambda i: (sizes[i], i))
                    owner[node] = smallest
                    sizes[smallest] += 1
                    remaining -= 1
            break
    shards: list[set[NodeId]] = [set() for _ in range(count)]
    for node, index in owner.items():
        shards[index].add(node)
    return tuple(frozenset(shard) for shard in shards)


def _cross_lookahead(
    latency: LatencyModel, faults: Optional[FaultModel] = None
) -> float:
    """The guaranteed minimum delay of any partition-crossing message.

    Only RNG-free latency models are admissible: a random draw at a send
    site would consume the shared seeded stream in partition-dependent
    order and break the lockstep-RNG invariant (and a zero-lookahead
    model would break the barrier protocol).

    Fault models never *shrink* that bound: an injected fault only drops
    a message or adds a non-negative offset to its base delivery time
    (:mod:`repro.sim.faults`), so even with an arbitrary reorder window
    every envelope still satisfies ``delivery_time >= send_time +
    min_latency`` and the lookahead is the fault-free one.  The check
    below rejects fault models that cannot guarantee this (or whose
    decisions would consume shared randomness at send sites).
    """
    _check_faults(faults)
    if isinstance(latency, ConstantLatency):
        return latency.delay
    if isinstance(latency, PerPairLatency):
        return min([latency.default] + [delay for _, delay in latency.pairs])
    raise PartitionError(
        "partitioned runs need a deterministic latency model "
        f"(constant or per-pair), got {type(latency).__name__}"
    )


def _check_faults(faults: Optional[FaultModel]) -> None:
    """Reject fault models the partitioned backend cannot shard safely."""
    try:
        check_partition_safe(faults)
    except FaultsError as exc:
        raise PartitionError(str(exc)) from exc


def _check_failure_detector(policy: FailureDetectorPolicy) -> None:
    if isinstance(policy, (PerfectFailureDetector, ScriptedFailureDetector)):
        return
    raise PartitionError(
        "partitioned runs need a deterministic failure detector "
        f"(perfect or scripted), got {type(policy).__name__}"
    )


def _fork_context():
    """The ``fork`` multiprocessing context, or ``None`` where unsupported.

    Process workers must inherit the parent's hash seed: canonical
    container layout makes iteration order a function of (value, hash
    seed), and a ``spawn``/``forkserver`` child re-randomises the seed —
    string node ids would then fold borders and opinion vectors in a
    different observable order than the sequential run, breaking the
    digest contract.  ``fork`` children share the parent's seed.

    Workers or not, a run over ``str`` ids (the figure documents) digests
    differently per ``PYTHONHASHSEED``; int and tuple-of-int ids hash the
    same everywhere (docs/ARCHITECTURE.md, "Determinism and the hash seed").
    """
    import multiprocessing

    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return None


# ---------------------------------------------------------------------------
# The per-partition simulator
# ---------------------------------------------------------------------------
class _PartitionTraceRecorder(TraceRecorder):
    """A shard's trace: emissions filtered to owned nodes, with merge keys.

    A plain recorder of the run's collection mode whose columns are moved
    aside, so that every emission takes :meth:`_fold_row` — which drops
    what the shard does not own, mints the merge key of what it does, and
    only then stores the row: in the columns of a full trace (one key per
    row) or in the digest fold (one key per retained outcome event).  The
    coordinator merges the shards' payloads into the result trace.
    """

    def __init__(self, sim: "PartitionSimulator", collection: str) -> None:
        super().__init__(collection)
        self._sim = sim
        self.keys: list[tuple] = []
        self._rows, self._columns = self._columns, None

    def _fold_row(self, time, kind, node, peer, payload, detail) -> None:
        key = self._sim._emit_key(node)
        if key is None:
            return
        if self._rows is not None:
            self.keys.append(key)
            self._rows.append_row(time, kind, node, peer, payload, detail)
        else:
            if kind.code in _RETAINED_CODES:
                self.keys.append(key)
            super()._fold_row(time, kind, node, peer, payload, detail)

    def payload(self) -> dict[str, Any]:
        """The shard's contribution, shaped for the coordinator.  A full
        trace ships one ``array`` buffer per column plus the key list; a
        digest-only run a 32-byte partial digest sum, the streamed metrics
        and the few retained events — zero trace bytes cross the process
        boundary."""
        if self._rows is not None:
            return {"collection": "trace", "keys": self.keys, "columns": self._rows}
        return {
            "collection": "digest",
            "digest_partial": self._digest_stream.partial(),
            "metrics": self._metrics_stream,
            "retained": list(zip(self.keys, self._retained)),
            "events": self._count,
            "end_time": self._end_time,
        }


class PartitionSimulator(Simulator):
    """One shard of a partitioned run.

    Replays the *whole* control plane (crashes, membership, graph
    snapshots) but installs processes, delivers events and records trace
    emissions only for its owned nodes.  Driven window-by-window by a
    coordinator (never via :meth:`run`), with cross-partition sends
    diverted into an envelope outbox.
    """

    # Simulator declares __slots__; the subclass adds its own state.
    __slots__ = (
        "_owned",
        "_owner_of",
        "_pid",
        "_setup_counter",
        "_ctx_key",
        "_ctx_time",
        "_ctx_children",
        "_ctx_emits",
        "_start_rank",
        "_start_actions",
        "_start_emits",
        "_outbox",
    )

    def __init__(
        self,
        graph: KnowledgeGraph,
        shards: tuple[frozenset[NodeId], ...],
        pid: int,
        latency: LatencyModel | None = None,
        failure_detector: FailureDetectorPolicy | None = None,
        seed: int = 0,
        collection: str = "trace",
        faults: FaultModel | None = None,
    ) -> None:
        super().__init__(
            graph,
            latency=latency,
            failure_detector=failure_detector,
            seed=seed,
            scheduler=KeyedEventScheduler(),
            faults=faults,
        )
        self._scheduler.context = self  # type: ignore[attr-defined]
        _check_failure_detector(self.failure_detector)
        _cross_lookahead(self.latency, self.faults)
        self._owned = frozenset(shards[pid])
        self._owner_of = {
            node: index for index, shard in enumerate(shards) for node in shard
        }
        if self.graph.nodes - self._owner_of.keys():
            raise PartitionError("shards must cover every graph node")
        self._pid = pid
        self._setup_counter = 0
        #: Order key of the currently executing event (None between events).
        self._ctx_key: Optional[tuple] = None
        self._ctx_time = 0.0
        self._ctx_children = 0
        self._ctx_emits = 0
        #: Global rank of the node whose on_start is running (start phase).
        self._start_rank: Optional[int] = None
        self._start_actions = 0
        self._start_emits = 0
        self._outbox: list[PartitionEnvelope] = []
        #: Keyed trace, appended in execution order — already sorted, by
        #: construction of the merge keys.
        if collection not in TraceRecorder.COLLECTIONS:
            raise PartitionError(f"unknown collection mode {collection!r}")
        self.trace = _PartitionTraceRecorder(self, collection)

    # -- ownership -----------------------------------------------------
    @property
    def owned_nodes(self) -> frozenset[NodeId]:
        return self._owned

    def owner_of(self, node: NodeId) -> int:
        return self._owner_of[node]

    def _delivers_to(self, node: NodeId) -> bool:
        return node in self._owned

    # -- order keys ----------------------------------------------------
    def _mint_key(self, fanout: Any) -> tuple:
        if self._ctx_key is not None:
            if fanout is None:
                child = (0, self._ctx_children)
                self._ctx_children += 1
            else:
                child = (1, repr(fanout))
            return (2, self._ctx_time, self._ctx_key, child)
        if self._start_rank is not None:
            index = self._start_actions
            self._start_actions += 1
            return (1, self._start_rank, index)
        index = self._setup_counter
        self._setup_counter += 1
        return (0, index)

    def _emit_key(self, node: Optional[NodeId]) -> Optional[tuple]:
        if node is None:
            raise PartitionError(
                "partitioned runs cannot attribute a node-less trace event"
            )
        if node not in self._owned:
            return None
        if self._ctx_key is not None:
            index = self._ctx_emits
            self._ctx_emits += 1
            return (2, self._ctx_time, self._ctx_key, index)
        if self._start_rank is not None:
            index = self._start_emits
            self._start_emits += 1
            return (1, self._start_rank, index)
        raise PartitionError("trace emission outside any event context")

    def _schedule_keyed(self, time: float, key: tuple, callback) -> None:
        # The scheduler's run_window() installs (time, key) as this
        # simulator's event context before invoking the raw callback, so
        # no per-event wrapper closure is needed.
        self._scheduler.schedule_keyed(time, key, callback)  # type: ignore[attr-defined]

    # -- scheduling hooks ----------------------------------------------
    def _schedule_event_at(self, time, callback, fanout=None) -> None:
        self._schedule_keyed(time, self._mint_key(fanout), callback)

    def _defer(self, delay, callback, fanout=None) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        self._schedule_event_at(self._scheduler.now + delay, callback, fanout)

    # -- configuration and start ---------------------------------------
    def populate(self, factory) -> None:
        """Install ``factory(node)`` on every *owned* node."""
        self._process_factory = factory
        for node in self.graph.nodes:
            if node in self._owned and node not in self._processes:
                self.add_process(node, factory(node))

    def start(self) -> None:
        """Deliver ``init`` to owned processes, in global rank order.

        Ranks are positions in the repr-sorted full node list, so the
        merged start-phase emissions interleave exactly as the sequential
        ``start()`` (which iterates all nodes in that order) produced them.
        """
        if self._started:
            raise SimulationError("start() called twice")
        missing = self._owned - self._processes.keys()
        if missing:
            raise SimulationError(
                f"{len(missing)} owned nodes have no process installed; "
                "call populate() before start()"
            )
        self._started = True
        for rank, node in enumerate(sorted(self.graph.nodes, key=repr)):
            if node not in self._owned:
                continue
            self._start_rank = rank
            self._start_actions = 0
            self._start_emits = 0
            self.trace.emit(self.now, EventKind.NODE_STARTED, node=node)
            self._processes[node].on_start(self._contexts[node])
        self._start_rank = None

    def run(self, until=None, max_events=DEFAULT_MAX_EVENTS):
        raise PartitionError(
            "a PartitionSimulator is driven window-by-window by its "
            "coordinator; use run_partitioned()"
        )

    def schedule_call(self, time, callback) -> None:
        raise PartitionError(
            "scripted scenario callbacks cannot be replicated across "
            "partitions; use the sequential simulator"
        )

    # -- membership hooks ----------------------------------------------
    def _admit(self, node: NodeId, neighbours: frozenset[NodeId]) -> None:
        # A joiner is owned by the partition owning its first (repr-order)
        # neighbour — every partition replays the join and computes the
        # same assignment.  Ownership must be claimed before the join's
        # NODE_JOINED emission, which only the owner records.
        if node not in self._owner_of:
            anchor = min(neighbours, key=repr)
            owner = self._owner_of[anchor]
            self._owner_of[node] = owner
            if owner == self._pid:
                self._owned = self._owned | {node}

    def _activate(self, node: NodeId) -> None:
        if node in self._owned:
            super()._activate(node)

    # -- the message hot path ------------------------------------------
    # The send path itself (latency sample, FIFO clamp, channel-clock
    # advance, fault decisions) is inherited verbatim from
    # Simulator._send — one implementation means faults and clocks cannot
    # diverge between backends.  Only the final act of scheduling a
    # delivered copy differs: it gets a genealogical key, and a foreign
    # target turns it into an outbox envelope carrying the (identically
    # computed, fault-offset-included) delivery time.
    def _schedule_delivery(
        self,
        delivery_time: float,
        source: NodeId,
        target: NodeId,
        message: Any,
        target_incarnation: int,
    ) -> None:
        key = self._mint_key(None)
        if self._owner_of[target] == self._pid:
            self._schedule_keyed(
                delivery_time,
                key,
                lambda: self._deliver(source, target, message, target_incarnation),
            )
        else:
            self._outbox.append(
                PartitionEnvelope(
                    delivery_time=delivery_time,
                    key=key,
                    source=source,
                    target=target,
                    payload=message,
                    target_incarnation=target_incarnation,
                )
            )

    # -- the barrier surface -------------------------------------------
    def inject(self, envelopes: Iterable[PartitionEnvelope]) -> None:
        """Schedule deliveries received from other partitions."""
        for envelope in envelopes:
            if self._owner_of.get(envelope.target) != self._pid:
                raise PartitionError(
                    f"envelope for foreign node {envelope.target!r} "
                    f"routed to partition {self._pid}"
                )
            self._schedule_keyed(
                envelope.delivery_time,
                envelope.key,
                lambda e=envelope: self._deliver(
                    e.source, e.target, e.payload, e.target_incarnation
                ),
            )

    def drain_outbox(self) -> dict[int, list[PartitionEnvelope]]:
        """Envelopes produced since the last barrier, grouped by owner."""
        routed: dict[int, list[PartitionEnvelope]] = {}
        for envelope in self._outbox:
            routed.setdefault(self._owner_of[envelope.target], []).append(envelope)
        self._outbox = []
        return routed

    def run_window(
        self, end: float, until: Optional[float], budget: int
    ) -> int:
        """Execute the window ``[now, end)`` (clamped inclusively at
        ``until``); returns the number of events executed."""
        scheduler = self._scheduler
        if until is not None and end > until:
            executed = scheduler.run_window(until, inclusive=True, max_events=budget)  # type: ignore[attr-defined]
        else:
            executed = scheduler.run_window(end, max_events=budget)  # type: ignore[attr-defined]
        if executed >= budget and not scheduler.is_idle():
            raise PartitionError(
                f"partition {self._pid} exceeded its max_events budget; "
                "partitioned runs must run to quiescence (or an explicit "
                "'until') to preserve the determinism contract"
            )
        return executed

    def next_event_time(self) -> Optional[float]:
        return self._scheduler.next_event_time()

    def trace_payload(self) -> dict[str, Any]:
        """The shard's trace contribution, shaped for the coordinator."""
        return self.trace.payload()


# ---------------------------------------------------------------------------
# Workers
# ---------------------------------------------------------------------------
@dataclass
class _WorkerConfig:
    """Everything a worker needs to rebuild its shard (picklable)."""

    pid: int
    shards: tuple[frozenset[NodeId], ...]
    graph: KnowledgeGraph
    schedule: Any
    membership: Any
    latency: Optional[LatencyModel]
    failure_detector: Optional[FailureDetectorPolicy]
    seed: int
    arbitration_enabled: bool
    early_termination: bool
    max_events: int
    until: Optional[float]
    collection: str = "trace"
    faults: Optional[FaultModel] = None


def _build_partition(config: _WorkerConfig) -> PartitionSimulator:
    sim = PartitionSimulator(
        config.graph,
        config.shards,
        config.pid,
        latency=config.latency,
        failure_detector=config.failure_detector,
        seed=config.seed,
        collection=config.collection,
        faults=config.faults,
    )
    sim.populate(
        lambda node_id: CliffEdgeNode(
            node_id,
            arbitration_enabled=config.arbitration_enabled,
            early_termination=config.early_termination,
        )
    )
    if config.membership is None:
        config.schedule.applied_to(sim)
    else:
        config.membership.applied_to(sim, crashes=config.schedule)
    sim.start()
    return sim


def _finish_payload(
    sim: PartitionSimulator, executed: int, config: _WorkerConfig
) -> dict[str, Any]:
    """What a worker ships back when the run is over.

    The trace contribution depends on the collection mode (columnar rows
    vs folded digest state); the final graph rides along only for churn
    runs, which are the only consumers of it.
    """
    payload = sim.trace_payload()
    payload["idle"] = sim.is_quiescent()
    payload["processed"] = executed
    if config.membership is not None:
        payload["graph"] = sim.graph
    return payload


def _pack_result(payload: dict[str, Any]) -> bytes:
    """Encode a finish payload for the pipe: pickle + fast zlib.

    Trace payloads are highly repetitive (timestamp runs, shared key
    structure, interned ids), so even level-1 zlib cuts the bytes that
    actually cross the process boundary by several times for ~2 ms per
    worker.  Inline workers skip this — nothing crosses a boundary.
    """
    return zlib.compress(pickle.dumps(payload, pickle.HIGHEST_PROTOCOL), 1)


def _unpack_result(blob: bytes) -> dict[str, Any]:
    return pickle.loads(zlib.decompress(blob))


class _InlineWorker:
    """Runs a shard in the calling process (tests, single-CPU hosts)."""

    def __init__(self, config: _WorkerConfig) -> None:
        self._config = config
        self._sim = _build_partition(config)
        self._executed = 0
        self._reply: Any = None
        self.next_time = self._sim.next_event_time()

    def begin(self, end: float, envelopes: list[PartitionEnvelope]) -> None:
        self._sim.inject(envelopes)
        budget = self._config.max_events - self._executed
        self._executed += self._sim.run_window(end, self._config.until, budget)
        self._reply = (self._sim.drain_outbox(), self._sim.next_event_time())

    def collect(self) -> dict[int, list[PartitionEnvelope]]:
        outbox, self.next_time = self._reply
        return outbox

    def finish(self) -> dict[str, Any]:
        return _finish_payload(self._sim, self._executed, self._config)

    def close(self) -> None:
        pass


def _process_worker_main(connection, config: _WorkerConfig) -> None:
    """Entry point of a partition worker process."""
    try:
        sim = _build_partition(config)
        executed = 0
        connection.send(("ready", sim.next_event_time()))
        while True:
            message = connection.recv()
            if message[0] == "finish":
                connection.send(
                    ("result", _pack_result(_finish_payload(sim, executed, config)))
                )
                return
            _tag, end, envelopes = message
            sim.inject(envelopes)
            executed += sim.run_window(end, config.until, config.max_events - executed)
            connection.send(("barrier", sim.drain_outbox(), sim.next_event_time()))
    except BaseException:  # noqa: BLE001 - forwarded to the coordinator
        import traceback

        try:
            connection.send(("error", traceback.format_exc()))
        except OSError:
            pass
    finally:
        connection.close()


class _ProcessWorker:
    """Runs a shard in a child process, talking over a duplex pipe."""

    def __init__(self, config: _WorkerConfig, mp_context) -> None:
        self._parent_conn, child_conn = mp_context.Pipe(duplex=True)
        self._process = mp_context.Process(
            target=_process_worker_main,
            args=(child_conn, config),
            daemon=True,
            name=f"repro-partition-{config.pid}",
        )
        self._process.start()
        child_conn.close()
        self.next_time = self._recv("ready")

    def _recv(self, expected: str):
        try:
            message = self._parent_conn.recv()
        except EOFError:
            raise PartitionError(
                f"partition worker {self._process.name} died unexpectedly"
            ) from None
        if message[0] == "error":
            raise PartitionError(
                f"partition worker {self._process.name} failed:\n{message[1]}"
            )
        if message[0] != expected:
            raise PartitionError(
                f"unexpected {message[0]!r} reply from {self._process.name}"
            )
        return message[1:] if len(message) > 2 else message[1]

    def begin(self, end: float, envelopes: list[PartitionEnvelope]) -> None:
        self._parent_conn.send(("window", end, envelopes))

    def collect(self) -> dict[int, list[PartitionEnvelope]]:
        outbox, self.next_time = self._recv("barrier")
        return outbox

    def finish(self) -> dict[str, Any]:
        self._parent_conn.send(("finish",))
        return _unpack_result(self._recv("result"))

    def close(self) -> None:
        try:
            self._parent_conn.close()
        except OSError:
            pass
        self._process.join(timeout=5.0)
        if self._process.is_alive():
            self._process.terminate()
            self._process.join(timeout=5.0)


# ---------------------------------------------------------------------------
# The coordinator
# ---------------------------------------------------------------------------
def _drive_barriers(
    workers: list, lookahead: float, until: Optional[float]
) -> tuple[int, bool]:
    """Run the epoch-barrier protocol to global quiescence (or ``until``).

    Returns ``(barrier_rounds, drained)``; ``drained`` is False when the
    loop stopped because every remaining event lies beyond ``until``.
    """
    pending: dict[int, list[PartitionEnvelope]] = {}
    rounds = 0
    while True:
        times = [w.next_time for w in workers if w.next_time is not None]
        times.extend(
            envelope.delivery_time
            for envelopes in pending.values()
            for envelope in envelopes
        )
        if not times:
            return rounds, True
        start = min(times)
        if until is not None and start > until:
            return rounds, False
        end = start + lookahead
        for index, worker in enumerate(workers):
            worker.begin(end, pending.pop(index, []))
        for worker in workers:
            for destination, envelopes in worker.collect().items():
                pending.setdefault(destination, []).extend(envelopes)
        rounds += 1


def _merge_columnar(results: list[dict[str, Any]]) -> TraceRecorder:
    """K-way merge of the per-partition columnar logs (already sorted).

    Operates row-wise on the columns: each merged row is copied between
    column stores (kind codes verbatim, node ids re-interned) without
    ever materialising an event object.
    """

    def rows(result: dict[str, Any]):
        columns = result["columns"]
        for index, key in enumerate(result["keys"]):
            yield key, columns, index

    merged = EventColumns()
    for _key, columns, index in heapq.merge(
        *(rows(result) for result in results), key=lambda row: row[0]
    ):
        merged.append_row_from(columns, index)
    return TraceRecorder.from_columns(merged)


def _merge_digest(results: list[dict[str, Any]]) -> TraceRecorder:
    """Combine per-partition digest states (no event log anywhere).

    The partial digest sums add (node ownership is disjoint — see
    :func:`~repro.trace.digest.combine_partials`), the streamed metrics
    accumulators merge field-wise, and the few retained outcome events
    k-way merge on their keys exactly like full trace rows would.
    """
    partial = combine_partials(result["digest_partial"] for result in results)
    metrics = StreamingRunMetrics()
    for result in results:
        metrics.merge(result["metrics"])
    retained = [
        event
        for _key, event in heapq.merge(
            *(result["retained"] for result in results), key=lambda pair: pair[0]
        )
    ]
    return TraceRecorder.from_digest_state(
        partial=partial,
        events=sum(result["events"] for result in results),
        retained=retained,
        metrics=metrics,
        end_time=max(result["end_time"] for result in results),
    )


def _merge_traces(results: list[dict[str, Any]]) -> TraceRecorder:
    """Merge per-partition trace payloads into the run's recorder."""
    if results[0]["collection"] == "digest":
        return _merge_digest(results)
    return _merge_columnar(results)


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------
@dataclass
class PartitionedRunResult(RunResult):
    """A static partitioned run: the one outcome plus the barrier's counts.

    A class only because the perf ledger tells such a run from the others
    by ``hasattr(result, "barrier_rounds")``; these belong in ``labels``.
    """

    partitions: int = 1
    barrier_rounds: int = 0

    def as_dict(self) -> dict[str, Any]:
        return {
            **super().as_dict(),
            "partitions": self.partitions,
            "barrier_rounds": self.barrier_rounds,
        }

    def _headline(self) -> str:
        return (
            f"{super()._headline()} "
            f"partitions={self.partitions} barriers={self.barrier_rounds}"
        )


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------
def run_partitioned(
    graph: KnowledgeGraph,
    schedule,
    membership=None,
    *,
    partitions: int,
    latency: Optional[LatencyModel] = None,
    failure_detector: Optional[FailureDetectorPolicy] = None,
    seed: int = 0,
    arbitration_enabled: bool = True,
    early_termination: bool = False,
    check: bool = False,
    max_events: int = DEFAULT_MAX_EVENTS,
    until: Optional[float] = None,
    backend: str = "auto",
    collection: str = "trace",
    faults: Optional[FaultModel] = None,
):
    """Run one scenario on the partitioned backend.

    Digest-identical to :func:`~repro.experiments.runner.run_cliff_edge`
    for the same inputs (static, or with a ``membership`` schedule), at
    any partition count.

    ``backend`` selects where shards run: ``"process"`` (one OS process
    per shard — the parallel path), ``"inline"`` (all shards in the
    calling process — no parallelism, but no multiprocessing overhead
    either; what the determinism tests use), or ``"auto"`` (processes
    when the host has more than one CPU and more than one shard).

    ``collection="digest"`` keeps no event log anywhere: workers fold
    digest + metrics as events fire and ship only that state back (zero
    trace bytes cross the process boundary).  The result's ``digest()``
    is bit-identical to a full-trace run.  Digest mode excludes
    ``check=True`` (CD1–CD7 walk the trace) and churn (epoch
    reconstruction walks the trace).
    """
    if backend not in ("auto", "inline", "process"):
        raise PartitionError(f"unknown partition backend {backend!r}")
    if collection not in TraceRecorder.COLLECTIONS:
        raise PartitionError(f"unknown collection mode {collection!r}")
    schedule.validate(graph)
    if membership is not None and membership.events:
        membership.validate(graph, schedule)
    else:
        membership = None
    if collection == "digest":
        if check:
            raise PartitionError(
                "collection='digest' keeps no event log, so the CD1-CD7 "
                "checkers cannot run; use check=False or collection='trace'"
            )
        if membership is not None:
            raise PartitionError(
                "collection='digest' keeps no event log, so churn epoch "
                "reconstruction cannot run; use collection='trace'"
            )
    shards = partition_graph(graph, partitions)
    effective_latency = latency if latency is not None else ConstantLatency(1.0)
    effective_detector = (
        failure_detector if failure_detector is not None else PerfectFailureDetector(1.0)
    )
    _check_failure_detector(effective_detector)
    lookahead = _cross_lookahead(effective_latency, faults)
    if backend == "auto":
        import multiprocessing

        # Stay inline inside any child process (a partitioned spec inside
        # a sweep's pool workers would otherwise fork partitions-per-task
        # extra processes and oversubscribe the host), on single-CPU
        # hosts, and where the fork start method is unavailable.  The
        # digests are backend-independent, so inline is always a safe
        # substitute.
        in_child = (
            multiprocessing.parent_process() is not None
            or multiprocessing.current_process().daemon
        )
        backend = (
            "process"
            if partitions > 1
            and not in_child
            and (os.cpu_count() or 1) > 1
            and _fork_context() is not None
            else "inline"
        )
    configs = [
        _WorkerConfig(
            pid=pid,
            shards=shards,
            graph=graph,
            schedule=schedule,
            membership=membership,
            latency=effective_latency,
            failure_detector=effective_detector,
            seed=seed,
            arbitration_enabled=arbitration_enabled,
            early_termination=early_termination,
            max_events=max_events,
            until=until,
            collection=collection,
            faults=faults,
        )
        for pid in range(partitions)
    ]
    workers: list = []
    try:
        if backend == "process":
            mp_context = _fork_context()
            if mp_context is None:
                raise PartitionError(
                    "the process backend needs the 'fork' start method "
                    "(workers must inherit the parent's hash seed); use "
                    "backend='inline' on this platform"
                )
            workers = [_ProcessWorker(config, mp_context) for config in configs]
        else:
            workers = [_InlineWorker(config) for config in configs]
        rounds, drained = _drive_barriers(workers, lookahead, until)
        results = [worker.finish() for worker in workers]
    finally:
        for worker in workers:
            worker.close()

    labels = {"partitions": partitions, "partition_backend": backend}
    if collection != "trace":
        labels["collection"] = collection
    outcome = {
        "check": check,
        "quiescent": drained and all(result["idle"] for result in results),
        "labels": labels,
    }
    trace = _merge_traces(results)
    if membership is not None:
        return RunResult.from_trace(
            results[0]["graph"],
            schedule,
            trace,
            membership=membership,
            base_graph=graph,
            **outcome,
        )
    return PartitionedRunResult.from_trace(
        graph, schedule, trace, partitions=partitions, barrier_rounds=rounds, **outcome
    )


# ---------------------------------------------------------------------------
# Payload measurement
# ---------------------------------------------------------------------------
def measure_worker_payloads(
    graph: KnowledgeGraph,
    schedule,
    *,
    partitions: int,
    collection: str = "trace",
    latency: Optional[LatencyModel] = None,
    failure_detector: Optional[FailureDetectorPolicy] = None,
    seed: int = 0,
    max_events: int = DEFAULT_MAX_EVENTS,
    until: Optional[float] = None,
) -> dict[str, Any]:
    """Pickled sizes of the per-worker finish payloads for one scenario.

    Runs the scenario on inline workers and measures exactly what each
    worker would have shipped across a process boundary:
    ``payload_bytes`` is the packed wire blob (:func:`_pack_result` —
    what a process worker actually writes to the pipe),
    ``raw_payload_bytes`` the uncompressed pickle of the same payload.
    For ``collection="trace"`` the result also includes the object-trace
    baseline — the pre-columnar ``(key, event)`` object list, pickled
    uncompressed exactly as the old wire format shipped it — so the
    serialization-budget tests and the benchmark can report the trace
    tax against a fixed yardstick.
    """
    if collection not in TraceRecorder.COLLECTIONS:
        raise PartitionError(f"unknown collection mode {collection!r}")
    schedule.validate(graph)
    shards = partition_graph(graph, partitions)
    effective_latency = latency if latency is not None else ConstantLatency(1.0)
    effective_detector = (
        failure_detector if failure_detector is not None else PerfectFailureDetector(1.0)
    )
    _check_failure_detector(effective_detector)
    lookahead = _cross_lookahead(effective_latency)
    configs = [
        _WorkerConfig(
            pid=pid,
            shards=shards,
            graph=graph,
            schedule=schedule,
            membership=None,
            latency=effective_latency,
            failure_detector=effective_detector,
            seed=seed,
            arbitration_enabled=True,
            early_termination=False,
            max_events=max_events,
            until=until,
            collection=collection,
        )
        for pid in range(partitions)
    ]
    workers = [_InlineWorker(config) for config in configs]
    _drive_barriers(workers, lookahead, until)
    results = [worker.finish() for worker in workers]
    payload_bytes = [len(_pack_result(result)) for result in results]
    raw_payload_bytes = [
        len(pickle.dumps(result, pickle.HIGHEST_PROTOCOL)) for result in results
    ]
    measured: dict[str, Any] = {
        "collection": collection,
        "partitions": partitions,
        "payload_bytes": payload_bytes,
        "total_payload_bytes": sum(payload_bytes),
        "raw_payload_bytes": raw_payload_bytes,
        "total_raw_payload_bytes": sum(raw_payload_bytes),
    }
    if collection == "trace":
        baseline_bytes = []
        for result in results:
            columns = result["columns"]
            baseline = {
                key: value
                for key, value in result.items()
                if key not in ("keys", "columns")
            }
            baseline["annotated"] = list(zip(result["keys"], iter(columns)))
            baseline_bytes.append(
                len(pickle.dumps(baseline, pickle.HIGHEST_PROTOCOL))
            )
        measured["object_baseline_bytes"] = baseline_bytes
        measured["total_object_baseline_bytes"] = sum(baseline_bytes)
    return measured
