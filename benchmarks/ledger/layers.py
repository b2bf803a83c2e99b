"""Per-layer measurement: which callables get a span, and the direct timings.

Module names of ``src/repro`` are the layers.  Everything here goes
through public names only; the spans sit *around* the calls into a layer
(see :mod:`spans`), the direct measurements call a layer's public entry
points in a loop of their own.
"""

from __future__ import annotations

import json
import pickle
import statistics
import tempfile
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterable

from spans import Span, SpanRecorder, self_times

#: Span name of one whole operation (the benchmark's own root span).
OP = "op"


def span_targets() -> list[tuple]:
    """``(owner, attribute, span name[, note])`` for every wrapped boundary.

    Functions that other modules imported by name are listed once per
    importing module: the wrapper has to replace the name the caller reads.
    """
    import repro.api.session as session
    import repro.churn.properties as churn_properties
    import repro.churn.runner as churn_runner
    import repro.core.properties as core_properties
    import repro.experiments.runner as static_runner
    import repro.runtime.async_runtime as async_runtime
    import repro.sim.partition as partition
    import repro.trace as trace
    from repro.api.specs import SweepSpec
    from repro.core.protocol import CliffEdgeNode
    from repro.graph.graph import KnowledgeGraph
    from repro.graph.ranking import CanonicalRanking
    from repro.scale.sweep import ShardedSweepRunner
    from repro.sim.network import Simulator
    from repro.trace.recorder import TraceRecorder
    from repro.vtime.runtime import VirtualRuntime

    targets: list[tuple] = [
        (session, "load_spec", "api.specs.load"),
        (SweepSpec, "tasks", "api.specs.sweep_expand"),
        (session.ExperimentSession, "resolve", "api.session.resolve"),
        (Simulator, "populate", "sim.network.populate"),
        (Simulator, "run", "sim.network.run", lambda sim: sim.processed_events),
        (
            VirtualRuntime,
            "run",
            "runtime.async_runtime.run",
            lambda runtime: runtime.loop.processed_events,
        ),
        (TraceRecorder, "emit", "trace.emit"),
        (TraceRecorder, "digest", "trace.digest"),
        (KnowledgeGraph, "border", "graph.border"),
        (CanonicalRanking, "key", "graph.ranking"),
        (CanonicalRanking, "max_ranked", "graph.ranking"),
        (partition, "partition_graph", "sim.partition.partition_graph"),
        (partition, "run_partitioned", "sim.partition.run"),
        (ShardedSweepRunner, "run", "scale.sweep.run"),
    ]
    for handler in ("on_start", "on_crash", "on_message", "on_membership"):
        targets.append((CliffEdgeNode, handler, "core.protocol"))
    for module in (static_runner, churn_runner, async_runtime, trace):
        targets.append((module, "collect_metrics", "trace.metrics.collect"))
    for module in (static_runner, core_properties):
        targets.append((module, "check_all", "core.properties.check"))
    for module in (churn_runner, churn_properties):
        targets.append((module, "check_churn_all", "churn.properties.check"))
    return targets


def attribute(recorder: SpanRecorder, ops: Iterable[int], events: int) -> dict[str, float]:
    """Per-layer numbers from the spans of ``ops`` (medians across them).

    ``events`` is the trace length of one op, the divisor of the per-event
    costs.  Layers no span of these ops entered are left out.
    """
    by_op: dict[int, list[Span]] = {op: [] for op in ops}
    for span in recorder.spans:
        if span.op in by_op:
            by_op[span.op].append(span)
    per_op = [self_times(spans) for spans in by_op.values()]
    names = set().union(*per_op)

    def seconds(name: str) -> float:
        return statistics.median(table.get(name, (0.0, 0))[0] for table in per_op)

    def calls(name: str) -> int:
        return round(statistics.median(table.get(name, (0.0, 0))[1] for table in per_op))

    measured: dict[str, float] = {}
    for name, metric, scale in (
        ("api.specs.sweep_expand", "api.specs.sweep_expand_ms", 1e3),
        ("api.session.resolve", "api.session.resolve_ms", 1e3),
        ("sim.network.populate", "sim.network.populate_ms", 1e3),
        ("sim.network.run", "sim.network.run_self_s", 1.0),
        ("runtime.async_runtime.run", "runtime.async_runtime.run_self_s", 1.0),
        ("trace.digest", "trace.digest.batch_s", 1.0),
        ("trace.metrics.collect", "trace.metrics.collect_ms", 1e3),
        ("core.properties.check", "core.properties.check_ms", 1e3),
        ("churn.properties.check", "churn.properties.check_ms", 1e3),
        ("sim.partition.partition_graph", "sim.partition.partition_graph_ms", 1e3),
    ):
        if name in names:
            measured[metric] = seconds(name) * scale
    for name in ("core.protocol", "graph.border", "graph.ranking", "trace.emit"):
        if name in names:
            measured[f"{name}.self_s"] = seconds(name)
            measured[f"{name}.calls"] = calls(name)
    if "core.protocol" in names:
        measured["core.protocol.us_per_call"] = (
            seconds("core.protocol") / calls("core.protocol") * 1e6
        )
    if "trace.emit" in names:
        measured["trace.emit.us_per_event"] = seconds("trace.emit") / calls("trace.emit") * 1e6
    if "trace.digest" in names and events:
        measured["trace.digest.us_per_event"] = seconds("trace.digest") / events * 1e6
    for name, metric in (
        ("sim.network.run", "sim.scheduler.events"),
        ("runtime.async_runtime.run", "vtime.loop.callbacks"),
    ):
        if name in names:
            measured[metric] = statistics.median(recorder.notes[name, op] for op in by_op)
    whole = statistics.median(
        span.end - span.start for spans in by_op.values() for span in spans if span.name == OP
    )
    measured["span_coverage"] = sum(seconds(name) for name in names - {OP}) / whole
    return measured


def from_result(result: Any) -> dict[str, float]:
    """The simulated statistics a finished run carries (all *exact*)."""
    measured: dict[str, float] = {}
    metrics = getattr(result, "metrics", None)
    if metrics is not None:
        measured["core.protocol.messages_sent"] = metrics.messages_sent
        measured["core.protocol.bytes_sent"] = metrics.bytes_sent
        measured["core.protocol.decisions"] = metrics.decisions
        if metrics.decisions:
            measured["core.protocol.msgs_per_decision"] = metrics.messages_sent / metrics.decisions
    else:  # a sweep report sums its points
        measured["core.protocol.messages_sent"] = result.total_messages
        measured["core.protocol.decisions"] = result.total_decisions
    membership = getattr(result, "membership", None)
    if membership is not None:
        measured["churn.membership.changes"] = len(membership.events)
    if hasattr(result, "barrier_rounds"):
        measured["sim.partition.barrier_rounds"] = result.barrier_rounds
    trace = getattr(result, "trace", None)
    if trace is not None and trace.collection == "trace":
        measured["trace.columns.pickle_bytes"] = len(pickle.dumps(trace, pickle.HIGHEST_PROTOCOL))
    return measured


def per_call(function: Callable[[], Any], calls: int) -> float:
    """Median seconds of ``function`` over ``calls`` calls."""
    samples = []
    for _ in range(calls):
        started = perf_counter()
        function()
        samples.append(perf_counter() - started)
    return statistics.median(samples)


def _noop() -> None:
    pass


MICRO_EVENTS = 100_000


def direct_spec_and_cache(document: str, torus_side: int) -> dict[str, float]:
    """``api.specs`` and ``api.cache``: parsing a document, building its graph."""
    from repro.api import TopologySpec, build_topology, clear_topology_cache, load_spec

    topology = TopologySpec("torus", {"width": torus_side, "height": torus_side})
    clear_topology_cache()
    started = perf_counter()
    build_topology(topology)
    cold = perf_counter() - started
    return {
        "api.specs.load_ms": per_call(lambda: load_spec(document).digest(), 5) * 1e3,
        "api.cache.build_cold_ms": cold * 1e3,
        "api.cache.build_warm_us": per_call(lambda: build_topology(topology), 200) * 1e6,
    }


def direct_schedulers() -> dict[str, float]:
    """``sim.scheduler``: schedule and run 100 k no-op events on each scheduler."""
    from repro.sim.scheduler import EventScheduler, KeyedEventScheduler

    plain = EventScheduler()
    started = perf_counter()
    for index in range(MICRO_EVENTS):
        plain.schedule_at(index * 1e-3, _noop)
    plain.run()
    plain_seconds = perf_counter() - started
    keyed = KeyedEventScheduler()
    started = perf_counter()
    for index in range(MICRO_EVENTS):
        keyed.schedule_keyed(index * 1e-3, (index,), _noop)
    keyed.run()
    keyed_seconds = perf_counter() - started
    return {
        "sim.scheduler.push_pop_us": plain_seconds / MICRO_EVENTS * 1e6,
        "sim.scheduler.keyed_push_pop_us": keyed_seconds / MICRO_EVENTS * 1e6,
    }


def direct_virtual_loop() -> dict[str, float]:
    """``vtime.loop``: 100 k no-op ``call_later`` callbacks on the virtual loop."""
    from repro.vtime.loop import VirtualClockEventLoop

    loop = VirtualClockEventLoop()
    try:
        started = perf_counter()
        for index in range(MICRO_EVENTS):
            loop.call_later(index * 1e-3, _noop)
        loop.run_forever()
        elapsed = perf_counter() - started
    finally:
        loop.close()
    return {"vtime.loop.us_per_callback": elapsed / MICRO_EVENTS * 1e6}


def direct_partition_payload(document: str) -> dict[str, float]:
    """``sim.partition``: bytes each worker ships back across the process boundary."""
    from repro.api import ExperimentSession, load_spec
    from repro.sim.partition import measure_worker_payloads

    spec = load_spec(document)
    graph, schedule, _membership = ExperimentSession().resolve(spec)
    payloads = measure_worker_payloads(
        graph,
        schedule,
        partitions=spec.runtime.partitions,
        collection=spec.runtime.collection,
        seed=spec.seed,
    )
    return {"sim.partition.payload_bytes": payloads["total_payload_bytes"]}


def direct_sweep_tasks(document: str) -> dict[str, float]:
    """``scale.sweep``: what the parent pickles to hand the tasks to the pool."""
    from repro.api import load_spec

    tasks = load_spec(document).tasks()
    return {
        "scale.sweep.task_pickle_bytes": sum(
            len(pickle.dumps(task, pickle.HIGHEST_PROTOCOL)) for task in tasks
        )
    }


def direct_service(document: dict[str, Any], scratch: Path) -> dict[str, float]:
    """``service`` below HTTP: ledger, store and in-process execution of one document."""
    from repro.api import load_spec
    from repro.service import JobLedger, ResultStore, execute_document, job_key

    spec = load_spec(json.dumps(document))
    key = job_key(spec)
    execute_ms = per_call(lambda: execute_document(document), 5) * 1e3
    envelope = execute_document(document)
    with tempfile.TemporaryDirectory(dir=scratch) as root:
        ledger = JobLedger(Path(root) / "ledger")
        rounds = 200
        started = perf_counter()
        for index in range(rounds):
            ledger.submit(
                key=f"{key}-{index}",
                spec_digest=spec.digest(),
                seed=spec.seed,
                kind="experiment",
                spec=document,
                total=1,
            )
        submit = (perf_counter() - started) / rounds
        started = perf_counter()
        for _ in range(rounds):
            job, _spec = ledger.claim("ledger-bench")
            ledger.complete(job.id, envelope["digest"])
        claim_complete = (perf_counter() - started) / rounds
        store = ResultStore(Path(root) / "store")
        put = per_call(lambda: store.put(key, document, envelope), 50)
        get = per_call(lambda: store.get(key), 50)
    return {
        "service.worker.execute_ms": execute_ms,
        "service.ledger.submit_us": submit * 1e6,
        "service.ledger.claim_complete_us": claim_complete * 1e6,
        "service.store.put_ms": put * 1e3,
        "service.store.get_ms": get * 1e3,
    }
