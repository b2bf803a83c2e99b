"""One workload in one fresh process (``run.py`` starts it; not a user entry point).

Reads a request — the generated plan plus run settings — as JSON on stdin,
runs set-up and then the measurement, and prints the outcome as one JSON
line on stdout.  A fresh process per workload keeps peak RSS, the topology
cache and lazy imports per workload.

An *operation* is one spec document taken to a verified digest:
``run_spec_json(document)`` → ``.digest()`` → (where the document asks for
it) ``specification.holds``.  It fails if it raises, if its digest differs
from its reference, or if the specification does not hold.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import sys
import tempfile
import threading
import time
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter
from typing import Any, Optional

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
sys.path[:0] = [str(HERE), str(HERE.parents[1] / "src")]

import layers  # noqa: E402
import metrics  # noqa: E402
from hostspeed import kernel_seconds  # noqa: E402
from spans import SpanRecorder, dump  # noqa: E402

from repro.api import ExperimentSession, load_spec, run_spec_json  # noqa: E402

#: The traced run alternates this many untraced and traced ops.
TRACED_OPS = 3
#: Ops of a document the traced run only compares against (the simulator twin).
COMPARISON_OPS = 2
#: Timed ops of a batch workload, however short ``--seconds`` is: enough for quartiles.
MINIMUM_OPS = 5
#: Ops that may raise before the workload gives up.
MAXIMUM_RAISED = 3


class Tally:
    """Operations attempted and failed, with why each one failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{what}: {'; '.join(problems)}")


def cpu_seconds() -> float:
    """User + system seconds of this process and the children it has reaped."""
    return sum(
        usage.ru_utime + usage.ru_stime
        for usage in map(resource.getrusage, (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    )


def peak_rss_mb() -> float:
    """Peak resident set of this process or of its largest reaped child."""
    return (
        max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
        / 1024
    )


def run_document(document: str, check: bool) -> tuple[Any, str, Optional[bool]]:
    """One operation: ``(result, digest, specification verdict or None)``."""
    result = run_spec_json(document)
    digest = result.digest()
    if not check:
        return result, digest, None
    report = getattr(result, "specification", None)
    if report is None:  # sweep reports aggregate their points' verdicts
        report = result.check_specification()
    return result, digest, report.holds


def problems_of(
    digest: str, holds: Optional[bool], references: dict[str, Optional[str]]
) -> list[str]:
    problems = [
        f"digest {digest[:12]} differs from {label} {reference[:12]}"
        for label, reference in references.items()
        if reference is not None and digest != reference
    ]
    if holds is False:
        problems.append("specification does not hold")
    return problems


def median_of(samples: list[dict[str, float]], key: str) -> float:
    return statistics.median(sample[key] for sample in samples)


def entries(measured: dict[str, float]) -> dict[str, Any]:
    return {name: metrics.entry(name, value) for name, value in measured.items()}


def write_spans(workload: str, recorder: SpanRecorder) -> None:
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"spans_{workload}.json", "w") as handle:
        json.dump(dump(recorder.spans), handle)


# ---------------------------------------------------------------------------
# The five batch workloads
# ---------------------------------------------------------------------------
class Batch:
    """Set-up, timed operations and verification of one batch workload."""

    def __init__(self, request: dict[str, Any], tally: Tally) -> None:
        self.request = request
        self.workload: str = request["workload"]
        self.plan = request["plan"]
        self.tally = tally
        self.pinned = request.get("pinned") or {}
        self.reference: Optional[str] = None
        self.last_result: Any = None

    def set_up(self) -> None:
        """One untimed op: it fills caches, lazy imports and the fork paths.

        Its digest is the one every timed op has to reproduce.
        """
        _result, self.reference, holds = run_document(self.plan["document"], self.plan["check"])
        self.tally.record(
            "set-up", problems_of(self.reference, holds, {"pinned": self.pinned.get("digest")})
        )

    def check_reference_document(self) -> None:
        """Partitioned == sequential, ``workers=2`` == ``workers=1``: run the other side once."""
        if "reference_document" in self.plan:
            self.once(self.plan["reference_document"], None, same_trace=True)

    def close(self) -> None:
        pass

    def once(
        self, document: str, recorder: Optional[SpanRecorder], same_trace: bool
    ) -> Optional[dict[str, float]]:
        """Time and verify one operation; ``None`` if it raised."""
        cpu_started = cpu_seconds()
        started = perf_counter()
        try:
            with recorder.span(layers.OP) if recorder is not None else nullcontext():
                result, digest, holds = run_document(document, self.plan["check"])
        except Exception:
            self.tally.record("op", [traceback.format_exc(limit=4)])
            return None
        wall = perf_counter() - started
        cpu = cpu_seconds() - cpu_started
        references = (
            {"reference": self.reference, "pinned": self.pinned.get("digest")}
            if same_trace
            else {}
        )
        self.tally.record("op", problems_of(digest, holds, references))
        self.last_result = result
        return {
            "wall": wall,
            "cpu": cpu,
            "units": len(result) if self.plan["unit"] == "points" else len(result.trace),
            "worker_time": getattr(result, "worker_time", 0.0),
        }

    def timed(
        self,
        document: str,
        *,
        reps: Optional[int],
        seconds: float = 0.0,
        recorder: Optional[SpanRecorder] = None,
        first_op: int = 0,
        same_trace: bool = True,
    ) -> list[dict[str, float]]:
        """Run ``document`` ``reps`` times, or for ``seconds`` (``MINIMUM_OPS`` at least).

        ``same_trace`` is False for a document that is not expected to
        reproduce the reference digest (the other substrate's twin).
        """
        samples: list[dict[str, float]] = []
        raised = 0
        loop_started = perf_counter()
        while (
            len(samples) < reps
            if reps
            else len(samples) < MINIMUM_OPS or perf_counter() - loop_started < seconds
        ):
            self.last_result = None
            gc.collect()
            if recorder is not None:
                recorder.op = first_op + len(samples)
            sample = self.once(document, recorder, same_trace)
            if sample is not None:
                samples.append(sample)
            elif (raised := raised + 1) >= MAXIMUM_RAISED:
                raise RuntimeError(f"{raised} operations raised; see the failures above")
        return samples

    def timings(self, samples: list[dict[str, float]]) -> dict[str, Any]:
        """Seconds, CPU seconds and work per second of untraced ops, as medians."""
        rate = "runs_per_s" if self.plan["unit"] == "points" else "events_per_s"
        return {
            "wall_s": metrics.median_entry("wall_s", [s["wall"] for s in samples]),
            "cpu_s": metrics.median_entry("cpu_s", [s["cpu"] for s in samples]),
            rate: metrics.median_entry(rate, [s["units"] / s["wall"] for s in samples]),
        }

    def end_to_end(self) -> dict[str, Any]:
        samples = self.timed(
            self.plan["document"], reps=self.request["reps"], seconds=self.request["seconds"]
        )
        self.check_reference_document()
        reported = self.timings(samples)
        reported["peak_rss_mb"] = metrics.entry("peak_rss_mb", peak_rss_mb())
        return {"units": samples[-1]["units"], "metrics": reported}

    # -- the traced run -------------------------------------------------
    def per_layer(self) -> dict[str, Any]:
        document = self.plan["document"]
        recorder = SpanRecorder()
        targets = layers.span_targets()
        untraced: list[dict[str, float]] = []
        traced: list[dict[str, float]] = []
        # Untraced and traced ops alternate, so that both sides of
        # trace_overhead_ratio see the same host.
        for op in range(TRACED_OPS):
            untraced += self.timed(document, reps=1)
            with recorder.installed(targets):
                traced += self.timed(document, reps=1, recorder=recorder, first_op=op)
        measured = layers.from_result(self.last_result)
        measured.update(self.against_untraced(untraced))
        with recorder.installed(targets):
            attributed = self.attributed_elsewhere(recorder, measured)
        events = traced[-1]["units"] if self.plan["unit"] == "events" else 0
        measured.update(layers.attribute(recorder, attributed or range(TRACED_OPS), events))
        measured.update(
            {
                "traced_wall_s": median_of(traced, "wall"),
                "trace_overhead_ratio": median_of(traced, "wall") / median_of(untraced, "wall"),
            }
        )
        measured.update(self.direct())
        write_spans(self.workload, recorder)
        return {
            "units": traced[-1]["units"],
            "metrics": {**entries(measured), **self.timings(untraced)},
        }

    def against_untraced(self, untraced: list[dict[str, float]]) -> dict[str, float]:
        """Ratios to this workload's untraced wall, taken before the spans go in."""
        wall = median_of(untraced, "wall")
        if self.workload == "vtime_churn256":
            twin = self.timed(
                self.plan["twin_document"], reps=COMPARISON_OPS, same_trace=False
            )
            return {"vtime.substrate_ratio": wall / median_of(twin, "wall")}
        if self.workload == "partition2_torus64_digest":
            sequential = self.timed(self.plan["reference_document"], reps=1)
            return {"sim.partition.speedup": median_of(sequential, "wall") / wall}
        if self.workload == "sweep_torus32":
            worker_time = median_of(untraced, "worker_time")
            return {
                "scale.sweep.worker_time_s": worker_time,
                "scale.sweep.efficiency": worker_time / (2 * wall),
                "scale.sweep.overhead_s": wall - worker_time / 2,
            }
        return {}

    def attributed_elsewhere(
        self, recorder: SpanRecorder, measured: dict[str, float]
    ) -> Optional[list[int]]:
        """Where forked workers hide the layers, run an in-process stand-in under spans.

        Spans recorded inside forked children are lost, so the partitioned
        and the pooled run are each one span; the layers are attributed on
        ``backend="inline"`` and on ``workers=1``.
        """
        if self.workload == "partition2_torus64_digest":
            measured["sim.partition.process_s"] = statistics.median(
                span.end - span.start
                for span in recorder.spans
                if span.name == "sim.partition.run"
            )
            measured["sim.partition.inline_s"] = self.inline_partitioned(recorder)
            return [TRACED_OPS]
        if self.workload == "sweep_torus32":
            one_worker = self.timed(
                self.plan["reference_document"], reps=1, recorder=recorder, first_op=TRACED_OPS
            )
            measured["scale.sweep.w1_s"] = one_worker[0]["wall"]
            return [TRACED_OPS]
        return None

    def inline_partitioned(self, recorder: SpanRecorder) -> float:
        """The partitioned document on ``backend="inline"``, under spans."""
        from repro.sim.partition import run_partitioned

        spec = load_spec(self.plan["document"])
        recorder.op = TRACED_OPS
        started = perf_counter()
        with recorder.span(layers.OP):
            graph, schedule, _membership = ExperimentSession().resolve(spec)
            result = run_partitioned(
                graph,
                schedule,
                partitions=spec.runtime.partitions,
                seed=spec.seed,
                collection=spec.runtime.collection,
                backend="inline",
            )
            digest = result.digest()
        wall = perf_counter() - started
        self.tally.record("inline op", problems_of(digest, None, {"reference": self.reference}))
        return wall

    def direct(self) -> dict[str, float]:
        """The direct timings this workload hosts (spans are out by now)."""
        document = self.plan["document"]
        if self.workload == "static_torus64":
            side = self.request["size"]["torus_side"]
            return {**layers.direct_spec_and_cache(document, side), **layers.direct_schedulers()}
        if self.workload == "vtime_churn256":
            return layers.direct_virtual_loop()
        if self.workload == "partition2_torus64_digest":
            return layers.direct_partition_payload(document)
        if self.workload == "sweep_torus32":
            return layers.direct_sweep_tasks(document)
        return {}


# ---------------------------------------------------------------------------
# service_mixed
# ---------------------------------------------------------------------------
class Service:
    """An in-process server and one closed-loop client."""

    #: ``(metric, which requests, percentile)``: the medians, and the tails the issue fixed.
    LATENCIES = (
        ("fresh_ms_p50", "fresh", 50),
        ("fresh_ms_p80", "fresh", 80),
        ("cached_ms_p50", "cached", 50),
        ("cached_ms_p95", "cached", 95),
    )

    def __init__(self, request: dict[str, Any], tally: Tally) -> None:
        self.request = request
        self.plan = request["plan"]
        self.tally = tally
        self.local: list[str] = []
        self._directory: Any = None
        self.server: Any = None
        self._thread: Optional[threading.Thread] = None
        self.client: Any = None

    def set_up(self) -> None:
        """Local reference digests, server boot, one warm-up request (a fresh one)."""
        from repro.service import ServiceClient, serve

        self.local = [
            run_spec_json(json.dumps(document)).digest() for document in self.plan["documents"]
        ]
        OUT.mkdir(exist_ok=True)
        self._directory = tempfile.TemporaryDirectory(dir=OUT, prefix="service-")
        self.server = serve(self._directory.name, port=0, workers=1)
        self._thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self._thread.start()
        self.client = ServiceClient(self.server.url)
        _latency, _size, problems = self.request_once(
            self.plan["warmup_document"], None, expect_cached=False
        )
        self.tally.record("set-up", problems)

    def close(self) -> None:
        if self.server is not None:
            self.server.shutdown()
            self.server.service.stop_workers()
            self.server.server_close()
            self._thread.join(timeout=5.0)
        if self._directory is not None:
            self._directory.cleanup()

    def request_once(
        self,
        document: dict[str, Any],
        local_digest: Optional[str],
        expect_cached: bool,
        recorder: Optional[SpanRecorder] = None,
    ) -> tuple[float, int, list[str]]:
        """Submit → wait ``done`` → fetch the result; then compare with the local run."""
        started = perf_counter()
        with recorder.span(layers.OP) if recorder is not None else nullcontext():
            job = self.client.submit(document)["job"]
            if job["state"] != "done":
                job = self.client.wait(job["id"], timeout=60.0)
            fetched = self.client.result(job["id"]) if job["state"] == "done" else None
        latency = perf_counter() - started
        if fetched is None:
            return latency, 0, [f"job ended {job['state']}: {job.get('error')}"]
        problems = problems_of(fetched["envelope"]["digest"], None, {"local run": local_digest})
        if job["cached"] != expect_cached:
            problems.append(f"cached={job['cached']} where {expect_cached} was due")
        return latency, len(json.dumps(fetched)), problems

    def closed_loop(self, recorder: Optional[SpanRecorder] = None) -> dict[str, Any]:
        """The next request goes out only after the previous result was fetched."""
        documents = self.plan["documents"]
        order = self.plan["order"]
        seen: set[int] = set()
        loop: dict[str, Any] = {"fresh": [], "cached": [], "fresh_ops": [], "sizes": []}
        gc.collect()
        loop_started = perf_counter()
        for position, index in enumerate(order):
            if recorder is not None:
                recorder.op = position
            repeat = index in seen
            latency, size, problems = self.request_once(
                documents[index], self.local[index], repeat, recorder
            )
            self.tally.record(f"request {position}", problems)
            seen.add(index)
            loop["sizes"].append(size)
            loop["cached" if repeat else "fresh"].append(latency)
            if not repeat:
                loop["fresh_ops"].append(position)
        loop["seconds"] = perf_counter() - loop_started
        return loop

    def timings(self, loop: dict[str, Any]) -> dict[str, Any]:
        """Requests per second, the latency medians, and each fixed tail the pass can show."""
        requests = len(self.plan["order"])
        reported = {"jobs_per_s": metrics.entry("jobs_per_s", requests / loop["seconds"])}
        for name, kind, rank in self.LATENCIES:
            samples = loop[kind]
            if rank == 50 or (metrics.tail_percentile(len(samples)) or 0) >= rank:
                reported[name] = metrics.entry(
                    name, 1e3 * metrics.percentile(samples, rank), count=len(samples)
                )
        return reported

    def end_to_end(self) -> dict[str, Any]:
        reported = self.timings(self.closed_loop())
        reported["peak_rss_mb"] = metrics.entry("peak_rss_mb", peak_rss_mb())
        return {"units": len(self.plan["order"]), "metrics": reported}

    def per_layer(self) -> dict[str, Any]:
        prelude = [
            self.request_once(document, None, expect_cached=False)
            for document in self.plan["prelude_documents"]
        ]
        for _latency, _size, problems in prelude:
            self.tally.record("prelude request", problems)
        untraced_fresh = statistics.median(latency for latency, _size, _problems in prelude)

        recorder = SpanRecorder()
        with recorder.installed(layers.span_targets()):
            loop = self.closed_loop(recorder)
        fresh = statistics.median(loop["fresh"])
        health = layers.per_call(self.client.health, 50)
        measured = layers.attribute(recorder, loop["fresh_ops"], 0)
        measured.update(layers.direct_service(self.plan["documents"][0], OUT))
        measured.update(
            {
                "traced_wall_s": fresh,
                "trace_overhead_ratio": fresh / untraced_fresh,
                "service.http.health_ms": health * 1e3,
                # A fresh request is three round trips (submit, wait, fetch)
                # around the execution; what is left is time spent queued.
                "service.queue_wait_ms": fresh * 1e3
                - measured["service.worker.execute_ms"]
                - 3 * health * 1e3,
                "service.result_bytes": statistics.median(loop["sizes"]),
                "service.cache_hits": len(loop["cached"]),
                "service.cache_misses": len(loop["fresh"]),
            }
        )
        write_spans(self.request["workload"], recorder)
        return {
            "units": len(self.plan["order"]),
            # Taken under the spans here; the untraced run has them without.
            "metrics": {**entries(measured), **self.timings(loop)},
        }


# ---------------------------------------------------------------------------
def main() -> int:
    request = json.load(sys.stdin)
    tally = Tally()
    workload = (Service if request["plan"]["kind"] == "service" else Batch)(request, tally)
    outcome: dict[str, Any] = {}
    try:
        workload.set_up()
        # time.time(): the driver stamped "started" on the same clock before
        # it spawned this process, so interpreter start and imports count.
        outcome["setup_s"] = time.time() - request["started"]
        outcome["kernel_after_s"] = kernel_seconds()
        if not request["setup_only"]:
            outcome.update(workload.per_layer() if request["trace"] else workload.end_to_end())
            outcome["digest"] = getattr(workload, "reference", None)
    except Exception:
        # Report what was verified so far; the driver counts the abort.
        tally.record("workload aborted", [traceback.format_exc(limit=6)])
    finally:
        workload.close()
    outcome.update(attempted=tally.attempted, failures=tally.failures)
    print(json.dumps(outcome))
    return 1 if tally.failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
