"""Tests of the ledger itself (``python -m pytest benchmarks/ledger -q``, smoke sizes)."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parents[1] / "src")]

import compare  # noqa: E402
import layers  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402
from spans import Span, SpanRecorder, self_times  # noqa: E402

from repro.api import run_spec_json  # noqa: E402


def run_ledger(*arguments: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", *arguments],
        capture_output=True,
        text=True,
        timeout=120,
    )


# -- span arithmetic ----------------------------------------------------------
def test_self_time_subtracts_nested_children():
    spans = [
        Span(0, "outer", 0.0, 10.0, None, 0),
        Span(1, "inner", 2.0, 5.0, 0, 0),
        Span(2, "leaf", 3.0, 4.0, 1, 0),
        Span(3, "inner", 6.0, 7.0, 0, 0),
    ]
    assert self_times(spans) == {"outer": (6.0, 1), "inner": (3.0, 2), "leaf": (1.0, 1)}


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span(0, "outer", 0.0, 10.0, None, 0),
        Span(1, "a", 1.0, 6.0, 0, 0),
        Span(2, "b", 4.0, 8.0, 0, 0),  # overlaps a on [4, 6]
        Span(3, "c", 9.0, 12.0, 0, 0),  # outlives its parent: clipped at 10
    ]
    assert self_times(spans)["outer"] == (10.0 - (8.0 - 1.0) - (10.0 - 9.0), 1)


def test_recorder_links_each_span_to_the_one_that_was_open():
    recorder = SpanRecorder()
    inner = recorder.wrap("inner", lambda: None)
    recorder.op = 7
    with recorder.span("outer"):
        inner()
        inner()
    by_name = {span.name: span for span in recorder.spans}
    assert by_name["outer"].parent is None
    assert [span.parent for span in recorder.spans if span.name == "inner"] == [
        by_name["outer"].id
    ] * 2
    assert {span.op for span in recorder.spans} == {7}


# -- percentiles --------------------------------------------------------------
@pytest.mark.parametrize(
    "count, expected",
    [(10, None), (20, None), (21, 52), (40, 75), (60, 83), (200, 95), (300, 96), (1000, 99)],
)
def test_tail_percentile_leaves_ten_samples_beyond(count, expected):
    assert metrics.tail_percentile(count) == expected
    if expected is not None:
        assert count * (100 - expected) / 100 >= 10
        assert count * (100 - (expected + 1)) / 100 < 10


# -- wrappers -----------------------------------------------------------------
def test_wrappers_leave_the_digest_alone_and_come_out_completely():
    document = workloads.generate("static_torus64", 0, "smoke")["document"]
    untraced = run_spec_json(document).digest()
    targets = layers.span_targets()
    originals = [vars(owner)[attribute] for owner, attribute, *_ in targets]

    recorder = SpanRecorder()
    with recorder.installed(targets):
        traced = run_spec_json(document).digest()

    assert traced == untraced
    assert {"core.protocol", "trace.emit", "sim.network.run"} <= {s.name for s in recorder.spans}
    for (owner, attribute, *_), original in zip(targets, originals):
        assert vars(owner)[attribute] is original
    recorded = len(recorder.spans)
    run_spec_json(document)
    assert len(recorder.spans) == recorded


# -- the command --------------------------------------------------------------
def test_contract_line_names_every_declared_metric(tmp_path):
    out = tmp_path / "result.json"
    finished = run_ledger("--workload", "churn_steady256", "--out", str(out))
    assert finished.returncode == 0, finished.stderr
    line = json.loads(finished.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == set(metrics.END_TO_END)
    assert all(entry["value"] > 0 for entry in line["metrics"].values())
    result = json.loads(out.read_text())
    assert {"cpus", "python", "platform", "git_commit"} <= set(result["host"])
    # The timings BENCHMARK.json lists per layer are still measured untraced.
    assert {"wall_s", "cpu_s", "events_per_s"} <= set(
        result["workloads"]["churn_steady256"]["metrics"]
    )


def test_wrong_expected_digest_fails_the_run(tmp_path, monkeypatch, capsys):
    import run

    expected = json.loads(run.EXPECTED.read_text())
    expected["smoke"]["static_torus64"]["digest"] = "0" * 64
    wrong = tmp_path / "expected.json"
    wrong.write_text(json.dumps(expected))
    monkeypatch.setattr(run, "EXPECTED", wrong)
    out = tmp_path / "result.json"
    status = run.main(["--smoke", "--workload", "static_torus64", "--out", str(out)])
    assert status != 0
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])["correct"] is False
    assert json.loads(out.read_text())["workloads"]["static_torus64"]["failed_share"] > 0


# -- compare.py ---------------------------------------------------------------
def result_with(setup_samples, events=100, cpus=2):
    median = sorted(setup_samples)[len(setup_samples) // 2]
    return {
        "host": {"cpus": cpus, "python": "3.11.7"},
        "seed": 0,
        "size": "full",
        "workloads": {
            "static_torus64": {
                "failed_share": 0.0,
                "metrics": {
                    "setup_s": {"value": median, "samples": list(setup_samples)},
                    "trace.emit.calls": {"value": events},
                    "trace.emit.self_s": {"value": 0.1},
                },
            }
        },
    }


def verdicts(base, candidate):
    rows, failed = compare.compare(base, candidate)
    return {name: outcome for _workload, name, *_values, outcome in rows}, failed


def test_compare_separates_ok_regressed_and_unresolved():
    bound = metrics.bound_of("setup_s")
    steady = [1.00, 1.01, 0.99, 1.00, 1.02]
    slower = [value * (1 + 2 * bound) for value in steady]
    noisy = [1.0, 1.0 + 3 * bound, 1.0 - bound / 2, 1.0 + 2 * bound, 1.0]

    outcome, failed = verdicts(result_with(steady), result_with(steady))
    assert outcome["setup_s"] == "ok" and outcome["trace.emit.self_s"] == "-" and not failed
    outcome, failed = verdicts(result_with(steady), result_with(slower))
    assert outcome["setup_s"] == "regressed" and failed
    outcome, failed = verdicts(result_with(steady), result_with(noisy))
    assert outcome["setup_s"] == "unresolved" and not failed
    outcome, failed = verdicts(result_with(noisy), result_with([0.5] * 5))
    assert outcome["setup_s"] == "ok"
    # One sample a side shows no spread at all: nothing is settled.
    outcome, failed = verdicts(result_with(steady[:1]), result_with(steady[:1]))
    assert outcome["setup_s"] == "unresolved" and not failed


def test_compare_judges_a_metric_measured_once_per_run_on_its_value():
    bound = metrics.bound_of("setup_s")
    base, candidate = result_with([1.0]), result_with([1.0 + 2 * bound])
    for result in (base, candidate):
        del result["workloads"]["static_torus64"]["metrics"]["setup_s"]["samples"]
    outcome, failed = verdicts(base, candidate)
    assert outcome["setup_s"] == "regressed" and failed
    outcome, failed = verdicts(base, base)
    assert outcome["setup_s"] == "ok" and not failed


def test_compare_fails_on_a_changed_exact_count_or_more_failures():
    outcome, failed = verdicts(result_with([1.0, 1.0]), result_with([1.0, 1.0], events=101))
    assert outcome["trace.emit.calls"] == "differs" and failed
    worse = result_with([1.0, 1.0])
    worse["workloads"]["static_torus64"]["failed_share"] = 0.1
    outcome, failed = verdicts(result_with([1.0, 1.0]), worse)
    assert outcome["failed_share"] == "regressed" and failed


def test_compare_refuses_results_from_different_hosts(tmp_path):
    paths = []
    for cpus in (1, 2):
        path = tmp_path / f"cpus{cpus}.json"
        path.write_text(json.dumps(result_with([1.0, 1.0], cpus=cpus)))
        paths.append(str(path))
    assert compare.main(paths) == 2
    assert compare.main([*paths, "--allow-host-mismatch"]) == 0
