"""Unit tests for the experiment service's durable state.

Covers the three pieces that never touch HTTP: the wire protocol
(:mod:`repro.service.protocol`), the digest-verified result store
(:mod:`repro.service.store`) and the journaled job ledger
(:mod:`repro.service.ledger`).  The live-server behaviour is exercised
by ``tests/integration/test_service.py``.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.api import ExperimentSpec, FailureSpec, SpecError, TopologySpec, run_spec
from repro.service import (
    JobLedger,
    JobRecord,
    ResultStore,
    ServiceError,
    StoreCorruption,
    job_key,
    result_envelope,
    spec_from_document,
    verify_envelope,
)
from repro.trace.digest import combine_digests


def small_spec(seed: int = 0) -> ExperimentSpec:
    return ExperimentSpec(
        name="service-unit",
        topology=TopologySpec("grid", {"width": 4, "height": 4}),
        failure=FailureSpec("region", {"members": [[1, 1], [1, 2]], "at": 1.0}),
        seed=seed,
    )


@pytest.fixture(scope="module")
def executed():
    """One executed small run shared by every store test (spec, envelope)."""
    spec = small_spec()
    result = run_spec(spec)
    return spec, result_envelope(spec, result)


# ---------------------------------------------------------------------------
# Protocol
# ---------------------------------------------------------------------------
class TestProtocol:
    def test_job_key_crosses_digest_with_seed(self):
        spec = small_spec(seed=7)
        assert job_key(spec) == f"{spec.digest()}x7"

    def test_spec_from_document_dispatches_on_tag(self):
        spec = small_spec()
        parsed = spec_from_document(spec.to_dict())
        assert parsed == spec

    def test_spec_from_document_rejects_bad_documents(self):
        with pytest.raises(SpecError):
            spec_from_document({"spec": "mystery"})
        with pytest.raises(SpecError):
            spec_from_document("not a mapping")

    def test_job_record_round_trip(self):
        record = JobRecord(
            id="job-000001", key="kx0", spec_digest="k", seed=0, kind="experiment"
        )
        assert JobRecord.from_dict(record.to_dict()) == record

    def test_job_record_rejects_unknown_keys(self):
        with pytest.raises(ServiceError):
            JobRecord.from_dict({"id": "job-1", "surprise": True})

    def test_envelope_carries_digest_and_payload(self, executed):
        spec, envelope = executed
        assert envelope["spec_digest"] == spec.digest()
        assert envelope["digest"] == envelope["result"]["digest"]
        verify_envelope(envelope)

    def test_envelope_folds_the_trace_digest_once(self, monkeypatch):
        """The digest fold is most of a job's execute time: `digest` and
        `result.digest` must come from one fold, not two."""
        from repro.trace import TraceRecorder

        spec = small_spec()
        result = run_spec(spec)
        folds = []
        fold = TraceRecorder.digest
        monkeypatch.setattr(
            TraceRecorder, "digest", lambda self, *kinds: folds.append(kinds) or fold(self, *kinds)
        )
        envelope = result_envelope(spec, result)
        assert folds == [()]
        assert envelope["digest"] == envelope["result"]["digest"] == fold(result.trace)

    def test_verify_rejects_missing_digest(self):
        with pytest.raises(ServiceError):
            verify_envelope({"kind": "experiment", "result": {}})

    def test_verify_rejects_payload_digest_mismatch(self, executed):
        _, envelope = executed
        tampered = dict(envelope)
        tampered["digest"] = "0" * 64
        with pytest.raises(ServiceError):
            verify_envelope(tampered)

    def test_sweep_digest_must_recombine_from_runs(self):
        run_digests = ["1" * 64, "2" * 64]
        envelope = {
            "kind": "sweep",
            "digest": combine_digests(run_digests),
            "result": {"runs": [{"digest": digest} for digest in run_digests]},
        }
        verify_envelope(envelope)
        envelope["digest"] = "f" * 64
        with pytest.raises(ServiceError):
            verify_envelope(envelope)


# ---------------------------------------------------------------------------
# Result store
# ---------------------------------------------------------------------------
class TestResultStore:
    def test_round_trip(self, tmp_path, executed):
        spec, envelope = executed
        store = ResultStore(tmp_path)
        key = job_key(spec)
        store.put(key, spec.to_dict(), envelope)
        entry = store.get(key)
        assert entry is not None
        assert entry.digest == envelope["digest"]
        assert entry.spec == spec.to_dict()
        assert key in store
        assert list(store.keys()) == [key]
        assert len(store) == 1

    def test_absent_key_is_none(self, tmp_path):
        assert ResultStore(tmp_path).get("a" * 64 + "x0") is None

    def test_malformed_keys_are_rejected(self, tmp_path):
        store = ResultStore(tmp_path)
        for key in ("", "../escape", ".hidden", "a/b"):
            with pytest.raises(ServiceError):
                store.get(key)

    def test_truncated_entry_is_corruption(self, tmp_path, executed):
        spec, envelope = executed
        store = ResultStore(tmp_path)
        key = job_key(spec)
        store.put(key, spec.to_dict(), envelope)
        path = tmp_path / f"{key}.json"
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        with pytest.raises(StoreCorruption):
            store.get(key)

    def test_tampered_payload_fails_checksum(self, tmp_path, executed):
        spec, envelope = executed
        store = ResultStore(tmp_path)
        key = job_key(spec)
        store.put(key, spec.to_dict(), envelope)
        path = tmp_path / f"{key}.json"
        data = json.loads(path.read_text())
        data["envelope"]["seed"] = 999
        path.write_text(json.dumps(data))
        with pytest.raises(StoreCorruption):
            store.get(key)
        assert store.evict(key)
        assert store.get(key) is None

    def test_put_refuses_unverifiable_envelope(self, tmp_path, executed):
        spec, envelope = executed
        bad = dict(envelope)
        bad["digest"] = "0" * 64
        with pytest.raises(ServiceError):
            ResultStore(tmp_path).put(job_key(spec), spec.to_dict(), bad)
        assert len(ResultStore(tmp_path)) == 0


class TestStoreByteBudget:
    def entry_size(self, tmp_path, executed):
        spec, envelope = executed
        probe = ResultStore(tmp_path / "probe")
        probe.put("probex0", spec.to_dict(), envelope)
        return probe.total_bytes()

    def test_unbounded_by_default(self, tmp_path, executed):
        spec, envelope = executed
        store = ResultStore(tmp_path)
        for index in range(5):
            store.put(f"k{index}x0", spec.to_dict(), envelope)
        assert len(store) == 5
        assert store.evictions == 0
        assert not store.journal_path.exists()

    def test_rejects_nonpositive_budget(self, tmp_path):
        with pytest.raises(ServiceError):
            ResultStore(tmp_path, max_bytes=0)

    def test_lru_eviction_on_overflow(self, tmp_path, executed):
        spec, envelope = executed
        size = self.entry_size(tmp_path, executed)
        store = ResultStore(tmp_path / "store", max_bytes=2 * size + size // 2)
        store.put("oldestx0", spec.to_dict(), envelope)
        time.sleep(0.002)  # distinct mtimes even on coarse filesystems
        store.put("middlex0", spec.to_dict(), envelope)
        assert store.evictions == 0
        time.sleep(0.002)
        store.put("newestx0", spec.to_dict(), envelope)
        assert store.evictions == 1
        assert "oldestx0" not in store
        assert "middlex0" in store and "newestx0" in store

    def test_read_refreshes_recency(self, tmp_path, executed):
        """A get() keeps an old-but-hot entry out of the eviction queue."""
        spec, envelope = executed
        size = self.entry_size(tmp_path, executed)
        store = ResultStore(tmp_path / "store", max_bytes=2 * size + size // 2)
        store.put("hotx0", spec.to_dict(), envelope)
        time.sleep(0.002)
        store.put("coldx0", spec.to_dict(), envelope)
        time.sleep(0.002)
        assert store.get("hotx0") is not None  # now the most recently used
        time.sleep(0.002)
        store.put("newx0", spec.to_dict(), envelope)
        assert "hotx0" in store
        assert "coldx0" not in store

    def test_just_written_entry_never_evicted(self, tmp_path, executed):
        spec, envelope = executed
        store = ResultStore(tmp_path, max_bytes=1)  # smaller than one entry
        store.put("onlyx0", spec.to_dict(), envelope)
        assert "onlyx0" in store

    def test_evictions_are_journaled(self, tmp_path, executed):
        spec, envelope = executed
        size = self.entry_size(tmp_path, executed)
        store = ResultStore(tmp_path / "store", max_bytes=size)
        store.put("firstx0", spec.to_dict(), envelope)
        store.put("secondx0", spec.to_dict(), envelope)
        records = [
            json.loads(line)
            for line in store.journal_path.read_text().splitlines()
        ]
        assert [record["key"] for record in records] == ["firstx0"]
        assert records[0]["op"] == "evict"
        assert records[0]["reason"] == "store-byte-budget"
        assert records[0]["bytes"] > 0

    def test_journal_not_counted_as_entry(self, tmp_path, executed):
        spec, envelope = executed
        size = self.entry_size(tmp_path, executed)
        store = ResultStore(tmp_path / "store", max_bytes=size)
        store.put("firstx0", spec.to_dict(), envelope)
        store.put("secondx0", spec.to_dict(), envelope)
        assert list(store.keys()) == ["secondx0"]
        assert store.get("firstx0") is None


# ---------------------------------------------------------------------------
# Job ledger
# ---------------------------------------------------------------------------
def submit_args(key: str = "k" * 64 + "x0", **overrides):
    args = dict(
        key=key,
        spec_digest="k" * 64,
        seed=0,
        kind="experiment",
        spec={"spec": "experiment"},
        total=1,
    )
    args.update(overrides)
    return args


class TestJobLedger:
    def test_submit_claim_complete_lifecycle(self, tmp_path):
        ledger = JobLedger(tmp_path)
        job, created = ledger.submit(**submit_args())
        assert created and job.state == "queued"
        claimed = ledger.claim("w1")
        assert claimed is not None
        running, spec = claimed
        assert running.id == job.id and running.state == "running"
        assert spec == {"spec": "experiment"}
        assert ledger.executions == 1
        done = ledger.complete(job.id, digest="d" * 64)
        assert done.terminal and done.digest == "d" * 64
        assert done.progress == {"done": 1, "total": 1}
        assert ledger.claim("w1") is None

    def test_duplicate_submission_is_absorbed(self, tmp_path):
        ledger = JobLedger(tmp_path)
        first, created = ledger.submit(**submit_args())
        second, created_again = ledger.submit(**submit_args())
        assert created and not created_again
        assert second.id == first.id
        # Still absorbed while running, no longer once terminal.
        ledger.claim("w1")
        third, absorbed = ledger.submit(**submit_args())
        assert not absorbed and third.id == first.id
        ledger.complete(first.id, digest="d" * 64)
        fourth, fresh = ledger.submit(**submit_args())
        assert fresh and fourth.id != first.id

    def test_force_bypasses_dedupe(self, tmp_path):
        ledger = JobLedger(tmp_path)
        first, _ = ledger.submit(**submit_args())
        forced, created = ledger.submit(**submit_args(force=True))
        assert created and forced.id != first.id

    def test_cached_submission_is_born_done(self, tmp_path):
        ledger = JobLedger(tmp_path)
        job, created = ledger.submit(**submit_args(cached_digest="c" * 64))
        assert created and job.state == "done" and job.cached
        assert job.digest == "c" * 64
        assert ledger.claim("w1") is None
        assert ledger.executions == 0

    def test_failure_records_error(self, tmp_path):
        ledger = JobLedger(tmp_path)
        job, _ = ledger.submit(**submit_args())
        ledger.claim("w1")
        failed = ledger.fail(job.id, "boom")
        assert failed.state == "failed" and failed.error == "boom"

    def test_journal_replay_restores_and_requeues(self, tmp_path):
        ledger = JobLedger(tmp_path)
        queued, _ = ledger.submit(**submit_args(key="a" * 64 + "x0"))
        running, _ = ledger.submit(
            **submit_args(key="b" * 64 + "x0", spec_digest="b" * 64)
        )
        done, _ = ledger.submit(
            **submit_args(key="c" * 64 + "x0", spec_digest="c" * 64)
        )
        # Drive `running` into flight and `done` to completion.  claim()
        # hands out jobs FIFO, so drain up to the one we want.
        assert ledger.claim("w1")[0].id == queued.id
        ledger.complete(queued.id, digest="d" * 64)
        assert ledger.claim("w1")[0].id == running.id
        assert ledger.claim("w1")[0].id == done.id
        ledger.complete(done.id, digest="e" * 64)

        reopened = JobLedger(tmp_path)
        assert reopened.get(queued.id).state == "done"
        assert reopened.get(done.id).digest == "e" * 64
        # The job that died mid-flight is queued again, spec intact.
        revived = reopened.get(running.id)
        assert revived.state == "queued"
        reclaimed = reopened.claim("w2")
        assert reclaimed is not None and reclaimed[0].id == running.id
        assert reclaimed[1] == {"spec": "experiment"}
        # Fresh submissions never reuse a replayed serial.
        newer, _ = reopened.submit(
            **submit_args(key="f" * 64 + "x0", spec_digest="f" * 64)
        )
        assert newer.id not in {queued.id, running.id, done.id}

    def test_torn_final_journal_line_is_tolerated(self, tmp_path):
        ledger = JobLedger(tmp_path)
        job, _ = ledger.submit(**submit_args())
        with ledger.journal_path.open("a") as handle:
            handle.write('{"op": "update", "id": "job-0')  # crash mid-append
        reopened = JobLedger(tmp_path)
        assert reopened.get(job.id).state == "queued"

    def test_concurrent_duplicate_submissions_create_one_job(self, tmp_path):
        ledger = JobLedger(tmp_path)
        outcomes = []
        barrier = threading.Barrier(8)

        def submitter():
            barrier.wait()
            outcomes.append(ledger.submit(**submit_args()))

        threads = [threading.Thread(target=submitter) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        created = [job for job, was_created in outcomes if was_created]
        assert len(created) == 1
        assert {job.id for job, _ in outcomes} == {created[0].id}
        assert ledger.counts()["queued"] == 1

    def test_wait_for_sees_mutations_and_iter_updates_terminates(self, tmp_path):
        ledger = JobLedger(tmp_path)
        job, _ = ledger.submit(**submit_args())
        seen = ledger.wait_for(job.id, since_version=-1, timeout=1.0)
        assert seen.id == job.id

        updates = []
        first_snapshot = threading.Event()

        def consume():
            for snapshot in ledger.iter_updates(job.id, timeout=5.0, poll=0.05):
                updates.append(snapshot.state)
                first_snapshot.set()

        consumer = threading.Thread(target=consume)
        consumer.start()
        assert first_snapshot.wait(timeout=5.0)
        ledger.claim("w1")
        ledger.report_progress(job.id, 1, 2)
        ledger.complete(job.id, digest="d" * 64)
        consumer.join(timeout=5.0)
        assert not consumer.is_alive()
        # Bursts may collapse, but the stream always opens with the current
        # snapshot and closes with the terminal record.
        assert updates[0] == "queued"
        assert updates[-1] == "done"

    def test_unknown_job_errors(self, tmp_path):
        ledger = JobLedger(tmp_path)
        with pytest.raises(ServiceError):
            ledger.complete("job-999999", digest="d")
        with pytest.raises(ServiceError):
            ledger.jobs(state="sideways")
