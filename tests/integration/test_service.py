"""Integration tests: the experiment service against a live HTTP server.

Every test here talks to a real :class:`ServiceHTTPServer` on an
ephemeral port through the stdlib :class:`ServiceClient` — nothing is
mocked.  The acceptance contract of the service PR:

* a digest computed by a worker on the far side of the wire equals the
  digest of the same spec run locally in this process (fresh run, cache
  hit and digest-collection mode);
* an identical resubmission is answered from the result store without a
  second execution, and ``force=True`` bypasses that;
* a corrupted store entry is detected, evicted and recomputed;
* concurrent duplicate submissions collapse to one execution;
* a server with no local workers is drained by a remote worker speaking
  plain HTTP.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.api import (
    ExperimentSpec,
    FailureSpec,
    RuntimeSpec,
    TopologySpec,
    locality_sweep_spec,
    quickstart_spec,
    run_spec,
)
from repro.service import (
    ExperimentService,
    JobLedger,
    LocalBroker,
    ServiceClient,
    ServiceError,
    WorkerLoop,
    hydrate_digest_result,
    serve,
)


@pytest.fixture
def live_server(tmp_path):
    """A serving ``ServiceHTTPServer`` with two local workers."""
    server = serve(tmp_path / "service", port=0, workers=2)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.service.stop_workers()
        server.server_close()
        thread.join(timeout=5.0)


@pytest.fixture
def workerless_server(tmp_path):
    """A serving server with no local workers (jobs wait for remote ones)."""
    server = serve(tmp_path / "service", port=0, workers=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)


def small_spec(seed: int = 0) -> ExperimentSpec:
    return ExperimentSpec(
        name="service-int",
        topology=TopologySpec("grid", {"width": 5, "height": 5}),
        failure=FailureSpec("region", {"members": [[1, 1], [1, 2]], "at": 1.0}),
        seed=seed,
    )


def executions(client: ServiceClient) -> int:
    return client.health()["counts"]["executions"]


class TestDigestOverTheWire:
    def test_fresh_run_matches_local_digest(self, live_server):
        client = ServiceClient(live_server.url)
        spec = small_spec()
        local_digest = run_spec(spec).digest()

        submitted = client.submit(spec.to_dict())
        assert submitted["created"]
        job = client.wait(submitted["job"]["id"], timeout=120.0)
        assert job["state"] == "done"
        assert not job["cached"]
        assert job["digest"] == local_digest

        fetched = client.result(job["id"])
        assert fetched["envelope"]["digest"] == local_digest
        assert fetched["spec"] == spec.to_dict()
        assert executions(client) == 1

    def test_identical_resubmission_is_a_cache_hit(self, live_server):
        client = ServiceClient(live_server.url)
        spec = small_spec()
        first = client.wait(client.submit(spec.to_dict())["job"]["id"], timeout=120.0)
        again = client.submit(spec.to_dict())["job"]
        assert again["state"] == "done"
        assert again["cached"]
        assert again["digest"] == first["digest"]
        assert again["id"] != first["id"]
        assert executions(client) == 1

    def test_force_bypasses_the_cache_and_reproduces_the_digest(self, live_server):
        client = ServiceClient(live_server.url)
        spec = small_spec()
        first = client.wait(client.submit(spec.to_dict())["job"]["id"], timeout=120.0)
        forced = client.wait(
            client.submit(spec.to_dict(), force=True)["job"]["id"], timeout=120.0
        )
        assert not forced["cached"]
        assert forced["digest"] == first["digest"]
        assert executions(client) == 2

    def test_sweep_digest_and_progress_over_the_wire(self, live_server):
        client = ServiceClient(live_server.url)
        sweep = locality_sweep_spec("l2", side=8, region_sides=(1, 2, 3))
        local_digest = run_spec(sweep).digest()

        submitted = client.submit(sweep.to_dict())
        job_id = submitted["job"]["id"]
        snapshots = list(client.events(job_id, timeout=120.0))
        final = snapshots[-1]
        assert final["state"] == "done"
        assert final["digest"] == local_digest
        assert final["progress"] == {"done": 3, "total": 3}
        done_counts = [snap["progress"]["done"] for snap in snapshots]
        assert done_counts == sorted(done_counts)

        envelope = client.result(job_id)["envelope"]
        assert envelope["kind"] == "sweep"
        assert envelope["digest"] == local_digest
        assert len(envelope["result"]["runs"]) == 3

    def test_digest_collection_run_hydrates_and_verifies(self, live_server):
        client = ServiceClient(live_server.url)
        spec = ExperimentSpec(
            name="service-digest-mode",
            topology=TopologySpec("grid", {"width": 5, "height": 5}),
            failure=FailureSpec("region", {"members": [[1, 1], [1, 2]], "at": 1.0}),
            runtime=RuntimeSpec(collection="digest"),
            check=False,
        )
        local = run_spec(spec)
        job = client.wait(client.submit(spec.to_dict())["job"]["id"], timeout=120.0)
        assert job["digest"] == local.digest()

        envelope = client.result(job["id"])["envelope"]
        assert envelope["collection"] == "digest"
        recorder = hydrate_digest_result(envelope)
        assert recorder.digest() == local.digest()
        assert len(recorder) == len(local.trace)

        # Tampering with the shipped partial must break hydration.
        tampered = json.loads(json.dumps(envelope))
        tampered["digest_state"]["partial"] = "0" * 64
        with pytest.raises(ServiceError):
            hydrate_digest_result(tampered)


class TestSubmissionContract:
    def test_concurrent_duplicate_submissions_execute_once(self, live_server):
        client = ServiceClient(live_server.url)
        document = small_spec(seed=3).to_dict()
        responses = []
        barrier = threading.Barrier(6)

        def submitter():
            barrier.wait()
            responses.append(ServiceClient(live_server.url).submit(document))

        threads = [threading.Thread(target=submitter) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert len(responses) == 6
        digests = set()
        for response in responses:
            job = client.wait(response["job"]["id"], timeout=120.0)
            assert job["state"] == "done"
            digests.add(job["digest"])
        assert len(digests) == 1
        assert executions(client) == 1

    def test_corrupt_store_entry_is_detected_and_recomputed(self, live_server):
        client = ServiceClient(live_server.url)
        spec = small_spec(seed=5)
        first = client.wait(client.submit(spec.to_dict())["job"]["id"], timeout=120.0)

        store_root = live_server.service.store.root
        (entry_path,) = list(store_root.glob(f"{first['key']}.json"))
        data = json.loads(entry_path.read_text())
        data["envelope"]["result"]["seed"] = 424242
        entry_path.write_text(json.dumps(data))

        resubmitted = client.submit(spec.to_dict())["job"]
        assert not resubmitted["cached"]
        recomputed = client.wait(resubmitted["id"], timeout=120.0)
        assert recomputed["state"] == "done"
        assert recomputed["digest"] == first["digest"]
        health = client.health()
        assert health["corruptions"] == 1
        assert health["counts"]["executions"] == 2
        # The recomputed entry is intact again.
        assert client.result(recomputed["id"])["envelope"]["digest"] == first["digest"]

    def test_result_is_409_while_no_worker_has_run_it(self, workerless_server):
        client = ServiceClient(workerless_server.url)
        job = client.submit(small_spec().to_dict())["job"]
        assert job["state"] == "queued"
        with pytest.raises(ServiceError) as excinfo:
            client.result(job["id"])
        assert excinfo.value.status == 409
        assert excinfo.value.payload["job"]["id"] == job["id"]

    def test_invalid_documents_are_rejected_with_400(self, live_server):
        client = ServiceClient(live_server.url)
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"spec": "experiment"})  # no topology
        assert excinfo.value.status == 400
        assert client.health()["counts"]["queued"] == 0


    def test_malformed_blocks_are_refused_at_submit(self, live_server):
        """A block the schema does not know is a 400 where it is written —
        it used to queue and die in the worker (``KeyError: 'members'``),
        or run the clean document's scenario under a second store key."""
        client = ServiceClient(live_server.url)
        clean = small_spec().to_dict()

        def edited(block, **params):
            return dict(clean, **{block: dict(clean[block], **params)})

        for document, message in [
            (edited("failure", params={}), "missing a required argument: 'members'"),
            (
                edited("failure", params=dict(clean["failure"]["params"], spred=4)),
                "bad failure spec for kind 'region': got an unexpected keyword argument 'spred'",
            ),
            (edited("runtime", max_events="abc"), "RuntimeSpec.max_events must be int, got 'abc'"),
            # Rows used to be checked only when a worker resolved them.
            (
                edited("failure", kind="explicit", params={"crashes": [[[1, 1], "3"]]}),
                "bad crash row [[1, 1], '3']: time must be a number",
            ),
            (
                dict(clean, membership={"kind": "explicit", "params": {"rows": [["teleport", [1, 1], 3.0]]}}),
                "bad membership row ['teleport', [1, 1], 3.0]: rows are",
            ),
            # This one used to be accepted and die in a worker as SweepTaskError.
            (
                {"spec": "sweep", "family": "nope", "seeds": [0]},
                "unknown scenario family 'nope'; registered: churn-property, ",
            ),
        ]:
            with pytest.raises(ServiceError) as excinfo:
                client.submit(document)
            assert excinfo.value.status == 400
            assert message in excinfo.value.payload["error"]
        assert client.jobs() == []
        # One store key for the one scenario: the clean document runs once
        # and is a cache hit afterwards.
        first = client.wait(client.submit(clean)["job"]["id"], timeout=120.0)
        assert first["state"] == "done" and not first["cached"]
        assert client.submit(clean)["job"]["cached"]
        assert executions(client) == 1


class TestIdleLocalWorker:
    def test_a_queued_job_wakes_an_idle_worker_and_stop_wakes_it_too(self, tmp_path):
        service = ExperimentService(tmp_path / "service", workers=0)
        loop = WorkerLoop(LocalBroker(service.ledger, service.store), poll_interval=30)
        thread = threading.Thread(target=loop.run, daemon=True)
        thread.start()
        try:
            time.sleep(0.3)  # the loop finds the queue empty and idles
            job, created = service.submit(small_spec(seed=2).to_dict())
            assert created
            done = service.ledger.wait_for(
                job.id, job.version, timeout=5.0, predicate=lambda record: record.terminal
            )
            assert done is not None and done.state == "done"
            assert loop.completed == 1
        finally:
            loop.stop()
            thread.join(timeout=2.0)
        assert not thread.is_alive()

    def test_only_an_enqueue_ends_the_wait(self, tmp_path):
        ledger = JobLedger(tmp_path / "ledger")
        spec = small_spec().to_dict()
        cached = threading.Timer(
            0.05, ledger.submit, ("key-1", "digest", 0, "experiment", spec, 1), {"cached_digest": "d"}
        )
        cached.start()
        started = time.monotonic()
        ledger.wait_for_queued(0.5, lambda: False)
        assert time.monotonic() - started >= 0.5  # a cached job is born done
        cached.join()
        queued = threading.Timer(0.05, ledger.submit, ("key-2", "digest", 0, "experiment", spec, 1))
        queued.start()
        started = time.monotonic()
        ledger.wait_for_queued(30.0, lambda: False)
        assert time.monotonic() - started < 5.0
        queued.join()
        assert ledger.counts()["queue"] == 1


class TestRemoteWorker:
    def test_http_worker_drains_a_workerless_server(self, workerless_server):
        client = ServiceClient(workerless_server.url)
        spec = small_spec(seed=9)
        local_digest = run_spec(spec).digest()
        job = client.submit(spec.to_dict())["job"]
        assert job["state"] == "queued"

        # The remote worker is just a WorkerLoop whose broker is the HTTP
        # client — the same loop the `repro work` command runs.
        loop = WorkerLoop(
            ServiceClient(workerless_server.url),
            name="remote-test",
            poll_interval=0.05,
            drain=True,
        )
        loop.run()
        assert loop.completed == 1

        finished = client.job(job["id"])
        assert finished["state"] == "done"
        assert finished["worker"] == "remote-test"
        assert finished["digest"] == local_digest
        assert client.result(job["id"])["envelope"]["digest"] == local_digest

    def test_a_polling_http_worker_runs_a_job_and_stops(self, workerless_server):
        client = ServiceClient(workerless_server.url)
        loop = WorkerLoop(ServiceClient(workerless_server.url), poll_interval=0.05)
        thread = threading.Thread(target=loop.run, daemon=True)
        thread.start()
        try:
            time.sleep(0.2)  # a few empty polls first
            job = client.submit(small_spec(seed=4).to_dict())["job"]
            assert client.wait(job["id"], timeout=60.0)["state"] == "done"
        finally:
            loop.stop()
            thread.join(timeout=2.0)
        assert not thread.is_alive()
        assert (loop.completed, loop.failed) == (1, 0)

    def test_remote_worker_matches_inline_digests(self, workerless_server):
        """``repro work --drain`` over several queued jobs: every digest it
        reports equals what a local run of the same spec produces."""
        client = ServiceClient(workerless_server.url)
        expected = {}
        for seed in (3, 4, 5):
            spec = small_spec(seed=seed)
            job = client.submit(spec.to_dict())["job"]
            expected[job["id"]] = run_spec(spec).digest()

        loop = WorkerLoop(
            ServiceClient(workerless_server.url),
            name="batch-test",
            poll_interval=0.05,
            drain=True,
        )
        loop.run()
        assert loop.completed == 3
        assert loop.failed == 0
        for job_id, digest in expected.items():
            finished = client.job(job_id)
            assert finished["state"] == "done"
            assert finished["worker"] == "batch-test"
            assert finished["digest"] == digest

    def test_remote_worker_reports_job_failures(self, workerless_server):
        client = ServiceClient(workerless_server.url)
        bad = small_spec(seed=6).to_dict()
        bad["topology"]["params"]["width"] = 0  # resolves, then fails to build
        job = client.submit(bad)["job"]
        loop = WorkerLoop(
            ServiceClient(workerless_server.url),
            name="remote-fail",
            poll_interval=0.05,
            drain=True,
        )
        loop.run()
        assert (loop.completed, loop.failed) == (0, 1)
        finished = client.job(job["id"])
        assert finished["state"] == "failed"
        assert finished["error"]
