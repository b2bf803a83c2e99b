"""The virtual-time runtime's determinism battery.

The tentpole claim of the virtual-time loop is that the *real* asyncio
runtime becomes digest-comparable: the same spec produces the same
canonical digest run over run, process over process, ``PYTHONHASHSEED``
over ``PYTHONHASHSEED`` — and on scenarios where asyncio's timing model
coincides with a scripted simulator schedule, the two substrates decide
identically.  This file pins all of that, plus the integration points:
sweeps through :class:`ShardedSweepRunner` and the experiment service's
execution funnel run virtual specs unchanged.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

import pytest

from repro import CliffEdgeNode, region_crash, run_cliff_edge
from repro.api import ExperimentSession, ExperimentSpec, churn_scenario_spec
from repro.churn import MembershipSchedule, recover
from repro.graph.generators import grid
from repro.runtime import run_asyncio
from repro.sim import EventKind, ScriptedFailureDetector, SimulationError


VIRTUAL_SPEC = {
    "spec": "experiment",
    "version": 1,
    "name": "vtime-battery",
    "topology": {"kind": "grid", "params": {"width": 6, "height": 6}},
    "failure": {"kind": "random_region", "params": {"size": 4}},
    "runtime": {"engine": "asyncio-virtual"},
    "seed": 11,
    "check": True,
}


class TestDigestDeterminism:
    def test_same_spec_twice_identical_digest(self):
        spec = ExperimentSpec.from_dict(VIRTUAL_SPEC)
        first = ExperimentSession().run(spec)
        second = ExperimentSession().run(spec)
        assert first.runtime == "asyncio-virtual"
        assert first.digest() == second.digest()
        assert first.quiescent and second.quiescent

    def test_digest_stable_across_hashseed_processes(self):
        """Two fresh interpreters with different ``PYTHONHASHSEED``
        values produce byte-identical digests (the CI vtime-smoke job
        re-checks this against the installed package)."""
        script = (
            "from repro.api import ExperimentSession, ExperimentSpec\n"
            f"spec = ExperimentSpec.from_dict({VIRTUAL_SPEC!r})\n"
            "print(ExperimentSession().run(spec).digest())\n"
        )
        digests = []
        for hashseed in ("1", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=hashseed)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, ["src", env.get("PYTHONPATH", "")])
            )
            output = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env=env,
                check=True,
                timeout=120,
            )
            digests.append(output.stdout.strip())
        assert digests[0] == digests[1]
        assert len(digests[0]) == 64

    def test_churn_scenario_virtual_reproducible(self):
        spec = churn_scenario_spec("race", nodes=16, seed=5, runtime="asyncio-virtual")
        results = [ExperimentSession().run(spec) for _ in range(2)]
        assert results[0].digest() == results[1].digest()
        assert all(r.quiescent for r in results)
        assert all(r.specification.holds for r in results)
        assert results[0].runtime == "asyncio-virtual"


class TestVirtualMatchesSimulator:
    def test_scripted_detector_identical_decisions(self):
        """With a scripted failure detector the asyncio timing model is
        fully pinned, and the virtual runtime must land on exactly the
        simulator's decisions — same views, same deciding nodes."""
        graph = grid(6, 6)
        block = [(2, 2), (2, 3), (3, 2), (3, 3)]
        schedule = region_crash(graph, block, at=1.0)
        # Border nodes (2,1) and (1,2) learn about their dead neighbours
        # late; everyone else detects after one time unit.
        delays = {}
        for crashed in block:
            delays[((2, 1), crashed)] = 8.0
            delays[((1, 2), crashed)] = 8.0
        detector = ScriptedFailureDetector(delays, default_delay=1.0)

        sim_result = run_cliff_edge(graph, schedule, failure_detector=detector)
        virtual_result = run_asyncio(graph, schedule, virtual=True, failure_detector=detector)
        assert virtual_result.decided_views == sim_result.decided_views
        assert virtual_result.deciding_nodes == sim_result.deciding_nodes

    def test_no_real_sleeps(self):
        """A scenario that spends >40 virtual seconds in timeouts and
        settle polls completes in far less wall-clock time than it
        simulates — i.e. the loop never actually sleeps."""
        graph = grid(5, 5)
        schedule = region_crash(graph, [(2, 2), (2, 3)], at=1.0)
        start = time.perf_counter()
        result = run_asyncio(
            graph,
            schedule,
            virtual=True,
            detection_delay=10.0,
            time_scale=1.0,  # 1 virtual unit = 1 "second" of sleeps
            timeout=120.0,
        )
        elapsed = time.perf_counter() - start
        assert result.quiescent
        assert elapsed < 10.0  # wall-clock; generous for slow CI


class TestMembershipAnnouncementTiming:
    """The membership service is exactly as timely as crash detection —
    on asyncio too: an announcement waits the detector policy's per-pair
    delay (scaled), and the flat ``detection_delay`` only without a policy."""

    @pytest.mark.parametrize(
        "detector, expected",
        [
            (ScriptedFailureDetector({((1, 2), (1, 1)): 7.0}, default_delay=1.0), 13.5),
            (None, 10.25),
        ],
        ids=["policy", "flat"],
    )
    def test_recover_is_announced_after_the_detector_delay(self, detector, expected):
        graph = grid(4, 4)
        time_scale = 0.5  # every time below is an exact binary fraction
        result = run_asyncio(
            graph,
            region_crash(graph, [(1, 1)], at=1.0),
            MembershipSchedule((recover((1, 1), 20.0),)),
            virtual=True,
            detection_delay=0.25,
            time_scale=time_scale,
            failure_detector=detector,
        )
        recovered = [e.time for e in result.trace.of_kind(EventKind.NODE_RECOVERED)]
        assert recovered == [20.0 * time_scale]
        heard = [
            event.time
            for event in result.trace.of_kind(EventKind.MEMBERSHIP_NOTIFIED)
            if event.node == (1, 2) and event.peer == (1, 1)
        ]
        assert heard == [expected]


class _RaisesOnMessage(CliffEdgeNode):
    """Every node behaves, except that (0, 1) chokes on its first message."""

    def on_message(self, ctx, sender, message):
        if self.node_id == (0, 1):
            raise KeyError("boom")
        super().on_message(ctx, sender, message)


class TestHandlerErrorFailsTheRun:
    """A handler raising inside a node task used to die with that task:
    the run reported ``quiescent=False`` with nothing decided after
    burning its whole timeout (30 wall-clock seconds), while the
    simulator raised at once."""

    @pytest.mark.parametrize("virtual", [False, True], ids=["wall-clock", "virtual"])
    def test_both_loops_raise_naming_the_node_and_the_cause(self, virtual):
        graph = grid(4, 4)
        schedule = region_crash(graph, [(1, 1)], at=1.0)
        started = time.perf_counter()
        with pytest.raises(SimulationError) as raised:
            run_asyncio(graph, schedule, virtual=virtual, node_factory=_RaisesOnMessage)
        assert time.perf_counter() - started < 2.0
        assert "(0, 1)" in str(raised.value) and "message" in str(raised.value)
        assert "KeyError('boom')" in str(raised.value)
        assert isinstance(raised.value.__cause__, KeyError)


class TestSweepAndServiceIntegration:
    def test_virtual_specs_sweep_across_worker_counts(self):
        """asyncio-virtual experiment specs are sweepable: identical
        report digests for every worker count, like any sim spec."""
        from repro.api.specs import SweepSpec

        sweep_doc = {
            "spec": "sweep",
            "version": 1,
            "name": "vtime-sweep",
            "experiment": {**VIRTUAL_SPEC, "check": False},
            "seeds": [1, 2, 3],
        }
        reports = []
        for workers in (1, 2):
            sweep = SweepSpec.from_dict({**sweep_doc, "workers": workers})
            reports.append(ExperimentSession().run_sweep(sweep))
        assert reports[0].digest() == reports[1].digest()
        assert len(reports[0].outcomes) == 3

    def test_service_funnel_runs_virtual_spec(self):
        from repro.service import verify_envelope
        from repro.service.worker import execute_document

        envelope = execute_document({**VIRTUAL_SPEC, "check": False})
        verify_envelope(envelope)
        rerun = execute_document({**VIRTUAL_SPEC, "check": False})
        assert envelope["digest"] == rerun["digest"]


class TestChurnHarness:
    def test_run_churn_virtual_equals_run_twice(self):
        graph, schedule, membership = ExperimentSession().resolve(
            churn_scenario_spec("race", nodes=16, seed=9)
        )
        results = [
            run_asyncio(graph, schedule, membership, virtual=True, seed=9, check=True)
            for _ in range(2)
        ]
        assert results[0].digest() == results[1].digest()
        assert results[0].runtime == "asyncio-virtual"
        assert all(r.specification.holds for r in results)

    def test_cli_all_runtimes_agree(self, capsys):
        from repro.cli import main

        lines = []
        code = main(
            [
                "churn",
                "--scenario",
                "steady",
                "--nodes",
                "16",
                "--duration",
                "30",
                "--runtime",
                "all",
            ],
            write=lines.append,
        )
        assert code == 0
        assert "runtimes decided identical views: True" in "\n".join(lines)
