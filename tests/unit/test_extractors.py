"""Unit tests for result extractors and the spec presets behind them.

The contract under test: the ``extract`` block changes what is
*observed*, never what *happens* — a spec with one runs digest-identically
to the same experiment without it, and the extractor's row reproduces the
classic experiment's numbers.  (The lone exception is ``repair``, whose
decision policy legitimately shapes the run.)  The digests they are held to
are the ones recorded while ``experiments/`` still called ``run_cliff_edge``
directly (tests/unit/test_one_description.py has the full battery).  An
extractor is a kind like any other: its block is checked where the spec is
written.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.api import (
    ExperimentSpec,
    RuntimeSpec,
    SpecError,
    locality_sweep_spec,
    quickstart_spec,
    repair_spec,
    run_spec,
    torus_region_spec,
)
from repro.experiments import run_overlay_repair


class TestLocalityExtractor:
    def test_l1_point_is_digest_identical_to_classic_sweep(self):
        sweep = locality_sweep_spec("l1", sides=(8,), region_side=3)
        (spec,) = list(sweep.expand())
        result = run_spec(spec)
        plain = run_spec(torus_region_spec(8, 3))
        assert result.digest().startswith("a87e9c25da16a977")
        assert plain.digest() == result.digest()
        assert run_spec(replace(spec, extract=None)).digest() == result.digest()
        row = result.labels["extract"]
        assert row["system_size"] == 64
        assert row["region_size"] == len(spec.failure.params["members"]) == 9
        assert row["messages"] == plain.metrics.messages_sent == 3679

    def test_l2_rows_match_classic_region_sweep(self):
        sweep = locality_sweep_spec("l2", side=8, region_sides=(1, 2))
        report = run_spec(sweep)
        rows = [run["extract"] for run in report.as_dict()["runs"]]
        # What the region-size loop printed at the commit it was removed.
        assert [row["messages"] for row in rows] == [48, 576]
        assert [row["border_size"] for row in rows] == [4, 8]

    def test_coupled_axis_moves_width_and_height_together(self):
        sweep = locality_sweep_spec("l1", sides=(8, 12))
        expanded = list(sweep.expand())
        dims = [
            (s.topology.params["width"], s.topology.params["height"])
            for s in expanded
        ]
        assert dims == [(8, 8), (12, 12)]


class TestRepairExtractor:
    def test_run_is_digest_identical_to_classic_repair(self):
        spec = repair_spec(ring_size=16, arc_start=3, arc_length=3)
        result = run_spec(spec)
        classic = run_overlay_repair(ring_size=16, arc_start=3, arc_length=3)
        assert result.digest().startswith("74b4d0f70a2113d6")
        assert classic.result.digest() == result.digest()
        row = result.labels["extract"]
        assert classic.outcome.ring_restored == row["ring_restored"]
        assert row == {
            "ring_size": 16,
            "successors": 2,
            "arc_length": 3,
            "decisions": 4,
            "views": 1,
            "messages": 120,
            "ring_restored": True,
            "survivors_connected": True,
            "coordinator": "1",
            "spec_holds": True,
        }

    def test_policy_needs_the_sequential_simulator(self):
        spec = repair_spec(ring_size=16)
        partitioned = replace(spec, runtime=RuntimeSpec(partitions=2))
        with pytest.raises(SpecError):
            run_spec(partitioned)

    def test_unknown_extract_kind_is_rejected(self):
        base = quickstart_spec()
        with pytest.raises(SpecError, match="unknown extract kind 'phrenology'; known: locality, repair"):
            ExperimentSpec(topology=base.topology, failure=base.failure, extract={"kind": "phrenology"})


class TestExtractField:
    def test_round_trips_through_json(self):
        spec = repair_spec(ring_size=16)
        restored = ExperimentSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.extract["kind"] == "repair"

    def test_absent_extract_is_not_serialized(self):
        document = quickstart_spec().to_dict()
        assert "extract" not in document
        json.dumps(document)

    def test_extract_changes_the_spec_digest_only_when_present(self):
        plain = quickstart_spec()
        observed = replace(plain, extract={"kind": "locality"})
        assert plain.digest() != observed.digest()
