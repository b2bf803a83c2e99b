"""Integration tests for the ablations (EXP-A1/A2), the adversarial property
sweep (EXP-C1) and the overlay-repair experiment (EXP-R1)."""

from __future__ import annotations

import pytest

from repro.api import property_sweep_spec, repair_sweep_spec, run_spec
from repro.experiments import (
    arbitration_ablation,
    ranking_ablation,
    run_overlay_repair,
    sweep_summary,
)


class TestArbitrationAblation:
    @pytest.fixture(scope="class")
    def points(self):
        return arbitration_ablation()

    def test_both_scenarios_covered(self, points):
        scenarios = {point.scenario for point in points}
        assert scenarios == {"fig1b-growth", "staggered-torus"}
        assert len(points) == 4

    def test_with_arbitration_everyone_decides(self, points):
        for point in points:
            if point.arbitration:
                assert point.decisions > 0
                assert point.blocked_proposers == 0

    def test_without_arbitration_protocol_stalls(self, points):
        for point in points:
            if not point.arbitration:
                assert point.decisions == 0
                assert point.blocked_proposers > 0

    def test_rows_have_labels(self, points):
        row = points[0].as_row()
        assert {"scenario", "arbitration", "decisions", "blocked_proposers"} <= row.keys()


class TestRankingAblation:
    @pytest.fixture(scope="class")
    def points(self):
        return ranking_ablation()

    def test_all_variants_present(self, points):
        assert {point.ranking for point in points} == {
            "canonical",
            "size-only",
            "size-border",
        }

    def test_canonical_ranking_has_no_incomparable_pairs(self, points):
        canonical = next(p for p in points if p.ranking == "canonical")
        assert canonical.incomparable_pairs == 0
        assert canonical.decisions > 0
        assert canonical.specification_holds

    def test_weaker_rankings_hit_incomparable_proposals(self, points):
        for point in points:
            if point.ranking != "canonical":
                assert point.incomparable_pairs > 0

    def test_weaker_rankings_lose_liveness(self, points):
        """Without a strict total order the arbitration cannot order the
        conflicting proposals and the faulty cluster never gets a decision."""
        for point in points:
            if point.ranking != "canonical":
                assert point.decisions == 0
                assert not point.specification_holds


class TestPropertySweep:
    @pytest.fixture(scope="class")
    def cases(self):
        return run_spec(property_sweep_spec(cases=12)).outcomes

    def test_specification_holds_for_every_case(self, cases):
        failing = [case for case in cases if not case.spec_holds]
        details = "\n".join(
            f"seed={case.seed} topology={case.label}: {case.violations}"
            for case in failing
        )
        assert not failing, details

    def test_all_runs_quiesce(self, cases):
        assert all(case.quiescent for case in cases)

    def test_sweep_covers_multiple_topologies(self, cases):
        families = {case.labels["topology"].split("-")[0] for case in cases}
        assert len(families) >= 3

    def test_decisions_happen_when_crashes_happen(self, cases):
        for case in cases:
            if case.labels["crashed"] > 0:
                assert case.decisions > 0

    def test_summary_aggregates(self, cases):
        summary = sweep_summary(cases)
        assert summary["cases"] == len(cases)
        assert summary["all_hold"] is True
        assert summary["violating_seeds"] == []
        assert summary["total_messages"] > 0

    def test_cases_are_reproducible(self, cases):
        from repro.api import property_case_spec, run_spec

        again = run_spec(property_case_spec(cases[0].seed))
        assert again.digest() == cases[0].digest
        assert again.metrics.messages_sent == cases[0].messages


class TestOverlayRepair:
    @pytest.fixture(scope="class")
    def run(self):
        return run_overlay_repair(ring_size=32, successors=2, arc_start=5, arc_length=4)

    def test_specification_holds(self, run):
        assert run.result.specification.holds

    def test_agreed_view_is_the_crashed_arc(self, run):
        views = run.result.decided_views
        assert len(views) == 1
        assert next(iter(views)).members == frozenset(run.arc)

    def test_ring_restored_and_connected(self, run):
        assert run.outcome.ring_restored
        assert run.outcome.survivors_connected

    def test_single_agreed_plan_with_coordinator(self, run):
        assert len(run.outcome.plans) == 1
        plan = next(iter(run.outcome.plans.values()))
        assert plan.coordinator in run.result.graph.border(run.arc)
        assert len(plan.new_edges) == 1

    def test_point_summary(self, run):
        row = run.result.labels["extract"]
        assert row["ring_restored"] is True
        assert row["arc_length"] == 4

    def test_sweep_always_restores_the_ring(self):
        sweep = run_spec(repair_sweep_spec(ring_sizes=(16, 32), arc_lengths=(2, 4)))
        rows = [outcome.labels["extract"] for outcome in sweep.outcomes]
        assert len(rows) == 4
        for row in rows:
            assert row["ring_restored"], row
            assert row["survivors_connected"]
            assert row["spec_holds"]

    def test_a_grid_point_the_ring_cannot_hold_is_refused(self):
        from repro.api import SpecError

        with pytest.raises(SpecError, match="needs a ring of at least 10 nodes, got 8"):
            repair_sweep_spec(ring_sizes=(8, 16), arc_lengths=(2, 4))
