"""Integration tests for the paper-figure reproductions (FIG-1, FIG-2, FIG-3)."""

from __future__ import annotations

import pytest

from repro.experiments import (
    FIG1_F1,
    FIG1_F2,
    FIG1_F3,
    fig1a_scenario,
    fig1b_scenario,
    fig2_scenario,
    fig3_scenario,
    run_fig1b,
    run_fig2,
    run_fig3,
)
from repro.graph import Region
from repro.trace import communicating_nodes


class TestFig1a:
    @pytest.fixture(scope="class")
    def result(self):
        return fig1a_scenario().run()

    def test_specification_holds(self, result):
        assert result.specification.holds, result.specification.summary()

    def test_both_regions_decided(self, result):
        assert result.decided_views == {
            Region(frozenset(FIG1_F1)),
            Region(frozenset(FIG1_F2)),
        }

    def test_borders_decide_their_own_region(self, result):
        f1_deciders = {d.node for d in result.decisions_on(Region(frozenset(FIG1_F1)))}
        f2_deciders = {d.node for d in result.decisions_on(Region(frozenset(FIG1_F2)))}
        assert f1_deciders == {"paris", "london", "madrid", "roma"}
        assert f2_deciders == {"tokyo", "vancouver", "portland", "sydney", "beijing"}

    def test_vancouver_never_talks_to_madrid(self, result):
        """The paper's scalability example: no cross-ocean coordination."""
        from repro.trace import message_pairs

        pairs = message_pairs(result.trace)
        assert ("vancouver", "madrid") not in pairs
        assert ("madrid", "vancouver") not in pairs

    def test_bystanders_stay_silent(self, result):
        speakers = communicating_nodes(result.trace)
        assert "newyork" not in speakers
        assert "moscow" not in speakers
        assert "cairo" not in speakers


class TestFig1b:
    @pytest.fixture(scope="class")
    def observations(self):
        return run_fig1b()

    def test_specification_holds(self, observations):
        assert observations.result.specification.holds

    def test_conflicting_views_really_arose(self, observations):
        assert observations.conflict_arose
        assert Region(frozenset(FIG1_F1)) in observations.madrid_proposals
        assert Region(frozenset(FIG1_F3)) in observations.berlin_proposals

    def test_everyone_converges_on_f3(self, observations):
        assert observations.converged_on_f3
        assert observations.result.decided_views == {Region(frozenset(FIG1_F3))}

    def test_f3_border_decides(self, observations):
        assert observations.result.deciding_nodes == {
            "london",
            "madrid",
            "roma",
            "berlin",
        }

    def test_arbitration_was_needed(self, observations):
        assert observations.rejections > 0

    def test_madrid_catches_up_through_ranking(self, observations):
        """Madrid's proposals are strictly increasing in rank (Lemma 2)."""
        proposals = observations.madrid_proposals
        assert len(proposals) >= 2
        sizes = [len(view) for view in proposals]
        assert sizes == sorted(sizes)
        assert len(set(map(tuple, (sorted(map(repr, v.members)) for v in proposals)))) == len(
            proposals
        )

    def test_scenario_is_parameterisable(self):
        quick = fig1b_scenario(madrid_detection_delay=5.0).run()
        assert quick.specification.holds
        assert quick.decided_views == {Region(frozenset(FIG1_F3))}


class TestFig2:
    @pytest.fixture(scope="class")
    def observations(self):
        return run_fig2()

    def test_specification_holds(self, observations):
        assert observations.result.specification.holds

    def test_cluster_progress(self, observations):
        assert observations.cluster_has_decision

    def test_highest_ranked_domain_always_decided(self, observations):
        # F3 is the largest domain of the figure and wins every conflict on
        # its border, so it must be decided.
        assert observations.decided_domains["F3"]
        assert set(observations.deciders["F3"]) == {"x23", "p3", "x34"}

    def test_shared_border_nodes_decide_once(self, observations):
        result = observations.result
        deciders = [decision.node for decision in result.decisions]
        assert len(deciders) == len(set(deciders))

    def test_undecided_domains_are_adjacent_to_decided_ones(self, observations):
        """A domain stays undecided only because a shared border node
        committed to a higher-ranked adjacent domain."""
        layout = observations.layout
        decided = {
            name for name, is_decided in observations.decided_domains.items() if is_decided
        }
        undecided = set(observations.decided_domains) - decided
        regions = {f"F{i+1}": Region(frozenset(m)) for i, m in enumerate(layout.domains)}
        from repro.graph import are_adjacent

        for name in undecided:
            assert any(
                are_adjacent(layout.graph, regions[name], regions[other])
                for other in decided
            )

    def test_scenario_runs_standalone(self):
        result = fig2_scenario().run()
        assert result.specification.holds


class TestFig3:
    @pytest.fixture(scope="class")
    def observations(self):
        return run_fig3()

    def test_specification_holds(self, observations):
        assert observations.result.specification.holds

    def test_first_wave_agreed(self, observations):
        assert observations.first_wave_view is not None
        assert observations.result.decided_views == {observations.first_wave_view}

    def test_grown_region_proposed_but_not_decided(self, observations):
        assert observations.grown_region_proposed
        combined = Region(frozenset(observations.layout.combined))
        assert combined not in observations.result.decided_views

    def test_no_conflicting_decisions(self, observations):
        assert observations.no_conflicting_decision

    def test_progress_still_satisfied_by_early_deciders(self, observations):
        report = observations.result.specification
        assert report.reports["CD7 Progress"].holds

    def test_growth_timing_matters(self):
        """If the growth happens *before* the first agreement completes, the
        protocol converges on the combined region instead (Fig. 1b style)."""
        early_growth = fig3_scenario(growth_at=3.0).run()
        assert early_growth.specification.holds
        from repro.experiments.topologies import fig3_topology

        layout = fig3_topology()
        combined = Region(frozenset(layout.combined))
        assert combined in early_growth.decided_views
