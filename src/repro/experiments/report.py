"""The reproduction report: every experiment table and the claims it backs.

``repro report`` prints one table per experiment id (figures, locality,
baselines, property sweep, overlay repair, ablations) and, under it, the
paper's claims that table supports, each evaluated on this run.  A claim
that stops holding fails the command and is named by :func:`failed_claims`.

The EXP-L1/L2, EXP-C1 and EXP-R1 tables are sweep documents
(:mod:`repro.api.presets`) run through the session: each row is read off
a run of the :class:`~repro.scale.SweepReport` and carries that run's
``digest``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..api.presets import locality_sweep_spec, property_sweep_spec, repair_sweep_spec
from ..api.session import run_spec
from .ablation import (
    arbitration_ablation,
    early_termination_ablation,
    ranking_ablation,
)
from .baseline_comparison import (
    global_consensus_comparison,
    gossip_comparison,
    uncoordinated_comparison,
)
from .scenarios import fig1a_scenario, run_fig1b, run_fig2, run_fig3
from .tables import (
    case_row,
    format_markdown_table,
    format_table,
    locality_is_flat,
    sweep_summary,
)


@dataclass
class ReportSection:
    """One experiment's rendered output."""

    experiment_id: str
    title: str
    rows: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    #: ``(text, holds)``: a claim of the paper this experiment supports, and
    #: whether this run bears it out.
    claims: list[tuple[str, bool]] = field(default_factory=list)

    def to_text(self, markdown: bool = False) -> str:
        renderer = format_markdown_table if markdown else format_table
        table = renderer(self.rows) if self.rows else "(no table)"
        lines = [f"## {self.experiment_id} — {self.title}", "", table, ""]
        lines.extend(f"* {note}" for note in self.notes)
        lines.extend(f"* [{'ok' if holds else 'FAILED'}] {text}" for text, holds in self.claims)
        return "\n".join(lines)


def _columns(rows: Sequence[dict], **where: object) -> dict[str, list]:
    """Column name → its values, over the rows whose ``where`` columns match."""
    kept = [row for row in rows if all(row[name] == value for name, value in where.items())]
    return {name: [row[name] for row in kept] for name in rows[0]}


def _increasing(values: Sequence) -> bool:
    return all(low < high for low, high in zip(values, values[1:]))


def _sweep_rows(outcomes, row=lambda outcome: outcome.labels["extract"]) -> list[dict]:
    """One row per run of a sweep document: ``row(outcome)`` (by default the
    run's extractor row), then the run's ``digest`` (its first 12 hex)."""
    return [dict(row(outcome), digest=outcome.digest[:12]) for outcome in outcomes]


def _spec_holds(rows: Sequence[dict]) -> tuple[str, bool]:
    return ("CD1–CD7 hold on every row", all(row["spec_holds"] for row in rows))


def _fig1_section() -> ReportSection:
    section = ReportSection("FIG-1", "Conflicting views resolved by arbitration")
    result_a = run_spec(fig1a_scenario())
    observations = run_fig1b()
    section.rows = [
        {
            "variant": variant,
            "decided_views": len(result.decided_views),
            "decisions": result.metrics.decisions,
            "messages": result.metrics.messages_sent,
            "rejections": rejections,
            "spec_holds": result.specification.holds,
        }
        for variant, result, rejections in (
            ("fig1a (F1 + F2 crash)", result_a, result_a.metrics.rejections),
            ("fig1b (F1 grows into F3)", observations.result, observations.rejections),
        )
    ]
    section.notes = [
        "madrid proposals: "
        + " -> ".join(str(sorted(map(str, v.members))) for v in observations.madrid_proposals),
    ]
    section.claims = [
        ("fig1b: madrid and berlin held conflicting views", observations.conflict_arose),
        ("fig1b: every decider converged on F3", observations.converged_on_f3),
        _spec_holds(section.rows),
    ]
    return section


def _fig2_section() -> ReportSection:
    section = ReportSection("FIG-2", "Faulty cluster of adjacent domains")
    observations = run_fig2()
    section.rows = [
        {
            "domain": name,
            "decided": decided,
            "deciders": ", ".join(map(str, observations.deciders[name])) or "-",
        }
        for name, decided in sorted(observations.decided_domains.items())
    ]
    section.claims = [
        ("CD7: the faulty cluster reaches a decision", observations.cluster_has_decision),
        ("CD1–CD7 hold", observations.result.specification.holds),
    ]
    return section


def _fig3_section() -> ReportSection:
    section = ReportSection("FIG-3", "View convergence on overlapping regions")
    observations = run_fig3()
    row = {
        "first_wave_decided": observations.first_wave_view is not None,
        "grown_region_proposed": observations.grown_region_proposed,
        "post_growth_decisions": len(observations.post_growth_views),
        "no_conflicting_decision": observations.no_conflicting_decision,
        "spec_holds": observations.result.specification.holds,
    }
    section.rows = [row]
    section.claims = [
        ("CD6: no conflicting decision on the overlap", row["no_conflicting_decision"]),
        _spec_holds(section.rows),
    ]
    return section


def _locality_sections(quick: bool) -> list[ReportSection]:
    sides = (8, 12, 16, 24) if quick else (8, 12, 16, 24, 32, 48, 64)
    region_sides = (1, 2, 3, 4) if quick else (1, 2, 3, 4, 5, 6)
    l1 = ReportSection("EXP-L1", "Cost vs. system size (fixed 3x3 crashed region)")
    l1.rows = _sweep_rows(run_spec(locality_sweep_spec("l1", sides=sides)).outcomes)
    l1.claims = [("message cost flat across system sizes", locality_is_flat(l1.rows))]
    l2 = ReportSection("EXP-L2", "Cost vs. crashed-region size (fixed 32x32 torus)")
    l2.rows = _sweep_rows(
        run_spec(locality_sweep_spec("l2", region_sides=region_sides)).outcomes
    )
    l2.claims = [("message cost grows with the region", _increasing(_columns(l2.rows)["messages"]))]
    for section in (l1, l2):
        cost = _columns(section.rows)
        border_only = cost["speaking_nodes"] == cost["border_size"]
        section.claims += [
            ("only the crashed region's border speaks", border_only),
            _spec_holds(section.rows),
        ]
    return [l1, l2]


def _baseline_sections(quick: bool) -> list[ReportSection]:
    sides_global = (6, 8, 10) if quick else (6, 8, 10, 12, 16)
    sides_gossip = (8, 12) if quick else (8, 12, 16, 24)
    b1 = ReportSection("EXP-B1", "Cliff-edge vs. whole-network flooding consensus")
    b1.rows = [point.as_row() for point in global_consensus_comparison(sides=sides_global)]
    cost = _columns(b1.rows)
    b1.claims = [
        ("cliff-edge cost is the same at every system size", len(set(cost["cliff_messages"])) == 1),
        ("global consensus cost grows with the system size", _increasing(cost["global_messages"])),
    ]
    b2 = ReportSection("EXP-B2", "Cliff-edge vs. gossip eventual convergence")
    b2.rows = [point.as_row() for point in gossip_comparison(sides=sides_gossip)]
    cost = _columns(b2.rows)
    survivors = [size - region for size, region in zip(cost["system_size"], cost["region_size"])]
    b2.claims = [
        ("gossip informs every surviving node", cost["gossip_informed"] == survivors),
        ("gossip cost grows with the system size", _increasing(cost["gossip_messages"])),
        ("cliff-edge involves the same nodes at every size", len(set(cost["cliff_involved"])) == 1),
    ]
    b3 = ReportSection("EXP-B3", "Cliff-edge vs. uncoordinated local repair")
    b3.rows = [point.as_row() for point in uncoordinated_comparison()]
    cost = _columns(b3.rows)
    b3.claims = [
        ("cliff-edge decides without a conflicting pair", not any(cost["cliff_conflicts"])),
        ("uncoordinated repair takes conflicting actions", all(cost["uncoord_conflicts"])),
    ]
    return [b1, b2, b3]


def _property_section(quick: bool) -> ReportSection:
    section = ReportSection("EXP-C1", "CD1–CD7 under adversarial crash schedules")
    cases = run_spec(property_sweep_spec(cases=10 if quick else 30)).outcomes
    section.rows = _sweep_rows(cases, case_row)
    summary = sweep_summary(cases)
    section.notes = [f"violating seeds: {summary['violating_seeds']}"]
    section.claims = [
        ("CD1–CD7 hold on every case", summary["all_hold"]),
        ("every case reaches quiescence", summary["all_quiescent"]),
    ]
    return section


def _repair_section(quick: bool) -> ReportSection:
    ring_sizes = (16, 32) if quick else (16, 32, 64)
    section = ReportSection("EXP-R1", "End-to-end overlay repair")
    section.rows = _sweep_rows(run_spec(repair_sweep_spec(ring_sizes=ring_sizes)).outcomes)
    repair = _columns(section.rows)
    section.claims = [
        ("the agreed plan restores the ring", all(repair["ring_restored"])),
        ("the agreed plan reconnects the survivors", all(repair["survivors_connected"])),
        _spec_holds(section.rows),
    ]
    return section


def _ablation_sections() -> list[ReportSection]:
    a1 = ReportSection("EXP-A1", "Arbitration (reject rule) on/off")
    a1.rows = [point.as_row() for point in arbitration_ablation()]
    on, off = (_columns(a1.rows, arbitration=flag) for flag in (True, False))
    a1.claims = [
        ("with arbitration every border node decides", not any(on["undecided_border"])),
        ("without arbitration nobody decides", not any(off["decisions"])),
    ]
    a2 = ReportSection("EXP-A2", "Ranking relation variants")
    a2.rows = [point.as_row() for point in ranking_ablation()]
    total, weaker = (_columns(a2.rows, total_order=flag) for flag in (True, False))
    a2.claims = [
        ("the canonical ranking decides", all(total["decisions"])),
        ("weaker rankings meet incomparable proposals", all(weaker["incomparable_pairs"])),
        ("weaker rankings lose liveness", not any(weaker["decisions"])),
    ]
    a3 = ReportSection("EXP-A3", "Footnote-6 early termination on/off")
    a3.rows = [point.as_row() for point in early_termination_ablation()]
    full, early = (_columns(a3.rows, early_termination=flag) for flag in (False, True))
    saves = all(saved < sent for sent, saved in zip(full["messages"], early["messages"]))
    a3.claims = [
        ("early termination saves messages on every workload", saves),
        ("early termination takes the same decisions", full["decisions"] == early["decisions"]),
        _spec_holds(a3.rows),
    ]
    return [a1, a2, a3]


def build_report(quick: bool = False) -> list[ReportSection]:
    """Run every experiment and return its sections in report order."""
    return [
        _fig1_section(),
        _fig2_section(),
        _fig3_section(),
        *_locality_sections(quick),
        *_baseline_sections(quick),
        _property_section(quick),
        _repair_section(quick),
        *_ablation_sections(),
    ]


def render_report(sections: Sequence[ReportSection], markdown: bool = False) -> str:
    """Render all sections to one text blob."""
    return "\n\n".join(section.to_text(markdown=markdown) for section in sections)


def failed_claims(sections: Sequence[ReportSection]) -> list[str]:
    """``"EXP-ID: claim"`` for every claim that does not hold."""
    return [f"{s.experiment_id}: {text}" for s in sections for text, holds in s.claims if not holds]
