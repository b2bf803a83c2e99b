"""Integration tests for the report generator and the example scripts."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments import report as report_module
from repro.experiments.report import (
    ReportSection,
    build_report,
    failed_claims,
    render_report,
)

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"
SRC_DIR = Path(__file__).resolve().parents[2] / "src"

#: Environment for example subprocesses: make ``repro`` importable even
#: when the suite itself was launched via pytest's ``pythonpath`` option
#: (which is process-local and not inherited by children).
_EXAMPLE_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")])
    ),
}


@pytest.fixture(scope="module")
def quick_report():
    """``repro report --quick``'s sections, by experiment id (built once)."""
    return {section.experiment_id: section for section in build_report(quick=True)}


class TestReportSections:
    def test_fig1_section(self, quick_report):
        section = quick_report["FIG-1"]
        assert len(section.rows) == 2
        assert ("fig1b: every decider converged on F3", True) in section.claims

    def test_fig2_section(self, quick_report):
        section = quick_report["FIG-2"]
        assert len(section.rows) == 4
        assert any("CD7" in text for text, _ in section.claims)

    def test_fig3_section(self, quick_report):
        assert quick_report["FIG-3"].rows[0]["no_conflicting_decision"] is True

    def test_repair_section_quick(self, quick_report):
        assert all(row["ring_restored"] for row in quick_report["EXP-R1"].rows)

    def test_ablation_sections(self, quick_report):
        assert len(quick_report["EXP-A1"].rows) == 4
        assert len(quick_report["EXP-A2"].rows) == 3
        assert len(quick_report["EXP-A3"].rows) == 4

    def test_every_claim_holds_quick(self, quick_report):
        assert list(quick_report) == [
            "FIG-1", "FIG-2", "FIG-3", "EXP-L1", "EXP-L2", "EXP-B1", "EXP-B2",
            "EXP-B3", "EXP-C1", "EXP-R1", "EXP-A1", "EXP-A2", "EXP-A3",
        ]  # fmt: skip
        for section in quick_report.values():
            assert section.claims, section.experiment_id
            assert all(holds is True for _, holds in section.claims), section.claims
        assert failed_claims(list(quick_report.values())) == []
        assert "FAILED" not in render_report(list(quick_report.values()))

    def test_sweep_rows_carry_their_run_digest(self, quick_report):
        for experiment_id in ("EXP-L1", "EXP-L2", "EXP-C1", "EXP-R1"):
            rows = quick_report[experiment_id].rows
            assert all(list(row)[-1] == "digest" for row in rows), experiment_id
            assert all(re.fullmatch("[0-9a-f]{12}", row["digest"]) for row in rows)
        assert quick_report["EXP-L1"].rows[0]["digest"] == "a87e9c25da16"
        assert not any("digest" in row for row in quick_report["EXP-B1"].rows)

    def test_failed_claim_exits_nonzero_and_is_named(self, monkeypatch, quick_report):
        """A locality sweep whose cost grows with the system fails the command."""
        real = report_module.locality_sweep_spec

        def growing(exp, **kwargs):
            # EXP-L1's document swapped for one whose crashed block grows.
            return real("l2", region_sides=(1, 2), side=8) if exp == "l1" else real(exp, **kwargs)

        monkeypatch.setattr(report_module, "locality_sweep_spec", growing)
        lines: list[str] = []
        assert main(["report", "--quick"], write=lines.append) == 1
        output = "\n".join(lines)
        assert "* [FAILED] message cost flat across system sizes" in output
        assert lines[-1] == "FAILED EXP-L1: message cost flat across system sizes"
        # Every table is still printed, and nothing else is blamed.
        assert all(f"## {experiment_id} " in output for experiment_id in quick_report)
        assert output.count("FAILED") == 2

    @pytest.mark.slow
    def test_every_claim_holds_full_size(self):
        assert failed_claims(build_report()) == []

    def test_render_report_plain_and_markdown(self):
        section = ReportSection(
            "EXP-X",
            "demo",
            rows=[{"a": 1, "b": True}],
            notes=["note"],
            claims=[("stays up", True), ("stays flat", False)],
        )
        plain = render_report([section])
        markdown = render_report([section], markdown=True)
        assert "## EXP-X — demo" in plain
        assert "* note" in plain
        assert "* [ok] stays up" in plain and "* [FAILED] stays flat" in plain
        assert "| a | b |" in markdown
        assert failed_claims([section]) == ["EXP-X: stays flat"]

    def test_render_empty_section(self):
        section = ReportSection("EXP-Y", "empty")
        assert "(no table)" in section.to_text()


@pytest.mark.parametrize(
    "script,expected",
    [
        ("quickstart.py", "specification (CD1-CD7)"),
        ("conflicting_views.py", "all deciders converged on F3:   True"),
        ("overlay_repair.py", "ring restored=True"),
        ("asyncio_runtime.py", "both runtimes agreed on the same crashed region(s): True"),
        ("churn_recovery.py", "same decided views as the simulator: True"),
        ("declarative_spec.py", "all hold: True"),
        ("lossy_links.py", "acceptable (every failure excused): True"),
    ],
)
def test_example_scripts_run(script, expected):
    """Each example runs as a standalone script and prints its conclusion."""
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / script)],
        capture_output=True,
        text=True,
        timeout=300,
        env=_EXAMPLE_ENV,
    )
    assert result.returncode == 0, result.stderr
    assert expected in result.stdout


def test_locality_example_runs_quick():
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / "locality_scaling.py")],
        capture_output=True,
        text=True,
        timeout=600,
        env=_EXAMPLE_ENV,
    )
    assert result.returncode == 0, result.stderr
    assert "message cost flat across system sizes: True" in result.stdout
    assert "EXP-B1" in result.stdout
