"""Integration tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


class _Capture:
    def __init__(self):
        self.lines: list[str] = []

    def __call__(self, text: str) -> None:
        self.lines.append(str(text))

    @property
    def text(self) -> str:
        return "\n".join(self.lines)


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_seed_is_global(self):
        args = build_parser().parse_args(["--seed", "7", "quickstart"])
        assert args.seed == 7


class TestCommands:
    def test_quickstart(self):
        out = _Capture()
        code = main(["quickstart", "--side", "6", "--block", "2"], write=out)
        assert code == 0
        assert "decided by" in out.text
        assert "[OK ] CD1 Integrity" in out.text

    def test_figure_1a(self):
        out = _Capture()
        assert main(["figure", "1a"], write=out) == 0
        assert "decided by" in out.text

    def test_figure_1b(self):
        out = _Capture()
        assert main(["figure", "1b"], write=out) == 0
        assert "converged on F3: True" in out.text

    def test_figure_2(self):
        out = _Capture()
        assert main(["figure", "2"], write=out) == 0
        assert "cluster has a decision (CD7): True" in out.text

    def test_figure_3(self):
        out = _Capture()
        assert main(["figure", "3"], write=out) == 0
        assert "no conflicting decision (CD6): True" in out.text

    def test_repair(self):
        out = _Capture()
        assert main(["repair", "--ring-size", "16", "--arc-length", "2"], write=out) == 0
        assert "ring restored=True" in out.text

    def test_sweep(self):
        out = _Capture()
        assert main(["sweep", "--cases", "3"], write=out) == 0
        assert "all hold: True" in out.text

    def test_locality_quick(self):
        out = _Capture()
        assert main(["locality"], write=out) == 0
        assert "flat across system sizes: True" in out.text
        assert "EXP-L2" in out.text

    def test_locality_exp_runs_only_that_document(self):
        for exp, shown, hidden in (("l1", "EXP-L1", "EXP-L2"), ("l2", "EXP-L2", "EXP-L1")):
            out = _Capture()
            assert main(["locality", "--exp", exp], write=out) == 0
            assert shown in out.text and hidden not in out.text
            assert ("flat across system sizes" in out.text) == (exp == "l1")


class TestSpecLayerCommands:
    """The declarative front door: run, --emit-spec, --json."""

    def test_quickstart_emit_spec_round_trips_through_run(self, tmp_path):
        emitted = _Capture()
        assert main(["quickstart", "--emit-spec"], write=emitted) == 0
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(emitted.text)
        ran = _Capture()
        assert main(["run", str(spec_file)], write=ran) == 0
        assert "decided by" in ran.text
        assert "[OK ] CD1 Integrity" in ran.text

    def test_emitted_spec_reproduces_the_quickstart_run(self, tmp_path):
        from repro.api import ExperimentSession, load_spec

        emitted = _Capture()
        main(["quickstart", "--emit-spec"], write=emitted)
        spec = load_spec(emitted.text)
        direct = _Capture()
        main(["quickstart", "--json"], write=direct)
        assert ExperimentSession().run(spec).digest() == json.loads(direct.text)["digest"]

    def test_quickstart_json(self):
        out = _Capture()
        assert main(["quickstart", "--json"], write=out) == 0
        payload = json.loads(out.text)
        assert payload["type"] == "run"
        assert payload["specification"]["holds"] is True
        assert payload["decisions"]

    def test_sweep_json(self):
        out = _Capture()
        assert main(["sweep", "--cases", "2", "--json"], write=out) == 0
        payload = json.loads(out.text)
        assert payload["type"] == "sweep"
        assert payload["summary"]["all_hold"] is True
        assert len(payload["runs"]) == 2

    def test_sweep_emit_spec_and_spec_file(self, tmp_path):
        emitted = _Capture()
        assert main(["sweep", "--cases", "2", "--emit-spec"], write=emitted) == 0
        spec_file = tmp_path / "sweep.json"
        spec_file.write_text(emitted.text)
        ran = _Capture()
        assert main(["sweep", "--spec", str(spec_file)], write=ran) == 0
        assert "all hold: True" in ran.text

    def test_churn_json(self):
        out = _Capture()
        assert main(["churn", "--scenario", "flash", "--nodes", "16", "--json"], write=out) == 0
        payload = json.loads(out.text)
        assert payload["scenario"] == "churn-flash-crowd"
        assert payload["ok"] is True
        assert payload["runs"][0]["type"] == "churn-run"

    def test_churn_emit_spec_round_trips_through_run(self, tmp_path):
        emitted = _Capture()
        assert main(
            ["churn", "--scenario", "race", "--nodes", "16", "--emit-spec"],
            write=emitted,
        ) == 0
        spec_file = tmp_path / "churn.json"
        spec_file.write_text(emitted.text)
        ran = _Capture()
        assert main(["run", str(spec_file)], write=ran) == 0
        assert "epoch-quotiented specification CD1-CD7: holds" in ran.text

    def test_figure_emit_spec_round_trips_through_run(self, tmp_path):
        emitted = _Capture()
        assert main(["figure", "1b", "--emit-spec"], write=emitted) == 0
        spec_file = tmp_path / "figure.json"
        spec_file.write_text(emitted.text)
        ran = _Capture()
        assert main(["run", str(spec_file), "--json"], write=ran) == 0
        payload = json.loads(ran.text)
        assert payload["specification"]["holds"] is True

    def test_run_executes_sweep_documents(self, tmp_path):
        from pathlib import Path

        golden = Path(__file__).resolve().parents[1] / "data" / "golden_spec.json"
        out = _Capture()
        assert main(["run", str(golden)], write=out) == 0
        assert "all hold: True" in out.text

    def test_churn_both_runtimes_refuses_emit_spec(self):
        out = _Capture()
        code = main(
            ["churn", "--scenario", "race", "--runtime", "both", "--emit-spec"],
            write=out,
        )
        assert code == 2
        assert "single engine" in out.text

    @pytest.mark.parametrize("scenario", ["race", "flash"])
    @pytest.mark.parametrize("flag", [["--churn-rate", "0.9"], ["--duration", "5"]])
    def test_churn_rejects_steady_flags_on_other_scenarios(self, scenario, flag):
        # They used to be dropped silently: the emitted document was
        # byte-for-byte the one without them.
        out = _Capture()
        code = main(["churn", "--scenario", scenario, *flag, "--emit-spec"], write=out)
        assert code == 2
        assert "steady scenario only" in out.text and len(out.lines) == 1

    def test_churn_steady_flags_still_shape_the_steady_scenario(self):
        out = _Capture()
        argv = ["churn", "--nodes", "16", "--churn-rate", "0.1", "--duration", "20"]
        assert main([*argv, "--emit-spec"], write=out) == 0
        params = json.loads(out.text)["failure"]["params"]
        assert (params["churn_rate"], params["duration"]) == (0.1, 20.0)
        default = _Capture()
        assert main(["churn", "--emit-spec"], write=default) == 0
        params = json.loads(default.text)["failure"]["params"]
        assert (params["churn_rate"], params["duration"]) == (0.05, 100.0)

    def test_locality_emit_spec_reads_the_preset_sides(self):
        from repro.api.presets import LOCALITY_SIDES, LOCALITY_SIDES_FULL

        for flags, sides in (([], LOCALITY_SIDES), (["--full"], LOCALITY_SIDES_FULL)):
            out = _Capture()
            assert main(["locality", *flags, "--emit-spec"], write=out) == 0
            (axis,) = json.loads(out.text)["grid"].values()
            assert tuple(axis) == sides

    def test_sweep_spec_conflicting_flags_rejected(self, tmp_path):
        emitted = _Capture()
        main(["sweep", "--cases", "2", "--emit-spec"], write=emitted)
        spec_file = tmp_path / "sweep.json"
        spec_file.write_text(emitted.text)
        out = _Capture()
        assert main(["sweep", "--spec", str(spec_file), "--cases", "5"], write=out) == 2
        assert "conflict" in out.text

    def test_sweep_spec_workers_flag_overrides_document(self, tmp_path):
        emitted = _Capture()
        main(["sweep", "--cases", "2", "--emit-spec"], write=emitted)
        spec_file = tmp_path / "sweep.json"
        spec_file.write_text(emitted.text)
        out = _Capture()
        assert main(
            ["sweep", "--spec", str(spec_file), "--workers", "2", "--json"], write=out
        ) == 0
        assert json.loads(out.text)["workers"] == 2

    def test_sweep_spec_explicit_default_worker_count_overrides(self, tmp_path):
        # An explicitly passed --workers 1 must beat a workers=2 document.
        emitted = _Capture()
        main(["sweep", "--cases", "2", "--workers", "2", "--emit-spec"], write=emitted)
        spec_file = tmp_path / "sweep.json"
        spec_file.write_text(emitted.text)
        out = _Capture()
        assert main(
            ["sweep", "--spec", str(spec_file), "--workers", "1", "--json"], write=out
        ) == 0
        assert json.loads(out.text)["workers"] == 1

    def test_sweep_spec_with_emit_spec_prints_instead_of_running(self, tmp_path):
        emitted = _Capture()
        main(["sweep", "--cases", "2", "--emit-spec"], write=emitted)
        spec_file = tmp_path / "sweep.json"
        spec_file.write_text(emitted.text)
        out = _Capture()
        assert main(
            ["sweep", "--spec", str(spec_file), "--workers", "4", "--emit-spec"],
            write=out,
        ) == 0
        assert json.loads(out.text)["workers"] == 4  # normalized doc, not a run

    def test_sweep_emit_spec_keeps_requested_worker_count(self):
        out = _Capture()
        assert main(["sweep", "--cases", "2", "--workers", "0", "--emit-spec"], write=out) == 0
        assert json.loads(out.text)["workers"] == 0

    def test_run_rejects_malformed_documents(self, tmp_path):
        from repro.api import SpecError

        bad = tmp_path / "bad.json"
        bad.write_text("{\"spec\": \"nonsense\"}")
        with pytest.raises(SpecError):
            main(["run", str(bad)], write=_Capture())

    def test_run_rejects_a_malformed_failure_detector_at_load(self, tmp_path):
        from repro.api import SpecError

        emitted = _Capture()
        main(["quickstart", "--emit-spec"], write=emitted)
        document = json.loads(emitted.text)
        document["runtime"]["failure_detector"] = {"kind": "jittered", "lo": 1}
        bad = tmp_path / "bad-detector.json"
        bad.write_text(json.dumps(document))
        # A SpecError naming the block before anything runs, not a TypeError
        # out of JitteredFailureDetector.__init__ from inside the run.
        with pytest.raises(SpecError, match="bad failure-detector spec for kind 'jittered'"):
            main(["run", str(bad)], write=_Capture())

    @pytest.mark.parametrize(
        "block, edit, message",
        [
            ("failure", {"params": {}}, "missing a required argument: 'members'"),
            (
                "failure",
                {"params": {"members": [[1, 1]], "spred": 4}},
                "bad failure spec for kind 'region': got an unexpected keyword argument 'spred'",
            ),
            ("runtime", {"max_events": "abc"}, "RuntimeSpec.max_events must be int, got 'abc'"),
        ],
        ids=["missing-param", "unknown-param", "scalar-type"],
    )
    def test_run_refuses_what_the_schema_does_not_know(
        self, tmp_path, monkeypatch, block, edit, message
    ):
        from repro.api import ExperimentSession, SpecError

        emitted = _Capture()
        main(["quickstart", "--emit-spec"], write=emitted)
        document = json.loads(emitted.text)
        document[block].update(edit)
        bad = tmp_path / "bad-block.json"
        bad.write_text(json.dumps(document))
        # Refused at parse: nothing runs (it used to run the default
        # scenario, or die inside the run with a KeyError).
        monkeypatch.setattr(ExperimentSession, "run", lambda self, spec: pytest.fail("ran"))
        with pytest.raises(SpecError, match=message):
            main(["run", str(bad)], write=_Capture())

    def test_run_missing_file_is_a_spec_error(self, tmp_path):
        from repro.api import SpecError

        with pytest.raises(SpecError, match="cannot read spec file"):
            main(["run", str(tmp_path / "nope.json")], write=_Capture())

    def test_sweep_spec_rejects_experiment_documents(self, tmp_path):
        emitted = _Capture()
        main(["quickstart", "--emit-spec"], write=emitted)
        spec_file = tmp_path / "exp.json"
        spec_file.write_text(emitted.text)
        out = _Capture()
        assert main(["sweep", "--spec", str(spec_file)], write=out) == 2
        assert "expected a sweep spec" in out.text


class TestPartitionsFlag:
    def test_run_partitions_matches_sequential_digest(self, tmp_path):
        emitted = _Capture()
        main(["quickstart", "--emit-spec"], write=emitted)
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(emitted.text)
        sequential = _Capture()
        assert main(["run", str(spec_file), "--json"], write=sequential) == 0
        partitioned = _Capture()
        assert (
            main(["run", str(spec_file), "--partitions", "3", "--json"], write=partitioned)
            == 0
        )
        sequential_payload = json.loads(sequential.text)
        partitioned_payload = json.loads(partitioned.text)
        assert partitioned_payload["digest"] == sequential_payload["digest"]
        assert partitioned_payload["partitions"] == 3

    def test_run_partitions_rejected_for_sweep_documents(self, tmp_path):
        emitted = _Capture()
        main(["sweep", "--cases", "2", "--emit-spec"], write=emitted)
        spec_file = tmp_path / "sweep.json"
        spec_file.write_text(emitted.text)
        out = _Capture()
        assert main(["run", str(spec_file), "--partitions", "2"], write=out) == 2
        assert "single experiments" in out.text

    def test_run_partitions_must_be_positive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "spec.json", "--partitions", "0"])


class TestVersion:
    def test_version_flag_prints_pyproject_version(self, capsys):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"], write=_Capture())
        assert excinfo.value.code == 0
        assert repro.__version__ in capsys.readouterr().out

    def test_dunder_version_matches_pyproject(self):
        # tomllib is 3.11+; on 3.10 the package falls back to installed
        # metadata, which this assertion cannot pin from the source tree.
        tomllib = pytest.importorskip("tomllib")
        from pathlib import Path

        import repro

        pyproject = Path(__file__).resolve().parents[2] / "pyproject.toml"
        with pyproject.open("rb") as handle:
            expected = tomllib.load(handle)["project"]["version"]
        assert repro.__version__ == expected
