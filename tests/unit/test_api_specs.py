"""Unit tests for the declarative spec layer (:mod:`repro.api.specs`)."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from repro.api import (
    ExperimentSpec,
    FailureSpec,
    MembershipSpec,
    RuntimeSpec,
    SpecError,
    SweepSpec,
    TopologySpec,
    load_spec,
    spec_digest,
)
from repro.api.specs import freeze, thaw


def grid_spec(side: int = 6, seed: int = 0) -> ExperimentSpec:
    return ExperimentSpec(
        name="unit-grid",
        topology=TopologySpec("grid", {"width": side, "height": side}),
        failure=FailureSpec(
            "region", {"members": [[2, 2], [2, 3], [3, 2], [3, 3]], "at": 1.0}
        ),
        seed=seed,
    )


class TestNormalisation:
    def test_freeze_is_idempotent(self):
        value = {"b": [1, [2, 3]], "a": {2, 1}}
        frozen = freeze(value)
        assert freeze(frozen) == frozen
        assert frozen["b"] == (1, (2, 3))

    def test_thaw_makes_json_serializable(self):
        value = {"x": ((1, 2), (3, 4)), "y": frozenset([5])}
        json.dumps(thaw(value))

    def test_lists_and_tuples_normalise_identically(self):
        via_lists = TopologySpec("grid", {"width": 6, "height": 6})
        spec_a = FailureSpec("region", {"members": [[1, 1], [1, 2]]})
        spec_b = FailureSpec("region", {"members": ((1, 1), (1, 2))})
        assert spec_a == spec_b
        assert spec_a.digest() == spec_b.digest()
        assert via_lists == TopologySpec("grid", {"height": 6, "width": 6})


class TestRoundTrip:
    def test_experiment_json_round_trip_equality(self):
        spec = grid_spec()
        restored = ExperimentSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.digest() == spec.digest()

    def test_experiment_json_round_trip_is_byte_identical(self):
        spec = grid_spec()
        once = spec.to_json()
        twice = ExperimentSpec.from_json(once).to_json()
        assert once == twice

    def test_sweep_round_trip(self):
        sweep = SweepSpec(
            experiment=grid_spec(),
            seeds=(0, 1, 2),
            grid={"topology.params.width": (6, 8)},
            workers=2,
        )
        restored = SweepSpec.from_json(sweep.to_json())
        assert restored == sweep
        assert restored.digest() == sweep.digest()

    def test_family_sweep_round_trip(self):
        sweep = SweepSpec(family="property", seeds=tuple(range(5)), workers=2)
        assert SweepSpec.from_json(sweep.to_json()) == sweep

    def test_load_spec_dispatches_on_tag(self):
        assert isinstance(load_spec(grid_spec().to_json()), ExperimentSpec)
        sweep = SweepSpec(family="property", seeds=(0,))
        assert isinstance(load_spec(sweep.to_json()), SweepSpec)

    def test_load_spec_rejects_untagged_documents(self):
        with pytest.raises(SpecError):
            load_spec(json.dumps({"hello": "world"}))
        with pytest.raises(SpecError):
            load_spec("not json at all")

    def test_membership_and_runtime_round_trip(self):
        spec = ExperimentSpec(
            topology=TopologySpec("torus", {"width": 6, "height": 6}),
            failure=FailureSpec("region", {"members": [[1, 1], [1, 2]], "at": 1.0}),
            membership=MembershipSpec("flash_crowd", {"count": 3, "at": 2.0}),
            runtime=RuntimeSpec(
                engine="sim",
                batched=False,
                latency={"kind": "constant", "delay": 2.0},
                failure_detector={"kind": "jittered", "low": 0.3, "high": 1.5},
            ),
            seed=7,
        )
        assert ExperimentSpec.from_json(spec.to_json()) == spec


class TestValidation:
    def test_unknown_failure_kind_rejected(self):
        with pytest.raises(SpecError):
            FailureSpec("meteor-strike")

    def test_unknown_membership_kind_rejected(self):
        with pytest.raises(SpecError):
            MembershipSpec("teleport")

    def test_unknown_engine_rejected(self):
        with pytest.raises(SpecError):
            RuntimeSpec(engine="quantum")

    def test_unknown_topology_kind_fails_at_build(self):
        with pytest.raises(SpecError):
            TopologySpec("klein-bottle").build_uncached()

    def test_bad_topology_params_fail_at_build(self):
        with pytest.raises(SpecError):
            TopologySpec("grid", {"sides": 6}).build_uncached()

    def test_sweep_needs_exactly_one_mode(self):
        with pytest.raises(SpecError):
            SweepSpec()
        with pytest.raises(SpecError):
            SweepSpec(experiment=grid_spec(), family="property")

    def test_family_sweep_rejects_grid(self):
        with pytest.raises(SpecError):
            SweepSpec(family="property", seeds=(0,), grid={"seed": (1, 2)})

    def test_version_mismatch_rejected(self):
        data = grid_spec().to_dict()
        data["version"] = 99
        with pytest.raises(SpecError):
            ExperimentSpec.from_dict(data)

    def test_runtime_spec_rejects_unknown_keys(self):
        with pytest.raises(SpecError, match="max_event"):
            RuntimeSpec.from_dict({"max_event": 1000})

    def test_topology_kinds_match_the_builder_table(self):
        from repro.api import TOPOLOGY_KINDS
        from repro.api import specs

        assert TOPOLOGY_KINDS == tuple(sorted(specs._TOPOLOGY_BUILDERS))
        # ... and so do the other three tables: the kinds a class or an
        # error message lists are the table's keys, in table order.
        assert FailureSpec.KINDS == tuple(specs._FAILURE_KINDS)
        assert MembershipSpec.KINDS == tuple(specs._MEMBERSHIP_KINDS)
        # A kind in both tables is coupled, except the two that each half
        # writes down on its own: no events, and an explicit script.
        assert set(specs.COUPLED_KINDS) == set(FailureSpec.KINDS) & set(MembershipSpec.KINDS) - {
            "none",
            "explicit",
        }
        for field, table in (
            ("latency", specs._LATENCY_KINDS),
            ("failure_detector", specs._DETECTOR_KINDS),
        ):
            with pytest.raises(SpecError, match=f"known: {', '.join(table)}$"):
                RuntimeSpec(**{field: {"kind": "nope"}})
            for kind in table:
                RuntimeSpec(**{field: {"kind": kind}})


class TestFaultsValidation:
    """The ``RuntimeSpec.faults`` block fails at construction, not at run."""

    @pytest.mark.parametrize(
        "faults,match",
        [
            ({"loss": -0.1}, "bad faults spec"),
            ({"loss": 1.0}, "bad faults spec"),  # drop-everything channel
            ({"duplication": 2.0}, "bad faults spec"),
            ({"duplication": 0.5, "copies": 1}, "bad faults spec"),
            ({"reorder": 0.0}, "bad faults spec"),
            ({"reorder": -2.0}, "bad faults spec"),
            ({"reorder": 1.0, "reorder_rate": 1.5}, "bad faults spec"),
            ({"loss": 0.1, "seed": "x"}, "seed"),
            ({"loss": 0.1, "seed": True}, "seed"),
            ({"copies": 3}, "base knob"),
            ({"reorder_rate": 0.5}, "base knob"),
            ({"copies": 3, "reorder_rate": 0.5}, "base knob"),
            ({"seed": 1}, "enables no fault"),
            ({}, "enables no fault"),
            ({"lss": 0.1}, "unknown"),
            ("loss=0.1", "mapping"),
        ],
    )
    def test_bad_blocks_rejected_at_construction(self, faults, match):
        with pytest.raises(SpecError, match=match):
            RuntimeSpec(faults=faults)

    def test_valid_block_resolves_to_composition(self):
        from repro.sim.faults import ComposedFaults, LossyLinks

        spec = RuntimeSpec(
            faults={"loss": 0.1, "duplication": 0.2, "reorder": 1.5, "seed": 7}
        )
        model = spec.resolve_faults()
        assert isinstance(model, ComposedFaults)
        assert [type(stage).__name__ for stage in model.stages] == [
            "LossyLinks",
            "DuplicatingLinks",
            "ReorderingLinks",
        ]
        assert all(stage.seed == 7 for stage in model.stages)
        single = RuntimeSpec(faults={"loss": 0.1}).resolve_faults()
        assert isinstance(single, LossyLinks)
        assert RuntimeSpec().resolve_faults() is None

    def test_faults_serialized_only_when_set(self):
        assert "faults" not in RuntimeSpec().to_dict()
        data = RuntimeSpec(faults={"loss": 0.1}).to_dict()
        assert data["faults"] == {"loss": 0.1}
        assert RuntimeSpec.from_dict(data).faults == {"loss": 0.1}

    def test_fault_free_digest_unchanged_by_field_existence(self):
        """The ``faults`` field must not leak into fault-free documents:
        their bytes (hence digests) predate the fault layer."""
        spec = grid_spec()
        assert "faults" not in spec.to_dict()["runtime"]
        faulted = spec.with_faults({"loss": 0.1})
        assert faulted.digest() != spec.digest()
        assert faulted.with_faults(None).digest() == spec.digest()

    def test_with_faults_round_trip(self):
        spec = grid_spec().with_faults({"duplication": 0.2, "copies": 3})
        restored = ExperimentSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.runtime.faults == {"duplication": 0.2, "copies": 3}


class TestLatencyValidation:
    """Latency blocks are validated eagerly too (same rationale)."""

    @pytest.mark.parametrize(
        "latency,match",
        [
            ({"kind": "warp"}, "unknown latency kind"),
            ({"kind": "constant", "delay": -1.0}, "bad latency spec"),
            ({"kind": "constant", "dealy": 1.0}, "bad latency spec"),
            ({"kind": "uniform", "low": 2.0, "high": 1.0}, "bad latency spec"),
            ({"kind": "exponential", "mean": 0.0}, "bad latency spec"),
            (3.5, "mapping"),
        ],
    )
    def test_bad_blocks_rejected_at_construction(self, latency, match):
        with pytest.raises(SpecError, match=match):
            RuntimeSpec(latency=latency)

    def test_valid_latency_still_resolves(self):
        from repro.sim import UniformLatency

        spec = RuntimeSpec(latency={"kind": "uniform", "low": 0.5, "high": 1.5})
        model = spec.resolve_latency()
        assert isinstance(model, UniformLatency)
        assert (model.low, model.high) == (0.5, 1.5)


class TestFailureDetectorValidation:
    """Detector blocks are validated eagerly too: they used to construct,
    load and queue, and die in the worker with a raw ``TypeError``."""

    @pytest.mark.parametrize(
        "detector,match",
        [
            ({"kind": "jittered", "lo": 1}, "bad failure-detector spec for kind 'jittered'"),
            ({"kind": "jittered", "low": 3.0, "high": 1.0}, "bad failure-detector spec"),
            ({"kind": "perfect", "detection_delay": -1.0}, "bad failure-detector spec"),
            ({"kind": "scripted", "delays": [[1, 2]]}, "bad failure-detector spec for kind 'scripted'"),
            ({"kind": "nope"}, "unknown failure-detector kind"),
            ("jittered", "mapping"),
        ],
    )
    def test_bad_blocks_rejected_at_construction(self, detector, match):
        with pytest.raises(SpecError, match=match):
            RuntimeSpec(failure_detector=detector)
        document = dict(grid_spec().to_dict(), runtime={"failure_detector": detector})
        with pytest.raises(SpecError, match=match):
            load_spec(json.dumps(document))

    def test_valid_detectors_still_resolve(self):
        from repro.sim import JitteredFailureDetector, ScriptedFailureDetector

        jittered = RuntimeSpec(
            failure_detector={"kind": "jittered", "low": 0.5, "high": 2.0}
        ).resolve_failure_detector()
        assert isinstance(jittered, JitteredFailureDetector)
        # JSON hands node ids over as lists; the frozen block keys by tuple.
        scripted = RuntimeSpec.from_dict(
            {
                "failure_detector": {
                    "kind": "scripted",
                    "default_delay": 1.0,
                    "delays": [[[2, 1], [2, 2], 8.0]],
                }
            }
        ).resolve_failure_detector()
        assert isinstance(scripted, ScriptedFailureDetector)
        assert scripted.delays == {((2, 1), (2, 2)): 8.0}


class TestDigest:
    def test_digest_is_stable_across_param_order(self):
        a = spec_digest({"x": 1, "y": (2, 3)})
        b = spec_digest({"y": [2, 3], "x": 1})
        assert a == b

    def test_digest_differs_on_content(self):
        assert grid_spec(seed=0).digest() != grid_spec(seed=1).digest()

    def test_digest_is_hash_seed_independent(self):
        """The digest must not depend on PYTHONHASHSEED — it keys the
        topology cache shared across independently started workers."""
        code = (
            "from repro.api import ExperimentSpec, TopologySpec, FailureSpec\n"
            "spec = ExperimentSpec(\n"
            "    name='unit-grid',\n"
            "    topology=TopologySpec('grid', {'width': 6, 'height': 6}),\n"
            "    failure=FailureSpec('region',"
            " {'members': [[2, 2], [2, 3], [3, 2], [3, 3]], 'at': 1.0}),\n"
            ")\n"
            "print(spec.digest())\n"
        )
        from pathlib import Path

        src = str(Path(__file__).resolve().parents[2] / "src")
        digests = set()
        for hash_seed in ("1", "12345"):
            completed = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                env={
                    "PYTHONHASHSEED": hash_seed,
                    "PYTHONPATH": src,
                    "PATH": "/usr/bin:/bin",
                },
                check=True,
            )
            digests.add(completed.stdout.strip())
        assert len(digests) == 1
        assert digests == {grid_spec().digest()}


class TestGridExpansion:
    def test_expand_crosses_grid_and_seeds(self):
        sweep = SweepSpec(
            experiment=grid_spec(),
            seeds=(0, 1),
            grid={"topology.params.width": (6, 8)},
        )
        points = sweep.expand()
        assert len(points) == len(sweep) == 4
        widths = [point.topology.params["width"] for point in points]
        seeds = [point.seed for point in points]
        assert widths == [6, 6, 8, 8]
        assert seeds == [0, 1, 0, 1]

    def test_expand_without_seeds_uses_template_seed(self):
        sweep = SweepSpec(experiment=grid_spec(seed=9))
        points = sweep.expand()
        assert [point.seed for point in points] == [9]

    def test_grid_axes_expand_in_sorted_path_order(self):
        sweep = SweepSpec(
            experiment=grid_spec(),
            grid={
                "topology.params.width": (6, 8),
                "check": (True, False),
            },
        )
        points = sweep.expand()
        assert len(points) == 4
        # "check" sorts before "topology.params.width": it is outermost.
        assert [point.check for point in points] == [True, True, False, False]

    def test_seed_grid_axis_is_honoured(self):
        sweep = SweepSpec(experiment=grid_spec(seed=7), grid={"seed": (1, 2, 3)})
        points = sweep.expand()
        assert [point.seed for point in points] == [1, 2, 3]

    def test_seed_grid_axis_conflicts_with_seeds_list(self):
        with pytest.raises(SpecError, match="ambiguous"):
            SweepSpec(experiment=grid_spec(), seeds=(0,), grid={"seed": (1, 2)})

    def test_grid_axes_must_be_value_lists(self):
        with pytest.raises(SpecError, match="non-empty list"):
            SweepSpec(experiment=grid_spec(), grid={"topology.params.width": 8})
        with pytest.raises(SpecError, match="non-empty list"):
            SweepSpec(experiment=grid_spec(), grid={"topology.kind": "torus"})
        with pytest.raises(SpecError, match="non-empty list"):
            SweepSpec(experiment=grid_spec(), grid={"seed": ()})

    def test_unknown_top_level_keys_rejected(self):
        data = grid_spec().to_dict()
        data["aribtration"] = False
        with pytest.raises(SpecError, match="aribtration"):
            ExperimentSpec.from_dict(data)
        with pytest.raises(SpecError, match="member"):
            FailureSpec.from_dict({"kind": "region", "member": []})
        sweep_data = SweepSpec(family="property", seeds=(0,)).to_dict()
        sweep_data["worker"] = 4
        with pytest.raises(SpecError, match="worker"):
            SweepSpec.from_dict(sweep_data)

    def test_family_mode_does_not_expand(self):
        sweep = SweepSpec(family="property", seeds=(0, 1))
        with pytest.raises(SpecError):
            sweep.expand()

    def test_specs_are_hashable(self):
        sweep = SweepSpec(
            experiment=grid_spec(),
            seeds=(0, 1),
            grid={"topology.params.width": (6, 8)},
        )
        points = sweep.expand()
        assert len(set(points)) == len(points)
        assert hash(grid_spec()) == hash(grid_spec())
        assert {sweep: "ok"}[SweepSpec.from_json(sweep.to_json())] == "ok"

    def test_tasks_are_picklable_by_spec(self):
        import pickle

        sweep = SweepSpec(experiment=grid_spec(), seeds=(0, 1))
        tasks = sweep.tasks()
        assert all(task.family == "spec" for task in tasks)
        assert all(task.seed is not None for task in tasks)
        restored = pickle.loads(pickle.dumps(tasks))
        assert [t.params for t in restored] == [t.params for t in tasks]


class TestFamilyGridExpansion:
    def family_sweep(self, **overrides):
        params = dict(
            family="churn-scenario",
            family_params={"scenario": "steady"},
            seeds=(0, 1),
            grid={"nodes": (16, 36)},
        )
        params.update(overrides)
        return SweepSpec(**params)

    def test_grid_crosses_family_params_and_seeds(self):
        sweep = self.family_sweep()
        tasks = sweep.tasks()
        assert len(tasks) == len(sweep) == 4
        assert [task.params["nodes"] for task in tasks] == [16, 16, 36, 36]
        assert [task.seed for task in tasks] == [0, 1, 0, 1]
        assert all(task.params["scenario"] == "steady" for task in tasks)

    def test_labels_carry_the_grid_point(self):
        labels = [task.display_label() for task in self.family_sweep().tasks()]
        assert labels == [
            "churn-scenario[nodes=16]",
            "churn-scenario[nodes=16]",
            "churn-scenario[nodes=36]",
            "churn-scenario[nodes=36]",
        ]

    def test_no_grid_keeps_bare_family_label(self):
        tasks = self.family_sweep(grid={}).tasks()
        assert [task.display_label() for task in tasks] == ["churn-scenario"] * 2

    def test_dotted_paths_reach_nested_params(self):
        sweep = self.family_sweep(
            family_params={"scenario": "steady", "tuning": {"rate": 0.1}},
            grid={"tuning.rate": (0.1, 0.2)},
            seeds=(5,),
        )
        points = sweep.expand_family_params()
        assert [params["tuning"]["rate"] for params, _ in points] == [0.1, 0.2]
        assert [label for _, label in points] == ["rate=0.1", "rate=0.2"]

    def test_coupled_axes_move_in_lockstep(self):
        sweep = self.family_sweep(
            family_params={},
            grid={"width|height": (4, 6)},
            seeds=(0,),
        )
        points = [params for params, _ in sweep.expand_family_params()]
        assert points == [
            {"width": 4, "height": 4},
            {"width": 6, "height": 6},
        ]

    def test_seed_axis_rejected_in_family_mode(self):
        with pytest.raises(SpecError, match="seeds"):
            self.family_sweep(grid={"seed": (1, 2)}, seeds=())

    def test_round_trips_through_json(self):
        sweep = self.family_sweep()
        restored = SweepSpec.from_json(sweep.to_json())
        assert restored == sweep
        assert restored.digest() == sweep.digest()
        assert [t.params for t in restored.tasks()] == [
            t.params for t in sweep.tasks()
        ]

    def test_experiment_mode_rejects_family_expansion(self):
        sweep = SweepSpec(experiment=grid_spec(), seeds=(0,))
        with pytest.raises(SpecError, match="experiment-mode"):
            sweep.expand_family_params()
