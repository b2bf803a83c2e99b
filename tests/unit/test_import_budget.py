"""What a run loads, counted — not timed.

The package ``__init__``s are lazy facades (:mod:`repro._lazy`): importing a
package loads nothing below it and the first read of a name imports the one
submodule that defines it.  So the cold path ``spec document → digest``
pays for the engine it runs and nothing else, and a process about to fork
workers loads their run path first.  Each case here starts a fresh
interpreter — suite order must not be able to help — and counts
``sys.modules``; a stopwatch would not survive this host's drift.

The ``import repro`` case counts only the modules the child gained after its
own startup: a site ``.pth`` hook may preload standard-library modules
(``pathlib`` among them) before any user code runs.  So that case also
watches file opens directly, with an audit hook (``sys.addaudithook``).
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path
from typing import Any

import pytest

ROOT = Path(__file__).resolve().parents[2]
_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])),
}

#: Standard-library subsystems the simulator path has no use for.
HEAVY = (
    "asyncio", "ssl", "socket", "subprocess", "concurrent.futures", "logging",
    "multiprocessing", "tomllib",
)  # fmt: skip

#: Every child script starts with these.
PRELUDE = f"""
import json, sys
HEAVY = {HEAVY!r}

def loaded(prefix="repro"):
    return sorted(name for name in sys.modules if name == prefix or name.startswith(prefix + "."))

def heavy():
    return [name for name in HEAVY if name in sys.modules]
"""


def fresh(code: str) -> Any:
    """Run ``code`` in a new interpreter; its last line of output is JSON."""
    completed = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(PRELUDE) + textwrap.dedent(code)],
        capture_output=True,
        text=True,
        env=_ENV,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.splitlines()[-1])


def test_the_front_door_loads_the_spec_layer_and_nothing_else():
    # Exactly what benchmarks/ledger/child.py imports (65 modules before the facades).
    seen = fresh(
        """
        from repro.api import ExperimentSession, load_spec, run_spec_json
        print(json.dumps({"repro": loaded(), "heavy": heavy()}))
        """
    )
    assert len(seen["repro"]) <= 10, seen["repro"]
    assert seen["heavy"] == []


@pytest.mark.parametrize("argv", [["--version"], ["run", "--help"]])
def test_the_cli_parser_loads_nothing_that_runs(argv):
    # The parser needs the spec layer for its choices and help text; each
    # command imports what it runs (66 modules, asyncio included, before).
    seen = fresh(
        f"""
        import contextlib, io
        from repro.cli import main
        with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):
            main({argv!r})
        print(json.dumps({{"repro": loaded(), "asyncio": "asyncio" in sys.modules}}))
        """
    )
    assert not seen["asyncio"]
    assert not {"repro.sim.network", "repro.core.protocol"} & set(seen["repro"])
    assert not [name for name in seen["repro"] if name.startswith("repro.experiments.")]


def test_a_simulator_run_loads_no_other_engine():
    seen = fresh(
        """
        from repro.api import quickstart_spec, run_spec_json
        assert run_spec_json(quickstart_spec().to_json()).specification.holds
        print(json.dumps({"repro": loaded(), "heavy": heavy()}))
        """
    )
    assert seen["heavy"] == []
    strangers = [
        name
        for name in seen["repro"]
        if re.match(r"repro\.(service|runtime|vtime|baselines|repair)\b", name)
        or name in ("repro.scale.sweep", "repro.sim.partition")
        or (
            name.startswith("repro.experiments.")
            and name not in ("repro.experiments.runner", "repro.experiments.topologies")
        )
    ]
    assert strangers == []


@pytest.mark.parametrize(
    "document, module",
    [
        ("quickstart_spec().with_engine('asyncio-virtual')", "repro.vtime.loop"),
        ("quickstart_spec().with_partitions(2)", "repro.sim.partition"),
        ("torus_sweep_spec(side=8, scenarios=2, workers=1)", "repro.scale.sweep"),
    ],
)
def test_each_engine_loads_its_own_when_a_document_asks_for_it(document, module):
    before, after = fresh(
        f"""
        from repro.api import quickstart_spec, run_spec_json, torus_sweep_spec
        document = {document}.to_json()
        before = {module!r} in sys.modules
        run_spec_json(document).digest()
        print(json.dumps([before, {module!r} in sys.modules]))
        """
    )
    assert (before, after) == (False, True)


def test_every_export_of_every_package_resolves_to_what_its_submodule_defines():
    packages = sorted(
        ".".join(init.parent.relative_to(ROOT / "src").parts)
        for init in (ROOT / "src" / "repro").rglob("__init__.py")
    )
    assert len(packages) == 15
    problems = fresh(
        f"""
        from importlib import import_module

        problems = []
        for package_name in {packages!r}:
            package = import_module(package_name)
            listed = dir(package)  # before anything is resolved
            star = {{}}
            exec(f"from {{package_name}} import *", star)
            for name in package.__all__:
                if name not in listed:
                    problems.append(f"{{package_name}}.{{name}} is not in dir()")
                if name not in star:
                    problems.append(f"{{package_name}}.{{name}} is not star-imported")
                try:
                    value = getattr(package, name)
                except AttributeError as error:
                    problems.append(f"{{package_name}}.{{name}}: {{error}}")
                    continue
                if vars(package).get(name) is not value:
                    # Trap (a): the perf ledger wraps vars(package)[name].
                    problems.append(f"{{package_name}}.{{name}} is not cached in the package's globals")
                if name == "__version__":
                    continue
                if value is sys.modules.get(f"{{package_name}}.{{name}}"):
                    # The module is the export (repro.graph.generators).
                    defined = not hasattr(value, name)
                else:
                    defined = any(
                        vars(module).get(name) is value
                        for module_name, module in list(sys.modules.items())
                        if module_name.startswith(package_name + ".")
                    )
                if not defined:
                    problems.append(f"{{package_name}}.{{name}} is {{value!r}}, which no submodule defines")
        print(json.dumps(problems))
        """
    )
    assert problems == []


def test_a_forked_sweep_worker_imports_nothing_while_it_runs_a_task():
    gained = fresh(
        """
        import dataclasses
        import repro.scale.sweep as sweep
        from repro.api import quickstart_spec
        from repro.scale import ShardedSweepRunner, SweepTask

        real_execute = sweep._execute_indexed

        def probed_execute(task, index, seed):
            before = set(loaded())
            outcome = real_execute(task, index, seed)
            return dataclasses.replace(outcome, labels={"gained": sorted(set(loaded()) - before)})

        sweep._execute_indexed = probed_execute  # the fork inherits it
        # The parent has parsed a spec and built task records: no run path yet.
        assert "repro.sim.network" not in sys.modules and "repro.core.protocol" not in sys.modules
        tasks = [SweepTask("spec", params={"spec": quickstart_spec().to_dict()}) for _ in range(2)]
        tasks += [SweepTask("torus-block", params={"side": 8, "origin": [2, 2]}) for _ in range(2)]
        report = ShardedSweepRunner(workers=2).run(tasks)
        assert report.all_hold and len(report) == 4
        print(json.dumps([outcome.labels["gained"] for outcome in report.outcomes]))
        """
    )
    assert gained == [[], [], [], []]


def test_a_forked_partition_worker_imports_nothing_while_it_runs_its_shard(tmp_path):
    gained = fresh(
        f"""
        import multiprocessing, pathlib
        from repro.api import ExperimentSession, quickstart_spec
        import repro.sim.partition as partition

        spec = quickstart_spec(side=8).with_partitions(2)
        graph, schedule, _membership = ExperimentSession().resolve(spec)
        real_main = partition._process_worker_main

        def probed_main(connection, config):
            before = set(loaded())
            try:
                real_main(connection, config)
            finally:
                path = pathlib.Path({str(tmp_path)!r}) / f"{{config.pid}}.json"
                path.write_text(json.dumps(sorted(set(loaded()) - before)))

        partition._process_worker_main = probed_main  # the fork inherits it
        if "fork" not in multiprocessing.get_all_start_methods():
            print(json.dumps(None))
            raise SystemExit
        result = partition.run_partitioned(graph, schedule, partitions=2, backend="process")
        assert result.labels["partition_backend"] == "process" and result.decisions
        print(json.dumps([
            json.loads(path.read_text()) for path in sorted(pathlib.Path({str(tmp_path)!r}).iterdir())
        ]))
        """
    )
    if gained is None:
        pytest.skip("the process backend needs the fork start method")
    assert gained == [[], []]


def test_importing_the_package_reads_no_file_and_the_version_is_pyproject_s():
    seen = fresh(
        """
        import os

        opened = []
        sys.addaudithook(lambda event, args: event == "open" and opened.append(args[0]))
        before = set(sys.modules)
        import repro
        gained = set(sys.modules) - before
        early = [name for name in ("tomllib", "importlib.metadata", "pathlib") if name in gained]
        paths = [os.fsdecode(path) for path in opened if not isinstance(path, int)]  # an int is a descriptor
        # The import system opens .py/.pyc files; reading the version would open one of these.
        read = [path for path in paths if os.path.basename(path) in ("pyproject.toml", "METADATA")]
        print(json.dumps({
            "early": early, "read": read, "version": repro.__version__,
            "cached": "__version__" in vars(repro),
        }))
        """
    )
    assert seen["early"] == [] and seen["cached"]
    assert seen["read"] == []
    declared = re.search(r'^version = "(.+)"$', (ROOT / "pyproject.toml").read_text(), re.M).group(1)
    if sys.version_info < (3, 11) and seen["version"] != declared:
        # No tomllib before 3.11: an uninstalled checkout has no metadata to read.
        pytest.skip("repro is not installed and tomllib is unavailable")
    assert seen["version"] == declared
