"""Command-line interface.

``python -m repro <command>`` (or the ``repro`` console script) exposes the
most useful entry points of the library without writing any Python:

* ``quickstart`` — crash a block in a grid and print the agreement;
* ``figure {1a,1b,2,3}`` — run a paper-figure scenario and print what it
  demonstrates;
* ``locality`` — the EXP-L1/EXP-L2 sweeps as plain-text tables;
* ``repair`` — the end-to-end overlay repair demo;
* ``sweep`` — the EXP-C1 adversarial property sweep;
* ``churn`` — dynamic-membership scenarios on either runtime;
* ``run`` — execute a declarative spec document (``SPEC.json`` or ``-``
  for stdin);
* ``report`` — every experiment table, and the paper's claims it backs, checked.

The single-run and sweep commands are thin shims over the declarative
spec layer (:mod:`repro.api`): ``--emit-spec`` prints the JSON spec that
reproduces the command (pipe it into ``repro run -``), and ``--json``
prints the machine-readable result instead of text tables.

Every command prints deterministic output for a given ``--seed``.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence
from pathlib import Path
from typing import Callable

from .api import (
    ExperimentSession,
    RuntimeSpec,
    SweepSpec,
    churn_scenario_description,
    churn_scenario_spec,
    figure_spec,
    load_spec,
    locality_sweep_spec,
    property_sweep_spec,
    quickstart_spec,
    repair_spec,
)
# Nothing from repro.experiments up here: the parser needs the spec layer
# for its choices and help text, and each command imports what it runs, so
# ``--version`` and ``--help`` load no simulator, experiment or asyncio.
from .api.presets import LOCALITY_SIDES, LOCALITY_SIDES_FULL
from .sim.faults import FAULT_AXES, FAULT_KNOBS


def _write_json(write: Callable[[str], object], payload: dict) -> None:
    write(json.dumps(payload, indent=2, sort_keys=True))


def _parse_faults(text: str, sweep: bool = False) -> tuple[dict, dict]:
    """Parse a ``--faults`` argument into ``(block, axes)``.

    ``text`` is either a preset name (``lossy``, ``dupes``, ``jumbled``,
    ``hostile``) or comma-separated ``knob=value`` pairs.  With
    ``sweep=True`` a colon-separated value list (``loss=0:0.02:0.05``)
    becomes a degradation axis in ``axes``; scalars stay in ``block``.
    """
    from .api import SpecError, fault_preset

    if "=" not in text:
        return fault_preset(text.strip()), {}
    block: dict = {}
    axes: dict = {}
    for pair in text.split(","):
        pair = pair.strip()
        if not pair:
            continue
        knob, _, raw = pair.partition("=")
        knob = knob.strip()
        try:
            cast = FAULT_KNOBS[knob].value_type
        except KeyError:
            raise SpecError(
                f"unknown --faults knob {knob!r}; known: "
                f"{', '.join(sorted(FAULT_KNOBS))} (or a preset name)"
            ) from None
        try:
            values = [cast(value) for value in raw.split(":")]
        except ValueError:
            raise SpecError(
                f"bad --faults value for {knob!r}: {raw!r} "
                f"(expected {cast.__name__}, ':'-separated to sweep)"
            ) from None
        if len(values) > 1:
            if not sweep:
                raise SpecError(
                    f"--faults {knob} lists several values; colon lists "
                    "sweep a degradation axis and only `repro sweep "
                    "--faults` accepts them"
                )
            if knob not in FAULT_AXES:
                raise SpecError(
                    f"--faults can only sweep {', '.join(FAULT_AXES)}; "
                    f"{knob!r} is a modifier and takes one value"
                )
            axes[knob] = values
        else:
            block[knob] = values[0]
    if not block and not axes:
        raise SpecError("--faults is empty (give a preset name or knob=value pairs)")
    return block, axes


def _write_sweep_report(
    report, spec: SweepSpec, as_json: bool, write: Callable[[str], object]
) -> int:
    """Shared rendering + exit code for spec-driven sweep reports."""
    if as_json:
        _write_json(write, report.as_dict())
        return 0 if report.all_hold else 1
    from .experiments import format_table

    write(format_table(report.as_rows(), title=f"sweep {spec.name or spec.digest()[:12]}"))
    write(
        f"runs: {len(report)}  workers: {report.workers}  "
        f"all hold: {report.all_hold}  digest: {report.digest()[:12]}"
    )
    return 0 if report.all_hold else 1


def _cmd_quickstart(args: argparse.Namespace, write: Callable[[str], object]) -> int:
    spec = quickstart_spec(side=args.side, block=args.block, seed=args.seed)
    if args.emit_spec:
        write(spec.to_json())
        return 0
    result = ExperimentSession().run(spec)
    if args.json:
        _write_json(write, result.as_dict())
        return 0 if result.specification.holds else 1
    # Print the block the spec actually crashes, not a recomputation.
    block = sorted(tuple(member) for member in spec.failure.params["members"])
    write(f"crashed block: {block}")
    write(result.summary())
    write(result.specification.summary())
    return 0 if result.specification.holds else 1


def _cmd_figure(args: argparse.Namespace, write: Callable[[str], object]) -> int:
    if args.emit_spec:
        write(figure_spec(args.which, seed=args.seed).to_json())
        return 0
    from .experiments import format_table, run_fig1b, run_fig2, run_fig3

    if args.which == "1a":
        result = ExperimentSession().run(figure_spec("1a", seed=args.seed))
        write(result.summary())
        write(result.specification.summary())
        return 0 if result.specification.holds else 1
    if args.which == "1b":
        observations = run_fig1b(seed=args.seed)
        write(f"conflict arose: {observations.conflict_arose}")
        write(f"converged on F3: {observations.converged_on_f3}")
        write(f"rejections: {observations.rejections}")
        write(observations.result.specification.summary())
        return 0 if observations.result.specification.holds else 1
    if args.which == "2":
        observations = run_fig2(seed=args.seed)
        rows = [
            {"domain": name, "decided": decided, "deciders": ", ".join(map(str, observations.deciders[name]))}
            for name, decided in sorted(observations.decided_domains.items())
        ]
        write(format_table(rows, title="Fig. 2 — faulty cluster"))
        write(f"cluster has a decision (CD7): {observations.cluster_has_decision}")
        return 0 if observations.result.specification.holds else 1
    observations = run_fig3(seed=args.seed)
    write(f"first wave decided: {observations.first_wave_view is not None}")
    write(f"grown region proposed: {observations.grown_region_proposed}")
    write(f"no conflicting decision (CD6): {observations.no_conflicting_decision}")
    return 0 if observations.result.specification.holds else 1


def _cmd_locality(args: argparse.Namespace, write: Callable[[str], object]) -> int:
    sides = LOCALITY_SIDES_FULL if args.full else LOCALITY_SIDES
    if args.emit_spec:
        # One declarative document per experiment: EXP-L1 varies the
        # torus through a width|height-coupled axis, EXP-L2 the block.
        write(locality_sweep_spec(args.exp, sides=sides, seed=args.seed).to_json())
        return 0
    from .experiments import format_table, locality_is_flat, region_size_sweep, system_size_sweep

    points = system_size_sweep(sides=sides, seed=args.seed)
    write(format_table([p.as_row() for p in points], title="EXP-L1: cost vs system size"))
    write(f"flat across system sizes: {locality_is_flat(points)}")
    region_points = region_size_sweep(region_sides=(1, 2, 3, 4), seed=args.seed)
    write("")
    write(
        format_table(
            [p.as_row() for p in region_points], title="EXP-L2: cost vs region size"
        )
    )
    return 0


def _cmd_repair(args: argparse.Namespace, write: Callable[[str], object]) -> int:
    described = {
        "ring_size": args.ring_size,
        "arc_start": args.arc_start,
        "arc_length": args.arc_length,
        "seed": args.seed,
    }
    if args.emit_spec:
        write(repair_spec(**described).to_json())
        return 0
    from .experiments import run_overlay_repair

    run = run_overlay_repair(**described)
    write(f"crashed arc: {list(run.arc)}")
    write(run.outcome.summary())
    write(f"specification holds: {run.result.specification.holds}")
    return 0 if run.outcome.ring_restored and run.result.specification.holds else 1


def _cmd_sweep(args: argparse.Namespace, write: Callable[[str], object]) -> int:
    from .experiments import format_table
    from .scale import resolve_workers

    session = ExperimentSession()
    # --cases/--workers default to None so an *explicitly passed* default
    # value is distinguishable from "not passed" when combined with --spec.
    cases = args.cases if args.cases is not None else 10
    workers_requested = args.workers if args.workers is not None else 1
    if args.faults:
        if args.spec or args.churn:
            write(
                "--faults builds a degradation sweep from the quickstart "
                "scenario; it conflicts with --spec and --churn (put a "
                "'runtime.faults.*' axis in the sweep document instead)"
            )
            return 2
        return _cmd_sweep_faults(args, cases, workers_requested, session, write)
    if args.spec:
        if args.cases is not None or args.churn:
            # The document defines the sweep; silently dropping explicit
            # flags would run something other than what was asked for.
            write(
                "--cases/--churn conflict with --spec (the document defines "
                "the sweep); pass --workers to override the pool size"
            )
            return 2
        spec = load_spec(_read_spec_text(args.spec))
        if not isinstance(spec, SweepSpec):
            write(
                f"{args.spec}: expected a sweep spec, got an experiment spec "
                "(use `repro run` for single experiments)"
            )
            return 2
        if args.workers is not None:
            import dataclasses

            spec = dataclasses.replace(spec, workers=args.workers)
        if args.emit_spec:
            # Print the (possibly worker-overridden) normalized document
            # instead of launching a potentially expensive sweep.
            write(spec.to_json())
            return 0
        report = session.run_sweep(spec)
        return _write_sweep_report(report, spec, args.json, write)
    if args.emit_spec:
        # Emit the *requested* worker count, not the resolved one: baking
        # this machine's CPU count into the document would make the spec
        # (and its digest) machine-dependent for no behavioural gain.
        write(
            property_sweep_spec(
                cases=cases, workers=workers_requested, churn=args.churn
            ).to_json()
        )
        return 0
    workers = resolve_workers(workers_requested)
    spec = property_sweep_spec(cases=cases, workers=workers, churn=args.churn)
    report = session.run_sweep(spec)
    if args.json:
        _write_json(write, report.as_dict())
        return 0 if report.all_hold else 1
    from .experiments import case_row, sweep_summary

    title = "EXP-C1 adversarial churn sweep" if args.churn else "EXP-C1 sweep"
    write(format_table([case_row(case) for case in report.outcomes], title=title))
    summary = sweep_summary(report.outcomes)
    write(
        f"workers: {workers}  all hold: {summary['all_hold']}  "
        f"violations: {summary['violating_seeds']}"
    )
    return 0 if summary["all_hold"] else 1


def _cmd_sweep_faults(
    args: argparse.Namespace,
    cases: int,
    workers_requested: int,
    session: ExperimentSession,
    write: Callable[[str], object],
) -> int:
    """``repro sweep --faults``: a degradation sweep + per-property table."""
    import dataclasses

    from .experiments import degradation_from_sweep
    from .scale import resolve_workers

    block, axes = _parse_faults(args.faults, sweep=True)
    if not axes:
        write(
            "sweep --faults needs at least one ':'-separated axis, e.g. "
            "--faults loss=0:0.02:0.05 (a single fault point runs with "
            "`repro run --faults`)"
        )
        return 2
    # Scalar knobs (and each axis' first value, for eager validation of
    # the full combination) live on the template; only the colon lists
    # become grid axes, so the degradation report's swept knob is
    # unambiguous.  _override merges into the template's faults block.
    template_faults = dict(block)
    for knob, values in axes.items():
        template_faults[knob] = values[0]
    template = quickstart_spec(seed=args.seed).with_faults(template_faults)
    spec = SweepSpec(
        name="faults-" + "-".join(sorted(axes)),
        experiment=template,
        seeds=tuple(range(cases)),
        grid={f"runtime.faults.{knob}": list(values) for knob, values in axes.items()},
        workers=workers_requested,
    )
    if args.emit_spec:
        write(spec.to_json())
        return 0
    spec = dataclasses.replace(spec, workers=resolve_workers(workers_requested))
    report = session.run_sweep(spec)
    degradation = degradation_from_sweep(spec, report)
    if args.json:
        payload = report.as_dict()
        payload["degradation"] = degradation.as_dict()
        _write_json(write, payload)
    else:
        write(degradation.summary())
        write(
            f"runs: {len(report)}  workers: {report.workers}  "
            f"digest: {report.digest()[:12]}"
        )
    return 0 if degradation.acceptable else 1


def _cmd_churn(args: argparse.Namespace, write: Callable[[str], object]) -> int:
    if args.emit_spec and args.runtime in ("both", "all"):
        # A single experiment spec describes one engine; emitting only the
        # sim half would silently drop the cross-runtime agreement check.
        write(
            "--emit-spec needs a single engine; re-run with --runtime sim, "
            "asyncio or asyncio-virtual (run each document to compare)"
        )
        return 2
    steady_shape = {
        knob: value
        for knob in ("churn_rate", "duration")
        if (value := getattr(args, knob)) is not None
    }
    if steady_shape and args.scenario != "steady":
        # Silently dropping explicit flags would run something other than
        # what was asked for.
        write(
            "--churn-rate/--duration shape the steady scenario only; they "
            f"conflict with --scenario {args.scenario}"
        )
        return 2
    spec = churn_scenario_spec(
        args.scenario,
        nodes=args.nodes,
        seed=args.seed,
        runtime=args.runtime if args.runtime not in ("both", "all") else "sim",
        **steady_shape,
    )
    if args.faults:
        block, _ = _parse_faults(args.faults)
        spec = spec.with_faults(block)
    if args.emit_spec:
        write(spec.to_json())
        return 0
    session = ExperimentSession()
    if args.runtime == "both":
        runtimes = ["sim", "asyncio"]
    elif args.runtime == "all":
        runtimes = list(RuntimeSpec.ENGINES)
    else:
        runtimes = [args.runtime]
    results = [session.run(spec.with_engine(runtime)) for runtime in runtimes]
    ok = all(r.specification.holds and r.quiescent for r in results)
    agree = None
    if len(results) >= 2:
        # Distinct decided views must agree across runtimes.  The per-epoch
        # decision counts may legitimately differ on racy scenarios: whether
        # a recovery beats the in-flight agreement is a timing question, and
        # both outcomes satisfy the epoch-quotiented specification.
        agree = all(
            result.decided_views == results[0].decided_views
            for result in results[1:]
        )
        ok = ok and agree
    if args.json:
        payload = {
            "scenario": spec.name,
            "runs": [result.as_dict() for result in results],
            "ok": ok,
        }
        if agree is not None:
            payload["runtimes_agree"] = agree
        _write_json(write, payload)
        return 0 if ok else 1
    write(f"scenario: {spec.name} — {churn_scenario_description(args.scenario)}")
    for runtime, result in zip(runtimes, results):
        write("")
        write(f"=== {runtime} runtime ===")
        write(result.summary())
        write(result.specification.summary())
    if agree is not None:
        write("")
        write(f"runtimes decided identical views: {agree}")
    return 0 if ok else 1


def _read_spec_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        return Path(path).read_text()
    except OSError as exc:
        from .api import SpecError

        raise SpecError(f"cannot read spec file {path!r}: {exc}") from exc


def _cmd_run(args: argparse.Namespace, write: Callable[[str], object]) -> int:
    spec = load_spec(_read_spec_text(args.spec))
    session = ExperimentSession()
    if isinstance(spec, SweepSpec):
        if args.partitions is not None:
            write(
                "--partitions applies to single experiments; a sweep "
                "parallelises across runs (set 'workers' in the document "
                "or use `repro sweep --workers`)"
            )
            return 2
        if args.collection is not None:
            write(
                "--collection applies to single experiments; set "
                "runtime.collection on the sweep's base experiment instead"
            )
            return 2
        if args.runtime is not None:
            write(
                "--runtime applies to single experiments; set "
                "runtime.engine on the sweep's base experiment instead"
            )
            return 2
        if args.faults is not None:
            write(
                "--faults applies to single experiments; put a "
                "'runtime.faults' block (or grid axis) in the sweep "
                "document, or use `repro sweep --faults`"
            )
            return 2
        report = session.run_sweep(spec)
        return _write_sweep_report(report, spec, args.json, write)
    if args.runtime is not None:
        spec = spec.with_engine(args.runtime)
    if args.partitions is not None:
        spec = spec.with_partitions(args.partitions)
    if args.collection is not None:
        spec = spec.with_collection(args.collection)
    if args.faults is not None:
        block, _ = _parse_faults(args.faults)
        spec = spec.with_faults(block)
    result = session.run(spec)
    if args.json:
        _write_json(write, result.as_dict())
    else:
        if spec.name:
            write(f"spec: {spec.name} ({spec.digest()[:12]})")
        write(result.summary())
        if result.specification is not None:
            write(result.specification.summary())
    holds = result.specification.holds if result.specification is not None else True
    return 0 if holds else 1


def _cmd_report(args: argparse.Namespace, write: Callable[[str], object]) -> int:
    from .experiments import build_report, failed_claims, render_report

    sections = build_report(quick=args.quick)
    write(render_report(sections, markdown=args.markdown))
    failed = failed_claims(sections)
    for claim in failed:
        write(f"FAILED {claim}")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# Experiment service commands
# ---------------------------------------------------------------------------
def _server_url(args: argparse.Namespace) -> str:
    """Resolve the server URL: ``--server`` > ``$REPRO_SERVER`` > default."""
    import os

    from .service import DEFAULT_URL

    if getattr(args, "server", None):
        return args.server
    return os.environ.get("REPRO_SERVER", DEFAULT_URL)


def _format_job(job: dict) -> str:
    progress = job.get("progress", {})
    done, total = progress.get("done", 0), progress.get("total", 1)
    parts = [
        f"job {job['id']}",
        f"state={job['state']}",
        f"progress={done}/{total}",
        f"spec={job['spec_digest'][:12]}",
        f"seed={job['seed']}",
    ]
    if job.get("cached"):
        parts.append("cached")
    if job.get("digest"):
        parts.append(f"digest={job['digest'][:12]}")
    if job.get("error"):
        parts.append(f"error={job['error'].splitlines()[-1]}")
    return "  ".join(parts)


def _cmd_serve(args: argparse.Namespace, write: Callable[[str], object]) -> int:
    from .service import serve

    server = serve(
        args.root,
        host=args.host,
        port=args.port,
        workers=args.workers,
        verbose=args.verbose,
        store_max_bytes=args.store_max_bytes,
    )
    write(
        f"experiment server listening on {server.url} "
        f"(root={args.root}, workers={args.workers})"
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive teardown
        pass
    finally:
        server.service.stop_workers()
        server.server_close()
    return 0


def _cmd_submit(args: argparse.Namespace, write: Callable[[str], object]) -> int:
    from .api import SpecError
    from .service import ServiceClient, ServiceError

    text = _read_spec_text(args.spec)
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"spec document is not valid JSON: {exc}") from exc
    client = ServiceClient(_server_url(args))
    response = client.submit(document, force=args.force)
    job = response["job"]
    if args.wait and not job["state"] in ("done", "failed"):
        try:
            job = client.wait(job["id"], timeout=args.timeout)
        except ServiceError as exc:
            write(str(exc))
            return 1
    if args.json:
        _write_json(write, {"job": job, "created": response["created"]})
    else:
        write(_format_job(job))
        if job["state"] == "done" and job.get("cached"):
            write("served from the result store (identical submission)")
    if job["state"] == "failed":
        return 1
    return 0


def _cmd_status(args: argparse.Namespace, write: Callable[[str], object]) -> int:
    from .service import ServiceClient

    client = ServiceClient(_server_url(args))
    if args.job is None:
        jobs = client.jobs(state=args.state)
        if args.json:
            _write_json(write, {"jobs": jobs})
        elif not jobs:
            write("no jobs")
        else:
            for job in jobs:
                write(_format_job(job))
        return 0
    if args.watch:
        job = None
        for job in client.events(args.job, timeout=args.timeout):
            write(_format_job(job))
        return 0 if job is not None and job["state"] == "done" else 1
    job = client.job(args.job)
    if args.json:
        _write_json(write, {"job": job})
    else:
        write(_format_job(job))
    return 0 if job["state"] != "failed" else 1


def _cmd_result(args: argparse.Namespace, write: Callable[[str], object]) -> int:
    from .service import ServiceClient, ServiceError

    client = ServiceClient(_server_url(args))
    try:
        response = client.result(args.job)
    except ServiceError as exc:
        if getattr(exc, "status", None) == 409 and args.wait:
            client.wait(args.job, timeout=args.timeout)
            response = client.result(args.job)
        else:
            write(str(exc))
            return 1
    envelope = response["envelope"]
    if args.json:
        _write_json(write, response)
        return 0
    job = response["job"]
    write(_format_job(job))
    write(f"kind: {envelope['kind']}  digest: {envelope['digest']}")
    summary = envelope.get("result", {}).get("summary")
    if isinstance(summary, dict):
        for key in sorted(summary):
            write(f"  {key}: {summary[key]}")
    if "digest_state" in envelope:
        from .service import hydrate_digest_result

        recorder = hydrate_digest_result(envelope)
        write(
            f"digest-partial verified: {len(recorder)} events fold to "
            f"{recorder.digest()[:12]} (no event log crossed the wire)"
        )
    return 0


def _cmd_work(args: argparse.Namespace, write: Callable[[str], object]) -> int:
    from .service import ServiceClient, WorkerLoop

    client = ServiceClient(_server_url(args), timeout=args.timeout)
    loop = WorkerLoop(
        client, name=args.name, poll_interval=args.poll_interval, drain=args.drain
    )
    write(f"worker {args.name!r} polling {client.base_url}")
    try:
        loop.run()
    except KeyboardInterrupt:  # pragma: no cover - interactive teardown
        pass
    write(f"worker {args.name!r}: {loop.completed} completed, {loop.failed} failed")
    return 0 if loop.failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    from . import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Cliff-edge consensus (Taïani et al., PaCT 2013) — reproduction CLI",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {__version__}",
        help="print the package version (sourced from pyproject.toml)",
    )
    parser.add_argument("--seed", type=int, default=0, help="deterministic seed")
    sub = parser.add_subparsers(dest="command", required=True)

    def _add_spec_flags(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--emit-spec",
            action="store_true",
            dest="emit_spec",
            help="print the declarative spec JSON reproducing this command "
            "(pipe into `repro run -`) instead of running it",
        )
        command.add_argument(
            "--json",
            action="store_true",
            help="print the machine-readable result as JSON",
        )

    quickstart = sub.add_parser("quickstart", help="crash a block in a grid and agree on it")
    quickstart.add_argument("--side", type=int, default=6, help="grid side length")
    quickstart.add_argument("--block", type=int, default=2, help="crashed block side length")
    _add_spec_flags(quickstart)
    quickstart.set_defaults(func=_cmd_quickstart)

    figure = sub.add_parser("figure", help="run one of the paper's figure scenarios")
    figure.add_argument("which", choices=["1a", "1b", "2", "3"])
    figure.add_argument(
        "--emit-spec",
        action="store_true",
        dest="emit_spec",
        help="print the spec JSON reproducing the figure's run",
    )
    figure.set_defaults(func=_cmd_figure)

    locality = sub.add_parser("locality", help="EXP-L1/EXP-L2 locality sweeps")
    locality.add_argument("--full", action="store_true", help="sweep up to 4096 nodes")
    locality.add_argument(
        "--exp",
        choices=["l1", "l2"],
        default="l1",
        help="which experiment --emit-spec describes: l1 (system size) "
        "or l2 (region size)",
    )
    locality.add_argument(
        "--emit-spec",
        action="store_true",
        dest="emit_spec",
        help="print the declarative sweep spec JSON reproducing the "
        "selected experiment (pipe into `repro sweep --spec -`) instead "
        "of running it",
    )
    locality.set_defaults(func=_cmd_locality)

    repair = sub.add_parser("repair", help="end-to-end overlay repair demo")
    repair.add_argument("--ring-size", type=int, default=32)
    repair.add_argument("--arc-start", type=int, default=5)
    repair.add_argument("--arc-length", type=int, default=4)
    repair.add_argument(
        "--emit-spec",
        action="store_true",
        dest="emit_spec",
        help="print the declarative spec JSON reproducing this repair run "
        "(pipe into `repro run -`) instead of running it",
    )
    repair.set_defaults(func=_cmd_repair)

    sweep = sub.add_parser("sweep", help="EXP-C1 adversarial property sweep")
    sweep.add_argument("--cases", type=int, default=None, help="number of seeds (default 10)")
    def _worker_count(text: str) -> int:
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError("workers must be >= 0")
        return value

    sweep.add_argument(
        "--workers",
        type=_worker_count,
        default=None,
        help="shard the sweep over N worker processes (default 1, 0 = one "
        "per CPU); results are identical for every worker count; with "
        "--spec, overrides the document's worker count",
    )
    sweep.add_argument(
        "--churn",
        action="store_true",
        help="run the adversarial churn extension (random joins/recoveries "
        "racing cascades, epoch-quotiented CD1-CD7)",
    )
    sweep.add_argument(
        "--spec",
        default=None,
        help="run a sweep spec JSON file ('-' for stdin) instead of EXP-C1",
    )
    sweep.add_argument(
        "--faults",
        default=None,
        help="degradation sweep: fault knobs as knob=value pairs where at "
        "least one value is a ':'-separated axis (e.g. "
        "'loss=0:0.02:0.05' or 'duplication=0.1:0.3,copies=3'); runs "
        "the quickstart scenario at every (rate, seed) point and prints "
        "which CD1-CD7 properties failed at which rate and whether the "
        "fault model excuses them",
    )
    _add_spec_flags(sweep)
    sweep.set_defaults(func=_cmd_sweep)

    churn = sub.add_parser(
        "churn", help="dynamic-membership scenarios (joins, recoveries, leaves)"
    )
    churn.add_argument(
        "--scenario",
        choices=["steady", "race", "flash"],
        default="steady",
        help="steady churn sweep, crash-recover-recrash race, or flash-crowd joins",
    )
    churn.add_argument("--nodes", type=int, default=64, help="approximate torus size")
    churn.add_argument(
        "--churn-rate",
        type=float,
        default=None,
        dest="churn_rate",
        help="steady only: fraction of the population starting a "
        "crash-recover cycle per time unit (default 0.05)",
    )
    churn.add_argument(
        "--duration",
        type=float,
        default=None,
        help="steady only: time units over which cycles start (default 100)",
    )
    churn.add_argument(
        "--runtime",
        choices=[*RuntimeSpec.ENGINES, "both", "all"],
        default="sim",
        help="engine: deterministic simulator, wall-clock asyncio, "
        "virtual-time asyncio, sim+asyncio ('both'), or all three "
        "('all'); multi-engine runs cross-check decided views",
    )
    # Accept --seed after the subcommand too (it is also a global option);
    # SUPPRESS keeps a pre-subcommand --seed intact when absent here.
    churn.add_argument(
        "--seed", type=int, default=argparse.SUPPRESS, help="deterministic seed"
    )
    churn.add_argument(
        "--faults",
        default=None,
        help="inject deterministic link faults: a preset (lossy, dupes, "
        "jumbled, hostile) or knob=value pairs such as "
        "'loss=0.02,duplication=0.1'; identical across engines for a "
        "given seed",
    )
    _add_spec_flags(churn)
    churn.set_defaults(func=_cmd_churn)

    run = sub.add_parser(
        "run", help="execute a declarative spec document (experiment or sweep)"
    )
    run.add_argument(
        "spec",
        help="path to a spec JSON file, or '-' to read the document from stdin",
    )
    run.add_argument(
        "--json",
        action="store_true",
        help="print the machine-readable result as JSON",
    )

    def _partition_count(text: str) -> int:
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError("partitions must be >= 1")
        return value

    run.add_argument(
        "--partitions",
        type=_partition_count,
        default=None,
        help="split the single run across N locality-aware simulator "
        "shards (overrides the document's runtime.partitions); the "
        "merged trace digest is identical for every N",
    )
    run.add_argument(
        "--collection",
        choices=list(RuntimeSpec.COLLECTIONS),
        default=None,
        help="trace collection mode (overrides the document's "
        "runtime.collection): 'trace' keeps the full columnar event "
        "log, 'digest' streams only the canonical digest + metrics "
        "(implies no CD1-CD7 checking); the digest is bit-identical "
        "either way",
    )
    run.add_argument(
        "--runtime",
        choices=list(RuntimeSpec.ENGINES),
        default=None,
        help="runtime engine (overrides the document's runtime.engine): "
        "the deterministic simulator, the wall-clock asyncio runtime, "
        "or the same asyncio runtime on the deterministic virtual-time "
        "loop",
    )
    run.add_argument(
        "--faults",
        default=None,
        help="override the document's runtime.faults block: a preset "
        "(lossy, dupes, jumbled, hostile) or comma-separated knob=value "
        "pairs from {loss, duplication, copies, reorder, reorder_rate, "
        "seed}, e.g. 'loss=0.02,reorder=0.5'; every fault decision is "
        "drawn from a per-message keyed RNG, so the run stays "
        "deterministic and digest-stable",
    )
    run.set_defaults(func=_cmd_run)

    report = sub.add_parser("report", help="every experiment table, the paper's claims checked")
    report.add_argument("--quick", action="store_true")
    report.add_argument("--markdown", action="store_true")
    report.set_defaults(func=_cmd_report)

    # -- experiment service -------------------------------------------
    def _add_server_flag(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--server",
            default=None,
            help="experiment server URL (default: $REPRO_SERVER or "
            "http://127.0.0.1:8787)",
        )

    serve = sub.add_parser(
        "serve",
        help="run the experiment server (submit specs over HTTP, results "
        "cached by spec digest)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8787, help="listen port (0 = ephemeral)"
    )
    serve.add_argument(
        "--root",
        default=".repro-service",
        help="state directory for the job ledger and result store",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        help="in-process worker threads (0 = remote workers only, "
        "see `repro work`)",
    )
    serve.add_argument("--verbose", action="store_true", help="log HTTP requests")
    serve.add_argument(
        "--store-max-bytes",
        type=int,
        default=None,
        dest="store_max_bytes",
        help="cap the result store at this many bytes; the least-recently-"
        "used entries are evicted (and journaled to evictions.jsonl) "
        "when a write overflows the budget (default: unbounded)",
    )
    serve.set_defaults(func=_cmd_serve)

    submit = sub.add_parser(
        "submit", help="submit a spec document to the experiment server"
    )
    submit.add_argument(
        "spec", help="path to a spec JSON file, or '-' to read from stdin"
    )
    submit.add_argument(
        "--force",
        action="store_true",
        help="bypass the result cache and re-execute even if an identical "
        "submission is already stored",
    )
    submit.add_argument(
        "--wait",
        action="store_true",
        help="follow the job until it finishes instead of returning the id",
    )
    submit.add_argument(
        "--timeout", type=float, default=600.0, help="--wait timeout (seconds)"
    )
    submit.add_argument("--json", action="store_true", help="print the job as JSON")
    _add_server_flag(submit)
    submit.set_defaults(func=_cmd_submit)

    status = sub.add_parser("status", help="poll job state on the experiment server")
    status.add_argument(
        "job", nargs="?", default=None, help="job id (omit to list every job)"
    )
    status.add_argument(
        "--state",
        choices=["queued", "running", "done", "failed"],
        default=None,
        help="when listing, filter by state",
    )
    status.add_argument(
        "--watch",
        action="store_true",
        help="stream progress updates (completed-task counts) until the "
        "job finishes",
    )
    status.add_argument(
        "--timeout", type=float, default=300.0, help="--watch window (seconds)"
    )
    status.add_argument("--json", action="store_true")
    _add_server_flag(status)
    status.set_defaults(func=_cmd_status)

    result = sub.add_parser(
        "result", help="fetch a finished job's digest-verified result"
    )
    result.add_argument("job", help="job id")
    result.add_argument(
        "--wait",
        action="store_true",
        help="if the job is still running, wait for it first",
    )
    result.add_argument(
        "--timeout", type=float, default=600.0, help="--wait timeout (seconds)"
    )
    result.add_argument(
        "--json",
        action="store_true",
        help="print the full {job, spec, envelope} document as JSON",
    )
    _add_server_flag(result)
    result.set_defaults(func=_cmd_result)

    work = sub.add_parser(
        "work",
        help="run one worker against a (possibly remote) experiment server "
        "(N workers: start N of these)",
    )
    work.add_argument("--name", default="worker", help="reported worker name")
    work.add_argument(
        "--drain",
        action="store_true",
        help="exit when the queue is empty instead of polling forever",
    )
    work.add_argument(
        "--poll-interval",
        type=float,
        default=1.0,
        dest="poll_interval",
        help="seconds between claims when the queue is empty",
    )
    work.add_argument(
        "--timeout", type=float, default=60.0, help="per-request HTTP timeout"
    )
    _add_server_flag(work)
    work.set_defaults(func=_cmd_work)

    return parser


def main(argv: Sequence[str] | None = None, write: Callable[[str], object] = print) -> int:
    """Entry point used by ``python -m repro`` and the ``repro`` script."""
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else sys.argv[1:])
    return args.func(args, write)


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    raise SystemExit(main())
