"""Command-line interface for the SG-ML toolchain.

Usage::

    sgml validate <model-dir>          # parse + cross-file validation
    sgml compile <model-dir>           # run the processor, print artifacts
    sgml run <model-dir> [--seconds N] [--realtime]
    sgml scenario <model-dir> <spec> [--dry-run] [--report out.json]
    sgml campaign <model-dir> [--specs DIR | --families a,b] [--dry-run]
                  [--report out.json] [--reuse-range] [--sites N]
                  [--workers N] [--per-run-timeout S]
    sgml campaign --matrix epic,scaleout [--families a,b] [--workers N]
                  [--report out.json]
    sgml epic <output-dir>             # generate the EPIC demo model
    sgml scaleout <output-dir> [--substations N] [--ieds M]
    sgml lint [paths...] [--spec FILE] [--catalog epic|scaleout] [--all]
              [--model DIR] [--json OUT] [--baseline FILE]
              [--update-baseline]
    sgml serve [--host H] [--port P] [--max-sessions N] [--ttl S]
               [--journal-dir DIR]
    sgml recover <journal-dir-or-file> [--session ID] [--list]
                 [--report out.json] [--golden] [--no-finish]
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.epic import generate_epic_model, generate_scaleout_model
from repro.sgml import SgmlModelSet, SgmlProcessor


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="sgml",
        description="SG-ML smart grid cyber range toolchain",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="validate a model set")
    p_validate.add_argument("model_dir")

    p_compile = sub.add_parser("compile", help="compile a model set")
    p_compile.add_argument("model_dir")

    p_run = sub.add_parser("run", help="compile and run a cyber range")
    p_run.add_argument("model_dir")
    p_run.add_argument("--seconds", type=float, default=10.0)
    p_run.add_argument(
        "--realtime", action="store_true",
        help="pace virtual time against the wall clock",
    )

    p_scenario = sub.add_parser(
        "scenario",
        help="compile a range and run a declarative scenario spec against it",
    )
    p_scenario.add_argument("model_dir")
    p_scenario.add_argument(
        "spec_file", help="scenario spec (.json, or .yaml/.yml with PyYAML)"
    )
    p_scenario.add_argument(
        "--seconds", type=float, default=None,
        help="override the spec's duration_s (default 10)",
    )
    p_scenario.add_argument(
        "--report", "--report-json", dest="report", default="",
        help="also write the structured after-action report "
             "(ScenarioRun.to_dict() JSON) to this path",
    )
    p_scenario.add_argument(
        "--dry-run", action="store_true",
        help="validate the spec (fields, actions, branch graph) without "
             "compiling or running the range",
    )

    p_campaign = sub.add_parser(
        "campaign",
        help="sweep a scenario catalog (or a directory of specs) against "
             "a model set and emit an aggregate report",
    )
    p_campaign.add_argument(
        "model_dir", nargs="?", default="",
        help="model set directory (not needed with --list-families)",
    )
    p_campaign.add_argument(
        "--specs", default="",
        help="directory of scenario spec files to sweep (default: generate "
             "the built-in catalog for the model set)",
    )
    p_campaign.add_argument(
        "--families", default="",
        help="comma-separated catalog family subset (default: all)",
    )
    p_campaign.add_argument(
        "--sites", type=int, default=1,
        help="max sites each family instantiates (default 1)",
    )
    p_campaign.add_argument(
        "--dry-run", action="store_true",
        help="validate every spec without compiling or running anything",
    )
    p_campaign.add_argument(
        "--report", default="",
        help="write the aggregate campaign report JSON to this path",
    )
    p_campaign.add_argument(
        "--reuse-range", action="store_true",
        help="compile one range and run all scenarios on it sequentially "
             "(faster, but state carries over between scenarios)",
    )
    p_campaign.add_argument(
        "--list-families", action="store_true",
        help="list the built-in catalog families and exit",
    )
    p_campaign.add_argument(
        "--workers", type=int, default=0,
        help="process-pool width for fresh-range sweeps (0 = auto: one "
             "per CPU, or 1 with --reuse-range; 1 = run in-process)",
    )
    p_campaign.add_argument(
        "--per-run-timeout", type=float, default=None, metavar="S",
        help="per-scenario wall-clock budget at any worker count; a run "
             "over budget becomes a structured failed result (not with "
             "--reuse-range)",
    )
    p_campaign.add_argument(
        "--matrix", default="",
        help="comma-separated model sets to sweep in one matrix run: "
             "'epic', 'scaleout' (generated on the fly) or model "
             "directories; replaces the positional model_dir",
    )
    p_campaign.add_argument(
        "--scaleout-substations", type=int, default=5,
        help="substations for the generated 'scaleout' matrix entry "
             "(default 5)",
    )
    p_campaign.add_argument(
        "--scaleout-ieds", type=int, default=104,
        help="total IEDs for the generated 'scaleout' matrix entry "
             "(default 104)",
    )

    p_epic = sub.add_parser("epic", help="generate the EPIC demo model set")
    p_epic.add_argument("output_dir")

    p_scale = sub.add_parser(
        "scaleout", help="generate an N-substation scale-out model set"
    )
    p_scale.add_argument("output_dir")
    p_scale.add_argument("--substations", type=int, default=5)
    p_scale.add_argument("--ieds", type=int, default=104)

    p_deploy = sub.add_parser(
        "deploy", help="export a docker-compose deployment bundle"
    )
    p_deploy.add_argument("model_dir")
    p_deploy.add_argument("output_dir")

    p_lint = sub.add_parser(
        "lint",
        help="static analysis: determinism linter, async-hazard detector "
             "and scenario-spec analyzer (see docs/analysis.md)",
    )
    p_lint.add_argument(
        "paths", nargs="*",
        help="python files or directories to lint (determinism + async "
             "passes)",
    )
    p_lint.add_argument(
        "--spec", action="append", default=[], metavar="FILE",
        help="scenario spec file (.json/.yaml) for the spec analyzer "
             "(repeatable)",
    )
    p_lint.add_argument(
        "--catalog", action="append", default=[], metavar="TOKEN",
        help="builtin catalog to generate and analyze: 'epic' or "
             "'scaleout' (repeatable)",
    )
    p_lint.add_argument(
        "--all", action="store_true",
        help="lint the full surface: src/repro + examples/ (python and "
             "spec files) + both builtin catalogs",
    )
    p_lint.add_argument(
        "--model", default="", metavar="DIR",
        help="model set directory; enables target-existence checks "
             "(spec-missing-target) for --spec files",
    )
    p_lint.add_argument(
        "--json", default="", metavar="OUT",
        help="write the structured findings report (LintReport JSON) here",
    )
    p_lint.add_argument(
        "--baseline", default="", metavar="FILE",
        help="baseline file of grandfathered findings (default: "
             "lint-baseline.json if present)",
    )
    p_lint.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline to grandfather every current finding, "
             "then exit 0",
    )

    p_serve = sub.add_parser(
        "serve",
        help="host multi-tenant cyber range sessions over HTTP + WebSocket "
             "(Range-as-a-Service; see docs/service.md)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=8471,
        help="listen port (0 = ephemeral; default 8471)",
    )
    p_serve.add_argument(
        "--max-sessions", type=int, default=32,
        help="process-wide concurrent session limit (default 32)",
    )
    p_serve.add_argument(
        "--max-per-tenant", type=int, default=8,
        help="per-tenant concurrent session limit (default 8)",
    )
    p_serve.add_argument(
        "--ttl", type=float, default=900.0,
        help="idle seconds before a session is evicted (0 = never; "
             "default 900)",
    )
    p_serve.add_argument(
        "--journal-dir", default="",
        help="write-ahead journal directory: sessions become crash-safe "
             "(replay-restored on boot and after crashes; see "
             "docs/service.md § Durability & recovery)",
    )
    p_serve.add_argument(
        "--shed-busy-share", type=float, default=None,
        help="driver busy-share above which new session creates are shed "
             "with 503 + Retry-After (default 0.9)",
    )

    p_recover = sub.add_parser(
        "recover",
        help="replay a session's write-ahead journal offline: list "
             "restorable sessions or rebuild one and print its report",
    )
    p_recover.add_argument(
        "journal", help="journal directory (or one .jsonl journal file)"
    )
    p_recover.add_argument(
        "--session", default="",
        help="session id to replay (default: the only restorable one)",
    )
    p_recover.add_argument(
        "--list", action="store_true", dest="list_sessions",
        help="list journaled sessions and their restore targets, then exit",
    )
    p_recover.add_argument(
        "--report", default="",
        help="write the replayed session's after-action report JSON here",
    )
    p_recover.add_argument(
        "--golden", action="store_true",
        help="replay with one uninterrupted run_until instead of slices "
             "(bit-for-bit reference for the sliced replay)",
    )
    p_recover.add_argument(
        "--no-finish", action="store_true",
        help="stop at the journal's last durable point instead of running "
             "armed scenarios to their horizon",
    )

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except Exception as exc:  # surfaced as a clean CLI error
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "epic":
        path = generate_epic_model(args.output_dir)
        print(f"EPIC model set written to {path}")
        return 0
    if args.command == "scaleout":
        path = generate_scaleout_model(
            args.output_dir, substations=args.substations, total_ieds=args.ieds
        )
        print(
            f"{args.substations}-substation / {args.ieds}-IED model set "
            f"written to {path}"
        )
        return 0

    if args.command == "lint":
        return _lint(args)
    if args.command == "serve":
        return _serve(args)
    if args.command == "recover":
        return _recover(args)
    if args.command == "campaign" and args.list_families:
        from repro.scenario.catalog import FAMILIES

        for family in FAMILIES.values():
            print(f"{family.name}: {family.description}")
        return 0
    if args.command == "campaign" and args.matrix:
        return _run_matrix(args)
    if args.command == "campaign" and not args.model_dir:
        print("error: campaign needs a model directory", file=sys.stderr)
        return 1
    if args.command == "scenario" and args.dry_run:
        # Spec-only validation: no model parse, no compile, no run.
        return _dry_run_scenario(args)

    model = SgmlModelSet.from_directory(args.model_dir)
    if args.command == "scenario":
        return _run_scenario(model, args)
    if args.command == "campaign":
        return _run_campaign(model, args)
    if args.command == "deploy":
        from repro.sgml import export_compose_bundle

        path = export_compose_bundle(model, args.output_dir)
        print(f"deployment bundle written: {path}")
        return 0
    if args.command == "validate":
        problems = model.validate()
        if problems:
            for problem in problems:
                print(f"PROBLEM: {problem}")
            return 1
        print(
            f"OK: {len(model.ssds)} SSD, {len(model.scds)} SCD, "
            f"{len(model.icds)} ICD, sed={'yes' if model.sed else 'no'}, "
            f"{len(model.ied_configs)} IED configs"
        )
        return 0

    processor = SgmlProcessor(model)
    cyber_range = processor.compile()
    summary = cyber_range.architecture_summary()
    print("compiled cyber range:")
    for key, value in summary.items():
        print(f"  {key:>15}: {value}")
    print("toolchain stage timings (ms):")
    for stage, elapsed in processor.artifacts.stage_timings_ms.items():
        print(f"  {stage:>15}: {elapsed:8.2f}")
    if args.command == "compile":
        return 0

    cyber_range.start()
    print(f"running for {args.seconds:.1f} s of virtual time ...")
    if args.realtime:
        cyber_range.run_realtime(args.seconds)
    else:
        cyber_range.run_for(args.seconds)
    print("final measurements (subset):")
    for key in cyber_range.pointdb.keys("meas/")[:20]:
        print(f"  {key} = {cyber_range.pointdb.get(key)}")
    trips = [
        trip for ied in cyber_range.ieds.values() for trip in ied.engine.trips
    ]
    print(f"protection trips: {len(trips)}")
    for trip in trips[:10]:
        print(f"  {trip.describe()}")
    return 0


def _lint(args: argparse.Namespace) -> int:
    """Run the static-analysis passes and gate the exit code on findings."""
    import glob
    import os

    from repro.analysis import (
        BUILTIN_CATALOGS,
        DEFAULT_BASELINE,
        LintReport,
        build_inventory,
        builtin_inventory,
        lint_catalog,
        lint_source_paths,
        lint_spec_paths,
        load_baseline,
        write_baseline,
    )

    source_paths = list(args.paths)
    spec_paths = list(args.spec)
    catalogs = list(args.catalog)
    inventory = build_inventory(args.model) if args.model else None
    if args.all:
        source_paths += [p for p in ("src/repro", "examples")
                         if os.path.isdir(p)]
        spec_paths += sorted(
            glob.glob(os.path.join("examples", "*.json"))
            + glob.glob(os.path.join("examples", "*.yaml"))
        )
        catalogs += [t for t in BUILTIN_CATALOGS if t not in catalogs]
    if not source_paths and not spec_paths and not catalogs:
        print(
            "error: nothing to lint (give paths, --spec, --catalog or "
            "--all)",
            file=sys.stderr,
        )
        return 2

    # Builtin inventories are built once and shared: with --all, the
    # examples/ specs (EPIC-generated) are checked against the same EPIC
    # inventory the epic catalog is.
    builtin_cache: dict = {}

    def builtin(token: str):
        if token not in builtin_cache:
            builtin_cache[token] = builtin_inventory(token)
        return builtin_cache[token]

    report = LintReport()
    lint_source_paths(source_paths, report)
    spec_inventory = inventory
    if spec_inventory is None and args.all and spec_paths:
        spec_inventory = builtin("epic")
    lint_spec_paths(spec_paths, report, inventory=spec_inventory)
    for token in catalogs:
        lint_catalog(token, report, inventory=builtin(token))

    baseline_path = args.baseline or DEFAULT_BASELINE
    if args.update_baseline:
        count = write_baseline(baseline_path, report.findings)
        print(f"baseline {baseline_path} rewritten: {count} finding(s) "
              f"grandfathered")
        return 0
    if args.baseline or os.path.exists(baseline_path):
        report.apply_baseline(load_baseline(baseline_path))
    print(report.summary())
    if args.json:
        report.write_json(args.json)
        print(f"findings report written to {args.json}")
    return 1 if report.failed else 0


def _serve(args: argparse.Namespace) -> int:
    """Run the Range-as-a-Service front end until interrupted."""
    import asyncio

    from repro.service import RangeService, SessionManager

    async def run() -> None:
        service_kwargs = {}
        if args.journal_dir:
            service_kwargs["journal_dir"] = args.journal_dir
        if args.shed_busy_share is not None:
            service_kwargs["shed_busy_share"] = args.shed_busy_share
        service = RangeService(
            SessionManager(
                max_sessions=args.max_sessions,
                max_per_tenant=args.max_per_tenant,
                ttl_s=args.ttl,
            ),
            host=args.host,
            port=args.port,
            **service_kwargs,
        )
        await service.start()
        print(
            f"range service listening on http://{args.host}:{service.port} "
            f"(max {args.max_sessions} sessions, "
            f"{args.max_per_tenant}/tenant, ttl {args.ttl:.0f}s)",
            flush=True,
        )
        if args.journal_dir:
            recovery = service.boot_recovery
            print(
                f"journaling to {args.journal_dir} "
                f"(boot recovery: {len(recovery['restored'])} restored, "
                f"{len(recovery['skipped'])} skipped, "
                f"{len(recovery['failed'])} failed)",
                flush=True,
            )
        try:
            await service.serve_forever()
        finally:
            await service.stop()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("range service stopped")
    return 0


def _recover(args: argparse.Namespace) -> int:
    """Offline journal replay: list sessions, or rebuild one + report.

    Read-only — the replayed session gets no journal attached, so a
    post-mortem replay can never perturb the journal it reads.
    """
    import os

    from repro.service.recovery import (
        RecoveryError,
        list_journals,
        load_journal,
        replay_session,
    )
    from repro.service.server import default_model_resolver

    if os.path.isdir(args.journal):
        paths = list_journals(args.journal)
    else:
        paths = [args.journal]
    states = []
    for path in paths:
        try:
            states.append(load_journal(path))
        except RecoveryError as exc:
            print(f"skipping {path}: {exc}", file=sys.stderr)
    if args.list_sessions:
        if not states:
            print("no journaled sessions found")
            return 0
        for state in states:
            info = state.summary()
            flags = "restorable" if state.restorable else (
                f"closed ({state.closed_reason})"
            )
            print(
                f"{state.session_id}  model={state.model} "
                f"seed={state.seed} t={info['time_s']:.3f}s "
                f"mutations={len(state.mutations)} {flags}"
            )
        return 0

    if args.session:
        matches = [s for s in states if s.session_id == args.session]
        if not matches:
            raise RecoveryError(f"no journal for session {args.session!r}")
        state = matches[0]
    else:
        restorable = [s for s in states if s.restorable]
        if len(restorable) != 1:
            raise RecoveryError(
                f"{len(restorable)} restorable sessions found; "
                f"pick one with --session (or --list to enumerate)"
            )
        state = restorable[0]
    if not state.restorable:
        raise RecoveryError(
            f"session {state.session_id!r} closed cleanly "
            f"({state.closed_reason}); nothing to recover"
        )

    spec = dict(state.spec)
    spec.setdefault("seed", state.seed)
    mode = "run_until" if args.golden else "slices"
    session = replay_session(
        state, default_model_resolver(spec), mode=mode
    )
    simulator = session.cyber_range.simulator
    print(
        f"replayed session {state.session_id} ({mode}) to "
        f"t={simulator.now / 1_000_000:.6f}s "
        f"({simulator.processed} events, "
        f"{len(state.mutations)} journaled mutations)"
    )
    if not args.no_finish:
        horizon = state.scenario_horizon_us()
        if horizon > simulator.now:
            simulator.run_until(horizon)
            print(
                f"ran armed scenarios to their horizon: "
                f"t={simulator.now / 1_000_000:.6f}s"
            )
    report = session.report()
    session.close(journal_reason=None)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
        print(f"after-action report written to {args.report}")
    else:
        print(json.dumps(report, indent=2))
    return 0


def _dry_run_scenario(args: argparse.Namespace) -> int:
    """Validate a spec — fields, actions, branch graph — without a range."""
    from repro.scenario import Scenario
    from repro.scenario.campaign import load_spec_file

    scenario = Scenario.from_spec(load_spec_file(args.spec_file))
    edges = sum(len(phase.edges) for phase in scenario.phases)
    roots = len(scenario.root_phases())
    print(
        f"dry-run OK: scenario {scenario.name!r} is valid "
        f"({len(scenario.phases)} phases, {roots} roots, "
        f"{edges} branch edges)"
    )
    return 0


def _run_scenario(model: SgmlModelSet, args: argparse.Namespace) -> int:
    """Compile the range, run the scenario spec, print + score the report."""
    from repro.scenario import Scenario
    from repro.scenario.campaign import load_spec_file

    scenario = Scenario.from_spec(load_spec_file(args.spec_file))
    duration = args.seconds
    if duration is None:
        duration = scenario.duration_s if scenario.duration_s else 10.0
    cyber_range = SgmlProcessor(model).compile()
    print(
        f"running scenario {scenario.name!r} "
        f"({len(scenario.phases)} phases) for {duration:.1f}s ..."
    )
    run = cyber_range.run_scenario(scenario, duration)
    print(run.after_action_report())
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(run.to_dict(), handle, indent=2)
        print(f"structured report written to {args.report}")
    return 0 if run.passed else 1


def _campaign_families(args: argparse.Namespace):
    return [
        name.strip() for name in args.families.split(",") if name.strip()
    ] or None


def _run_campaign(model: SgmlModelSet, args: argparse.Namespace) -> int:
    """Build the sweep (catalog or spec dir), validate or run, report."""
    from repro.scenario import Campaign

    kwargs = {"reuse_range": bool(args.reuse_range)}
    if args.specs:
        campaign = Campaign.from_spec_dir(model, args.specs, **kwargs)
    else:
        campaign = Campaign.from_catalog(
            model,
            families=_campaign_families(args),
            max_sites=max(1, args.sites),
            **kwargs,
        )
    if args.dry_run:
        report = campaign.dry_run()
    else:
        workers = campaign.workers_for(args.workers, args.per_run_timeout)
        print(
            f"running campaign: {len(campaign.scenarios)} scenarios, "
            f"{'reused' if args.reuse_range else 'fresh'} range per run, "
            f"{workers} worker{'s' if workers != 1 else ''} ..."
        )
        report = campaign.run(workers, args.per_run_timeout)
    print(report.summary())
    if args.report:
        report.write_json(args.report)
        print(f"aggregate report written to {args.report}")
    return 0 if report.passed else 1


def _run_matrix(args: argparse.Namespace) -> int:
    """Cross-model matrix sweep: model sets x families in one report."""
    import os
    import tempfile

    from repro.scenario.campaign import resolve_workers, run_matrix

    if args.dry_run or args.reuse_range or args.specs:
        print(
            "error: --matrix sweeps generated catalogs on fresh ranges; "
            "it does not combine with --dry-run, --reuse-range or --specs",
            file=sys.stderr,
        )
        return 1
    model_sets = []
    for token in (t.strip() for t in args.matrix.split(",")):
        if not token:
            continue
        if token == "epic":
            directory = generate_epic_model(
                tempfile.mkdtemp(prefix="sgml-matrix-epic-")
            )
        elif token == "scaleout":
            directory = generate_scaleout_model(
                tempfile.mkdtemp(prefix="sgml-matrix-scaleout-"),
                substations=args.scaleout_substations,
                total_ieds=args.scaleout_ieds,
            )
        elif os.path.isdir(token):
            directory = token
        else:
            print(
                f"error: matrix entry {token!r} is neither a builtin "
                f"(epic, scaleout) nor a model directory",
                file=sys.stderr,
            )
            return 1
        model_sets.append((token, SgmlModelSet.from_directory(directory)))
    workers = resolve_workers(args.workers)
    print(
        f"running matrix sweep: {len(model_sets)} model sets, "
        f"{workers} worker{'s' if workers != 1 else ''} ..."
    )
    report = run_matrix(
        model_sets,
        families=_campaign_families(args),
        max_sites=max(1, args.sites),
        workers=workers,
        per_run_timeout_s=args.per_run_timeout,
    )
    print(report.summary())
    if args.report:
        report.write_json(args.report)
        print(f"matrix report written to {args.report}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
