"""Command-line interface: ``python -m repro <command>``.

The `make`-target surface of CFU Playground, for this reproduction:

- ``projects``            — list the registered projects;
- ``build PROJECT``       — build a project (fit, link, estimate, emit
  CFU Verilog + serialized model into --out);
- ``profile PROJECT``     — per-operator cycle profile;
- ``golden PROJECT``      — run the full-inference golden test;
- ``ladder fig4|fig6``    — replay an optimization ladder;
- ``dse``                 — run the Fig. 7 design-space exploration;
- ``menu PROJECT``        — drive the firmware menu (one selection).
"""

from __future__ import annotations

import argparse
import sys


def _cmd_projects(args):
    from .core.project import list_projects

    for name, description in list_projects().items():
        print(f"{name:18s} {description}")
    return 0


def _cmd_build(args):
    from .core.project import load_project

    project = load_project(args.project)
    artifacts = project.build(output_dir=args.out)
    print(artifacts.fit.summary())
    print(artifacts.layout.summary())
    print(artifacts.estimate.summary(split_conv_1x1=True))
    if artifacts.verilog_path:
        print(f"CFU Verilog: {artifacts.verilog_path}")
    if artifacts.model_path:
        print(f"model container: {artifacts.model_path}")
    return 0 if artifacts.ok else 1


def _cmd_profile(args):
    from .core.project import load_project

    project = load_project(args.project)
    if args.simulate:
        from .core.simprofile import ProfileDriftError

        try:
            sim = project.profile(simulate=True, budget=args.budget)
        except ProfileDriftError as error:
            print(f"error: {args.project}: {error}", file=sys.stderr)
            return 1
        print(sim.summary())
        if args.folded_out:
            count = sim.export_folded(args.folded_out)
            print(f"wrote {count} folded stacks to {args.folded_out}")
        if args.metrics_out:
            telemetry = project.playground.telemetry
            sim.export_metrics(telemetry, project=args.project)
            count = telemetry.export_jsonl(args.metrics_out)
            print(f"wrote {count} telemetry records to {args.metrics_out}")
        return 0
    estimate = project.profile()
    print(estimate.summary(split_conv_1x1=True))
    if args.per_op:
        print(estimate.per_op_table())
    return 0


def _cmd_golden(args):
    from .core.project import load_project

    project = load_project(args.project)
    project.golden_test()
    print(f"{args.project}: golden test PASSED")
    return 0


def _cmd_ladder(args):
    from .core.ladders import (
        kws_initial_state,
        kws_ladder,
        mnv2_1x1_filter,
        mnv2_initial_state,
        mnv2_ladder,
        run_ladder,
    )

    if args.figure == "fig4":
        state = mnv2_initial_state()
        results = run_ladder(mnv2_ladder(), state,
                             op_filter=mnv2_1x1_filter(state.model))
    else:
        results = run_ladder(kws_ladder(), kws_initial_state())
    for result in results:
        print(result.row())
    return 0


def _cmd_dse(args):
    from .core.telemetry import Telemetry
    from .dse import run_fig7, total_space_size, trace_summary

    print(f"design space: {total_space_size():,} points")
    if args.service_url:
        return _dse_via_service(args)
    telemetry = Telemetry()
    result = run_fig7(trials_per_family=args.trials, seed=args.seed,
                      workers=args.workers, batch=args.batch,
                      cache_dir=args.cache_dir, telemetry=telemetry)
    print(result.summary())
    print()
    print(trace_summary(telemetry))
    if args.trace_out:
        records = telemetry.export_jsonl(args.trace_out)
        print(f"trace written to {args.trace_out} ({records} records)")
    return 0


def _dse_via_service(args):
    from .dse import run_fig7_service

    result, info = run_fig7_service(
        service_url=args.service_url, trials_per_family=args.trials,
        seed=args.seed, workers=args.workers, batch=args.batch,
        cache_dir=args.cache_dir)
    print(result.summary())
    print()
    print(f"service run: {info['trials_completed']} trials in "
          f"{info['elapsed_seconds']:.2f}s "
          f"({info['trials_per_sec']:.1f} trials/sec), "
          f"{info['cache_hits']} cache hits, "
          f"{info['evaluations']} evaluations, "
          f"{info['client_retries']} transport retries")
    return 0


def _cmd_dse_exhaustive(args):
    from .dse import CFU_FAMILIES, search_regret, sweep

    families = args.families or CFU_FAMILIES
    result = sweep(families=families)
    print(result.summary())
    if args.store_dir:
        from .dse import DseService, run_exhaustive_service
        from .dse.exhaustive import DEFAULT_CHUNK

        service = DseService(store_dir=args.store_dir)
        _, studies = run_exhaustive_service(
            service, sweeper=result.sweeper, families=families,
            chunk=args.chunk or DEFAULT_CHUNK)
        for study in studies:
            status = study.status()
            print(f"recorded {study.study_id}: {status['state']} "
                  f"{status['completed']}/{status['budget']} trials")
    if args.regret_trials:
        from .dse import run_fig7

        searched = [family for family in families if family in CFU_FAMILIES]
        search = (run_fig7(trials_per_family=args.regret_trials,
                           seed=args.seed) if searched else None)
        print()
        for family in families:
            if family not in searched:
                print(f"{family}: no regret, RegularizedEvolution "
                      f"searches only {', '.join(CFU_FAMILIES)}")
                continue
            exact = result.front_metrics(family)
            found = [(p.cycles, p.logic_cells)
                     for p in search.family_front(family)]
            regret = search_regret(exact, found)
            print(f"{family}: RegularizedEvolution@{args.regret_trials} "
                  f"hypervolume regret {regret:.4f} "
                  f"(front {len(found)} vs exact {len(exact)})")
    print()
    for family in families:
        print(f"exact {family} front (cycles, logic_cells):")
        for point in result.front_points(family):
            print(f"  {point.cycles:>16,.1f}  {point.logic_cells:>6,}")
    return 0


def _cmd_dse_characterize(args):
    import json

    from .dse import characterization_targets, characterize_cfu

    targets = characterization_targets()
    if args.list or not args.cfu:
        for name in sorted(targets):
            print(name)
        return 0
    if args.cfu not in targets:
        print(f"unknown CFU {args.cfu!r}; choose from: "
              f"{', '.join(sorted(targets))}", file=sys.stderr)
        return 1
    target = targets[args.cfu]
    envelope = characterize_cfu(target.factory(), target.opcodes,
                                ops=args.ops, seed=args.seed,
                                setup=target.setup)
    print(envelope.summary())
    if args.json_out:
        with open(args.json_out, "w") as handle:
            json.dump(envelope.to_record(), handle, indent=2)
            handle.write("\n")
        print(f"envelope written to {args.json_out}")
    return 0


def _cmd_dse_serve(args):
    from .dse import DseService, serve

    service = DseService(store_dir=args.store_dir,
                         lease_seconds=args.lease_seconds)
    resumed = [name for name, study in sorted(service.studies.items())]
    if resumed:
        print(f"resumed {len(resumed)} studies from {args.store_dir}:")
        for name in resumed:
            status = service.studies[name].status()
            print(f"  {name}: {status['state']} "
                  f"{status['completed']}/{status['budget']} trials")
    print(f"serving the DSE study service on "
          f"http://{args.host}:{args.port} "
          f"(store: {args.store_dir or 'in-memory'})")
    serve(service, host=args.host, port=args.port)
    return 0


def _cmd_dse_work(args):
    from .dse import run_worker

    stats = run_worker(args.url, worker_id=args.worker_id,
                       cache_dir=args.cache_dir,
                       poll_interval=args.poll_interval,
                       max_trials=args.max_trials)
    print(f"worker {args.worker_id}: {stats.completed} completed "
          f"({stats.cache_hits} cache hits, {stats.infeasible} infeasible, "
          f"{stats.stale_leases} stale leases)")
    return 0


def _session_manager(args):
    """The fleet ``repro sessions serve`` serves.  ``--compile-cache-dir``
    points the process-wide code cache at its directory, so translated
    blocks, RTL modules and their transactions share one store."""
    from .core import codecache
    from .emu.sessions import SessionManager

    if args.compile_cache_dir:
        codecache.configure(args.compile_cache_dir)
    return SessionManager(max_sessions=args.max_sessions,
                          compile_cache=True)


def _cmd_sessions_serve(args):
    from .emu.sessions import serve

    manager = _session_manager(args)
    cache_label = manager.compile_cache.cache_dir or "in-memory"
    print(f"serving the emulation session fleet on "
          f"http://{args.host}:{args.port} "
          f"(max {args.max_sessions} sessions, "
          f"compile cache: {cache_label})")
    serve(manager, host=args.host, port=args.port)
    return 0


def _cmd_report(args):
    from .core.reporting import generate_report

    text = generate_report(path=args.out, include_dse=args.dse,
                           dse_trials=args.trials)
    if args.out:
        print(f"report written to {args.out}")
    else:
        print(text)
    return 0


def _cmd_menu(args):
    from .core.menu import build_firmware_menu
    from .core.project import load_project

    project = load_project(args.project)
    root, console = build_firmware_menu(project.playground)
    root.render()
    node = root
    for key in args.select or []:
        result = node.select(key)
        from .core.menu import Menu

        if isinstance(result, Menu):
            node = result
    sys.stdout.write(console.text())
    return 0


def _family_list(text):
    from .dse.runner import ALL_CFU_FAMILIES

    families = tuple(text.split(","))
    unknown = [family for family in families
               if family not in ALL_CFU_FAMILIES]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown CFU families {', '.join(map(repr, unknown))}; "
            f"choose from {', '.join(ALL_CFU_FAMILIES)}")
    return families


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CFU Playground reproduction: full-stack TinyML "
                    "acceleration on (simulated) FPGAs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("projects", help="list registered projects") \
        .set_defaults(func=_cmd_projects)

    build = sub.add_parser("build", help="build a project")
    build.add_argument("project")
    build.add_argument("--out", default=None,
                       help="write artifacts (Verilog, model, report) here")
    build.set_defaults(func=_cmd_build)

    profile = sub.add_parser("profile", help="profile a project")
    profile.add_argument("project")
    profile.add_argument("--per-op", action="store_true")
    profile.add_argument("--simulate", action="store_true",
                         help="cross-validate the estimate on the ISA "
                              "simulator (drift-checked)")
    profile.add_argument("--budget", type=_positive_int, default=None,
                         help="simulated instructions per opcode class "
                              "(default 40,000); a small budget "
                              "over-weights fixed per-primitive costs and "
                              "can fail the drift check")
    profile.add_argument("--folded-out", default=None,
                         help="write flamegraph folded stacks here "
                              "(with --simulate)")
    profile.add_argument("--metrics-out", default=None,
                         help="write the run's telemetry here as JSON "
                              "Lines (with --simulate)")
    profile.set_defaults(func=_cmd_profile)

    golden = sub.add_parser("golden", help="run a project's golden test")
    golden.add_argument("project")
    golden.set_defaults(func=_cmd_golden)

    ladder = sub.add_parser("ladder", help="replay an optimization ladder")
    ladder.add_argument("figure", choices=("fig4", "fig6"))
    ladder.set_defaults(func=_cmd_ladder)

    dse = sub.add_parser(
        "dse", help="run the Fig. 7 DSE (see also: dse serve, dse work)")
    dse.add_argument("--trials", type=int, default=60,
                     help="trials per CFU family")
    dse.add_argument("--seed", type=int, default=0)
    dse.add_argument("--workers", type=_positive_int, default=1,
                     help="processes to shard evaluation batches across "
                          "(with --service-url: local worker threads "
                          "joining the service pool)")
    dse.add_argument("--batch", type=_positive_int, default=None,
                     help="trials per scheduling round (default 8; "
                          "independent of --workers, so results are "
                          "identical serial or parallel)")
    dse.add_argument("--cache-dir", default=None,
                     help="persistent evaluation cache; warm reruns "
                          "re-evaluate nothing")
    dse.add_argument("--trace-out", default=None,
                     help="write a JSONL trace (trial spans, progress "
                          "events, counters) here")
    dse.add_argument("--service-url", default=None,
                     help="run through a DSE study service (repro dse "
                          "serve) instead of in-process: submits the "
                          "three Fig. 7 studies and joins local workers "
                          "to its pool; the Pareto fronts are identical "
                          "to the in-process engine")
    dse.set_defaults(func=_cmd_dse)

    dse_sub = dse.add_subparsers(dest="dse_command")
    dse_exhaustive = dse_sub.add_parser(
        "exhaustive",
        help="tensorized whole-space sweep: exact Fig. 7 Pareto fronts")
    dse_exhaustive.add_argument(
        "--families", type=_family_list, default=None,
        help="comma-separated CFU families (default: none,cfu1,cfu2; "
             "winograd is opt-in)")
    dse_exhaustive.add_argument(
        "--store-dir", default=None,
        help="also stream the sweep through a study service store "
             "at this path (resumable, queryable)")
    dse_exhaustive.add_argument("--chunk", type=_positive_int, default=None,
                                help="trials per completion batch when "
                                     "streaming to a store")
    dse_exhaustive.add_argument(
        "--regret-trials", type=int, default=0,
        help="also run RegularizedEvolution with this budget per family "
             "and report its hypervolume regret vs the exact front "
             "(not for winograd, which it does not search)")
    dse_exhaustive.add_argument("--seed", type=int, default=0,
                                help="seed for the --regret-trials search")
    dse_exhaustive.set_defaults(func=_cmd_dse_exhaustive)
    dse_char = dse_sub.add_parser(
        "characterize",
        help="measure a CFU's latency envelope across operand classes "
             "on its gateware")
    dse_char.add_argument("cfu", nargs="?", default=None,
                          help="CFU name (omit or use --list to see them)")
    dse_char.add_argument("--list", action="store_true",
                          help="list characterizable CFUs and exit")
    dse_char.add_argument("--ops", type=_positive_int, default=16,
                          help="measured ops per (opcode, class) lane")
    dse_char.add_argument("--seed", type=int, default=0)
    dse_char.add_argument("--json-out", default=None,
                          help="also write the envelope as JSON here")
    dse_char.set_defaults(func=_cmd_dse_characterize)
    dse_serve = dse_sub.add_parser(
        "serve", help="serve the study/trial HTTP API (crash-safe, "
                      "resumable studies)")
    dse_serve.add_argument("--host", default="127.0.0.1")
    dse_serve.add_argument("--port", type=int, default=8733)
    dse_serve.add_argument("--store-dir", default=None,
                           help="persistent sharded study store; a "
                                "restarted server resumes every study "
                                "from it")
    dse_serve.add_argument("--lease-seconds", type=float, default=60.0,
                           help="worker lease before an in-flight trial "
                                "is re-issued")
    dse_serve.set_defaults(func=_cmd_dse_serve)

    dse_work = dse_sub.add_parser(
        "work", help="run one evaluation worker against a service")
    dse_work.add_argument("--url", default="http://127.0.0.1:8733")
    dse_work.add_argument("--worker-id", default="worker-0")
    dse_work.add_argument("--cache-dir", default=None,
                          help="shared content-addressed evaluation "
                               "cache (zero re-simulation on warm runs)")
    dse_work.add_argument("--poll-interval", type=float, default=0.05)
    dse_work.add_argument("--max-trials", type=int, default=None,
                          help="stop after this many claims (default: "
                               "run until every study is done)")
    dse_work.set_defaults(func=_cmd_dse_work)

    sessions = sub.add_parser(
        "sessions", help="the emulation session fleet (warm machines, "
                         "COW snapshots, shared compile cache)")
    sessions_sub = sessions.add_subparsers(dest="sessions_command",
                                           required=True)
    sessions_serve = sessions_sub.add_parser(
        "serve", help="serve warm emulator sessions over HTTP "
                      "(create/load/run/snapshot/restore/profile)")
    sessions_serve.add_argument("--host", default="127.0.0.1")
    sessions_serve.add_argument("--port", type=int, default=8744)
    sessions_serve.add_argument("--max-sessions", type=_positive_int,
                                default=32,
                                help="live sessions kept resident before "
                                     "LRU eviction")
    sessions_serve.add_argument("--compile-cache-dir", default=None,
                                help="persistent block/RTL compile cache "
                                     "directory (default: the process-wide "
                                     "cache, REPRO_CODECACHE_DIR-aware); "
                                     "its entries are exec'd, so it is "
                                     "trusted as code: use a directory "
                                     "only you can write")
    sessions_serve.set_defaults(func=_cmd_sessions_serve)

    rep = sub.add_parser("report",
                         help="generate the full experiment report")
    rep.add_argument("--out", default=None)
    rep.add_argument("--dse", action="store_true",
                     help="include a Fig. 7 DSE pass")
    rep.add_argument("--trials", type=int, default=45)
    rep.set_defaults(func=_cmd_report)

    menu = sub.add_parser("menu", help="drive the firmware menu")
    menu.add_argument("project")
    menu.add_argument("--select", nargs="*",
                      help="menu keys to press in order, e.g. 1 g")
    menu.set_defaults(func=_cmd_menu)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
