"""Command-line driver: map C onto an FPFA tile, or explore tiles.

Seven subcommands::

    fpfa-map map program.c [--listing] [--schedule] [--cdfg]
             [--profile] [--dot out.dot] [--pps N] [--buses N]
             [--library two-level|single-op|mac] [--balance]
             [--tiles N] [--topology crossbar|ring|mesh]
             [--hop-latency N] [--hop-energy E] [--link-bandwidth N]
             [--verify-seed SEED] [--json out.json]

    fpfa-map explore program.c [--kernel NAME] [--sweep DIM=V1,V2,..]
             [--pps LIST] [--buses LIST] [--libraries LIST]
             [--tiles LIST] [--topologies LIST]
             [--balance off|on|both] [--strategy exhaustive|random|hill]
             [--samples N] [--workers N] [--cache DIR]
             [--cache-max-entries N] [--cache-max-bytes N]
             [--remote URL] [--chunk-size N]
             [--objectives LIST] [--verify-seed SEED] [--json out.json]

    fpfa-map serve  [--host H] [--port P] [--workers N]
             [--worker-mode process|thread] [--store DIR]
             [--store-max-entries N] [--store-max-bytes N]

    fpfa-map cache  stats|fsck|gc|clear DIR
             [--max-entries N] [--max-bytes N] [--json PATH]

    fpfa-map submit program.c [map flags] [--host H] [--port P]
             [--no-wait] [--timeout S] [--json PATH]

    fpfa-map jobs   [--host H] [--port P] [--job ID] [--follow]
             [--state STATE] [--json PATH]

    fpfa-map trace  record <explore flags> [--trace-log PATH]
             | export --log PATH [--out PATH] [--remote URL]
             | report --log PATH
             | critical-path --log PATH [--trace ID] [--json]

(See ``docs/cli.md`` for the full flag reference,
``docs/service.md`` for the daemon protocol and
``docs/observability.md`` for distributed tracing.)

``map`` preserves the original single-point behaviour (and plain
``fpfa-map program.c`` still works — a missing subcommand defaults to
``map``): it prints the mapping summary (clusters, levels, cycles,
locality) and, on request, CDFG statistics, the level schedule, the
per-cycle listing, Graphviz output and an interpreter-verification
run.  ``--json`` additionally dumps the full metric dict for scripts;
``--json -`` writes *only* the JSON to stdout (the human-readable
output moves to stderr), so shell pipelines can consume reports
without temp files.

``explore`` sweeps the design space with :mod:`repro.dse`: it builds
a space from ``--sweep``/shortcut flags (default: the stock PP x bus
x library grid), evaluates it on a worker process pool with an
optional persistent result cache, and reports the Pareto frontier
plus the scalarised best point.

``serve``/``submit``/``jobs`` are the :mod:`repro.service` surface:
a persistent mapping daemon, a submission client whose output is
bit-identical to ``map --json``, and a job inspector.
"""

from __future__ import annotations

import argparse
import functools
import json
import os.path
import sys

from repro.arch.templates import TemplateLibrary
from repro.arch.tilearray import TOPOLOGIES
from repro.cdfg.dot import to_dot
from repro.core.pipeline import (
    compile_frontend,
    map_frontend,
    random_input_state,
    verify_mapping,
)
from repro.eval.metrics import mapping_metrics, multitile_metrics
from repro.lang.errors import SourceError

SUBCOMMANDS = ("map", "explore", "serve", "submit", "jobs",
               "cache", "trace")


# ---------------------------------------------------------------------------
# Parser construction
# ---------------------------------------------------------------------------

def _add_point_arguments(parser: argparse.ArgumentParser) -> None:
    """The flags selecting one mapping configuration — shared
    verbatim by ``map`` (offline) and ``submit`` (via the daemon), so
    the two surfaces cannot drift apart."""
    parser.add_argument("file", help="C source file (use '-' for stdin)")
    parser.add_argument("--pps", type=int, default=5,
                        help="processing parts per tile (default 5)")
    parser.add_argument("--buses", type=int, default=10,
                        help="crossbar buses per cycle (default 10)")
    parser.add_argument("--library", default="two-level",
                        choices=sorted(TemplateLibrary.stock()),
                        help="ALU data-path template library")
    parser.add_argument("--balance", action="store_true",
                        help="reassociate accumulation chains into "
                             "balanced trees (shorter critical path)")
    parser.add_argument("--tiles", type=int, default=None, metavar="N",
                        help="run the multi-tile stage: partition the "
                             "clustered graph over N tiles (--tiles 1 "
                             "keeps metrics identical to the "
                             "single-tile flow)")
    parser.add_argument("--topology", default="crossbar",
                        choices=TOPOLOGIES,
                        help="tile-array interconnect (default "
                             "crossbar)")
    parser.add_argument("--hop-latency", type=int, default=1,
                        metavar="N",
                        help="scheduling steps per link hop "
                             "(default 1)")
    parser.add_argument("--hop-energy", type=float, default=6.0,
                        metavar="E",
                        help="energy units per word per hop "
                             "(default 6)")
    parser.add_argument("--link-bandwidth", type=int, default=1,
                        metavar="N",
                        help="words per link per step (default 1)")
    parser.add_argument("--verify-seed", type=int, default=None,
                        metavar="SEED",
                        help="verify program vs interpreter with random "
                             "inputs from SEED")


def _add_service_arguments(parser: argparse.ArgumentParser) -> None:
    """Daemon address flags shared by submit and jobs."""
    from repro.service.protocol import DEFAULT_HOST, DEFAULT_PORT
    parser.add_argument("--host", default=DEFAULT_HOST,
                        help=f"daemon host (default {DEFAULT_HOST})")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT,
                        help=f"daemon port (default {DEFAULT_PORT})")


def _add_map_arguments(parser: argparse.ArgumentParser) -> None:
    _add_point_arguments(parser)
    parser.add_argument("--listing", action="store_true",
                        help="print the per-cycle program")
    parser.add_argument("--schedule", action="store_true",
                        help="print the level schedule (Fig. 4 style)")
    parser.add_argument("--gantt", action="store_true",
                        help="print ASCII occupancy charts (schedule "
                             "and per-cycle program)")
    parser.add_argument("--cdfg", action="store_true",
                        help="print CDFG statistics before/after "
                             "simplification")
    parser.add_argument("--profile", action="store_true",
                        help="print a per-stage wall-time breakdown "
                             "(parse, transforms, cluster, schedule, "
                             "allocate, verify)")
    parser.add_argument("--dot", metavar="PATH",
                        help="write the minimised CDFG as Graphviz DOT")
    parser.add_argument("--json", metavar="PATH", dest="json_path",
                        help="dump the mapping metrics as JSON "
                             "('-' for pure-JSON stdout; the "
                             "human-readable output then moves to "
                             "stderr)")


def _add_serve_arguments(parser: argparse.ArgumentParser) -> None:
    from repro.service.protocol import DEFAULT_HOST, DEFAULT_PORT
    parser.add_argument("--host", default=DEFAULT_HOST,
                        help=f"bind address (default {DEFAULT_HOST}; "
                             "the protocol is unauthenticated — keep "
                             "it on loopback or behind a proxy)")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT,
                        help=f"bind port (default {DEFAULT_PORT}, "
                             "0 picks a free one)")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker pool size / max concurrent jobs "
                             "(default: CPU count)")
    parser.add_argument("--worker-mode", default="process",
                        choices=("process", "thread"),
                        help="worker pool kind (default process; "
                             "thread keeps jobs in this process)")
    parser.add_argument("--store", metavar="DIR", default=None,
                        help="artifact store directory — shares its "
                             "format and keys with `explore --cache` "
                             "(default: a per-run temp dir)")
    parser.add_argument("--store-max-entries", type=int, default=None,
                        metavar="N",
                        help="bound the store to N records; the "
                             "least recently accessed are evicted "
                             "(default: unbounded)")
    parser.add_argument("--store-max-bytes", type=int, default=None,
                        metavar="N",
                        help="bound the store to N bytes of records "
                             "(LRU eviction; default: unbounded)")
    parser.add_argument("--max-queue", type=int, default=1024,
                        help="queued-job depth bound; beyond it "
                             "submissions get HTTP 503 (default 1024)")


def _add_submit_arguments(parser: argparse.ArgumentParser) -> None:
    _add_point_arguments(parser)
    _add_service_arguments(parser)
    parser.add_argument("--no-wait", action="store_true",
                        help="submit and print the job id instead of "
                             "waiting for the result")
    parser.add_argument("--timeout", type=float, default=300.0,
                        metavar="S",
                        help="seconds to wait for the result "
                             "(default 300)")
    parser.add_argument("--json", metavar="PATH", dest="json_path",
                        default="-",
                        help="where to write the result payload "
                             "(default '-': stdout, bit-identical to "
                             "`map --json -`)")


def _add_jobs_arguments(parser: argparse.ArgumentParser) -> None:
    _add_service_arguments(parser)
    parser.add_argument("--job", metavar="ID", default=None,
                        help="show one job in full instead of the "
                             "overview table")
    parser.add_argument("--follow", action="store_true",
                        help="with --job: stream its progress events "
                             "(NDJSON) until it finishes")
    parser.add_argument("--state", default=None,
                        choices=("queued", "running", "done",
                                 "failed"),
                        help="filter the overview by state")
    parser.add_argument("--json", metavar="PATH", dest="json_path",
                        help="dump the raw job view(s) as JSON "
                             "('-' for stdout)")


def _add_explore_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("file", nargs="?",
                        help="C source file ('-' for stdin); or use "
                             "--kernel")
    parser.add_argument("--kernel", metavar="NAME",
                        help="explore a stock kernel from the suite "
                             "instead of a file (e.g. fir16)")
    parser.add_argument("--sweep", action="append", default=[],
                        metavar="DIM=V1,V2,..",
                        help="add one dimension: a TileParams field, "
                             "'library', or a map option (balance); "
                             "repeatable")
    parser.add_argument("--pps", metavar="LIST",
                        help="shortcut for --sweep n_pps=LIST")
    parser.add_argument("--buses", metavar="LIST",
                        help="shortcut for --sweep n_buses=LIST")
    parser.add_argument("--libraries", metavar="LIST",
                        help="shortcut for --sweep library=LIST")
    parser.add_argument("--tiles", metavar="LIST",
                        help="shortcut for --sweep tiles=LIST "
                             "(sweeps the multi-tile partitioning "
                             "stage over tile counts)")
    parser.add_argument("--topologies", metavar="LIST",
                        help="shortcut for --sweep topology=LIST "
                             "(crossbar, ring, mesh)")
    parser.add_argument("--balance", choices=("off", "on", "both"),
                        default=None,
                        help="sweep the accumulation-balancing "
                             "transform (both = off and on)")
    parser.add_argument("--strategy", default="exhaustive",
                        choices=("exhaustive", "random", "hill"),
                        help="search strategy (default exhaustive)")
    parser.add_argument("--samples", type=int, default=64,
                        help="points for --strategy random")
    parser.add_argument("--max-steps", type=int, default=32,
                        help="steps per climb for --strategy hill")
    parser.add_argument("--restarts", type=int, default=2,
                        help="restarts for --strategy hill")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for random/hill strategies")
    parser.add_argument("--workers", type=int, default=None,
                        help="pool processes (default: CPU count)")
    parser.add_argument("--cache", metavar="DIR",
                        help="persistent result-cache directory "
                             "(repeated sweeps skip re-mapping)")
    parser.add_argument("--cache-max-entries", type=int, default=None,
                        metavar="N",
                        help="with --cache: bound the cache to N "
                             "records (LRU eviction; the sweep "
                             "result is unaffected)")
    parser.add_argument("--cache-max-bytes", type=int, default=None,
                        metavar="N",
                        help="with --cache: bound the cache to N "
                             "bytes of records (LRU eviction)")
    parser.add_argument("--remote", action="append", default=[],
                        metavar="URL",
                        help="run the sweep on one running "
                             "`fpfa-map serve` daemon (chunks whose "
                             "lease fails are evaluated locally — "
                             "records stay bit-identical to a local "
                             "sweep)")
    parser.add_argument("--chunk-size", type=int, default=8,
                        metavar="N",
                        help="points per remote lease with --remote "
                             "(default 8)")
    parser.add_argument("--objectives", default="cycles,energy,resource",
                        metavar="LIST",
                        help="minimised objectives; metric names, "
                             "'resource', or '-metric' to maximise "
                             "(write --objectives=-metric,.. so the "
                             "leading '-' is not read as a flag; "
                             "default cycles,energy,resource)")
    parser.add_argument("--verify-seed", type=int, default=None,
                        metavar="SEED",
                        help="verify every fresh mapping against the "
                             "interpreter with inputs from SEED")
    parser.add_argument("--table", action="store_true",
                        help="print the full sweep table, not just "
                             "the frontier")
    parser.add_argument("--json", metavar="PATH", dest="json_path",
                        help="dump records, frontier, best and stats "
                             "as JSON ('-' for stdout)")


def _add_trace_arguments(parser: argparse.ArgumentParser) -> None:
    sub = parser.add_subparsers(dest="trace_command", required=True)
    record = sub.add_parser(
        "record",
        help="run `explore` with the flight recorder on: every span "
             "streams to an NDJSON log, the remote daemon's spans "
             "with each lease's results")
    _add_explore_arguments(record)
    record.add_argument("--trace-log", metavar="PATH", default=None,
                        help="where to write the NDJSON trace log "
                             "(default: trace-log.ndjson beside "
                             "--cache, or in the working directory)")
    export = sub.add_parser(
        "export",
        help="render a trace log as Chrome trace_event JSON "
             "(loadable in Perfetto / chrome://tracing)")
    export.add_argument("--log", required=True, metavar="PATH",
                        help="the NDJSON trace log to export")
    export.add_argument("--out", default="-", metavar="PATH",
                        help="output path for the trace_event JSON "
                             "(default '-': stdout)")
    report = sub.add_parser(
        "report",
        help="per-span-name rollup (count/total/mean/min/max) of a "
             "trace log")
    report.add_argument("--log", required=True, metavar="PATH",
                        help="the NDJSON trace log to summarise")
    report.add_argument("--json", metavar="PATH", dest="json_path",
                        help="dump the rollup table as JSON "
                             "('-' for stdout)")
    critical = sub.add_parser(
        "critical-path",
        help="attribute a recorded sweep's wall time across phases "
             "(queue wait, frontend compile, point evaluation, "
             "lease round-trips)")
    critical.add_argument("--log", required=True, metavar="PATH",
                          help="the NDJSON trace log to analyse")
    critical.add_argument("--trace", default=None, metavar="ID",
                          help="pin the analysis to one trace id "
                               "(default: the longest recorded "
                               "sweep)")
    critical.add_argument("--json", dest="json_out",
                          action="store_true",
                          help="print the attribution report as "
                               "JSON instead of the table")


def _add_cache_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("action",
                        choices=("stats", "fsck", "gc", "clear"),
                        help="stats: counters and totals; fsck: "
                             "remove corpses, prune empty shards and "
                             "recount; gc: enforce the given "
                             "bounds now; clear: delete every record")
    parser.add_argument("dir", metavar="DIR",
                        help="the store directory (an `explore "
                             "--cache` or `serve --store` path)")
    parser.add_argument("--max-entries", type=int, default=None,
                        metavar="N",
                        help="for gc: evict down to N records (LRU)")
    parser.add_argument("--max-bytes", type=int, default=None,
                        metavar="N",
                        help="for gc: evict down to N bytes (LRU)")
    parser.add_argument("--json", metavar="PATH", dest="json_path",
                        help="dump the report as JSON "
                             "('-' for stdout)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fpfa-map",
        description="Map a C-subset program onto one FPFA tile, or "
                    "explore the tile design space (reproduction of "
                    "Rosien et al., DATE 2003).")
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_map_arguments(subparsers.add_parser(
        "map", help="map one program onto one tile configuration"))
    _add_explore_arguments(subparsers.add_parser(
        "explore", help="sweep tile configurations with repro.dse"))
    _add_serve_arguments(subparsers.add_parser(
        "serve", help="run the mapping daemon (repro.service)"))
    _add_submit_arguments(subparsers.add_parser(
        "submit", help="submit one mapping job to a running daemon"))
    _add_jobs_arguments(subparsers.add_parser(
        "jobs", help="inspect a running daemon's jobs"))
    _add_cache_arguments(subparsers.add_parser(
        "cache", help="inspect or maintain a result-cache / "
                      "artifact-store directory"))
    _add_trace_arguments(subparsers.add_parser(
        "trace", help="record, export and analyse distributed "
                      "traces (repro.obs)"))
    return parser


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

def _read_source(path: str) -> str:
    """The C source at *path* (``-`` reads stdin); a blank one is
    refused here, so `map`, `submit` and `explore` say the same."""
    if path == "-":
        source = sys.stdin.read()
    else:
        with open(path, encoding="utf-8") as handle:
            source = handle.read()
    if not source.strip():
        name = "<stdin>" if path == "-" else path
        raise SystemExit(f"{name}: no C source (the file is empty)")
    return source


def _dump_json(payload: dict, path: str) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if path == "-":
        print(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"\nwrote {path}")


# ---------------------------------------------------------------------------
# fpfa-map map
# ---------------------------------------------------------------------------

#: Canonical stage order for the --profile breakdown.
_PROFILE_STAGES = ("parse", "transforms", "taskgraph", "cluster",
                   "schedule", "allocate", "multitile", "verify")


def _render_profile(timings: dict[str, float]) -> str:
    """The --profile table: one line per stage, milliseconds, share.

    Known stages render in canonical pipeline order; any stage the
    pipeline grows later still shows up (appended, name order), so
    the shares always sum to the printed total.
    """
    total = sum(timings.values()) or 1e-12
    ordered = [stage for stage in _PROFILE_STAGES if stage in timings]
    ordered += sorted(set(timings) - set(_PROFILE_STAGES))
    lines = ["stage timings:"]
    for stage in ordered:
        seconds = timings[stage]
        lines.append(f"  {stage:<11} {seconds * 1e3:9.2f} ms "
                     f"({seconds / total:5.1%})")
    lines.append(f"  {'total':<11} {total * 1e3:9.2f} ms")
    return "\n".join(lines)


def _cmd_map(args: argparse.Namespace) -> int:
    from repro.service.protocol import (
        normalise_map_request,
        record_to_map_payload,
        request_point,
    )

    source = _read_source(args.file)
    name = "<stdin>" if args.file == "-" else args.file
    # With `--json -` stdout carries *only* the JSON payload (for
    # pipelines and the fleet tests); the human-readable
    # report moves to stderr.
    echo = functools.partial(print, file=sys.stderr) \
        if args.json_path == "-" else print
    try:
        # The daemon's own request validation: `map` and `submit`
        # configure one point the same way.
        point = request_point(
            normalise_map_request(_submit_request(args, source)))
        params = point.tile_params()
        array = point.tile_array_params()
    except ValueError as error:
        raise SystemExit(f"invalid configuration: {error}")
    library = point.template_library()
    try:
        frontend = compile_frontend(source, width=params.width,
                                    balance=args.balance)
    except SourceError as error:
        raise SystemExit(error.render(name))
    original_stats = frontend.original.stats()
    report = map_frontend(frontend, params, library, array=array)

    if args.cdfg:
        echo(f"CDFG before simplification: {original_stats}")
        echo(f"CDFG after  simplification: {report.minimised.stats()}")
        if report.pass_stats is not None:
            echo(f"passes: {report.pass_stats}")
        echo()
    echo(report.summary())
    metrics = mapping_metrics(report)
    echo(f"locality: {metrics['locality']:.0%}  "
         f"energy proxy: {metrics['energy']}")
    if report.multitile is not None:
        from repro.eval.report import multitile_table
        echo()
        echo(report.multitile.summary())
        echo()
        echo(multitile_table(report.multitile))
    if args.schedule:
        echo()
        echo(report.schedule.table())
        if report.multitile is not None and \
                report.multitile.n_tiles > 1:
            echo()
            echo(report.multitile.schedule.table())
    if args.gantt:
        from repro.viz import memory_map, program_gantt, schedule_gantt
        echo()
        echo(schedule_gantt(report.schedule, report.params.n_pps))
        echo()
        echo(program_gantt(report.program))
        echo()
        echo(memory_map(report.program))
    if args.listing:
        echo()
        echo(report.program.listing())
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(to_dot(report.minimised))
        echo(f"\nwrote {args.dot}")
    if args.verify_seed is not None:
        state = random_input_state(report, args.verify_seed)
        verify_mapping(report, state)
        echo(f"\nverified against the interpreter "
             f"(seed {args.verify_seed})")
    if args.profile:
        # Last, so that the verify stage is in the breakdown.
        echo()
        echo(_render_profile(report.timings))
    if args.json_path:
        if report.multitile is not None:
            metrics = {**metrics, **multitile_metrics(report)}
        payload = record_to_map_payload(
            {"config": point.assignment(), "metrics": metrics},
            file=args.file,
            want_verified=args.verify_seed is not None)
        _dump_json(payload, args.json_path)
    return 0


# ---------------------------------------------------------------------------
# fpfa-map explore
# ---------------------------------------------------------------------------

def _parse_value(text: str):
    lowered = text.strip().lower()
    if lowered in ("true", "on", "yes"):
        return True
    if lowered in ("false", "off", "no"):
        return False
    try:
        return int(text)
    except ValueError:
        return text.strip()


def _parse_value_list(text: str) -> list:
    return [_parse_value(item) for item in text.split(",")
            if item.strip()]


def _explore_space(args: argparse.Namespace):
    from repro.dse import DesignSpace
    from repro.dse.space import SpaceError

    dimensions: dict[str, list] = {}

    def set_dimension(name: str, values: list, flag: str) -> None:
        if name in dimensions:
            raise SystemExit(
                f"{flag} conflicts with an earlier --sweep/shortcut "
                f"for dimension {name!r}")
        dimensions[name] = values

    for spec in args.sweep:
        name, separator, values = spec.partition("=")
        if not separator or not values:
            raise SystemExit(
                f"--sweep expects DIM=V1,V2,.. got {spec!r}")
        set_dimension(name.strip(), _parse_value_list(values),
                      "--sweep")
    if args.pps:
        set_dimension("n_pps", _parse_value_list(args.pps), "--pps")
    if args.buses:
        set_dimension("n_buses", _parse_value_list(args.buses),
                      "--buses")
    if args.libraries:
        set_dimension("library", _parse_value_list(args.libraries),
                      "--libraries")
    if args.tiles:
        set_dimension("tiles", _parse_value_list(args.tiles),
                      "--tiles")
    if args.topologies:
        set_dimension("topology", _parse_value_list(args.topologies),
                      "--topologies")
    if args.balance == "both":
        set_dimension("balance", [False, True], "--balance")
    elif args.balance == "on":
        set_dimension("balance", [True], "--balance")
    elif args.balance == "off":
        set_dimension("balance", [False], "--balance")
    try:
        if not dimensions:
            return DesignSpace.default()
        return DesignSpace(dimensions)
    except SpaceError as error:
        raise SystemExit(str(error))


def _explore_source(args: argparse.Namespace) -> tuple[str, str]:
    if args.kernel and args.file:
        raise SystemExit(
            f"explore takes a file OR --kernel, not both (got "
            f"{args.file!r} and --kernel {args.kernel})")
    if args.kernel:
        from repro.eval.kernels import get_kernel
        try:
            kernel = get_kernel(args.kernel)
        except KeyError as error:
            raise SystemExit(error.args[0])
        return kernel.source, f"kernel {kernel.name}: {kernel.description}"
    if not args.file:
        raise SystemExit("explore needs a C file or --kernel NAME")
    return _read_source(args.file), args.file


def _check_objectives(objectives: list[str], space) -> None:
    """Reject unresolvable objective names *before* the sweep runs —
    a typo must not surface as a crash after minutes of mapping.
    The resolvability rule lives in
    :func:`repro.dse.space.allowed_objectives`."""
    from repro.dse.space import allowed_objectives

    if not objectives:
        raise SystemExit("--objectives needs at least one name")
    allowed = allowed_objectives(space)
    for name in objectives:
        base = name[1:] if name.startswith("-") else name
        if base not in allowed:
            raise SystemExit(
                f"unknown or unswept objective {base!r}; known here: "
                f"{', '.join(sorted(allowed))} (prefix with '-' to "
                f"maximise)")


def _cmd_explore(args: argparse.Namespace) -> int:
    from repro.dse import frontier_table, pareto_front
    from repro.dse.runner import SweepResult
    from repro.dse.search import STRATEGIES
    from repro.dse.space import DesignPoint
    from repro.eval.report import render_table

    source, workload = _explore_source(args)
    space = _explore_space(args)
    # `--json -`: stdout is pure JSON, human output moves to stderr.
    echo = functools.partial(print, file=sys.stderr) \
        if args.json_path == "-" else print
    objectives = [item.strip() for item in args.objectives.split(",")
                  if item.strip()]
    _check_objectives(objectives, space)
    strategy = STRATEGIES[args.strategy]
    run_kwargs = dict(cache=args.cache,
                      verify_seed=args.verify_seed)
    if args.cache_max_entries is not None \
            or args.cache_max_bytes is not None:
        if not args.cache:
            raise SystemExit("--cache-max-entries/--cache-max-bytes "
                             "need --cache DIR")
        run_kwargs.update(cache_max_entries=args.cache_max_entries,
                          cache_max_bytes=args.cache_max_bytes)
    if args.workers is not None:
        # Leave the key out otherwise: each strategy picks its own
        # default (hill-climb stays in-process, sweeps use all CPUs).
        run_kwargs["workers"] = args.workers
    if args.remote:
        if args.strategy == "hill":
            # Hill-climbing evaluates single points and tiny
            # neighbour batches incrementally; leasing those over
            # HTTP (with a daemon probe per batch) is strictly slower
            # than local evaluation — refuse rather than degrade.
            raise SystemExit(
                "--remote cannot shard --strategy hill (it explores "
                "in tiny sequential batches); use exhaustive or "
                "random, or drop --remote")
        remote = _remote_address(args.remote)
        if args.chunk_size < 1:
            raise SystemExit(
                f"--chunk-size must be >= 1, got {args.chunk_size}")
        run_kwargs.update(remotes=remote,
                          remote_chunk_size=args.chunk_size)
        echo(f"remote daemon: {remote}")
    if args.strategy == "random":
        extra = dict(n_samples=args.samples, seed=args.seed)
    elif args.strategy == "hill":
        extra = dict(max_steps=args.max_steps, restarts=args.restarts,
                     seed=args.seed)
    else:
        extra = {}

    echo(f"workload: {workload}")
    echo(space.describe())
    result = strategy(source, space, objectives=objectives,
                      **extra, **run_kwargs)
    echo(f"sweep: {result.stats.summary()}")
    echo()
    # Extract the front once; rendering an already-non-dominated set
    # through frontier_table is idempotent and cheap.
    front = pareto_front(result.records, objectives)
    echo(frontier_table(front, objectives))
    if args.table:
        table = SweepResult(records=result.records)
        echo()
        echo(render_table(table.rows(), title="All evaluated points"))
    echo()
    if result.best is not None:
        best_label = DesignPoint.from_dict(result.best["point"]).label()
        echo(f"best ({', '.join(objectives)}): {best_label}")
        echo(f"  metrics: {result.best['metrics']}")
    else:
        echo("best: no feasible point in the space")
    failures = [record for record in result.records
                if not record["ok"]]
    if failures:
        echo(f"{len(failures)} point(s) failed; first: "
             f"{failures[0]['error']}")
    exit_code = 0 if result.best is not None else 1
    if args.json_path:
        # stats.as_dict() is the full provenance ledger: for a
        # --remote run it is a DistributedSweepStats, so the lease
        # and fallback counters (chunks, leases, stolen,
        # local_records, ...) land in the payload for scripts.
        _dump_json({
            "workload": workload,
            "strategy": args.strategy,
            "objectives": objectives,
            "stats": result.stats.as_dict(),
            "best": result.best,
            "frontier": front,
            "records": result.records,
        }, args.json_path)
    return exit_code


# ---------------------------------------------------------------------------
# fpfa-map serve / submit / jobs  (the repro.service surface)
# ---------------------------------------------------------------------------

def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service.daemon import MappingService

    service = MappingService(store=args.store, workers=args.workers,
                             worker_mode=args.worker_mode,
                             max_queue=args.max_queue,
                             store_max_entries=args.store_max_entries,
                             store_max_bytes=args.store_max_bytes)

    async def _serve() -> None:
        host, port = await service.start(args.host, args.port)
        print(f"fpfa-map service listening on http://{host}:{port}")
        print(f"artifact store: {service.store.root} "
              f"({len(service.store)} records)")
        print(f"workers: {service.pool.workers} "
              f"({service.pool.mode}); POST /shutdown or Ctrl-C "
              f"to stop")
        sys.stdout.flush()
        try:
            await service.wait_shutdown()
        finally:
            await service.close()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    return 0


def _submit_request(args: argparse.Namespace, source: str) -> dict:
    """The map-job request for one parsed `submit` invocation."""
    request = {"kind": "map", "source": source, "file": args.file,
               "pps": args.pps, "buses": args.buses,
               "library": args.library, "balance": args.balance,
               "verify_seed": args.verify_seed}
    if args.tiles is not None:
        request.update({"tiles": args.tiles,
                        "topology": args.topology,
                        "hop_latency": args.hop_latency,
                        "hop_energy": args.hop_energy,
                        "link_bandwidth": args.link_bandwidth})
    return request


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient, ServiceError

    source = _read_source(args.file)
    client = ServiceClient(args.host, args.port)
    # Status chatter always goes to stderr: `submit`'s stdout is the
    # result payload (bit-identical to `map --json -`), pipeline-safe
    # by default.
    echo = functools.partial(print, file=sys.stderr)
    try:
        response = client.submit(_submit_request(args, source))
        job = response["job"]
        echo(f"job {job['id']}: {job['state']}"
             + (" (coalesced)" if response["coalesced"] else "")
             + (f" [{job['meta'].get('cache')}]"
                if job['meta'].get('cache') else ""))
        if args.no_wait:
            echo(f"poll with: fpfa-map jobs --job {job['id']} "
                 f"--host {args.host} --port {args.port}")
            return 0
        if job["state"] == "done":
            payload = job["result"]
        else:
            payload = client.result(job["id"], timeout=args.timeout)
    except ServiceError as error:
        raise SystemExit(f"service error: {error}")
    except (ConnectionError, OSError) as error:
        raise SystemExit(
            f"cannot reach the daemon at {client.url}: {error} "
            f"(is `fpfa-map serve` running?)")
    finally:
        client.close()
    _dump_json(payload, args.json_path)
    return 0


def _render_jobs_table(views: list[dict]) -> str:
    from repro.eval.report import render_table
    columns = ("id", "kind", "state", "submits", "file")
    rows = [{name: ("" if view.get(name) is None else view[name])
             for name in columns} for view in views]
    return render_table(rows, columns=columns)


def _cmd_jobs(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient, ServiceError

    client = ServiceClient(args.host, args.port)
    try:
        if args.job and args.follow:
            for event in client.events(args.job):
                print(json.dumps(event, sort_keys=True))
            return 0
        if args.job:
            view = client.job(args.job)
            _dump_json(view, args.json_path or "-")
            return 0
        views = client.jobs(state=args.state)
    except ServiceError as error:
        raise SystemExit(f"service error: {error}")
    except (ConnectionError, OSError) as error:
        raise SystemExit(
            f"cannot reach the daemon at {client.url}: {error} "
            f"(is `fpfa-map serve` running?)")
    finally:
        client.close()
    if args.json_path:
        _dump_json({"jobs": views}, args.json_path)
    else:
        print(_render_jobs_table(views))
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    """Operate on a store directory offline (`fpfa-map cache`).

    Uses :class:`~repro.dse.cache.ResultCache` — the same class
    the daemon and the sweeps use — so what this subcommand
    reports is exactly what they would see.  ``stats`` and ``fsck``
    never need bounds; ``gc`` requires at least one.
    """
    from repro.dse.cache import ResultCache

    if not os.path.isdir(args.dir):
        # Opening would silently create an empty store — for an
        # inspection tool a typo'd path must be an error instead.
        raise SystemExit(f"no store directory: {args.dir}")
    if args.action == "gc" and args.max_entries is None \
            and args.max_bytes is None:
        raise SystemExit("cache gc needs --max-entries and/or "
                         "--max-bytes (the bound to enforce)")
    store = ResultCache(args.dir, max_entries=args.max_entries,
                        max_bytes=args.max_bytes)
    if args.action == "stats":
        payload = store.stats()
    elif args.action == "fsck":
        payload = store.fsck()
    elif args.action == "gc":
        payload = store.gc()
    else:  # clear
        payload = {"removed": store.clear()}
    if args.json_path:
        _dump_json(payload, args.json_path)
    else:
        print(f"store: {store.root}")
        for name, value in payload.items():
            print(f"  {name}: {value}")
    return 0


# ---------------------------------------------------------------------------
# fpfa-map trace  (the distributed-tracing surface)
# ---------------------------------------------------------------------------

def _remote_address(specs: list[str]) -> str:
    """The one ``--remote`` daemon as ``host:port``; a repeated flag
    or a comma list is refused."""
    from repro.dse.distributed import DistributedError, parse_remote
    if len(specs) > 1:
        raise SystemExit(
            f"--remote takes one daemon address, got {len(specs)}: "
            "a sweep runs on one daemon")
    try:
        host, port = parse_remote(specs[0])
    except DistributedError as error:
        raise SystemExit(str(error))
    return f"{host}:{port}"


def _cmd_trace_record(args: argparse.Namespace) -> int:
    """`explore` under the flight recorder: spans stream to an
    NDJSON log while the sweep runs.  A remote daemon records its
    side because the coordinator's trace context rides every lease
    (`request["trace"]`), and returns those entries with the lease's
    results, so one file holds the whole stitched tree."""
    from repro.obs.export import TRACE_LOG_NAME, recording

    log_path = args.trace_log
    if log_path is None:
        log_path = os.path.join(args.cache, TRACE_LOG_NAME) \
            if args.cache else TRACE_LOG_NAME
    echo = functools.partial(print, file=sys.stderr) \
        if args.json_path == "-" else print
    with recording(log_path) as recorder:
        code = _cmd_explore(args)
    echo(f"trace: {recorder.written} entries -> {log_path}")
    return code


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.trace_command == "record":
        return _cmd_trace_record(args)

    from repro.obs.export import load_trace

    if args.trace_command == "export":
        from repro.obs.export import to_chrome_trace
        entries = load_trace(args.log)
        if not entries:
            raise SystemExit(f"no trace entries in {args.log}")
        _dump_json(to_chrome_trace(entries), args.out)
        return 0

    if args.trace_command == "report":
        from repro.obs.export import rollup
        table = rollup(load_trace(args.log))
        if not table:
            raise SystemExit(f"no span entries in {args.log}")
        if args.json_path:
            _dump_json(table, args.json_path)
            return 0
        print(f"{'span':<30} {'count':>6} {'total':>10} "
              f"{'mean':>10} {'min':>10} {'max':>10}")
        for name, stats in sorted(table.items(),
                                  key=lambda item: -item[1]["total"]):
            mean = stats["total"] / stats["count"]
            print(f"{name:<30} {stats['count']:>6.0f} "
                  f"{stats['total'] * 1e3:>8.1f}ms "
                  f"{mean * 1e3:>8.2f}ms "
                  f"{stats['min'] * 1e3:>8.2f}ms "
                  f"{stats['max'] * 1e3:>8.2f}ms")
        return 0

    # critical-path
    from repro.obs.critical import critical_path, render_critical
    entries = load_trace(args.log)
    if not entries:
        raise SystemExit(f"no trace entries in {args.log}")
    report = critical_path(entries, trace_id=args.trace)
    if args.json_out:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render_critical(report))
    return 0 if report["total"] > 0 else 1


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # Back-compat: `fpfa-map program.c ...` still means `map`.  A
    # lone argument that names an existing file wins over the
    # subcommand reading even if the file is called `map`/`explore`;
    # with further arguments the subcommand interpretation wins
    # (write `./map` to map such a file).
    if argv and (argv[0] not in SUBCOMMANDS
                 or (len(argv) == 1 and os.path.isfile(argv[0]))) \
            and argv[0] not in ("-h", "--help"):
        argv.insert(0, "map")
    args = _build_parser().parse_args(argv)
    commands = {"map": _cmd_map, "explore": _cmd_explore,
                "serve": _cmd_serve, "submit": _cmd_submit,
                "jobs": _cmd_jobs, "cache": _cmd_cache,
                "trace": _cmd_trace}
    return commands[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    try:
        exit_code = main()
    except BrokenPipeError:
        # Downstream closed the pipe (e.g. `... | head`); the
        # conventional silent exit, not a traceback.
        exit_code = 141
    sys.exit(exit_code)
