#!/usr/bin/env python
"""Pipeline performance harness — maintains ``BENCH_pipeline.json``.

Times representative workloads of the mapping engine end to end:

* ``transforms``   — parse + full simplification of a large unrolled
  FIR (the CDFG/transform hot path);
* ``single_tile``  — complete single-tile mappings of three kernels
  (clustering, scheduling, allocation included);
* ``multitile``    — a mapping with the 4-tile mesh array stage;
* ``alloc_scaling``— the EXT-G phase pipeline on a large random
  layered DAG (clustering → scheduling → allocation);
* ``sweep``        — a serial tile-parameter sweep through
  ``repro.dse.runner.run_sweep`` (frontend reuse + backend cost);
* ``service``      — warm submit→result rounds of the kernel suite
  through a live ``repro.service`` daemon (HTTP + queue + store
  overhead; the backend is served from the artifact store);
* ``distributed``  — a sweep leased to one daemon subprocess with a
  warm store through ``repro.dse.distributed`` (lease HTTP rounds +
  chunk merging; the distribution layer's own overhead);
* ``store``        — artifact-store put/get/stats throughput over a
  populated store (10^4 entries full, 10^3 quick), checking once
  that the store's entry count equals a directory walk;
* ``obs``          — the ``sweep`` workload with the tracer enabled
  (span records, rollups, ring writes).  Its setup also *asserts*
  the observability contract: enabled tracing costs at most 3% plus
  10 ms over the disabled path on the same sweep (best-of-N
  alternating pairs, so scheduler noise cancels), and the disabled
  path is a bare attribute check — the overhead nobody pays unless
  they opt in.

Each workload is run ``--repeats`` times and the median wall time is
recorded, together with a *normalized* value: seconds divided by the
runtime of a fixed pure-python calibration loop measured in the same
process.  Normalized values transfer across machines of different
speeds, which is what the CI regression gate compares.

Usage::

    python tools/bench.py [--quick] [--out fresh.json]
    python tools/bench.py --update BENCH_pipeline.json [--quick]
            [--before old-run.json]
    python tools/bench.py --check BENCH_pipeline.json [--quick]
            [--tolerance 0.25] [--out fresh.json]

``--update`` merges this run into the committed baseline (one section
per mode, ``full`` and ``quick``).  ``--before`` attaches a standalone
run of the *pre-change* tree as ``baseline_main`` and records the
per-workload speedups.  ``--check`` exits non-zero when any workload's
normalized time regresses more than ``--tolerance`` (default 25%)
against the committed section for the same mode — the CI perf gate.

See ``docs/performance.md`` for the full story.
"""

from __future__ import annotations

import argparse
import atexit
import json
import pathlib
import statistics
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent
                       / "src"))

FORMAT = 1


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------

def calibration_seconds() -> float:
    """Median runtime of a fixed pure-python loop (machine yardstick)."""
    def spin() -> int:
        table: dict[int, int] = {}
        total = 0
        for index in range(120_000):
            table[index & 1023] = index
            total += table.get((index * 7) & 1023, 0)
        return total

    samples = []
    for __ in range(5):
        started = time.perf_counter()
        spin()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


# ---------------------------------------------------------------------------
# Workloads (APIs stable across the refactor: each callable must run
# unchanged against older trees so --before comparisons stay honest)
# ---------------------------------------------------------------------------

def _workload_transforms(quick: bool):
    from repro.cdfg.builder import build_main_cdfg
    from repro.eval.kernels import fir_source
    from repro.transforms.pipeline import simplify

    taps = 96 if quick else 160
    source = fir_source(taps)

    def run():
        graph = build_main_cdfg(source)
        simplify(graph)
        return len(graph)

    return run, {"taps": taps}


def _workload_single_tile(quick: bool):
    from repro.core.pipeline import map_source
    from repro.eval.kernels import (
        convolution_source,
        dot_source,
        fir_source,
    )

    sources = [fir_source(24 if quick else 32),
               dot_source(12 if quick else 16),
               convolution_source(12 if quick else 16, 3)]

    def run():
        return sum(map_source(source).n_cycles for source in sources)

    return run, {"kernels": len(sources)}


def _workload_multitile(quick: bool):
    from repro.arch.tilearray import TileArrayParams
    from repro.core.pipeline import map_source
    from repro.eval.kernels import fir_source

    source = fir_source(48 if quick else 96)
    array = TileArrayParams(n_tiles=4, topology="mesh", hop_latency=2)

    def run():
        report = map_source(source, array=array)
        return report.multitile.schedule.makespan

    return run, {"tiles": array.n_tiles, "topology": array.topology}


def _workload_alloc_scaling(quick: bool):
    from repro.core.allocation import allocate
    from repro.core.clustering import cluster_tasks
    from repro.core.scheduling import schedule_clusters
    from repro.eval.randomdag import random_task_graph

    n_tasks = 600 if quick else 1200

    def run():
        taskgraph = random_task_graph(n_tasks, seed=7)
        clustered = cluster_tasks(taskgraph)
        schedule = schedule_clusters(clustered, n_pps=5)
        program, __ = allocate(clustered, schedule)
        return program.n_cycles

    return run, {"tasks": n_tasks}


def _workload_sweep(quick: bool):
    from repro.dse.runner import run_sweep
    from repro.dse.space import DesignSpace
    from repro.eval.kernels import fir_source

    if quick:
        space = DesignSpace({"n_pps": [1, 2, 4, 6, 8],
                             "n_buses": [2, 6, 10, 14, 18]})
    else:
        space = DesignSpace({
            "n_pps": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
            "n_buses": [2, 4, 6, 8, 10, 12, 14, 16, 18, 20]})
    source = fir_source(16)
    points = space.grid()

    def run():
        result = run_sweep(source, points, workers=1)
        if result.stats.failed:
            raise RuntimeError(
                f"{result.stats.failed} sweep points failed")
        return result.stats.evaluated

    return run, {"points": len(points)}


def _workload_service(quick: bool):
    """Submit→result round trips through a live daemon: the kernel
    suite over concurrent clients against a warm artifact store, so
    the measured cost is the service layer itself (HTTP, queue,
    coalescing, store reads) rather than the mapping backend."""
    import concurrent.futures

    from repro.eval.kernels import KERNELS
    from repro.service import ServiceClient, ServiceThread

    kernels = KERNELS[:6] if quick else KERNELS
    clients = 4 if quick else 8
    thread = ServiceThread(workers=4)
    thread.start()
    atexit.register(thread.stop)
    address = thread.address
    # Prime the store: the timed runs measure warm service rounds.
    warmup = ServiceClient(*address)
    for kernel in kernels:
        warmup.map_source(kernel.source, file=kernel.name)

    def run():
        def submit(kernel):
            client = ServiceClient(*address)
            return client.map_source(kernel.source,
                                     file=kernel.name)
        with concurrent.futures.ThreadPoolExecutor(clients) as pool:
            results = list(pool.map(submit, kernels))
        return len(results)

    return run, {"kernels": len(kernels), "clients": clients}


def _workload_distributed(quick: bool):
    """A sweep leased to one real daemon subprocess (2 workers) with a
    warm artifact store and no coordinator cache: every chunk crosses
    the wire and is a store hit on the daemon, so the measured cost
    is the distribution layer itself (lease HTTP rounds, chunk
    merging, store reads)."""
    import atexit
    import tempfile

    from repro.dse.distributed import run_distributed_sweep
    from repro.dse.space import DesignSpace
    from repro.eval.kernels import fir_source
    from repro.service.subproc import DaemonProcess

    if quick:
        space = DesignSpace({"n_pps": [1, 2, 4, 6], "n_buses": [4, 10]})
    else:
        space = DesignSpace({"n_pps": [1, 2, 3, 4, 5, 6, 7, 8],
                             "n_buses": [2, 6, 10, 14]})
    source = fir_source(16)
    points = space.grid()
    workdir = tempfile.TemporaryDirectory(prefix="fpfa-bench-dist-")
    atexit.register(workdir.cleanup)
    daemon = DaemonProcess(f"{workdir.name}/store", workers=2).start()
    atexit.register(daemon.kill)
    # Prime the daemon's store: the timed runs measure the warm path.
    run_distributed_sweep(source, points, remotes=daemon.url,
                          chunk_size=4)

    def run():
        # No local cache: every record crosses the wire each run.
        result = run_distributed_sweep(source, points,
                                       remotes=daemon.url, chunk_size=4)
        served = result.stats.peer_records
        if served != result.stats.unique:
            raise RuntimeError("the daemon's store did not serve the "
                               "whole sweep")
        return served

    return run, {"points": len(points), "daemons": 1}


def _workload_store(quick: bool):
    """Artifact-store throughput at scale: put, stats/len and hit
    lookups over a populated store of 10^4 entries (quick: 10^3).
    The setup checks once that the entry count equals a directory
    walk."""
    import atexit
    import tempfile

    from repro.dse.cache import ResultCache

    entries = 1_000 if quick else 10_000
    workdir = tempfile.TemporaryDirectory(prefix="fpfa-bench-store-")
    atexit.register(workdir.cleanup)
    store = ResultCache(workdir.name)
    for index in range(entries):
        store.put(f"{index:064x}",
                  {"ok": True, "metrics": {"cycles": index}})

    counted = store.stats()["entries"]
    walked = sum(1 for __ in store.root.glob("??/*.json"))
    if not (counted == walked == entries):
        raise RuntimeError(f"store count {counted} diverges from "
                           f"directory walk {walked}")

    rounds = 200 if quick else 1_000

    def run():
        hits = 0
        for index in range(rounds):
            key = f"{(index * 7919) % entries:064x}"
            if store.get(key) is not None:
                hits += 1
        store.put(f"{entries:064x}", {"ok": True, "metrics": {}})
        if store.stats()["entries"] != entries + 1:
            raise RuntimeError("stats lost the fresh put")
        if hits != rounds:
            raise RuntimeError(f"{rounds - hits} unexpected misses")
        return hits

    return run, {"entries": entries, "rounds": rounds}


def _workload_obs(quick: bool):
    """The ``sweep`` workload under an enabled tracer **with the
    flight recorder streaming every span to an NDJSON log**, plus a
    one-shot overhead gate in setup: recording may cost at most 3%
    plus 10 ms over the untraced sweep, and disabled tracing must stay a plain
    attribute check.  Uses best-of-N over alternating
    enabled/disabled runs so a background hiccup hits both sides
    equally instead of deciding the verdict."""
    import tempfile

    from repro.dse.runner import run_sweep
    from repro.dse.space import DesignSpace
    from repro.eval.kernels import fir_source
    from repro.obs import trace
    from repro.obs.export import recording

    space = DesignSpace({"n_pps": [1, 2, 3, 4, 6, 8],
                         "n_buses": [2, 6, 10, 14]})
    source = fir_source(16)
    points = space.grid()

    def sweep():
        result = run_sweep(source, points, workers=1)
        if result.stats.failed:
            raise RuntimeError(
                f"{result.stats.failed} sweep points failed")
        return result.stats.evaluated

    def timed() -> float:
        started = time.perf_counter()
        sweep()
        return time.perf_counter() - started

    sweep()  # warm imports/caches before any timing
    pairs = 4 if quick else 6
    plain = traced = float("inf")
    scratch = tempfile.mkdtemp(prefix="bench-obs-")
    log = pathlib.Path(scratch) / "trace-log.ndjson"

    def timed_recording(index: int) -> float:
        # A fresh log per run: appending to a growing file would
        # charge later runs for earlier runs' data.
        with recording(log.with_suffix(f".{index}.ndjson")):
            return timed()

    # Interleaved pairs, alternating which side goes first: clock
    # drift and the second-in-pair cache penalty hit both sides
    # equally instead of deciding the verdict.
    for index in range(pairs):
        if index % 2:
            traced = min(traced, timed_recording(index))
            plain = min(plain, timed())
        else:
            plain = min(plain, timed())
            traced = min(traced, timed_recording(index))
    trace.reset()
    overhead = traced / plain - 1.0
    print(f"  [obs] recording overhead on sweep: {overhead:+.2%} "
          f"(recording {traced * 1e3:.1f} ms, "
          f"disabled {plain * 1e3:.1f} ms)")
    # 3% relative with a small absolute floor so a sub-second sweep
    # on a noisy runner cannot fail on microseconds.
    if traced > plain * 1.03 + 0.010:
        raise RuntimeError(
            f"recording overhead {overhead:+.2%} exceeds the 3% "
            f"budget (recording {traced:.4f}s vs disabled "
            f"{plain:.4f}s)")
    # Disabled tracing is one attribute check per span: the no-op
    # span must be shared (no allocation) and nothing recorded.
    assert not trace.enabled()
    assert trace.span("a") is trace.span("b")
    assert trace.snapshot()["spans"] == {}

    def run():
        with recording(log):
            return sweep()

    return run, {"points": len(points), "pairs": pairs,
                 "overhead": round(overhead, 4)}


WORKLOADS = {
    "transforms": _workload_transforms,
    "single_tile": _workload_single_tile,
    "multitile": _workload_multitile,
    "alloc_scaling": _workload_alloc_scaling,
    "sweep": _workload_sweep,
    "service": _workload_service,
    "distributed": _workload_distributed,
    "store": _workload_store,
    "obs": _workload_obs,
}


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------

def run_benchmarks(quick: bool, repeats: int) -> dict:
    calibration = calibration_seconds()
    workloads = {}
    for name, factory in WORKLOADS.items():
        run, detail = factory(quick)
        run()  # warm-up (imports, caches)
        samples = []
        for __ in range(repeats):
            started = time.perf_counter()
            run()
            samples.append(time.perf_counter() - started)
        seconds = statistics.median(samples)
        workloads[name] = {
            "seconds": round(seconds, 5),
            "normalized": round(seconds / calibration, 3),
            "detail": detail,
        }
        print(f"  {name:<14} {seconds * 1e3:9.1f} ms  "
              f"(normalized {seconds / calibration:8.2f})")
    return {
        "format": FORMAT,
        "mode": "quick" if quick else "full",
        "repeats": repeats,
        "calibration_seconds": round(calibration, 6),
        "workloads": workloads,
    }


# ---------------------------------------------------------------------------
# Baseline bookkeeping
# ---------------------------------------------------------------------------

def load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {path}")


def update_baseline(path: str, result: dict,
                    before: dict | None) -> None:
    baseline_path = pathlib.Path(path)
    baseline = {"format": FORMAT, "modes": {}}
    if baseline_path.exists():
        baseline = load_json(path)
        baseline.setdefault("modes", {})
    mode = result["mode"]
    baseline["modes"][mode] = {
        "calibration_seconds": result["calibration_seconds"],
        "repeats": result["repeats"],
        "workloads": result["workloads"],
    }
    if before is not None:
        if before.get("mode", mode) != mode:
            raise SystemExit(
                f"--before run is mode {before.get('mode')!r}, "
                f"this run is {mode!r}; modes must match")
        baseline.setdefault("baseline_main", {}).setdefault(
            "modes", {})[mode] = {
            "calibration_seconds": before["calibration_seconds"],
            "workloads": before["workloads"],
        }
        speedups = {}
        for name, fresh in result["workloads"].items():
            old = before["workloads"].get(name)
            if old:
                speedups[name] = round(
                    old["normalized"] / max(fresh["normalized"], 1e-9),
                    2)
        baseline.setdefault("speedup_vs_main", {})[mode] = speedups
    write_json(path, baseline)


def check_against_baseline(path: str, result: dict,
                           tolerance: float) -> int:
    baseline = load_json(path)
    mode = result["mode"]
    section = baseline.get("modes", {}).get(mode)
    if section is None:
        print(f"baseline {path} has no {mode!r} section; cannot check")
        return 2
    failures = []
    print(f"\nregression check vs {path} ({mode}, "
          f"tolerance {tolerance:.0%} on normalized time):")
    for name, fresh in result["workloads"].items():
        old = section["workloads"].get(name)
        if old is None:
            print(f"  {name:<14} (new workload, no baseline) OK")
            continue
        limit = old["normalized"] * (1.0 + tolerance)
        ratio = fresh["normalized"] / max(old["normalized"], 1e-9)
        status = "OK" if fresh["normalized"] <= limit else "REGRESSED"
        print(f"  {name:<14} baseline {old['normalized']:8.2f}  "
              f"fresh {fresh['normalized']:8.2f}  "
              f"({ratio:5.2f}x)  {status}")
        if status != "OK":
            failures.append(name)
    if failures:
        print(f"\nFAIL: {', '.join(failures)} regressed beyond "
              f"{tolerance:.0%}")
        return 1
    print("\nall workloads within tolerance")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Time the mapping pipeline's representative "
                    "workloads and maintain the committed "
                    "BENCH_pipeline.json baseline.")
    parser.add_argument("--quick", action="store_true",
                        help="smaller workloads (the CI perf job)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="samples per workload; the median counts "
                             "(default 3)")
    parser.add_argument("--out", metavar="PATH",
                        help="write this run as standalone JSON")
    parser.add_argument("--update", metavar="BASELINE",
                        help="merge this run into the committed "
                             "baseline file")
    parser.add_argument("--before", metavar="RUN_JSON",
                        help="with --update: standalone run of the "
                             "pre-change tree; recorded as "
                             "baseline_main with speedups")
    parser.add_argument("--check", metavar="BASELINE",
                        help="compare against the committed baseline; "
                             "exit 1 on regression")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed normalized-time regression for "
                             "--check (default 0.25)")
    args = parser.parse_args(argv)

    mode = "quick" if args.quick else "full"
    print(f"benchmarking ({mode}, {args.repeats} repeat(s)):")
    result = run_benchmarks(args.quick, args.repeats)

    if args.out:
        write_json(args.out, result)
    if args.update:
        before = load_json(args.before) if args.before else None
        update_baseline(args.update, result, before)
    if args.check:
        return check_against_baseline(args.check, result,
                                      args.tolerance)
    return 0


if __name__ == "__main__":
    sys.exit(main())
