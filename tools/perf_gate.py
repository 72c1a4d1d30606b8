#!/usr/bin/env python3
"""Paired performance gate: this checkout against its parent commit.

Run from anywhere, with a checkout of the parent commit beside it::

    git worktree add --detach ../parent HEAD^
    python3 tools/perf_gate.py ../parent

For every workload in ``BENCHMARK.json`` it runs each tree's own
``perfbench/run.py`` at seed 1 with ``--trace 0``, in ``PAIRS``
alternating pairs on the same host.  The gate fails when

* any run exits non-zero;
* the change fails a larger share of ops than the parent; or
* the median of an end-to-end metric over the change's runs is worse
  than the parent's median by more than that metric's ``bound`` (a
  share of the parent's median), in the direction ``better`` gives.

Both sides run now, on one host, so there is no baseline to go stale.
One ``--trace 1`` pair per workload then prints the per-layer figures
side by side, the timings sorted by how many ms they moved, so that a
failure names its layer; per-layer figures carry no bounds and never
fail the gate.  Last, the observability budget is checked on this
checkout alone: the flight recorder may cost at most 3% plus 10 ms
over the untraced sweep.

The report is Markdown on standard output; the exit code is 0 when
the gate passes and 1 when it fails.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
#: Alternating pairs per workload: a median of seven runs a side
#: holds while up to three of them hit a slow spell of the host.
PAIRS = 7
#: ``--seconds`` of each run; a run still lasts until it holds 100
#: cold requests.
SECONDS = 2.0
SEED = 1
#: Alternating recording/untraced pairs of the observability check.
OBS_PAIRS = 4


def run_perfbench(checkout: pathlib.Path, workload: str,
                  trace: int) -> tuple[int, dict | None]:
    """Exit code and result line of one ``perfbench/run.py`` run."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", str(SECONDS),
         "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return done.returncode, result


def paired_runs(parent: pathlib.Path, workload: str, trace: int,
                pairs: int, failures: list[str]) -> dict[str, list]:
    """Results per side of *pairs* alternating runs; each non-zero
    exit appends to *failures*."""
    sides = [("parent", parent), ("change", ROOT)]
    results: dict[str, list] = {"parent": [], "change": []}
    for index in range(pairs):
        for side, checkout in sides[::-1] if index % 2 else sides:
            code, result = run_perfbench(checkout, workload, trace)
            if code:
                failures.append(f"{workload}: {side} run {index + 1} "
                                f"(--trace {trace}) exited {code}")
            if result is not None:
                results[side].append(result)
    return results


def fail_share(results: list[dict]) -> float:
    attempted = sum(result["attempted"] for result in results)
    return sum(result["failed"] for result in results) / max(attempted, 1)


def median_of(name: str, side: str, results: list[dict],
              failures: list[str]) -> float | None:
    """Median of metric *name* over *results*, or None (with a
    failure) when a result lacks it."""
    missing = [index + 1 for index, result in enumerate(results)
               if name not in result.get("metrics", {})]
    if missing or not results:
        failures.append(f"{name} missing from {side} run(s) "
                        f"{missing or 'all'}")
        return None
    return statistics.median(result["metrics"][name]["value"]
                             for result in results)


def compare(metrics: list[dict], parent: list[dict],
            change: list[dict]) -> tuple[list[tuple], list[str]]:
    """Compare the result lines of both sides on the end-to-end
    *metrics* (``BENCHMARK.json`` entries).

    Returns table rows ``(name, parent median, change median, worse
    by, bound, ok)`` and the failures; *worse by* is the share of the
    parent's median by which the change is worse (negative: better).
    """
    failures = []
    if fail_share(change) > fail_share(parent):
        failures.append(f"the change failed {fail_share(change):.2%} "
                        f"of ops, the parent {fail_share(parent):.2%}")
    rows = []
    for metric in metrics:
        name, bound = metric["name"], metric["bound"]
        old = median_of(name, "parent", parent, failures)
        new = median_of(name, "change", change, failures)
        if old is None or new is None:
            continue
        worse = new - old if metric["better"] == "lower" else old - new
        share = worse / old
        ok = share <= bound
        if not ok:
            failures.append(f"{name} is {share:.1%} worse than the "
                            f"parent (bound {bound:.0%})")
        rows.append((name, old, new, share, bound, ok))
    return rows, failures


def end_to_end_table(rows: list[tuple]) -> list[str]:
    lines = ["| metric | parent | change | worse by | bound | |",
             "|---|---:|---:|---:|---:|---|"]
    for name, old, new, share, bound, ok in rows:
        lines.append(f"| `{name}` | {old:.4g} | {new:.4g} | "
                     f"{share:+.1%} | {bound:.0%} | "
                     f"{'ok' if ok else '**FAIL**'} |")
    return lines


def layer_table(layers: list[dict], parent: dict,
                change: dict) -> list[str]:
    """The per-layer figures that moved in one traced pair: timings
    first, by ms moved, then the rest."""
    rows = []
    for layer in layers:
        name = layer["name"]
        old = parent["metrics"].get(name, {}).get("value")
        new = change["metrics"].get(name, {}).get("value")
        if None not in (old, new) and old != new:
            rows.append((not layer["unit"].startswith("ms"),
                         -abs(new - old), name, old, new, layer["unit"]))
    lines = ["| layer | parent | change | moved | unit |",
             "|---|---:|---:|---:|---|"]
    for __, __, name, old, new, unit in sorted(rows):
        lines.append(f"| `{name}` | {old:.4g} | {new:.4g} | "
                     f"{new - old:+.3g} | {unit} |")
    return lines


def obs_budget() -> str | None:
    """The observability budget on this checkout: a sweep with the
    flight recorder streaming every span to an NDJSON log may cost at
    most 3% plus 10 ms over the untraced sweep, best of ``OBS_PAIRS``
    alternating pairs; afterwards tracing must be off with no sink
    left registered, and a disabled span must be the shared no-op.
    Returns the failure, or None."""
    sys.path.insert(0, str(ROOT / "src"))
    from repro.dse.runner import run_sweep
    from repro.dse.space import DesignSpace
    from repro.eval.kernels import fir_source
    from repro.obs import trace
    from repro.obs.export import recording

    space = DesignSpace({"n_pps": [1, 2, 3, 4, 6, 8],
                         "n_buses": [2, 6, 10, 14]})
    source, points = fir_source(16), space.grid()

    def timed() -> float:
        started = time.perf_counter()
        result = run_sweep(source, points, workers=1)
        if result.stats.failed:
            raise RuntimeError(f"{result.stats.failed} sweep points "
                               f"failed")
        return time.perf_counter() - started

    timed()  # warm imports and caches before any timing
    plain = traced = float("inf")
    with tempfile.TemporaryDirectory(prefix="perf-gate-obs-") as scratch:
        def timed_recording(index: int) -> float:
            # A fresh log per run: appending to a growing file would
            # charge later runs for earlier runs' data.
            with recording(pathlib.Path(scratch) / f"{index}.ndjson"):
                return timed()

        # Alternate which side goes first, so clock drift and the
        # second-in-pair cache penalty hit both sides equally.
        for index in range(OBS_PAIRS):
            if index % 2:
                traced = min(traced, timed_recording(index))
                plain = min(plain, timed())
            else:
                plain = min(plain, timed())
                traced = min(traced, timed_recording(index))
    print(f"Recording overhead on the sweep: {traced / plain - 1:+.2%} "
          f"(recording {traced * 1e3:.1f} ms, untraced "
          f"{plain * 1e3:.1f} ms; budget 3% plus 10 ms)\n")
    if traced > plain * 1.03 + 0.010:
        return (f"recording overhead {traced / plain - 1:+.2%} exceeds "
                f"3% plus 10 ms")
    if trace.enabled() or trace.TRACER._sinks:
        return "recording left tracing enabled or a sink registered"
    if trace.span("a") is not trace.span("b"):
        return "disabled tracing is not a shared no-op span"
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Gate this checkout on paired perfbench runs "
                    "against a checkout of its parent commit.")
    parser.add_argument("parent", type=pathlib.Path,
                        help="checkout of the parent commit")
    parent = parser.parse_args(argv).parent.resolve()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    started = time.monotonic()
    failures: list[str] = []
    print(f"## Perf gate: {ROOT} against {parent}\n")
    print(f"{PAIRS} alternating pairs of {SECONDS:g} s runs per "
          f"workload, seed {SEED}; medians compared.\n")
    for workload in (entry["name"] for entry in spec["workloads"]):
        runs = paired_runs(parent, workload, 0, PAIRS, failures)
        rows, found = compare(spec["end_to_end"], runs["parent"],
                              runs["change"])
        failures += [f"{workload}: {failure}" for failure in found]
        print(f"### {workload}\n")
        print(f"Ops failed: parent {fail_share(runs['parent']):.2%}, "
              f"change {fail_share(runs['change']):.2%}.\n")
        print("\n".join(end_to_end_table(rows)) + "\n")
        traced = paired_runs(parent, workload, 1, 1, failures)
        if traced["parent"] and traced["change"]:
            print("Per-layer figures that moved in one `--trace 1` "
                  "pair (informational):\n")
            print("\n".join(layer_table(spec["per_layer"],
                                        traced["parent"][0],
                                        traced["change"][0])) + "\n")
        sys.stdout.flush()
    print("### Observability budget\n")
    failure = obs_budget()
    if failure:
        failures.append(f"obs: {failure}")
    print(f"Gate wall time: {time.monotonic() - started:.0f} s.\n")
    if failures:
        print("**FAIL**\n")
        print("\n".join(f"- {failure}" for failure in failures))
        return 1
    print("**PASS**")
    return 0


if __name__ == "__main__":
    sys.exit(main())
