"""Persistent worker pool and the job executors it runs.

Workers execute *normalised* requests (see
:mod:`repro.service.protocol`) and produce exactly the artifacts the
offline tools produce:

* a map job runs :func:`repro.dse.runner.evaluate_point` — the same
  record producer every sweep uses — so the record it returns is
  byte-for-byte a sweep record and lands in the shared store under
  the shared key;
* an explore job runs the same strategy functions ``fpfa-map
  explore`` runs, in-process (``workers=1`` — the service pool is
  the parallelism; nesting pools inside workers would oversubscribe),
  against the shared store as its result cache.

The pool itself is a thin wrapper over ``concurrent.futures``: mode
``"process"`` is the production shape (true parallelism, fork
context where available, mirroring :mod:`repro.dse.runner`), mode
``"thread"`` keeps everything in one process — handy for tests and
for platforms without fork.  The flow is deterministic, so the mode
never changes a result, only its latency.

Frontend reuse happens *above* the pool: the daemon memoises
compiled frontends per (source, spec) and ships them with each job,
so a warm resubmit skips frontend compilation no matter which worker
picks it up.

Explore and chunk jobs read and write the daemon's store through a
fresh :class:`~repro.dse.cache.ResultCache` handle of their own, and
report what it wrote in their ``info`` dict, so the daemon's
``/stats`` stays exact without rescanning the store.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import multiprocessing
import os
from typing import Mapping

from repro.core.pipeline import Frontend
from repro.dse.cache import ResultCache
from repro.dse.runner import FrontendSpec, evaluate_point
from repro.obs import trace
from repro.service.protocol import request_point


def source_digest(source: str) -> str:
    """Stable identity of one program text (frontend-memo key part)."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def _stash_spans(info: dict, spans) -> None:
    """Ride this job's captured span entries back to the daemon.

    The worker may run in a forked process whose tracer ring dies
    with it; the ``info`` side channel (never the result payload —
    payloads stay bit-identical under tracing) carries the entries
    home, where the daemon :func:`repro.obs.trace.adopt`-s them.
    Each entry is stamped with the worker's pid so the exported
    timeline keeps one swimlane per process.  Untraced jobs add
    nothing — the info dict stays byte-identical to PR 6.
    """
    if spans.entries:
        info["trace_spans"] = [dict(entry, pid=os.getpid())
                               for entry in spans.entries]


def _job_store(store_root: str | None) -> ResultCache | None:
    """A handle on the daemon's store for one explore or chunk job,
    journalling what it writes (see :func:`_stash_store_changes`)."""
    if store_root is None:
        return None
    cache = ResultCache(store_root)
    cache.changes = {}
    return cache


def _stash_store_changes(info: dict, cache: ResultCache | None) -> None:
    """Ride the job's store writes back to the daemon in ``info``, so
    it can fold them into its own index instead of rescanning the
    store directory."""
    if cache is not None:
        info["store"] = cache.changes


# ---------------------------------------------------------------------------
# Job executors (module-level: they must pickle into worker processes)
# ---------------------------------------------------------------------------

def run_map_job(request: Mapping,
                frontend: Frontend | None = None) -> tuple[dict, dict]:
    """Execute one map job; returns ``(record, info)``.

    *record* is a canonical sweep record (stored verbatim); *info*
    carries service-side profile data — the report's per-stage
    timings and the worker identity — that must never leak into the
    record.
    """
    sink: dict = {}
    with trace.attach(request.get("trace")), \
            trace.capture() as spans:
        with trace.span("worker.map", warm=frontend is not None):
            record = evaluate_point(request["source"],
                                    request_point(request),
                                    request.get("verify_seed"),
                                    frontend=frontend, sink=sink)
    info = {"timings": sink.get("timings"), "worker": os.getpid()}
    _stash_spans(info, spans)
    return record, info


def run_explore_job(request: Mapping, store_root: str | None = None,
                    frontends: Mapping[FrontendSpec, Frontend]
                    | None = None) -> tuple[dict, dict]:
    """Execute one explore job; returns ``(payload, info)``.

    The payload mirrors ``fpfa-map explore --json``: strategy,
    objectives, stats, best, frontier and the full record trace.
    ``store_root`` points the sweep's result cache at the daemon's
    artifact store, and *frontends* seeds it with the daemon's warm
    memo, so exploration jobs start from everything mapping jobs
    already computed.
    """
    from repro.dse.pareto import pareto_front
    from repro.dse.search import STRATEGIES
    from repro.dse.space import DesignSpace

    space = DesignSpace(request["dimensions"])
    objectives = request["objectives"]
    strategy = request["strategy"]
    cache = _job_store(store_root)
    run_kwargs = dict(workers=1, cache=cache,
                      verify_seed=request.get("verify_seed"),
                      frontends=frontends)
    if strategy == "random":
        extra = dict(n_samples=request["samples"],
                     seed=request["seed"])
    elif strategy == "hill":
        extra = dict(max_steps=request["max_steps"],
                     restarts=request["restarts"],
                     seed=request["seed"])
    else:
        extra = {}
    with trace.attach(request.get("trace")), \
            trace.capture() as spans:
        with trace.span("worker.explore", strategy=strategy):
            result = STRATEGIES[strategy](request["source"], space,
                                          objectives=objectives,
                                          **extra, **run_kwargs)
    stats = result.stats.as_dict()
    payload = {
        "workload": request.get("file") or "<submitted source>",
        "strategy": strategy,
        "objectives": objectives,
        "stats": stats,
        "best": result.best,
        "frontier": pareto_front(result.records, objectives),
        "records": result.records,
    }
    info = {"stats": stats, "worker": os.getpid()}
    _stash_store_changes(info, cache)
    _stash_spans(info, spans)
    return payload, info


def run_chunk_job(request: Mapping, store_root: str | None = None,
                  frontends: Mapping[FrontendSpec, Frontend]
                  | None = None) -> tuple[dict, dict]:
    """Execute one sweep-chunk job; returns ``(payload, info)``.

    The payload carries the chunk's records keyed by cache key —
    exactly what :func:`repro.dse.runner.evaluate_chunk` produces,
    which is exactly what a local ``run_sweep`` would produce for the
    same points (the distributed sweep's bit-identity guarantee rests
    on this).  ``store_root`` points the chunk at the daemon's
    artifact store, so chunk records satisfy later map jobs and
    sweeps; *frontends* seeds it with the daemon's warm memo.
    """
    from repro.dse.runner import evaluate_chunk
    from repro.dse.space import DesignPoint

    points = [DesignPoint.from_dict(entry)
              for entry in request["points"]]
    cache = _job_store(store_root)
    with trace.attach(request.get("trace")), \
            trace.capture() as spans:
        with trace.span("worker.chunk", points=len(points)):
            records, stats = evaluate_chunk(
                request["source"], points,
                verify_seed=request.get("verify_seed"),
                cache=cache, frontends=frontends)
    payload = {
        "kind": "sweep-chunk",
        "points": len(points),
        "records": records,
        "stats": {"cached": stats.cached,
                  "evaluated": stats.evaluated,
                  "failed": stats.failed},
    }
    info = {"stats": payload["stats"], "worker": os.getpid()}
    _stash_store_changes(info, cache)
    _stash_spans(info, spans)
    return payload, info


# ---------------------------------------------------------------------------
# The pool
# ---------------------------------------------------------------------------

class WorkerPool:
    """A bounded, persistent executor for service jobs."""

    MODES = ("process", "thread")

    def __init__(self, workers: int | None = None,
                 mode: str = "process"):
        if mode not in self.MODES:
            raise ValueError(f"unknown worker mode {mode!r}; "
                             f"known: {', '.join(self.MODES)}")
        self.workers = max(1, workers if workers is not None
                           else (os.cpu_count() or 1))
        self.mode = mode
        if mode == "process":
            context = multiprocessing.get_context(
                "fork" if "fork" in
                multiprocessing.get_all_start_methods() else None)
            self._executor = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.workers, mp_context=context)
        else:
            self._executor = concurrent.futures.ThreadPoolExecutor(
                max_workers=self.workers,
                thread_name_prefix="fpfa-worker")

    def submit(self, fn, *args) -> concurrent.futures.Future:
        return self._executor.submit(fn, *args)

    def shutdown(self) -> None:
        self._executor.shutdown(wait=False, cancel_futures=True)

    def describe(self) -> dict:
        return {"workers": self.workers, "mode": self.mode}
