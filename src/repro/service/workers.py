"""Persistent worker pool and the job executors it runs.

Workers execute *normalised* requests (see
:mod:`repro.service.protocol`) and produce exactly the artifacts the
offline tools produce:

* a map job runs :func:`repro.dse.runner.evaluate_point` — the same
  record producer every sweep uses — so the record it returns is
  byte-for-byte a sweep record and lands in the shared store under
  the shared key;
* a sweep-chunk job runs :func:`repro.dse.runner.evaluate_chunk`
  over the chunk points the daemon's store did not hold, in-process
  (``workers=1`` — the service pool is the parallelism; nesting
  pools inside workers would oversubscribe).

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

Workers never touch the store.  The daemon reads and admits every
record through its own :class:`~repro.service.store.ArtifactStore`
handle, for every job kind, so its index and bounds stay exact
without rescanning the store directory.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import multiprocessing
import os
from typing import Mapping

from repro.core.pipeline import Frontend
from repro.dse.runner import FrontendSpec, evaluate_chunk, evaluate_point
from repro.dse.space import DesignPoint
from repro.obs import trace
from repro.service.protocol import request_point


def source_digest(source: str) -> str:
    """Stable identity of one program text (frontend-memo key part)."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Job executors (module-level: they must pickle into worker processes)
# ---------------------------------------------------------------------------

def run_map_job(request: Mapping,
                frontend: Frontend | None = None) -> tuple[dict, dict]:
    """Execute one map job; returns ``(record, info)``.

    *record* is a canonical sweep record (stored verbatim); *info*
    carries service-side data that must never leak into the record:
    the report's per-stage timings, the worker identity and the
    job's captured trace entries (``spans``, empty when untraced),
    which the daemon :func:`repro.obs.trace.adopt`-s.
    """
    sink: dict = {}
    with trace.attach(request.get("trace")), \
            trace.capture() as spans:
        with trace.span("worker.map", warm=frontend is not None):
            record = evaluate_point(request["source"],
                                    request_point(request),
                                    request.get("verify_seed"),
                                    frontend=frontend, sink=sink)
    return record, {"timings": sink.get("timings"),
                    "worker": os.getpid(), "spans": spans.entries}


def run_chunk_job(request: Mapping, points: list[DesignPoint],
                  frontends: Mapping[FrontendSpec, Frontend]
                  | None = None) -> tuple[dict, dict]:
    """Map *points* of one sweep-chunk job; returns ``(records, info)``.

    The records are keyed by cache key — exactly what a local
    ``run_sweep`` would produce for the same points (the distributed
    sweep's bit-identity guarantee rests on this).  The daemon passes
    only the points its store did not hold, and admits the fresh
    records itself; *frontends* seeds the run with its warm memo.
    *info* carries the worker identity and the captured trace
    entries, as :func:`run_map_job`'s does.
    """
    with trace.attach(request.get("trace")), \
            trace.capture() as spans:
        with trace.span("worker.chunk", points=len(points)):
            records, __ = evaluate_chunk(
                request["source"], points,
                verify_seed=request.get("verify_seed"),
                frontends=frontends)
    return records, {"worker": os.getpid(), "spans": spans.entries}


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
                max_workers=self.workers, mp_context=context,
                initializer=trace.drop_inherited_sinks)
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
