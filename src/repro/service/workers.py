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

Each worker address space keeps one
:class:`~repro.dse.runner.FrontendMemo` for the pool's life: the
threads of a thread pool share the pool's, each process of a process
pool makes its own, and two pools never share one.  A job takes its
frontend from it, so a warm worker never re-parses a source it has
seen, and a frontend keeps its backend memo across jobs.  Each job
returns its memo misses and hits (``frontends_compiled`` and
``frontends_reused`` in its info), which the daemon adds to
``/stats``.

Workers never touch the store.  The daemon reads and admits every
record through its own :class:`~repro.service.store.ArtifactStore`
handle, for every job kind, so its index and bounds stay exact
without rescanning the store directory.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import os
from typing import Mapping

from repro.dse.runner import FrontendMemo, evaluate_chunk, evaluate_point
from repro.dse.space import DesignPoint
from repro.obs import trace
from repro.service.protocol import request_point


# ---------------------------------------------------------------------------
# Job executors (module-level: they must pickle into worker processes)
# ---------------------------------------------------------------------------

def run_map_job(request: Mapping,
                memo: FrontendMemo) -> tuple[dict, dict]:
    """Execute one map job; returns ``(record, info)``.

    *record* is a canonical sweep record (stored verbatim); *info*
    carries service-side data that must never leak into the record:
    the report's per-stage timings, the worker identity, the job's
    frontend memo misses and hits, and its captured trace entries
    (``spans``, empty when untraced), which the daemon
    :func:`repro.obs.trace.adopt`-s.
    """
    tally = FrontendMemo(share=memo)
    sink: dict = {}
    with trace.attach(request.get("trace")), \
            trace.capture() as spans:
        with trace.span("worker.map"):
            record = evaluate_point(request["source"],
                                    request_point(request),
                                    request.get("verify_seed"),
                                    memo=tally, sink=sink)
    return record, dict(_info(tally, spans), timings=sink.get("timings"))


def run_chunk_job(request: Mapping, points: list[DesignPoint],
                  memo: FrontendMemo) -> tuple[dict, dict]:
    """Map *points* of one sweep-chunk job; returns ``(records, info)``.

    The records are keyed by cache key — exactly what a local
    ``run_sweep`` would produce for the same points (the distributed
    sweep's bit-identity guarantee rests on this).  The daemon passes
    only the points its store did not hold, and admits the fresh
    records itself.  *info* is :func:`run_map_job`'s without the
    timings.
    """
    tally = FrontendMemo(share=memo)
    with trace.attach(request.get("trace")), \
            trace.capture() as spans:
        with trace.span("worker.chunk", points=len(points)):
            records, __ = evaluate_chunk(
                request["source"], points,
                verify_seed=request.get("verify_seed"), memo=tally)
    return records, _info(tally, spans)


def _info(tally: FrontendMemo, spans) -> dict:
    return {"worker": os.getpid(), "spans": spans.entries,
            "frontends_compiled": tally.compiled,
            "frontends_reused": tally.reused}


#: A process-mode pool worker's frontend memo, made by the pool's
#: initializer in each worker process.
_PROCESS_MEMO: FrontendMemo | None = None


def _start_process_worker() -> None:
    global _PROCESS_MEMO
    trace.drop_inherited_sinks()
    _PROCESS_MEMO = FrontendMemo()


def _with_process_memo(fn, *args):
    return fn(*args, _PROCESS_MEMO)


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
                initializer=_start_process_worker)
            self._memo = None
        else:
            self._executor = concurrent.futures.ThreadPoolExecutor(
                max_workers=self.workers,
                thread_name_prefix="fpfa-worker")
            self._memo = FrontendMemo()

    def submit(self, fn, *args) -> concurrent.futures.Future:
        """Run ``fn(*args, memo)`` on a worker, *memo* being that
        worker's frontend memo."""
        if self._memo is None:
            return self._executor.submit(_with_process_memo, fn, *args)
        return self._executor.submit(fn, *args, self._memo)

    def shutdown(self) -> None:
        self._executor.shutdown(wait=False, cancel_futures=True)

    def describe(self) -> dict:
        return {"workers": self.workers, "mode": self.mode}
