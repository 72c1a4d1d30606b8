"""Chunked, fault-tolerant batch evaluation of design points.

``run_sweep`` is the one engine every exploration strategy shares.
It deduplicates the requested points, satisfies what it can from the
:class:`repro.dse.cache.ResultCache`, evaluates the rest — serially,
or as chunks of points on a pool — and returns one JSON-able
*record* per requested point.  :class:`WorkerPool` is the one process
pool and :func:`run_chunk_job` the one task it runs: it maps the
``(key, point)`` pairs its caller gives it, after the caller's cache
pass and deduplication.  A pooled sweep submits its chunks to a pool
of its own, and the service daemon runs every job, a one-point map
job and a sweep chunk alike, as one task on a pool it keeps for its
life.

:func:`run_chunks` is the one chunk loop.  It runs a pooled sweep's
chunks on its :class:`WorkerPool`, and a distributed sweep's on the
daemon (:mod:`repro.dse.distributed`), which leases each chunk as
the daemon's own :func:`run_chunk_job`.  The keys of a chunk that
fails, and of the chunks it cancels, run one level down: from the
daemon to a local pool, and from a local pool in-process.

The mapping flow is split into a frontend (source → transformed CDFG,
depending only on the program, the data-path width and the transform
options) and a backend (cluster/schedule/allocate, depending on every
tile/array axis) — see :mod:`repro.core.pipeline`.  A
:class:`FrontendMemo` is the one place a point gets its frontend: each
sweep owns one (the serial path's, and one in each pool worker), and
each daemon worker keeps one for its life, so a 100-point sweep over
tile parameters parses and simplifies the kernel once per process
instead of 100 times, and a frontend never crosses a process
boundary.  A balanced frontend is derived from the plain one, so a
sweep over ``balance`` parses and simplifies the kernel once for
both.  The points that share a frontend object also share what the
backend computes from it alone: the task graph, one clustering per
template library and one schedule per (library, level capacity).
With ``verify_seed``, the interpreter's reference run is kept per
pristine graph and input set, so the plain and the balanced frontend
share it too.  Each point still allocates, simulates and compares its
own program.

Per-point failures (an infeasible :class:`TileParams` combination, a
scheduling overflow, a verification mismatch) are captured inside the
worker and returned as ``{"ok": False, "error": ...}`` records, so a
120-point sweep survives its pathological corners and still reports
them.  A chunk task that raises (a lost worker, say) does not end
the sweep either: its keys run one level down.  Because the flow is
deterministic, records are cached by content hash
(:meth:`~repro.dse.cache.ResultCache.admit` writes the ``ok`` ones
only); a repeated sweep is pure cache reads and never touches the
pool.

Invariants
----------
* ``run_sweep`` returns exactly one record per requested point, in
  request order, duplicates included (duplicates share one
  evaluation).
* The mapping flow is deterministic, so worker count, chunking and
  cache state never change a record's content — only how fast it is
  produced.  Cached records are bit-identical to fresh ones.
* A ``verify_seed`` sweep never *trusts* an unverified cache hit: it
  re-evaluates and re-caches with the ``verified`` flag.
* Points with array dimensions additionally carry the multi-tile
  metrics (:func:`repro.eval.metrics.multitile_metrics`) in the same
  flat ``metrics`` dict; single-tile points are byte-for-byte what
  they were before the multi-tile axis existed.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.core.pipeline import (
    Frontend,
    balance_frontend,
    compile_frontend,
    map_frontend,
    verify_seeded,
)
from repro.dse.cache import ResultCache, cache_key
from repro.dse.space import DesignPoint
from repro.eval.metrics import mapping_metrics, multitile_metrics
from repro.lang.errors import SourceError
from repro.obs import trace

#: A frontend's identity within one sweep: everything the frontend
#: stage depends on besides the (shared) program source.
FrontendSpec = tuple


def frontend_spec(point: DesignPoint) -> FrontendSpec:
    """The (width, simplify, balance) triple *point*'s frontend needs.

    Raises when the point's tile parameters are unrealisable — the
    caller treats that point as having no shareable frontend and lets
    evaluation produce the failure record.
    """
    options = point.options_dict()
    return (point.tile_params().width,
            options.get("simplify", True),
            options.get("balance", False))


#: Compiled frontends one :class:`FrontendMemo` keeps before it evicts
#: the oldest.
FRONTENDS_KEPT = 128


class FrontendMemo:
    """Compiled frontends keyed by (source, :func:`frontend_spec`).

    A balanced frontend is derived from the plain one of its width
    and simplify (:func:`~repro.core.pipeline.balance_frontend`),
    which the lookup compiles and keeps first if it is missing: a
    sweep over ``balance`` parses and simplifies each program once,
    and both frontends share its pristine graph and so its
    verification references.

    A compile the front end rejects is kept as its
    :class:`~repro.lang.errors.SourceError` and raised again on each
    lookup, so a bad program compiles once however many points it
    has; any other failure is not kept, and the next lookup retries
    it.  Threads may share a memo: compiles run under its lock, so
    threads asking for one key at once compile it once.

    ``compiled`` and ``reused`` count this object's misses and hits,
    one per lookup.  ``FrontendMemo(share=memo)`` looks up *memo*'s
    entries but counts on its own: one job's tally on its worker's
    memo.
    """

    def __init__(self, share: "FrontendMemo | None" = None):
        self._entries: dict = {} if share is None else share._entries
        self._lock = threading.Lock() if share is None \
            else share._lock
        self.compiled = 0
        self.reused = 0

    def frontend(self, source: str, spec: FrontendSpec) -> Frontend:
        with self._lock:
            entry = self._entries.get((source, spec))
            if entry is None:
                self.compiled += 1
                entry = self._compile(source, spec)
            else:
                self.reused += 1
        if isinstance(entry, SourceError):
            # A fresh traceback per raise: a kept error must not grow
            # one frame chain for every point that meets it.
            raise entry.with_traceback(None)
        return entry

    def _compile(self, source: str, spec: FrontendSpec):
        """Compile and keep the entry of *spec*; the caller holds the
        lock."""
        width, simplify, balance = spec
        if balance:
            plain = self._entries.get((source, (width, simplify, False)))
            if plain is None:
                plain = self._compile(source, (width, simplify, False))
            entry = plain if isinstance(plain, SourceError) else \
                balance_frontend(plain, simplify=simplify)
        else:
            try:
                entry = compile_frontend(source, width=width,
                                         simplify=simplify)
            except SourceError as error:
                entry = error
        self._entries[(source, spec)] = entry
        if len(self._entries) > FRONTENDS_KEPT:
            del self._entries[next(iter(self._entries))]
        return entry


def evaluate_point(source: str, point: DesignPoint,
                   verify_seed: int | None = None, *,
                   memo: FrontendMemo | None = None,
                   sink: dict | None = None) -> dict:
    """Map *source* at *point*; never raises — failures are records.

    With *verify_seed*, the mapped program is additionally checked
    against the reference interpreter on deterministic random inputs,
    and a mismatch fails the record.

    *memo* supplies the point's frontend; without one the frontend is
    compiled for this point alone.  Either way the record is
    identical — the flow is deterministic — a shared frontend only
    changes how fast the record is produced.

    *sink*, when given, receives side artifacts that must never leak
    into the record (the record format is the cache's on-disk
    contract): ``sink["report"]`` is the full :class:`MappingReport`
    and ``sink["timings"]`` its per-stage wall times.  The service
    uses this for its per-job profile without forking the record
    producer.
    """
    record = {"point": point.to_dict(), "config": point.assignment()}
    with trace.span("dse.point"):
        try:
            params = point.tile_params()
            library = point.template_library()
            frontend = (memo or FrontendMemo()).frontend(
                source, frontend_spec(point))
            report = map_frontend(frontend, params, library,
                                  array=point.tile_array_params())
            if sink is not None:
                sink["report"] = report
                # The report's own dict: verify_seeded adds its
                # stage below.
                sink["timings"] = report.timings
            if verify_seed is not None:
                verify_seeded(frontend, report, verify_seed)
                record["verified"] = True
            record["ok"] = True
            record["metrics"] = mapping_metrics(report)
            if report.multitile is not None:
                # Array-dimension points carry the multi-tile
                # aggregates (per-tile utilisation, cut, transfer
                # steps/energy) in the same flat metrics dict, so
                # objectives and tables address them by name like any
                # other metric.
                record["metrics"].update(multitile_metrics(report))
        except Exception as error:  # noqa: BLE001 — fault isolation
            record["ok"] = False
            record["error"] = f"{type(error).__name__}: {error}"
    return record


@dataclass
class SweepStats:
    """Where each record of one sweep came from, and how long it took."""

    total: int = 0          #: points requested (duplicates included)
    unique: int = 0         #: distinct (source, point) keys
    cached: int = 0         #: unique points served from the cache
    evaluated: int = 0      #: unique points actually mapped
    failed: int = 0         #: unique points whose record is not ok
    workers: int = 1        #: pool size used (1 = in-process serial)
    frontends: int = 0      #: frontend specs shared by >1 swept point
    elapsed: float = 0.0    #: wall-clock seconds for the whole sweep

    def as_dict(self) -> dict:
        """The JSON-ready ledger ``fpfa-map explore --json`` embeds.

        Subclasses (:class:`repro.dse.distributed
        .DistributedSweepStats`) inherit this, so a remote run's
        lease/fallback counters flow into the same payload field —
        scripts read one shape either way.
        """
        return dict(vars(self))

    def summary(self) -> str:
        rate = self.cached / self.unique if self.unique else 0.0
        shared = (f" sharing {self.frontends} frontend(s)"
                  if self.frontends else "")
        return (f"{self.total} points ({self.unique} unique): "
                f"{self.cached} cached ({rate:.0%}), "
                f"{self.evaluated} evaluated on {self.workers} "
                f"worker(s){shared}, {self.failed} failed, "
                f"{self.elapsed:.2f}s")


@dataclass
class SweepResult:
    """Aligned (point, record) pairs plus provenance stats."""

    points: list = field(default_factory=list)
    records: list = field(default_factory=list)
    stats: SweepStats = field(default_factory=SweepStats)

    def ok_records(self) -> list[dict]:
        return [record for record in self.records if record["ok"]]

    def failures(self) -> list[dict]:
        return [record for record in self.records if not record["ok"]]

    def rows(self, metric_columns: Sequence[str] = (
            "cycles", "alu_util", "locality", "energy")) -> list[dict]:
        """Flat dict rows (config + chosen metrics) for
        :func:`repro.eval.report.render_table`.

        Every row carries the same column set — the union of config
        dimensions, the metric columns, and (when any point failed)
        an error column — so the rendered table is stable no matter
        which record happens to come first.
        """
        config_columns: list[str] = []
        for record in self.records:
            for name in record["config"]:
                if name not in config_columns:
                    config_columns.append(name)
        any_failed = any(not record["ok"] for record in self.records)
        rows = []
        for record in self.records:
            row = {name: record["config"].get(name, "")
                   for name in config_columns}
            for column in metric_columns:
                row[column] = (record["metrics"].get(column, "")
                               if record["ok"] else "")
            if any_failed:
                row["error"] = ("" if record["ok"]
                                else record["error"])
            rows.append(row)
        return rows


def _resolve_cache(cache, max_entries: int | None = None,
                   max_bytes: int | None = None
                   ) -> ResultCache | None:
    if cache is None:
        return None
    if isinstance(cache, ResultCache):
        if max_entries is not None or max_bytes is not None:
            cache.set_bounds(max_entries, max_bytes)
        return cache
    return ResultCache(cache, max_entries=max_entries,
                       max_bytes=max_bytes)


def run_sweep(source: str, points: Iterable[DesignPoint], *,
              workers: int | None = None, cache=None,
              cache_max_entries: int | None = None,
              cache_max_bytes: int | None = None,
              verify_seed: int | None = None,
              remotes: str | Sequence[str] | None = None,
              remote_chunk_size: int | None = None,
              memo: FrontendMemo | None = None,
              ) -> SweepResult:
    """Evaluate every design point of *points* against *source*.

    Parameters
    ----------
    workers:
        Pool processes; ``None`` uses ``os.cpu_count()``.  ``1`` (or a
        single uncached point) evaluates in-process.  With *remotes*
        it sizes the local fallback.
    cache:
        ``None``, a directory path, or a :class:`ResultCache`.  Hits
        skip evaluation; fresh records are written back.
        ``cache_max_entries`` / ``cache_max_bytes`` bound the store
        (LRU eviction, see ``docs/store.md``); the sweep's *result*
        is unaffected by the bound — only which records survive on
        disk afterwards.
    verify_seed:
        When set, every mapping is verified against the interpreter.
        The seed is deliberately not part of the cache key — the flow
        is deterministic, so a record once *verified* holds for any
        seed — but cache hits that were never verified at all are
        re-evaluated rather than trusted.
    remotes:
        One ``fpfa-map serve`` daemon address to run the sweep on;
        delegates to
        :func:`repro.dse.distributed.run_distributed_sweep`, with
        ``remote_chunk_size`` points per lease.  Records are
        bit-identical to a local sweep (the flow is deterministic and
        the daemon runs the same :func:`evaluate_point`); whatever
        the daemon does not deliver is evaluated locally.
    memo:
        The :class:`FrontendMemo` an in-process sweep compiles its
        frontends into (a fresh one without it), so successive sweeps
        over one program — a hill-climb's steps — compile each
        frontend once.  Pool workers keep their own.
    """
    cache = _resolve_cache(cache, cache_max_entries, cache_max_bytes)
    if remotes:
        from repro.dse.distributed import run_distributed_sweep
        extra = {}
        if remote_chunk_size is not None:
            extra["chunk_size"] = remote_chunk_size
        return run_distributed_sweep(
            source, points, remotes=remotes, cache=cache,
            workers=workers, verify_seed=verify_seed, **extra)
    return _run_sweep(source, points, workers=workers, cache=cache,
                      verify_seed=verify_seed, memo=memo)


def _run_sweep(source: str, points: Iterable[DesignPoint], *,
               workers: int | None, cache, verify_seed: int | None,
               memo: FrontendMemo | None = None,
               stats: SweepStats | None = None,
               first_level: Callable | None = None,
               **attrs) -> SweepResult:
    """The sweep :func:`run_sweep` and a distributed sweep run, in one
    ``dse.sweep`` span noted with *attrs*, into *stats* (a fresh
    :class:`SweepStats` without it): the cache pass, then
    the pending keys level by level.  ``first_level(key_points,
    pending, by_key)`` (a distributed sweep's daemon) evaluates what
    it can and returns the keys it left; those run as
    :func:`run_chunks` on a :class:`WorkerPool` when *workers*
    resolves to more than one, and whatever that pool leaves runs
    in-process, on *memo*."""
    with trace.span("dse.sweep", **attrs) as sweep_span:
        started = time.perf_counter()
        points = list(points)
        stats = stats or SweepStats()
        stats.total = len(points)
        point_keys, key_points, by_key, pending = _cache_pass(
            source, points, cache, verify_seed, stats)
        stats.evaluated = len(pending)
        if first_level is not None and pending:
            pending = first_level(key_points, pending, by_key)
        # The specs more than one point left to evaluate here shares;
        # the serial path's memo (the caller's, or this sweep's) or
        # each pool child's own compiles each of them once.
        spec_counts: dict[FrontendSpec, int] = {}
        for key in pending:
            try:
                spec = frontend_spec(key_points[key])
            except Exception:  # noqa: BLE001 — surfaces per record
                continue
            spec_counts[spec] = spec_counts.get(spec, 0) + 1
        stats.frontends = sum(1 for count in spec_counts.values()
                              if count > 1)
        if workers is None and pending:
            workers = os.cpu_count() or 1
        workers = max(1, min(workers, len(pending))) if pending else 1
        stats.workers = max(stats.workers, workers)
        if workers > 1:
            pending = run_chunks(
                WorkerPool(workers), source, key_points, pending,
                max(1, len(pending) // (workers * 4)), verify_seed,
                by_key, cache)
        memo = memo or FrontendMemo()
        for key in pending:
            record = evaluate_point(source, key_points[key],
                                    verify_seed, memo=memo)
            by_key[key] = record
            if cache is not None:
                cache.admit(key, record)
        stats.failed = sum(1 for record in by_key.values()
                           if not record["ok"])
        stats.elapsed = time.perf_counter() - started
        sweep_span.note(points=stats.total, cached=stats.cached,
                        evaluated=stats.evaluated, failed=stats.failed)
    return SweepResult(points=points,
                       records=[by_key[key] for key in point_keys],
                       stats=stats)


def run_chunks(pool, source: str, key_points: dict[str, DesignPoint],
               pending: list[str], size: int, verify_seed: int | None,
               by_key: dict[str, dict], cache,
               progress: Callable[[dict], None] | None = None
               ) -> list[str]:
    """Run the *pending* keys as :func:`run_chunk_job` chunks of
    *size* on *pool*, shut *pool* down, and return the keys no chunk
    delivered.

    *pool* is a :class:`WorkerPool` or anything with its ``submit``
    and ``shutdown`` (a distributed sweep's daemon).  Each chunk's
    records are merged into *by_key* and admitted to *cache* as the
    chunk lands, not at sweep end, so a sweep killed midway keeps
    everything it finished and re-running it recomputes only the
    missing records; the chunk's trace entries are adopted, and
    *progress*, when given, hears ``{"event": "chunk", ...}``.  The
    first chunk that raises cancels the chunks not yet started: the
    caller runs the keys left one level down.  Each chunk that raises
    leaves a ``dse.chunk_failed`` trace event.
    """
    try:
        trace_ctx = trace.context()
        tasks = {pool.submit(run_chunk_job, source,
                             [(key, key_points[key]) for key in chunk],
                             verify_seed, trace_ctx): len(chunk)
                 for chunk in (pending[index:index + size]
                               for index in range(0, len(pending), size))}
        done = 0
        for task in concurrent.futures.as_completed(tasks):
            if task.cancelled():
                continue
            error = task.exception()
            if error is not None:
                if trace.enabled():
                    trace.event("dse.chunk_failed", points=tasks[task],
                                error=f"{type(error).__name__}: {error}")
                for queued in tasks:
                    queued.cancel()
                continue
            records, info = task.result()
            trace.adopt(info["spans"])
            by_key.update(records)
            if cache is not None:
                for key, record in records.items():
                    cache.admit(key, record)
            done += 1
            if progress is not None:
                progress({"event": "chunk", "done": done,
                          "total": len(tasks), "points": tasks[task]})
    finally:
        pool.shutdown(wait=True)
    return [key for key in pending if key not in by_key]


def _cache_pass(source: str, points: list[DesignPoint], cache,
                verify_seed: int | None, stats: SweepStats
                ) -> tuple[list[str], dict[str, DesignPoint],
                           dict[str, dict], list[str]]:
    """A sweep's front half: deduplicate *points* by cache key and
    serve what *cache* holds.  Returns ``(point_keys, key_points,
    by_key, pending)`` — every point's key, the first point per
    unique key (in request order), the cache hits, and the keys
    still to evaluate — and counts ``stats.unique``/``cached``."""
    point_keys = [cache_key(source, point) for point in points]
    key_points: dict[str, DesignPoint] = {}
    for key, point in zip(point_keys, points):
        key_points.setdefault(key, point)
    stats.unique = len(key_points)
    by_key: dict[str, dict] = {}
    pending: list[str] = []
    for key in key_points:
        # A verifying sweep never takes an unverified record: it
        # re-evaluates (and re-caches with the verified flag).
        record = cache.get(key, want_verified=verify_seed is not None) \
            if cache is not None else None
        if record is not None:
            by_key[key] = record
            stats.cached += 1
        else:
            pending.append(key)
    return point_keys, key_points, by_key, pending


# ---------------------------------------------------------------------------
# The worker pool and the tasks it runs (module-level: they must pickle
# into worker processes)
# ---------------------------------------------------------------------------

def run_chunk_job(source: str,
                  keyed_points: list[tuple[str, DesignPoint]],
                  verify_seed: int | None, trace_ctx: dict | None,
                  memo: FrontendMemo) -> tuple[dict, dict]:
    """Map each ``(key, point)`` of *keyed_points* on a worker;
    returns ``(records, info)``, the records keyed by the caller's
    keys.

    The one task a :class:`WorkerPool` runs: a pooled sweep's chunk,
    a daemon's map job (one point) and its ``sweep-chunk`` lease.
    The caller has done the cache pass and deduplication, so every
    point is mapped.  *info* holds what must never leak into a
    record: the worker's pid, the job's frontend memo misses and
    hits, each point's per-stage ``timings`` by key (None for a point
    that failed before its report), and the trace entries captured
    under *trace_ctx* (``spans``, empty when untraced), which the
    caller :func:`repro.obs.trace.adopt`-s.  The caller admits the
    records: a worker never touches a store.
    """
    tally = FrontendMemo(share=memo)
    records, timings = {}, {}
    with trace.attach(trace_ctx), trace.capture() as spans:
        with trace.span("worker.chunk", points=len(keyed_points)):
            for key, point in keyed_points:
                sink: dict = {}
                records[key] = evaluate_point(source, point, verify_seed,
                                              memo=tally, sink=sink)
                timings[key] = sink.get("timings")
    return records, {"worker": os.getpid(), "spans": spans.entries,
                     "frontends_compiled": tally.compiled,
                     "frontends_reused": tally.reused,
                     "timings": timings}


#: A process-mode pool worker's frontend memo, made by the pool's
#: initializer in each worker process.
_PROCESS_MEMO: FrontendMemo | None = None


def _start_process_worker() -> None:
    global _PROCESS_MEMO
    # The parent's log is the parent's to write: a forked child's
    # spans go home with its results.
    trace.drop_inherited_sinks()
    _PROCESS_MEMO = FrontendMemo()


def _with_process_memo(traced: bool, fn, *args):
    # The workers fork when the pool is built: each task brings the
    # parent's tracing switch as of its submit, which thread workers
    # share anyway.
    if traced:
        trace.enable()
    else:
        trace.disable()
    return fn(*args, _PROCESS_MEMO)


class WorkerPool:
    """A bounded, persistent executor for :func:`run_chunk_job`: a
    pooled sweep's and a daemon's.

    Mode ``"process"`` (fork context where available) is true
    parallelism; mode ``"thread"`` keeps everything in one process.
    Each worker address space keeps one :class:`FrontendMemo` for the
    pool's life: a thread pool's threads share the pool's, each
    process of a process pool makes its own.  The flow is
    deterministic, so neither the mode nor the worker count changes a
    record.
    """

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
            # Fork every worker now (a fork-context pool forks them
            # all at its first submit): a worker keeps a copy of each
            # socket open at that moment, and a client connection
            # one holds never sees its peer's close.  The daemon
            # builds its pool before it listens.
            self._executor.submit(int).result()
        else:
            self._executor = concurrent.futures.ThreadPoolExecutor(
                max_workers=self.workers,
                thread_name_prefix="fpfa-worker")
            self._memo = FrontendMemo()

    def submit(self, fn, *args) -> concurrent.futures.Future:
        """Run ``fn(*args, memo)`` on a worker, *memo* being that
        worker's frontend memo."""
        if self._memo is None:
            return self._executor.submit(_with_process_memo,
                                         trace.enabled(), fn, *args)
        return self._executor.submit(fn, *args, self._memo)

    def shutdown(self, wait: bool = False) -> None:
        """Cancel what has not started; with *wait*, also wait for
        the running tasks and reap the worker processes."""
        self._executor.shutdown(wait=wait, cancel_futures=True)

    def describe(self) -> dict:
        return {"workers": self.workers, "mode": self.mode}
