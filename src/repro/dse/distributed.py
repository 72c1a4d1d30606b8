"""Distributed sweeps: a sweep's pending points mapped on one daemon.

:func:`run_distributed_sweep` is :func:`repro.dse.runner.run_sweep`
whose first pool is a running ``fpfa-map serve`` daemon.  It runs in
this order:

1. the cache pass: the coordinator deduplicates the requested points
   exactly as a local sweep would and takes what its own
   :class:`~repro.dse.cache.ResultCache` already holds;
2. one ``GET /stats`` probe for the daemon's worker count;
3. the pending points are split into *chunks*, and the runner's one
   chunk loop (:func:`~repro.dse.runner.run_chunks`) submits them to
   a :class:`_DaemonPool`, the daemon as a pool: each chunk is one
   lease, a ``sweep-chunk`` job run as one ``POST /jobs?wait=`` that
   returns the finished chunk, on up to ``min(workers,
   MAX_LEASES_PER_DAEMON)`` threads at once.  The daemon does each
   chunk's cache pass against its artifact store and maps only the
   missing points on its worker pool, so a point the store already
   holds is a store read there, not a re-map;
4. every ``ok`` record is admitted to the coordinator's cache as its
   chunk lands;
5. the first lease that fails cancels the chunks not yet leased.
   Its chunk and theirs run one level down, by the rule every pooled
   sweep follows: on a local :class:`~repro.dse.runner.WorkerPool`
   sized by *workers*, and what that pool leaves, in-process.  A
   daemon that does not answer the probe sends everything local.

Re-running a sweep against the same cache resumes it: the records
step 4 wrote are cache hits in step 1, so a killed coordinator
recomputes only what is missing.

Invariants
----------
* Records are **bit-identical** to a purely local ``run_sweep`` of
  the same points: the daemon runs the same
  :func:`~repro.dse.runner.evaluate_point`, records are keyed by the
  same :func:`~repro.dse.cache.cache_key`, and fresh records are
  written back to the coordinator's cache in the same on-disk
  format — local and remote runs warm each other.
* One record per requested point, in request order, duplicates
  included — the ``run_sweep`` contract, unchanged.
* An unverified stored record never satisfies a verifying sweep: a
  chunk runs the runner's own cache pass on the daemon, which re-maps
  and verifies such a point instead of serving it.
"""

from __future__ import annotations

import concurrent.futures
import os
import threading
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence
from urllib.parse import urlsplit

from repro.dse.cache import cache_key
from repro.dse.runner import (
    SweepResult,
    SweepStats,
    _resolve_cache,
    _run_sweep,
    run_chunks,
)
from repro.dse.space import DesignPoint
from repro.obs import trace

#: Points per lease by default: big enough to amortise one HTTP round
#: trip over several mappings, small enough that re-running a failed
#: chunk locally is cheap.
DEFAULT_CHUNK_SIZE = 8
#: Seconds one lease may run before it counts as failed.
LEASE_TIMEOUT = 120.0
#: Cap on concurrent leases (matched to the daemon's own worker count
#: below this cap — one lease per worker keeps the remote pool busy
#: without flooding its queue).
MAX_LEASES_PER_DAEMON = 8


class DistributedError(RuntimeError):
    """The remote daemon address itself is unusable."""


def parse_remote(spec: str) -> tuple[str, int]:
    """``URL`` / ``host:port`` / ``host`` -> ``(host, port)``."""
    from repro.service.protocol import DEFAULT_PORT
    text = spec.strip()
    if not text:
        raise DistributedError("empty remote daemon address")
    if "," in text:
        raise DistributedError(
            f"remote {spec!r}: a sweep runs on one daemon — give "
            "one address, not a list")
    if "//" not in text:
        text = f"//{text}"
    parts = urlsplit(text)
    if parts.scheme not in ("", "http"):
        raise DistributedError(
            f"remote {spec!r}: only http daemons exist")
    try:
        host, port = parts.hostname, parts.port
    except ValueError as error:
        raise DistributedError(f"remote {spec!r}: {error}")
    if not host:
        raise DistributedError(f"remote {spec!r} has no host")
    return host, port if port is not None else DEFAULT_PORT


def _one_remote(remotes: str | Sequence[str]) -> tuple[str, int]:
    """The daemon *remotes* names: one address, or a one-element
    sequence holding one."""
    specs = [remotes] if isinstance(remotes, str) else list(remotes)
    if len(specs) != 1:
        raise DistributedError(
            f"a sweep runs on one daemon; got {len(specs)} addresses")
    return parse_remote(specs[0])


@dataclass
class DistributedSweepStats(SweepStats):
    """Sweep provenance plus the remote ledger.

    Inherits the local fields (``cached`` counts the *coordinator's*
    cache hits; ``evaluated`` counts points the coordinator had to
    source elsewhere — from the daemon or the local fallback).
    """

    chunks: int = 0          #: chunks the pending points were split into
    leases: int = 0          #: sweep-chunk jobs issued
    stolen: int = 0          #: chunks run locally after their lease failed
    remote_records: int = 0  #: records the daemon's leases returned
    local_records: int = 0   #: records from the local fallback
    #: ... of the remote records, those the daemon's store served
    #: without computing.
    peer_records: int = 0

    def summary(self) -> str:
        failed = (f", {self.stolen} failed lease(s) run locally"
                  if self.stolen else "")
        return (f"{super().summary()}\n"
                f"remote: {self.chunks} chunk(s) over {self.leases} "
                f"lease(s){failed}; {self.remote_records} remote "
                f"record(s) ({self.peer_records} store-hit), "
                f"{self.local_records} local")


def _probe(remote: tuple[str, int]):
    """A client of the daemon and the daemon's worker count, or None
    when it does not answer.  The client keeps the probe's connection
    for the first lease."""
    from repro.service.client import ServiceClient, ServiceError
    client = ServiceClient(*remote, timeout=10.0)
    try:
        stats = client.stats()
    except (ServiceError, OSError, ValueError):
        client.close()
        return None
    client.timeout = min(LEASE_TIMEOUT, 30.0)
    return client, max(1, int(stats.get("workers", {}).get("workers", 1)))


class _DaemonPool:
    """One daemon as the pool :func:`~repro.dse.runner.run_chunks`
    runs a sweep's chunks on.  ``submit(run_chunk_job, source, points,
    verify_seed, trace_ctx)`` leases the chunk as one ``sweep-chunk``
    job, which the daemon runs as
    :func:`~repro.dse.runner.run_chunk_job` on its own pool, and
    returns a future of the same ``(records, info)``.

    Up to ``min(workers, MAX_LEASES_PER_DAEMON)`` executor threads
    lease at once; they share the probe's *client*, so each keeps its
    own keep-alive connection, and :meth:`shutdown` closes it.  The
    pool counts into the sweep's *stats* the leases it issued, those
    that failed (``stolen``: their chunks run one level down) and the
    records the daemon's store served (``peer_records``).
    """

    def __init__(self, client, workers: int,
                 stats: DistributedSweepStats):
        self.workers = stats.workers = workers
        self.stats = stats
        self._lock = threading.Lock()
        self._client = client
        self._executor = concurrent.futures.ThreadPoolExecutor(
            min(workers, MAX_LEASES_PER_DAEMON),
            thread_name_prefix="fpfa-lease")

    def submit(self, fn, *args) -> concurrent.futures.Future:
        """Lease one chunk; the daemon runs *fn*, its
        :func:`~repro.dse.runner.run_chunk_job`, on its own pool."""
        return self._executor.submit(self._lease, *args)

    def shutdown(self, wait: bool = True) -> None:
        self._executor.shutdown(wait=wait, cancel_futures=True)
        self._client.close()

    def _count(self, name: str, count: int = 1) -> None:
        with self._lock:
            setattr(self.stats, name, getattr(self.stats, name) + count)

    def _lease(self, source: str, points: list[DesignPoint],
               verify_seed: int | None, trace_ctx: dict | None
               ) -> tuple[dict, dict]:
        self._count("leases")
        request = {
            "kind": "sweep-chunk",
            "source": source,
            "points": [point.to_dict() for point in points],
            "verify_seed": verify_seed,
        }
        with trace.attach(trace_ctx):
            try:
                # The lease span covers the whole lease (one submit
                # that waits for the job, plus a long-poll only if the
                # job outlives that wait); its context rides the
                # request so the daemon's queue/worker spans stitch in
                # as its children.  Untraced runs add nothing to the
                # wire.
                with trace.span("distributed.lease", points=len(points)):
                    if trace.enabled():
                        request["trace"] = trace.context()
                    payload = self._client.run(request,
                                               timeout=LEASE_TIMEOUT)
                # A leased key the answer lacks raises KeyError.
                records = {key: payload["records"][key] for key in
                           (cache_key(source, point) for point in points)}
            except Exception as error:
                # Any failure shape (refused socket, torn frame,
                # failed job, short answer) sends the chunk one level
                # down.
                self._count("stolen")
                if trace.enabled():
                    trace.event("distributed.lease_failed",
                                points=len(points),
                                error=f"{type(error).__name__}: {error}")
                raise
        self._count("peer_records", payload.get("stats", {}).get("cached", 0))
        # A traced chunk comes back with the daemon's entries for it.
        # Keep this sweep's (a coalesced job may have answered another
        # sweep's lease), and none from a daemon in this process: it
        # emitted them here already, also those it adopted from its
        # process workers, which carry the workers' pids.
        ctx, relayed = request.get("trace"), payload.get("trace")
        spans = [entry for entry in relayed["spans"]
                 if entry.get("trace") == ctx["trace"]] \
            if ctx and relayed and relayed["pid"] != os.getpid() else []
        return records, {"spans": spans}


def run_distributed_sweep(
        source: str, points: Iterable[DesignPoint], *,
        remotes: str | Sequence[str],
        cache=None,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        workers: int | None = None,
        verify_seed: int | None = None,
        progress: Callable[[dict], None] | None = None,
        ) -> SweepResult:
    """Evaluate *points* against *source* on one remote daemon.

    Drop-in for :func:`run_sweep` (same result shape, bit-identical
    records); *remotes* names the daemon — one address, as a string
    or a one-element sequence — *chunk_size* the lease granularity
    and *workers* the local fallback's pool, as :func:`run_sweep`'s.
    *progress*, when given, receives one dict per merged chunk
    (``event: "chunk"``) and one for the local fallback
    (``"fallback"``) — the fleet tests use it to kill the daemon at a
    deterministic moment.
    """
    remote = _one_remote(remotes)
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    cache = _resolve_cache(cache)
    stats = DistributedSweepStats()

    def on_the_daemon(key_points: dict[str, DesignPoint],
                      pending: list[str], by_key: dict[str, dict]
                      ) -> list[str]:
        stats.chunks = -(-len(pending) // chunk_size)
        probed = _probe(remote)
        leftover = pending if probed is None else run_chunks(
            _DaemonPool(*probed, stats), source, key_points, pending,
            chunk_size, verify_seed, by_key, cache, progress)
        stats.remote_records = len(pending) - len(leftover)
        stats.local_records = len(leftover)
        if leftover:
            # What the daemon did not deliver runs one level down, on
            # the local path: the sweep completes whatever happened
            # to the daemon.
            if trace.enabled():
                trace.event("distributed.fallback", points=len(leftover))
            if progress is not None:
                progress({"event": "fallback", "points": len(leftover)})
        return leftover

    return _run_sweep(source, points, workers=workers, cache=cache,
                      verify_seed=verify_seed, stats=stats,
                      first_level=on_the_daemon, mode="distributed")
