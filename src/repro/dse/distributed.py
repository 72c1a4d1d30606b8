"""Distributed sweeps: a sweep's pending points mapped on one daemon.

:func:`run_distributed_sweep` is :func:`repro.dse.runner.run_sweep`
with the mapping done by a running ``fpfa-map serve`` daemon.  It
runs in this order:

1. the cache pass: the coordinator deduplicates the requested points
   exactly as a local sweep would and takes what its own
   :class:`~repro.dse.cache.ResultCache` already holds;
2. one ``GET /stats`` probe for the daemon's worker count;
3. the pending points are split into *chunks* and leased as the
   service's ``sweep-chunk`` jobs, on ``min(workers,
   MAX_LEASES_PER_DAEMON)`` lanes sharing one queue; a lease is one
   ``POST /jobs?wait=`` that returns the finished chunk.  The daemon
   does each chunk's cache pass against its artifact store and maps
   only the missing points on its worker pool, so a point the store
   already holds is a store read there, not a re-map;
4. every ``ok`` record is admitted to the coordinator's cache as its
   chunk merges;
5. a chunk whose lease fails, and every chunk not yet leased by then,
   runs locally through plain :func:`run_sweep`.  A daemon that does
   not answer the probe sends everything local.

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

import http.client
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence
from urllib.parse import urlsplit

from repro.dse.cache import ResultCache
from repro.dse.runner import (
    SweepResult,
    SweepStats,
    _cache_pass,
    _resolve_cache,
    run_sweep,
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


def _probe(remote: tuple[str, int]) -> int | None:
    """The daemon's worker count, or None when it does not answer."""
    from repro.service.client import ServiceClient, ServiceError
    try:
        with ServiceClient(*remote, timeout=10.0) as client:
            stats = client.stats()
    except (ServiceError, OSError, ValueError,
            http.client.HTTPException):
        return None
    return max(1, int(stats.get("workers", {}).get("workers", 1)))


@dataclass(eq=False)
class _Leases:
    """The chunk queue one sweep's lease lanes share, and what they
    merged.  ``lock`` guards the mutable fields."""

    remote: tuple[str, int]
    source: str
    key_points: dict[str, DesignPoint]
    verify_seed: int | None
    cache: ResultCache | None
    stats: DistributedSweepStats
    progress: Callable[[dict], None] | None
    queue: deque[list[str]]
    merged: dict[str, dict] = field(default_factory=dict)
    done: int = 0
    #: Set by the first failed lease: no lane takes another chunk.
    failed: bool = False
    lock: threading.Lock = field(default_factory=threading.Lock)

    def take(self) -> list[str] | None:
        """The next chunk to lease; None once the queue is empty or a
        lease has failed."""
        with self.lock:
            if self.failed or not self.queue:
                return None
            self.stats.leases += 1
            return self.queue.popleft()

    def lane(self, trace_ctx: dict | None) -> None:
        """Lease chunks until :meth:`take` answers None.  A failed
        lease stops every lane; its chunk stays unmerged, so the
        local fallback runs it."""
        from repro.service.client import ServiceClient

        with ServiceClient(*self.remote,
                           timeout=min(LEASE_TIMEOUT, 30.0)) as client, \
                trace.attach(trace_ctx):
            while (chunk := self.take()) is not None:
                try:
                    records, stored = self._lease(client, chunk)
                except Exception as error:  # noqa: BLE001 — any
                    # failure shape (refused socket, torn frame,
                    # failed job, short answer) sends the rest local
                    with self.lock:
                        self.failed = True
                        self.stats.stolen += 1
                    if trace.enabled():
                        trace.event("distributed.lease_failed",
                                    points=len(chunk), error=str(error))
                    return
                self._merge(chunk, records, stored)

    def _lease(self, client, chunk: list[str]) -> tuple[dict, int]:
        """Lease one chunk: its records by key, and how many of them
        the daemon's store served."""
        from repro.service.client import ServiceError

        request = {
            "kind": "sweep-chunk",
            "source": self.source,
            "points": [self.key_points[key].to_dict() for key in chunk],
            "verify_seed": self.verify_seed,
        }
        # The lease span covers the whole lease (one submit that
        # waits for the job, plus a long-poll only if the job outlives
        # that wait); its context rides the request so the daemon's
        # queue/worker spans stitch in as its children.  Untraced
        # runs add nothing to the wire.
        with trace.span("distributed.lease", points=len(chunk)):
            if trace.enabled():
                request["trace"] = trace.context()
            payload = client.run(request, timeout=LEASE_TIMEOUT)
        # A traced chunk comes back with the daemon's entries for it.
        # Keep this sweep's (a coalesced job may have answered another
        # sweep's lease), and none from a daemon in this process: it
        # emitted them here already, also those it adopted from its
        # process workers, which carry the workers' pids.
        ctx, relayed = request.get("trace"), payload.get("trace")
        if ctx and relayed and relayed["pid"] != os.getpid():
            trace.adopt([entry for entry in relayed["spans"]
                         if entry.get("trace") == ctx["trace"]])
        missing = [key for key in chunk if key not in payload["records"]]
        if missing:
            raise ServiceError(
                f"daemon answered {len(payload['records'])} record(s), "
                f"{len(missing)} leased key(s) missing")
        records = {key: payload["records"][key] for key in chunk}
        return records, payload.get("stats", {}).get("cached", 0)

    def _merge(self, chunk: list[str], records: dict[str, dict],
               stored: int) -> None:
        """Admit one chunk's records to the coordinator's cache —
        before they count as merged, so a killed coordinator keeps
        them — then merge them.  Like a local run_sweep, a verified
        record replaces a stale unverified entry for the same key."""
        if self.cache is not None:
            for key, record in records.items():
                self.cache.admit(key, record)
        with self.lock:
            self.merged.update(records)
            self.stats.remote_records += len(records)
            self.stats.peer_records += stored
            self.done += 1
            done = self.done
        if self.progress is not None:
            self.progress({"event": "chunk", "done": done,
                           "total": self.stats.chunks,
                           "points": len(chunk)})


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
    with trace.span("dse.sweep", mode="distributed") as sweep_span:
        started = time.perf_counter()
        points = list(points)
        cache = _resolve_cache(cache)
        stats = DistributedSweepStats(total=len(points))

        point_keys, key_points, by_key, pending = _cache_pass(
            source, points, cache, verify_seed, stats)
        stats.evaluated = len(pending)

        if pending:
            leases = _Leases(
                remote, source, key_points, verify_seed, cache, stats,
                progress, deque(pending[index:index + chunk_size]
                                for index in range(0, len(pending),
                                                   chunk_size)))
            stats.chunks = len(leases.queue)
            remote_workers = _probe(remote)
            if remote_workers is not None:
                stats.workers = remote_workers
                lanes = [threading.Thread(
                    target=leases.lane, args=(trace.context(),),
                    daemon=True)
                    for __ in range(min(remote_workers,
                                        MAX_LEASES_PER_DAEMON,
                                        stats.chunks))]
                for lane in lanes:
                    lane.start()
                for lane in lanes:
                    lane.join()
            by_key.update(leases.merged)
            # Whatever the daemon did not deliver runs locally: the
            # sweep completes whatever happened to the daemon.
            leftover = [key for key in pending if key not in by_key]
            if leftover:
                local = run_sweep(
                    source, [key_points[key] for key in leftover],
                    workers=workers, cache=cache,
                    verify_seed=verify_seed)
                by_key.update(zip(leftover, local.records))
                stats.local_records = len(leftover)
                stats.workers = max(stats.workers, local.stats.workers)
                if trace.enabled():
                    trace.event("distributed.fallback",
                                points=len(leftover))
                if progress is not None:
                    progress({"event": "fallback",
                              "points": len(leftover)})

        records = [by_key[key] for key in point_keys]
        stats.failed = sum(1 for key in key_points
                           if not by_key[key]["ok"])
        stats.elapsed = time.perf_counter() - started
        sweep_span.note(points=stats.total, cached=stats.cached,
                        evaluated=stats.evaluated, failed=stats.failed)
    return SweepResult(points=points, records=records, stats=stats)

