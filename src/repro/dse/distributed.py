"""Distributed sweep sharding across ``fpfa-map serve`` daemons.

:func:`run_distributed_sweep` is :func:`repro.dse.runner.run_sweep`
stretched over a fleet: the coordinator deduplicates the requested
points exactly as a local sweep would, satisfies what it can from its
own :class:`~repro.dse.cache.ResultCache`, then asks the fleet's
*stores* before asking its *workers* — a peering pass over the
``store-has``/``store-fetch`` endpoints pulls every record some
daemon already holds (one daemon's finished sweep warms every
coordinator; see ``docs/store.md``) — and only the still-missing
keys are split into *chunks* and leased to remote daemons through
the service's ``sweep-chunk`` job kind.  Each lease is one HTTP job;
the daemon runs the chunk through its worker pool against its
artifact store and answers with records keyed by cache key.

Fault model — the sweep **always completes**.  Inside a lease,
transient faults retry under a seeded
:class:`~repro.service.resilience.RetryPolicy`.  Each daemon is
``leasing``, on ``probation`` (a lease failed outright: its chunk is
re-queued and stolen, its lanes stop, a prober re-probes it and
readmits it when it answers) or ``lost`` (unreachable at the start
probe, or still on probation at sweep end); ``_TRANSITIONS`` lists
the moves and :meth:`_Fleet.move` is the only code that makes them
(``docs/resilience.md`` has the table).  What no daemon delivers is
evaluated locally — plain :func:`run_sweep`, the fallback backend.

Completed work is durable as it happens: chunk records are written
to the coordinator's cache the moment they merge (not at sweep end),
and a checkpoint journal
(:mod:`repro.dse.checkpoint`) beside the cache records pending keys,
leases and completions — so a killed coordinator resumes with
``fpfa-map explore --resume`` and recomputes only what is missing.

Determinism is what makes stealing safe: the mapping flow is
deterministic, so a chunk evaluated twice (a slow daemon finishing a
lease the coordinator already re-issued) yields byte-identical
records, and merging by cache key is idempotent.  Completions are
deduplicated by chunk id, so the late copy also never double-counts
the :class:`DistributedSweepStats` ledger.

Invariants
----------
* Records are **bit-identical** to a purely local ``run_sweep`` of
  the same points: remote daemons run the same
  :func:`~repro.dse.runner.evaluate_point`, records are keyed by the
  same :func:`~repro.dse.cache.cache_key`, and fresh records are
  written back to the coordinator's cache in the same on-disk
  format — local and remote runs warm each other.
* One record per requested point, in request order, duplicates
  included — the ``run_sweep`` contract, unchanged.
* An unverified cached record never satisfies a verifying sweep
  (the runner's rule, applied on both sides of the wire).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence
from urllib.parse import urlsplit

from repro.core.pipeline import Frontend
from repro.dse.cache import ResultCache, cache_key
from repro.dse.checkpoint import (
    SweepJournal,
    journal_path_for,
    sweep_id,
)
from repro.dse.runner import (
    FrontendSpec,
    SweepResult,
    SweepStats,
    _cache_pass,
    _resolve_cache,
    run_sweep,
)
from repro.dse.space import DesignPoint
from repro.obs import trace
from repro.service.resilience import RetryPolicy

#: Points per lease by default: big enough to amortise one HTTP round
#: trip over several mappings, small enough that re-evaluating a lost
#: chunk is cheap.
DEFAULT_CHUNK_SIZE = 8
#: Seconds one lease may run before the chunk is re-leased.
DEFAULT_LEASE_TIMEOUT = 120.0
#: Cap on concurrent leases per daemon (matched to the daemon's own
#: worker count below this cap — one lease per worker keeps every
#: remote pool busy without flooding its queue).
MAX_LEASES_PER_DAEMON = 8

#: In-lease retry schedule: transient faults get a few fast retries
#: before the lease is declared failed and the daemon demoted.
DEFAULT_RETRY = RetryPolicy(attempts=3, base_delay=0.1,
                            max_delay=2.0, jitter=0.25)
#: Probation re-probe schedule (only :meth:`RetryPolicy.delay` is
#: used — probation probes until the sweep ends, not N times).
PROBE_BACKOFF = RetryPolicy(attempts=2, base_delay=0.25,
                            max_delay=4.0, jitter=0.25)

#: A daemon's health states (see the module docstring).
LEASING, PROBATION, LOST = "leasing", "probation", "lost"

#: Every legal health transition (``None``: not yet probed) and what
#: it reports — ``(event, DistributedSweepStats field)``; entering
#: the lease pool at sweep start is silent.
_TRANSITIONS: dict[tuple[str | None, str], tuple | None] = {
    (None, LEASING): None,
    (None, LOST): ("lost", "lost_daemons"),
    (LEASING, PROBATION): ("probation", "probations"),
    (PROBATION, LEASING): ("readmit", "readmissions"),
    (PROBATION, LOST): ("lost", "lost_daemons"),
}


class DistributedError(RuntimeError):
    """The fleet specification itself is unusable (bad URL)."""


def parse_remote(spec: str) -> tuple[str, int]:
    """``URL`` / ``host:port`` / ``host`` -> ``(host, port)``."""
    from repro.service.protocol import DEFAULT_PORT
    text = spec.strip()
    if not text:
        raise DistributedError("empty remote daemon address")
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


def parse_remotes(specs) -> list[tuple[str, int]]:
    """Normalise a fleet spec into unique ``(host, port)`` pairs,
    order preserved.  Accepts one string (commas separate daemons), a
    sequence of strings, already-parsed ``(host, port)`` pairs, or a
    mix — so a pre-parsed fleet passes through unchanged."""
    if isinstance(specs, str):
        specs = [specs]
    pairs: list[tuple[str, int]] = []
    for spec in specs:
        if not isinstance(spec, tuple):
            pairs.extend(parse_remote(item)
                         for item in str(spec).split(",")
                         if item.strip())
        elif len(spec) != 2:
            raise DistributedError(
                f"remote pair {spec!r} is not (host, port)")
        else:
            pairs.append((str(spec[0]), int(spec[1])))
    return list(dict.fromkeys(pairs))


def sweep_identity(source: str, points: Iterable[DesignPoint],
                   verify_seed: int | None) -> str:
    """The checkpoint-journal identity this sweep would run under
    (deduplicated key order, exactly as the coordinator computes
    it) — ``fpfa-map explore --resume`` matches journals with it."""
    keys = dict.fromkeys(cache_key(source, point) for point in points)
    return sweep_id(source, list(keys), verify_seed)


@dataclass
class DistributedSweepStats(SweepStats):
    """Sweep provenance plus the distribution ledger.

    Inherits the local fields (``cached`` counts the *coordinator's*
    cache hits; ``evaluated`` counts points the coordinator had to
    source elsewhere — from daemons or the local fallback).
    """

    daemons: int = 0         #: reachable daemons the sweep started with
    lost_daemons: int = 0    #: daemons unreachable or never readmitted
    chunks: int = 0          #: chunks the pending points were split into
    leases: int = 0          #: sweep-chunk jobs issued (>= chunks)
    stolen: int = 0          #: chunks re-leased after a lost lease
    probations: int = 0      #: daemons demoted to probation mid-sweep
    readmissions: int = 0    #: probation daemons readmitted after re-probe
    probes: int = 0          #: re-probes sent to probation daemons
    retries: int = 0         #: lease calls retried after a transient fault
    remote_records: int = 0  #: records produced by daemon leases
    remote_cached: int = 0   #: ... of which the daemon's store served
    local_records: int = 0   #: records from the local fallback backend
    peer_records: int = 0    #: records fetched from peer stores
    #: Per-peer ledger of the peering pass: ``{"host:port":
    #: {"hits": fetched-from-here, "misses": pending keys this store
    #: did not hold}}``.  A key several daemons hold counts as a hit
    #: only at the first (fleet order) — each record is fetched once.
    peers: dict = field(default_factory=dict)

    def summary(self) -> str:
        base = super().summary()
        probation = ""
        if self.probations:
            probation = (f", {self.probations} probation(s)"
                         f"/{self.readmissions} readmitted")
        fleet = (f"fleet: {self.daemons} daemon(s)"
                 f"{f', {self.lost_daemons} lost' if self.lost_daemons else ''}"
                 f"{probation}, "
                 f"{self.chunks} chunk(s) over {self.leases} lease(s)"
                 f"{f', {self.stolen} stolen' if self.stolen else ''}; "
                 f"{self.remote_records} remote record(s) "
                 f"({self.remote_cached} store-hit), "
                 f"{self.peer_records} peer-fetched, "
                 f"{self.local_records} local")
        return f"{base}\n{fleet}"


@dataclass
class _Daemon:
    """One remote's health record.  Fields change under the fleet
    lock; ``state`` changes only through :meth:`_Fleet.move`."""

    remote: tuple[str, int]
    label: str
    state: str | None = None  #: LEASING / PROBATION / LOST
    workers: int = 1          #: worker count its last probe reported
    lanes: int = 0            #: live lease lanes
    attempts: int = 0         #: failed re-probes since demotion
    next_probe: float = 0.0   #: monotonic time of the next re-probe


@dataclass(eq=False)
class _Fleet:
    """Shared mutable state of one distributed run.

    ``lock``/``cond`` guard the mutable fields; the per-run
    invariants (source, timeouts, hooks) ride along so lease lanes
    and the probation prober share one context object.
    """

    stats: DistributedSweepStats
    source: str
    key_points: dict[str, DesignPoint]
    verify_seed: int | None
    timeout: float
    retry: RetryPolicy | None
    progress: Callable[[dict], None] | None
    cache: ResultCache | None
    daemons: list[_Daemon]
    #: Coordinator trace context (the ``dse.sweep`` span): lease
    #: lanes, peer fetches and the prober attach it so their spans —
    #: and, through the wire, every daemon-side span — join the
    #: sweep's trace.
    trace_ctx: dict | None = None
    journal: SweepJournal | None = None
    merged: dict[str, dict] = field(default_factory=dict)
    chunk_keys: dict[int, list[str]] = field(default_factory=dict)
    queue: deque[int] = field(default_factory=deque)
    completed: set[int] = field(default_factory=set)
    draining: bool = False
    closed: bool = False

    def __post_init__(self) -> None:
        self.lock = threading.Lock()
        self.cond = threading.Condition(self.lock)

    def finished_locked(self) -> bool:
        return len(self.completed) >= len(self.chunk_keys)

    def leasing_over_locked(self) -> bool:
        return self.closed or self.draining or self.finished_locked()

    def steal(self, label: str, chunk_id: int) -> None:
        """Re-queue a failed lease's chunk for any surviving lane."""
        with self.cond:
            if self.closed or chunk_id in self.completed:
                return
            self.queue.append(chunk_id)
            self.stats.stolen += 1
            self.cond.notify_all()
        if trace.enabled():
            trace.event("distributed.steal", daemon=label,
                        chunk=chunk_id)

    def take(self, daemon: _Daemon) -> int | None:
        """The next chunk for a lane of *daemon*, or None once the
        lane should exit: every chunk done, the sweep draining, or
        the daemon out of ``leasing``.  A transiently empty queue is
        NOT the end: a chunk in flight on another daemon may yet fail
        and be re-queued, and the lane must be around to steal it."""
        with self.cond:
            while not (self.leasing_over_locked()
                       or daemon.state != LEASING):
                if not self.queue:
                    self.cond.wait(timeout=0.2)
                elif (chunk_id := self.queue.popleft()) \
                        not in self.completed:  # else: a stale re-queue
                    self.stats.leases += 1
                    return chunk_id
            return None

    def move(self, daemon: _Daemon, state: str, error: str = "") -> bool:
        """Move *daemon* to health *state* — the only code that does
        — and report the move once: stats ledger, tracer event,
        progress callback (called outside the lock, which this
        takes).  Answers False, reporting nothing, for a
        move not legal now: a sibling lane demoting a demoted daemon,
        a readmission once leasing is over, anything once closed."""
        with self.cond:
            transition = (daemon.state, state)
            late_readmit = transition == (PROBATION, LEASING) and \
                self.leasing_over_locked()
            if self.closed or late_readmit \
                    or transition not in _TRANSITIONS:
                return False
            report = _TRANSITIONS[transition]
            daemon.state = state
            if state == PROBATION:
                daemon.attempts = 0
                daemon.next_probe = time.monotonic() + \
                    PROBE_BACKOFF.delay(1, key=daemon.label)
            if report is not None:
                name = report[1]
                setattr(self.stats, name,
                        getattr(self.stats, name) + 1)
            self.cond.notify_all()
        if report is None:
            return True
        event = report[0]
        details = {"daemon": daemon.label}
        if state != LEASING:
            details["error"] = error
        if trace.enabled():
            trace.event(f"distributed.{event}", **details)
        if self.progress is not None:
            self.progress({"event": event, **details})
        return True


def _probe(remote: tuple[str, int], timeout: float) -> int | None:
    """Worker count of a live daemon, or None when unreachable —
    both the admission probe and the probation re-probe."""
    from repro.service.client import ServiceClient, ServiceError
    client = ServiceClient(*remote, timeout=min(timeout, 10.0))
    try:
        stats = client.stats()
    except (ServiceError, OSError, ValueError):
        return None
    workers = stats.get("workers", {}).get("workers", 1)
    return max(1, int(workers))


#: Keys per ``store-has`` probe request (stays under the protocol's
#: ``MAX_STORE_KEYS`` bound).
PEER_QUERY_BATCH = 1024
#: Keys per ``store-fetch`` request — records ride along, so fetch
#: batches stay small enough that one response is a few MB at most.
PEER_FETCH_BATCH = 256


def _concurrently(target: Callable, calls: Sequence[tuple]) -> list:
    """Run *target* once per argument tuple, each on its own thread;
    their results, in call order."""
    results: list = [None] * len(calls)

    def run(index: int, args: tuple) -> None:
        results[index] = target(*args)

    threads = [threading.Thread(target=run, args=pair, daemon=True)
               for pair in enumerate(calls)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results


def _write_back(cache: ResultCache | None,
                records: Mapping[str, dict]) -> None:
    """Persist ok records into the coordinator's cache *now* — the
    durability half of resumable sweeps.  Written unconditionally:
    like a local run_sweep, a verified record must replace a stale
    unverified entry for the same key."""
    if cache is None:
        return
    for key, record in records.items():
        if record.get("ok"):
            cache.put(key, record)


def _peer_prefetch(fleet: _Fleet, remotes: Sequence[tuple[str, int]],
                   pending: Sequence[str]) -> None:
    """Pull records the fleet's stores already hold, before any
    chunk is leased — a daemon that mapped these points in an earlier
    sweep (or was warmed by another coordinator) serves them as store
    reads instead of re-mapping them.

    Strictly best-effort: a daemon that cannot answer (unreachable,
    or an old build without the store endpoints) contributes nothing
    but is **not** demoted — it can still serve leases.  Fetched
    records land in ``fleet.merged`` exactly like leased ones (and in
    the coordinator's cache, immediately), so the caller's merge and
    fallback logic need no special casing; the per-peer ledger goes
    to ``DistributedSweepStats.peers``.
    """
    from repro.service.client import ServiceClient

    timeout = fleet.timeout
    want_verified = fleet.verify_seed is not None

    def inventory(remote: tuple[str, int]) -> set[str] | None:
        client = ServiceClient(*remote, timeout=min(timeout, 30.0))
        found: set[str] = set()
        with trace.attach(fleet.trace_ctx), \
                trace.span("distributed.peer.inventory",
                           daemon=f"{remote[0]}:{remote[1]}",
                           keys=len(pending)):
            try:
                for start in range(0, len(pending),
                                   PEER_QUERY_BATCH):
                    found.update(client.store_has(
                        pending[start:start + PEER_QUERY_BATCH],
                        verified=want_verified))
            except Exception:  # noqa: BLE001 — best-effort peering
                return None
        return found

    inventories = dict(zip(remotes, _concurrently(
        inventory, [(remote,) for remote in remotes])))

    # Assign each held key to the first daemon (fleet order) holding
    # it: deterministic, and each record crosses the wire once.
    taken: set[str] = set()
    assignments: list[tuple[tuple[str, int], str, list[str]]] = []
    for remote in remotes:
        label = f"{remote[0]}:{remote[1]}"
        found = inventories.get(remote)
        if found is None:
            with fleet.lock:
                fleet.stats.peers[label] = {
                    "hits": 0, "misses": 0, "unreachable": True}
            continue
        mine = [key for key in pending
                if key in found and key not in taken]
        taken.update(mine)
        with fleet.lock:
            fleet.stats.peers[label] = {
                "hits": 0, "misses": len(pending) - len(found)}
        if mine:
            assignments.append((remote, label, mine))

    def fetch(remote: tuple[str, int], label: str,
              keys: list[str]) -> None:
        client = ServiceClient(*remote, timeout=min(timeout, 30.0))
        got: dict[str, dict] = {}
        with trace.attach(fleet.trace_ctx), \
                trace.span("distributed.peer.fetch", daemon=label,
                           keys=len(keys)):
            try:
                for start in range(0, len(keys), PEER_FETCH_BATCH):
                    got.update(client.store_fetch(
                        keys[start:start + PEER_FETCH_BATCH],
                        verified=want_verified))
            except Exception:  # noqa: BLE001 — best-effort: partial
                pass  # batches still count; the rest is leased
        wanted = set(keys)
        valid = {key: record for key, record in got.items()
                 if key in wanted and isinstance(record, dict)}
        with fleet.lock:
            for key, record in valid.items():
                fleet.merged.setdefault(key, record)
            fleet.stats.peer_records += len(valid)
            fleet.stats.peers[label]["hits"] = len(valid)
        _write_back(fleet.cache, valid)
        if fleet.journal is not None and valid:
            fleet.journal.complete(-1, list(valid))
        if trace.enabled():
            trace.event("distributed.peer", daemon=label,
                        records=len(valid))
        if fleet.progress is not None:
            fleet.progress({"event": "peer", "daemon": label,
                            "records": len(valid)})

    _concurrently(fetch, assignments)


def _lease_lane(fleet: _Fleet, daemon: _Daemon) -> None:
    """One lease lane: take chunks, lease them to *daemon*, merge.

    A daemon has one lane per remote worker.  The first failed lease
    demotes it and re-queues the chunk for a surviving lane (or the
    local fallback); the client's stop predicate reads that state, so
    sibling lanes stop retrying at once instead of spending their
    remaining attempts on a demoted daemon."""
    from repro.service.client import ServiceClient

    client = ServiceClient(*daemon.remote,
                           timeout=min(fleet.timeout, 30.0),
                           retry=fleet.retry,
                           stop=lambda: daemon.state != LEASING)
    try:
        with trace.attach(fleet.trace_ctx):
            while (chunk_id := fleet.take(daemon)) is not None:
                try:
                    payload = _lease(fleet, client, daemon.label,
                                     chunk_id)
                except BaseException as error:  # noqa: BLE001 — a
                    # lane must NEVER die without re-queuing its chunk
                    # (the sweep would wait on it forever); any failure
                    # shape — ServiceError, reset socket, torn HTTP
                    # frame, a stopped retry, even a KeyboardInterrupt
                    # landing in this thread — demotes and re-queues.
                    # Interrupts then propagate so the process dies.
                    fleet.move(daemon, PROBATION, str(error))
                    fleet.steal(daemon.label, chunk_id)
                    if not isinstance(error, Exception):
                        raise
                    return
                _complete(fleet, daemon.label, chunk_id, payload)
    finally:
        with fleet.cond:
            daemon.lanes -= 1
            fleet.cond.notify_all()


def _lease(fleet: _Fleet, client, label: str, chunk_id: int) -> dict:
    """Lease one chunk; the daemon's payload, whose records cover
    every leased key."""
    from repro.service.client import ServiceError

    chunk = fleet.chunk_keys[chunk_id]
    request = {
        "kind": "sweep-chunk",
        "source": fleet.source,
        "points": [fleet.key_points[key].to_dict() for key in chunk],
        "verify_seed": fleet.verify_seed,
    }
    if fleet.journal is not None:
        fleet.journal.lease(chunk_id, label, chunk)
    if trace.enabled():
        trace.event("distributed.lease", daemon=label,
                    chunk=chunk_id, points=len(chunk))
    # The lease span covers the full round trip (submit plus
    # long-poll); its context rides the request so the daemon's
    # queue/worker spans stitch in as its children.  Untraced runs add
    # nothing to the wire.
    retried = client.retries
    try:
        with trace.span("distributed.lease", daemon=label,
                        chunk=chunk_id, points=len(chunk)):
            if trace.enabled():
                request["trace"] = trace.context()
            job = client.submit(request)["job"]
            payload = job["result"] if job["state"] == "done" else \
                client.result(job["id"], timeout=fleet.timeout)
    finally:
        # The ledger takes a lease's retries as the lease ends —
        # before its chunk can complete the sweep; a straggler
        # ending after the sweep closed reports nothing.
        with fleet.lock:
            if not fleet.closed:
                fleet.stats.retries += client.retries - retried
    missing = [key for key in chunk if key not in payload["records"]]
    if missing:
        raise ServiceError(
            f"daemon answered {len(payload['records'])} record(s), "
            f"{len(missing)} leased key(s) missing", retryable=False)
    return payload


def _complete(fleet: _Fleet, label: str, chunk_id: int,
              payload: dict) -> None:
    """Merge one leased chunk's records and count it done.

    Durability first: records hit the cache and the journal records
    the completion BEFORE the chunk is marked done — otherwise the
    coordinator could observe the sweep finished and close the
    journal while this `complete` line is still in flight.  A stolen
    chunk landing twice re-writes byte-identical records (puts are
    idempotent) and adds a redundant journal line (completions are a
    set on load): harmless — and, deliberately, it counts nothing.
    """
    chunk = fleet.chunk_keys[chunk_id]
    records = {key: payload["records"][key] for key in chunk}
    _write_back(fleet.cache, records)
    if fleet.journal is not None:
        fleet.journal.complete(chunk_id, chunk)
    with fleet.cond:
        if fleet.closed or chunk_id in fleet.completed:
            return
        fresh = [key for key in chunk if key not in fleet.merged]
        fleet.merged.update((key, records[key]) for key in fresh)
        fleet.completed.add(chunk_id)
        fleet.stats.remote_records += len(fresh)
        fleet.stats.remote_cached += \
            payload.get("stats", {}).get("cached", 0)
        done, total = len(fleet.completed), len(fleet.chunk_keys)
        fleet.cond.notify_all()
    if fleet.progress is not None:
        fleet.progress({"event": "chunk", "daemon": label,
                        "done": done, "total": total,
                        "points": len(chunk)})


def _spawn_lanes(fleet: _Fleet, daemon: _Daemon) -> None:
    """Start one lease lane per remote worker (capped).  Caller must
    hold no fleet lock; lane accounting happens inside."""
    lanes = min(max(1, daemon.workers), MAX_LEASES_PER_DAEMON)
    with fleet.cond:
        if fleet.closed or fleet.draining:
            return
        daemon.lanes += lanes
    for __ in range(lanes):
        threading.Thread(target=_lease_lane, args=(fleet, daemon),
                         daemon=True).start()


def _prober(fleet: _Fleet) -> None:
    """Re-probe probation daemons on their backoff schedule and
    readmit each one that answers, with the worker count it reports.
    Only a daemon whose old lanes have all wound down is re-probed,
    so no lane outlives the admission it was started for."""
    with trace.attach(fleet.trace_ctx):
        while True:
            with fleet.cond:
                while True:
                    if fleet.leasing_over_locked():
                        return
                    now = time.monotonic()
                    due = [daemon for daemon in fleet.daemons
                           if daemon.state == PROBATION
                           and daemon.lanes == 0
                           and now >= daemon.next_probe]
                    if due:
                        break
                    fleet.cond.wait(timeout=0.1)
            for daemon in due:
                with fleet.lock:
                    fleet.stats.probes += 1
                with trace.span("distributed.probe",
                                daemon=daemon.label):
                    workers = _probe(daemon.remote, fleet.timeout)
                if workers is None:
                    with fleet.cond:
                        daemon.attempts += 1
                        daemon.next_probe = time.monotonic() + \
                            PROBE_BACKOFF.delay(
                                min(daemon.attempts + 1, 16),
                                key=daemon.label)
                    continue
                daemon.workers = workers
                if fleet.move(daemon, LEASING):
                    _spawn_lanes(fleet, daemon)


def run_distributed_sweep(
        source: str, points: Iterable[DesignPoint], *,
        remotes: str | Sequence[str],
        cache=None,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        timeout: float = DEFAULT_LEASE_TIMEOUT,
        verify_seed: int | None = None,
        frontends: Mapping[FrontendSpec, Frontend] | None = None,
        progress: Callable[[dict], None] | None = None,
        retry: RetryPolicy | None = DEFAULT_RETRY,
        ) -> SweepResult:
    """Evaluate *points* against *source* across a daemon fleet.

    Drop-in for :func:`run_sweep` (same result shape, bit-identical
    records); *remotes* names the fleet, *chunk_size* the lease
    granularity, *timeout* the per-lease deadline after which a chunk
    is re-leased.  *retry* is the in-lease policy for transient
    faults (None restores single-shot calls).  With a *cache*, a
    checkpoint journal beside it records the sweep's progress (what
    ``--resume`` reports).  *progress*, when given, receives one
    dict per completed chunk (``event: "chunk"``), per peer-store
    fetch (``"peer"``), per demoted daemon (``"probation"``), per
    readmission (``"readmit"``), per daemon lost (``"lost"``) and for
    the local fallback (``"fallback"``) — the fleet tests use it
    to kill daemons at deterministic moments.
    """
    with trace.span("dse.sweep", mode="distributed") as sweep_span:
        started = time.perf_counter()
        points = list(points)
        cache = _resolve_cache(cache)
        if chunk_size < 1:
            raise ValueError(
                f"chunk_size must be >= 1, got {chunk_size}")
        stats = DistributedSweepStats(total=len(points))

        point_keys, key_points, by_key, pending = _cache_pass(
            source, points, cache, verify_seed, stats)
        stats.evaluated = len(pending)

        if pending:
            fleet = _Fleet(
                stats, source, key_points, verify_seed, timeout, retry,
                progress, cache,
                [_Daemon(remote, f"{remote[0]}:{remote[1]}")
                 for remote in parse_remotes(remotes)],
                trace_ctx=trace.context())
            _distribute(fleet, pending, chunk_size, frontends)
            by_key.update(fleet.merged)

        records = [by_key[key] for key in point_keys]
        stats.failed = sum(1 for key in key_points
                           if not by_key[key]["ok"])
        stats.elapsed = time.perf_counter() - started
        sweep_span.note(points=stats.total, cached=stats.cached,
                        evaluated=stats.evaluated, failed=stats.failed,
                        daemons=stats.daemons)
    return SweepResult(points=points, records=records, stats=stats)


def _distribute(fleet: _Fleet, pending: list[str], chunk_size: int,
                frontends: Mapping[FrontendSpec, Frontend] | None
                ) -> None:
    """Source every *pending* record into ``fleet.merged``: peer
    stores first, then leased chunks, then the local fallback."""
    stats = fleet.stats
    journal_path = journal_path_for(fleet.cache)
    if journal_path is not None:
        try:
            fleet.journal = SweepJournal(journal_path, sweep_id(
                fleet.source, list(fleet.key_points), fleet.verify_seed))
            fleet.journal.begin(total=len(fleet.key_points),
                                pending=pending)
        except OSError:
            fleet.journal = None  # journal is best-effort

    # Probe the fleet (concurrently — a down daemon costs one connect
    # timeout, not one per fleet member in sequence); unreachable
    # daemons are lost and never get a lease.
    probed = _concurrently(_probe, [(daemon.remote, fleet.timeout)
                                    for daemon in fleet.daemons])
    for daemon, workers in zip(fleet.daemons, probed):
        if workers is None:
            fleet.move(daemon, LOST, "unreachable at probe")
        else:
            daemon.workers = workers
            fleet.move(daemon, LEASING)
    alive = [daemon for daemon in fleet.daemons
             if daemon.state == LEASING]
    stats.daemons = len(fleet.daemons)
    stats.workers = max([1] + [daemon.workers for daemon in alive])

    # Peering pass: before leasing any chunk, pull every pending
    # record some daemon's *store* already holds — a store read on
    # the peer instead of a re-map on its workers.
    if alive:
        _peer_prefetch(fleet, [daemon.remote for daemon in alive],
                       pending)

    # Only keys no peer could serve are leased as chunks.
    to_lease = [key for key in pending if key not in fleet.merged]
    chunk_lists = [to_lease[index:index + chunk_size]
                   for index in range(0, len(to_lease), chunk_size)]
    stats.chunks = len(chunk_lists)
    fleet.chunk_keys = dict(enumerate(chunk_lists))
    fleet.queue = deque(fleet.chunk_keys)

    if alive and chunk_lists:
        for daemon in alive:
            _spawn_lanes(fleet, daemon)
        threading.Thread(target=_prober, args=(fleet,),
                         daemon=True).start()
        # Ride the sweep until every chunk completed, or no lane is
        # left to finish the rest: drain to the local fallback (a
        # probation daemon only rejoins a *running* sweep, so
        # readmission needs a surviving daemon to keep it running).
        with fleet.cond:
            while not fleet.finished_locked():
                if not any(daemon.lanes for daemon in fleet.daemons):
                    fleet.draining = True
                    break
                fleet.cond.wait(timeout=0.2)
            fleet.cond.notify_all()

    # Daemons still on probation now never made it back: lost.
    for daemon in fleet.daemons:
        if daemon.state == PROBATION:
            fleet.move(daemon, LOST, "still on probation at sweep end")

    # Whatever the fleet did not deliver runs locally — the sweep
    # completes no matter how many daemons died.
    with fleet.lock:
        leftover = [key for key in pending if key not in fleet.merged]
    if leftover:
        local = run_sweep(
            fleet.source, [fleet.key_points[key] for key in leftover],
            cache=fleet.cache, verify_seed=fleet.verify_seed,
            frontends=frontends)
        with fleet.lock:
            fleet.merged.update(zip(leftover, local.records))
        stats.local_records = len(leftover)
        stats.workers = max(stats.workers, local.stats.workers)
        if fleet.journal is not None:
            fleet.journal.complete(-2, leftover)
        if trace.enabled():
            trace.event("distributed.fallback", points=len(leftover))
        if fleet.progress is not None:
            fleet.progress({"event": "fallback",
                            "points": len(leftover)})

    with fleet.cond:
        fleet.closed = True
        fleet.cond.notify_all()
    if fleet.journal is not None:
        fleet.journal.end()
        fleet.journal.close()
