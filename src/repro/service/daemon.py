"""The asyncio mapping daemon behind ``fpfa-map serve``.

One process, two moving parts:

* an **HTTP front** (plain asyncio streams, framed by
  :mod:`repro.service.wire`; endpoints in ``docs/service.md``): JSON
  over HTTP/1.1 connections that carry many requests, plus an NDJSON
  event stream per job;
* a **dispatcher** that drains the :class:`~repro.service.queue.JobQueue`
  into a :class:`~repro.dse.runner.WorkerPool` under a
  bounded-concurrency semaphore (at most ``workers`` jobs in flight).
  A map job is one :func:`~repro.dse.runner.run_map_job` task, a
  chunk's uncached points one :func:`~repro.dse.runner.run_chunk_job`
  task — the pool and chunk task a local pooled sweep uses.

The daemon holds no frontend: each worker keeps its own memo of
compiled frontends (see :class:`~repro.dse.runner.WorkerPool`), and
the daemon adds each job's memo misses and hits to ``/stats``.

Invariants
----------
* A map job's response payload is **bit-identical** to ``fpfa-map
  map --json`` for the same flags — both are built by
  ``protocol.record_to_map_payload`` from the same metric dicts.
* Exactly one backend run per coalesce key: duplicate in-flight
  submissions join the running job, and finished work is served from
  the artifact store without touching the pool.
* The daemon's :class:`~repro.dse.cache.ResultCache` handle is the
  only code that reads or writes its store, for every job kind:
  workers get sources and points and return records, and the daemon
  :meth:`~repro.dse.cache.ResultCache.admit`-s the ``ok`` ones.
* The daemon binds loopback by default and speaks an unauthenticated
  protocol — it is an internal building block, not an internet-facing
  server; put a real proxy in front for anything shared.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import json
import os
import tempfile
import threading
import time
from urllib.parse import parse_qs, urlsplit

from repro.dse.cache import ResultCache
from repro.dse.runner import (
    SweepStats,
    WorkerPool,
    _cache_pass,
    run_chunk_job,
    run_map_job,
)
from repro.dse.space import DesignPoint
from repro.obs import trace
from repro.obs.export import TRACE_LOG_NAME, FlightRecorder
from repro.service import wire
from repro.service.protocol import (
    DEFAULT_HOST,
    DEFAULT_PORT,
    RETRY_AFTER_QUEUE_FULL,
    ProtocolError,
    coalesce_key,
    job_key,
    normalise_request,
    record_to_map_payload,
    request_point,
)
from repro.service.queue import Job, JobQueue, QueueFull
from repro.service.wire import HttpError

#: Seconds a connection has to send a whole request, head and body,
#: counted from when the daemon starts reading it, so also how long a
#: kept-alive connection may sit idle.  A connection that runs out is
#: closed unanswered.
HEAD_TIMEOUT = 60.0


class MappingService:
    """The daemon: queue + pool + store behind an HTTP front."""

    def __init__(self, *, store=None, workers: int | None = None,
                 worker_mode: str = "process",
                 max_queue: int = 1024,
                 store_max_entries: int | None = None,
                 store_max_bytes: int | None = None):
        self._own_store: tempfile.TemporaryDirectory | None = None
        if store is None:
            # Ephemeral store: still fully functional (coalescing,
            # warm resubmits) for a daemon run without --store.
            self._own_store = tempfile.TemporaryDirectory(
                prefix="fpfa-service-")
            store = self._own_store.name
        self.store = store if isinstance(store, ResultCache) \
            else ResultCache(store)
        if store_max_entries is not None or \
                store_max_bytes is not None:
            # Bound the store now: an over-full inherited directory
            # is trimmed before the daemon serves its first request.
            self.store.set_bounds(store_max_entries, store_max_bytes)
        # Build the store's index before the loop serves anything (a
        # bound above has already scanned): from here on, describe()
        # never walks the directory, so GET /stats serves it inline.
        len(self.store)
        self.pool = WorkerPool(workers, worker_mode)
        self.queue = JobQueue(max_depth=max_queue)
        #: Wall-clock start — presentation only (clients correlate it
        #: with their logs).  ``uptime`` everywhere derives from the
        #: monotonic twin: ``time.time()`` steps under NTP
        #: corrections, so a wall-clock uptime can jump or go
        #: negative (the queue.py convention from PR 5).
        self.started_at = time.time()  # fpfa-lint: wall-clock
        self.started_mono = time.monotonic()
        self.address: tuple[str, int] | None = None
        #: The daemon's own counts, the ``/stats`` service section:
        #: bumped on the event loop and read there by ``describe()``.
        #: ``coalesced`` is the queue's; the ``frontends_`` pair sums
        #: the jobs' worker memo misses and hits.
        self.counts = dict.fromkeys(
            ("submits", "store_hits", "computed", "failed",
             "frontends_compiled", "frontends_reused"), 0)
        self._server: asyncio.AbstractServer | None = None
        self._events: asyncio.Condition | None = None
        self._slots: asyncio.Semaphore | None = None
        self._shutdown: asyncio.Event | None = None
        self._dispatcher: asyncio.Task | None = None
        #: The handler task of every open connection, and whether
        #: close() is ending them (their cancellation is then no
        #: error).
        self._connections: set[asyncio.Task] = set()
        self._closing = False
        #: Flight recorder streaming finished spans to an NDJSON log
        #: beside the store — only when the daemon starts with
        #: tracing enabled (FPFA_TRACE=1); otherwise no file, no
        #: sink, no cost.
        self._recorder: FlightRecorder | None = None
        if trace.enabled():
            self._recorder = FlightRecorder(
                self.store.root / TRACE_LOG_NAME)
            trace.TRACER.add_sink(self._recorder)

    # -- lifecycle ----------------------------------------------------

    async def start(self, host: str = DEFAULT_HOST,
                    port: int = DEFAULT_PORT) -> tuple[str, int]:
        """Bind, start dispatching, return the (host, port) bound
        (``port=0`` picks a free one)."""
        self._events = asyncio.Condition()
        self._slots = asyncio.Semaphore(self.pool.workers)
        self._shutdown = asyncio.Event()
        # readuntil() takes up to *limit* bytes before its separator.
        self._server = await asyncio.start_server(
            self._handle_connection, host, port,
            limit=wire.MAX_HEAD - 4)
        self.address = self._server.sockets[0].getsockname()[:2]
        self._dispatcher = asyncio.create_task(self._dispatch())
        return self.address

    async def wait_shutdown(self) -> None:
        await self._shutdown.wait()

    def request_shutdown(self) -> None:
        if self._shutdown is not None:
            self._shutdown.set()

    async def close(self) -> None:
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
        if self._server is not None:
            self._server.close()
            # End every open connection, idle ones too: the daemon
            # never closes a connection on its own while it runs, and
            # Server.wait_closed() (3.12+) waits for all of them.
            self._closing = True
            connections = list(self._connections)
            for task in connections:
                task.cancel()
            await asyncio.gather(*connections, return_exceptions=True)
            await self._server.wait_closed()
        self.pool.shutdown()
        if self._recorder is not None:
            trace.TRACER.remove_sink(self._recorder)
            self._recorder.close()
        if self._own_store is not None:
            self._own_store.cleanup()

    # -- submission ---------------------------------------------------

    async def submit(self, raw) -> tuple[Job, bool]:
        """Admit one raw request; returns ``(job, coalesced)``.

        Raises :class:`ProtocolError` (400) on malformed requests and
        :class:`QueueFull` (503) at the depth bound.  Store hits
        complete the job before this returns — no backend run.
        """
        request = normalise_request(raw)
        key = job_key(request)
        ckey = coalesce_key(request, key)
        # A map job is looked up in the store BEFORE queueing, on the
        # event loop, like a chunk's cache pass: no await sits between
        # the lookup, queue.submit and queue.finish below, so no job
        # for this key can run and finish between a stale miss and
        # its queueing, and the dispatcher cannot pop a hit before it
        # is finished.  A duplicate of an in-flight job coalesces
        # without a lookup.
        record = None
        want_verified = request.get("verify_seed") is not None
        if request["kind"] == "map" and not self.queue.inflight(ckey):
            # One small page-cache read (~0.05 ms); the executor round
            # trip it used to take cost ~0.4-0.55 ms on a loaded host.
            record = self.store.get(  # fpfa-lint: disable=FPL002
                key, want_verified=want_verified)
        job, coalesced = self.queue.submit(request, key, ckey)
        self.counts["submits"] += 1
        if not coalesced and record is not None:
            self.counts["store_hits"] += 1
            payload = record_to_map_payload(
                record, file=request["file"],
                want_verified=want_verified)
            self.queue.finish(job, payload, cache="hit")
        await self._notify()
        return job, coalesced

    # -- dispatch -----------------------------------------------------

    async def _dispatch(self) -> None:
        while True:
            async with self._events:
                await self._events.wait_for(
                    lambda: self.queue.depth > 0)
            # Claim a worker slot first: the pop happens when a slot
            # is actually free.
            await self._slots.acquire()
            job = self.queue.pop()
            if job is None:
                self._slots.release()
                continue
            self.queue.mark_running(job)
            await self._notify()
            asyncio.create_task(self._run_job(job))

    async def _run_job(self, job: Job) -> None:
        try:
            if job.kind == "map":
                await self._run_map(job)
            else:
                await self._run_chunk(job)
        except asyncio.CancelledError:
            # Daemon shutdown mid-job: propagate so the task reads
            # as cancelled, not failed.
            raise
        except Exception as error:  # noqa: BLE001 — fault isolation
            self.counts["failed"] += 1
            self.queue.fail(job,
                            f"{type(error).__name__}: {error}")
        finally:
            self._slots.release()
            await self._notify()

    async def _run_map(self, job: Job) -> None:
        request = job.request
        record, info = await self._execute(
            run_map_job, request["source"], request_point(request),
            request["verify_seed"], request["trace"],
            fresh=lambda result: {job.key: result[0]})
        trace.adopt(info["spans"])
        reused = self._count_frontends(info)
        job.add_event("frontend", reused=reused)
        self.counts["computed"] += 1
        meta = {"cache": "miss", "frontend_reused": reused,
                "timings": info.get("timings"),
                "worker": info.get("worker")}
        if record["ok"]:
            payload = record_to_map_payload(
                record, file=request["file"],
                want_verified=request["verify_seed"] is not None)
            self.queue.finish(job, payload, **meta)
        else:
            self.counts["failed"] += 1
            self.queue.fail(job, record["error"], **meta)

    async def _run_chunk(self, job: Job) -> None:
        """One distributed-sweep lease: serve the chunk's points from
        the store, map the rest as one worker-pool task (chunks of one
        sweep spread across the pool), and admit the fresh records,
        so a repeated chunk is pure store reads.  The cache pass uses
        the ``want_verified`` rule map jobs use; a chunk whose points
        are all stored finishes without a pool task.

        A traced job (its request carries a trace context) returns its
        trace entries in the payload's ``trace`` field: the job's
        ``queue.wait`` span and its worker's capture, with this
        daemon's pid, so the coordinator can adopt them.  An untraced
        job's payload has no such field.

        The cache pass runs on the event loop: it is a few small page
        cache reads, and a round trip through an executor thread costs
        more than they do on a loaded host (with one for the pass and
        one for the admits, perfbench ``service_mix`` read a store
        hit's latency about 20% worse).
        """
        request = job.request
        points = [DesignPoint.from_dict(entry)
                  for entry in request["points"]]
        stats = SweepStats(total=len(points))
        point_keys, key_points, by_key, pending = _cache_pass(
            request["source"], points, self.store,
            request["verify_seed"], stats)
        worker = None
        spans = [] if job.wait_span is None else [
            dict(job.wait_span, pid=os.getpid())]
        if pending:
            missing = [key_points[key] for key in pending]
            fresh, info = await self._execute(
                run_chunk_job, request["source"], missing,
                request["verify_seed"], request["trace"],
                fresh=lambda result: result[0])
            trace.adopt(info["spans"])
            self._count_frontends(info)
            spans += info["spans"]
            worker = info["worker"]
            by_key.update(fresh)
        self.counts["computed"] += 1
        chunk_stats = {"cached": stats.cached,
                       "evaluated": len(pending),
                       "failed": sum(1 for key in key_points
                                     if not by_key[key]["ok"])}
        payload = {
            "kind": "sweep-chunk",
            "points": len(points),
            "records": {key: by_key[key] for key in point_keys},
            "stats": chunk_stats,
        }
        if job.trace_id is not None and spans:
            payload["trace"] = {"pid": os.getpid(), "spans": spans}
        self.queue.finish(job, payload, cache="chunk", worker=worker,
                          stats=chunk_stats)

    async def _execute(self, fn, *args, fresh):
        """Run one executor function on the pool without blocking the
        event loop, and admit the records it computed.

        *fresh* picks ``{key: record}`` out of the function's result.
        The records are admitted on the thread that delivers the
        result, before the event loop hears of it: they are in the
        store when the job finishes, and the job costs no second
        thread hop, which on a loaded host costs more than the writes.
        The loop waits on a second future that the admitting callback
        completes: a callback the loop added to the task itself could
        run between the task's end and the admits.
        """
        task = self.pool.submit(fn, *args)
        admitted: concurrent.futures.Future = concurrent.futures.Future()

        def admit(done: concurrent.futures.Future) -> None:
            if done.cancelled():
                admitted.cancel()
                return
            try:
                result = done.result()
                for key, record in fresh(result).items():
                    self.store.admit(key, record)
            except Exception as error:  # noqa: BLE001 — the task's
                # failure (or an admit's) is the job's
                admitted.set_exception(error)
            else:
                admitted.set_result(result)

        task.add_done_callback(admit)
        return await asyncio.wrap_future(admitted)

    def _count_frontends(self, info: dict) -> bool:
        """Add one job's worker memo misses and hits to the counts;
        True when the job reused a frontend."""
        self.counts["frontends_compiled"] += info["frontends_compiled"]
        self.counts["frontends_reused"] += info["frontends_reused"]
        return info["frontends_reused"] > 0

    # -- notification -------------------------------------------------

    async def _notify(self) -> None:
        async with self._events:
            self._events.notify_all()

    async def _wait_terminal(self, job: Job,
                             timeout: float | None) -> None:
        if job.terminal:
            return
        try:
            async with self._events:
                await asyncio.wait_for(
                    self._events.wait_for(lambda: job.terminal),
                    timeout)
        except asyncio.TimeoutError:
            pass

    # -- stats --------------------------------------------------------

    @property
    def uptime(self) -> float:
        """Seconds since start — monotonic, immune to clock steps."""
        return time.monotonic() - self.started_mono

    def describe(self) -> dict:
        """The ``/stats`` document."""
        service = dict(self.counts)
        service["coalesced"] = self.queue.coalesced
        return {
            "uptime": round(self.uptime, 3),
            "started_at": self.started_at,
            "service": service,
            "queue": self.queue.stats(),
            "workers": self.pool.describe(),
            "store": {"root": str(self.store.root),
                      **self.store.stats()},
        }

    # -- HTTP front ---------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        """Answer requests on one connection until the client ends it
        or a response says ``Connection: close``."""
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            while await self._serve_one(reader, writer):
                pass
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        except asyncio.CancelledError:
            # Cancelled by close(): end quietly, so the stream
            # protocol's done callback (which calls task.exception())
            # has nothing to log.  Any other cancellation re-raises
            # so the task finishes *cancelled* instead of swallowing
            # it.  The writer is closed in `finally` either way; the
            # client sees the connection drop.
            if not self._closing:
                raise
        finally:
            self._connections.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _serve_one(self, reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter) -> bool:
        """Read and answer one request; False once the connection is
        done.  The answer closes it when the client asked, after an
        error (but a 503, whose request was read in full), after the
        event stream and once the daemon is shutting down; a request,
        head and body, not in by ``HEAD_TIMEOUT`` closes it
        unanswered."""
        close = True  # until a request is read in full
        headers = None
        try:
            try:
                async with asyncio.timeout(HEAD_TIMEOUT):
                    head = await reader.readuntil(b"\r\n\r\n")
                    method, target, __, close, length = \
                        wire.parse_request_head(head)
                    body = await reader.readexactly(length)
            except asyncio.LimitOverrunError:
                raise HttpError(431, f"head over {wire.MAX_HEAD} bytes")
            except TimeoutError:
                return False  # half a request, or none: no answer
            response = await self._route(method, target, body, writer)
        except HttpError as error:
            status, payload = error.status, {"error": str(error)}
            headers = error.headers
            close = close or status != 503
        except (asyncio.CancelledError, asyncio.IncompleteReadError,
                ConnectionError):
            raise  # cancelled, or EOF, a cut head, a reset: no answer
        except Exception as error:  # noqa: BLE001 — answer, then close
            status = 500
            payload = {"error": f"{type(error).__name__}: {error}"}
            close = True
        else:
            if response is None:  # the event stream, close-delimited
                return False
            status, payload = response
        close = close or self._shutdown.is_set()
        writer.write(wire.encode_response(status, payload, headers,
                                          close))
        await writer.drain()
        return not close

    async def _route(self, method: str, target: str, body: bytes,
                     writer: asyncio.StreamWriter
                     ) -> tuple[int, dict] | None:
        """One request's ``(status, payload)``; None once the event
        stream has answered it on *writer* itself."""
        try:
            parts = urlsplit(target)
        except ValueError:  # "//[": an unclosed IPv6 host
            raise HttpError(400, f"malformed target {target[:80]!r}")
        path = parts.path.rstrip("/") or "/"
        query = parse_qs(parts.query)
        if method == "GET" and path == "/healthz":
            return 200, {"ok": True,
                         "uptime": round(self.uptime, 3),
                         "started_at": self.started_at}
        if method == "GET" and path == "/stats":
            # Served inline: the store's index was built in __init__,
            # so describe() only copies counters.
            return 200, self.describe()
        if method == "POST" and path == "/jobs":
            return await self._handle_submit(body, _wait_seconds(query))
        if method == "GET" and path == "/jobs":
            state = (query.get("state") or [None])[0]
            return 200, {"jobs": [job.view(with_result=False)
                                  for job in self.queue.list_jobs(state)]}
        if method == "GET" and path.startswith("/jobs/"):
            return await self._handle_job_get(path, query, writer)
        if method == "POST" and path == "/shutdown":
            # The answer goes out before close() ends the connection:
            # it is written as soon as this returns.
            self.request_shutdown()
            return 200, {"ok": True}
        raise HttpError(404, f"no route for {method} {path}")

    async def _handle_submit(self, body: bytes, wait: float | None
                             ) -> tuple[int, dict]:
        try:
            raw = json.loads(body.decode("utf-8") or "null")
        except ValueError:
            raise HttpError(400, "request body is not valid JSON")
        try:
            job, coalesced = await self.submit(raw)
        except ProtocolError as error:
            raise HttpError(400, str(error))
        except QueueFull as error:
            # Overload is transient by construction (jobs drain);
            # tell clients when it is worth coming back so they pace
            # themselves instead of hammering the queue.
            raise HttpError(
                503, str(error),
                headers={"Retry-After":
                         f"{RETRY_AFTER_QUEUE_FULL:g}"})
        if wait is not None:
            await self._wait_terminal(job, wait)
        return 200, {"job": job.view(), "coalesced": coalesced}

    async def _handle_job_get(self, path: str, query: dict,
                              writer: asyncio.StreamWriter
                              ) -> tuple[int, dict] | None:
        segments = path.split("/")  # "", "jobs", <id>[, "events"]
        job = self.queue.get(segments[2])
        if job is None:
            raise HttpError(404, f"unknown job {segments[2]!r}")
        if len(segments) == 4 and segments[3] == "events":
            await self._stream_events(job, writer)
            return None
        if len(segments) != 3:
            raise HttpError(404, f"no route for {path}")
        wait = _wait_seconds(query)
        if wait is not None:
            await self._wait_terminal(job, wait)
        return 200, job.view()

    async def _stream_events(self, job: Job,
                             writer: asyncio.StreamWriter) -> None:
        """NDJSON progress stream: replay, then follow to terminal.
        Close-delimited, so it is the connection's last answer."""
        writer.write(wire.EVENTS_HEAD)
        index = 0
        while True:
            while index < len(job.events):
                line = json.dumps(job.events[index],
                                  sort_keys=True) + "\n"
                writer.write(line.encode("utf-8"))
                index += 1
            await writer.drain()
            if job.terminal and index >= len(job.events):
                return
            async with self._events:
                await self._events.wait_for(
                    lambda: len(job.events) > index or job.terminal)


#: Cap on one long-poll, ``?wait=SECONDS`` on ``POST /jobs`` and
#: ``GET /jobs/<id>``.
MAX_WAIT = 300.0


def _wait_seconds(query: dict) -> float | None:
    """The request's ``?wait=`` long-poll in seconds, clamped to
    ``[0, MAX_WAIT]``; None when absent, 400 when not a number."""
    wait = (query.get("wait") or [None])[0]
    if wait is None:
        return None
    try:
        return min(max(float(wait), 0.0), MAX_WAIT)
    except ValueError:
        raise HttpError(400, f"bad wait value {wait!r}")


# ---------------------------------------------------------------------------
# In-process daemon harness
# ---------------------------------------------------------------------------

class ServiceThread:
    """A daemon running on a background thread of this process.

    The shape tests and benchmarks share: start,
    read the bound address, exercise it with the blocking client,
    stop.  ``worker_mode="thread"`` keeps everything in one process
    (no forking under a test runner); the flow's determinism makes
    results identical either way.
    """

    def __init__(self, host: str = DEFAULT_HOST, port: int = 0,
                 **service_kwargs):
        service_kwargs.setdefault("worker_mode", "thread")
        self._host = host
        self._port = port
        self._kwargs = service_kwargs
        self._ready = threading.Event()
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self.service: MappingService | None = None
        self.address: tuple[str, int] | None = None
        self.error: BaseException | None = None

    def start(self) -> tuple[str, int]:
        self._thread = threading.Thread(target=self._run,
                                        name="fpfa-service",
                                        daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("service thread failed to start")
        if self.error is not None:
            raise RuntimeError(
                f"service thread failed: {self.error}")
        return self.address

    def stop(self, timeout: float = 30) -> None:
        if self._thread is None or not self._thread.is_alive():
            return
        if self._loop is not None and self.service is not None:
            self._loop.call_soon_threadsafe(
                self.service.request_shutdown)
        self._thread.join(timeout=timeout)

    def __enter__(self) -> "ServiceThread":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        # Capture ANY failure, interrupts landing in the service
        # thread included, into self.error so start()/stop() re-raise
        # it on the owner's thread; re-raising here would kill the
        # thread with an unobserved traceback instead.
        # fpfa-lint: disable=FPL004
        except BaseException as error:  # noqa: BLE001 — report once
            self.error = error
        finally:
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self.service = MappingService(**self._kwargs)
        self.address = await self.service.start(self._host,
                                                self._port)
        self._ready.set()
        try:
            await self.service.wait_shutdown()
        finally:
            await self.service.close()
