"""The live fleet dashboard behind ``fpfa-map dashboard``.

Two halves, both stdlib-only:

* :class:`FleetCollector` — a polling thread that scrapes every
  daemon's ``/stats`` and ``/metrics`` on an interval and tails the
  NDJSON event stream of each in-flight job it discovers, merging
  everything into one versioned *fleet snapshot* (a plain JSON-able
  dict, sequence-numbered so consumers can wait for "newer than what
  I have").
* :class:`DashboardServer` — a ``http.server.ThreadingHTTPServer``
  serving three routes: ``/`` (the self-contained HTML/JS page next
  to this module), ``/api/fleet`` (the latest snapshot as JSON) and
  ``/events`` (the snapshot feed as Server-Sent Events — one ``data:``
  frame per collector tick, heartbeat comments while idle).

The dashboard is an **observer of the fleet, never a participant**:
it only issues GETs; it cannot submit, shut down or otherwise mutate
a daemon.  Losing a daemon mid-sweep is a normal, rendered condition
(the daemon's card goes stale and the lease timeline shows the
steal), mirroring the distributed sweep's own fault model.

The automated acceptance test drives exactly the browser's path —
HTTP index, SSE frames — against a real 2-daemon fleet; no browser
required.  See ``docs/observability.md`` for a walkthrough.
"""

from __future__ import annotations

import http.server
import json
import pathlib
import threading
import time
from collections import deque
from typing import Iterable

from repro.dse.distributed import parse_remotes
from repro.obs.metrics import MetricsParseError, parse_prometheus
from repro.service.client import ServiceClient, ServiceError
from repro.service.resilience import RetryPolicy

#: Fleet events kept in the rolling timeline.
TIMELINE_LIMIT = 256
#: Reconnect schedule for a broken job-event stream: a daemon restart
#: mid-tail gets a few backoff-spaced second chances before the tail
#: is abandoned (``attempts`` counts connections, so 4 = one original
#: + three reconnects).
TAIL_RECONNECT = RetryPolicy(attempts=4, base_delay=0.2,
                             max_delay=2.0, jitter=0.25)
#: Concurrent job tails across the whole fleet — a sweep can create
#: hundreds of chunk jobs; tailing a bounded set keeps the collector's
#: socket use flat while /stats still covers the aggregate.
MAX_TAILS = 32
#: SSE heartbeat period while no new snapshot arrives.
HEARTBEAT_SECONDS = 15.0

_ASSET = pathlib.Path(__file__).with_name("dashboard.html")


def _flatten_metrics(text: str) -> dict[str, float]:
    """Prometheus text → ``{"name{k=v}": value}`` for the page.

    Histogram buckets are dropped (the page shows ``_sum``/``_count``
    derived latency, not full distributions); a scrape that fails to
    parse yields an empty dict rather than poisoning the snapshot.
    """
    try:
        parsed = parse_prometheus(text)
    except MetricsParseError:
        return {}
    flat: dict[str, float] = {}
    for name, samples in parsed.samples.items():
        if name.endswith("_bucket"):
            continue
        for labels, value in samples:
            key = name
            if labels:
                inner = ",".join(f"{k}={v}"
                                 for k, v in sorted(labels.items()))
                key = f"{name}{{{inner}}}"
            flat[key] = value
    return flat


class FleetCollector:
    """Poll a daemon fleet into one sequence-numbered snapshot.

    ``start()`` launches the poll thread; ``snapshot()`` returns the
    latest fleet picture; ``wait(seq, timeout)`` blocks until a
    snapshot newer than *seq* exists (the SSE feed's primitive).
    """

    def __init__(self, remotes, *, interval: float = 1.0,
                 timeout: float = 5.0,
                 timeline: int = TIMELINE_LIMIT,
                 max_tails: int = MAX_TAILS):
        self.remotes = parse_remotes(remotes)
        if not self.remotes:
            raise ValueError("dashboard needs at least one remote")
        self.interval = interval
        self.timeout = timeout
        self.max_tails = max_tails
        self._lock = threading.Lock()
        self._updated = threading.Condition(self._lock)
        self._timeline: deque[dict] = deque(maxlen=timeline)
        self._snapshot: dict = {"seq": 0, "at": None,
                                "at_mono": None, "daemons": [],
                                "timeline": []}
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        #: (remote, job id) pairs ever tailed — a finished tail must
        #: not restart when the job lingers in the daemon's history.
        self._tailed: set[tuple[tuple[str, int], str]] = set()
        self._live_tails = 0
        #: Event-stream reconnects performed (shown in the snapshot
        #: so the page can surface flapping daemons).
        self._reconnects = 0
        #: Consecutive failed polls per daemon — 0 means healthy.
        self._down_polls: dict[tuple[str, int], int] = {}

    # -- lifecycle ----------------------------------------------------

    def start(self) -> "FleetCollector":
        self._thread = threading.Thread(target=self._run,
                                        name="fpfa-dashboard-poll",
                                        daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=10)

    def __enter__(self) -> "FleetCollector":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- reading ------------------------------------------------------

    def snapshot(self) -> dict:
        with self._lock:
            return self._snapshot

    def wait(self, seq: int, timeout: float) -> dict:
        """The first snapshot with ``seq`` greater than *seq*, or the
        current one when *timeout* elapses first."""
        with self._updated:
            self._updated.wait_for(
                lambda: self._snapshot["seq"] > seq, timeout)
            return self._snapshot

    # -- polling ------------------------------------------------------

    def _run(self) -> None:
        while not self._stop.is_set():
            started = time.monotonic()
            self._poll_once()
            elapsed = time.monotonic() - started
            self._stop.wait(max(0.05, self.interval - elapsed))

    def _poll_once(self) -> None:
        daemons = [self._poll_daemon(remote)
                   for remote in self.remotes]
        with self._updated:
            self._snapshot = {
                "seq": self._snapshot["seq"] + 1,
                # The PR 5 queue.py convention: the wall stamp is
                # presentation-only; staleness/interval math uses
                # the paired monotonic reading.
                "at": time.time(),  # fpfa-lint: wall-clock
                "at_mono": time.monotonic(),
                "daemons": daemons,
                "reconnects": self._reconnects,
                "timeline": list(self._timeline),
            }
            self._updated.notify_all()

    def _poll_daemon(self, remote: tuple[str, int]) -> dict:
        label = f"{remote[0]}:{remote[1]}"
        client = ServiceClient(*remote, timeout=self.timeout)
        entry: dict = {"url": label, "ok": False}
        try:
            entry["stats"] = client.stats()
            entry["metrics"] = _flatten_metrics(client.metrics())
            jobs = client.jobs()
        except (ServiceError, OSError, ValueError) as error:
            entry["error"] = str(error)
            down = self._down_polls.get(remote, 0) + 1
            self._down_polls[remote] = down
            entry["status"] = "down"
            entry["down_polls"] = down
            return entry
        self._down_polls[remote] = 0
        entry["ok"] = True
        entry["status"] = "ok"
        entry["jobs"] = {}
        for job in jobs:
            state = job["state"]
            entry["jobs"][state] = entry["jobs"].get(state, 0) + 1
        self._tail_new_jobs(remote, label, jobs)
        return entry

    def _tail_new_jobs(self, remote: tuple[str, int], label: str,
                       jobs: Iterable[dict]) -> None:
        # Terminal jobs are tailed too: the events endpoint replays a
        # finished job's whole lifecycle and closes, so a job that
        # completed between two polls still lands in the timeline.
        for job in jobs:
            key = (remote, job["id"])
            with self._lock:
                if key in self._tailed \
                        or self._live_tails >= self.max_tails:
                    continue
                self._tailed.add(key)
                self._live_tails += 1
            thread = threading.Thread(
                target=self._tail_job,
                args=(remote, label, job["id"], job["kind"]),
                name=f"fpfa-dashboard-tail-{job['id']}",
                daemon=True)
            thread.start()

    def _tail_job(self, remote: tuple[str, int], label: str,
                  job_id: str, kind: str) -> None:
        """Follow one job's NDJSON stream into the shared timeline.

        A stream broken mid-flight (the daemon restarted under the
        tail) is reconnected on :data:`TAIL_RECONNECT`'s backoff
        schedule instead of silently abandoning the daemon's events;
        the endpoint replays a job's lifecycle from the start, so
        already-seen events are skipped by count on replay.
        """
        client = ServiceClient(*remote, timeout=self.timeout + 300)
        seen = 0
        attempt = 0
        try:
            while not self._stop.is_set():
                try:
                    for index, event in enumerate(
                            client.events(job_id)):
                        if index < seen:
                            continue  # replayed prefix after reconnect
                        seen = index + 1
                        entry = {"daemon": label, "job": job_id,
                                 "kind": kind, **event}
                        with self._lock:
                            self._timeline.append(entry)
                        if self._stop.is_set():
                            break
                    return  # stream ended cleanly: job is terminal
                except (ServiceError, OSError, ValueError):
                    attempt += 1
                    if attempt >= TAIL_RECONNECT.attempts \
                            or self._stop.is_set():
                        return  # /stats still shows the daemon down
                    with self._lock:
                        self._reconnects += 1
                    time.sleep(TAIL_RECONNECT.delay(
                        attempt, key=f"{label}/{job_id}"))
        finally:
            with self._lock:
                self._live_tails -= 1


# ---------------------------------------------------------------------------
# HTTP + SSE front
# ---------------------------------------------------------------------------

class _DashboardHandler(http.server.BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def log_message(self, format, *args):  # noqa: A002 — stdlib name
        pass  # the dashboard is the quiet observer; no access log

    @property
    def collector(self) -> FleetCollector:
        return self.server.collector  # type: ignore[attr-defined]

    def do_GET(self) -> None:  # noqa: N802 — stdlib casing
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        if path == "/":
            self._send_index()
        elif path == "/api/fleet":
            self._send_fleet()
        elif path == "/events":
            self._stream_events()
        else:
            self._send(404, b'{"error": "not found"}',
                       "application/json")

    def _send(self, status: int, body: bytes,
              content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_index(self) -> None:
        self._send(200, _ASSET.read_bytes(),
                   "text/html; charset=utf-8")

    def _send_fleet(self) -> None:
        body = json.dumps(self.collector.snapshot(),
                          sort_keys=True).encode("utf-8")
        self._send(200, body, "application/json")

    def _stream_events(self) -> None:
        """SSE: one ``data:`` frame per new fleet snapshot.

        Close-delimited; heartbeat comments keep proxies and
        ``EventSource`` reconnect logic quiet while the fleet is
        idle.  A disconnected client surfaces as a broken pipe and
        simply ends this handler thread.
        """
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-store")
        self.send_header("Connection", "close")
        self.end_headers()
        seq = -1
        try:
            while True:
                snapshot = self.collector.wait(seq,
                                               HEARTBEAT_SECONDS)
                if snapshot["seq"] == seq:
                    self.wfile.write(b": heartbeat\n\n")
                    self.wfile.flush()
                    continue
                seq = snapshot["seq"]
                frame = ("data: "
                         + json.dumps(snapshot, sort_keys=True)
                         + "\n\n").encode("utf-8")
                self.wfile.write(frame)
                self.wfile.flush()
        except (BrokenPipeError, ConnectionError, OSError):
            return


class DashboardServer:
    """The dashboard's HTTP front: start, read the address, stop."""

    def __init__(self, collector: FleetCollector,
                 host: str = "127.0.0.1", port: int = 0):
        self.collector = collector
        self._server = http.server.ThreadingHTTPServer(
            (host, port), _DashboardHandler)
        self._server.daemon_threads = True
        self._server.collector = collector  # type: ignore[attr-defined]
        self.address: tuple[str, int] = \
            self._server.server_address[:2]
        self._thread: threading.Thread | None = None

    @property
    def url(self) -> str:
        return f"http://{self.address[0]}:{self.address[1]}"

    def start(self) -> tuple[str, int]:
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="fpfa-dashboard-http", daemon=True)
        self._thread.start()
        return self.address

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10)

    def __enter__(self) -> "DashboardServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def serve_dashboard(remotes, *, host: str = "127.0.0.1",
                    port: int = 0, interval: float = 1.0,
                    announce=print) -> None:
    """``fpfa-map dashboard``: collect and serve until interrupted."""
    with FleetCollector(remotes, interval=interval) as collector:
        with DashboardServer(collector, host, port) as server:
            fleet = ", ".join(f"{h}:{p}"
                              for h, p in collector.remotes)
            announce(f"dashboard on {server.url} "
                     f"(fleet: {fleet})", flush=True)
            try:
                while True:
                    time.sleep(3600)
            except KeyboardInterrupt:
                announce("dashboard stopped")
