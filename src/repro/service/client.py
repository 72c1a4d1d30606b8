"""Blocking client for the mapping daemon (stdlib ``http.client``).

One class, one method per endpoint, JSON dicts in and out.  The
client is deliberately synchronous.  It keeps the daemon's
connections open between calls (HTTP/1.1 persistence): a call takes
an idle connection or opens one, and puts it back once its answer is
read in full, so threads sharing a client each get their own.
:meth:`ServiceClient.close` (or a ``with`` block) closes the idle
ones; a client dropped without it closes them when it is collected.

``submit`` posts a raw request dict (see
:mod:`repro.service.protocol`); :meth:`map_source` builds the map
request from keyword flags mirroring ``fpfa-map map``; ``result``
long-polls until the job is terminal and returns the payload —
which, for map jobs, is bit-identical to ``fpfa-map map --json``;
``run`` is submit plus result, in one round trip when the job
finishes within the submit's own wait.

A call that fails on a reused connection before the daemon's status
line arrives (the daemon closed it, say by restarting) is resent once
on a new connection: every call is safe to resend, since the GETs
and ``/shutdown`` are idempotent and duplicate submits coalesce.  A
daemon error raises :class:`ServiceError` with the HTTP ``status``;
a transport failure on a new connection raises the socket's own
``OSError``.  A caller that cannot reach its daemon decides what to
do — the distributed sweep evaluates locally.
"""

from __future__ import annotations

import http.client
import json
import threading
import weakref
from typing import Iterator, Mapping

from repro.service.protocol import DEFAULT_HOST, DEFAULT_PORT

#: Long-poll slice per status request; bounded so a dead daemon
#: surfaces as a socket error quickly, not after the whole timeout.
POLL_SLICE = 10.0
#: Idle connections one client keeps open; more are closed once
#: their answer is read.
MAX_IDLE = 8


class ServiceError(RuntimeError):
    """The daemon answered with an error (or the job failed).

    ``status`` is the HTTP status when one was received (None for
    client-side failures such as a long-poll timeout or a failed
    job).
    """

    def __init__(self, message: str, status: int | None = None):
        super().__init__(message)
        self.status = status


class ServiceClient:
    """One daemon address and the calls the protocol offers."""

    def __init__(self, host: str = DEFAULT_HOST,
                 port: int = DEFAULT_PORT, timeout: float = 60.0):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._idle: list[http.client.HTTPConnection] = []
        self._lock = threading.Lock()
        weakref.finalize(self, _close_idle, self._idle, self._lock)

    def close(self) -> None:
        """Close the idle connections; a later call opens a new one."""
        _close_idle(self._idle, self._lock)

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- plumbing -----------------------------------------------------

    def _request(self, method: str, path: str,
                 body: Mapping | None = None,
                 wait: float | None = None) -> dict:
        """One call; *wait* asks the daemon to hold the answer up to
        that many seconds (``?wait=``), and the socket timeout grows
        by it."""
        timeout = self.timeout
        if wait is not None:
            path += f"?wait={wait:g}"
            timeout += wait
        payload = None
        headers = {}
        if body is not None:
            payload = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        with self._lock:
            connection = self._idle.pop() if self._idle else None
        try:
            if connection is not None:
                connection.sock.settimeout(timeout)
                try:
                    connection.request(method, path, body=payload,
                                       headers=headers)
                    response = connection.getresponse()
                except ConnectionError:
                    # No status line on a reused connection: the
                    # daemon closed it.  Resend once on a new one.
                    connection.close()
                    connection = None
            if connection is None:
                connection = http.client.HTTPConnection(
                    self.host, self.port, timeout=timeout)
                connection.request(method, path, body=payload,
                                   headers=headers)
                response = connection.getresponse()
            data = response.read()
        except BaseException:
            if connection is not None:
                connection.close()
            raise
        with self._lock:
            keep = not response.will_close and \
                len(self._idle) < MAX_IDLE
            if keep:
                self._idle.append(connection)
        if not keep:
            connection.close()
        decoded = json.loads(data.decode("utf-8")) if data else {}
        if response.status >= 400:
            raise ServiceError(
                decoded.get("error", f"HTTP {response.status}"),
                status=response.status)
        return decoded

    # -- endpoints ----------------------------------------------------

    def health(self) -> dict:
        return self._request("GET", "/healthz")

    def stats(self) -> dict:
        return self._request("GET", "/stats")

    def submit(self, request: Mapping,
               wait: float | None = None) -> dict:
        """POST one raw job request; returns ``{"job": ...,
        "coalesced": ...}``.  With *wait*, the daemon holds the
        answer until the job is terminal or *wait* seconds passed,
        so a job that finishes in time costs one round trip.
        Submission is idempotent on the daemon (identical requests
        coalesce onto one job), so retrying a submit whose response
        was lost is safe."""
        return self._request("POST", "/jobs", body=request, wait=wait)

    def job(self, job_id: str, wait: float | None = None) -> dict:
        return self._request("GET", f"/jobs/{job_id}", wait=wait)

    def jobs(self, state: str | None = None) -> list[dict]:
        path = "/jobs" + (f"?state={state}" if state else "")
        return self._request("GET", path)["jobs"]

    def shutdown(self) -> dict:
        return self._request("POST", "/shutdown")

    # -- composition --------------------------------------------------

    def result(self, job_id: str, timeout: float = 300.0) -> dict:
        """Long-poll *job_id* to a terminal state; the result payload
        on success, :class:`ServiceError` on failure or timeout."""
        import time
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ServiceError(
                    f"job {job_id} still running after {timeout}s")
            payload = _outcome(self.job(
                job_id, wait=min(POLL_SLICE, remaining)))
            if payload is not None:
                return payload

    def run(self, request: Mapping, timeout: float = 300.0) -> dict:
        """Submit *request* and return its result payload, waiting on
        the submit itself for one :data:`POLL_SLICE` and long-polling
        with :meth:`result` only if the job is still not terminal;
        :class:`ServiceError` on failure or timeout."""
        job = self.submit(request, wait=min(POLL_SLICE, timeout))["job"]
        payload = _outcome(job)
        if payload is not None:
            return payload
        return self.result(job["id"], timeout=timeout)

    def map_source(self, source: str, *, file: str | None = None,
                   wait: bool = True, timeout: float = 300.0,
                   **options) -> dict:
        """Submit one map job built from ``fpfa-map map``-style
        keywords (``pps``, ``buses``, ``library``, ``balance``,
        ``tiles``, ``verify_seed``, ...); with *wait*,
        returns the payload, else the submit response."""
        request = {"kind": "map", "source": source, "file": file,
                   **options}
        if not wait:
            return self.submit(request)
        return self.run(request, timeout=timeout)

    def events(self, job_id: str,
               timeout: float = 300.0) -> Iterator[dict]:
        """Stream a job's NDJSON progress events until terminal.

        A stream that breaks mid-flight raises to the caller, who
        owns the decision to re-tail (events already seen would
        replay)."""
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=timeout)
        try:
            connection.request("GET", f"/jobs/{job_id}/events")
            response = connection.getresponse()
            if response.status >= 400:
                data = response.read()
                decoded = json.loads(data.decode("utf-8")) \
                    if data else {}
                raise ServiceError(
                    decoded.get("error", f"HTTP {response.status}"),
                    status=response.status)
        except BaseException:
            connection.close()
            raise
        try:
            for line in response:
                line = line.strip()
                if line:
                    yield json.loads(line.decode("utf-8"))
        finally:
            connection.close()


def _close_idle(idle: list, lock: threading.Lock) -> None:
    """Close a client's idle connections (its ``close()`` and its
    finalizer: it holds no reference to the client)."""
    with lock:
        connections = idle[:]
        idle.clear()
    for connection in connections:
        connection.close()


def _outcome(view: Mapping) -> dict | None:
    """A job view's result payload once it is done, None while it is
    not terminal; :class:`ServiceError` once it failed."""
    if view["state"] == "done":
        return view["result"]
    if view["state"] == "failed":
        raise ServiceError(
            f"job {view['id']} failed: {view.get('error')}")
    return None
