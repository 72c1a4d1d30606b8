"""Blocking client for the mapping daemon (HTTP/1.1 on a socket).

One class, one method per endpoint, JSON dicts in and out.  The
client is deliberately synchronous.  It keeps the daemon's
connections open between calls (HTTP/1.1 persistence): a call takes
an idle connection or opens one, and puts it back once its answer is
read in full, so threads sharing a client each get their own.
:meth:`ServiceClient.close` (or a ``with`` block) closes the idle
ones; a client dropped without it closes them when it is collected.

The wire format is the daemon's own framing, spoken on a plain
socket with one buffered reader per connection rather than through
``http.client``, whose per-answer objects and header parser cost more
than a store hit itself: a request is one ``sendall`` of its head and
JSON body, an answer a status line, headers and exactly
``Content-Length`` body bytes.  An answer cut short is a transport
error, never truncated JSON.

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
a transport failure on a new connection raises an ``OSError`` (the
socket's own, or a ``ConnectionError`` for a malformed or cut-short
answer).  A caller that cannot reach its daemon decides what to do —
the distributed sweep evaluates locally.
"""

from __future__ import annotations

import json
import socket
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
#: Longest status or header line an answer may carry.
MAX_LINE = 65536


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
        self._idle: list[_Connection] = []
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
        request = _encode(method, path, f"{self.host}:{self.port}",
                          body)
        with self._lock:
            connection = self._idle.pop() if self._idle else None
        try:
            if connection is not None:
                try:
                    status = connection.send(request, timeout)
                except ConnectionError:
                    # No status line on a reused connection: the
                    # daemon closed it.  Resend once on a new one.
                    connection.close()
                    connection = None
            if connection is None:
                connection = _Connection(self.host, self.port, timeout)
                status = connection.send(request, timeout)
            headers = connection.headers()
            data = connection.body(headers)
        except BaseException:
            if connection is not None:
                connection.close()
            raise
        with self._lock:
            keep = headers.get("connection", "").lower() != "close" \
                and len(self._idle) < MAX_IDLE
            if keep:
                self._idle.append(connection)
        if not keep:
            connection.close()
        return _decode(status, data)

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

        The stream is the one answer without a ``Content-Length``: it
        ends when the daemon closes its connection, so it never joins
        the idle list.  A stream that breaks mid-flight raises to the
        caller, who owns the decision to re-tail (events already seen
        would replay)."""
        connection = _Connection(self.host, self.port, timeout)
        try:
            status = connection.send(_encode(
                "GET", f"/jobs/{job_id}/events",
                f"{self.host}:{self.port}", None), timeout)
            headers = connection.headers()
            if status >= 400:
                _decode(status, connection.body(headers))  # raises
            for line in connection.reader:
                line = line.strip()
                if line:
                    yield json.loads(line)
        finally:
            connection.close()


class _Connection:
    """One socket to the daemon and the one buffered reader on it.

    The framing mirrors the daemon's own: a request is its head and
    body in one ``sendall``; an answer is a status line, headers up to
    a blank line, and exactly ``Content-Length`` body bytes.  Every
    failure is an ``OSError``, so the caller closes the connection.
    """

    def __init__(self, host: str, port: int, timeout: float):
        self.sock = socket.create_connection((host, port), timeout)
        self.timeout = timeout
        self.reader = self.sock.makefile("rb")

    def send(self, request: bytes, timeout: float) -> int:
        """Write *request* and read the answer's status line; returns
        its status code.  ``ConnectionError`` when none arrives."""
        if timeout != self.timeout:
            self.sock.settimeout(timeout)
            self.timeout = timeout
        self.sock.sendall(request)
        parts = self._line().split(None, 2)
        if len(parts) < 2 or not parts[0].startswith(b"HTTP/") \
                or not parts[1].isdigit():
            raise ConnectionError(f"malformed status line {parts!r}")
        return int(parts[1])

    def headers(self) -> dict[str, str]:
        """The answer's headers, names lower-cased."""
        headers = {}
        while (line := self._line()) not in (b"\r\n", b"\n"):
            name, __, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        return headers

    def body(self, headers: Mapping[str, str]) -> bytes:
        """Exactly the ``Content-Length`` bytes *headers* announce."""
        length = headers.get("content-length", "")
        if not length.isdigit():
            raise ConnectionError(
                f"answer without a Content-Length ({length!r})")
        data = self.reader.read(int(length))
        if len(data) != int(length):
            raise ConnectionError(
                f"answer cut short: {len(data)} of {length} bytes")
        return data

    def close(self) -> None:
        self.reader.close()
        self.sock.close()

    def _line(self) -> bytes:
        line = self.reader.readline(MAX_LINE)
        if not line.endswith(b"\n"):
            raise ConnectionError(
                "the daemon closed the connection" if not line
                else f"answer line cut short or over {MAX_LINE} bytes")
        return line


def _encode(method: str, path: str, host: str,
            body: Mapping | None) -> bytes:
    """One request's bytes: the head, then the JSON body if any."""
    payload = b""
    extra = ""
    if body is not None:
        payload = json.dumps(body).encode("utf-8")
        extra = "Content-Type: application/json\r\n"
    return (f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n"
            f"Content-Length: {len(payload)}\r\n{extra}\r\n"
            ).encode("latin-1") + payload


def _decode(status: int, data: bytes) -> dict:
    """An answer's JSON payload; :class:`ServiceError` for a 4xx or
    5xx status."""
    decoded = json.loads(data) if data else {}
    if status >= 400:
        raise ServiceError(decoded.get("error", f"HTTP {status}"),
                           status=status)
    return decoded


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
