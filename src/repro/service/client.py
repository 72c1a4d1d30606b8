"""Blocking client for the mapping daemon (stdlib ``http.client``).

One class, one method per endpoint, JSON dicts in and out.  The
client is deliberately synchronous — callers that want concurrency
(the fleet tests, the benchmarks, a shell loop) get it by using
one client per thread; a client carries no shared connection state,
so that is always safe.

``submit`` posts a raw request dict (see
:mod:`repro.service.protocol`); :meth:`map_source` builds the map
request from keyword flags mirroring ``fpfa-map map``; ``result``
long-polls until the job is terminal and returns the payload —
which, for map jobs, is bit-identical to ``fpfa-map map --json``.

Errors are structured: every failed call raises a
:class:`ServiceError` whose ``retryable`` flag separates transient
faults (a queue-full 503, a reset socket) from fatal ones (a
validation 400) — callers branch on the flag instead of parsing
messages.  Pass a :class:`~repro.service.resilience.RetryPolicy` to
make every endpoint retry transient faults itself (and a *stop*
predicate to cut those retries short once the caller has given up on
the daemon); without one the client stays single-shot.  A client's
``retries`` tallies the retries it made.
"""

from __future__ import annotations

import http.client
import json
from typing import Callable, Iterator, Mapping

from repro.service.protocol import DEFAULT_HOST, DEFAULT_PORT
from repro.service.resilience import RetryPolicy, call_with_retries

#: Long-poll slice per status request; bounded so a dead daemon
#: surfaces as a socket error quickly, not after the whole timeout.
POLL_SLICE = 10.0

#: HTTP statuses that mean "the daemon (or its queue) is overloaded
#: or mid-restart — the same request may well succeed in a moment".
RETRYABLE_STATUSES = frozenset({500, 502, 503, 504})


class ServiceError(RuntimeError):
    """The daemon answered with an error (or the job failed).

    ``status`` is the HTTP status when one was received (None for
    client-side failures such as a long-poll timeout).  ``retryable``
    tells callers whether repeating the identical request can
    succeed — True for overload/transport statuses (a queue-full
    503), False for validation errors (400) and terminal job
    outcomes.  ``retry_after`` carries the daemon's ``Retry-After``
    hint in seconds, when it sent one.
    """

    def __init__(self, message: str, status: int | None = None,
                 retryable: bool | None = None,
                 retry_after: float | None = None):
        super().__init__(message)
        self.status = status
        if retryable is None:
            retryable = status in RETRYABLE_STATUSES
        self.retryable = retryable
        self.retry_after = retry_after


def _retry_after_seconds(response) -> float | None:
    """The ``Retry-After`` header as seconds, if present and sane
    (only the delta-seconds form — the daemon never sends a date)."""
    header = response.getheader("Retry-After")
    if header is None:
        return None
    try:
        value = float(header)
    except ValueError:
        return None
    return value if value >= 0 else None


def _classify(error: BaseException) -> tuple[bool, float | None]:
    """``error -> (retryable, retry_after)`` for the retry loop.

    Beyond :class:`ServiceError`'s own verdict, every transport-level
    failure is transient: reset sockets (``OSError``), torn HTTP
    frames (``http.client.HTTPException`` — a truncated response),
    and half-delivered JSON (``ValueError``)."""
    if isinstance(error, ServiceError):
        return error.retryable, error.retry_after
    if isinstance(error, (OSError, http.client.HTTPException,
                          ValueError)):
        return True, None
    return False, None


class ServiceClient:
    """One daemon address and the calls the protocol offers."""

    def __init__(self, host: str = DEFAULT_HOST,
                 port: int = DEFAULT_PORT, timeout: float = 60.0,
                 retry: RetryPolicy | None = None,
                 stop: Callable[[], bool] | None = None):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retry = retry
        self.stop = stop
        #: Calls this client retried after a retryable failure.
        self.retries = 0

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- plumbing -----------------------------------------------------

    def _with_retries(self, fn, *, key: str):
        """Run *fn* under this client's policy and stop predicate;
        a plain single call when the client has neither."""
        if self.retry is None and self.stop is None:
            return fn()
        return call_with_retries(
            fn, policy=self.retry or RetryPolicy(attempts=1),
            stop=self.stop, key=key, classify=_classify,
            on_retry=self._count_retry)

    def _count_retry(self, error: BaseException) -> None:
        self.retries += 1

    def _request_once(self, method: str, path: str,
                      body: Mapping | None = None,
                      timeout: float | None = None) -> dict:
        connection = http.client.HTTPConnection(
            self.host, self.port,
            timeout=self.timeout if timeout is None else timeout)
        try:
            payload = None
            headers = {}
            if body is not None:
                payload = json.dumps(body).encode("utf-8")
                headers["Content-Type"] = "application/json"
            connection.request(method, path, body=payload,
                               headers=headers)
            response = connection.getresponse()
            data = response.read()
        finally:
            connection.close()
        decoded = json.loads(data.decode("utf-8")) if data else {}
        if response.status >= 400:
            raise ServiceError(
                decoded.get("error", f"HTTP {response.status}"),
                status=response.status,
                retry_after=_retry_after_seconds(response))
        return decoded

    def _request(self, method: str, path: str,
                 body: Mapping | None = None,
                 timeout: float | None = None) -> dict:
        return self._with_retries(
            lambda: self._request_once(method, path, body=body,
                                       timeout=timeout),
            key=f"{self.host}:{self.port}{path.split('?')[0]}")

    # -- endpoints ----------------------------------------------------

    def health(self) -> dict:
        return self._request("GET", "/healthz")

    def stats(self) -> dict:
        return self._request("GET", "/stats")

    def metrics(self) -> str:
        """The raw Prometheus text exposition from ``GET /metrics``
        (parse with :func:`repro.obs.metrics.parse_prometheus`)."""
        def once() -> str:
            connection = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout)
            try:
                connection.request("GET", "/metrics")
                response = connection.getresponse()
                data = response.read()
            finally:
                connection.close()
            if response.status >= 400:
                raise ServiceError(
                    f"HTTP {response.status}",
                    status=response.status,
                    retry_after=_retry_after_seconds(response))
            return data.decode("utf-8")
        return self._with_retries(
            once, key=f"{self.host}:{self.port}/metrics")

    def trace(self) -> dict:
        """The daemon's tracer snapshot from ``GET /trace`` —
        span rollups and the recent-entry ring, each span
        carrying its trace/span/parent ids, plus the daemon's
        ``pid``.  What :func:`repro.obs.export.harvest_daemons`
        stitches distributed traces from."""
        return self._request("GET", "/trace")

    def submit(self, request: Mapping) -> dict:
        """POST one raw job request; returns ``{"job": ...,
        "coalesced": ...}``.  Submission is idempotent on the daemon
        (identical requests coalesce onto one job), so retrying a
        submit whose response was lost is safe."""
        return self._request("POST", "/jobs", body=request)

    def job(self, job_id: str, wait: float | None = None) -> dict:
        path = f"/jobs/{job_id}"
        if wait is not None:
            path += f"?wait={wait:g}"
            return self._request("GET", path,
                                 timeout=wait + self.timeout)
        return self._request("GET", path)

    def jobs(self, state: str | None = None) -> list[dict]:
        path = "/jobs" + (f"?state={state}" if state else "")
        return self._request("GET", path)["jobs"]

    def store_has(self, keys, *, verified: bool = False) -> list[str]:
        """Which of *keys* (cache-key hex digests) this daemon's
        store holds servable records for — the peering probe.  With
        *verified*, unverified ``ok`` records do not count (they
        could not satisfy a verifying sweep)."""
        return self._request(
            "POST", "/store/has",
            body={"keys": list(keys), "verified": verified})["present"]

    def store_fetch(self, keys, *,
                    verified: bool = False) -> dict[str, dict]:
        """The stored records for *keys*, keyed by cache key; absent
        keys are simply missing from the result — a peer fetch never
        fails on a miss."""
        return self._request(
            "POST", "/store/fetch",
            body={"keys": list(keys), "verified": verified})["records"]

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
                    f"job {job_id} still running after {timeout}s",
                    retryable=False)
            view = self.job(job_id,
                            wait=min(POLL_SLICE, remaining))
            if view["state"] == "done":
                return view["result"]
            if view["state"] == "failed":
                raise ServiceError(
                    f"job {job_id} failed: {view.get('error')}",
                    retryable=False)

    def map_source(self, source: str, *, file: str | None = None,
                   wait: bool = True, timeout: float = 300.0,
                   **options) -> dict:
        """Submit one map job built from ``fpfa-map map``-style
        keywords (``pps``, ``buses``, ``library``, ``balance``,
        ``tiles``, ``verify_seed``, ``priority``, ...); with *wait*,
        returns the payload, else the submit response."""
        request = {"kind": "map", "source": source, "file": file,
                   **options}
        response = self.submit(request)
        if not wait:
            return response
        job = response["job"]
        if job["state"] == "done":
            return job["result"]
        return self.result(job["id"], timeout=timeout)

    def events(self, job_id: str,
               timeout: float = 300.0) -> Iterator[dict]:
        """Stream a job's NDJSON progress events until terminal.

        The *connection* retries under the client's policy (a daemon
        mid-restart answers the next attempt); a stream that breaks
        mid-flight raises to the caller, who owns the decision to
        re-tail (events already seen would replay)."""
        def connect():
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
                        decoded.get("error",
                                    f"HTTP {response.status}"),
                        status=response.status,
                        retry_after=_retry_after_seconds(response))
            except BaseException:
                connection.close()
                raise
            return connection, response

        connection, response = self._with_retries(
            connect, key=f"{self.host}:{self.port}/events")
        try:
            for line in response:
                line = line.strip()
                if line:
                    yield json.loads(line.decode("utf-8"))
        finally:
            connection.close()
