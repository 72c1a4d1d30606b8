"""Seeded TCP fault-injection proxy for the mapping fleet.

``ChaosProxy`` sits between a coordinator and one daemon and
misbehaves on purpose: per *connection*, it either passes bytes
through untouched or applies one fault —

``latency``
    hold the connection for a fixed delay before proxying (a slow
    network, a GC pause, an overloaded daemon);
``reset``
    accept, then slam the connection shut with an RST (a crashed
    daemon, a dropped NAT entry);
``truncate``
    proxy the daemon's response but cut it off after N bytes (a
    torn frame — the client sees invalid JSON or a short read);
``inject-503``
    answer with a canned queue-full ``503`` + ``Retry-After``
    without ever reaching the daemon (an overloaded daemon);
``blackhole``
    accept and say nothing until the client gives up (a firewall
    eating packets — the worst failure mode, only timeouts help).

The schedule is **deterministic per seed**: fault choice is a pure
function of ``(seed, connection_index)`` via SHA-256, so a chaos run
replays byte-for-byte the same misbehaviour — a failing seed is a
reproducer, not an anecdote.  Faults count into
:attr:`ChaosProxy.counts` so harnesses can assert the schedule
actually fired.

Used by ``tests/test_resilience.py`` and ``tests/test_fleet.py``;
see ``docs/resilience.md``.
"""

from __future__ import annotations

import hashlib
import os
import socket
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Mapping

#: Order matters: the cumulative-weight walk below maps one hash
#: fraction to one fault, so a stable order keeps schedules stable
#: across runs and python versions.
FAULT_KINDS = ("latency", "reset", "truncate", "inject-503",
               "blackhole")

#: Canned response for ``inject-503`` — shaped exactly like the
#: daemon's queue-full answer (clients must treat both the same).
_INJECTED_503_BODY = b'{"error": "injected queue-full (chaos proxy)"}'
_INJECTED_503 = (
    b"HTTP/1.1 503 Service Unavailable\r\n"
    b"Content-Type: application/json\r\n"
    b"Content-Length: %d\r\n"
    b"Retry-After: 0.1\r\n"
    b"Connection: close\r\n\r\n" % len(_INJECTED_503_BODY)
    + _INJECTED_503_BODY)


@dataclass(frozen=True)
class FaultPlan:
    """What the proxy does to one connection."""

    kind: str = "pass"
    latency: float = 0.0
    truncate_after: int = 0


@dataclass(frozen=True)
class ChaosSchedule:
    """Deterministic per-connection fault schedule.

    *faults* maps fault kind to probability mass (missing kinds get
    0); the remainder up to 1.0 passes clean.  ``plan(i)`` hashes
    ``(seed, i)`` into [0, 1) and walks the cumulative weights — no
    RNG state, so concurrent connections cannot perturb each other's
    draws.
    """

    seed: int = 0
    faults: Mapping[str, float] = field(default_factory=dict)
    latency: float = 0.5
    truncate_after: int = 200
    #: Connections with index below this are never faulted — lets a
    #: harness bring the fleet up (probes, health checks) before the
    #: weather turns.
    grace: int = 0

    def __post_init__(self) -> None:
        unknown = set(self.faults) - set(FAULT_KINDS)
        if unknown:
            raise ValueError(f"unknown fault kinds: {sorted(unknown)}")
        if sum(self.faults.values()) > 1.0 + 1e-9:
            raise ValueError("fault probabilities exceed 1.0")

    def _fraction(self, index: int) -> float:
        digest = hashlib.sha256(
            f"chaos|{self.seed}|{index}".encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big") / 2 ** 64

    def plan(self, index: int) -> FaultPlan:
        if index < self.grace:
            return FaultPlan()
        draw = self._fraction(index)
        edge = 0.0
        for kind in FAULT_KINDS:
            edge += self.faults.get(kind, 0.0)
            if draw < edge:
                return FaultPlan(kind=kind, latency=self.latency,
                                 truncate_after=self.truncate_after)
        return FaultPlan()


def _set_linger_rst(sock: socket.socket) -> None:
    """Mark *sock* so its eventual close is an RST, not a FIN."""
    try:
        sock.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER,
            b"\x01\x00\x00\x00\x00\x00\x00\x00")
    except OSError:
        pass


def _rst_close(sock: socket.socket) -> None:
    """Close with an RST instead of a FIN (linger 0)."""
    _set_linger_rst(sock)
    try:
        sock.close()
    except OSError:
        pass


class ChaosProxy:
    """A TCP proxy in front of ``upstream`` applying *schedule*.

    Start/stop or use as a context manager; ``address`` is the
    ``(host, port)`` clients should talk to instead of the daemon.
    ``counts`` tallies applied faults (``"pass"`` included) so a
    harness can assert the weather actually happened.
    """

    #: Longest a blackholed connection is held before the proxy
    #: hangs up anyway (bounds thread lifetime, not client pain —
    #: clients time out long before).
    BLACKHOLE_HOLD = 30.0

    def __init__(self, upstream_host: str, upstream_port: int,
                 schedule: ChaosSchedule | None = None,
                 host: str = "127.0.0.1", port: int = 0):
        self.upstream = (upstream_host, upstream_port)
        self.schedule = schedule or ChaosSchedule()
        self._listener = socket.create_server(
            (host, port), reuse_port=False)
        self._listener.settimeout(0.2)
        self.address = self._listener.getsockname()[:2]
        self._lock = threading.Lock()
        self.counts: dict[str, int] = {}
        self.connections = 0
        self._stop = threading.Event()
        self._accept_thread: threading.Thread | None = None
        self._verbose = bool(os.environ.get("FPFA_CHAOS_DEBUG"))

    @property
    def url(self) -> str:
        return f"{self.address[0]}:{self.address[1]}"

    def _debug(self, message: str) -> None:
        if self._verbose:
            print(f"[chaos {self.address[1]}] {message}",
                  file=sys.stderr, flush=True)

    # -- lifecycle ----------------------------------------------------

    def start(self) -> "ChaosProxy":
        self._accept_thread = threading.Thread(
            target=self._accept_loop, daemon=True)
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        try:
            self._listener.close()
        except OSError:
            pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)

    def __enter__(self) -> "ChaosProxy":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- the weather --------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                client, __ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            with self._lock:
                index = self.connections
                self.connections += 1
            plan = self.schedule.plan(index)
            with self._lock:
                self.counts[plan.kind] = \
                    self.counts.get(plan.kind, 0) + 1
            self._debug(f"conn {index}: plan={plan.kind}")
            thread = threading.Thread(
                target=self._serve, args=(client, plan),
                daemon=True)
            thread.start()

    def _serve(self, client: socket.socket,
               plan: FaultPlan) -> None:
        try:
            if plan.kind == "reset":
                _rst_close(client)
                return
            if plan.kind == "blackhole":
                client.settimeout(self.BLACKHOLE_HOLD)
                try:
                    # Swallow whatever the client sends; answer with
                    # silence until it gives up (or the hold ends).
                    deadline = time.monotonic() + self.BLACKHOLE_HOLD
                    while time.monotonic() < deadline \
                            and not self._stop.is_set():
                        if not client.recv(65536):
                            break
                except OSError:
                    pass
                return
            if plan.kind == "inject-503":
                try:
                    client.settimeout(5.0)
                    client.recv(65536)  # read (some of) the request
                    client.sendall(_INJECTED_503)
                except OSError:
                    pass
                return
            if plan.kind == "latency":
                time.sleep(plan.latency)
            self._pipe(client, plan)
        finally:
            try:
                client.close()
            except OSError:
                pass

    def _pipe(self, client: socket.socket,
              plan: FaultPlan) -> None:
        """Bidirectional byte pump; ``truncate`` cuts the response
        stream after N bytes and resets both sides.

        Teardown discipline: pumps signal each other with
        ``shutdown`` (which *wakes* a peer blocked in ``recv``;
        ``close`` does not) and sockets are closed exactly once,
        here, after both pumps have exited — a cut marks the client
        socket linger-0 first so its close is an RST, the torn-frame
        signal, not a clean FIN.
        """
        try:
            # Closed exactly once in the teardown loop below
            # (`for sock in (upstream, client)`) — an ownership
            # shape the resource checker cannot see.
            # fpfa-lint: disable=FPL007
            upstream = socket.create_connection(self.upstream,
                                                timeout=10.0)
        except OSError:
            _rst_close(client)
            return

        cut = plan.truncate_after if plan.kind == "truncate" else None
        #: Set by the response pump when it tears the frame; tells
        #: the request pump's teardown NOT to send the client a
        #: clean FIN (the torn frame must surface as an RST, not a
        #: polite end-of-response).
        torn = threading.Event()

        def pump(src: socket.socket, dst: socket.socket,
                 budget: int | None) -> None:
            sent = 0
            try:
                while not self._stop.is_set():
                    data = src.recv(65536)
                    if not data:
                        break
                    if budget is not None \
                            and sent + len(data) > budget:
                        dst.sendall(data[:budget - sent])
                        torn.set()
                        _set_linger_rst(dst)
                        # Wake the opposite pump (blocked reading
                        # *dst*) without touching the wire; the
                        # linger-0 close below turns into the RST.
                        try:
                            dst.shutdown(socket.SHUT_RD)
                        except OSError:
                            pass
                        try:
                            src.shutdown(socket.SHUT_RDWR)
                        except OSError:
                            pass
                        return
                    dst.sendall(data)
                    sent += len(data)
            except OSError:
                pass
            finally:
                self._debug(f"pump {src.fileno()}->{dst.fileno()} "
                            f"done after {sent} byte(s)"
                            + (" (torn)" if torn.is_set() else ""))
                if not torn.is_set():
                    for sock in (src, dst):
                        try:
                            sock.shutdown(socket.SHUT_RDWR)
                        except OSError:
                            pass

        request_pump = threading.Thread(
            target=pump, args=(client, upstream, None), daemon=True)
        request_pump.start()
        pump(upstream, client, cut)  # response direction, in-line
        request_pump.join(timeout=10.0)
        for sock in (upstream, client):
            try:
                sock.close()
            except OSError:
                pass
