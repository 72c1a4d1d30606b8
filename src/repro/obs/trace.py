"""In-process tracing: nested spans and point events.

Hot layers call the **module-level default tracer** through the free
functions below::

    from repro.obs import trace

    with trace.span("pipeline.schedule"):
        ...
    trace.event("distributed.fallback", points=len(leftover))

Design constraints, in priority order:

1. **Zero cost while disabled.**  Tracing is off by default;
   mapping's hot loops (per-point evaluation inside a sweep, queue
   pops under the service lock) must not pay for instrumentation
   nobody asked for.  A disabled ``span()`` returns one shared no-op
   context manager — no allocation, no clock read, no lock.
   ``event()`` is a single attribute check.  Call sites that would
   *build* expensive attributes guard on ``trace.enabled()`` first
   (enforced by lint rule FPL003, ``tools/fpfa_lint``).
2. **Observation never mutates.**  Span bodies return whatever the
   traced code returns; the tracer holds its own copies of
   everything it records.  Mapped artifacts stay bit-identical with
   tracing on (see ``tests/test_obs.py``).
3. **Monotonic durations.**  Span timing uses
   :func:`time.perf_counter` pairs; wall-clock timestamps on entries
   are presentation-only, matching the convention in
   ``service/queue.py``.

The tracer keeps no memory of what it recorded: a finished span or
event becomes one entry dict handed to each registered sink
(:meth:`Tracer.add_sink`) and is then forgotten.  The flight recorder
in :mod:`repro.obs.export` is the sink that streams entries to an
NDJSON log; rollups are computed from that log.  A span's nesting
depth is the size of its thread's span stack when it opens, so
entries show call structure even when the worker pool interleaves
spans from many threads.

Distributed tracing (PR 9): every finished span carries W3C-style
identifiers — a 32-hex ``trace`` id shared by a whole request tree, a
16-hex ``span`` id, and the ``parent`` span id (None for roots).
Parentage follows the per-thread span stack; a remote parent is
grafted in with :func:`attach`, whose context dict
(``{"trace": ..., "span": ...}``) travels the wire inside job
requests (see :mod:`repro.service.protocol`).  Entries cross a
process boundary one way only: the process that did the work
gathers them with :func:`capture` (which stamps each with its pid)
and returns them inside the result it already sends, and the
receiver passes them to :func:`adopt`, which hands them to its own
sinks.  IDs are only generated on the enabled path, so constraint 1
holds.

Enable globally with the ``FPFA_TRACE=1`` environment variable, or
programmatically with :func:`enable`.

The tracer counts nothing: a count belongs to the ledger that owns
it (the daemon's ``/stats`` counts, a sweep's stats).
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from typing import Any

__all__ = [
    "Tracer",
    "TRACER",
    "span",
    "event",
    "enabled",
    "enable",
    "disable",
    "context",
    "attach",
    "capture",
    "adopt",
    "record_span",
    "drop_inherited_sinks",
]

#: Hard cap on entries one :func:`capture` collects — a runaway job
#: must not grow the worker's return payload without bound.
CAPTURE_LIMIT = 4096


# ---------------------------------------------------------------- #
# Identifiers.                                                      #
# ---------------------------------------------------------------- #

#: Per-process random prefix + pid + counter keeps span ids unique
#: across a forked worker pool without an os.urandom syscall per
#: span: children inherit the prefix and counter, but not the pid.
_ID_PREFIX = os.urandom(2).hex()
_IDS = itertools.count(1)


def _new_span_id() -> str:
    """A 16-hex span id (8 bytes, W3C trace-context sized)."""
    return (f"{_ID_PREFIX}{os.getpid() & 0xFFFF:04x}"
            f"{next(_IDS) & 0xFFFFFFFF:08x}")


def _new_trace_id() -> str:
    """A 32-hex trace id (16 bytes).  Roots are rare (one per sweep
    or job), so the urandom syscall is off the hot path."""
    return f"{os.urandom(12).hex()}{next(_IDS) & 0xFFFFFFFF:08x}"


class _NoopSpan:
    """Shared do-nothing context manager returned while disabled.

    A single module-level instance serves every disabled ``span()``
    and ``attach()`` call, so the disabled path allocates nothing.
    """

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None

    def note(self, **attrs: Any) -> None:
        """Accept and drop late attributes (API parity with _Span)."""


_NOOP_SPAN = _NoopSpan()


class _Span:
    """A live span: times itself and reports back to its tracer."""

    __slots__ = ("tracer", "name", "attrs", "depth", "started",
                 "trace_id", "span_id", "parent_id")

    def __init__(self, tracer: "Tracer", name: str,
                 attrs: dict[str, Any]) -> None:
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.depth = 0
        self.started = 0.0
        self.trace_id = ""
        self.span_id = ""
        self.parent_id: str | None = None

    def __enter__(self) -> "_Span":
        local = self.tracer._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
        self.depth = len(stack)
        if stack:
            self.trace_id, self.parent_id = stack[-1]
        else:
            remote = getattr(local, "remote", None)
            if remote is not None:
                self.trace_id, self.parent_id = remote
            else:
                self.trace_id = _new_trace_id()
                self.parent_id = None
        self.span_id = _new_span_id()
        stack.append((self.trace_id, self.span_id))
        # Read the clock last so nesting bookkeeping is outside the
        # measured window.
        self.started = time.perf_counter()
        return self

    def __exit__(self, exc_type: object, *exc_info: object) -> None:
        duration = time.perf_counter() - self.started
        stack = getattr(self.tracer._local, "stack", None)
        if stack:
            stack.pop()
        if exc_type is not None:
            self.attrs["error"] = getattr(exc_type, "__name__",
                                          str(exc_type))
        self.tracer._finish(self.name, duration, self.depth,
                            self.attrs, self.trace_id, self.span_id,
                            self.parent_id)

    def note(self, **attrs: Any) -> None:
        """Attach attributes discovered mid-span (e.g. a result
        count known only after the work ran)."""
        self.attrs.update(attrs)


class _Attach:
    """Sets a remote parent for root spans on the current thread."""

    __slots__ = ("tracer", "ctx", "_prior")

    def __init__(self, tracer: "Tracer",
                 ctx: tuple[str, str]) -> None:
        self.tracer = tracer
        self.ctx = ctx

    def __enter__(self) -> "_Attach":
        local = self.tracer._local
        self._prior = getattr(local, "remote", None)
        local.remote = self.ctx
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.tracer._local.remote = self._prior


class _Capture:
    """Sink collecting entries finished on the registering thread.

    Used around work whose entries must leave this process: a service
    job in a worker, a sweep point in a pool child.  The captured
    entries, each stamped with this process's pid, ride home inside
    the result and are :meth:`Tracer.adopt`-ed there.  Bounded by
    ``CAPTURE_LIMIT``; inert when the tracer is disabled.
    """

    __slots__ = ("tracer", "entries", "_ident", "_pid", "_active")

    def __init__(self, tracer: "Tracer") -> None:
        self.tracer = tracer
        self.entries: list[dict[str, Any]] = []
        self._ident = 0
        self._pid = 0
        self._active = False

    def __call__(self, entry: dict[str, Any]) -> None:
        if (threading.get_ident() == self._ident
                and len(self.entries) < CAPTURE_LIMIT):
            self.entries.append({"pid": self._pid, **entry})

    def __enter__(self) -> "_Capture":
        if self.tracer._enabled:
            self._ident = threading.get_ident()
            self._pid = os.getpid()
            self._active = True
            self.tracer.add_sink(self)
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._active:
            self._active = False
            self.tracer.remove_sink(self)


class Tracer:
    """Span/event recorder that forwards every entry to its sinks.

    Thread-safe: the sink tuple is replaced, never mutated, under a
    lock taken only to add or remove a sink.  The span stack (and so
    each span's depth) is tracked in ``threading.local`` so
    concurrent worker threads do not corrupt each other's parentage.
    """

    def __init__(self, enabled: bool = False) -> None:
        self._enabled = enabled
        self._lock = threading.Lock()
        self._local = threading.local()
        self._sinks: tuple = ()

    # -- switches ---------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self._enabled

    def enable(self) -> None:
        self._enabled = True

    def disable(self) -> None:
        self._enabled = False

    # -- sinks ------------------------------------------------------

    def add_sink(self, sink) -> None:
        """Register *sink* (a callable taking one finished entry
        dict).  Sinks run on the finishing thread; they must not
        mutate the entry."""
        with self._lock:
            if sink not in self._sinks:
                self._sinks = self._sinks + (sink,)

    def remove_sink(self, sink) -> None:
        """Unregister *sink*, matched by equality as :meth:`add_sink`
        matches it (``entries.append`` is a new bound method at every
        access, equal to but never the same as the registered one)."""
        with self._lock:
            self._sinks = tuple(s for s in self._sinks if s != sink)

    def _emit(self, entries) -> None:
        sinks = self._sinks
        if not sinks:
            return
        for sink in sinks:
            for entry in entries:
                sink(entry)

    # -- recording --------------------------------------------------

    def span(self, name: str, **attrs: Any):
        """Context manager timing a named region.

        Returns the shared no-op when disabled; the real span
        otherwise.  Attributes are copied into the entry when the
        span closes.
        """
        if not self._enabled:
            return _NOOP_SPAN
        return _Span(self, name, attrs)

    def event(self, name: str, **attrs: Any) -> None:
        """Record a point-in-time event."""
        if not self._enabled:
            return
        current = self._current()
        entry = {"kind": "event", "name": name,
                 "at": time.time()}  # fpfa-lint: wall-clock
        if current is not None:
            entry["trace"], entry["span"] = current
        for key, value in attrs.items():
            # Reserved entry fields (kind, trace, at, ...) win
            # over caller attributes of the same name.
            entry.setdefault(key, value)
        self._emit((entry,))

    def _finish(self, name: str, duration: float, depth: int,
                attrs: dict[str, Any], trace_id: str, span_id: str,
                parent_id: str | None) -> dict[str, Any]:
        """Build the entry for one finished span and emit it."""
        entry = {"kind": "span", "name": name,
                 "at": time.time(), "depth": depth,  # fpfa-lint: wall-clock
                 "duration": duration, "trace": trace_id,
                 "span": span_id, "parent": parent_id}
        for key, value in attrs.items():
            # Reserved entry fields win over same-named attrs.
            entry.setdefault(key, value)
        self._emit((entry,))
        return entry

    def record_span(self, name: str, duration: float, *,
                    context: dict | None = None,
                    **attrs: Any) -> dict[str, Any] | None:
        """Record a span whose duration was measured elsewhere, and
        return its entry (None while disabled).

        For timings that exist as monotonic pairs rather than a code
        region — e.g. a job's queue wait, known only when it starts
        running.  *context* (an :func:`attach`-style dict) makes the
        recorded span a child of a remote parent; without one it
        parents to the thread's current span, or starts a new trace.
        """
        if not self._enabled:
            return None
        duration = max(0.0, float(duration))
        trace_id: str | None = None
        parent_id: str | None = None
        if isinstance(context, dict):
            ctx_trace = context.get("trace")
            ctx_span = context.get("span")
            if isinstance(ctx_trace, str) and isinstance(ctx_span, str):
                trace_id, parent_id = ctx_trace, ctx_span
        if trace_id is None:
            current = self._current()
            if current is not None:
                trace_id, parent_id = current
            else:
                trace_id = _new_trace_id()
        return self._finish(name, duration, 0, dict(attrs),
                            trace_id, _new_span_id(), parent_id)

    def adopt(self, entries) -> int:
        """Hand entries recorded in another process to this tracer's
        sinks.

        Each entry keeps its ids, name, attrs and duration, so parent
        linkage survives the hop, and an installed flight recorder
        logs it.  An entry stamped with this process's own pid was
        already emitted here (a thread-mode worker, an in-process
        daemon) and is skipped, so nothing is logged twice.  Returns
        the number adopted; no-op when disabled.
        """
        if not self._enabled or not entries:
            return 0
        pid = os.getpid()
        adopted = [entry for entry in entries
                   if isinstance(entry, dict) and "name" in entry
                   and entry.get("pid") != pid]
        self._emit(adopted)
        return len(adopted)

    # -- context ----------------------------------------------------

    def _current(self) -> tuple[str, str] | None:
        """The active ``(trace_id, span_id)`` on this thread — the
        innermost open span, else an attached remote parent."""
        local = self._local
        stack = getattr(local, "stack", None)
        if stack:
            return stack[-1]
        return getattr(local, "remote", None)

    def context(self) -> dict[str, str] | None:
        """The current trace context as a wire-ready dict
        (``{"trace": ..., "span": ...}``), or None when disabled or
        no span is active.  This is what job submissions carry."""
        if not self._enabled:
            return None
        current = self._current()
        if current is None:
            return None
        return {"trace": current[0], "span": current[1]}

    def attach(self, ctx: dict | None):
        """Context manager grafting a remote parent onto this thread.

        Root spans opened inside the ``with`` join *ctx*'s trace as
        children of its span — how a daemon worker's spans become
        children of the coordinator's lease span.  No-op (shared
        instance) when disabled or *ctx* is absent/malformed.
        """
        if not self._enabled or not isinstance(ctx, dict):
            return _NOOP_SPAN
        trace_id = ctx.get("trace")
        span_id = ctx.get("span")
        if not isinstance(trace_id, str) or not isinstance(span_id, str):
            return _NOOP_SPAN
        return _Attach(self, (trace_id, span_id))

    def capture(self):
        """Context manager collecting entries this thread finishes —
        see :class:`_Capture`.  Inert while disabled (``.entries``
        stays empty)."""
        return _Capture(self)


#: The module-level default tracer every instrumented layer uses.
TRACER = Tracer(enabled=bool(os.environ.get("FPFA_TRACE")))


def span(name: str, **attrs: Any):
    return TRACER.span(name, **attrs)


def event(name: str, **attrs: Any) -> None:
    TRACER.event(name, **attrs)


def enabled() -> bool:
    return TRACER.enabled


def enable() -> None:
    TRACER.enable()


def disable() -> None:
    TRACER.disable()


def context() -> dict[str, str] | None:
    return TRACER.context()


def attach(ctx: dict | None):
    return TRACER.attach(ctx)


def capture():
    return TRACER.capture()


def adopt(entries) -> int:
    return TRACER.adopt(entries)


def record_span(name: str, duration: float, *,
                context: dict | None = None,
                **attrs: Any) -> dict[str, Any] | None:
    return TRACER.record_span(name, duration, context=context, **attrs)


def drop_inherited_sinks() -> None:
    """Process-pool initializer: detach the sinks a forked child
    inherited from its parent (the parent's flight recorder).  Only
    the process that opened a log writes to it; the child's entries
    go home through :func:`capture` and :func:`adopt`.  The child
    also gets a fresh sink lock: one that some parent thread held at
    fork time would never be released here."""
    TRACER._lock = threading.Lock()
    TRACER._sinks = ()


class scoped_tracing:
    """Context manager enabling the default tracer for a region.

    Restores the previous enabled state on exit — the bench harness
    and tests use this so they never leak a globally-enabled tracer::

        with trace.scoped_tracing():
            run_sweep(...)
    """

    __slots__ = ("_was",)

    def __enter__(self) -> Tracer:
        self._was = TRACER.enabled
        TRACER.enable()
        return TRACER

    def __exit__(self, *exc_info: object) -> None:
        if not self._was:
            TRACER.disable()
