"""Sweep flight recorder: NDJSON span log + Chrome/Perfetto export.

The tracer (:mod:`repro.obs.trace`) keeps a bounded in-memory ring —
good for a live ``/trace`` peek, useless for "why did yesterday's
sweep take 48 s".  The :class:`FlightRecorder` closes that gap: it
registers as a tracer sink and streams every finished span/event as
one JSON line to a log that lives **beside the cache**, so the
trace of a sweep travels with its artifacts.

The log is the interchange format; everything else derives from it:

* :func:`load_trace` — tolerant NDJSON reader (a torn tail from a
  killed recorder loses at most the final line).
* :func:`harvest_daemon` — pull a remote daemon's ``GET /trace``
  ring and append the spans belonging to the recorded traces, so
  one log holds the whole stitched tree (coordinator lease spans
  parenting daemon queue/worker spans).
* :func:`to_chrome_trace` — render entries as Chrome
  ``trace_event`` JSON (``{"traceEvents": [...]}``), loadable in
  ``chrome://tracing`` and Perfetto.
* :func:`rollup` — per-name ``{count,total,min,max}`` aggregation
  for ``fpfa-map trace report``.

Invariants inherited from the tracer hold here: recording never
mutates the traced computation (the recorder only copies entries),
durations are monotonic measurements, and the wall-clock ``at``
stamps are presentation-only — the export uses them solely to place
spans on a shared timeline, which is safe because a sweep's
processes share a host clock; the attribution math in
:mod:`repro.obs.critical` never subtracts wall stamps taken in
different processes from each other without that caveat documented.

Multiple processes may append to one log (a forked pool inherits the
recorder): the file is opened append-mode and line-buffered, so each
entry is one atomic-enough ``write(2)``; the tolerant loader drops
the rare interleaved casualty instead of failing the export.
"""

from __future__ import annotations

import json
import os
import pathlib
import threading
from contextlib import contextmanager
from typing import Any

from repro.obs import trace

__all__ = [
    "TRACE_LOG_NAME",
    "FlightRecorder",
    "recording",
    "load_trace",
    "harvest_daemon",
    "to_chrome_trace",
    "rollup",
]

#: File name of the flight-recorder log, beside the cache/store root.
TRACE_LOG_NAME = "trace-log.ndjson"


class FlightRecorder:
    """Tracer sink streaming finished entries to an NDJSON log.

    Each entry is written as one line, flushed immediately (the
    recorder of a killed process loses at most the line being
    written).  Entries are copied before the ``pid``/``tid`` stamps
    are added — the tracer's own ring entries are never mutated.
    ``seen_traces`` accumulates every trace id the recorder wrote,
    which is what :func:`harvest_daemon` filters remote rings by.
    """

    def __init__(self, path) -> None:
        self.path = pathlib.Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._file = open(self.path, "a", encoding="utf-8",
                          buffering=1)
        self._lock = threading.Lock()
        self.written = 0
        self.seen_traces: set[str] = set()

    def __call__(self, entry: dict[str, Any]) -> None:
        record = dict(entry)
        record.setdefault("pid", os.getpid())
        record.setdefault("tid", threading.get_ident())
        line = json.dumps(record, sort_keys=True,
                          separators=(",", ":"), default=str)
        with self._lock:
            if self._file.closed:
                return
            self._file.write(line + "\n")
            self.written += 1
            trace_id = record.get("trace")
            if isinstance(trace_id, str):
                self.seen_traces.add(trace_id)

    def close(self) -> None:
        with self._lock:
            if not self._file.closed:
                self._file.close()

    def __enter__(self) -> "FlightRecorder":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


@contextmanager
def recording(path):
    """Enable tracing and stream to a flight-recorder log at *path*.

    Scoped like :class:`~repro.obs.trace.scoped_tracing`: the
    tracer's prior enabled state is restored and the recorder is
    detached and closed on exit, even when the body raises.
    """
    active = trace.TRACER
    recorder = FlightRecorder(path)
    was = active.enabled
    active.enable()
    active.add_sink(recorder)
    try:
        yield recorder
    finally:
        active.remove_sink(recorder)
        if not was:
            active.disable()
        recorder.close()


def load_trace(path) -> list[dict[str, Any]]:
    """Entries from an NDJSON trace log, tolerant of a torn tail.

    A recorder killed mid-write (or two forked writers colliding on
    one line) leaves undecodable lines; those are dropped, never
    raised — the rest of the trace stays usable.
    """
    path = pathlib.Path(path)
    if not path.exists():
        return []
    entries: list[dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(entry, dict):
                entries.append(entry)
    return entries


def harvest_daemon(remote, sink, *, trace_ids=None,
                   timeout: float = 10.0) -> int:
    """Pull one remote daemon's ``GET /trace`` ring into the log.

    *remote* is a ``host:port`` string (or anything
    :func:`repro.dse.distributed.parse_remote` accepts); *sink* is a
    :class:`FlightRecorder`, a path, or a callable taking one entry.
    With *trace_ids*, only entries belonging to those traces are
    kept — the usual call passes ``recorder.seen_traces`` so a
    shared daemon's unrelated work stays out of the sweep's log.
    An unreachable daemon is skipped (harvest is a best-effort,
    post-sweep step).  Returns the number of entries written.
    """
    from repro.dse.distributed import parse_remote
    from repro.service.client import ServiceClient, ServiceError

    host, port = parse_remote(remote)
    try:
        payload = ServiceClient(host, port, timeout=timeout).trace()
    except (ServiceError, OSError, ValueError):
        return 0
    owned: FlightRecorder | None = None
    if isinstance(sink, (str, os.PathLike)):
        owned = sink = FlightRecorder(sink)
    wanted = set(trace_ids) if trace_ids is not None else None
    label = f"{host}:{port}"
    daemon_pid = payload.get("pid")
    harvested = 0
    try:
        for entry in payload.get("events", []):
            if not isinstance(entry, dict):
                continue
            if wanted is not None and entry.get("trace") not in wanted:
                continue
            copied = dict(entry)
            copied.setdefault("daemon", label)
            if daemon_pid is not None:
                copied.setdefault("pid", daemon_pid)
            sink(copied)
            harvested += 1
    finally:
        if owned is not None:
            owned.close()
    return harvested


def _lane_ids(entries) -> dict[Any, int]:
    """Stable small integers for Chrome's numeric pid field, keyed
    by ``(daemon label, recorded pid)`` so every process in the
    stitched trace gets its own swimlane."""
    lanes: dict[Any, int] = {}
    for entry in entries:
        key = (entry.get("daemon"), entry.get("pid"))
        if key not in lanes:
            lanes[key] = len(lanes) + 1
    return lanes


#: Keys the tracer/recorder own; everything else on an entry is a
#: user attribute and lands in the Chrome event's ``args``.
_RESERVED = frozenset({"seq", "kind", "name", "at", "depth",
                       "duration", "trace", "span", "parent",
                       "pid", "tid", "daemon"})


def to_chrome_trace(entries) -> dict[str, Any]:
    """Entries as Chrome ``trace_event`` JSON (Perfetto-loadable).

    Spans become ``ph: "X"`` complete events with microsecond
    ``ts``/``dur`` (``ts`` reconstructed as wall-finish minus the
    monotonic duration); point events become ``ph: "i"`` instants.
    One swimlane (Chrome "process") per recorded process, named by
    its daemon label or pid.
    """
    entries = [e for e in entries if isinstance(e, dict)]
    lanes = _lane_ids(entries)
    trace_events: list[dict[str, Any]] = []
    for key, lane in sorted(lanes.items(), key=lambda kv: kv[1]):
        daemon, pid = key
        label = daemon or (f"pid {pid}" if pid is not None
                           else "unknown")
        trace_events.append({"ph": "M", "name": "process_name",
                             "pid": lane, "tid": 0,
                             "args": {"name": str(label)}})
    for entry in entries:
        at = entry.get("at")
        if not isinstance(at, (int, float)):
            continue
        lane = lanes[(entry.get("daemon"), entry.get("pid"))]
        tid = entry.get("tid")
        tid = tid if isinstance(tid, int) else 0
        args = {k: v for k, v in entry.items()
                if k not in _RESERVED}
        for ident in ("trace", "span", "parent"):
            if entry.get(ident) is not None:
                args[ident] = entry[ident]
        base = {"name": entry.get("name", "?"),
                "cat": str(entry.get("name", "?")).split(".")[0],
                "pid": lane, "tid": tid, "args": args}
        duration = entry.get("duration")
        if entry.get("kind") == "span" and \
                isinstance(duration, (int, float)):
            base.update(ph="X",
                        ts=round((at - duration) * 1e6, 3),
                        dur=round(duration * 1e6, 3))
        else:
            base.update(ph="i", ts=round(at * 1e6, 3), s="t")
        trace_events.append(base)
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def rollup(entries) -> dict[str, dict[str, float]]:
    """Per-name ``{count, total, min, max}`` over span entries —
    the same shape as a tracer snapshot's ``spans`` table, computed
    from a log instead of live memory."""
    table: dict[str, dict[str, float]] = {}
    for entry in entries:
        if not isinstance(entry, dict) or entry.get("kind") != "span":
            continue
        duration = entry.get("duration")
        if not isinstance(duration, (int, float)):
            continue
        name = str(entry.get("name", "?"))
        stats = table.get(name)
        if stats is None:
            table[name] = {"count": 1, "total": duration,
                           "min": duration, "max": duration}
        else:
            stats["count"] += 1
            stats["total"] += duration
            stats["min"] = min(stats["min"], duration)
            stats["max"] = max(stats["max"], duration)
    return table
