"""Sweep flight recorder: NDJSON span log + Chrome/Perfetto export.

The tracer (:mod:`repro.obs.trace`) keeps nothing it records; the
:class:`FlightRecorder` is the sink that keeps it.  It registers with
the tracer and streams every finished span/event as one JSON line to
a log that lives **beside the cache**, so the trace of a sweep
travels with its artifacts.  Entries other processes recorded for the
same work (pool children, a daemon's queue and workers) come home
inside their results and reach the log through
:func:`repro.obs.trace.adopt`.

The log is the interchange format; everything else derives from it:

* :func:`load_trace` — tolerant NDJSON reader (a torn tail from a
  killed recorder loses at most the final line).
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

One writer per log: only the process that opened a recorder writes
to its file (forked pool children drop the sinks they inherit, see
:func:`repro.obs.trace.drop_inherited_sinks`).
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
    are added — the entry other sinks see is never mutated.
    """

    def __init__(self, path) -> None:
        self.path = pathlib.Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._file = open(self.path, "a", encoding="utf-8",
                          buffering=1)
        self._lock = threading.Lock()
        self.written = 0

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

    A recorder killed mid-write leaves an undecodable last line;
    it is dropped, never raised — the rest of the trace stays
    usable.
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


#: Keys the tracer/recorder own; everything else on an entry is a
#: user attribute and lands in the Chrome event's ``args``.
_RESERVED = frozenset({"kind", "name", "at", "depth",
                       "duration", "trace", "span", "parent",
                       "pid", "tid"})


def to_chrome_trace(entries) -> dict[str, Any]:
    """Entries as Chrome ``trace_event`` JSON (Perfetto-loadable).

    Spans become ``ph: "X"`` complete events with microsecond
    ``ts``/``dur`` (``ts`` reconstructed as wall-finish minus the
    monotonic duration); point events become ``ph: "i"`` instants.
    One swimlane (Chrome "process") per recorded pid, numbered in
    order of first appearance.
    """
    entries = [e for e in entries if isinstance(e, dict)]
    lanes: dict[Any, int] = {}
    for entry in entries:
        lanes.setdefault(entry.get("pid"), len(lanes) + 1)
    trace_events: list[dict[str, Any]] = []
    for pid, lane in lanes.items():
        label = f"pid {pid}" if pid is not None else "unknown"
        trace_events.append({"ph": "M", "name": "process_name",
                             "pid": lane, "tid": 0,
                             "args": {"name": label}})
    for entry in entries:
        at = entry.get("at")
        if not isinstance(at, (int, float)):
            continue
        lane = lanes[entry.get("pid")]
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
    """Per-name ``{count, total, min, max}`` over span entries."""
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
