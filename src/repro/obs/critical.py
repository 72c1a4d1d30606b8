"""Critical-path analysis: where did a sweep's wall time go?

Input is a stitched trace — the entry list a flight recorder wrote
(:func:`repro.obs.export.load_trace`), spanning the coordinator,
the daemon it leased chunks to, and its workers.  Output is an
attribution of the sweep's wall-clock window across named phases:

    queue wait, frontend compile, point evaluation,
    plus the residual buckets (worker overhead, lease round-trip,
    coordinator overhead) that keep the attribution exhaustive.

The model is priority-layered interval coverage rather than a naive
sum of span durations: spans nest (``dse.point`` contains
``pipeline.*``) and run concurrently across lease lanes, so summing
durations double-counts wildly.  Instead, every instant inside the
root ``dse.sweep`` span's window is attributed to exactly one phase
— the highest-priority phase with a span covering that instant.
Fine-grained phases (a point evaluating, a frontend compiling) win
over their enclosing coarse spans (the worker running it, the lease
carrying it, the sweep containing everything), so the coarse buckets
collect only their *exclusive* time: serialization and transport for
leases, dedup/merge/scheduling for the coordinator.  Because the
root span covers its own window, the attribution is exhaustive by
construction — ``unattributed`` stays at 0 unless the log has no
root sweep span at all (then the envelope of whatever spans exist is
used, and uncovered gaps are reported honestly).

Clock caveat: durations are monotonic measurements, but *placement*
on the shared timeline uses each process's wall clock (``at`` is the
span's wall finish; starts are reconstructed as ``at - duration``).
Processes of one sweep share a host, so skew is microseconds — but
the wall stamps remain presentation/attribution aids, never inputs
to the mapping flow.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

__all__ = [
    "PHASES",
    "critical_path",
    "render_critical",
]

#: Attribution phases, highest priority first.  Each is
#: ``(phase name, span-name predicate)``; at any instant the first
#: phase with an active span claims the time.
PHASES: list[tuple[str, Callable[[str], bool]]] = [
    ("frontend compile",
     lambda n: n in ("pipeline.parse", "pipeline.transforms")),
    ("point evaluation", lambda n: n == "dse.point"),
    ("queue wait", lambda n: n == "queue.wait"),
    ("worker overhead",
     lambda n: n.startswith("worker.") or n.startswith("pipeline.")),
    ("lease round-trip", lambda n: n == "distributed.lease"),
    ("coordinator overhead", lambda n: n == "dse.sweep"),
]

#: Span names that mark the root of a sweep's wall window.
ROOT_SPAN = "dse.sweep"


def _spans(entries: Iterable[dict]) -> list[dict]:
    picked = []
    for entry in entries:
        if not isinstance(entry, dict) or entry.get("kind") != "span":
            continue
        if not isinstance(entry.get("at"), (int, float)):
            continue
        if not isinstance(entry.get("duration"), (int, float)):
            continue
        picked.append(entry)
    return picked


def _pick_root(spans: list[dict],
               trace_id: str | None) -> dict | None:
    roots = [s for s in spans if s.get("name") == ROOT_SPAN]
    if trace_id is not None:
        roots = [s for s in roots if s.get("trace") == trace_id]
    if not roots:
        return None
    return max(roots, key=lambda s: s["duration"])


def critical_path(entries: Iterable[dict], *,
                  trace_id: str | None = None) -> dict[str, Any]:
    """Attribute a recorded sweep's wall time across phases.

    Picks the longest ``dse.sweep`` span (optionally pinned to
    *trace_id*) as the window, keeps the spans of its trace, and
    returns::

        {"total": seconds, "trace": trace-id-or-None,
         "phases": {phase: seconds, ...},   # only non-zero phases
         "attributed": fraction-in-[0,1],
         "unattributed": seconds, "spans": count}

    ``sum(phases) + unattributed == total`` (up to float dust).
    """
    spans = _spans(entries)
    root = _pick_root(spans, trace_id)
    if root is not None:
        trace_id = root.get("trace")
        window = (root["at"] - root["duration"], root["at"])
    elif spans:
        if trace_id is not None:
            spans = [s for s in spans if s.get("trace") == trace_id]
        if not spans:
            return {"total": 0.0, "trace": trace_id, "phases": {},
                    "attributed": 0.0, "unattributed": 0.0,
                    "spans": 0}
        window = (min(s["at"] - s["duration"] for s in spans),
                  max(s["at"] for s in spans))
    else:
        return {"total": 0.0, "trace": trace_id, "phases": {},
                "attributed": 0.0, "unattributed": 0.0, "spans": 0}
    if trace_id is not None:
        spans = [s for s in spans if s.get("trace") == trace_id]
    start, end = window
    total = max(0.0, end - start)
    if total == 0.0:
        return {"total": 0.0, "trace": trace_id, "phases": {},
                "attributed": 0.0, "unattributed": 0.0,
                "spans": len(spans)}

    # Boundary sweep: +1/-1 per phase at each clipped span edge, one
    # pass over the sorted edges, each elementary segment claimed by
    # the highest-priority active phase.
    edges: list[tuple[float, int, int]] = []
    for span_entry in spans:
        name = str(span_entry.get("name", ""))
        for index, (_, matches) in enumerate(PHASES):
            if matches(name):
                lo = max(start, span_entry["at"]
                         - span_entry["duration"])
                hi = min(end, span_entry["at"])
                if hi > lo:
                    edges.append((lo, +1, index))
                    edges.append((hi, -1, index))
                break
    edges.sort(key=lambda edge: edge[0])
    active = [0] * len(PHASES)
    phases = {name: 0.0 for name, _ in PHASES}
    unattributed = 0.0
    cursor = start
    position = 0
    while position < len(edges):
        when = edges[position][0]
        if when > cursor:
            claimed = next((i for i, n in enumerate(active) if n),
                           None)
            if claimed is None:
                unattributed += when - cursor
            else:
                phases[PHASES[claimed][0]] += when - cursor
            cursor = when
        while position < len(edges) and edges[position][0] == when:
            _, delta, index = edges[position]
            active[index] += delta
            position += 1
    if end > cursor:
        unattributed += end - cursor
    phases = {name: seconds for name, seconds in phases.items()
              if seconds > 0.0}
    attributed = sum(phases.values())
    return {
        "total": total,
        "trace": trace_id,
        "phases": phases,
        "attributed": attributed / total if total else 0.0,
        "unattributed": unattributed,
        "spans": len(spans),
    }


def render_critical(report: dict[str, Any]) -> str:
    """The attribution as an aligned text table."""
    lines = []
    trace_id = report.get("trace")
    suffix = f" (trace {trace_id})" if trace_id else ""
    lines.append(f"critical path over {report['total']:.3f}s wall"
                 f"{suffix}: {report['spans']} spans")
    total = report["total"] or 1.0
    order = {name: index for index, (name, _) in enumerate(PHASES)}
    for name, seconds in sorted(
            report["phases"].items(),
            key=lambda item: (-item[1], order.get(item[0], 99))):
        lines.append(f"  {seconds:>9.3f}s  {100 * seconds / total:5.1f}%"
                     f"  {name}")
    if report["unattributed"] > 0:
        share = 100 * report["unattributed"] / total
        lines.append(f"  {report['unattributed']:>9.3f}s  "
                     f"{share:5.1f}%  (unattributed)")
    lines.append(f"attributed: {100 * report['attributed']:.1f}% "
                 "of wall time")
    return "\n".join(lines)
