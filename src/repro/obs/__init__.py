"""Observability: tracing spans and trace analysis.

The paper's single-shot mapping flow runs behind a daemon that also
takes distributed sweeps; :mod:`repro.obs` is the layer that makes
both watchable.  Three parts, each consumable on its own:

* :mod:`repro.obs.trace` — a lightweight in-process span/event
  recorder.  Hot layers (the pipeline stages, the job queue, the
  worker executors, the sweep runner, the distributed coordinator)
  are instrumented against the module-level default tracer, which is
  **disabled by default and zero-cost while disabled** — a disabled
  ``span()`` returns a shared no-op context manager and records
  nothing.
* :mod:`repro.obs.export` — the sweep flight recorder: spans carry
  W3C-style trace/span/parent ids, stream to an NDJSON log beside
  the cache, stitch across processes (``fpfa-map trace record``)
  and export as Chrome ``trace_event``/Perfetto JSON.
* :mod:`repro.obs.critical` — critical-path analysis over a
  recorded trace: attributes a sweep's wall time across queue wait,
  frontend compile, point evaluation and lease round-trips
  (``fpfa-map trace critical-path``).

The daemon's counts are not here: they are plain integers on the
daemon, served as ``GET /stats``.

Invariant: **observation never mutates**.  Nothing in this package is
allowed to change a mapped artifact, a record, or a payload — with
tracing enabled or disabled, every surface stays bit-identical
(enforced by the equivalence tests in ``tests/test_obs.py``).

See ``docs/observability.md`` for span names.
"""

from repro.obs.critical import critical_path, render_critical
from repro.obs.export import FlightRecorder, load_trace, to_chrome_trace
from repro.obs.trace import Tracer

__all__ = [
    "FlightRecorder",
    "Tracer",
    "critical_path",
    "load_trace",
    "render_critical",
    "to_chrome_trace",
]
