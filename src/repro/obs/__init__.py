"""Observability: tracing spans, metrics and trace analysis.

The paper's single-shot mapping flow runs behind a daemon that also
takes distributed sweeps; :mod:`repro.obs` is the layer that makes
both watchable.  Four parts, each consumable on its own:

* :mod:`repro.obs.trace` — a lightweight in-process span/event
  recorder.  Hot layers (the pipeline stages, the job queue, the
  worker executors, the sweep runner, the distributed coordinator)
  are instrumented against the module-level default tracer, which is
  **disabled by default and zero-cost while disabled** — a disabled
  ``span()`` returns a shared no-op context manager and records
  nothing.
* :mod:`repro.obs.metrics` — a Prometheus-style metrics registry
  (counters, gauges, fixed-bucket histograms) with a text-format
  renderer and a strict parser.  The daemon exposes a registry as
  ``GET /metrics``; the parser is what the unit and fleet tests
  validate the endpoint with.
* :mod:`repro.obs.export` — the sweep flight recorder: spans carry
  W3C-style trace/span/parent ids, stream to an NDJSON log beside
  the cache, stitch across processes (``fpfa-map trace record``)
  and export as Chrome ``trace_event``/Perfetto JSON.
* :mod:`repro.obs.critical` — critical-path analysis over a
  recorded trace: attributes a sweep's wall time across queue wait,
  frontend compile, point evaluation and lease round-trips
  (``fpfa-map trace critical-path``).

Invariant: **observation never mutates**.  Nothing in this package is
allowed to change a mapped artifact, a record, or a payload — with
tracing enabled or disabled, every surface stays bit-identical
(enforced by the equivalence tests in ``tests/test_obs.py``).

See ``docs/observability.md`` for span names and metric families.
"""

from repro.obs.critical import critical_path, render_critical
from repro.obs.export import FlightRecorder, load_trace, to_chrome_trace
from repro.obs.metrics import MetricsRegistry, parse_prometheus
from repro.obs.trace import Tracer

__all__ = [
    "FlightRecorder",
    "MetricsRegistry",
    "Tracer",
    "critical_path",
    "load_trace",
    "parse_prometheus",
    "render_critical",
    "to_chrome_trace",
]
