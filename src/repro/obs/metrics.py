"""Prometheus-style metrics: registry, text renderer, strict parser.

The daemon owns one :class:`MetricsRegistry` per
``MappingService`` instance (never a process-global — the test
harness runs several ``ServiceThread`` daemons in one process) and
serves :meth:`MetricsRegistry.render` as ``GET /metrics`` in the
Prometheus text exposition format 0.0.4::

    # HELP fpfa_queue_depth Jobs waiting in the queue.
    # TYPE fpfa_queue_depth gauge
    fpfa_queue_depth 3
    # HELP fpfa_job_runtime_seconds Job runtime by kind.
    # TYPE fpfa_job_runtime_seconds histogram
    fpfa_job_runtime_seconds_bucket{kind="map",le="0.1"} 2
    ...
    fpfa_job_runtime_seconds_sum{kind="map"} 0.4821
    fpfa_job_runtime_seconds_count{kind="map"} 5

Three metric kinds, mirroring the Prometheus client model:

* **Counter** — monotonic totals, rendered with the ``_total``
  suffix.  Besides ``inc()``, counters support
  :meth:`Counter.set_total` so scrape-time code can adopt a total
  another component keeps (the job queue's, the artifact store's)
  instead of counting it a second time.
* **Gauge** — point-in-time values (queue depth, store entries,
  frontend reuse ratio), settable to any float.
* **Histogram** — fixed cumulative buckets chosen at registration,
  always ending in ``+Inf``; tracks ``_sum`` and ``_count``.  Used
  for job queue-wait and runtime latency.

All three support labels: declared as a tuple of label *names* at
registration, bound per-observation as keyword arguments.  Each
label combination is an independent series.

:func:`parse_prometheus` is the counterpart strict parser.  It is
deliberately shared between the unit tests and the fleet tests
(``tests/test_fleet.py``) so both validate the endpoint with the same
rules: every sample belongs to a ``# TYPE``-declared family, label
syntax is well-formed, histogram buckets are cumulative and the
``+Inf`` bucket equals ``_count``.
"""

from __future__ import annotations

import math
import re
import threading
from typing import Any, Iterable, Sequence

__all__ = [
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "ParsedMetrics",
    "MetricsParseError",
    "parse_prometheus",
    "DEFAULT_BUCKETS",
]

#: Default latency buckets (seconds) — tuned for mapping jobs, which
#: range from ~10 ms (cache hit) to minutes (large remote chunks).
DEFAULT_BUCKETS = (0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
                   1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0)

_NAME_PATTERN = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_PATTERN = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _escape_label_value(value: str) -> str:
    return (value.replace("\\", r"\\").replace("\n", r"\n")
            .replace('"', r"\""))


def _escape_help(text: str) -> str:
    return text.replace("\\", r"\\").replace("\n", r"\n")


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def _label_key(names: Sequence[str],
               labels: dict[str, str]) -> tuple[str, ...]:
    if set(labels) != set(names):
        raise ValueError(
            f"expected labels {tuple(names)}, got {tuple(labels)}")
    return tuple(str(labels[name]) for name in names)


def _render_labels(names: Sequence[str], key: tuple[str, ...],
                   extra: tuple[tuple[str, str], ...] = ()) -> str:
    pairs = [(name, value) for name, value in zip(names, key)]
    pairs.extend(extra)
    if not pairs:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label_value(value)}"'
        for name, value in pairs)
    return "{" + inner + "}"


class _Metric:
    """Common shape: name, help text, label names, series dict."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str,
                 labels: Sequence[str], lock: threading.Lock) -> None:
        if not _NAME_PATTERN.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in labels:
            if not _LABEL_PATTERN.match(label):
                raise ValueError(f"invalid label name {label!r}")
        self.name = name
        self.help = help_text
        self.labels = tuple(labels)
        self._lock = lock
        self._series: dict[tuple[str, ...], Any] = {}

    def _ordered_series(self) -> list[tuple[tuple[str, ...], Any]]:
        return sorted(self._series.items())


class Counter(_Metric):
    kind = "counter"

    def inc(self, value: float = 1, **labels: str) -> None:
        if value < 0:
            raise ValueError("counters only go up")
        key = _label_key(self.labels, labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0) + value

    def set_total(self, value: float, **labels: str) -> None:
        """Sync from an external monotonic counter at scrape time.

        The job queue and the artifact store keep their own lifetime
        totals; re-counting them here would drift.  ``set_total``
        adopts the authoritative value — still monotonic from the
        scraper's point of view because the source is.
        """
        key = _label_key(self.labels, labels)
        with self._lock:
            self._series[key] = value

    def value(self, **labels: str) -> float:
        key = _label_key(self.labels, labels)
        with self._lock:
            return self._series.get(key, 0)

    def render(self) -> Iterable[str]:
        yield f"# HELP {self.name}_total {_escape_help(self.help)}"
        yield f"# TYPE {self.name}_total counter"
        for key, value in self._ordered_series():
            labels = _render_labels(self.labels, key)
            yield f"{self.name}_total{labels} {_format_value(value)}"


class Gauge(_Metric):
    kind = "gauge"

    def set(self, value: float, **labels: str) -> None:
        key = _label_key(self.labels, labels)
        with self._lock:
            self._series[key] = value

    def value(self, **labels: str) -> float:
        key = _label_key(self.labels, labels)
        with self._lock:
            return self._series.get(key, 0)

    def render(self) -> Iterable[str]:
        yield f"# HELP {self.name} {_escape_help(self.help)}"
        yield f"# TYPE {self.name} gauge"
        for key, value in self._ordered_series():
            labels = _render_labels(self.labels, key)
            yield f"{self.name}{labels} {_format_value(value)}"


class Histogram(_Metric):
    kind = "histogram"

    def __init__(self, name: str, help_text: str,
                 labels: Sequence[str], lock: threading.Lock,
                 buckets: Sequence[float]) -> None:
        super().__init__(name, help_text, labels, lock)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket")
        if bounds[-1] == math.inf:
            bounds = bounds[:-1]
        self.bounds = bounds

    def observe(self, value: float, **labels: str) -> None:
        key = _label_key(self.labels, labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = {"buckets": [0] * len(self.bounds),
                          "sum": 0.0, "count": 0}
                self._series[key] = series
            for index, bound in enumerate(self.bounds):
                if value <= bound:
                    series["buckets"][index] += 1
            series["sum"] += value
            series["count"] += 1

    def render(self) -> Iterable[str]:
        yield f"# HELP {self.name} {_escape_help(self.help)}"
        yield f"# TYPE {self.name} histogram"
        for key, series in self._ordered_series():
            for bound, cumulative in zip(self.bounds,
                                         series["buckets"]):
                labels = _render_labels(
                    self.labels, key,
                    extra=(("le", _format_value(bound)),))
                yield (f"{self.name}_bucket{labels} "
                       f"{cumulative}")
            inf_labels = _render_labels(self.labels, key,
                                        extra=(("le", "+Inf"),))
            yield f"{self.name}_bucket{inf_labels} {series['count']}"
            labels = _render_labels(self.labels, key)
            yield (f"{self.name}_sum{labels} "
                   f"{_format_value(series['sum'])}")
            yield f"{self.name}_count{labels} {series['count']}"


class MetricsRegistry:
    """Ordered collection of metrics with one shared lock.

    Registration is idempotent-hostile on purpose: registering the
    same name twice is a bug (two code paths fighting over one
    family), so it raises.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}

    def _register(self, metric: _Metric) -> _Metric:
        with self._lock:
            if metric.name in self._metrics:
                raise ValueError(
                    f"metric {metric.name!r} already registered")
            self._metrics[metric.name] = metric
        return metric

    def counter(self, name: str, help_text: str,
                labels: Sequence[str] = ()) -> Counter:
        return self._register(
            Counter(name, help_text, labels, self._lock))

    def gauge(self, name: str, help_text: str,
              labels: Sequence[str] = ()) -> Gauge:
        return self._register(
            Gauge(name, help_text, labels, self._lock))

    def histogram(self, name: str, help_text: str,
                  labels: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_BUCKETS
                  ) -> Histogram:
        return self._register(
            Histogram(name, help_text, labels, self._lock, buckets))

    def render(self) -> str:
        """The full exposition document, trailing newline included."""
        lines: list[str] = []
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            lines.extend(metric.render())
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- #
# Parsing — shared by the unit and fleet tests.                    #
# ---------------------------------------------------------------- #

class MetricsParseError(ValueError):
    """The exposition text violates the format or its invariants."""


_SAMPLE_PATTERN = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>\S+)\s*$")

_LABEL_PAIR_PATTERN = re.compile(
    r'\s*(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)\s*=\s*'
    r'"(?P<value>(?:[^"\\]|\\.)*)"\s*(?:,|$)')


class ParsedMetrics:
    """Families and samples extracted from exposition text.

    ``families`` maps family name → ``{"type": ..., "help": ...}``.
    ``samples`` maps sample name → list of ``(labels, value)`` where
    labels is a dict.  Histogram component samples (``_bucket``,
    ``_sum``, ``_count``) appear under their full sample names.
    """

    def __init__(self) -> None:
        self.families: dict[str, dict[str, str]] = {}
        self.samples: dict[str, list[tuple[dict[str, str], float]]] \
            = {}

    def family(self, name: str) -> dict[str, str]:
        try:
            return self.families[name]
        except KeyError:
            raise MetricsParseError(
                f"no family {name!r} in exposition") from None

    def values(self, name: str) -> list[tuple[dict[str, str], float]]:
        return self.samples.get(name, [])

    def value(self, name: str, **labels: str) -> float:
        wanted = {k: str(v) for k, v in labels.items()}
        for sample_labels, value in self.samples.get(name, []):
            if sample_labels == wanted:
                return value
        raise MetricsParseError(
            f"no sample {name!r} with labels {wanted}")


def _parse_labels(text: str) -> dict[str, str]:
    labels: dict[str, str] = {}
    position = 0
    while position < len(text):
        match = _LABEL_PAIR_PATTERN.match(text, position)
        if match is None:
            raise MetricsParseError(
                f"malformed labels: {text!r}")
        raw = match.group("value")
        value = (raw.replace(r"\n", "\n").replace(r"\"", '"')
                 .replace(r"\\", "\\"))
        labels[match.group("name")] = value
        position = match.end()
    return labels


def _parse_value(text: str) -> float:
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    if text == "NaN":
        return math.nan
    try:
        return float(text)
    except ValueError:
        raise MetricsParseError(
            f"malformed sample value: {text!r}") from None


def _family_for_sample(sample_name: str,
                       families: dict[str, dict[str, str]]
                       ) -> str | None:
    if sample_name in families:
        return sample_name
    for suffix in ("_bucket", "_sum", "_count"):
        if sample_name.endswith(suffix):
            base = sample_name[: -len(suffix)]
            if base in families \
                    and families[base]["type"] == "histogram":
                return base
    return None


def parse_prometheus(text: str) -> ParsedMetrics:
    """Parse and validate Prometheus text exposition format.

    Strictness beyond plain parsing (these are the endpoint's
    contract, asserted by the unit and fleet tests):

    * every sample belongs to a family declared with ``# TYPE``;
    * counter samples end in ``_total``;
    * histogram buckets are cumulative (non-decreasing in ``le``)
      and the ``+Inf`` bucket equals the ``_count`` sample per
      label set.
    """
    parsed = ParsedMetrics()
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            parts = line[len("# HELP "):].split(None, 1)
            name = parts[0]
            parsed.families.setdefault(name, {"type": "untyped",
                                              "help": ""})
            parsed.families[name]["help"] = \
                parts[1] if len(parts) > 1 else ""
            continue
        if line.startswith("# TYPE "):
            parts = line[len("# TYPE "):].split()
            if len(parts) != 2:
                raise MetricsParseError(
                    f"line {number}: malformed TYPE: {line!r}")
            name, kind = parts
            if kind not in ("counter", "gauge", "histogram",
                            "summary", "untyped"):
                raise MetricsParseError(
                    f"line {number}: unknown type {kind!r}")
            parsed.families.setdefault(name, {"type": kind,
                                              "help": ""})
            parsed.families[name]["type"] = kind
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_PATTERN.match(line)
        if match is None:
            raise MetricsParseError(
                f"line {number}: malformed sample: {line!r}")
        sample_name = match.group("name")
        family = _family_for_sample(sample_name, parsed.families)
        if family is None:
            raise MetricsParseError(
                f"line {number}: sample {sample_name!r} has no "
                f"# TYPE family")
        if parsed.families[family]["type"] == "counter" \
                and not sample_name.endswith("_total"):
            raise MetricsParseError(
                f"line {number}: counter sample {sample_name!r} "
                f"missing _total suffix")
        labels = _parse_labels(match.group("labels") or "")
        value = _parse_value(match.group("value"))
        parsed.samples.setdefault(sample_name, []).append(
            (labels, value))
    _validate_histograms(parsed)
    return parsed


def _validate_histograms(parsed: ParsedMetrics) -> None:
    for family, meta in parsed.families.items():
        if meta["type"] != "histogram":
            continue
        buckets = parsed.samples.get(f"{family}_bucket", [])
        counts = parsed.samples.get(f"{family}_count", [])
        if not buckets and not counts:
            continue  # declared but never observed — legal
        if not buckets or not counts:
            raise MetricsParseError(
                f"histogram {family!r} missing _bucket or _count "
                f"samples")
        series: dict[tuple[tuple[str, str], ...],
                     list[tuple[float, float]]] = {}
        for labels, value in buckets:
            bound_text = labels.get("le")
            if bound_text is None:
                raise MetricsParseError(
                    f"histogram {family!r} bucket without le label")
            bound = _parse_value(bound_text)
            key = tuple(sorted((k, v) for k, v in labels.items()
                               if k != "le"))
            series.setdefault(key, []).append((bound, value))
        count_by_key = {
            tuple(sorted(labels.items())): value
            for labels, value in counts}
        for key, entries in series.items():
            entries.sort(key=lambda pair: pair[0])
            previous = -math.inf
            cumulative = -1.0
            for bound, value in entries:
                if bound <= previous:
                    raise MetricsParseError(
                        f"histogram {family!r} duplicate bucket "
                        f"bound {bound}")
                if value < cumulative:
                    raise MetricsParseError(
                        f"histogram {family!r} buckets not "
                        f"cumulative at le={bound}")
                previous, cumulative = bound, value
            if entries[-1][0] != math.inf:
                raise MetricsParseError(
                    f"histogram {family!r} missing +Inf bucket")
            if key not in count_by_key:
                raise MetricsParseError(
                    f"histogram {family!r} bucket series without "
                    f"matching _count")
            if entries[-1][1] != count_by_key[key]:
                raise MetricsParseError(
                    f"histogram {family!r}: +Inf bucket "
                    f"{entries[-1][1]} != count {count_by_key[key]}")
