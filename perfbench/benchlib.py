"""Statistics, the reference-speed clock and span accounting for the
repository benchmark.

Nothing here depends on ``repro``, so the benchmark's own arithmetic
is testable on its own (``python3 -m pytest perfbench``).
"""

from __future__ import annotations

import bisect
import itertools
import math
import threading
import time
from dataclasses import dataclass, field

#: A reported percentile must leave at least this many samples beyond
#: it; below that the tail is one or two unlucky requests.
MIN_TAIL = 10


def _rank(n: int, q: float) -> int:
    return max(1, math.ceil(q / 100.0 * n))


def percentile(samples, q: float) -> float:
    """Nearest-rank *q*-th percentile (no interpolation)."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[_rank(len(ordered), q) - 1]


def tail_percentile(samples, q: float) -> float:
    """:func:`percentile`, refusing a rank with fewer than
    :data:`MIN_TAIL` samples beyond it, so a run too short for its
    tail metric fails loudly instead of reporting its slowest
    request."""
    n = len(samples)
    beyond = n - _rank(n, q) if n else 0
    if beyond < MIN_TAIL:
        raise ValueError(f"p{q:g} of {n} samples leaves {beyond} "
                         f"beyond it; need {MIN_TAIL}")
    return percentile(samples, q)


def samples_for(q: float) -> int:
    """Fewest samples for which :func:`tail_percentile` accepts *q*."""
    n = 1
    while n - _rank(n, q) < MIN_TAIL:
        n += 1
    return n


def geomean(values) -> float:
    """Geometric mean of positive numbers."""
    values = list(values)
    if not values:
        raise ValueError("geomean of no values")
    if min(values) <= 0:
        raise ValueError("geomean needs positive values")
    return math.exp(math.fsum(math.log(value) for value in values)
                    / len(values))


# ---------------------------------------------------------------------------
# Reference-speed clock
# ---------------------------------------------------------------------------

#: Iterations of the yardstick loop, and the thread CPU time it takes
#: at the reference speed every reported duration is scaled to (an
#: unloaded 2-vCPU x86-64 Xeon host running CPython 3.11).
YARDSTICK_LOOPS = 3000
REFERENCE_S = 0.45e-3


def yardstick() -> float:
    """Thread CPU seconds of a fixed pure-Python loop."""
    started = time.thread_time()
    table: dict[int, int] = {}
    total = 0
    for index in range(YARDSTICK_LOOPS):
        table[index & 1023] = index
        total += table.get((index * 7) & 1023, 0)
    return time.thread_time() - started


class Clock:
    """Measures wall durations in reference-speed seconds.

    A shared host's CPU speed can swing by half or more for seconds
    at a time as other tenants load it, which moves every wall time
    alike.  The yardstick, timed in this thread's CPU time so that
    waiting for a CPU does not count, measures the speed of the
    moment; a wall duration is scaled by ``REFERENCE_S`` over the
    yardstick times taken around it.
    """

    def __init__(self, scaled: bool = True):
        #: False keeps plain wall time and never runs the yardstick
        #: (the traced run, whose slices compare raw rates).
        self.scaled = scaled
        self.times: list[float] = []
        self.costs: list[float] = []

    def sample(self) -> float:
        if not self.scaled:
            return REFERENCE_S
        cost = yardstick()
        self.times.append(time.perf_counter())
        self.costs.append(cost)
        return cost

    def time(self, fn, *args):
        """``(fn(*args), reference seconds it took)``; the yardstick
        runs just before and just after the call."""
        before = self.sample()
        started = time.perf_counter()
        result = fn(*args)
        elapsed = time.perf_counter() - started
        after = self.sample()
        return result, elapsed * 2 * REFERENCE_S / (before + after)

    def scale(self, start: float, end: float) -> float:
        """Reference seconds per wall second over ``[start, end]``,
        from the samples taken in it (or the nearest one)."""
        if not self.scaled:
            return 1.0
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        costs = self.costs[lo:hi]
        if not costs:
            if not self.costs:
                raise ValueError("no yardstick samples")
            nearest = min(lo, len(self.costs) - 1)
            if nearest > 0 and (self.times[nearest] - end
                                > start - self.times[nearest - 1]):
                nearest -= 1
            costs = [self.costs[nearest]]
        return REFERENCE_S * len(costs) / math.fsum(costs)


@dataclass
class Ledger:
    """Attempted and failed operations of one run.

    A failure is anything that makes an output untrustworthy: an
    exception, a verification mismatch, a service error or a record
    that differs from its local re-evaluation.  The first few reasons
    are kept for the report.
    """

    attempted: int = 0
    failed: int = 0
    reasons: list = field(default_factory=list)

    def attempt(self) -> None:
        self.attempted += 1

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 5:
            self.reasons.append(reason)

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Span:
    """One finished call of a wrapped layer function."""

    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int


def covered(intervals) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part its children cover.

    Children are clipped to their parent's interval and their union
    is subtracted, so overlapping children (from several threads)
    are not subtracted twice.
    """
    children: dict[int, list] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        inner = [(max(child.start, span.start), min(child.end, span.end))
                 for child in children.get(span.id, ())
                 if child.end > span.start and child.start < span.end]
        result[span.id] = (span.end - span.start) - covered(inner)
    return result


class SpanRecorder:
    """Records :class:`Span` objects around wrapped calls.

    Parents are tracked per thread, so a layer called from a daemon
    executor thread nests under that thread's open span only.
    Counters attached to a span name accumulate under a lock.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def wrap(self, name: str, fn, before=None, observe=None):
        """*fn* wrapped in a span.  ``before(args)`` runs ahead of the
        call; ``observe(args, result, before_value)`` returns a dict
        of counts to add once the call returns."""
        def wrapper(*args, **kwargs):
            token = before(args) if before is not None else None
            stack = self._local.__dict__.setdefault("stack", [])
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ended = time.perf_counter()
                stack.pop()
                self.spans.append(Span(span_id, name, started, ended,
                                       parent, threading.get_ident()))
            if observe is not None:
                self.add(observe(args, result, token))
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def add(self, counts: dict) -> None:
        with self._lock:
            for key, value in counts.items():
                self.counts[key] = self.counts.get(key, 0) + value

    def self_time_by_name(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        own = self_times(self.spans)
        for span in self.spans:
            totals[span.name] = totals.get(span.name, 0.0) + own[span.id]
        return totals

    def calls_by_name(self) -> dict[str, int]:
        calls: dict[str, int] = {}
        for span in self.spans:
            calls[span.name] = calls.get(span.name, 0) + 1
        return calls

    def top_level_by_thread(self) -> dict[int, float]:
        """Per thread, the wall time its top-level spans cover — the
        time the wrapped layers account for on that thread."""
        return {thread: covered(intervals)
                for thread, intervals in _top_level(self.spans).items()}


def _top_level(spans) -> dict[int, list]:
    intervals: dict[int, list] = {}
    for span in spans:
        if span.parent is None:
            intervals.setdefault(span.thread, []).append(
                (span.start, span.end))
    return intervals


#: Seconds per span by which a thread's self times may miss its
#: top-level time: float rounding of ``perf_counter`` readings only.
ROUNDING_S = 1e-9


def attribution_gaps(spans) -> dict[int, float]:
    """Per thread, the summed self time of its spans minus the time
    its top-level spans cover.

    Self time splits each span's duration between the span and its
    children, so on a thread whose spans nest properly the two agree
    to rounding.  A span recorded twice, a child that outlives its
    parent, or a parent taken from another thread opens a gap.
    """
    own = self_times(spans)
    summed: dict[int, float] = {}
    for span in spans:
        summed[span.thread] = summed.get(span.thread, 0.0) + own[span.id]
    top = _top_level(spans)
    return {thread: total - covered(top.get(thread, ()))
            for thread, total in summed.items()}


def attribution_holds(spans) -> bool:
    """True when no thread has an :func:`attribution_gaps` gap beyond
    rounding."""
    per_thread: dict[int, int] = {}
    for span in spans:
        per_thread[span.thread] = per_thread.get(span.thread, 0) + 1
    return all(abs(gap) <= ROUNDING_S * per_thread[thread]
               for thread, gap in attribution_gaps(spans).items())
