"""Retry primitives and the coordinator-side resilience counters.

The client and the distributed coordinator share this vocabulary for
riding out *transient* faults; what a *persistent* fault does to a
daemon (probation, readmission, loss) is the coordinator's per-daemon
state machine in :mod:`repro.dse.distributed`.

:class:`RetryPolicy`
    Exponential backoff with deterministic seeded jitter and a total
    sleep budget.  Determinism matters here the same way it does in
    the mapping flow — a chaos run with a fixed seed replays the
    exact same retry schedule, so failures reproduce.

:func:`call_with_retries`
    The loop: classify the exception, honour ``Retry-After``, sleep
    the policy's delay, count every step in the module metrics — and
    stop early once the caller's *stop* predicate says so.

Counters live in a module-level :class:`MetricsRegistry` (rendered by
:func:`render_metrics` in the same Prometheus text format the daemon
serves on ``/metrics``) because retries and probation happen on the
*coordinator* side — there is no daemon registry to carry them.
``tests/test_fleet.py`` and the chaos battery assert recovery
through these counters.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass
from typing import Callable

from repro.obs import trace
from repro.obs.metrics import MetricsRegistry

__all__ = [
    "RetryPolicy",
    "call_with_retries",
    "render_metrics",
    "reset_metrics",
    "resilience_counter",
]


# ---------------------------------------------------------------- #
# Module metrics — coordinator-side counters in exposition format.  #
# ---------------------------------------------------------------- #

_METRICS_LOCK = threading.Lock()
_REGISTRY: MetricsRegistry | None = None
_COUNTERS: dict[str, object] = {}

#: ``name -> (help text, label names)`` for every counter this layer
#: maintains.  Families are declared up front so a rendered document
#: always carries the full catalogue (a scrape before the first
#: retry still shows ``fpfa_client_retries_total`` at 0 series).
_COUNTER_FAMILIES: dict[str, tuple[str, tuple[str, ...]]] = {
    "fpfa_client_retries":
        ("Client calls retried after a retryable failure.",
         ("reason",)),
    "fpfa_retry_give_ups":
        ("Calls abandoned after exhausting attempts or budget, "
         "or on the caller's stop.", ()),
    "fpfa_probation_demotions":
        ("Daemons demoted from the lease pool to probation.", ()),
    "fpfa_probation_probes":
        ("Health probes sent to daemons on probation.", ()),
    "fpfa_probation_readmissions":
        ("Daemons readmitted to the lease pool after probation.", ()),
    "fpfa_dashboard_reconnects":
        ("Dashboard event-stream reconnect attempts.", ()),
}


def _registry() -> MetricsRegistry:
    global _REGISTRY
    with _METRICS_LOCK:
        if _REGISTRY is None:
            _REGISTRY = MetricsRegistry()
            _COUNTERS.clear()
            for name, (help_text, labels) in \
                    _COUNTER_FAMILIES.items():
                _COUNTERS[name] = _REGISTRY.counter(
                    name, help_text, labels)
        return _REGISTRY


def resilience_counter(name: str):
    """The module-level counter *name* (see ``_COUNTER_FAMILIES``)."""
    _registry()
    return _COUNTERS[name]


def render_metrics() -> str:
    """The resilience counters as a Prometheus text document."""
    return _registry().render()


def reset_metrics() -> None:
    """Drop all counters (tests isolate themselves with this)."""
    global _REGISTRY
    with _METRICS_LOCK:
        _REGISTRY = None
        _COUNTERS.clear()


# ---------------------------------------------------------------- #
# Retry policy.                                                     #
# ---------------------------------------------------------------- #

@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with deterministic jitter and a budget.

    ``attempts`` bounds the *total* number of tries (the first call
    included), ``budget`` the total seconds the policy may spend
    sleeping between them — whichever runs out first ends the retry
    loop.  The jitter fraction spreads a fleet's retries so a
    restarted daemon is not hit by every lane on the same tick, yet
    stays deterministic: the displacement is a pure function of
    ``(seed, key, attempt)``, so one seed replays one schedule.
    """

    attempts: int = 4
    base_delay: float = 0.05
    max_delay: float = 5.0
    multiplier: float = 2.0
    jitter: float = 0.25
    seed: int = 0
    budget: float | None = None

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be >= 0")
        if self.multiplier < 1:
            raise ValueError("multiplier must be >= 1")
        if not 0 <= self.jitter <= 1:
            raise ValueError("jitter is a fraction in [0, 1]")

    def _jitter_fraction(self, key: str, attempt: int) -> float:
        digest = hashlib.sha256(
            f"{self.seed}|{key}|{attempt}".encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big") / 2 ** 64

    def delay(self, attempt: int, *, key: str = "",
              retry_after: float | None = None) -> float:
        """Seconds to sleep before retry *attempt* (1-based).

        The backoff curve is ``base * multiplier**(attempt-1)``
        capped at ``max_delay``, displaced by the deterministic
        jitter (symmetric, at most ``jitter`` of the backoff).  A
        server-provided *retry_after* acts as a floor — the daemon
        knows its queue better than our curve does.
        """
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        backoff = min(self.max_delay,
                      self.base_delay * self.multiplier
                      ** (attempt - 1))
        spread = self._jitter_fraction(key, attempt) * 2 - 1
        delay = max(0.0, backoff * (1 + self.jitter * spread))
        if retry_after is not None:
            delay = max(delay, float(retry_after))
        return delay

    def schedule(self, *, key: str = "") -> list[float]:
        """Every inter-attempt delay this policy would sleep for
        *key* (budget ignored) — handy for tests and docs."""
        return [self.delay(attempt, key=key)
                for attempt in range(1, self.attempts)]


# ---------------------------------------------------------------- #
# The retry loop.                                                   #
# ---------------------------------------------------------------- #

def _default_classify(error: BaseException) \
        -> tuple[bool, float | None]:
    """``error -> (retryable, retry_after)`` without importing the
    client (which imports us): anything carrying a ``retryable``
    attribute speaks for itself (:class:`ServiceError` does); plain
    socket/OS errors are transient by definition."""
    retryable = getattr(error, "retryable", None)
    if retryable is not None:
        return bool(retryable), getattr(error, "retry_after", None)
    return isinstance(error, (OSError, ConnectionError)), None


def call_with_retries(fn: Callable[[], object], *,
                      policy: RetryPolicy,
                      stop: Callable[[], bool] | None = None,
                      key: str = "",
                      classify: Callable[[BaseException],
                                         tuple[bool, float | None]]
                      = _default_classify,
                      sleep: Callable[[float], None] = time.sleep,
                      ) -> object:
    """Run *fn* under *policy*.

    Retryable failures sleep the policy's delay and try again until
    attempts or the sleep budget run out; non-retryable failures and
    the final retryable one re-raise unchanged.  *stop*, when given,
    is asked before every attempt and before every retry: once it
    answers True no further call is made — the last failure
    re-raises, or :class:`ConnectionAbortedError` when *fn* was never
    called.
    """
    slept = 0.0
    last_error: BaseException | None = None
    for attempt in range(1, policy.attempts + 1):
        if stop is not None and stop():
            break
        try:
            return fn()
        except BaseException as error:
            retryable, retry_after = classify(error)
            if not retryable:
                raise
            last_error = error
        if attempt >= policy.attempts or (stop is not None and stop()):
            break
        delay = policy.delay(attempt, key=key,
                             retry_after=retry_after)
        if policy.budget is not None and \
                slept + delay > policy.budget:
            break
        resilience_counter("fpfa_client_retries").inc(
            reason=type(last_error).__name__)
        trace.count("resilience.retries")
        if trace.enabled():
            trace.event("resilience.retry", key=key,
                        attempt=attempt, delay=round(delay, 4),
                        error=str(last_error))
        if delay > 0:
            sleep(delay)
            if trace.enabled():
                # Backoff stalls get their own span so critical-
                # path analysis can attribute retry wait time.
                trace.record_span("retry.backoff", delay,
                                  key=key, attempt=attempt)
        slept += delay
    if last_error is None:
        raise ConnectionAbortedError(
            f"{key or 'call'}: stopped before the first attempt")
    resilience_counter("fpfa_retry_give_ups").inc()
    if trace.enabled():
        trace.event("resilience.give_up", key=key,
                    attempts=policy.attempts,
                    error=str(last_error))
    raise last_error
