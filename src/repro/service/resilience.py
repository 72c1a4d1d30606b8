"""Retry primitives shared by the client and the coordinator.

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
    the policy's delay, report each retry to the caller's *on_retry*
    — and stop early once the caller's *stop* predicate says so.

This module counts nothing itself: a
:class:`~repro.service.client.ServiceClient` tallies its retries, and
a distributed sweep adds its leases' retries to its stats ledger
(``DistributedSweepStats.retries``).
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Callable

from repro.obs import trace

__all__ = [
    "RetryPolicy",
    "call_with_retries",
]


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
                      on_retry: Callable[[BaseException], None]
                      | None = None,
                      ) -> object:
    """Run *fn* under *policy*.

    Retryable failures sleep the policy's delay and try again until
    attempts or the sleep budget run out; non-retryable failures and
    the final retryable one re-raise unchanged.  *on_retry*, when
    given, receives the failure each retry is about to retry.
    *stop*, when given, is asked before every attempt and before
    every retry: once it answers True no further call is made — the
    last failure re-raises, or :class:`ConnectionAbortedError` when
    *fn* was never called.
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
        if on_retry is not None:
            on_retry(last_error)
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
    if trace.enabled():
        trace.event("resilience.give_up", key=key,
                    attempts=policy.attempts,
                    error=str(last_error))
    raise last_error
