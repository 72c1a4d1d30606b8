"""FIFO job queue with in-flight request coalescing.

The queue is a plain single-threaded data structure — the daemon
calls it only from its event loop, unit tests call it directly — so
it carries no locks and no asyncio; waiting and notification are the
daemon's concern.

Jobs dispatch in submission order, so dispatch is deterministic for
a deterministic submission sequence.  The waiting jobs are one
insertion-ordered dict: ``pop`` takes its first entry and a store
hit that finishes a job straight from the queue deletes its entry,
both in O(1), so nothing stale is ever left behind.

Coalescing: a submission whose :func:`repro.service.protocol.coalesce_key`
matches a job that is still *in flight* (queued or running) does not
create a new job — it returns the existing one with its ``submits``
counter bumped.  Two clients submitting the same (source, point,
verification requirement) get one compute and one job id.  A job
that has already finished never coalesces; resubmission creates a
fresh job (which the daemon then typically serves from the artifact
store without any backend run).

Invariants
----------
* ``submits`` across all jobs equals the number of accepted
  submissions; ``len(jobs)`` equals the number of distinct computes
  admitted (the difference is the coalescing win).
* A job is in ``_inflight`` exactly while its state is non-terminal,
  and in ``_queued`` exactly while it waits to be dispatched.
"""

from __future__ import annotations

import collections
import itertools
import time
from dataclasses import dataclass, field

from repro.obs import trace
from repro.service.protocol import (
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    TERMINAL_STATES,
)


class QueueFull(RuntimeError):
    """The queue's bounded depth was reached (HTTP 503)."""


@dataclass
class Job:
    """One admitted unit of work and its full lifecycle record."""

    id: str
    kind: str
    key: str            #: content identity (artifact-store key for map)
    coalesce_key: str   #: identity + verification requirement
    request: dict       #: normalised request (protocol.normalise_request)
    state: str = QUEUED
    submits: int = 1    #: submissions coalesced into this job
    #: Wall-clock timestamps — presentation only (the JSON views).
    #: Durations are NEVER derived from these: ``time.time()`` steps
    #: under NTP corrections, so ``finished - started`` can go
    #: negative.  The ``*_mono`` twins below are the duration source.
    created: float = field(default_factory=lambda: time.time())  # fpfa-lint: wall-clock
    started: float | None = None
    finished: float | None = None
    #: ``time.monotonic()`` twins of the timestamps above; immune to
    #: wall-clock steps, meaningless across processes — used only as
    #: pairs to compute the ``waited``/``runtime`` durations.  (The
    #: lambdas look the clock up at call time, so tests can patch it.)
    created_mono: float = field(default_factory=lambda: time.monotonic())
    started_mono: float | None = None
    finished_mono: float | None = None
    result: dict | None = None      #: the response payload when DONE
    error: str | None = None        #: failure description when FAILED
    meta: dict = field(default_factory=dict)   #: service-side profile
    events: list = field(default_factory=list)
    #: The ``queue.wait`` trace entry, when the tracer recorded one;
    #: a traced sweep-chunk job returns it with its result.
    wait_span: dict | None = None

    def add_event(self, event: str, **detail) -> dict:
        entry = {"seq": len(self.events), "event": event,
                 "at": round(time.time(), 6), **detail}  # fpfa-lint: wall-clock
        trace_id = self.trace_id
        if trace_id is not None:
            # Every streamed event names its trace, so a follower
            # (``fpfa-map jobs --follow``) links straight to the
            # exported trace.
            entry.setdefault("trace", trace_id)
        self.events.append(entry)
        return entry

    @property
    def trace_id(self) -> str | None:
        """The submitter's trace id, when the request carried a
        trace context (pure observability passthrough — see
        ``protocol._optional_trace``)."""
        ctx = self.request.get("trace")
        return ctx.get("trace") if isinstance(ctx, dict) else None

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def waited(self) -> float:
        """Seconds spent queued (monotonic; never negative)."""
        end = self.started_mono
        if end is None:
            end = self.finished_mono  # finished without running
        if end is None:
            end = time.monotonic()    # still queued
        return max(0.0, end - self.created_mono)

    @property
    def runtime(self) -> float | None:
        """Seconds spent running (monotonic), or None before start."""
        if self.started_mono is None:
            return None
        end = self.finished_mono
        if end is None:
            end = time.monotonic()    # still running
        return max(0.0, end - self.started_mono)

    def view(self, *, with_result: bool = True) -> dict:
        """The JSON view the status endpoints serve.

        Wall-clock timestamps stay in the view (clients correlate
        them with their own logs); the ``waited``/``runtime``
        durations come from the monotonic pairs, so they hold across
        NTP wall-clock steps.
        """
        runtime = self.runtime
        view = {
            "id": self.id,
            "kind": self.kind,
            "key": self.key,
            "state": self.state,
            "submits": self.submits,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "waited": round(self.waited, 6),
            "runtime": (None if runtime is None
                        else round(runtime, 6)),
            "file": self.request.get("file"),
            "meta": self.meta,
        }
        trace_id = self.trace_id
        if trace_id is not None:
            view["trace"] = trace_id
        if self.error is not None:
            view["error"] = self.error
        if with_result and self.result is not None:
            view["result"] = self.result
        return view


class JobQueue:
    """Admission, ordering and lifecycle for service jobs."""

    def __init__(self, max_depth: int = 1024,
                 max_history: int = 1024):
        self.max_depth = max_depth
        #: Terminal jobs kept inspectable before the oldest is
        #: evicted — the bound that keeps a long-running daemon's
        #: memory flat under sustained traffic (results themselves
        #: live on in the artifact store).
        self.max_history = max_history
        self.jobs: dict[str, Job] = {}
        #: Jobs waiting to run, in submission order (job id -> job).
        self._queued: dict[str, Job] = {}
        self._inflight: dict[str, Job] = {}
        self._history: collections.deque[str] = collections.deque()
        self._counter = itertools.count(1)
        #: Submissions folded into an in-flight job — the daemon's
        #: only count of them (its /stats reads this).
        self.coalesced = 0
        self.evicted = 0

    @staticmethod
    def _trace(event: str, job: Job) -> None:
        if trace.enabled():
            # Guarded: the f-string name is built at the call site
            # (lint rule FPL003).  job_kind, not kind: "kind" is the
            # tracer's reserved span/event discriminator.
            trace.event(f"queue.{event}", job=job.id,
                        job_kind=job.kind)

    # -- admission ----------------------------------------------------

    def submit(self, request: dict, key: str,
               coalesce_key: str) -> tuple[Job, bool]:
        """Admit one normalised request.

        Returns ``(job, coalesced)``; *coalesced* is True when the
        submission was folded into an in-flight job instead of
        creating one.
        """
        existing = self._inflight.get(coalesce_key)
        if existing is not None:
            existing.submits += 1
            existing.add_event("coalesced", submits=existing.submits)
            self.coalesced += 1
            self._trace("coalesced", existing)
            return existing, True
        if self.depth >= self.max_depth:
            raise QueueFull(
                f"queue depth {self.max_depth} reached; retry later")
        job = Job(id=f"job-{next(self._counter):06d}",
                  kind=request["kind"], key=key,
                  coalesce_key=coalesce_key, request=request)
        job.add_event("queued")
        self.jobs[job.id] = job
        self._inflight[coalesce_key] = job
        self._queued[job.id] = job
        self._trace("queued", job)
        return job, False

    def inflight(self, coalesce_key: str) -> bool:
        """Would a submission under *coalesce_key* coalesce now?"""
        return coalesce_key in self._inflight

    # -- dispatch -----------------------------------------------------

    def pop(self) -> Job | None:
        """The longest-waiting queued job, or None."""
        if not self._queued:
            return None
        return self._queued.pop(next(iter(self._queued)))

    @property
    def depth(self) -> int:
        """Jobs currently waiting to run."""
        return len(self._queued)

    # -- lifecycle ----------------------------------------------------

    def mark_running(self, job: Job) -> None:
        job.state = RUNNING
        job.started = time.time()  # fpfa-lint: wall-clock
        job.started_mono = time.monotonic()
        job.add_event("running")
        if trace.enabled():
            # The wait is a real phase of the job's life but not a
            # code region, so it is recorded as a ready-made span:
            # duration from the monotonic pair, parented under the
            # submitter's span so the critical-path analysis sees
            # queue time inside the lease that paid it.
            job.wait_span = trace.record_span(
                "queue.wait", job.waited, job=job.id,
                job_kind=job.kind, context=job.request.get("trace"))
        self._trace("running", job)

    def finish(self, job: Job, result: dict, **meta) -> None:
        job.state = DONE
        job.finished = time.time()  # fpfa-lint: wall-clock
        job.finished_mono = time.monotonic()
        job.result = result
        job.meta.update(meta)
        self._retire(job)
        job.add_event("done", **{name: value
                                 for name, value in meta.items()
                                 if isinstance(value, (str, int,
                                                       float, bool))})
        self._trace("done", job)

    def fail(self, job: Job, error: str, **meta) -> None:
        job.state = FAILED
        job.finished = time.time()  # fpfa-lint: wall-clock
        job.finished_mono = time.monotonic()
        job.error = error
        job.meta.update(meta)
        self._retire(job)
        job.add_event("failed", error=error)
        self._trace("failed", job)

    def _retire(self, job: Job) -> None:
        """Leave the queue and the in-flight set; bound the terminal
        history.

        A job can go terminal straight from the queue (a store hit
        finishes it before any pop), so its queued entry goes too.
        Evicted jobs simply become unknown to the status endpoints —
        their map results remain reachable through the artifact
        store, and a follower already streaming events keeps its
        reference to the Job object."""
        self._queued.pop(job.id, None)
        self._inflight.pop(job.coalesce_key, None)
        self._history.append(job.id)
        while len(self._history) > self.max_history:
            evicted = self._history.popleft()
            if self.jobs.pop(evicted, None) is not None:
                self.evicted += 1

    # -- inspection ---------------------------------------------------

    def get(self, job_id: str) -> Job | None:
        return self.jobs.get(job_id)

    def list_jobs(self, state: str | None = None) -> list[Job]:
        jobs = list(self.jobs.values())
        if state is not None:
            jobs = [job for job in jobs if job.state == state]
        return jobs

    def stats(self) -> dict:
        states: dict[str, int] = {}
        for job in self.jobs.values():
            states[job.state] = states.get(job.state, 0) + 1
        return {
            "jobs": len(self.jobs),
            "depth": self.depth,
            "inflight": len(self._inflight),
            "coalesced": self.coalesced,
            "evicted": self.evicted,
            "states": states,
        }
