"""Priority job queue with in-flight request coalescing.

The queue is a plain single-threaded data structure — the daemon
calls it only from its event loop, unit tests call it directly — so
it carries no locks and no asyncio; waiting and notification are the
daemon's concern.

Ordering is by ``(-priority, sequence)``: higher ``priority`` values
run first, ties run in submission order (FIFO), and the ordering is
total, so dispatch is deterministic for a deterministic submission
sequence.

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
* A job is in ``_inflight`` exactly while its state is non-terminal.
* Priorities never starve the queue ordering's determinism: equal
  priorities are strictly FIFO.
"""

from __future__ import annotations

import collections
import heapq
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
    priority: int = 0
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
    #: Set once pop() hands the job out; a priority escalation can
    #: leave more than one heap entry per job, and a job must never
    #: dispatch twice.
    dispatched: bool = False
    #: Sequence number of this job's *live* heap entry (its latest
    #: push) — what heap compaction rebuilds from, preserving FIFO
    #: order within a priority exactly.
    sort_seq: int = 0

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
            "priority": self.priority,
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
                 max_history: int = 1024, observer=None):
        self.max_depth = max_depth
        #: Optional ``observer(event, job)`` callable invoked on every
        #: lifecycle transition (``queued``, ``coalesced``,
        #: ``running``, ``done``, ``failed``) — how the daemon feeds
        #: its metrics registry (latency histograms need the job's
        #: monotonic durations at the moment it goes terminal, not at
        #: scrape time).  Observers observe: they run after the
        #: queue's own state change and must not mutate the job.
        self.observer = observer
        #: Terminal jobs kept inspectable before the oldest is
        #: evicted — the bound that keeps a long-running daemon's
        #: memory flat under sustained traffic (results themselves
        #: live on in the artifact store).
        self.max_history = max_history
        self.jobs: dict[str, Job] = {}
        self._heap: list[tuple[int, int, str]] = []
        self._inflight: dict[str, Job] = {}
        self._history: collections.deque[str] = collections.deque()
        self._sequence = itertools.count()
        self._counter = itertools.count(1)
        #: Submissions folded into an in-flight job — the daemon's
        #: only count of them (its /stats and /metrics read this).
        self.coalesced = 0
        self.evicted = 0
        #: Jobs waiting to run, maintained O(1) on every transition —
        #: ``depth`` is read on every submit, so it must never scan.
        self._queued = 0
        self.compactions = 0

    def _notify(self, event: str, job: Job) -> None:
        """Fan one lifecycle transition out to the observer and the
        tracer.  The queue's own state is already consistent when
        this runs, so an observer reading ``stats()`` sees the
        post-transition picture."""
        if trace.enabled():
            # Guarded: the f-string name is built at the call site
            # (lint rule FPL003).  job_kind, not kind: "kind" is the
            # tracer's reserved span/event discriminator.
            trace.event(f"queue.{event}", job=job.id,
                        job_kind=job.kind)
        if self.observer is not None:
            self.observer(event, job)

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
            priority = request.get("priority") or 0
            if priority > existing.priority:
                # The duplicate escalates the shared job: "higher
                # runs first" must hold for every submitter, so a
                # still-queued job is re-pushed at the new priority
                # (pop() skips the stale lower-priority entry).
                existing.priority = priority
                if existing.state == QUEUED and \
                        not existing.dispatched:
                    existing.sort_seq = next(self._sequence)
                    heapq.heappush(
                        self._heap,
                        (-priority, existing.sort_seq, existing.id))
                    self._maybe_compact()
            existing.add_event("coalesced",
                               submits=existing.submits,
                               priority=existing.priority)
            self.coalesced += 1
            self._notify("coalesced", existing)
            return existing, True
        if self.depth >= self.max_depth:
            raise QueueFull(
                f"queue depth {self.max_depth} reached; retry later")
        job = Job(id=f"job-{next(self._counter):06d}",
                  kind=request["kind"], key=key,
                  coalesce_key=coalesce_key, request=request,
                  priority=request.get("priority") or 0)
        job.add_event("queued", priority=job.priority)
        self.jobs[job.id] = job
        self._inflight[coalesce_key] = job
        job.sort_seq = next(self._sequence)
        heapq.heappush(self._heap,
                       (-job.priority, job.sort_seq, job.id))
        self._queued += 1
        self._notify("queued", job)
        return job, False

    def inflight(self, coalesce_key: str) -> bool:
        """Would a submission under *coalesce_key* coalesce now?"""
        return coalesce_key in self._inflight

    # -- dispatch -----------------------------------------------------

    def pop(self) -> Job | None:
        """The next runnable job (highest priority, FIFO within), or
        None.  Skips stale heap entries: jobs that already left the
        queued state (finished early from a store hit), were evicted,
        or were dispatched through an earlier entry (priority
        escalation re-pushes)."""
        while self._heap:
            entry = heapq.heappop(self._heap)
            job = self.jobs.get(entry[2])
            if job is not None and job.state == QUEUED \
                    and not job.dispatched \
                    and entry[1] == job.sort_seq:
                job.dispatched = True
                self._queued -= 1
                return job
        return None

    @property
    def depth(self) -> int:
        """Jobs currently waiting to run — an O(1) counter, not a
        scan: ``submit`` reads it on every admission."""
        return self._queued

    def _maybe_compact(self) -> None:
        """Rebuild the heap once stale entries outnumber live ones.

        Priority escalations re-push (leaving the old entry behind)
        and store hits finish jobs still on the heap; under sustained
        traffic those stale entries would otherwise accumulate
        without bound.  Rebuilding from the live queued jobs' current
        ``(priority, sort_seq)`` reproduces the exact dispatch order.
        """
        live = self._queued
        if len(self._heap) - live <= max(live, 8):
            return
        self._heap = [(-job.priority, job.sort_seq, job.id)
                      for job in self._inflight.values()
                      if job.state == QUEUED and not job.dispatched]
        heapq.heapify(self._heap)
        self.compactions += 1

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
            trace.record_span("queue.wait", job.waited, job=job.id,
                              job_kind=job.kind,
                              context=job.request.get("trace"))
        self._notify("running", job)

    def finish(self, job: Job, result: dict, **meta) -> None:
        self._leave_queued(job)
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
        self._notify("done", job)

    def fail(self, job: Job, error: str, **meta) -> None:
        self._leave_queued(job)
        job.state = FAILED
        job.finished = time.time()  # fpfa-lint: wall-clock
        job.finished_mono = time.monotonic()
        job.error = error
        job.meta.update(meta)
        self._retire(job)
        job.add_event("failed", error=error)
        self._notify("failed", job)

    def _leave_queued(self, job: Job) -> None:
        """Keep the queued counter exact when a job goes terminal
        straight from the queue (a store hit finishes it before any
        pop); its heap entry goes stale, so consider compacting."""
        if job.state == QUEUED and not job.dispatched:
            self._queued -= 1
            self._maybe_compact()

    def _retire(self, job: Job) -> None:
        """Leave the in-flight set; bound the terminal history.

        Evicted jobs simply become unknown to the status endpoints —
        their map results remain reachable through the artifact
        store, and a follower already streaming events keeps its
        reference to the Job object."""
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
            "compactions": self.compactions,
            "states": states,
        }
