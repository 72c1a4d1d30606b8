"""Unit tests for the job queue (repro.service.queue)."""

import random

import pytest

from repro.service.protocol import DONE, QUEUED, RUNNING
from repro.service.queue import JobQueue, QueueFull


def _submit(queue, name="k", **request):
    request = {"kind": "map", **request}
    return queue.submit(request, key=name, coalesce_key=name)


def test_fifo_within_equal_priority():
    queue = JobQueue()
    first, __ = _submit(queue, "a")
    second, __ = _submit(queue, "b")
    assert queue.pop() is first
    assert queue.pop() is second
    assert queue.pop() is None


def test_coalescing_folds_identical_inflight_submissions():
    queue = JobQueue()
    job, coalesced = _submit(queue, "same")
    assert not coalesced
    again, coalesced = _submit(queue, "same")
    assert coalesced and again is job
    assert job.submits == 2
    assert queue.coalesced == 1
    # Still exactly one dispatchable unit of work.
    assert queue.pop() is job
    assert queue.pop() is None


def test_running_jobs_still_coalesce_finished_jobs_do_not():
    queue = JobQueue()
    job, __ = _submit(queue, "same")
    queue.mark_running(queue.pop())
    __, coalesced = _submit(queue, "same")
    assert coalesced and job.submits == 2
    queue.finish(job, {"answer": 42})
    fresh, coalesced = _submit(queue, "same")
    assert not coalesced and fresh is not job


def test_lifecycle_states_and_events():
    queue = JobQueue()
    job, __ = _submit(queue, "k")
    assert job.state == QUEUED and not job.terminal
    queue.mark_running(job)
    assert job.state == RUNNING and job.started is not None
    queue.finish(job, {"x": 1}, cache="miss")
    assert job.state == DONE and job.terminal
    assert job.result == {"x": 1}
    assert job.meta["cache"] == "miss"
    assert [event["event"] for event in job.events] \
        == ["queued", "running", "done"]


def test_failed_jobs_leave_inflight_and_carry_the_error():
    queue = JobQueue()
    job, __ = _submit(queue, "k")
    queue.mark_running(job)
    queue.fail(job, "boom")
    assert job.state == "failed" and job.error == "boom"
    fresh, coalesced = _submit(queue, "k")
    assert not coalesced and fresh is not job


def test_pop_skips_jobs_finished_before_dispatch():
    """A store hit finishes a job while it is still queued; the
    dispatcher must never run it."""
    queue = JobQueue()
    job, __ = _submit(queue, "hit")
    other, __ = _submit(queue, "miss")
    queue.finish(job, {"cached": True})
    assert queue.pop() is other
    assert queue.pop() is None

    # Interleaved submits, coalesced duplicates, store-hit finishes
    # and pops: dispatch follows submission order over the jobs still
    # queued, and depth matches the scan after every transition.
    rng = random.Random(7)
    queue, order, popped = JobQueue(), [], set()
    for step in range(300):
        waiting = [job for job in order if job.state == QUEUED
                   and job.id not in popped]
        action = rng.choice(["submit", "submit", "coalesce", "hit",
                             "pop"])
        if action == "submit" or not waiting:
            job, coalesced = _submit(queue, f"s{step}")
            assert not coalesced
            order.append(job)
        elif action == "coalesce":
            job = rng.choice(waiting)
            again, coalesced = _submit(queue, job.coalesce_key)
            assert coalesced and again is job
        elif action == "hit":
            queue.finish(rng.choice(waiting), {"cached": True})
        else:
            job = queue.pop()
            assert job is waiting[0]
            popped.add(job.id)
        assert queue.depth == _scan_depth(queue, popped)


def test_bounded_depth_raises_queue_full():
    queue = JobQueue(max_depth=2)
    _submit(queue, "a")
    _submit(queue, "b")
    with pytest.raises(QueueFull):
        _submit(queue, "c")
    # Coalescing does not add depth and stays admissible.
    __, coalesced = _submit(queue, "a")
    assert coalesced


def test_terminal_history_is_bounded():
    queue = JobQueue(max_history=3)
    jobs = []
    for index in range(5):
        job, __ = _submit(queue, f"k{index}")
        queue.mark_running(job)
        queue.finish(job, {"n": index})
        jobs.append(job)
    assert queue.get(jobs[0].id) is None   # evicted
    assert queue.get(jobs[1].id) is None
    assert queue.get(jobs[4].id) is jobs[4]
    assert len(queue.jobs) == 3
    assert queue.stats()["evicted"] == 2
    # In-flight jobs are never evicted, whatever the history bound.
    fresh, __ = _submit(queue, "alive")
    for index in range(5, 9):
        job, __ = _submit(queue, f"k{index}")
        queue.finish(job, {})
    assert queue.get(fresh.id) is fresh


def test_durations_survive_wall_clock_steps(monkeypatch):
    """An NTP step between start and finish must not make durations
    negative: wall-clock timestamps stay in the view, but `waited` /
    `runtime` come from monotonic pairs."""
    import repro.service.queue as queue_module

    wall = {"now": 1_000_000.0}
    mono = {"now": 50.0}
    monkeypatch.setattr(queue_module.time, "time",
                        lambda: wall["now"])
    monkeypatch.setattr(queue_module.time, "monotonic",
                        lambda: mono["now"])

    queue = JobQueue()
    job, __ = _submit(queue, "k")
    wall["now"] += 2.0
    mono["now"] += 2.0
    queue.mark_running(job)
    # The wall clock steps BACKWARDS by an hour mid-run (NTP).
    wall["now"] -= 3600.0
    mono["now"] += 1.5
    queue.finish(job, {"x": 1})
    view = job.view()
    assert view["finished"] < view["started"]  # the raw step, kept
    assert view["waited"] == pytest.approx(2.0)
    assert view["runtime"] == pytest.approx(1.5)
    assert job.runtime >= 0 and job.waited >= 0


def test_durations_before_terminal_states(monkeypatch):
    import repro.service.queue as queue_module

    mono = {"now": 10.0}
    monkeypatch.setattr(queue_module.time, "monotonic",
                        lambda: mono["now"])
    queue = JobQueue()
    job, __ = _submit(queue, "k")
    assert job.view()["runtime"] is None
    mono["now"] += 4.0
    assert job.waited == pytest.approx(4.0)   # still queued
    queue.mark_running(job)
    mono["now"] += 1.0
    assert job.waited == pytest.approx(4.0)   # frozen at dispatch
    assert job.runtime == pytest.approx(1.0)  # still running
    # A store hit finishes a job that never ran: waited spans the
    # whole queued life, runtime stays None.
    hit, __ = _submit(queue, "hit")
    mono["now"] += 2.0
    queue.finish(hit, {"cached": True})
    assert hit.waited == pytest.approx(2.0)
    assert hit.runtime is None


def _scan_depth(queue, popped=()):
    """Queued jobs not yet handed out by pop(), by a linear scan."""
    return sum(1 for job in queue.jobs.values()
               if job.state == QUEUED and job.id not in popped)


def test_depth_counter_matches_linear_scan():
    """`depth` is O(1); it must agree with a linear scan across
    every lifecycle transition."""
    queue = JobQueue()
    jobs = []
    for index in range(6):
        job, __ = _submit(queue, f"k{index}")
        jobs.append(job)
        assert queue.depth == _scan_depth(queue)
    queue.finish(jobs[4], {"hit": True})     # store hit from QUEUED
    assert queue.depth == _scan_depth(queue)
    popped = set()
    while (job := queue.pop()) is not None:
        popped.add(job.id)
        assert queue.depth == _scan_depth(queue, popped)
        queue.mark_running(job)
        queue.finish(job, {})
        assert queue.depth == _scan_depth(queue, popped)
    assert queue.depth == 0


def test_store_hit_churn_does_not_grow_heap():
    """Jobs finished straight from the queue leave nothing behind
    in it, with no pop to clear them."""
    queue = JobQueue()
    for index in range(1000):
        job, __ = _submit(queue, f"hit{index}")
        queue.finish(job, {"n": index})  # finished while queued
    assert queue.depth == 0
    assert queue._queued == {}


def test_view_shape_and_stats():
    queue = JobQueue()
    job, __ = _submit(queue, "k", file="fir.c")
    view = job.view()
    assert view["id"] == job.id
    assert view["state"] == QUEUED
    assert view["file"] == "fir.c"
    assert "result" not in view
    queue.finish(job, {"x": 1})
    assert job.view()["result"] == {"x": 1}
    assert "result" not in job.view(with_result=False)
    stats = queue.stats()
    assert stats["jobs"] == 1
    assert stats["states"] == {"done": 1}


def test_durations_never_negative_under_stepped_wall_clock(
        monkeypatch):
    """The wall clock stepping backwards (NTP correction) between
    submit, dispatch and finish must never produce negative
    waited/runtime — durations come from the monotonic twins."""
    from repro.service import queue as queue_module
    steps = iter([1000.0, 400.0, 200.0])
    monkeypatch.setattr(queue_module.time, "time",
                        lambda: next(steps, 100.0))
    queue = JobQueue()
    job, __ = _submit(queue, "stepped")
    assert queue.pop() is job
    queue.mark_running(job)
    queue.finish(job, {"ok": True})
    view = job.view()
    # The wall-clock fields faithfully record the (stepped) wall
    # times -- presentation only...
    assert view["finished"] < view["created"]
    # ...while every duration stays non-negative.
    assert view["waited"] >= 0.0
    assert view["runtime"] >= 0.0
    assert job.waited >= 0.0
    assert job.runtime >= 0.0
