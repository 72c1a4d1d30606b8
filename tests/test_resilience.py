"""Chaos battery for the fleet resilience layer.

Covers the primitives (``RetryPolicy``, ``call_with_retries`` and
its stop predicate), the structured ``ServiceError`` contract, the
seeded fault-injection proxy (``tools/chaos.py``), the coordinator's
per-daemon health state machine (leasing / probation / lost),
probation / readmission of a restarted daemon, work stealing from a
slow-but-alive daemon, and the checkpoint journal behind
``explore --resume``.  Everything is seeded — a failure here is a
reproducer, not weather.  The full-size end-to-end storm (real
subprocess daemons, SIGKILL, coordinator kill + ``--resume``) lives
in ``tests/test_fleet.py``.
"""

import asyncio
import itertools
import json
import pathlib
import sys
import threading

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:  # `python -m pytest` from elsewhere
    sys.path.insert(0, str(ROOT))

from tools.chaos import (  # noqa: E402
    ChaosProxy,
    ChaosSchedule,
    FAULT_KINDS,
)

from repro.dse import distributed
from repro.dse.cache import cache_key
from repro.dse.checkpoint import (
    JOURNAL_NAME,
    SweepJournal,
    load_journal,
    sweep_id,
)
from repro.dse.distributed import (
    run_distributed_sweep,
    sweep_identity,
)
from repro.dse.runner import run_sweep
from repro.dse.space import DesignSpace
from repro.eval.kernels import get_kernel
from repro.service import ServiceClient, ServiceThread
from repro.service.client import ServiceError, _classify
from repro.service.protocol import ProtocolError
from repro.service.queue import QueueFull
from repro.service.resilience import RetryPolicy, call_with_retries

FIR5 = get_kernel("fir5").source

SPACE = DesignSpace({"n_pps": [1, 2, 3, 5], "n_buses": [4, 10]})


def canon(records):
    return json.dumps(records, sort_keys=True)


def url(thread_or_proxy):
    address = thread_or_proxy.address
    return f"{address[0]}:{address[1]}"


@pytest.fixture(scope="module")
def local_result():
    return run_sweep(FIR5, SPACE.grid(), workers=1)


# -- RetryPolicy ----------------------------------------------------------

class TestRetryPolicy:
    def test_schedule_is_deterministic_per_seed_and_key(self):
        a = RetryPolicy(attempts=6, seed=7)
        b = RetryPolicy(attempts=6, seed=7)
        assert a.schedule(key="x") == b.schedule(key="x")
        assert a.schedule(key="x") != a.schedule(key="y")
        assert a.schedule(key="x") != \
            RetryPolicy(attempts=6, seed=8).schedule(key="x")

    def test_backoff_grows_and_jitter_stays_bounded(self):
        policy = RetryPolicy(attempts=8, base_delay=0.1,
                             max_delay=2.0, multiplier=2.0,
                             jitter=0.25, seed=3)
        for attempt in range(1, 8):
            backoff = min(2.0, 0.1 * 2.0 ** (attempt - 1))
            delay = policy.delay(attempt, key="k")
            assert backoff * 0.75 <= delay <= backoff * 1.25
        # The cap holds even with jitter applied.
        assert policy.delay(20, key="k") <= 2.0 * 1.25

    def test_retry_after_is_a_floor(self):
        policy = RetryPolicy(base_delay=0.01, jitter=0.0)
        assert policy.delay(1, retry_after=3.5) == 3.5
        assert policy.delay(1, retry_after=0.0) == \
            policy.delay(1)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=2.0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1)
        with pytest.raises(ValueError):
            RetryPolicy().delay(0)


# -- call_with_retries ----------------------------------------------------

class _Flaky:
    def __init__(self, failures, error):
        self.failures = failures
        self.error = error
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.error
        return "ok"


class TestCallWithRetries:
    POLICY = RetryPolicy(attempts=4, base_delay=0.0, jitter=0.0)

    def test_transient_failures_retry_to_success(self):
        flaky = _Flaky(2, ConnectionResetError("boom"))
        retried = []
        result = call_with_retries(flaky, policy=self.POLICY,
                                   sleep=lambda _: None,
                                   on_retry=retried.append)
        assert result == "ok" and flaky.calls == 3
        assert retried == [flaky.error] * 2

    def test_non_retryable_raises_immediately(self):
        flaky = _Flaky(5, ServiceError("bad request", status=400))
        with pytest.raises(ServiceError):
            call_with_retries(flaky, policy=self.POLICY,
                              sleep=lambda _: None)
        assert flaky.calls == 1

    def test_attempts_exhausted_raises_last_error(self):
        flaky = _Flaky(10, OSError("down"))
        with pytest.raises(OSError) as info:
            call_with_retries(flaky, policy=self.POLICY,
                              sleep=lambda _: None)
        assert flaky.calls == 4
        assert info.value is flaky.error  # gave up on the last one

    def test_sleep_budget_stops_the_loop(self):
        policy = RetryPolicy(attempts=10, base_delay=1.0,
                             jitter=0.0, budget=2.5)
        slept = []
        flaky = _Flaky(10, OSError("down"))
        with pytest.raises(OSError):
            call_with_retries(flaky, policy=policy,
                              sleep=slept.append)
        # 1s + 1s (capped growth? multiplier=2 → 1, 2) then the
        # third delay would blow the 2.5s budget.
        assert flaky.calls == len(slept) + 1
        assert sum(slept) <= 2.5

    def test_stop_predicate_ends_the_retries(self):
        stopped = []
        flaky = _Flaky(10, OSError("down"))

        def fail_and_stop():
            stopped.append(True)
            return flaky()

        retried = []
        with pytest.raises(OSError) as info:
            call_with_retries(fail_and_stop, policy=self.POLICY,
                              stop=lambda: len(stopped) > 0,
                              sleep=lambda _: None,
                              on_retry=retried.append)
        # One call, then the predicate cut the retries short.
        assert flaky.calls == 1
        assert retried == []
        assert info.value is flaky.error

    def test_stop_before_the_first_attempt_never_calls(self):
        flaky = _Flaky(0, None)
        with pytest.raises(ConnectionAbortedError):
            call_with_retries(flaky, policy=self.POLICY,
                              stop=lambda: True,
                              sleep=lambda _: None)
        assert flaky.calls == 0


# -- structured ServiceError ----------------------------------------------

class TestServiceErrorContract:
    def test_status_drives_the_default_retryable(self):
        assert ServiceError("x", status=503).retryable
        assert ServiceError("x", status=502).retryable
        assert not ServiceError("x", status=400).retryable
        assert not ServiceError("x", status=404).retryable
        assert not ServiceError("x").retryable
        assert ServiceError("x", status=400,
                            retryable=True).retryable

    def test_classify_covers_transport_failures(self):
        import http.client
        assert _classify(ConnectionResetError())[0]
        assert _classify(http.client.IncompleteRead(b""))[0]
        assert _classify(ValueError("torn json"))[0]
        assert not _classify(KeyError("records"))[0]
        error = ServiceError("full", status=503, retry_after=0.5)
        assert _classify(error) == (True, 0.5)

    def test_validation_400_from_a_real_daemon_is_fatal(self):
        with ServiceThread(workers=1) as daemon:
            client = ServiceClient(*daemon.address)
            with pytest.raises(ServiceError) as info:
                client.submit({"kind": "bogus"})
        assert info.value.status == 400
        assert not info.value.retryable

    def test_queue_full_503_carries_retry_after(self):
        points = [point.to_dict() for point in
                  DesignSpace({"n_pps": [1, 2, 3, 5],
                               "n_buses": [2, 4, 6, 8, 10]}).grid()]
        with ServiceThread(workers=1, max_queue=1) as daemon:
            client = ServiceClient(*daemon.address)
            # Occupy the single worker with a fat chunk, fill the
            # queue's one slot, then overflow it.  The maps use a bus
            # count the chunk does not cover, so none of them can be
            # a store hit on a record the chunk already wrote.
            client.submit({"kind": "sweep-chunk", "source": FIR5,
                           "points": points})
            overflowed = None
            for pps in (1, 2, 3, 5):
                try:
                    client.submit({"kind": "map", "source": FIR5,
                                   "pps": pps, "buses": 3})
                except ServiceError as error:
                    overflowed = error
                    break
        assert overflowed is not None, "queue never filled"
        assert overflowed.status == 503
        assert overflowed.retryable
        assert overflowed.retry_after == 0.5


# -- the chaos proxy ------------------------------------------------------

class TestChaosProxy:
    def test_schedule_is_deterministic_and_validated(self):
        schedule = ChaosSchedule(seed=5, faults={"reset": 0.3,
                                                 "latency": 0.2})
        again = ChaosSchedule(seed=5, faults={"reset": 0.3,
                                              "latency": 0.2})
        plans = [schedule.plan(i).kind for i in range(64)]
        assert plans == [again.plan(i).kind for i in range(64)]
        assert set(plans) <= {"pass", "reset", "latency"}
        assert "reset" in plans and "pass" in plans
        with pytest.raises(ValueError):
            ChaosSchedule(faults={"gremlins": 1.0})
        with pytest.raises(ValueError):
            ChaosSchedule(faults={kind: 0.5 for kind in FAULT_KINDS})

    def test_grace_connections_never_fault(self):
        schedule = ChaosSchedule(seed=1, faults={"reset": 1.0},
                                 grace=4)
        assert [schedule.plan(i).kind for i in range(4)] \
            == ["pass"] * 4
        assert schedule.plan(4).kind == "reset"

    def test_clean_passthrough(self):
        with ServiceThread(workers=1) as daemon, \
                ChaosProxy(*daemon.address) as proxy:
            client = ServiceClient(*proxy.address)
            assert client.health()["ok"]
            assert client.stats()["workers"]["workers"] == 1
        assert proxy.counts.get("pass", 0) >= 2

    def test_injected_503_looks_like_queue_full(self):
        schedule = ChaosSchedule(seed=0,
                                 faults={"inject-503": 1.0})
        with ServiceThread(workers=1) as daemon, \
                ChaosProxy(*daemon.address, schedule) as proxy:
            client = ServiceClient(*proxy.address)
            with pytest.raises(ServiceError) as info:
                client.health()
        assert info.value.status == 503
        assert info.value.retryable
        assert info.value.retry_after == pytest.approx(0.1)

    def test_reset_surfaces_as_transport_error(self):
        schedule = ChaosSchedule(seed=0, faults={"reset": 1.0})
        with ServiceThread(workers=1) as daemon, \
                ChaosProxy(*daemon.address, schedule) as proxy:
            client = ServiceClient(*proxy.address, timeout=5.0)
            with pytest.raises(OSError):
                client.health()
        assert proxy.counts["reset"] >= 1

    def test_truncation_is_classified_retryable(self):
        schedule = ChaosSchedule(seed=0,
                                 faults={"truncate": 1.0},
                                 truncate_after=40)
        with ServiceThread(workers=1) as daemon, \
                ChaosProxy(*daemon.address, schedule) as proxy:
            client = ServiceClient(*proxy.address, timeout=5.0)
            with pytest.raises(Exception) as info:
                client.stats()
        retryable, __ = _classify(info.value)
        assert retryable, f"truncation raised non-retryable " \
                          f"{type(info.value).__name__}"

    def test_retrying_client_rides_out_seeded_resets(self):
        schedule = ChaosSchedule(seed=11, faults={"reset": 0.4})
        policy = RetryPolicy(attempts=6, base_delay=0.01,
                             max_delay=0.05, seed=11)
        with ServiceThread(workers=1) as daemon, \
                ChaosProxy(*daemon.address, schedule) as proxy:
            client = ServiceClient(*proxy.address, timeout=5.0,
                                   retry=policy)
            for __ in range(10):
                assert client.health()["ok"]
        assert proxy.counts.get("reset", 0) >= 1
        assert client.retries >= 1

    def test_stopped_client_never_dials_a_dead_remote(self):
        stopped = threading.Event()
        client = ServiceClient("127.0.0.1", 1, timeout=1.0,
                               retry=RetryPolicy(
                                   attempts=2, base_delay=0.0,
                                   jitter=0.0),
                               stop=stopped.is_set)
        with pytest.raises(ConnectionRefusedError):
            client.health()
        stopped.set()
        with pytest.raises(ConnectionAbortedError):
            client.health()


# -- the per-daemon health state machine -----------------------------------

def script_submits(daemon, answer):
    """Route every job submission *daemon* receives through the
    coroutine ``answer(n, raw)`` first (``n`` counts from 1): it may
    wait, raise to fail the submission (``ProtocolError`` is a 400,
    ``QueueFull`` a 503), or return to let the real submit run.
    Returns the list of submission numbers seen."""
    real = daemon.service.submit
    numbers = itertools.count(1)
    seen = []

    async def submit(raw):
        number = next(numbers)
        seen.append(number)
        await answer(number, raw)
        return await real(raw)

    daemon.service.submit = submit
    return seen


def health_events(events):
    return [event["event"] for event in events
            if event["event"] in ("probation", "readmit", "lost")]


class TestDaemonHealth:
    """Each transition — leasing -> probation -> leasing, and into
    lost — is reported exactly once: in DistributedSweepStats and as
    one progress event."""

    def test_demote_then_readmit_counts_each_transition_once(
            self, local_result):
        readmitted = threading.Event()

        async def fail_first_lease(number, raw):
            if number == 1:
                raise ProtocolError("scripted lease failure")

        async def hold_until_readmitted(number, raw):
            # Keeps the sweep running until A is back in the pool.
            await asyncio.to_thread(readmitted.wait, 20)

        events = []

        def progress(event):
            events.append(event)
            if event["event"] == "readmit":
                readmitted.set()

        with ServiceThread(workers=1) as a, \
                ServiceThread(workers=1) as b:
            script_submits(a, fail_first_lease)
            script_submits(b, hold_until_readmitted)
            result = run_distributed_sweep(
                FIR5, SPACE.grid(), remotes=[url(a), url(b)],
                chunk_size=1, timeout=60, progress=progress)
        assert canon(result.records) == canon(local_result.records)
        stats = result.stats
        assert (stats.probations, stats.readmissions,
                stats.lost_daemons) == (1, 1, 0)
        assert health_events(events) == ["probation", "readmit"]
        assert stats.probes == 1  # A answered its first re-probe
        assert stats.stolen == 1

    def test_daemon_unreachable_at_start_is_lost_once(self):
        points = SPACE.grid()[:2]
        events = []
        with ServiceThread(workers=1) as daemon:
            result = run_distributed_sweep(
                FIR5, points, remotes=["127.0.0.1:1", url(daemon)],
                progress=events.append)
        stats = result.stats
        assert (stats.daemons, stats.lost_daemons) == (2, 1)
        assert (stats.probations, stats.readmissions) == (0, 0)
        assert stats.remote_records == 2
        lost = [event for event in events if event["event"] == "lost"]
        assert lost == [{"event": "lost", "daemon": "127.0.0.1:1",
                         "error": "unreachable at probe"}]
        assert stats.probes == 0  # lost at the start: never re-probed

    def test_demoted_daemon_stops_its_sibling_lane(self, monkeypatch):
        """A 2-lane daemon: lane one's lease fails outright while lane
        two's is answered 503 only after the demotion.  Lane two must
        give up at once — no retry, no second submission — and the
        daemon, still on probation at sweep end, is lost once."""
        monkeypatch.setattr(distributed, "PROBE_BACKOFF",
                            RetryPolicy(base_delay=60.0, jitter=0.0))
        points = SPACE.grid()[:2]
        second_arrived = threading.Event()
        demoted = threading.Event()

        async def fail_one_then_throttle(number, raw):
            if number == 1:
                await asyncio.to_thread(second_arrived.wait, 20)
                raise ProtocolError("scripted lease failure")
            second_arrived.set()
            await asyncio.to_thread(demoted.wait, 20)
            raise QueueFull("scripted queue-full")

        events = []

        def progress(event):
            events.append(event)
            if event["event"] == "probation":
                demoted.set()

        with ServiceThread(workers=2) as daemon:
            submissions = script_submits(daemon,
                                         fail_one_then_throttle)
            result = run_distributed_sweep(
                FIR5, points, remotes=url(daemon), chunk_size=1,
                timeout=60, progress=progress,
                retry=RetryPolicy(attempts=4, base_delay=0.01,
                                  jitter=0.0))
        assert submissions == [1, 2]
        assert result.stats.retries == 0
        assert canon(result.records) == canon(
            run_sweep(FIR5, points, workers=1).records)
        stats = result.stats
        assert (stats.probations, stats.readmissions,
                stats.lost_daemons) == (1, 0, 1)
        assert stats.local_records == 2
        assert health_events(events) == ["probation", "lost"]
        assert events[-2]["error"] == "still on probation at sweep end"
        assert stats.probes == 0  # the 60 s backoff never came due


# -- probation and readmission --------------------------------------------

class TestProbationReadmission:
    def test_restarted_daemon_rejoins_a_running_sweep(
            self, local_result):
        """The tentpole scenario: daemon A dies mid-sweep (demoted
        to probation), comes back on the same port, and is readmitted
        by the prober while slow daemon B keeps the sweep alive —
        asserted through the stats ledger."""
        slow = ChaosSchedule(seed=2, faults={"latency": 1.0},
                             latency=0.35)
        a = ServiceThread(workers=2)
        a.start()
        a_port = a.address[1]
        b = ServiceThread(workers=2)
        b.start()
        proxy_b = ChaosProxy(*b.address, slow).start()
        reborn: list[ServiceThread] = []
        killed = threading.Event()

        def restart_a():
            replacement = ServiceThread(port=a_port, workers=2)
            replacement.start()
            reborn.append(replacement)

        timer = threading.Timer(0.5, restart_a)

        def progress(event):
            if event["event"] == "chunk" and not killed.is_set():
                killed.set()
                a.stop(timeout=10)
                timer.start()

        try:
            result = run_distributed_sweep(
                FIR5, SPACE.grid(),
                remotes=[url(a), url(proxy_b)],
                chunk_size=1, timeout=30, progress=progress)
        finally:
            timer.cancel()
            proxy_b.stop()
            a.stop()
            b.stop()
            for thread in reborn:
                thread.stop()
        assert killed.is_set()
        assert canon(result.records) == canon(local_result.records)
        stats = result.stats
        assert stats.probations >= 1
        assert stats.readmissions >= 1
        assert stats.lost_daemons == 0
        # No double counting across sources, ever.
        assert stats.remote_records + stats.peer_records \
            + stats.local_records == stats.evaluated
        assert stats.probes >= stats.readmissions
        assert "probation(s)" in stats.summary()

    def test_work_stealing_from_a_slow_but_alive_daemon(
            self, local_result):
        """Satellite: daemon A answers its probe fast (grace
        connections) but every lease stalls past the lease timeout;
        its chunks are re-leased to B.  The re-lease must not
        produce duplicate records or double-counted stats — the
        completed-chunk ledger absorbs the slow copy."""
        stall = ChaosSchedule(seed=3, faults={"latency": 1.0},
                              latency=2.5, grace=2)
        a = ServiceThread(workers=1)
        a.start()
        proxy_a = ChaosProxy(*a.address, stall).start()
        b = ServiceThread(workers=2)
        b.start()
        try:
            result = run_distributed_sweep(
                FIR5, SPACE.grid(),
                remotes=[url(proxy_a), url(b)],
                chunk_size=2, timeout=1.5, retry=None)
        finally:
            proxy_a.stop()
            a.stop()
            b.stop()
        assert canon(result.records) == canon(local_result.records)
        stats = result.stats
        assert stats.daemons == 2 and stats.lost_daemons == 1
        assert stats.stolen >= 1 and stats.probations >= 1
        assert stats.readmissions == 0
        # One record per unique point — nothing counted twice even
        # though a chunk was leased to both daemons.
        assert stats.remote_records + stats.peer_records \
            + stats.local_records == stats.evaluated
        assert len(result.records) == stats.total


# -- resumable sweeps ------------------------------------------------------

class TestResumableSweeps:
    def test_journal_written_and_loadable(self, tmp_path,
                                          local_result):
        with ServiceThread(workers=2) as daemon:
            result = run_distributed_sweep(
                FIR5, SPACE.grid(), remotes=url(daemon),
                cache=tmp_path, chunk_size=2)
        assert canon(result.records) == canon(local_result.records)
        state = load_journal(tmp_path / JOURNAL_NAME)
        assert state is not None and state.ended
        assert state.sweep == sweep_identity(
            FIR5, SPACE.grid(), None)
        assert state.total == result.stats.unique
        assert set(state.pending) <= state.completed
        assert state.remaining == []
        assert state.leases >= result.stats.chunks

    def test_torn_tail_is_tolerated(self, tmp_path):
        path = tmp_path / JOURNAL_NAME
        with SweepJournal(path, "cafe") as journal:
            journal.begin(total=3, pending=["a", "b", "c"])
            journal.lease(0, "h:1", ["a", "b"])
            journal.complete(0, ["a", "b"])
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"event": "complete", "chunk": 1, "ke')
        state = load_journal(path)
        assert state is not None
        assert state.sweep == "cafe"
        assert state.completed == {"a", "b"}
        assert state.remaining == ["c"]
        assert not state.ended

    def test_missing_or_empty_journal_loads_as_none(self, tmp_path):
        assert load_journal(tmp_path / "absent.ndjson") is None
        empty = tmp_path / JOURNAL_NAME
        empty.write_text("")
        assert load_journal(empty) is None

    def test_sweep_identity_dedups_and_discriminates(self):
        points = SPACE.grid()[:3]
        assert sweep_identity(FIR5, points + points, None) \
            == sweep_identity(FIR5, points, None)
        assert sweep_identity(FIR5, points, None) \
            != sweep_identity(FIR5, points, 3)
        assert sweep_identity(FIR5, points, None) \
            != sweep_identity(FIR5, points[:2], None)
        assert sweep_id(FIR5, [], None) != ""

    def test_interrupted_progress_survives_in_the_cache(
            self, tmp_path, local_result):
        """The durability contract behind --resume: records a
        distributed sweep completed are in the cache even though the
        run never wrote a final batch — a second sweep over the same
        cache recomputes only what is missing."""
        with ServiceThread(workers=2) as daemon:
            first = run_distributed_sweep(
                FIR5, SPACE.grid()[:5], remotes=url(daemon),
                cache=tmp_path, chunk_size=2)
        assert first.stats.remote_records == 5
        # "Resume" with a wider request: the 5 finished points are
        # pure cache hits; only the 3 new ones are leased.
        with ServiceThread(workers=2) as daemon:
            resumed = run_distributed_sweep(
                FIR5, SPACE.grid(), remotes=url(daemon),
                cache=tmp_path, chunk_size=2)
        assert canon(resumed.records) == canon(local_result.records)
        assert resumed.stats.cached == 5
        assert resumed.stats.evaluated == resumed.stats.unique - 5
