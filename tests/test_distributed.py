"""Tests for the distributed sweep coordinator (repro.dse.distributed)
and the service's sweep-chunk job kind end to end.

The in-process :class:`ServiceThread` daemons used here change
latency, never results — the acceptance-shaped check against *real*
daemon subprocesses (including a mid-sweep kill) lives in
``tests/test_fleet.py``.
"""

import json
import sys
import threading

import pytest

from repro.dse.cache import ResultCache, cache_key
from repro.dse.distributed import (
    DEFAULT_CHUNK_SIZE,
    DistributedError,
    DistributedSweepStats,
    parse_remote,
    run_distributed_sweep,
)
from repro.dse.runner import FrontendMemo, run_chunk_job, run_sweep
from repro.dse.space import DesignPoint, DesignSpace
from repro.eval.kernels import get_kernel
from repro.service import ServiceClient, ServiceThread

FIR5 = get_kernel("fir5").source

SPACE = DesignSpace({"n_pps": [1, 2, 3, 5], "n_buses": [2, 4, 10]})


def canon(records):
    return json.dumps(records, sort_keys=True)


@pytest.fixture(scope="module")
def local_result():
    return run_sweep(FIR5, SPACE.grid(), workers=1)


def url(thread):
    return f"{thread.address[0]}:{thread.address[1]}"


# -- remote address parsing -----------------------------------------------

class TestParseRemotes:
    def test_forms(self):
        from repro.service.protocol import DEFAULT_PORT
        assert parse_remote("http://host:81") == ("host", 81)
        assert parse_remote("host:81") == ("host", 81)
        assert parse_remote("host") == ("host", DEFAULT_PORT)
        assert parse_remote(" http://10.0.0.2:9000 ") \
            == ("10.0.0.2", 9000)

    @pytest.mark.parametrize("spec", ["", "https://host:1",
                                      "host:notaport", "http://"])
    def test_junk_is_rejected(self, spec):
        with pytest.raises(DistributedError):
            parse_remote(spec)

    def test_a_sweep_takes_one_daemon(self):
        with pytest.raises(DistributedError, match="one daemon"):
            parse_remote("a:1,b:2")
        for remotes in (["a:1", "b:2"], []):
            with pytest.raises(DistributedError, match="one daemon"):
                run_distributed_sweep(FIR5, SPACE.grid()[:1],
                                      remotes=remotes)


# -- run_chunk_job (the task a daemon runs a chunk as) --------------------

class TestRunChunkJob:
    def test_records_keyed_by_cache_key(self):
        """The task maps every point it is given, under the key its
        caller gave it, and times each one."""
        points = SPACE.grid()[:3]
        keyed = [(cache_key(FIR5, point), point) for point in points]
        records, info = run_chunk_job(FIR5, keyed, None, None,
                                      FrontendMemo())
        assert list(records) == list(info["timings"]) \
            == [key for key, __ in keyed]
        assert all("allocate" in timings
                   for timings in info["timings"].values())
        assert (info["frontends_compiled"],
                info["frontends_reused"]) == (1, 2)
        expected = run_sweep(FIR5, points, workers=1)
        for point, record in zip(expected.points, expected.records):
            assert records[cache_key(FIR5, point)] == record


# -- the coordinator ------------------------------------------------------

class TestDistributedSweep:
    def test_bit_identical_to_local_run_sweep(self, local_result):
        with ServiceThread(workers=2) as daemon:
            result = run_distributed_sweep(
                FIR5, SPACE.grid(), remotes=[url(daemon)],
                chunk_size=3)
        assert canon(result.records) == canon(local_result.records)
        stats = result.stats
        assert isinstance(stats, DistributedSweepStats)
        assert stats.workers == 2
        assert stats.remote_records == stats.unique
        assert stats.local_records == 0 and stats.stolen == 0
        assert stats.chunks == stats.leases \
            == -(-len(SPACE.grid()) // 3)
        assert "remote: 4 chunk(s) over 4 lease(s)" in stats.summary()

    def test_duplicates_and_order_preserved(self, local_result):
        points = SPACE.grid()[:4]
        doubled = points + list(reversed(points))
        expected = run_sweep(FIR5, doubled, workers=1)
        with ServiceThread(workers=2) as daemon:
            result = run_distributed_sweep(
                FIR5, doubled, remotes=url(daemon), chunk_size=2)
        assert canon(result.records) == canon(expected.records)
        assert result.stats.total == 8 and result.stats.unique == 4

    def test_local_cache_warms_and_is_warmed(self, tmp_path,
                                             local_result):
        with ServiceThread(workers=2) as daemon:
            first = run_distributed_sweep(
                FIR5, SPACE.grid(), remotes=url(daemon),
                cache=tmp_path, chunk_size=4)
        assert canon(first.records) == canon(local_result.records)
        # Remote-sourced records landed in the local cache in the
        # shared on-disk format: a purely local warm sweep reads
        # them back bit-identically without evaluating anything.
        warm = run_sweep(FIR5, SPACE.grid(), cache=tmp_path)
        assert canon(warm.records) == canon(first.records)
        assert warm.stats.cached == warm.stats.unique
        # ... and a warmed coordinator never leases a thing.
        second = run_distributed_sweep(
            FIR5, SPACE.grid(), remotes=["127.0.0.1:1"],
            cache=tmp_path)
        assert canon(second.records) == canon(first.records)
        assert second.stats.leases == 0
        assert second.stats.cached == second.stats.unique

    def test_verifying_sweep_upgrades_stale_cache_entries(
            self, tmp_path):
        """Like a local run_sweep: a verifying distributed sweep
        re-evaluates unverified cache hits remotely and its verified
        records REPLACE the stale entries, so the next verifying
        sweep is pure cache reads."""
        points = SPACE.grid()[:4]
        run_sweep(FIR5, points, cache=tmp_path)  # unverified warm
        with ServiceThread(workers=2) as daemon:
            first = run_distributed_sweep(
                FIR5, points, remotes=url(daemon), cache=tmp_path,
                chunk_size=2, verify_seed=3)
        assert all(record.get("verified")
                   for record in first.records)
        assert first.stats.cached == 0  # hits downgraded, re-run
        second = run_sweep(FIR5, points, cache=tmp_path,
                           verify_seed=3)
        assert second.stats.cached == second.stats.unique
        assert canon(second.records) == canon(first.records)

    def test_all_daemons_unreachable_falls_back_locally(
            self, local_result):
        result = run_distributed_sweep(
            FIR5, SPACE.grid(), remotes="127.0.0.1:1", chunk_size=4)
        assert canon(result.records) == canon(local_result.records)
        stats = result.stats
        assert stats.leases == 0 and stats.stolen == 0
        assert stats.local_records == stats.unique

    def test_fallback_pool_takes_the_workers_argument(
            self, local_result, monkeypatch):
        """``explore --remote ADDR --workers 1`` falls back on one
        in-process worker, not on a CPU-count pool."""
        monkeypatch.setattr("os.cpu_count", lambda: 4)
        result = run_sweep(FIR5, SPACE.grid(), workers=1,
                           remotes="127.0.0.1:1", remote_chunk_size=4)
        assert result.stats.local_records == result.stats.unique
        assert result.stats.workers == 1
        assert canon(result.records) == canon(local_result.records)

    def test_daemon_killed_mid_sweep_completes_identically(
            self, local_result):
        daemon = ServiceThread(workers=2)
        daemon.start()
        killed = threading.Event()
        events = []

        def progress(event):
            # Stop the daemon the moment the first chunk lands; the
            # next lease fails and the rest of the sweep runs locally.
            events.append(event["event"])
            if event["event"] == "chunk" and not killed.is_set():
                killed.set()
                daemon.stop(timeout=10)

        try:
            result = run_distributed_sweep(
                FIR5, SPACE.grid(), remotes=url(daemon),
                chunk_size=2, progress=progress)
        finally:
            daemon.stop()
        assert killed.is_set()
        assert canon(result.records) == canon(local_result.records)
        stats = result.stats
        assert stats.stolen >= 1
        assert stats.remote_records + stats.local_records \
            == stats.unique
        assert events[-1] == "fallback"

    def test_lanes_share_one_queue_without_losing_a_chunk(
            self, local_result):
        """Eight lanes (more than the cores) race on the shared chunk
        queue with a tiny switch interval: every chunk is leased and
        merged exactly once."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ServiceThread(workers=8) as daemon:
                result = run_distributed_sweep(
                    FIR5, SPACE.grid(), remotes=url(daemon),
                    chunk_size=1)
        finally:
            sys.setswitchinterval(interval)
        assert canon(result.records) == canon(local_result.records)
        stats = result.stats
        assert stats.workers == 8
        assert stats.chunks == stats.leases == stats.unique
        assert stats.remote_records == stats.unique
        assert stats.local_records == 0

    def test_one_chunk_sweep_is_one_probe_and_one_submit(
            self, monkeypatch, local_result):
        """A lease is one round trip: the submit waits for its chunk,
        so no long-poll follows it."""
        calls = []
        request = ServiceClient._request

        def counting(client, method, path, *args, **kwargs):
            calls.append((method, path))
            return request(client, method, path, *args, **kwargs)

        points = SPACE.grid()[:3]
        with ServiceThread(workers=1) as daemon:
            monkeypatch.setattr(ServiceClient, "_request", counting)
            result = run_distributed_sweep(FIR5, points,
                                           remotes=url(daemon))
        assert calls == [("GET", "/stats"), ("POST", "/jobs")]
        assert result.stats.chunks == result.stats.leases == 1
        assert canon(result.records) \
            == canon(local_result.records[:3])

    def test_a_remote_point_is_keyed_twice(self, monkeypatch,
                                           local_result):
        """An uncached point's cache key is computed twice per remote
        sweep: in the coordinator's cache pass and in the daemon's.
        The keys travel with the lease, and the task maps the keyed
        points it is given."""
        from repro.dse import cache as cache_module

        key = cache_module.cache_key
        calls = []

        def counting(*args):
            calls.append(args)
            return key(*args)

        for module in list(sys.modules.values()):
            if module.__name__.startswith("repro.") and \
                    getattr(module, "cache_key", None) is key:
                monkeypatch.setattr(module, "cache_key", counting)
        points = SPACE.grid()[:8]
        with ServiceThread(workers=2) as daemon:
            result = run_distributed_sweep(FIR5, points,
                                           remotes=url(daemon))
        assert result.stats.remote_records == len(points)
        assert canon(result.records) \
            == canon(local_result.records[:8])
        assert len(calls) <= 2 * len(points)

    def test_failure_records_travel_the_wire(self):
        # n_pps=0 fails at evaluation; the failure record must come
        # back from the daemon byte-identical (and stay uncached).
        space = DesignSpace({"n_pps": [0, 2]})
        expected = run_sweep(FIR5, space.grid(), workers=1)
        assert expected.stats.failed == 1
        with ServiceThread(workers=2) as daemon:
            result = run_distributed_sweep(
                FIR5, space.grid(), remotes=url(daemon),
                chunk_size=1)
        assert canon(result.records) == canon(expected.records)
        assert result.stats.failed == 1

    def test_chunk_size_validation(self):
        with pytest.raises(ValueError):
            run_distributed_sweep(FIR5, SPACE.grid()[:1],
                                  remotes="h:1", chunk_size=0)
        assert DEFAULT_CHUNK_SIZE >= 1

    def test_run_sweep_remotes_delegates(self, local_result):
        with ServiceThread(workers=2) as daemon:
            result = run_sweep(FIR5, SPACE.grid(),
                               remotes=url(daemon),
                               remote_chunk_size=4)
        assert isinstance(result.stats, DistributedSweepStats)
        assert canon(result.records) == canon(local_result.records)
        assert result.stats.chunks == 3


class TestResumableSweeps:
    def test_interrupted_progress_survives_in_the_cache(
            self, tmp_path, local_result):
        """What makes a re-run a resume: records a distributed sweep
        merged are in the cache even though the run never wrote a
        final batch — a second sweep over the same cache recomputes
        only what is missing."""
        with ServiceThread(workers=2) as daemon:
            first = run_distributed_sweep(
                FIR5, SPACE.grid()[:5], remotes=url(daemon),
                cache=tmp_path, chunk_size=2)
        assert first.stats.remote_records == 5
        # "Resume" with a wider request: the 5 finished points are
        # pure cache hits; only the 7 new ones are leased.
        with ServiceThread(workers=2) as daemon:
            resumed = run_distributed_sweep(
                FIR5, SPACE.grid(), remotes=url(daemon),
                cache=tmp_path, chunk_size=2)
        assert canon(resumed.records) == canon(local_result.records)
        assert resumed.stats.cached == 5
        assert resumed.stats.evaluated == resumed.stats.unique - 5
        assert resumed.stats.remote_records == resumed.stats.unique - 5


# -- the daemon's sweep-chunk endpoint ------------------------------------

class TestSweepChunkJobs:
    def test_chunk_job_returns_records_by_key(self):
        points = SPACE.grid()[:3]
        with ServiceThread(workers=2) as daemon:
            client = ServiceClient(*daemon.address)
            response = client.submit({
                "kind": "sweep-chunk", "source": FIR5,
                "points": [point.to_dict() for point in points]})
            payload = client.result(response["job"]["id"],
                                    timeout=60)
        assert payload["kind"] == "sweep-chunk"
        assert payload["points"] == 3
        expected = run_sweep(FIR5, points, workers=1)
        for point, record in zip(expected.points, expected.records):
            assert payload["records"][cache_key(FIR5, point)] \
                == record

    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_chunk_jobs_share_their_worker_frontend_memo(self, mode):
        """Two one-point chunks of one source and frontend spec on a
        one-worker daemon compile the frontend once: the second job
        finds it in the worker's memo."""
        with ServiceThread(workers=1, worker_mode=mode) as daemon:
            client = ServiceClient(*daemon.address)
            for point in SPACE.grid()[:2]:
                response = client.submit({
                    "kind": "sweep-chunk", "source": FIR5,
                    "points": [point.to_dict()]})
                client.result(response["job"]["id"], timeout=60)
            stats = client.stats()["service"]
        assert stats["computed"] == 2
        assert stats["frontends_compiled"] == 1
        assert stats["frontends_reused"] == 1

    def test_chunk_records_satisfy_map_jobs(self, tmp_path):
        """Chunk records land in the daemon's store under map keys:
        a later map job of a swept point is a pure store hit."""
        # The exact point a `pps=3` map request normalises to.
        point = DesignPoint.make({"n_pps": 3, "n_buses": 10})
        with ServiceThread(workers=2, store=tmp_path) as daemon:
            client = ServiceClient(*daemon.address)
            assert client.stats()["store"]["entries"] == 0
            response = client.submit({
                "kind": "sweep-chunk", "source": FIR5,
                "points": [point.to_dict()]})
            client.result(response["job"]["id"], timeout=60)
            computed = client.stats()["service"]["computed"]
            # The daemon admitted the chunk's record itself.
            assert client.stats()["store"]["entries"] == 1
            client.map_source(FIR5, pps=3)
            stats = client.stats()["service"]
        assert stats["computed"] == computed  # no extra backend run
        assert stats["store_hits"] == 1

    def test_identical_chunks_coalesce(self):
        """Two coordinators leasing the same in-flight chunk share
        one job (protocol keys + queue, deterministically)."""
        from repro.service.protocol import (
            coalesce_key,
            job_key,
            normalise_request,
        )
        from repro.service.queue import JobQueue

        raw = {"kind": "sweep-chunk", "source": FIR5,
               "points": [point.to_dict()
                          for point in SPACE.grid()[:2]]}
        queue = JobQueue()
        request = normalise_request(raw)
        job, coalesced = queue.submit(request, job_key(request),
                                      coalesce_key(request))
        assert not coalesced
        again = normalise_request(dict(raw))  # a second coordinator
        shared, coalesced = queue.submit(again, job_key(again),
                                         coalesce_key(again))
        assert coalesced and shared is job and job.submits == 2
        # A verifying coordinator never shares an unverified run.
        verifying = normalise_request({**raw, "verify_seed": 3})
        other, coalesced = queue.submit(
            verifying, job_key(verifying), coalesce_key(verifying))
        assert not coalesced and other is not job


class TestDaemonStore:
    """The daemon's own store handle is the only one the service opens
    on its store: it does each chunk's cache pass and admits the
    fresh records, so ``/stats`` is exact without walking the store
    directory."""

    @staticmethod
    def _chunk(points) -> dict:
        return {"kind": "sweep-chunk", "source": FIR5,
                "points": [point.to_dict() for point in points]}

    def test_chunk_records_are_admitted_by_the_daemon(
            self, tmp_path, monkeypatch):
        from repro.dse import cache as cache_module

        opened = []
        real_init = cache_module.ResultCache.__init__

        def counting_init(cache, root, **bounds):
            opened.append(root)
            real_init(cache, root, **bounds)

        monkeypatch.setattr(cache_module.ResultCache, "__init__",
                            counting_init)
        store = tmp_path / "store"
        with ServiceThread(workers=2, worker_mode="thread",
                           store=store) as daemon:
            client = ServiceClient(*daemon.address)
            first = client.result(client.submit(
                self._chunk(SPACE.grid()[:2]))["job"]["id"], timeout=60)
            assert first["stats"]["evaluated"] == 2
            # Overlapping points are store reads in the daemon.
            second = client.result(client.submit(
                self._chunk(SPACE.grid()[1:4]))["job"]["id"], timeout=60)
            assert second["points"] == 3
            assert second["stats"] == {"cached": 1, "evaluated": 2,
                                       "failed": 0}
            stats = client.stats()["store"]
        assert opened == [store]
        keys = {cache_key(FIR5, point) for point in SPACE.grid()[:4]}
        assert {path.stem for path in store.glob("??/*.json")} == keys
        assert stats["entries"] == 4
        assert stats["bytes"] == sum(
            store.joinpath(key[:2], f"{key}.json").stat().st_size
            for key in keys)

    def test_all_stored_chunk_runs_no_pool_task(self, tmp_path):
        points = SPACE.grid()[:3]
        store = tmp_path / "store"
        warm = run_sweep(FIR5, points, workers=1, cache=store)
        with ServiceThread(workers=2, store=store) as daemon:
            client = ServiceClient(*daemon.address)
            job_id = client.submit(self._chunk(points))["job"]["id"]
            payload = client.result(job_id, timeout=60)
            meta = client.job(job_id)["meta"]
        assert payload["stats"] == {"cached": 3, "evaluated": 0,
                                    "failed": 0}
        assert payload["records"] == {
            cache_key(FIR5, point): record
            for point, record in zip(points, warm.records)}
        assert meta["cache"] == "chunk"
        assert meta["worker"] is None

    @pytest.mark.parametrize("max_entries", [None, 8],
                             ids=["unbounded", "entry-bounded"])
    def test_daemon_stats_never_walk_the_store(
            self, tmp_path, monkeypatch, max_entries):
        """A daemon scans its store once, at start, and then answers
        ``/stats`` across chunk jobs without another scan of the
        store directory — bounded or not, since its own puts enforce
        the bound — and its entries and bytes still equal a walk of
        it."""
        from repro.dse import cache as cache_module

        scans = []
        real_scan = cache_module._scan

        def counting_scan(root):
            scans.append(root)
            return real_scan(root)

        monkeypatch.setattr(cache_module, "_scan", counting_scan)
        store = tmp_path / "store"
        run_sweep(FIR5, SPACE.grid()[:2], workers=1, cache=store)
        with ServiceThread(workers=2, worker_mode="thread",
                           store=store,
                           store_max_entries=max_entries) as daemon:
            client = ServiceClient(*daemon.address)
            assert client.stats()["store"]["entries"] == 2
            assert len(scans) == 1
            run_distributed_sweep(FIR5, SPACE.grid(),
                                  remotes=url(daemon), chunk_size=4)
            stats = client.stats()["store"]
            assert len(scans) == 1
        files = list(store.glob("??/*.json"))
        assert stats["entries"] == len(files) \
            == min(SPACE.size, max_entries or SPACE.size)
        assert stats["evictions"] == SPACE.size - len(files)
        assert stats["bytes"] == sum(path.stat().st_size
                                     for path in files)


# -- the daemon's store -------------------------------------------------

class TestPeering:
    """``peer_records``: records the daemon's store served without
    computing them."""

    def test_prewarmed_peer_short_circuits_compute(
            self, tmp_path, local_result):
        """The daemon's store already holds a subset of the sweep:
        the chunks covering it are store reads there, counted in
        ``peer_records`` — and the merged result is still
        bit-identical to a local run."""
        warm_points = SPACE.grid()[:5]
        store = tmp_path / "store"
        run_sweep(FIR5, warm_points, workers=1, cache=store)

        events = []
        with ServiceThread(workers=2, store=store) as daemon:
            result = run_distributed_sweep(
                FIR5, SPACE.grid(), remotes=url(daemon),
                chunk_size=3, progress=events.append)
            entries = ServiceClient(*daemon.address) \
                .stats()["store"]["entries"]
        assert canon(result.records) == canon(local_result.records)
        stats = result.stats
        assert stats.peer_records == len(warm_points) == 5
        assert stats.remote_records == stats.unique
        assert stats.chunks == stats.leases == 4
        assert entries == stats.unique  # 7 computed, 5 served
        chunk_events = [event for event in events
                        if event["event"] == "chunk"]
        assert sorted(event["done"] for event in chunk_events) \
            == [1, 2, 3, 4]
        assert "(5 store-hit)" in stats.summary()

    def test_peer_records_reach_the_local_cache(self, tmp_path):
        """Store-served records take the same write-back path as
        computed ones: they land in the coordinator's local cache
        bit-identically."""
        points = SPACE.grid()[:4]
        store = tmp_path / "store"
        warmed = run_sweep(FIR5, points, workers=1, cache=store)
        local = tmp_path / "local"
        with ServiceThread(workers=2, store=store) as daemon:
            result = run_distributed_sweep(
                FIR5, points, remotes=url(daemon), cache=local)
        assert canon(result.records) == canon(warmed.records)
        assert result.stats.peer_records == 4
        assert result.stats.leases == 1
        # Every served record landed in the local cache, equal to
        # the daemon's copy — a warm re-run reads, never computes.
        local_cache = ResultCache(local)
        store_cache = ResultCache(store)
        for point in points:
            key = cache_key(FIR5, point)
            assert local_cache.get(key) == store_cache.get(key)
        rerun = run_sweep(FIR5, points, cache=local)
        assert rerun.stats.cached == 4 and rerun.stats.evaluated == 0

    def test_verifying_sweep_ignores_unverified_peer_records(
            self, tmp_path):
        """The verification rule on the chunk path: a daemon store
        full of unverified records serves none of them to a
        verifying sweep — each point is re-mapped, verified, and
        replaces the stale entry in the daemon's store."""
        points = SPACE.grid()[:3]
        store = tmp_path / "store"
        run_sweep(FIR5, points, workers=1, cache=store)  # unverified
        with ServiceThread(workers=2, store=store) as daemon:
            result = run_distributed_sweep(
                FIR5, points, remotes=url(daemon), verify_seed=3)
        assert result.stats.peer_records == 0
        assert result.stats.remote_records == 3
        assert all(record["verified"] for record in result.records)
        expected = run_sweep(FIR5, points, workers=1, verify_seed=3)
        assert canon(result.records) == canon(expected.records)
        stored = ResultCache(store)
        assert all(stored.get(cache_key(FIR5, point))["verified"]
                   for point in points)
