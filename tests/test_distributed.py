"""Tests for the distributed sweep coordinator (repro.dse.distributed)
and the service's sweep-chunk job kind end to end.

The in-process :class:`ServiceThread` daemons used here change
latency, never results — the acceptance-shaped check against *real*
daemon subprocesses (including a mid-sweep kill) lives in
``tests/test_fleet.py``.
"""

import json
import threading

import pytest

from repro.dse.cache import ResultCache, cache_key
from repro.dse.distributed import (
    DEFAULT_CHUNK_SIZE,
    DistributedError,
    DistributedSweepStats,
    parse_remote,
    parse_remotes,
    run_distributed_sweep,
)
from repro.dse.runner import evaluate_chunk, run_sweep
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


# -- fleet spec parsing ---------------------------------------------------

class TestParseRemotes:
    def test_forms(self):
        from repro.service.protocol import DEFAULT_PORT
        assert parse_remote("http://host:81") == ("host", 81)
        assert parse_remote("host:81") == ("host", 81)
        assert parse_remote("host") == ("host", DEFAULT_PORT)
        assert parse_remote(" http://10.0.0.2:9000 ") \
            == ("10.0.0.2", 9000)

    def test_lists_split_and_dedupe(self):
        fleet = parse_remotes(["a:1,b:2", "b:2", " ", "c:3"])
        assert fleet == [("a", 1), ("b", 2), ("c", 3)]
        assert parse_remotes("a:1,b:2") == [("a", 1), ("b", 2)]

    def test_parsed_pairs_pass_through(self):
        fleet = parse_remotes([("a", 1), "b:2", ("a", 1)])
        assert fleet == [("a", 1), ("b", 2)]
        with pytest.raises(DistributedError):
            parse_remotes([("a", 1, "extra")])

    @pytest.mark.parametrize("spec", ["", "https://host:1",
                                      "host:notaport", "http://"])
    def test_junk_is_rejected(self, spec):
        with pytest.raises(DistributedError):
            parse_remote(spec)


# -- evaluate_chunk (the daemon-side entry) -------------------------------

class TestEvaluateChunk:
    def test_records_keyed_by_cache_key(self):
        points = SPACE.grid()[:3]
        records, stats = evaluate_chunk(FIR5, points)
        assert set(records) == {cache_key(FIR5, point)
                                for point in points}
        assert stats.evaluated == 3
        expected = run_sweep(FIR5, points, workers=1)
        for point, record in zip(expected.points, expected.records):
            assert records[cache_key(FIR5, point)] == record

    def test_chunk_uses_the_store(self, tmp_path):
        points = SPACE.grid()[:2]
        first, stats = evaluate_chunk(FIR5, points, cache=tmp_path)
        again, warm = evaluate_chunk(FIR5, points, cache=tmp_path)
        assert canon(first) == canon(again)
        assert warm.cached == 2 and warm.evaluated == 0


# -- the coordinator ------------------------------------------------------

class TestDistributedSweep:
    def test_bit_identical_to_local_run_sweep(self, local_result):
        with ServiceThread(workers=2) as a, \
                ServiceThread(workers=2) as b:
            result = run_distributed_sweep(
                FIR5, SPACE.grid(), remotes=[url(a), url(b)],
                chunk_size=3)
        assert canon(result.records) == canon(local_result.records)
        stats = result.stats
        assert isinstance(stats, DistributedSweepStats)
        assert stats.daemons == 2 and stats.lost_daemons == 0
        assert stats.remote_records == stats.unique
        assert stats.local_records == 0
        assert stats.chunks == -(-len(SPACE.grid()) // 3)
        assert "fleet: 2 daemon(s)" in stats.summary()

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
            FIR5, SPACE.grid(),
            remotes=["127.0.0.1:1", "127.0.0.1:2"],
            chunk_size=4, timeout=5)
        assert canon(result.records) == canon(local_result.records)
        stats = result.stats
        assert stats.lost_daemons == 2 and stats.leases == 0
        assert stats.local_records == stats.unique

    def test_daemon_killed_mid_sweep_completes_identically(
            self, local_result):
        a = ServiceThread(workers=2)
        b = ServiceThread(workers=2)
        a.start()
        b.start()
        killed = threading.Event()

        def progress(event):
            # Kill daemon A the moment the first chunk lands; its
            # in-flight leases fail and their chunks are stolen.
            if event["event"] == "chunk" and not killed.is_set():
                killed.set()
                a.stop(timeout=10)

        try:
            result = run_distributed_sweep(
                FIR5, SPACE.grid(), remotes=[url(a), url(b)],
                chunk_size=2, timeout=15, progress=progress)
        finally:
            a.stop()
            b.stop()
        assert killed.is_set()
        assert canon(result.records) == canon(local_result.records)

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
                                  remotes=["h:1"], chunk_size=0)
        assert DEFAULT_CHUNK_SIZE >= 1

    def test_run_sweep_remotes_delegates(self, local_result):
        with ServiceThread(workers=2) as daemon:
            result = run_sweep(FIR5, SPACE.grid(),
                               remotes=[url(daemon)],
                               remote_chunk_size=4)
        assert isinstance(result.stats, DistributedSweepStats)
        assert canon(result.records) == canon(local_result.records)


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
            # The chunk's record is visible in /stats even though the
            # worker wrote it through its own cache handle.
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


# -- cache peering --------------------------------------------------------

class TestPeering:
    def test_prewarmed_peer_short_circuits_compute(
            self, tmp_path, local_result):
        """The peering acceptance: daemon A's store already holds a
        subset of the sweep; the coordinator fetches those records
        from A instead of leasing them, so the daemons' computed
        counters cover only the remainder — and the merged result is
        still bit-identical to a local run."""
        warm_points = SPACE.grid()[:5]
        warm_keys = {cache_key(FIR5, point) for point in warm_points}
        store_a = tmp_path / "store-a"
        run_sweep(FIR5, warm_points, workers=1, cache=store_a)

        events = []
        with ServiceThread(workers=2, store=store_a) as a, \
                ServiceThread(workers=2,
                              store=tmp_path / "store-b") as b:
            result = run_distributed_sweep(
                FIR5, SPACE.grid(), remotes=[url(a), url(b)],
                chunk_size=3, progress=events.append)
            computed = sum(
                ServiceClient(*thread.address)
                .stats()["service"]["computed"]
                for thread in (a, b))
        assert canon(result.records) == canon(local_result.records)

        stats = result.stats
        assert stats.peer_records == len(warm_keys) == 5
        # Only the 7 cold points were chunked; the daemons' computed
        # counters (jobs dispatched to workers) cover exactly those
        # chunks — nothing was leased for the warm subset.
        assert stats.chunks == -(-(stats.unique - 5) // 3) == 3
        assert computed == stats.chunks
        # Per-peer ledger: A served the warm subset, B served none.
        ledger_a = stats.peers[url(a)]
        ledger_b = stats.peers[url(b)]
        assert ledger_a["hits"] == 5
        assert ledger_b["hits"] == 0
        assert ledger_a["hits"] + ledger_a["misses"] == stats.unique
        peer_events = [event for event in events
                       if event.get("event") == "peer"]
        assert sum(event["records"]
                   for event in peer_events) == 5
        assert stats.summary().count("peer-fetched") == 1

    def test_peer_records_reach_the_local_cache(self, tmp_path):
        """Peer-fetched records take the same write-back path as
        leased ones: they land in the coordinator's local cache
        bit-identically."""
        points = SPACE.grid()[:4]
        store_a = tmp_path / "store-a"
        warmed = run_sweep(FIR5, points, workers=1, cache=store_a)
        local = tmp_path / "local"
        with ServiceThread(workers=2, store=store_a) as daemon:
            result = run_distributed_sweep(
                FIR5, points, remotes=url(daemon), cache=local)
        assert canon(result.records) == canon(warmed.records)
        assert result.stats.peer_records == 4
        assert result.stats.leases == 0
        # Every fetched record landed in the local cache, equal to
        # the peer's copy — a warm re-run reads, never computes.
        local_cache = ResultCache(local)
        peer_cache = ResultCache(store_a)
        for point in points:
            key = cache_key(FIR5, point)
            assert local_cache.get(key) == peer_cache.get(key)
        rerun = run_sweep(FIR5, points, cache=local)
        assert rerun.stats.cached == 4 and rerun.stats.evaluated == 0

    def test_unreachable_peer_never_blocks_the_sweep(
            self, tmp_path, local_result):
        """A dead address in the fleet costs the peering pass
        nothing but a ledger entry — the live daemon carries the
        sweep and results stay identical."""
        with ServiceThread(workers=2,
                           store=tmp_path / "store") as daemon:
            result = run_distributed_sweep(
                FIR5, SPACE.grid(),
                remotes=[url(daemon), "127.0.0.1:1"],
                chunk_size=4)
        assert canon(result.records) == canon(local_result.records)
        assert result.stats.peer_records == 0
        assert result.stats.daemons == 2
        assert result.stats.lost_daemons == 1

    def test_verifying_sweep_ignores_unverified_peer_records(
            self, tmp_path):
        """Peering honours the verification rule end to end: a peer
        full of unverified records contributes nothing to a
        verifying sweep."""
        points = SPACE.grid()[:3]
        store_a = tmp_path / "store-a"
        run_sweep(FIR5, points, workers=1, cache=store_a)  # unverified
        with ServiceThread(workers=2, store=store_a) as daemon:
            result = run_distributed_sweep(
                FIR5, points, remotes=url(daemon), verify_seed=3)
        assert result.stats.peer_records == 0
        assert all(record["verified"] for record in result.records)
