"""Tests for the observability layer (repro.obs) end to end.

Three rings, inside out:

* the tracer in isolation;
* the daemon's ``/stats`` counts and uptime fields;
* the NDJSON job event stream contract (ordering, terminal replay,
  mid-stream disconnect).

Throughout, the layer's core invariant is pinned: **observation
never mutates** — artifacts are bit-identical with tracing on.
"""

import http.client
import json
import threading
import time
from contextlib import contextmanager

import pytest

from repro.cli import main
from repro.dse.runner import run_sweep
from repro.dse.space import DesignSpace
from repro.eval.kernels import get_kernel
from repro.obs import trace
from repro.obs.export import rollup
from repro.obs.trace import Tracer, scoped_tracing
from repro.service import ServiceClient, ServiceThread
from repro.service.client import ServiceError
from tests.conftest import FIR_SOURCE

FIR5 = get_kernel("fir5").source


def canon(payload):
    return json.dumps(payload, sort_keys=True)


def url(thread):
    return f"{thread.address[0]}:{thread.address[1]}"


@pytest.fixture
def daemon(tmp_path):
    with ServiceThread(store=tmp_path / "store", workers=2) as thread:
        yield thread


@pytest.fixture
def client(daemon):
    return ServiceClient(*daemon.address)


# -- tracer ---------------------------------------------------------------

def entries_of(tracer: Tracer) -> list:
    """The list *tracer*'s finished entries will collect in."""
    entries: list = []
    tracer.add_sink(entries.append)
    return entries


@contextmanager
def listening(tracer: Tracer):
    """Collect *tracer*'s finished entries in a list for the body
    only: the module tracer must not keep a test's sink."""
    entries = entries_of(tracer)
    try:
        yield entries
    finally:
        tracer.remove_sink(entries.append)


class TestTracer:
    def test_disabled_records_nothing_and_allocates_nothing(self):
        tracer = Tracer(enabled=False)
        entries = entries_of(tracer)
        first = tracer.span("a", big=list(range(100)))
        second = tracer.span("b")
        assert first is second  # the shared no-op singleton
        with first as span:
            span.note(late=1)
        tracer.event("e", x=1)
        assert entries == []
        assert not tracer.enabled

    def test_rollups_and_nesting_depth(self):
        tracer = Tracer(enabled=True)
        entries = entries_of(tracer)
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
            with tracer.span("inner"):
                pass
        spans = rollup(entries)
        assert spans["outer"]["count"] == 1
        inner = spans["inner"]
        assert inner["count"] == 2
        assert 0 <= inner["min"] <= inner["max"] <= inner["total"]
        depths = {entry["name"]: entry["depth"]
                  for entry in entries}
        assert depths == {"outer": 0, "inner": 1}
        # Inner spans finish (and reach the sinks) before outer.
        assert [e["name"] for e in entries] \
            == ["inner", "inner", "outer"]

    def test_note_and_error_attrs_reach_the_ring(self):
        tracer = Tracer(enabled=True)
        entries = entries_of(tracer)
        with tracer.span("work", points=4) as span:
            span.note(cached=1)
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("no")
        events = {entry["name"]: entry for entry in entries}
        assert events["work"]["points"] == 4
        assert events["work"]["cached"] == 1
        assert events["boom"]["error"] == "RuntimeError"
        # The failed span still rolled up.
        assert rollup(entries)["boom"]["count"] == 1

    def test_scoped_tracing_restores_disabled_state(self):
        assert not trace.enabled()
        with scoped_tracing() as tracer:
            assert trace.enabled()
            assert tracer is trace.TRACER
        assert not trace.enabled()

    def test_threads_keep_independent_depth(self):
        tracer = Tracer(enabled=True)
        entries = entries_of(tracer)
        barrier = threading.Barrier(2)

        def worker():
            with tracer.span("t-outer"):
                barrier.wait(timeout=10)
                with tracer.span("t-inner"):
                    pass

        threads = [threading.Thread(target=worker) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        depths = {(e["name"], e["depth"])
                  for e in entries}
        assert depths == {("t-outer", 0), ("t-inner", 1)}


# -- the daemon's /stats counts and uptime -------------------------------

class TestServiceMetricsEndpoint:
    def test_exposition_is_valid_and_consistent_with_stats(
            self, tmp_path, monkeypatch):
        """A scripted run (map, coalesced duplicate, store hit,
        failure) lands in ``/stats`` as exact integer counts.  The
        chunk's twelve points and the map share one frontend: one
        miss and twelve hits in the worker's memo (the failed map's
        tile is unrealisable, so it looks up no frontend)."""
        from repro.service import daemon as daemon_module

        release = threading.Event()
        run_chunk_job = daemon_module.run_chunk_job

        def held_chunk_job(*args):
            release.wait(timeout=60)
            return run_chunk_job(*args)

        monkeypatch.setattr(daemon_module, "run_chunk_job",
                            held_chunk_job)
        request = {"kind": "map", "source": FIR_SOURCE, "file": "a.c",
                   "pps": 5, "buses": 3}
        chunk = {"kind": "sweep-chunk", "source": FIR_SOURCE,
                 "points": [point.to_dict() for point in DesignSpace(
                     {"n_pps": [1, 2, 3],
                      "n_buses": [2, 4, 6, 8]}).grid()]}
        with ServiceThread(store=tmp_path / "store",
                           workers=1) as daemon:
            client = ServiceClient(*daemon.address)
            # The chunk is held on the one worker, so the map is still
            # queued when its duplicate arrives and coalesces.
            busy = client.submit(chunk)["job"]["id"]
            try:
                first = client.submit(request)["job"]["id"]
                assert client.submit(request)["coalesced"]
            finally:
                release.set()
            client.result(busy)
            client.result(first)
            hit = client.submit(request)["job"]
            assert hit["state"] == "done"  # store hit
            failed = client.submit({"kind": "map",
                                    "source": FIR_SOURCE, "pps": 0})
            with pytest.raises(ServiceError):
                client.result(failed["job"]["id"])
            stats = client.stats()

        service = stats["service"]
        assert service == {
            "submits": 5, "coalesced": 1, "store_hits": 1,
            "computed": 3, "failed": 1, "frontends_compiled": 1,
            "frontends_reused": 12}
        assert all(type(value) is int for value in service.values())
        assert stats["queue"]["coalesced"] == service["coalesced"]
        assert stats["queue"]["states"] == {"done": 3, "failed": 1}

    def test_stats_and_healthz_carry_monotonic_uptime(self, client):
        before = time.time()
        stats = client.stats()
        health = client.health()
        assert 0 <= stats["uptime"] < 300
        assert stats["started_at"] <= before
        assert stats["started_at"] == pytest.approx(before, abs=300)
        assert health["uptime"] >= 0
        assert health["started_at"] == stats["started_at"]
        # Uptime advances between scrapes.
        time.sleep(0.02)
        assert client.stats()["uptime"] > stats["uptime"]

    def test_failed_job_lands_in_failure_families(self, client):
        response = client.submit({"kind": "map",
                                  "source": FIR_SOURCE, "pps": 0})
        with pytest.raises(Exception):
            client.result(response["job"]["id"])
        stats = client.stats()
        assert stats["service"]["failed"] == 1
        assert stats["queue"]["states"] == {"failed": 1}


# -- NDJSON job event stream contract -------------------------------------

class TestJobEventStream:
    def test_events_are_seq_ordered_with_terminal_last(self, client):
        response = client.submit({"kind": "map",
                                  "source": FIR_SOURCE})
        events = list(client.events(response["job"]["id"]))
        seqs = [event["seq"] for event in events]
        assert seqs == sorted(seqs)
        assert len(seqs) == len(set(seqs))
        assert events[0]["event"] == "queued"
        assert events[-1]["event"] == "done"

    def test_terminal_job_replays_whole_lifecycle_and_closes(
            self, client):
        response = client.submit({"kind": "map",
                                  "source": FIR_SOURCE})
        client.result(response["job"]["id"])  # finish first
        started = time.monotonic()
        events = [e["event"]
                  for e in client.events(response["job"]["id"])]
        assert time.monotonic() - started < 10  # replay, no hang
        assert events[0] == "queued"
        assert "running" in events
        assert events[-1] == "done"

    def test_failed_job_stream_ends_with_failed(self, client):
        response = client.submit({"kind": "map",
                                  "source": FIR_SOURCE, "pps": 0})
        events = list(client.events(response["job"]["id"]))
        assert events[-1]["event"] == "failed"
        assert "error" in events[-1]

    def test_mid_stream_disconnect_leaves_daemon_healthy(
            self, daemon, client):
        response = client.submit({"kind": "map",
                                  "source": FIR_SOURCE})
        job_id = response["job"]["id"]
        host, port = daemon.address
        connection = http.client.HTTPConnection(host, port,
                                                timeout=10)
        connection.request("GET", f"/jobs/{job_id}/events")
        stream = connection.getresponse()
        first = stream.readline()
        assert json.loads(first)["event"] == "queued"
        connection.close()  # hang up mid-stream

        # The daemon shrugs: the job still completes, the API still
        # answers, and a fresh stream replays everything.
        payload = client.result(job_id)
        assert payload["metrics"]["cycles"] > 0
        assert client.health()["ok"] is True
        events = [e["event"] for e in client.events(job_id)]
        assert events[-1] == "done"


# -- observation never mutates --------------------------------------------

class TestTracingBitIdentity:
    def test_map_artifacts_identical_with_tracing_enabled(
            self, tmp_path, capsys):
        source_path = tmp_path / "fir.c"
        source_path.write_text(FIR_SOURCE)
        plain_path = tmp_path / "plain.json"
        traced_path = tmp_path / "traced.json"

        assert main(["map", str(source_path), "--json",
                     str(plain_path)]) == 0
        with scoped_tracing() as tracer, listening(tracer) as entries:
            assert main(["map", str(source_path), "--json",
                         str(traced_path)]) == 0
        spans = rollup(entries)
        capsys.readouterr()

        assert canon(json.loads(plain_path.read_text())) \
            == canon(json.loads(traced_path.read_text()))
        # ... and the pipeline stages actually traced.
        for name in ("pipeline.parse", "pipeline.taskgraph",
                     "pipeline.schedule", "pipeline.allocate"):
            assert name in spans, name

    def test_sweep_records_identical_with_tracing_enabled(self):
        points = list(DesignSpace({"n_pps": [1, 2],
                                   "n_buses": [10]}).grid())
        plain = run_sweep(FIR5, points, workers=1)
        with scoped_tracing() as tracer, listening(tracer) as entries:
            traced = run_sweep(FIR5, points, workers=1)
        spans = rollup(entries)
        assert canon(plain.records) == canon(traced.records)
        assert spans["dse.sweep"]["count"] == 1
        assert spans["dse.point"]["count"] == 2


# -- explore --json surfaces the distribution ledger ----------------------

class TestExploreJsonStats:
    def test_local_run_keeps_plain_sweep_stats(self, tmp_path,
                                               capsys):
        json_path = tmp_path / "sweep.json"
        source_path = tmp_path / "fir.c"
        source_path.write_text(FIR_SOURCE)
        assert main(["explore", str(source_path), "--pps", "1,2",
                     "--workers", "1", "--json",
                     str(json_path)]) == 0
        capsys.readouterr()
        stats = json.loads(json_path.read_text())["stats"]
        assert stats["total"] == 2
        assert "leases" not in stats  # no fleet, no ledger

    def test_remote_run_surfaces_distributed_stats(self, daemon,
                                                   tmp_path,
                                                   capsys):
        json_path = tmp_path / "sweep.json"
        source_path = tmp_path / "fir5.c"
        source_path.write_text(FIR5)
        assert main(["explore", str(source_path),
                     "--sweep", "n_pps=1,2,3", "--workers", "1",
                     "--remote", url(daemon), "--chunk-size", "2",
                     "--json", str(json_path)]) == 0
        capsys.readouterr()
        stats = json.loads(json_path.read_text())["stats"]
        assert stats["total"] == 3
        assert stats["chunks"] == 2
        assert stats["leases"] == stats["chunks"]
        assert stats["remote_records"] == 3
        assert stats["stolen"] == 0
        assert stats["local_records"] == 0
