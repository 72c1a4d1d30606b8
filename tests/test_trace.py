"""Distributed tracing: ids, propagation, recorder, critical path.

Covers the PR 9 tentpole end to end at unit scale (the 2-daemon
cross-*process* stitch runs in ``tests/test_fleet.py``):

* span/trace id generation and per-thread parent linkage;
* ``attach``/``capture``/``adopt``/``record_span`` — the plumbing a
  trace context rides from coordinator to daemon to worker and back;
* the wire shape: the optional ``trace`` field on normalised
  requests, excluded from job identity by construction;
* the flight recorder (NDJSON log), the Chrome ``trace_event``
  export and the critical-path attribution;
* the PR 6 invariants under the new machinery: zero-cost disabled
  path, bounded capture, ``scoped_tracing`` restore on raise.

The call-site audit (``trace.event`` calls that build attribute
dicts must sit under a ``trace.enabled()`` guard)
moved to fpfa-lint as FPL003 and now covers every linted file.
"""

from __future__ import annotations

import json
import os
import threading

import pytest

from repro.obs import trace
from repro.obs.critical import critical_path, render_critical
from repro.obs.export import (
    TRACE_LOG_NAME,
    FlightRecorder,
    load_trace,
    recording,
    rollup,
    to_chrome_trace,
)


class ListeningTracer(trace.Tracer):
    """A tracer whose finished entries collect in ``entries``."""

    def __init__(self, enabled: bool = True):
        super().__init__(enabled=enabled)
        self.entries: list[dict] = []
        self.add_sink(self.entries.append)


@pytest.fixture
def tracer():
    """A private enabled tracer — never the module default."""
    return ListeningTracer()


# ---------------------------------------------------------------------------
# Identifiers and parent linkage
# ---------------------------------------------------------------------------

class TestSpanIdentity:
    def test_nested_spans_link_parent_ids(self, tracer):
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        inner, outer = tracer.entries[0], tracer.entries[1]
        assert {inner["name"], outer["name"]} == {"inner", "outer"}
        inner = next(e for e in tracer.entries
                     if e["name"] == "inner")
        outer = next(e for e in tracer.entries
                     if e["name"] == "outer")
        assert inner["trace"] == outer["trace"]
        assert inner["parent"] == outer["span"]
        assert outer["parent"] is None

    def test_id_shapes_are_w3c_sized_hex(self, tracer):
        with tracer.span("x"):
            pass
        entry = tracer.entries[0]
        assert len(entry["trace"]) == 32
        assert len(entry["span"]) == 16
        int(entry["trace"], 16)
        int(entry["span"], 16)

    def test_sibling_roots_get_distinct_traces(self, tracer):
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        first, second = tracer.entries
        assert first["trace"] != second["trace"]
        assert first["span"] != second["span"]

    def test_disabled_span_is_shared_noop(self):
        idle = ListeningTracer(enabled=False)
        assert idle.span("a") is idle.span("b")
        with idle.span("a"):
            pass
        assert idle.entries == []


class TestAttach:
    def test_attached_context_parents_root_spans(self, tracer):
        ctx = {"trace": "ab" * 16, "span": "cd" * 8}
        with tracer.attach(ctx):
            with tracer.span("child"):
                pass
        entry = tracer.entries[0]
        assert entry["trace"] == ctx["trace"]
        assert entry["parent"] == ctx["span"]

    def test_attach_restores_prior_context(self, tracer):
        outer = {"trace": "aa" * 16, "span": "bb" * 8}
        inner = {"trace": "cc" * 16, "span": "dd" * 8}
        with tracer.attach(outer):
            with tracer.attach(inner):
                assert tracer.context() == inner
            assert tracer.context() == outer
        assert tracer.context() is None

    def test_malformed_or_absent_context_is_noop(self, tracer):
        assert tracer.attach(None) is tracer.attach(None)
        for bad in ({}, {"trace": 1, "span": "x"}, {"trace": "t"},
                    "not-a-dict"):
            with tracer.attach(bad):
                with tracer.span("orphan"):
                    pass
            assert tracer.entries[-1]["parent"] is None

    def test_context_inside_span_names_that_span(self, tracer):
        assert tracer.context() is None
        with tracer.span("s"):
            ctx = tracer.context()
        entry = tracer.entries[0]
        assert ctx == {"trace": entry["trace"],
                       "span": entry["span"]}


class TestCaptureAdopt:
    def test_capture_collects_only_this_thread(self, tracer):
        with tracer.capture() as spans:
            with tracer.span("mine"):
                pass
            other = threading.Thread(
                target=lambda: tracer.span("theirs").__enter__()
                .__exit__(None, None, None))
            other.start()
            other.join()
        assert [e["name"] for e in spans.entries] == ["mine"]

    def test_a_bound_method_sink_can_be_removed(self):
        """``entries.append`` is a new object at every access; the
        sink it registered must still come off."""
        tracer = trace.Tracer(enabled=True)
        entries: list[dict] = []
        tracer.add_sink(entries.append)
        tracer.remove_sink(entries.append)
        with tracer.span("after"):
            pass
        assert entries == []

    def test_capture_inert_while_disabled(self):
        idle = trace.Tracer(enabled=False)
        with idle.capture() as spans:
            with idle.span("x"):
                pass
        assert spans.entries == []

    def test_adopt_folds_entries_and_rollups(self, tracer):
        worker = trace.Tracer(enabled=True)
        with worker.capture() as spans:
            with worker.span("worker.chunk", points=3):
                pass
        adopted = tracer.adopt(
            [dict(entry, pid=12345) for entry in spans.entries])
        assert adopted == 1
        entry = tracer.entries[0]
        assert entry["name"] == "worker.chunk"
        assert entry["pid"] == 12345
        assert entry["parent"] == spans.entries[0]["parent"]

    def test_capture_stamps_this_process_pid(self, tracer):
        with tracer.capture() as spans:
            with tracer.span("x"):
                pass
        assert [entry["pid"] for entry in spans.entries] \
            == [os.getpid()]
        assert "pid" not in tracer.entries[0]

    def test_adopt_skips_entries_of_this_process(self, tracer):
        """An entry stamped with the receiver's own pid reached its
        sinks when it finished; adopting it again would log it
        twice."""
        own = {"kind": "span", "name": "mine", "pid": os.getpid()}
        foreign = {"kind": "span", "name": "theirs", "pid": 1}
        assert tracer.adopt([own, foreign]) == 1
        assert [entry["name"] for entry in tracer.entries] == ["theirs"]

    def test_adopt_noop_when_disabled_or_junk(self, tracer):
        idle = trace.Tracer(enabled=False)
        assert idle.adopt([{"name": "x", "kind": "span"}]) == 0
        assert tracer.adopt([None, "junk", {"kind": "span"}]) == 0


class TestRecordSpan:
    def test_record_span_parents_to_given_context(self, tracer):
        ctx = {"trace": "ee" * 16, "span": "ff" * 8}
        tracer.record_span("queue.wait", 0.25, context=ctx, job="j1")
        entry = tracer.entries[0]
        assert entry["trace"] == ctx["trace"]
        assert entry["parent"] == ctx["span"]
        assert entry["duration"] == 0.25
        assert entry["job"] == "j1"

    def test_record_span_returns_its_entry(self, tracer):
        entry = tracer.record_span("queue.wait", 0.5)
        assert entry is tracer.entries[0]
        assert ListeningTracer(enabled=False).record_span(
            "queue.wait", 0.5) is None

    def test_record_span_falls_back_to_current_span(self, tracer):
        with tracer.span("holder"):
            tracer.record_span("queue.wait", 0.1)
        wait = next(e for e in tracer.entries
                    if e["name"] == "queue.wait")
        holder = next(e for e in tracer.entries
                      if e["name"] == "holder")
        assert wait["parent"] == holder["span"]
        assert wait["trace"] == holder["trace"]

    def test_negative_duration_clamps_to_zero(self, tracer):
        tracer.record_span("queue.wait", -1.0)
        assert tracer.entries[0]["duration"] == 0.0

    def test_attrs_cannot_shadow_reserved_fields(self, tracer):
        tracer.record_span("queue.wait", 0.5, kind="sweep-chunk",
                           trace="bogus")
        tracer.event("queue.queued", kind="map", at=0.0)
        span_entry, event_entry = tracer.entries
        assert span_entry["kind"] == "span"
        assert span_entry["duration"] == 0.5
        assert span_entry["trace"] != "bogus"
        assert event_entry["kind"] == "event"
        assert event_entry["at"] != 0.0


# ---------------------------------------------------------------------------
# Wire shape: protocol passthrough, queue stamping
# ---------------------------------------------------------------------------

class TestProtocolTraceField:
    def test_trace_field_passes_through_normalisation(self):
        from repro.service.protocol import normalise_map_request
        ctx = {"trace": "ab" * 16, "span": "cd" * 8}
        request = normalise_map_request(
            {"kind": "map", "source": "void main() { x = 1; }",
             "trace": ctx})
        assert request["trace"] == ctx

    def test_trace_field_defaults_to_none(self):
        from repro.service.protocol import normalise_map_request
        request = normalise_map_request(
            {"kind": "map", "source": "void main() { x = 1; }"})
        assert request["trace"] is None

    def test_trace_field_never_enters_job_identity(self):
        from repro.service.protocol import (
            coalesce_key,
            job_key,
            normalise_map_request,
        )
        plain = normalise_map_request(
            {"kind": "map", "source": "void main() { x = 1; }"})
        traced = normalise_map_request(
            {"kind": "map", "source": "void main() { x = 1; }",
             "trace": {"trace": "ab" * 16, "span": "cd" * 8}})
        assert job_key(plain) == job_key(traced)
        assert coalesce_key(plain) == coalesce_key(traced)

    def test_malformed_trace_is_rejected(self):
        from repro.service.protocol import (
            ProtocolError,
            normalise_map_request,
        )
        for bad in ("tid", {"trace": 7, "span": "x"}, {"span": "s"}):
            with pytest.raises(ProtocolError):
                normalise_map_request(
                    {"kind": "map",
                     "source": "void main() { x = 1; }",
                     "trace": bad})


class TestQueueTraceStamping:
    def _submit(self, queue, ctx):
        request = {"kind": "map", "trace": ctx}
        return queue.submit(request, key="k", coalesce_key="k")

    def test_view_and_events_carry_the_trace_id(self):
        from repro.service.queue import JobQueue
        ctx = {"trace": "ab" * 16, "span": "cd" * 8}
        queue = JobQueue()
        job, __ = self._submit(queue, ctx)
        assert job.trace_id == ctx["trace"]
        assert job.view()["trace"] == ctx["trace"]
        assert all(event["trace"] == ctx["trace"]
                   for event in job.events)

    def test_untraced_jobs_stay_byte_identical(self):
        from repro.service.queue import JobQueue
        queue = JobQueue()
        job, __ = self._submit(queue, None)
        assert job.trace_id is None
        assert "trace" not in job.view()
        assert all("trace" not in event for event in job.events)

    def test_queue_wait_recorded_against_the_wire_context(self):
        from repro.service.queue import JobQueue
        ctx = {"trace": "ab" * 16, "span": "cd" * 8}
        entries: list[dict] = []
        with trace.scoped_tracing():
            trace.TRACER.add_sink(entries.append)
            try:
                queue = JobQueue()
                job, __ = self._submit(queue, ctx)
                queue.mark_running(queue.pop())
            finally:
                trace.TRACER.remove_sink(entries.append)
        waits = [e for e in entries
                 if e.get("name") == "queue.wait"]
        assert len(waits) == 1
        assert waits[0]["trace"] == ctx["trace"]
        assert waits[0]["parent"] == ctx["span"]
        assert job.wait_span is waits[0]


# ---------------------------------------------------------------------------
# Flight recorder and exports
# ---------------------------------------------------------------------------

class TestFlightRecorder:
    def test_recording_streams_ndjson_with_pid_and_traces(
            self, tmp_path):
        log = tmp_path / TRACE_LOG_NAME
        with recording(log) as recorder:
            with trace.span("dse.sweep", mode="test"):
                with trace.span("dse.point"):
                    pass
        assert not trace.enabled()
        assert recorder.written == 2
        entries = load_trace(log)
        assert [e["name"] for e in entries] == ["dse.point",
                                               "dse.sweep"]
        assert all("pid" in e and "tid" in e for e in entries)
        assert {e["trace"] for e in entries} == {entries[0]["trace"]}

    def test_recording_restores_state_when_body_raises(
            self, tmp_path):
        with pytest.raises(RuntimeError):
            with recording(tmp_path / "log.ndjson"):
                assert trace.enabled()
                raise RuntimeError("boom")
        assert not trace.enabled()
        assert trace.TRACER._sinks == ()

    def test_load_trace_tolerates_torn_tail(self, tmp_path):
        log = tmp_path / "torn.ndjson"
        log.write_text('{"name": "ok", "kind": "span"}\n'
                       '{"name": "torn', encoding="utf-8")
        entries = load_trace(log)
        assert [e["name"] for e in entries] == ["ok"]
        assert load_trace(tmp_path / "absent.ndjson") == []

    @pytest.mark.parametrize("mode", ["process", "thread"])
    def test_daemon_logs_each_worker_span_once(self, tmp_path, mode):
        """Forked workers inherit the daemon's recorder sink, and the
        daemon adopts their captured spans too: only one of the two
        may write a span to the log."""
        from repro.eval.kernels import get_kernel
        from repro.service.client import ServiceClient
        from repro.service.daemon import ServiceThread

        source = get_kernel("fir16").source
        with trace.scoped_tracing():
            with ServiceThread(store=tmp_path, worker_mode=mode,
                               workers=2) as daemon:
                client = ServiceClient(*daemon.address)
                for pps in (2, 3):
                    client.map_source(source, pps=pps)
        spans = [entry for entry in load_trace(tmp_path / TRACE_LOG_NAME)
                 if entry.get("kind") == "span"]
        ids = [entry["span"] for entry in spans]
        assert "worker.chunk" in {entry["name"] for entry in spans}
        assert len(ids) == len(set(ids)), sorted(
            entry["name"] for entry in spans)


    def test_pool_children_send_their_spans_home(self, tmp_path):
        """A local pool's children drop the recorder they inherit and
        return their spans with their records: the parent alone
        writes the log, so its count is the log's length.  Every
        point span joins the sweep's trace."""
        from repro.dse.runner import run_sweep
        from repro.dse.space import DesignSpace
        from repro.eval.kernels import get_kernel

        points = DesignSpace({"n_pps": [1, 2, 3, 4],
                              "n_buses": [2, 4, 6, 8, 10, 12]}).grid()
        log = tmp_path / TRACE_LOG_NAME
        with recording(log) as recorder:
            run_sweep(get_kernel("fir5").source, points, workers=2)
        entries = load_trace(log)
        assert recorder.written == len(entries)
        point_spans = [e for e in entries if e["name"] == "dse.point"]
        assert len(point_spans) == len(points)
        assert all(e["pid"] != os.getpid() for e in point_spans)
        sweep, = [e for e in entries if e["name"] == "dse.sweep"]
        assert sweep["parent"] is None
        assert {e["trace"] for e in point_spans} == {sweep["trace"]}


class TestChromeExport:
    def _entries(self):
        return [
            {"kind": "span", "name": "dse.sweep", "at": 100.0,
             "duration": 2.0, "trace": "t" * 32, "span": "a" * 16,
             "parent": None, "pid": 1, "tid": 7, "points": 4},
            {"kind": "span", "name": "worker.chunk", "at": 99.5,
             "duration": 0.5, "trace": "t" * 32, "span": "b" * 16,
             "parent": "a" * 16, "pid": 2, "daemon": "h:1"},
            {"kind": "event", "name": "distributed.fallback",
             "at": 99.0, "trace": "t" * 32, "pid": 1},
        ]

    def test_export_is_valid_trace_event_json(self):
        payload = to_chrome_trace(self._entries())
        decoded = json.loads(json.dumps(payload))
        events = decoded["traceEvents"]
        assert decoded["displayTimeUnit"] == "ms"
        spans = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        metas = [e for e in events if e["ph"] == "M"]
        assert len(spans) == 2 and len(instants) == 1
        assert len(metas) == 2  # one lane per pid
        sweep = next(e for e in spans if e["name"] == "dse.sweep")
        assert sweep["ts"] == pytest.approx(98.0 * 1e6)
        assert sweep["dur"] == pytest.approx(2.0 * 1e6)
        assert sweep["args"]["points"] == 4
        assert sweep["args"]["span"] == "a" * 16

    def test_processes_get_distinct_lanes(self):
        payload = to_chrome_trace(self._entries())
        spans = [e for e in payload["traceEvents"]
                 if e["ph"] == "X"]
        assert len({e["pid"] for e in spans}) == 2

    def test_rollup_matches_snapshot_shape(self):
        entries = self._entries() + [
            {"kind": "span", "name": "worker.chunk", "at": 99.8,
             "duration": 0.25, "pid": 2}]
        assert rollup(entries) == {
            "dse.sweep": {"count": 1, "total": 2.0,
                          "min": 2.0, "max": 2.0},
            "worker.chunk": {"count": 2, "total": 0.75,
                             "min": 0.25, "max": 0.5},
        }  # events excluded


class TestCriticalPath:
    def _synthetic(self):
        t = "t" * 32
        # Window: sweep spans [0, 10]; queue.wait [1, 3];
        # dse.point [3, 6]; lease [1, 8] (loses overlaps to finer
        # phases, keeps [6, 8]).
        return [
            {"kind": "span", "name": "dse.sweep", "at": 10.0,
             "duration": 10.0, "trace": t},
            {"kind": "span", "name": "queue.wait", "at": 3.0,
             "duration": 2.0, "trace": t},
            {"kind": "span", "name": "dse.point", "at": 6.0,
             "duration": 3.0, "trace": t},
            {"kind": "span", "name": "distributed.lease", "at": 8.0,
             "duration": 7.0, "trace": t},
        ]

    def test_attribution_is_exhaustive_and_prioritised(self):
        report = critical_path(self._synthetic())
        assert report["total"] == pytest.approx(10.0)
        assert report["attributed"] >= 0.95
        phases = report["phases"]
        assert phases["point evaluation"] == pytest.approx(3.0)
        assert phases["queue wait"] == pytest.approx(2.0)
        assert phases["lease round-trip"] == pytest.approx(2.0)
        assert phases["coordinator overhead"] == pytest.approx(3.0)
        assert sum(phases.values()) + report["unattributed"] \
            == pytest.approx(report["total"])

    def test_other_traces_are_excluded_from_the_window(self):
        entries = self._synthetic() + [
            {"kind": "span", "name": "dse.point", "at": 5.0,
             "duration": 4.0, "trace": "u" * 32}]
        report = critical_path(entries)
        assert report["trace"] == "t" * 32
        assert report["phases"]["point evaluation"] \
            == pytest.approx(3.0)

    def test_empty_log_reports_zero(self):
        report = critical_path([])
        assert report["total"] == 0.0
        assert report["phases"] == {}

    def test_render_mentions_every_phase_and_share(self):
        text = render_critical(critical_path(self._synthetic()))
        assert "point evaluation" in text
        assert "queue wait" in text
        assert "attributed: 100.0%" in text


# ---------------------------------------------------------------------------
# Satellite 3: tracer bounds and threading
# ---------------------------------------------------------------------------

class TestTracerBounds:
    def test_capture_respects_its_limit(self, tracer):
        with tracer.capture() as spans:
            for __ in range(trace.CAPTURE_LIMIT + 50):
                with tracer.span("burst"):
                    pass
        assert len(spans.entries) == trace.CAPTURE_LIMIT

    def test_interleaved_threads_keep_consistent_depth(self, tracer):
        start = threading.Barrier(4)
        errors = []

        def worker(tag):
            try:
                start.wait(timeout=10)
                for __ in range(50):
                    with tracer.span(f"outer.{tag}"):
                        with tracer.span(f"inner.{tag}"):
                            pass
            except Exception as error:  # noqa: BLE001
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        for entry in tracer.entries:
            expected = 0 if entry["name"].startswith("outer") else 1
            assert entry["depth"] == expected
            if entry["name"].startswith("inner"):
                assert entry["parent"] is not None

    def test_scoped_tracing_restores_on_raise(self):
        assert not trace.enabled()
        with pytest.raises(ValueError):
            with trace.scoped_tracing():
                assert trace.enabled()
                raise ValueError("boom")
        assert not trace.enabled()


# The call-site audit that lived here (two hard-coded modules)
# graduated into fpfa-lint's FPL003 checker, which covers every
# linted file — see tools/fpfa_lint/checkers/trace_guard.py and the
# repo self-check in tests/test_lint.py.


# ---------------------------------------------------------------------------
# In-process end-to-end: coordinator -> daemon -> worker stitch
# ---------------------------------------------------------------------------

class TestEndToEndStitch:
    def test_sharded_sweep_stitches_one_trace(self, tmp_path):
        from repro.dse.distributed import run_distributed_sweep
        from repro.dse.space import DesignSpace
        from repro.service import ServiceThread

        source = ("void main() { s = 0; i = 0; while (i < 3) "
                  "{ s = s + a[i]; i = i + 1; } }")
        points = DesignSpace({"n_pps": [2, 3], "n_buses": [4, 5]}) \
            .grid()
        log = tmp_path / TRACE_LOG_NAME
        with ServiceThread(store=tmp_path / "store",
                           workers=2) as daemon:
            host, port = daemon.address
            with recording(log):
                result = run_distributed_sweep(
                    source, points, remotes=f"{host}:{port}",
                    cache=tmp_path / "cache", chunk_size=2)
        assert all(record["ok"] for record in result.records)
        entries = load_trace(log)
        sweeps = [e for e in entries if e["name"] == "dse.sweep"]
        assert len(sweeps) == 1
        trace_id = sweeps[0]["trace"]
        leases = [e for e in entries
                  if e["name"] == "distributed.lease"
                  and e["kind"] == "span"]
        assert leases and all(e["trace"] == trace_id
                              and e["parent"] == sweeps[0]["span"]
                              for e in leases)
        # The daemon (an in-process ServiceThread sharing the module
        # tracer) recorded its side into the same log: worker.chunk
        # spans parent the coordinator's lease spans, queue.wait
        # rides the wire context.
        chunk_spans = [e for e in entries
                       if e["name"] == "worker.chunk"]
        lease_ids = {e["span"] for e in leases}
        assert chunk_spans and all(
            e["trace"] == trace_id and e["parent"] in lease_ids
            for e in chunk_spans)
        waits = [e for e in entries if e["name"] == "queue.wait"]
        assert waits and all(e["trace"] == trace_id
                             and e["parent"] in lease_ids
                             for e in waits)
        report = critical_path(entries)
        assert report["trace"] == trace_id
        assert report["attributed"] >= 0.95


    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_in_process_daemon_logs_each_span_once(self, tmp_path,
                                                   mode):
        """A daemon in the coordinator's process already emitted its
        spans into the shared tracer; the ones each lease returns
        must not reach the log a second time."""
        from repro.dse.distributed import run_distributed_sweep
        from repro.dse.space import DesignSpace
        from repro.eval.kernels import get_kernel
        from repro.service import ServiceThread

        points = DesignSpace({"n_pps": [1, 2, 3],
                              "n_buses": [2, 4, 6]}).grid()
        log = tmp_path / TRACE_LOG_NAME
        with ServiceThread(store=tmp_path / "store", workers=2,
                           worker_mode=mode) as daemon:
            host, port = daemon.address
            with recording(log):
                run_distributed_sweep(
                    get_kernel("fir5").source, points,
                    remotes=f"{host}:{port}", chunk_size=2)
        spans = [e for e in load_trace(log) if e["kind"] == "span"]
        ids = [e["span"] for e in spans]
        assert len(ids) == len(set(ids))
        assert len([e for e in spans if e["name"] == "dse.point"]) \
            == len(points)

    def test_chunk_payload_carries_spans_only_when_traced(
            self, tmp_path):
        """An untraced sweep-chunk job's view keeps its old shape even
        on a traced daemon; a traced one returns its queue.wait and
        worker spans under ``result["trace"]``."""
        from repro.dse.space import DesignSpace
        from repro.eval.kernels import get_kernel
        from repro.service import ServiceClient, ServiceThread

        request = {"kind": "sweep-chunk",
                   "source": get_kernel("fir5").source,
                   "points": [point.to_dict() for point in DesignSpace(
                       {"n_pps": [1, 2]}).grid()]}
        ctx = {"trace": "ab" * 16, "span": "cd" * 8}
        with trace.scoped_tracing(), \
                ServiceThread(store=tmp_path / "store") as daemon:
            client = ServiceClient(*daemon.address)
            plain = client.submit(request, wait=60)["job"]
            traced = client.submit(
                dict(request, points=[DesignSpace({"n_pps": [3]})
                                      .grid()[0].to_dict()],
                     trace=ctx), wait=60)["job"]
        assert set(plain) == {"id", "kind", "key", "state", "submits",
                              "created", "started", "finished",
                              "waited", "runtime", "file", "meta",
                              "result"}
        assert set(plain["result"]) == {"kind", "points", "records",
                                        "stats"}
        relayed = traced["result"]["trace"]
        assert relayed["pid"] == os.getpid()
        names = {entry["name"] for entry in relayed["spans"]}
        assert {"queue.wait", "worker.chunk", "dse.point"} <= names
        assert all(entry["trace"] == ctx["trace"]
                   for entry in relayed["spans"])


# ---------------------------------------------------------------------------
# Wall-clock immunity (FPL001's contract, exercised at runtime)
# ---------------------------------------------------------------------------

class TestSteppedWallClock:
    def test_span_duration_immune_to_wall_steps(self, tracer,
                                                monkeypatch):
        """Span durations come from perf_counter pairs; a wall
        clock stepping backwards mid-span must never yield a
        negative duration."""
        steps = iter([1000.0, 400.0, 200.0, 50.0])
        monkeypatch.setattr(trace.time, "time",
                            lambda: next(steps, 10.0))
        with tracer.span("stepped"):
            pass
        entry = tracer.entries[0]
        assert entry["duration"] >= 0.0

    def test_event_at_field_records_the_wall(self, tracer,
                                             monkeypatch):
        """`at` is presentation-only and faithfully wall-clock."""
        monkeypatch.setattr(trace.time, "time", lambda: 123.5)
        tracer.event("queue.queued")
        assert tracer.entries[0]["at"] == 123.5
