"""Integration tests for the sweep runner: parallelism, fault
tolerance, and the persistent cache's speed and reproducibility
guarantees (the ISSUE's acceptance criteria)."""

import concurrent.futures
import json
import multiprocessing
import sys
import threading
import time

import pytest

from repro.cli import main
from repro.dse import runner
from repro.dse.cache import ResultCache, cache_key
from repro.dse.runner import evaluate_point, run_sweep
from repro.dse.space import DesignPoint, DesignSpace
from repro.eval.kernels import get_kernel

FIR5 = get_kernel("fir5").source


class TestRunSweep:
    def test_serial_sweep_without_cache(self):
        points = DesignSpace({"n_pps": [1, 2, 3]}).grid()
        result = run_sweep(FIR5, points, workers=1)
        assert result.stats.evaluated == 3
        assert result.stats.cached == 0
        assert [r["ok"] for r in result.records] == [True] * 3

    def test_duplicate_points_are_evaluated_once(self):
        point = DesignPoint.make({"n_pps": 2})
        result = run_sweep(FIR5, [point, point, point], workers=1)
        assert result.stats.total == 3
        assert result.stats.unique == 1
        assert result.stats.evaluated == 1
        assert result.records[0] is result.records[2]

    def test_per_point_failures_do_not_kill_the_sweep(self):
        good = DesignPoint.make({"n_pps": 2})
        bad = DesignPoint(tile=(("n_buses", 0),))
        result = run_sweep(FIR5, [good, bad], workers=1)
        assert result.stats.failed == 1
        assert len(result.ok_records()) == 1
        assert "n_buses" in result.failures()[0]["error"]

    def test_rows_flatten_config_and_metrics(self):
        points = [DesignPoint.make({"n_pps": 2}),
                  DesignPoint(tile=(("n_pps", 0),))]
        rows = run_sweep(FIR5, points, workers=1).rows(("cycles",))
        assert rows[0]["n_pps"] == 2 and rows[0]["cycles"] > 0
        assert "n_pps" in rows[1]["error"]
        # Column set is identical regardless of record order, so the
        # rendered table never drops metric or error columns.
        assert list(rows[0]) == list(rows[1])
        reversed_rows = run_sweep(
            FIR5, points[::-1], workers=1).rows(("cycles",))
        assert list(reversed_rows[0]) == list(rows[0])
        assert reversed_rows[1]["cycles"] == rows[0]["cycles"]

    def test_pool_matches_serial_results(self):
        points = DesignSpace({"n_pps": [1, 2, 3, 5],
                              "n_buses": [4, 10]}).grid()
        serial = run_sweep(FIR5, points, workers=1)
        pooled = run_sweep(FIR5, points, workers=2)
        assert pooled.stats.workers == 2
        assert pooled.records == serial.records

    def test_a_failed_chunk_runs_one_level_down(self, monkeypatch,
                                                 tmp_path):
        """A chunk task that raises (a worker lost, say) does not end
        a pooled sweep: the chunks not yet started are cancelled, and
        every key no chunk delivered is evaluated in-process.  The
        records are byte-identical to a serial sweep's, and all of
        them reach the cache."""
        points = DesignSpace({"n_pps": [1, 2, 3, 5],
                              "n_buses": [4, 10]}).grid()
        serial = run_sweep(FIR5, points, workers=1)
        submit = runner.WorkerPool.submit
        submitted = []

        def failing(pool, fn, *args):
            submitted.append(args)
            if len(submitted) == 2:
                lost = concurrent.futures.Future()
                lost.set_exception(RuntimeError("worker lost"))
                return lost
            return submit(pool, fn, *args)

        monkeypatch.setattr(runner.WorkerPool, "submit", failing)
        before = set(multiprocessing.active_children())
        pooled = run_sweep(FIR5, points, workers=2, cache=tmp_path)
        assert len(submitted) > 2
        assert pooled.stats.workers == 2
        assert pooled.stats.evaluated == len(points)
        assert json.dumps(pooled.records) == json.dumps(serial.records)
        assert set(multiprocessing.active_children()) <= before
        warm = run_sweep(FIR5, points, workers=1, cache=tmp_path)
        assert warm.stats.cached == len(points)

    def test_pooled_sweep_reaps_its_worker_processes(self):
        points = DesignSpace({"n_pps": [1, 2, 3, 4]}).grid()
        before = set(multiprocessing.active_children())
        result = run_sweep(FIR5, points, workers=2)
        assert result.stats.workers == 2
        assert set(multiprocessing.active_children()) <= before


class TestFrontendReuse:
    """The sweep compiles each unique frontend once and shares it."""

    def test_frontend_compiled_once_per_spec(self, monkeypatch):
        import repro.dse.runner as runner_module

        calls = []
        real = runner_module.compile_frontend

        def counting(source, **kwargs):
            calls.append(kwargs)
            return real(source, **kwargs)

        monkeypatch.setattr(runner_module, "compile_frontend",
                            counting)
        points = DesignSpace({"n_pps": [1, 2, 4, 8],
                              "n_buses": [4, 10]}).grid()
        result = run_sweep(FIR5, points, workers=1)
        assert result.stats.failed == 0
        assert result.stats.frontends == 1
        assert len(calls) == 1  # 8 points, one parse+simplify

    def test_distinct_transform_axes_get_distinct_frontends(self):
        points = DesignSpace({"n_pps": [2, 5],
                              "balance": [False, True]}).grid()
        result = run_sweep(FIR5, points, workers=1)
        assert result.stats.failed == 0
        assert result.stats.frontends == 2  # balance off / on

    def test_width_is_a_frontend_axis(self):
        # One point per width: no spec is shared ...
        points = DesignSpace({"width": [None, 16]}).grid()
        result = run_sweep(FIR5, points, workers=1)
        assert result.stats.failed == 0
        assert result.stats.frontends == 0
        # ... while a width x tile grid shares one frontend per width.
        grid = DesignSpace({"width": [None, 16],
                            "n_pps": [2, 5]}).grid()
        shared = run_sweep(FIR5, grid, workers=1)
        assert shared.stats.failed == 0
        assert shared.stats.frontends == 2

    def test_a_rejected_source_compiles_once(self, monkeypatch):
        """The memo keeps a front-end error: eight points of a source
        the parser rejects compile it once, and every record carries
        the message a lone evaluation reports."""
        calls = []
        real = runner.compile_frontend

        def counting(source, **kwargs):
            calls.append(kwargs)
            return real(source, **kwargs)

        monkeypatch.setattr(runner, "compile_frontend", counting)
        bad = "void main() { x = ; }"
        points = DesignSpace({"n_pps": [1, 2, 4, 8],
                              "n_buses": [4, 10]}).grid()
        result = run_sweep(bad, points, workers=1)
        assert len(calls) == 1
        alone = evaluate_point(bad, points[0])["error"]
        assert alone.startswith("ParseError: ")
        assert [record["error"] for record in result.records] \
            == [alone] * len(points)

    def test_other_compile_failures_are_retried(self, monkeypatch):
        """Only a front-end error is kept: a long-lived memo retries a
        compile that failed any other way."""
        real = runner.compile_frontend
        failures = [OSError("transient")]

        def flaky(source, **kwargs):
            if failures:
                raise failures.pop()
            return real(source, **kwargs)

        monkeypatch.setattr(runner, "compile_frontend", flaky)
        memo = runner.FrontendMemo()
        point = DesignPoint.make({"n_pps": 2})
        failed = evaluate_point(FIR5, point, memo=memo)
        assert failed["error"] == "OSError: transient"
        assert evaluate_point(FIR5, point, memo=memo) \
            == evaluate_point(FIR5, point)
        assert (memo.compiled, memo.reused) == (2, 0)

    def test_the_memo_evicts_its_oldest_frontend(self, monkeypatch):
        monkeypatch.setattr(runner, "FRONTENDS_KEPT", 2)
        monkeypatch.setattr(runner, "compile_frontend",
                            lambda source, **kwargs: object())
        memo = runner.FrontendMemo()
        spec = (16, True, False)
        oldest = memo.frontend("a", spec)
        newest = [memo.frontend(source, spec) for source in "bc"][-1]
        # A view shares the entries and counts its own lookups.
        view = runner.FrontendMemo(share=memo)
        assert view.frontend("c", spec) is newest
        assert (view.compiled, view.reused) == (0, 1)
        assert memo.frontend("a", spec) is not oldest
        assert (memo.compiled, memo.reused) == (4, 0)

    def test_threads_sharing_a_memo_compile_a_key_once(self,
                                                       monkeypatch):
        """A thread-mode service pool's shape: more threads than CPUs
        look one key up through their own views at once; it compiles
        once and every other lookup is a hit on the same object."""
        compiles = []

        def slow(source, **kwargs):
            compiles.append(source)
            time.sleep(0.01)
            return object()

        monkeypatch.setattr(runner, "compile_frontend", slow)
        memo = runner.FrontendMemo()
        views = [runner.FrontendMemo(share=memo) for __ in range(6)]
        barrier = threading.Barrier(len(views))
        seen = [[] for __ in views]

        def job(index):
            barrier.wait()
            for __ in range(20):
                seen[index].append(
                    views[index].frontend("a", (16, True, False)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=job, args=(index,))
                       for index in range(len(views))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert compiles == ["a"]
        assert len({id(entry) for entries in seen
                    for entry in entries}) == 1
        assert sum(view.compiled for view in views) == 1
        assert sum(view.reused for view in views) == 6 * 20 - 1

    def test_shared_frontend_matches_per_point_evaluation(self):
        points = DesignSpace({"n_pps": [1, 3, 5],
                              "tiles": [1, 2]}).grid()
        swept = run_sweep(FIR5, points, workers=1)
        for point, record in zip(swept.points, swept.records):
            assert record == evaluate_point(FIR5, point)

    def test_unrealisable_tile_params_still_fail_per_record(self):
        bad = DesignPoint(tile=(("width", 1),))  # width must be >= 2
        good = DesignPoint.make({"n_pps": 2})
        result = run_sweep(FIR5, [bad, good], workers=1)
        assert result.stats.failed == 1
        assert "width" in result.failures()[0]["error"]
        assert result.ok_records()


def test_sink_timings_include_the_verify_stage():
    """A job's profile covers the whole per-point cost, verification
    included, and the timings stay out of the record."""
    sink: dict = {}
    record = evaluate_point(FIR5, DesignPoint.make(), verify_seed=1,
                            sink=sink)
    assert record["verified"] is True
    assert sink["timings"]["verify"] > 0.0
    assert "timings" not in record


class TestCacheAcceptance:
    """The ISSUE's hard acceptance criteria, asserted end to end."""

    def test_explore_100_configs_parallel_then_5x_faster_cached(
            self, tmp_path, capsys, monkeypatch):
        """>= 100 configurations on multiple worker processes with a
        Pareto table, through the real CLI; an identical second run is
        served entirely from the cache — it evaluates nothing, which
        is what makes it fast (a wall-clock ratio would only measure
        the host's load; the perfbench ``tile_sweep`` workload times
        the warm path)."""
        cache_dir = str(tmp_path / "dse-cache")
        argv = ["explore", "--kernel", "fir16",
                "--pps", "1,2,3,4,5,6,7,8",
                "--buses", "2,4,6,8,10",
                "--libraries", "single-op,two-level,mac",
                "--workers", "2", "--cache", cache_dir]

        assert main(argv) == 0
        cold_out = capsys.readouterr().out
        assert "design space: 120 points" in cold_out
        assert "120 evaluated on 2 worker(s)" in cold_out
        assert "Pareto frontier" in cold_out
        assert "best (" in cold_out

        def never(*args, **kwargs):
            raise AssertionError("warm run evaluated a point")

        monkeypatch.setattr(runner, "evaluate_point", never)
        assert main(argv) == 0
        warm_out = capsys.readouterr().out
        assert "120 cached (100%)" in warm_out
        assert "0 evaluated" in warm_out
        # Both runs report the identical frontier and best point.
        assert warm_out.split("Pareto frontier", 1)[1] == \
            cold_out.split("Pareto frontier", 1)[1]

    def test_cached_record_identical_to_fresh_computation(
            self, tmp_path):
        """Reproducibility: for the same (source, config) hash the
        cached record equals a from-scratch evaluation, metric for
        metric."""
        space = DesignSpace({"n_pps": [1, 3, 5],
                             "n_buses": [4, 10],
                             "library": ["two-level", "mac"]})
        cache = ResultCache(tmp_path)
        swept = run_sweep(FIR5, space.grid(), workers=2, cache=cache)
        assert swept.stats.evaluated == space.size
        for point in space.grid():
            fresh = evaluate_point(FIR5, point)
            cached = cache.get(cache_key(FIR5, point))
            assert cached == fresh, point.label()
            assert cached["metrics"] == fresh["metrics"]

    @pytest.mark.parametrize("workers", (1, 2))
    def test_failures_are_not_cached(self, tmp_path, workers):
        """A failure may be transient, so it must be retried by the
        next sweep rather than poisoning the cache key — on the
        serial path and the pooled one alike."""
        cache = ResultCache(tmp_path)
        good = DesignSpace({"n_pps": [1, 2, 3]}).grid()
        bad = [DesignPoint(tile=(("n_pps", 0),)),
               DesignPoint(tile=(("n_buses", 0),))]
        points = [good[0], bad[0], good[1], bad[1], good[2]]
        first = run_sweep(FIR5, points, workers=workers, cache=cache)
        assert first.stats.workers == workers
        assert first.stats.failed == len(bad)
        assert len(cache) == len(good)
        second = run_sweep(FIR5, points, workers=workers, cache=cache)
        assert second.stats.cached == len(good)
        assert second.stats.evaluated == len(bad)
        assert [record["ok"] for record in second.records] == \
            [True, False, True, False, True]

    def test_unverified_cache_hits_reverified_on_demand(self,
                                                        tmp_path):
        """A sweep that promises verification must not trust records
        cached by a sweep that never verified."""
        cache = ResultCache(tmp_path)
        points = DesignSpace({"n_pps": [1, 2]}).grid()
        run_sweep(FIR5, points, workers=1, cache=cache)
        checked = run_sweep(FIR5, points, workers=1, cache=cache,
                            verify_seed=0)
        assert checked.stats.evaluated == 2  # hits not trusted
        assert all(r["verified"] for r in checked.records)
        assert checked.stats.cached == 0  # ... nor counted as hits
        again = run_sweep(FIR5, points, workers=1, cache=cache,
                          verify_seed=5)
        assert again.stats.cached == 2  # verified once is enough

    def test_overlapping_sweep_reuses_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        first = DesignSpace({"n_pps": [1, 2, 3]}).grid()
        wider = DesignSpace({"n_pps": [1, 2, 3, 5, 8]}).grid()
        run_sweep(FIR5, first, workers=1, cache=cache)
        result = run_sweep(FIR5, wider, workers=1, cache=cache)
        assert result.stats.cached == 3
        assert result.stats.evaluated == 2
