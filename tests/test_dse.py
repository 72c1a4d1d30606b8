"""Unit tests for the design-space exploration subsystem
(space, cache, pareto, search)."""

import json

import pytest

from repro.arch.params import TileParams
from repro.dse.cache import ResultCache, cache_key
from repro.dse.pareto import (
    best_record,
    dominates,
    frontier_table,
    objective_value,
    pareto_front,
)
from repro.dse.runner import evaluate_point, run_sweep
from repro.dse.search import exhaustive_search, hill_climb, random_search
from repro.dse.space import DesignPoint, DesignSpace, SpaceError
from repro.eval.kernels import get_kernel

FIR5 = get_kernel("fir5").source


def _record(config, **metrics):
    return {"ok": True, "config": config, "metrics": metrics,
            "point": {"tile": {}, "library": "two-level",
                      "options": {}}}


class TestDesignPoint:
    def test_make_validates_names(self):
        with pytest.raises(SpaceError):
            DesignPoint.make({"n_wings": 3})
        with pytest.raises(SpaceError):
            DesignPoint.make(library="imaginary")
        with pytest.raises(SpaceError):
            DesignPoint.make(options={"turbo": True})
        with pytest.raises(SpaceError):
            # Truthy strings must not silently enable an option.
            DesignPoint.make(options={"balance": "off"})

    def test_key_is_order_insensitive(self):
        first = DesignPoint.make({"n_pps": 3, "n_buses": 4})
        second = DesignPoint.make({"n_buses": 4, "n_pps": 3})
        assert first == second
        assert first.key() == second.key()

    def test_dict_round_trip(self):
        point = DesignPoint.make({"n_pps": 2}, "mac",
                                 {"balance": True})
        assert DesignPoint.from_dict(point.to_dict()) == point
        assert DesignPoint.from_dict(json.loads(point.key())) == point

    def test_materialisation(self):
        point = DesignPoint.make({"n_pps": 3, "n_buses": 6}, "mac")
        params = point.tile_params()
        assert params == TileParams(n_pps=3, n_buses=6)
        assert point.template_library().name == "mac"

    def test_with_changes_one_dimension(self):
        point = DesignPoint.make({"n_pps": 3})
        moved = point.with_(n_pps=4, balance=True)
        assert moved.tile_dict()["n_pps"] == 4
        assert moved.options_dict() == {"balance": True}
        assert point.tile_dict()["n_pps"] == 3  # frozen original

    def test_label_mentions_every_dimension(self):
        point = DesignPoint.make({"n_pps": 2}, "mac", {"balance": True})
        label = point.label()
        assert "n_pps=2" in label
        assert "lib=mac" in label
        assert "balance=True" in label


class TestDesignSpace:
    def test_grid_is_full_cartesian_product(self):
        space = DesignSpace({"n_pps": [1, 2, 3], "n_buses": [4, 10]})
        grid = space.grid()
        assert space.size == len(grid) == 6
        assert len(set(grid)) == 6

    def test_rejects_bad_dimensions(self):
        with pytest.raises(SpaceError):
            DesignSpace({"bogus": [1]})
        with pytest.raises(SpaceError):
            DesignSpace({"n_pps": []})
        with pytest.raises(SpaceError):
            DesignSpace({"library": ["nope"]})
        with pytest.raises(SpaceError):
            DesignSpace({"balance": [1, 2]})
        with pytest.raises(SpaceError):
            # A typo'd value must fail before the sweep, not as N
            # cryptic per-point failure records.
            DesignSpace({"n_pps": [1, "x"]})
        with pytest.raises(SpaceError):
            DesignSpace({})

    def test_sample_deterministic_and_distinct(self):
        space = DesignSpace({"n_pps": list(range(1, 9)),
                             "n_buses": [2, 4, 6, 8, 10]})
        first = space.sample(12, seed=5)
        second = space.sample(12, seed=5)
        assert first == second
        assert len(set(first)) == 12
        assert space.sample(12, seed=6) != first

    def test_sample_covers_grid_when_n_large(self):
        space = DesignSpace({"n_pps": [1, 2]})
        assert space.sample(99) == space.grid()

    def test_duplicate_dimension_values_are_collapsed(self):
        space = DesignSpace({"n_pps": [1, 1, 2]})
        assert space.size == 2
        assert len(space.grid()) == 2
        assert len(set(space.sample(2, seed=0))) == 2

    def test_neighbours_are_one_step_adjacent(self):
        space = DesignSpace({"n_pps": [1, 2, 4, 8],
                             "library": ["single-op", "mac"]})
        point = DesignPoint.make({"n_pps": 2}, "single-op")
        labels = {p.label() for p in space.neighbours(point)}
        assert labels == {"n_pps=1 lib=single-op",
                          "n_pps=4 lib=single-op",
                          "n_pps=2 lib=mac"}

    def test_explicit_accepts_mixed_forms(self):
        points = DesignSpace.explicit([
            DesignPoint.make({"n_pps": 1}),
            {"n_pps": 2, "library": "mac"},
            {"tile": {"n_pps": 3}, "library": "two-level",
             "options": {"balance": True}},
        ])
        assert [p.assignment().get("n_pps") for p in points] == [1, 2, 3]
        with pytest.raises(SpaceError):
            DesignSpace.explicit([42])

    def test_default_space_is_at_least_100_points(self):
        assert DesignSpace.default().size >= 100


class TestResultCache:
    def test_round_trip_and_counters(self, tmp_path):
        cache = ResultCache(tmp_path)
        point = DesignPoint.make({"n_pps": 2})
        key = cache.key("src", point)
        assert cache.get(key) is None
        cache.put(key, {"ok": True, "metrics": {"cycles": 7}})
        assert cache.get(key) == {"ok": True, "metrics": {"cycles": 7}}
        assert cache.path_for(key).exists() and len(cache) == 1
        assert cache.stats()["entries"] == 1

    def test_key_is_stable_across_instances(self, tmp_path):
        point = DesignPoint.make({"n_pps": 2}, "mac")
        assert cache_key("s", point) == cache_key("s", point)
        assert cache_key("s", point) != cache_key("t", point)
        assert cache_key("s", point) != cache_key(
            "s", point.with_(n_pps=3))

    def test_corrupt_entry_degrades_to_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key("src", DesignPoint.make())
        cache.put(key, {"ok": True})
        cache.path_for(key).write_text("{truncated", encoding="utf-8")
        assert cache.get(key) is None

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        for index in range(3):
            cache.put(cache.key(str(index), DesignPoint.make()), {})
        assert cache.clear() == 3
        assert len(cache) == 0

    def test_stats_fields(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key("src", DesignPoint.make())
        cache.get(key)
        cache.put(key, {"ok": True})
        cache.get(key)
        stats = cache.stats()
        assert stats["entries"] == 1
        # Hits are counted by whoever serves them (a sweep's
        # stats.cached, the daemon's service.store_hits): several
        # instances open one directory, so a per-instance tally
        # would under-count.
        assert not {"hits", "misses", "hit_rate"} & set(stats)
        # The tiered-store fields ride along, zeroed/idle here.
        assert stats["bytes"] == cache.path_for(key).stat().st_size
        assert stats["evictions"] == 0 and stats["put_errors"] == 0
        assert stats["max_entries"] is None
        assert stats["max_bytes"] is None

    def test_entry_count_is_incremental_not_a_walk(self, tmp_path,
                                                   monkeypatch):
        """`stats()` is the daemon's per-request `/stats` hot path:
        after the one lazy initial scan it must never glob the store
        again — puts, overwrites, discards and clears keep the count
        exact incrementally."""
        import pathlib

        from repro.dse import cache as cache_module

        cache = ResultCache(tmp_path)
        keys = [cache.key(f"src{index}", DesignPoint.make())
                for index in range(3)]
        cache.put(keys[0], {"ok": True})
        assert cache.stats()["entries"] == 1  # lazy initial scan
        # From here on, any directory walk is a bug.
        monkeypatch.setattr(
            pathlib.Path, "glob",
            lambda *a, **k: pytest.fail("stats() walked the store"))
        monkeypatch.setattr(
            cache_module, "_scan",
            lambda *a, **k: pytest.fail("stats() scanned the store"))
        cache.put(keys[1], {"ok": True})
        cache.put(keys[1], {"ok": True, "again": 1})  # overwrite
        cache.put(keys[2], {"ok": True})
        assert cache.stats()["entries"] == 3
        # A corrupt entry is discarded on read and leaves the count.
        cache.path_for(keys[2]).write_text("{junk",
                                           encoding="utf-8")
        assert cache.get(keys[2]) is None
        assert cache.stats()["entries"] == 2
        assert len(cache) == 2
        assert cache.stats()["bytes"] == sum(
            cache.path_for(key).stat().st_size for key in keys[:2])

    def test_invalidate_count_rescans_foreign_writes(self, tmp_path):
        mine = ResultCache(tmp_path)
        assert len(mine) == 0  # count initialised
        foreign = ResultCache(tmp_path)  # another handle, same dir
        foreign.put(foreign.key("x", DesignPoint.make()),
                    {"ok": True})
        assert len(mine) == 0  # stale by design...
        mine.invalidate_count()
        assert len(mine) == 1  # ...exact again after invalidation

    def test_concurrent_first_puts_scan_the_store_once(self, tmp_path,
                                                       monkeypatch):
        """Threads putting into a fresh bounded store scan it once.
        A second scan would replace an index that already holds a
        put which landed after the first scan's listing: the entry
        count would then read one short.  The threads keep putting,
        overwriting and reading under a short switch interval, and
        the byte total must still equal the files'."""
        import sys
        import threading
        import time

        from repro.dse import cache as cache_module

        scans = []
        real_scan = cache_module._scan

        def slow_scan(root):
            scans.append(root)
            rows = real_scan(root)
            time.sleep(0.05)  # hold the race window open
            return rows

        monkeypatch.setattr(cache_module, "_scan", slow_scan)
        cache = ResultCache(tmp_path, max_entries=1000)
        keys = [cache.key(str(index), DesignPoint.make())
                for index in range(8)]
        start = threading.Barrier(len(keys), timeout=30)

        def put(key):
            start.wait()
            cache.put(key, {"ok": True})
            for round_ in range(20):
                cache.put(key + f"{round_:02d}", {"ok": True,
                                                  "pad": "x" * round_})
                cache.put(key, {"ok": True, "round": round_})
                assert cache.get(key) is not None

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=put, args=(key,))
                       for key in keys]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(scans) == 1
        files = list(tmp_path.glob("??/*.json"))
        assert len(cache) == len(files) == len(keys) * 21
        assert cache.stats()["bytes"] == sum(path.stat().st_size
                                             for path in files)

    def test_entry_count_lazy_scan_sees_preexisting(self, tmp_path):
        first = ResultCache(tmp_path)
        for index in range(4):
            first.put(first.key(str(index), DesignPoint.make()),
                      {"ok": True})
        fresh = ResultCache(tmp_path)  # same dir, new instance
        assert len(fresh) == 4
        fresh.clear()
        assert len(fresh) == 0 and fresh.stats()["entries"] == 0


class TestPareto:
    RECORDS = [
        _record({"n_pps": 1, "n_buses": 2}, cycles=9, energy=170),
        _record({"n_pps": 2, "n_buses": 4}, cycles=5, energy=160),
        _record({"n_pps": 3, "n_buses": 6}, cycles=4, energy=167),
        _record({"n_pps": 8, "n_buses": 10}, cycles=4, energy=167),
        _record({"n_pps": 5, "n_buses": 10}, cycles=6, energy=200),
    ]

    def test_dominates(self):
        better, worse = self.RECORDS[1], self.RECORDS[4]
        assert dominates(better, worse, ("cycles", "energy"))
        assert not dominates(worse, better, ("cycles", "energy"))
        assert not dominates(better, better, ("cycles", "energy"))

    def test_front_drops_dominated_and_duplicate_vectors(self):
        front = pareto_front(self.RECORDS, ("cycles", "energy"))
        assert [r["config"]["n_pps"] for r in front] == [2, 3]

    def test_resource_objective_separates_duplicates(self):
        front = pareto_front(self.RECORDS,
                             ("cycles", "energy", "resource"))
        pps = [r["config"]["n_pps"] for r in front]
        assert 3 in pps and 8 not in pps  # same metrics, more area

    def test_failed_records_are_ignored(self):
        records = self.RECORDS + [{"ok": False, "error": "boom",
                                   "config": {}}]
        assert pareto_front(records) == pareto_front(self.RECORDS)
        assert best_record([{"ok": False, "error": "x"}]) is None

    def test_objective_value_lookup_and_negation(self):
        record = _record({"n_pps": 2, "n_buses": 4}, cycles=5,
                         alu_util=0.8)
        assert objective_value(record, "cycles") == 5
        assert objective_value(record, "-alu_util") == -0.8
        assert objective_value(record, "resource") == 8
        assert objective_value(record, "n_pps") == 2
        with pytest.raises(KeyError):
            objective_value(record, "unknown_metric")

    def test_best_record_respects_weights(self):
        fast = _record({"n_pps": 8, "n_buses": 10}, cycles=2,
                       energy=400)
        frugal = _record({"n_pps": 1, "n_buses": 2}, cycles=9,
                         energy=100)
        records = [fast, frugal]
        assert best_record(records, ("cycles", "energy"),
                           {"cycles": 10.0}) is fast
        assert best_record(records, ("cycles", "energy"),
                           {"energy": 10.0}) is frugal

    def test_frontier_table_renders(self):
        table = frontier_table(self.RECORDS, ("cycles", "energy"))
        assert "Pareto frontier" in table
        assert "cycles" in table


class TestEvaluatePoint:
    def test_ok_record_carries_metrics_and_config(self):
        point = DesignPoint.make({"n_pps": 2, "n_buses": 4})
        record = evaluate_point(FIR5, point)
        assert record["ok"]
        assert record["config"] == {"n_pps": 2, "n_buses": 4,
                                    "library": "two-level"}
        assert record["metrics"]["cycles"] > 0
        assert record["point"] == point.to_dict()

    def test_verify_seed_marks_record(self):
        record = evaluate_point(FIR5, DesignPoint.make(),
                                verify_seed=3)
        assert record["verified"] is True

    def test_failure_is_a_record_not_an_exception(self):
        bad = DesignPoint(tile=(("n_pps", 0),))  # TileParams rejects
        record = evaluate_point(FIR5, bad)
        assert record["ok"] is False
        assert "n_pps" in record["error"]


class TestSearchStrategies:
    SPACE = DesignSpace({"n_pps": [1, 2, 3, 5],
                         "n_buses": [2, 4, 10]})

    def test_exhaustive_finds_min_cycles(self, tmp_path):
        result = exhaustive_search(FIR5, self.SPACE,
                                   objectives=("cycles",),
                                   cache=tmp_path)
        cycles = [r["metrics"]["cycles"] for r in result.records
                  if r["ok"]]
        assert result.best["metrics"]["cycles"] == min(cycles)
        assert result.stats.unique == self.SPACE.size

    def test_random_search_stays_within_budget(self):
        result = random_search(FIR5, self.SPACE, n_samples=5, seed=2)
        assert result.stats.unique == 5
        assert result.best is not None

    def test_hill_climb_walks_downhill(self, tmp_path):
        start = DesignPoint.make({"n_pps": 1, "n_buses": 2})
        result = hill_climb(FIR5, self.SPACE, start=start,
                            objectives=("cycles",), cache=tmp_path,
                            restarts=1)
        scores = [step["score"] for step in result.history]
        assert scores == sorted(scores, reverse=True)
        assert result.best["metrics"]["cycles"] <= \
            result.records[0]["metrics"]["cycles"]
        assert result.summary().startswith("hill-climb")

    def test_strategies_share_one_cache(self, tmp_path):
        exhaustive_search(FIR5, self.SPACE, cache=tmp_path)
        result = hill_climb(FIR5, self.SPACE, seed=1, cache=tmp_path)
        assert result.stats.evaluated == 0  # every point pre-cached
        assert result.stats.cached == result.stats.unique

    def test_hill_climb_compiles_each_frontend_once(self, monkeypatch):
        """Every step of a climb sweeps the same program: the climb
        keeps one frontend memo, so across all steps and restarts the
        program compiles once and its balanced frontend is derived
        once, and the records are those of points evaluated one by
        one."""
        import repro.dse.runner as runner
        compiled, derived = [], []
        compile_frontend = runner.compile_frontend
        balance_frontend = runner.balance_frontend

        def compiling(source, **spec):
            compiled.append(spec)
            return compile_frontend(source, **spec)

        def deriving(plain, **options):
            derived.append(plain)
            return balance_frontend(plain, **options)

        space = DesignSpace({"n_pps": [1, 2, 3, 5], "n_buses": [2, 4],
                             "balance": [False, True]})
        monkeypatch.setattr(runner, "compile_frontend", compiling)
        monkeypatch.setattr(runner, "balance_frontend", deriving)
        result = hill_climb(FIR5, space, seed=1, restarts=2,
                            verify_seed=1)
        assert result.stats.evaluated > 2
        assert len(compiled) == len(derived) == 1
        monkeypatch.undo()
        for record in result.records:
            point = DesignPoint.from_dict(record["point"])
            alone = run_sweep(FIR5, [point], workers=1, verify_seed=1)
            assert alone.records == [record]

    def test_hill_climb_resamples_infeasible_starts(self):
        """A space with sparse feasibility (n_pps/n_buses 0 points
        fail at evaluation) used to burn the whole restart on one
        infeasible sample; now the restart resamples and climbs."""
        space = DesignSpace({"n_pps": [0, 5], "n_buses": [0, 10]})
        # seed=1 samples the doubly-infeasible corner first.
        assert space.random_point(seed=1).assignment()["n_pps"] == 0
        result = hill_climb(FIR5, space, seed=1, restarts=1,
                            objectives=("cycles",))
        assert result.best is not None
        assert result.best["ok"]
        notes = [step for step in result.history
                 if step.get("note") == "infeasible start"]
        assert notes  # the bad sample is on record, then resampled

    def test_hill_climb_fully_infeasible_space_terminates(self):
        from repro.dse.search import MAX_START_RESAMPLES
        space = DesignSpace({"n_pps": [0, -1]})
        result = hill_climb(FIR5, space, seed=0, restarts=2,
                            objectives=("cycles",))
        assert result.best is None
        # Bounded: at most 1 + MAX_START_RESAMPLES samples/restart.
        assert len(result.history) <= 2 * (1 + MAX_START_RESAMPLES)
