"""The perf gate's verdict on synthetic ``perfbench/run.py`` result
lines: medians of paired runs compared within each metric's bound, in
the direction the metric improves, with failed ops and missing metrics
failing the gate."""

from tools.perf_gate import compare, layer_table

LOWER = {"name": "latency_ms_p50", "better": "lower", "bound": 0.2}
HIGHER = {"name": "records_per_s", "better": "higher", "bound": 0.2}


def result(failed=0, **values):
    """One result line as ``perfbench/run.py`` prints it."""
    return {"correct": not failed, "attempted": 100, "failed": failed,
            "metrics": {name: {"value": value, "unit": "x"}
                        for name, value in values.items()}}


def runs(metric, *values, **extra):
    return [result(**{metric["name"]: value}, **extra)
            for value in values]


def verdict(metric, parent, change):
    return compare([metric], parent, change)[1]


def test_lower_is_better_fails_only_above_its_bound():
    parent = runs(LOWER, 100.0, 100.0, 100.0)
    assert verdict(LOWER, parent, runs(LOWER, 120.0, 120.0, 120.0)) == []
    assert verdict(LOWER, parent, runs(LOWER, 50.0, 50.0, 50.0)) == []
    failures = verdict(LOWER, parent, runs(LOWER, 120.01, 120.01, 120.01))
    assert len(failures) == 1 and "latency_ms_p50" in failures[0]


def test_higher_is_better_fails_only_below_its_bound():
    parent = runs(HIGHER, 50.0, 50.0, 50.0)
    assert verdict(HIGHER, parent, runs(HIGHER, 40.0, 40.0, 40.0)) == []
    assert verdict(HIGHER, parent, runs(HIGHER, 90.0, 90.0, 90.0)) == []
    failures = verdict(HIGHER, parent, runs(HIGHER, 39.99, 39.99, 39.99))
    assert len(failures) == 1 and "records_per_s" in failures[0]


def test_rows_carry_medians_and_the_worsening_share():
    rows, failures = compare([LOWER], runs(LOWER, 90.0, 100.0, 130.0),
                             runs(LOWER, 110.0, 60.0, 120.0))
    assert failures == []
    [(name, old, new, share, bound, ok)] = rows
    assert (name, old, new, bound, ok) == ("latency_ms_p50", 100.0, 110.0,
                                           0.2, True)
    assert abs(share - 0.1) < 1e-12


def test_a_failed_op_on_the_change_side_fails_every_better_timing():
    parent = runs(HIGHER, 50.0, 50.0, 50.0)
    change = runs(HIGHER, 80.0, 80.0, 80.0)
    change[1]["failed"] = 1
    failures = verdict(HIGHER, parent, change)
    assert len(failures) == 1 and "failed" in failures[0]


def test_equal_failure_shares_do_not_fail():
    parent = runs(HIGHER, 50.0, 50.0, failed=1)
    change = runs(HIGHER, 50.0, 50.0, failed=1)
    assert verdict(HIGHER, parent, change) == []


def test_a_metric_missing_from_a_result_fails_loudly():
    parent = runs(LOWER, 100.0, 100.0, 100.0)
    change = runs(LOWER, 100.0, 100.0) + [result(other=1.0)]
    rows, failures = compare([LOWER], parent, change)
    assert rows == []
    assert failures == ["latency_ms_p50 missing from change run(s) [3]"]
    rows, failures = compare([LOWER], [], change[:2])
    assert failures == ["latency_ms_p50 missing from parent run(s) all"]


def test_one_outlier_pair_cannot_fail_a_median():
    parent = runs(LOWER, 100.0, 101.0, 99.0, 100.0, 100.0)
    change = runs(LOWER, 100.0, 1000.0, 99.0, 101.0, 100.0)
    assert verdict(LOWER, parent, change) == []
    parent = runs(HIGHER, 50.0, 50.0, 51.0, 49.0, 50.0)
    change = runs(HIGHER, 50.0, 0.5, 51.0, 49.0, 50.0)
    assert verdict(HIGHER, parent, change) == []


def test_layer_table_lists_what_moved_timings_first_by_ms():
    layers = [{"name": "a_ms", "unit": "ms/record"},
              {"name": "b_ms", "unit": "ms/record"},
              {"name": "calls", "unit": "count/call"},
              {"name": "idle_ms", "unit": "ms/record"},
              {"name": "same", "unit": "ratio"}]
    parent = result(a_ms=1.0, b_ms=2.0, calls=3.0, idle_ms=0.0, same=0.5)
    change = result(a_ms=1.1, b_ms=4.0, calls=4.0, idle_ms=0.0, same=0.5)
    names = [line.split("`")[1]
             for line in layer_table(layers, parent, change)[2:]]
    assert names == ["b_ms", "a_ms", "calls"]
