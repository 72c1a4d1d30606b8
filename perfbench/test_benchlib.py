"""Tests for the benchmark's own arithmetic and span wrappers.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

import pathlib
import sys
import threading

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent
                       / "src"))

from benchlib import (  # noqa: E402
    MIN_TAIL,
    REFERENCE_S,
    Clock,
    Ledger,
    Span,
    SpanRecorder,
    attribution_gaps,
    attribution_holds,
    covered,
    geomean,
    percentile,
    samples_for,
    self_times,
    tail_percentile,
)


class TestPercentiles:
    def test_nearest_rank(self):
        samples = list(range(1, 101))
        assert percentile(samples, 50) == 50
        assert percentile(samples, 90) == 90
        assert percentile(reversed(samples), 90) == 90
        assert percentile([7.0], 50) == 7.0

    def test_tail_needs_ten_samples_beyond(self):
        assert samples_for(90) == 100
        assert samples_for(99) == 1000
        assert tail_percentile(list(range(100)), 90) == 89
        with pytest.raises(ValueError, match="need 10"):
            tail_percentile(list(range(99)), 90)
        with pytest.raises(ValueError):
            tail_percentile([], 90)

    def test_samples_for_is_the_smallest_accepted(self):
        for q in (50, 75, 90, 95):
            n = samples_for(q)
            tail_percentile(list(range(n)), q)
            with pytest.raises(ValueError):
                tail_percentile(list(range(n - 1)), q)
            assert n - percentile(range(1, n + 1), q) == MIN_TAIL

    def test_no_samples(self):
        with pytest.raises(ValueError):
            percentile([], 50)


class TestGeomean:
    def test_values(self):
        assert geomean([1, 100]) == pytest.approx(10.0)
        assert geomean([5.0]) == pytest.approx(5.0)
        assert geomean(iter([2, 8])) == pytest.approx(4.0)

    def test_rejects_empty_and_non_positive(self):
        with pytest.raises(ValueError):
            geomean([])
        with pytest.raises(ValueError):
            geomean([3, 0])
        with pytest.raises(ValueError):
            geomean([3, -1])


class TestLedger:
    def test_fail_frac_accounting(self):
        ledger = Ledger()
        assert ledger.fail_frac == 0.0
        for index in range(8):
            ledger.attempt()
            if index % 4 == 0:
                ledger.fail(f"op {index}")
        assert (ledger.attempted, ledger.failed) == (8, 2)
        assert ledger.fail_frac == 0.25
        assert ledger.reasons == ["op 0", "op 4"]

    def test_reasons_are_capped(self):
        ledger = Ledger()
        for index in range(20):
            ledger.attempt()
            ledger.fail(str(index))
        assert ledger.failed == 20
        assert ledger.fail_frac == 1.0
        assert len(ledger.reasons) == 5


class TestSelfTime:
    def test_covered(self):
        assert covered([]) == 0.0
        assert covered([(0, 2), (5, 6)]) == 3.0
        assert covered([(0, 10), (2, 3)]) == 10.0
        assert covered([(0, 4), (3, 6)]) == 6.0

    def test_nested_spans(self):
        spans = [Span(0, "outer", 0.0, 10.0, None, 1),
                 Span(1, "middle", 2.0, 5.0, 0, 1),
                 Span(2, "inner", 3.0, 4.0, 1, 1),
                 Span(3, "middle", 6.0, 7.0, 0, 1)]
        own = self_times(spans)
        assert own == pytest.approx({0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0})
        # Self times of a properly nested tree add up to the root.
        assert sum(own.values()) == pytest.approx(10.0)

    def test_overlapping_children_are_not_subtracted_twice(self):
        spans = [Span(0, "parent", 0.0, 10.0, None, 1),
                 Span(1, "child", 1.0, 6.0, 0, 2),
                 Span(2, "child", 4.0, 8.0, 0, 3)]
        assert self_times(spans)[0] == pytest.approx(3.0)

    def test_children_are_clipped_to_the_parent(self):
        spans = [Span(0, "parent", 0.0, 10.0, None, 1),
                 Span(1, "child", 8.0, 12.0, 0, 2),
                 Span(2, "child", 11.0, 13.0, 0, 2)]
        assert self_times(spans)[0] == pytest.approx(8.0)


class TestAttribution:
    #: Two threads, each with properly nested spans and two top-level
    #: calls.
    NESTED = [Span(0, "outer", 0.0, 10.0, None, 1),
              Span(1, "middle", 2.0, 5.0, 0, 1),
              Span(2, "inner", 3.0, 4.0, 1, 1),
              Span(3, "outer", 12.0, 13.0, None, 1),
              Span(4, "outer", 1.0, 6.0, None, 2),
              Span(5, "inner", 2.0, 3.0, 4, 2)]

    def test_nested_spans_add_up(self):
        assert attribution_gaps(self.NESTED) == pytest.approx(
            {1: 0.0, 2: 0.0})
        assert attribution_holds(self.NESTED)
        assert attribution_holds([])

    def test_a_span_recorded_twice_fails(self):
        spans = self.NESTED + [self.NESTED[2]]
        assert attribution_gaps(spans)[1] == pytest.approx(1.0)
        assert not attribution_holds(spans)

    def test_a_child_outliving_its_parent_fails(self):
        spans = self.NESTED[:2] + [Span(2, "inner", 3.0, 7.0, 1, 1)]
        assert attribution_gaps(spans)[1] == pytest.approx(2.0)
        assert not attribution_holds(spans)

    def test_a_parent_from_another_thread_fails(self):
        spans = self.NESTED[:3] + [Span(3, "inner", 6.0, 7.0, 0, 2)]
        gaps = attribution_gaps(spans)
        assert gaps[1] == pytest.approx(-1.0)
        assert gaps[2] == pytest.approx(1.0)
        assert not attribution_holds(spans)


class TestRecorder:
    def test_wrapped_calls_nest_and_count(self):
        recorder = SpanRecorder()

        def leaf(values):
            return sorted(values)

        wrapped_leaf = recorder.wrap(
            "leaf", leaf, before=lambda args: len(args[0]),
            observe=lambda args, result, before: {"items": before})

        def root():
            return [wrapped_leaf([3, 1, 2]), wrapped_leaf([5])]

        assert recorder.wrap("root", root)() == [[1, 2, 3], [5]]
        by_name = {span.name: span for span in recorder.spans}
        leaves = [span for span in recorder.spans if span.name == "leaf"]
        assert [span.parent for span in leaves] == [by_name["root"].id] * 2
        assert by_name["root"].parent is None
        assert recorder.counts == {"items": 4}
        assert recorder.calls_by_name() == {"leaf": 2, "root": 1}
        root_span = by_name["root"]
        attributed = recorder.top_level_by_thread()
        assert attributed[root_span.thread] == pytest.approx(
            root_span.end - root_span.start)
        assert attribution_holds(recorder.spans)

    def test_parents_are_per_thread(self):
        recorder = SpanRecorder()
        started = threading.Event()
        release = threading.Event()

        def hold():
            started.set()
            release.wait(5)

        def other():
            started.wait(5)
            recorder.wrap("other", lambda: None)()
            release.set()

        thread = threading.Thread(target=other)
        thread.start()
        recorder.wrap("hold", hold)()
        thread.join(5)
        assert not thread.is_alive()
        other_span = next(span for span in recorder.spans
                          if span.name == "other")
        assert other_span.parent is None

    def test_exceptions_still_close_the_span(self):
        recorder = SpanRecorder()

        def boom():
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            recorder.wrap("boom", boom)()
        assert [span.name for span in recorder.spans] == ["boom"]
        recorder.wrap("after", lambda: None)()
        assert recorder.spans[-1].parent is None


class TestClock:
    def test_scale_averages_the_samples_in_the_window(self):
        clock = Clock()
        clock.times = [1.0, 2.0, 3.0, 9.0]
        clock.costs = [REFERENCE_S, 2 * REFERENCE_S, 2 * REFERENCE_S,
                       4 * REFERENCE_S]
        assert clock.scale(1.5, 3.5) == pytest.approx(0.5)
        assert clock.scale(0.0, 3.0) == pytest.approx(0.6)

    def test_scale_falls_back_to_the_nearest_sample(self):
        clock = Clock()
        clock.times = [1.0, 9.0]
        clock.costs = [REFERENCE_S, 4 * REFERENCE_S]
        assert clock.scale(2.0, 3.0) == pytest.approx(1.0)
        assert clock.scale(7.0, 8.0) == pytest.approx(0.25)
        assert clock.scale(10.0, 11.0) == pytest.approx(0.25)
        with pytest.raises(ValueError):
            Clock().scale(0.0, 1.0)

    def test_time_scales_by_the_yardstick_around_the_call(self):
        clock = Clock()
        result, elapsed = clock.time(sorted, [3, 1, 2])
        assert result == [1, 2, 3]
        assert elapsed > 0
        assert len(clock.costs) == 2

    def test_unscaled_clock_runs_no_yardstick(self):
        clock = Clock(scaled=False)
        result, elapsed = clock.time(lambda: 7)
        assert result == 7 and elapsed >= 0
        assert clock.costs == [] and clock.scale(0.0, 1.0) == 1.0


def test_layers_wrap_a_real_mapping_and_restore_every_name():
    import repro.core.pipeline as pipeline
    from repro.core.taskgraph import TaskGraph
    from repro.dse.cache import ResultCache

    from layers import Layers, layer_metrics
    from workloads import map_program

    originals = (pipeline.allocate, vars(TaskGraph)["from_cdfg"],
                 vars(ResultCache)["get"])
    layers = Layers()
    with layers.installed() as recorder:
        assert pipeline.allocate is not originals[0]
        map_program("void main() { x = a * b + c; }", 1)
    assert (pipeline.allocate, vars(TaskGraph)["from_cdfg"],
            vars(ResultCache)["get"]) == originals
    names = set(recorder.calls_by_name())
    assert {"lang.parse", "transforms.simplify", "core.taskgraph",
            "core.cluster", "core.schedule", "core.allocate",
            "cdfg.interp", "arch.simulate", "eval.metrics"} <= names
    figures = layer_metrics(recorder, records=1)
    assert figures["lang.calls"] == 1
    assert figures["core.tasks"] >= 1
    assert figures["core.allocate_ms"] > 0


def test_traced_slices_give_every_mode_the_same_inputs():
    import repro.core.pipeline as pipeline
    from repro.obs import trace

    from workloads import MODES, Slices

    def current_mode():
        if trace.enabled():
            return "program"
        return "spans" if hasattr(pipeline.allocate, "__wrapped__") \
            else "plain"

    slices = Slices(traced=True)
    rounds: dict[int, list] = {}
    assert not slices.complete
    for __ in range(3 * len(MODES)):
        inputs = slices.inputs
        with slices.next() as tally:
            rounds.setdefault(inputs, []).append(current_mode())
            tally[0] = 1
        assert slices.complete == (slices.count % len(MODES) == 0)
    assert current_mode() == "plain"
    assert sorted(rounds) == [0, 1, 2]
    assert all(sorted(modes) == sorted(MODES) for modes in rounds.values())
    # No mode runs first in every round.
    assert len({modes[0] for modes in rounds.values()}) == len(MODES)
    assert slices.records == dict.fromkeys(MODES, 3)

    untraced = Slices(traced=False)
    for index in range(2):
        assert untraced.complete and untraced.inputs == index
        with untraced.next():
            assert current_mode() == "plain"
