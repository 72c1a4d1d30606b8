"""The per-frontend backend memo: what the points of a sweep share.

A :class:`Frontend` keeps its task graph, one clustering per template
library and one schedule per (library, level capacity); its pristine
graph keeps the verification reference per (seed, input addresses),
shared by the plain frontend and the balanced one derived from it.
These tests pin the memos' hygiene: they never travel with a pickled
frontend, they stay bounded under many verify seeds, they never hide
a wrong program at one point, and racing fills from threads store
only whole results.  They also pin the derivation itself: a balanced
frontend numbers its nodes exactly as balancing the plain graph in
place would, and a sweep over ``balance`` parses each program and
runs each reference once.
"""

from __future__ import annotations

import pickle
import sys
import threading
import time

import pytest

from repro.arch.params import TileParams
from repro.arch.templates import TemplateLibrary
from repro.cdfg.builder import build_main_cdfg
from repro.cdfg.graph import Graph
from repro.cdfg.interp import Interpreter
from repro.core import pipeline
from repro.core.pipeline import (
    REFERENCES_KEPT,
    compile_frontend,
    map_frontend,
    random_input_state,
    verify_mapping,
    verify_seeded,
)
from repro.dse import runner
from repro.dse.runner import (
    FrontendMemo,
    evaluate_point,
    frontend_spec,
    run_chunk_job,
    run_sweep,
)
from repro.dse.space import DesignSpace
from repro.eval.kernels import KERNELS, get_kernel
from repro.transforms.pipeline import simplify as run_simplify
from repro.transforms.reassociate import balance

from tests.test_frontend_identity import LARGE

FIR16 = get_kernel("fir16").source

#: Eight points that all share one frontend (width and balance fixed).
POINTS = DesignSpace({"n_pps": [1, 2, 4, 8],
                      "library": ["two-level", "mac"]}).grid()


def shared_frontend():
    return compile_frontend(FIR16, width=POINTS[0].tile_params().width)


def reference_seeds(frontend) -> list:
    """The seeds of the references *frontend*'s pristine graph keeps,
    oldest first."""
    return [seed for seed, __ in frontend.original._references]


def test_a_sweep_leaves_the_frontend_pickle_unchanged():
    memo = FrontendMemo()
    frontend = memo.frontend(FIR16, frontend_spec(POINTS[0]))
    before = pickle.dumps(frontend)
    records, __ = run_chunk_job(
        FIR16, [(str(index), point) for index, point in enumerate(POINTS)],
        1, None, memo)
    assert all(record["verified"] for record in records.values())
    assert frontend._memo, "the sweep did not use the shared frontend"
    assert pickle.dumps(frontend) == before
    assert pickle.loads(before)._memo == {}


def test_the_memo_shares_one_artifact_per_key():
    frontend = shared_frontend()
    reports = [map_frontend(frontend, point.tile_params(),
                            point.template_library())
               for point in POINTS]
    assert len({id(report.taskgraph) for report in reports}) == 1
    assert len({id(report.clustered) for report in reports}) == 2
    # capacity min(n_pps, n_buses=10) is 1, 2, 4 or 8 per library
    assert len({id(report.schedule) for report in reports}) == 8
    for report in reports:
        verify_seeded(frontend, report, 3)
    assert reference_seeds(frontend) == [3]


def test_capacities_past_the_cluster_count_share_one_schedule():
    """A daemon may be sent any ``pps``; past the cluster count the
    schedule cannot change, so the memo keeps one for all of them."""
    source = get_kernel("fir5").source
    frontend = compile_frontend(source)
    tiles = [TileParams(n_pps=pps, n_buses=buses)
             for pps, buses in ((12, 12), (16, 20), (40, 30))]
    reports = [map_frontend(frontend, params) for params in tiles]
    assert reports[0].n_clusters < 12
    assert len({id(report.schedule) for report in reports}) == 1
    assert [key[0] for key in frontend._memo].count("schedule") == 1
    for report, params in zip(reports, tiles):
        fresh = map_frontend(compile_frontend(source), params)
        assert report.schedule.table() == fresh.schedule.table()
        assert report.program.listing() == fresh.program.listing()


def test_the_reference_memo_stays_bounded_under_many_seeds():
    point = POINTS[1]
    memo = FrontendMemo()
    frontend = memo.frontend(FIR16, frontend_spec(point))
    for seed in range(50):
        record = evaluate_point(FIR16, point, seed, memo=memo)
        assert record["ok"] and record["verified"], record
    assert reference_seeds(frontend) == list(
        range(50 - REFERENCES_KEPT, 50))
    # the task graph, one clustering, its mobility and one schedule
    assert len(frontend._memo) == 4


def test_a_clustering_computes_its_mobility_once(monkeypatch):
    """Single-tile schedules at several capacities and the array
    scheduler of multi-tile points all read one mobility per
    clustering."""
    calls = []
    mobility = pipeline.cluster_mobility

    def counting(graph):
        calls.append(graph)
        return mobility(graph)

    monkeypatch.setattr(pipeline, "cluster_mobility", counting)
    points = DesignSpace({"n_pps": [1, 2, 4], "tiles": [1, 2, 3],
                          "library": ["two-level", "mac"]}).grid()
    result = run_sweep(FIR16, points, workers=1, verify_seed=1)
    assert all(record["ok"] for record in result.records)
    assert len(calls) == 2
    assert len({id(graph) for graph in calls}) == 2


def test_seeded_verification_equals_verify_mapping():
    frontend = shared_frontend()
    report = map_frontend(frontend, TileParams(n_pps=2))
    for seed in (0, 7, 7):
        assert verify_seeded(frontend, report, seed) == verify_mapping(
            report, random_input_state(report, seed))


def test_seeded_verification_rejects_a_foreign_report():
    report = map_frontend(shared_frontend(), TileParams())
    with pytest.raises(ValueError, match="not mapped from this frontend"):
        verify_seeded(shared_frontend(), report, 1)


def test_a_planted_wrong_program_fails_exactly_its_record(monkeypatch):
    """One point's program swaps where two outputs end up; the sweep
    shares the reference run, yet that point alone fails."""
    planted = POINTS[5]
    map_point = runner.map_frontend

    def corrupting(frontend, params, library, **options):
        report = map_point(frontend, params, library, **options)
        if (params, library) == (planted.tile_params(),
                                 planted.template_library()):
            layout = report.program.output_layout
            first, second = sorted(layout)[:2]
            layout[first], layout[second] = layout[second], layout[first]
        return report

    monkeypatch.setattr(runner, "map_frontend", corrupting)
    records = run_sweep(FIR16, POINTS, workers=1, verify_seed=1).records
    failed = [index for index, record in enumerate(records)
              if not record["ok"]]
    assert failed == [5]
    assert records[5]["error"].startswith("VerificationError: ")
    assert all(record["verified"] for index, record in enumerate(records)
               if index != 5)


def test_racing_fills_store_only_whole_results(monkeypatch):
    """Threads mapping one fresh frontend at once (the thread-mode
    daemon's shape) each compute a missing artifact in full and the
    first store wins: no thread sees a placeholder, all share one
    object per key, and the references stay within their bound while
    every thread verifies under its own seeds."""
    frontend = shared_frontend()
    library = TemplateLibrary.two_level()
    key = ("cluster", library)
    cluster_tasks = pipeline.cluster_tasks
    seen_partial = []

    def slow(taskgraph, lib):
        seen_partial.append(key in frontend._memo)
        time.sleep(0.05)
        return cluster_tasks(taskgraph, lib)

    monkeypatch.setattr(pipeline, "cluster_tasks", slow)
    n_threads = 6
    barrier = threading.Barrier(n_threads)
    reports = [None] * n_threads

    def job(index):
        barrier.wait()
        report = map_frontend(frontend, TileParams(n_pps=2), library)
        for seed in range(index, index + 8):
            verify_seeded(frontend, report, seed)
        reports[index] = report

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=job, args=(index,))
                   for index in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert seen_partial and not any(seen_partial)
    assert all(report.clustered is frontend._memo[key]
               for report in reports)
    assert len({id(report.schedule) for report in reports}) == 1
    assert len(reference_seeds(frontend)) == REFERENCES_KEPT
    serial = map_frontend(shared_frontend(), TileParams(n_pps=2), library)
    assert all(report.program.listing() == serial.program.listing()
               for report in reports)


# -- balanced frontends derive from the plain one -------------------------

def graph_dump(graph: Graph):
    """Every node as stored, in table order, with the graph's next id:
    equal dumps mean equal ids, payloads, wiring and numbering."""
    return (graph.next_id,
            [(node.id, node.kind, node.inputs, node.value, node.name,
              node.n_outputs, [graph_dump(body) for body in node.bodies])
             for node in graph.nodes.values()])


SOURCES = {**{kernel.name: kernel.source for kernel in KERNELS}, **LARGE}


@pytest.mark.parametrize("simplify", [True, False],
                         ids=["simplify", "raw"])
@pytest.mark.parametrize("width", [16, None])
@pytest.mark.parametrize("name", SOURCES)
def test_a_balanced_frontend_equals_balancing_in_place(name, width,
                                                       simplify):
    """The derived balanced frontend is node for node, ids and next id
    included, what simplifying, balancing and simplifying again one
    working copy of the parsed program gives."""
    source = SOURCES[name]
    working = build_main_cdfg(source).clone()
    stats = run_simplify(working, width=width) if simplify else None
    balance(working)
    if simplify:
        run_simplify(working, width=width)
    frontend = compile_frontend(source, width=width, simplify=simplify,
                                balance=True)
    assert graph_dump(frontend.minimised) == graph_dump(working)
    assert frontend.pass_stats == stats
    assert graph_dump(frontend.original) \
        == graph_dump(build_main_cdfg(source))


def test_a_derived_frontend_shares_the_plain_one_and_leaves_it_alone():
    """A balanced lookup compiles and keeps the plain frontend first;
    the plain lookup after it is a hit, and its graph is the one a
    plain compile gives."""
    memo = FrontendMemo()
    balanced = memo.frontend(FIR16, (16, True, True))
    plain = memo.frontend(FIR16, (16, True, False))
    assert (memo.compiled, memo.reused) == (1, 1)
    assert graph_dump(plain.minimised) \
        == graph_dump(compile_frontend(FIR16, width=16).minimised)
    assert balanced.original is plain.original
    assert balanced.pass_stats is plain.pass_stats
    assert balanced.source is plain.source
    assert balanced.minimised is not plain.minimised
    assert set(balanced.timings) == {"parse", "transforms"}


@pytest.fixture
def counted(monkeypatch):
    """Counts parses (``pipeline.build_main_cdfg``), reference runs
    (``Interpreter.run``) and compiles (``runner.compile_frontend``)."""
    calls = {"parse": 0, "interpret": 0, "compile": 0}

    def counting(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(pipeline, "build_main_cdfg",
                        counting("parse", pipeline.build_main_cdfg))
    monkeypatch.setattr(Interpreter, "run",
                        counting("interpret", Interpreter.run))
    monkeypatch.setattr(runner, "compile_frontend",
                        counting("compile", runner.compile_frontend))
    return calls


BALANCED_POINTS = DesignSpace({"n_pps": [1, 2, 4],
                               "balance": [False, True]}).grid()


def test_a_sweep_over_balance_parses_and_interprets_once_per_seed(
        counted):
    memo = FrontendMemo()
    swept = {seed: run_sweep(FIR16, BALANCED_POINTS, workers=1,
                             verify_seed=seed, memo=memo).records
             for seed in (1, 2)}
    assert counted["parse"] == 1
    assert counted["interpret"] == 2
    # one count per lookup: a miss per frontend, a hit per other point
    assert (memo.compiled, memo.reused) == (2, 10)
    for seed, records in swept.items():
        assert all(record["verified"] for record in records)
        assert records == [evaluate_point(FIR16, point, seed)
                           for point in BALANCED_POINTS]


def test_references_stay_bounded_over_a_plain_and_a_derived_frontend():
    memo = FrontendMemo()
    plain_point, balanced_point = BALANCED_POINTS[:2]
    assert frontend_spec(balanced_point)[2]
    for seed in range(20):
        for point in (plain_point, balanced_point):
            record = evaluate_point(FIR16, point, seed, memo=memo)
            assert record["ok"] and record["verified"], record
    plain = memo.frontend(FIR16, frontend_spec(plain_point))
    assert memo.frontend(FIR16, frontend_spec(balanced_point)).original \
        is plain.original
    assert reference_seeds(plain) == list(range(20 - REFERENCES_KEPT, 20))


def test_a_bad_source_swept_over_balance_compiles_once(counted):
    bad = "void main() { x = ; }"
    result = run_sweep(bad, BALANCED_POINTS, workers=1)
    assert counted["compile"] == counted["parse"] == 1
    alone = evaluate_point(bad, BALANCED_POINTS[1])["error"]
    assert alone.startswith("ParseError: ")
    assert [record["error"] for record in result.records] \
        == [alone] * len(BALANCED_POINTS)
