"""Integration tests: the complete flow on the whole kernel suite."""

import pytest

from repro.arch.params import TileParams
from repro.arch.templates import TemplateLibrary
from repro.cdfg.statespace import StateSpace
from repro.core.pipeline import (
    VerificationError,
    map_source,
    verify_mapping,
)
from repro.eval.kernels import KERNELS, get_kernel


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.name)
def test_kernel_maps_and_verifies(kernel):
    report = map_source(kernel.source)
    for seed in (0, 1):
        verify_mapping(report, kernel.initial_state(seed))


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.name)
def test_kernel_respects_simulator_limits(kernel):
    from repro.arch.simulator import simulate
    report = map_source(kernel.source)
    simulate(report.program, kernel.initial_state(0))


@pytest.mark.parametrize("library_name", ["single-op", "two-level",
                                          "mac"])
def test_all_template_libraries_work(library_name):
    kernel = get_kernel("fir5")
    library = TemplateLibrary.stock()[library_name]
    report = map_source(kernel.source, library=library)
    verify_mapping(report, kernel.initial_state(0))


def test_clustering_reduces_levels_vs_single_op():
    kernel = get_kernel("fir16")
    single = map_source(kernel.source,
                        library=TemplateLibrary.single_op())
    two_level = map_source(kernel.source,
                           library=TemplateLibrary.two_level())
    assert two_level.n_clusters < single.n_clusters
    assert two_level.n_cycles <= single.n_cycles


@pytest.mark.parametrize("n_pps", [1, 2, 3, 5, 8])
def test_pp_count_sweep(n_pps):
    kernel = get_kernel("dot8")
    report = map_source(kernel.source, TileParams(n_pps=n_pps))
    verify_mapping(report, kernel.initial_state(0))


@pytest.mark.parametrize("n_buses", [2, 3, 5, 10, 20])
def test_bus_count_sweep(n_buses):
    kernel = get_kernel("cmul4")
    report = map_source(kernel.source, TileParams(n_buses=n_buses))
    verify_mapping(report, kernel.initial_state(0))


def test_sixteen_bit_tile():
    kernel = get_kernel("fir16")
    report = map_source(kernel.source, TileParams(width=16))
    verify_mapping(report, kernel.initial_state(3))


def test_more_pps_never_slower():
    kernel = get_kernel("fft4")
    cycles = [map_source(kernel.source,
                         TileParams(n_pps=n)).n_cycles
              for n in (1, 2, 5)]
    assert cycles[0] >= cycles[1] >= cycles[2]


def test_report_metrics_consistent():
    kernel = get_kernel("matmul3")
    report = map_source(kernel.source)
    assert report.n_clusters <= report.n_tasks
    assert report.n_levels >= report.schedule.critical_path
    assert report.n_cycles >= report.n_levels
    assert 0 < report.program.alu_utilisation() <= 1
    assert report.speedup_vs_serial > 1
    summary = report.summary()
    assert "clusters" in summary and "cycles" in summary


def test_verification_catches_tampering():
    kernel = get_kernel("fir5")
    report = map_source(kernel.source)
    # corrupt one ALU operation
    for cycle in report.program.cycles:
        if cycle.alu_configs:
            config = cycle.alu_configs[0]
            from repro.cdfg.ops import OpKind
            config.ops = tuple(
                OpKind.SUB if op is OpKind.ADD else
                (OpKind.ADD if op is OpKind.MUL else op)
                for op in config.ops)
            break
    with pytest.raises(VerificationError):
        verify_mapping(report, kernel.initial_state(0))


def test_verification_checks_function_outputs():
    report = map_source("int main() { return a[0] * 2; }")
    state = StateSpace().store_array("a", [21])
    verify_mapping(report, state)


def test_function_with_parameters_maps():
    from repro.cdfg.builder import build_cdfg
    from repro.core.pipeline import map_graph
    from repro.lang.parser import parse_program
    program = parse_program(
        "int poly(int x) { return (x * x + 3) * x + 7; }")
    graph = build_cdfg(program, "poly")
    report = map_graph(graph)
    final = verify_mapping(report, inputs={"x": 5})
    assert final.fetch("__out_return") == (25 + 3) * 5 + 7


def test_unmapped_simplify_disabled():
    # simplify=False on an already-flat program still works
    report = map_source("void main() { x = p + q; }", simplify=False)
    verify_mapping(report, StateSpace({"p": 1, "q": 2}))


def test_pass_stats_present_by_default():
    report = map_source("void main() { x = 1 + 2; }")
    assert report.pass_stats is not None
    assert report.pass_stats.rounds >= 1


class TestFrontendBackendSplit:
    """compile_frontend / map_frontend compose to exactly map_source."""

    def test_shared_frontend_reproduces_map_source(self):
        from repro.core.pipeline import compile_frontend, map_frontend

        kernel = get_kernel("fir5")
        frontend = compile_frontend(kernel.source)
        for params in (TileParams(), TileParams(n_pps=2, n_buses=4)):
            split = map_frontend(frontend, params)
            direct = map_source(kernel.source, params)
            assert split.program.listing() == direct.program.listing()
            assert split.n_cycles == direct.n_cycles
            verify_mapping(split, kernel.initial_state(0))

    def test_width_mismatch_rejected(self):
        from repro.core.pipeline import compile_frontend, map_frontend

        frontend = compile_frontend(get_kernel("fir5").source,
                                    width=None)
        with pytest.raises(ValueError, match="width"):
            map_frontend(frontend, TileParams(width=16))

    def test_backend_does_not_mutate_frontend(self):
        from repro.core.pipeline import compile_frontend, map_frontend

        frontend = compile_frontend(get_kernel("fir5").source)
        before = frontend.minimised.version
        node_ids = sorted(frontend.minimised.nodes)
        map_frontend(frontend, TileParams())
        map_frontend(frontend, TileParams(n_pps=1))
        assert frontend.minimised.version == before
        assert sorted(frontend.minimised.nodes) == node_ids

    def test_report_carries_stage_timings(self):
        kernel = get_kernel("fir5")
        report = map_source(kernel.source)
        for stage in ("parse", "transforms", "taskgraph", "cluster",
                      "schedule", "allocate"):
            assert report.timings.get(stage, -1.0) >= 0.0
        assert "multitile" not in report.timings
        assert "verify" not in report.timings
        verify_mapping(report, kernel.initial_state())
        assert report.timings.get("verify", -1.0) > 0.0

    def test_failed_verification_is_timed_too(self):
        report = map_source("void main() { x = 1; }")
        report.original = map_source("void main() { x = 2; }").original
        with pytest.raises(VerificationError):
            verify_mapping(report)
        assert report.timings.get("verify", -1.0) > 0.0

    def test_multitile_stage_timed_when_enabled(self):
        from repro.arch.tilearray import TileArrayParams

        report = map_source(get_kernel("fir5").source,
                            array=TileArrayParams(n_tiles=2))
        assert report.timings.get("multitile", -1.0) >= 0.0
