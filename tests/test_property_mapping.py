"""Property-based fuzzing of the mapper across tile configurations.

Random statically-indexed programs are mapped onto random tiles
(varying PP count, crossbar width, register depth, staging window)
and every resulting program must execute on the fully-checked
simulator with the interpreter's exact results.  This is the widest
net over the allocator's resource bookkeeping.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.arch.params import TileParams
from repro.arch.templates import TemplateLibrary
from repro.cdfg.builder import build_main_cdfg
from repro.core.pipeline import map_graph, verify_mapping

from tests.test_property import random_initial_state, random_source


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(program_seed=st.integers(0, 10_000),
       state_seed=st.integers(0, 500),
       n_pps=st.integers(1, 6),
       n_buses=st.integers(1, 12),
       regs=st.integers(1, 4),
       window=st.integers(1, 4))
def test_random_program_random_tile_verifies(program_seed, state_seed,
                                             n_pps, n_buses, regs,
                                             window):
    source = random_source(program_seed, static_only=True)
    params = TileParams(n_pps=n_pps, n_buses=n_buses,
                        regs_per_bank=regs)
    graph = build_main_cdfg(source)
    report = map_graph(graph, params, stage_window=window)
    verify_mapping(report, random_initial_state(state_seed))


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(program_seed=st.integers(0, 10_000),
       state_seed=st.integers(0, 500),
       library_name=st.sampled_from(["single-op", "two-level", "mac"]),
       balance=st.booleans())
def test_random_program_any_templates_verifies(program_seed, state_seed,
                                               library_name, balance):
    source = random_source(program_seed, static_only=True)
    library = TemplateLibrary.stock()[library_name]
    graph = build_main_cdfg(source)
    report = map_graph(graph, library=library, balance=balance)
    verify_mapping(report, random_initial_state(state_seed))


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(program_seed=st.integers(0, 10_000),
       state_seed=st.integers(0, 500),
       width=st.sampled_from([8, 16, 32]))
def test_random_program_finite_width_verifies(program_seed, state_seed,
                                              width):
    source = random_source(program_seed, static_only=True)
    graph = build_main_cdfg(source)
    report = map_graph(graph, TileParams(width=width))
    verify_mapping(report, random_initial_state(state_seed))
