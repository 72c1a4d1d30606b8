"""The paper's figures and claims, one test each.

Fig. 1–5 are the paper's own artifacts; EXT-A..H are the claims of
§VI and §VII measured on the kernel suite.  Each test's docstring
quotes the section it checks.  Two figures need a reading the paper
does not print (the 4-iteration FIR of Fig. 3 and the edges of
Fig. 4); both are written down in docs/pipeline.md ("Reading the
figures").

Everything here is deterministic.  The scaling claims count the
Python calls each phase makes, not the seconds it takes; timing
belongs to perfbench (``python3 perfbench/run.py``).
"""

import random
import sys

import pytest

from repro.arch.control import (
    AluConfig,
    Cycle,
    ImmSource,
    MemLoc,
    Move,
    RegLoc,
    TileProgram,
)
from repro.arch.energy import measure_energy
from repro.arch.params import PAPER_TILE, TileParams
from repro.arch.simulator import TileSimulator
from repro.arch.templates import ClusterShape, TemplateLibrary
from repro.arch.tilearray import TileArrayParams
from repro.baselines.naive_alloc import naive_options
from repro.cdfg.builder import build_main_cdfg
from repro.cdfg.graph import Graph
from repro.cdfg.interp import run_graph
from repro.cdfg.ops import Address, OpKind
from repro.cdfg.statespace import StateSpace
from repro.cdfg.validate import validate
from repro.core.allocation import allocate
from repro.core.clustering import cluster_tasks
from repro.core.pipeline import (
    compile_frontend,
    map_frontend,
    verify_mapping,
)
from repro.core.scheduling import schedule_clusters
from repro.eval.kernels import KERNELS, fir_source, get_kernel
from repro.eval.metrics import multitile_metrics
from repro.eval.randomdag import random_task_graph
from repro.transforms.pipeline import simplify

from tests.test_scheduling import make_cluster_graph

LIBRARIES = TemplateLibrary.stock()


def count_calls(fn, *args, **kwargs):
    """``(fn(*args, **kwargs), Python + C calls it made)``."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = fn(*args, **kwargs)
    finally:
        sys.setprofile(previous)
    return result, calls


@pytest.fixture(scope="module")
def frontends():
    """Each suite kernel compiled once."""
    return {kernel.name: compile_frontend(kernel.source)
            for kernel in KERNELS}


@pytest.fixture(scope="module")
def suite(frontends):
    """Each suite kernel mapped at the default tile with every stock
    library; ``suite[name]["two-level"]`` is the default mapping."""
    return {name: {library: map_frontend(frontend,
                                         library=LIBRARIES[library])
                   for library in LIBRARIES}
            for name, frontend in frontends.items()}


# -- the paper's figures ----------------------------------------------------

def test_fig1_tile_inventory():
    """§II, Fig. 1: five processing parts, each with four register
    banks of four registers and two 512-word memories; the crossbar
    lets any ALU write back to any register or memory of the tile."""
    params = PAPER_TILE
    assert params.n_pps == 5
    assert params.banks_per_pp == 4 and params.regs_per_bank == 4
    assert params.memories_per_pp == 2 and params.memory_words == 512

    # Executed, not asserted: PP0's ALU result, on one bus, multicasts
    # to every bank and every memory of the tile.
    dests = [RegLoc(pp, bank, 0) for pp in range(params.n_pps)
             for bank in range(params.banks_per_pp)]
    dests += [MemLoc(pp, mem, Address("x")) for pp in range(params.n_pps)
              for mem in range(params.memories_per_pp)]
    program = TileProgram(
        params=params.with_(n_buses=2, bank_write_ports=1,
                            mem_write_ports=1),
        cycles=[
            Cycle(moves=[Move(ImmSource(20), RegLoc(0, 0, 0)),
                         Move(ImmSource(22), RegLoc(0, 1, 0))]),
            Cycle(alu_configs=[AluConfig(
                pp=0, shape=ClusterShape.SINGLE, ops=(OpKind.ADD,),
                operands=[RegLoc(0, 0, 0), RegLoc(0, 1, 0)],
                dests=dests)]),
        ])
    simulator = TileSimulator(program, StateSpace())
    simulator.run()
    for pp in range(params.n_pps):
        for bank in range(params.banks_per_pp):
            assert simulator.registers[RegLoc(pp, bank, 0)] == 42
        for mem in range(params.memories_per_pp):
            assert simulator.memories[(pp, mem)][Address("x")] == 42

    # A memory holds exactly its 512 words.
    layout, state = {}, StateSpace()
    for word in range(params.memory_words):
        address = Address("blk", word)
        layout[address] = MemLoc(0, 0, address)
        state = state.store(address, word)
    full = TileSimulator(TileProgram(params=params, cycles=[],
                                     data_layout=layout), state)
    assert len(full.memories[(0, 0)]) == params.memory_words


def test_fig2_statespace_primitives():
    """§IV, Fig. 2: ST, FE and DEL act on a set of (ad, da) tuples
    whose "data can be anything, including a tuple of this type
    again"; under the totalised fetch DEL(ad) equals ST(ad, 0), the
    identity the mapper's DEL lowering relies on.  Each primitive on
    its own, nested data and the single-address DEL == ST(ad, 0) case
    are pinned by tests/test_statespace.py; this is the law over a
    random sequence of stores and deletes."""
    rng = random.Random(1)
    left = right = StateSpace()
    for __ in range(200):
        slot, value = rng.randrange(16), rng.randint(-9, 9)
        left = left.store(Address("m", slot), value).delete(
            Address("m", slot))
        right = right.store(Address("m", slot), value).store(
            Address("m", slot), 0)
    assert left == right


def test_fig3_fir_cdfg():
    """Fig. 3: "Translation of the FIR filter code.  After complete
    loop unrolling and full simplification."  The figure draws 4
    iterations, the printed code loops 5 times; both are checked."""
    def shape(graph):
        counts = graph.counts()
        return {kind.name: counts.get(kind, 0) for kind in
                (OpKind.FE, OpKind.MUL, OpKind.ADD, OpKind.ST)}

    for taps, expected in ((4, {"FE": 8, "MUL": 4, "ADD": 3, "ST": 2}),
                           (5, {"FE": 10, "MUL": 5, "ADD": 4, "ST": 2})):
        graph = build_main_cdfg(fir_source(taps))
        stats = simplify(graph)
        validate(graph)
        assert shape(graph) == expected, taps
        assert not graph.find(OpKind.LOOP)
        ss_in = graph.sole(OpKind.SS_IN)
        for fetch in graph.find(OpKind.FE):
            assert fetch.inputs[0] == ss_in.out()
        # the final i is the constant trip count, like the figure's 4
        store_i, = [node for node in graph.find(OpKind.ST)
                    if node.name == "i"]
        i_value = graph.producer(store_i.inputs[2])
        assert i_value.kind is OpKind.CONST and i_value.value == taps
        state = (StateSpace()
                 .store_array("a", list(range(1, taps + 1)))
                 .store_array("c", [2] * taps))
        assert run_graph(graph, state).fetch("sum") == \
            2 * sum(range(1, taps + 1))
    # what each transformation contributed (5 taps)
    assert stats.by_pass.get("UnrollLoops", 0) >= 6   # 5 iters + exit
    assert stats.by_pass.get("CommonSubexpressionElimination", 0) > 0
    assert stats.by_pass.get("DeadCodeElimination", 0) > 0


def test_fig4_insert_a_new_level():
    """§VI-B, Fig. 4: "insert a new level when necessary" — six ready
    critical clusters and five ALUs push one cluster down a level;
    the off-critical Clu0 and Clu7 float within their range."""
    graph = make_cluster_graph({8: [1, 2, 5], 9: [3, 4, 6],
                                10: [8, 9]}, 11)
    schedule = schedule_clusters(graph, 5)
    assert schedule.critical_path == 3
    assert [schedule.slack[cid] for cid in range(1, 7)] == [0] * 6
    assert schedule.n_levels == 4
    assert schedule.inserted_levels == 1
    assert all(len(level) <= 5 for level in schedule.levels)
    for cid, preds in graph.predecessors().items():
        for pred in preds:
            assert schedule.level_of(pred) < schedule.level_of(cid)
    # five critical clusters on the first level, the sixth moved down
    assert sorted(schedule.level_of(cid) for cid in range(1, 7)) == \
        [0, 0, 0, 0, 0, 1]


def staging_distances(program) -> list[int]:
    """Per staged register move: cycles to its *first* consumer (a
    later reuse of the register is locality, not staging)."""
    reads: dict[RegLoc, list[int]] = {}
    for index, cycle in enumerate(program.cycles):
        for config in cycle.alu_configs:
            for loc in config.operands:
                reads.setdefault(loc, []).append(index)
    distances = []
    for index, cycle in enumerate(program.cycles):
        for move in cycle.moves:
            later = [read for read in reads.get(move.dest, [])
                     if read > index]
            if later:
                distances.append(min(later) - index)
    return distances


def test_fig5_allocation_procedure(suite, frontends):
    """§VI-C, Fig. 5: inputs are moved "four steps before ... one step
    before" their level, "for each output do store it to a memory",
    and "if some inputs are not moved successfully then insert one or
    more clock cycles before the current one to load inputs"."""
    for name in ("fir5", "fir16"):
        report = suite[name]["two-level"]
        program = report.program
        distances = staging_distances(program)
        assert distances, name
        assert min(distances) >= 1
        assert max(distances) <= report.params.max_stage_ahead \
            + program.n_stall_cycles
        for cycle in program.cycles:
            for config in cycle.alu_configs:
                assert any(isinstance(dest, MemLoc)
                           for dest in config.dests), name

    kernel = get_kernel("cmul4")
    reports = {}
    for buses in (2, 3, 5, 10, 20):
        reports[buses] = map_frontend(frontends["cmul4"],
                                      TileParams(n_buses=buses))
        verify_mapping(reports[buses], kernel.initial_state(1))
    verify_mapping(reports[3], kernel.initial_state(0))
    verify_mapping(reports[20], kernel.initial_state(0))
    assert reports[3].program.n_stall_cycles >= \
        reports[20].program.n_stall_cycles
    assert reports[3].n_cycles >= reports[20].n_cycles


# -- the paper's claims (EXT-A..H) -------------------------------------------

def test_ext_a_phases_scale_linearly():
    """§VI-B/C: scheduling and allocation are "linear to the number of
    clusters".  8x the tasks may cost each phase at most 24x the calls
    (3x headroom over proportional), and calls per cluster stay
    within 6x."""
    calls, per_cluster = {}, {}
    for n_tasks in (100, 800):
        taskgraph = random_task_graph(n_tasks, 7)
        clustered, cluster_calls = count_calls(cluster_tasks, taskgraph)
        schedule, schedule_calls = count_calls(schedule_clusters,
                                               clustered, n_pps=5)
        __, allocate_calls = count_calls(allocate, clustered, schedule)
        placed = sorted(item.cluster.id for level in schedule.levels
                        for item in level)
        assert placed == sorted(clustered.clusters)
        calls[n_tasks] = {"cluster": cluster_calls,
                          "schedule": schedule_calls,
                          "allocate": allocate_calls}
        per_cluster[n_tasks] = \
            sum(calls[n_tasks].values()) / clustered.n_clusters
    for phase in ("cluster", "schedule", "allocate"):
        ratio = calls[800][phase] / calls[100][phase]
        assert ratio < 3 * 8, f"{phase} made {ratio:.1f}x the calls"
    assert per_cluster[800] < 6 * per_cluster[100]


def test_ext_b_kernel_suite(suite):
    """§VII: "high performance ... by exploiting maximum parallelism".
    Clustering never costs cycles over single-op templates, parallel
    kernels beat one ALU, and the suite averages over 2x."""
    speedups = []
    for name, maps in suite.items():
        report = maps["two-level"]
        assert report.n_cycles <= maps["single-op"].n_cycles, name
        if report.n_tasks >= 15:
            assert report.speedup_vs_serial > 1, name
        speedups.append(report.speedup_vs_serial)
    assert sum(speedups) / len(speedups) > 2


def test_ext_c_locality_and_energy(suite, frontends):
    """§VI-C, §VII: "low power consumption ... by exploiting ...
    locality of reference".  Against memory-only staging, the Fig. 5
    allocator moves fewer memory words, keeps more operands local,
    never costs cycles and saves over 10% energy on average."""
    savings = []
    for kernel in KERNELS:
        smart = suite[kernel.name]["two-level"]
        naive = map_frontend(frontends[kernel.name], **naive_options())
        verify_mapping(naive, kernel.initial_state(0))
        ours, theirs = (measure_energy(smart.program),
                        measure_energy(naive.program))
        assert ours.total < theirs.total, kernel.name
        assert ours.locality >= theirs.locality, kernel.name
        assert ours.mem_reads + ours.mem_writes <= \
            theirs.mem_reads + theirs.mem_writes, kernel.name
        assert smart.n_cycles <= naive.n_cycles, kernel.name
        savings.append(1 - ours.total / theirs.total)
    assert sum(savings) / len(savings) > 0.10


def test_ext_d_template_ablation(suite):
    """§VI-A: "this clustering and mapping scheme is based on the ALU
    data-path".  Richer data-path templates give monotonically fewer
    clusters, the two-level path never costs cycles, and each step up
    pays off on some kernel."""
    for kernel in KERNELS:
        maps = suite[kernel.name]
        for library in ("single-op", "mac"):
            verify_mapping(maps[library], kernel.initial_state(0))
        clusters = [maps[library].n_clusters
                    for library in ("single-op", "two-level", "mac")]
        assert clusters == sorted(clusters, reverse=True), kernel.name
        assert maps["two-level"].n_cycles <= \
            maps["single-op"].n_cycles, kernel.name
    assert any(maps["two-level"].n_clusters
               < maps["single-op"].n_clusters for maps in suite.values())
    assert any(maps["mac"].n_clusters < maps["two-level"].n_clusters
               for maps in suite.values())


def test_ext_e_every_kernel_verifies(suite):
    """§VI: "We use a three phase decomposition algorithm" — and what
    the three phases emit must compute what the source computes.  Every
    kernel's cycle-level program, run on the simulator with every
    resource limit enforced, matches the interpreter on the
    untransformed CDFG for four input seeds."""
    for kernel in KERNELS:
        for seed in range(4):
            verify_mapping(suite[kernel.name]["two-level"],
                           kernel.initial_state(seed))


def test_ext_f_reassociation(suite):
    """§VII: "... more transformations will be added."  Balancing
    accumulation chains never lengthens the critical path, shortens
    the unrolled accumulations, and leaves a true recurrence (Horner)
    alone."""
    cycles = {}
    for kernel in KERNELS:
        chain = suite[kernel.name]["two-level"]
        tree = map_frontend(compile_frontend(kernel.source,
                                             balance=True))
        verify_mapping(tree, kernel.initial_state(0))
        assert tree.schedule.critical_path <= \
            chain.schedule.critical_path, kernel.name
        assert tree.n_cycles <= chain.n_cycles + 1, kernel.name
        cycles[kernel.name] = (chain.n_cycles, tree.n_cycles)
    for name in ("fir16", "dot8", "corr8"):
        assert cycles[name][1] < cycles[name][0], name
    assert cycles["horner6"][1] == cycles["horner6"][0]


def test_ext_g_transform_scaling():
    """§V, §VII: "Existing graph transformations need to be
    optimized".  Full simplification of a completely unrolled FIR is
    near-linear in its size: 8x the taps may cost at most 24x the
    calls, and the incremental index still equals a from-scratch
    recomputation."""
    calls = {}
    for taps in (16, 128):
        graph = build_main_cdfg(fir_source(taps))
        __, calls[taps] = count_calls(simplify, graph)
    ratio = calls[128] / calls[16]
    assert ratio < 3 * 8, f"simplify made {ratio:.1f}x the calls"
    graph.check_index()


def test_ext_g_lookups_are_index_reads(monkeypatch):
    """§V, §VII: "Existing graph transformations need to be
    optimized".  On a simplified graph ``uses()``, ``users_of()`` and
    ``topo_order()`` are index lookups: a full query pass mutates
    nothing, rebuilds no index and re-sorts nothing."""
    graph = build_main_cdfg(fir_source(64))
    simplify(graph)
    order = graph.topo_order()
    version = graph.version

    def rebuild(self):
        raise AssertionError("query pass rebuilt the index")

    monkeypatch.setattr(Graph, "_rebuild_index", rebuild)
    uses = graph.uses()
    total = 0
    for node in graph.topo_order():
        for index in range(node.n_outputs):
            total += len(uses.get(node.out(index), ()))
        total += len(graph.users_of(node.id))
    assert total > 0
    assert graph.version == version
    assert graph.topo_order() is order


def test_ext_g_tile_size_scaling(frontends):
    """§VII: "the potential advantages of FPFA are exploited".  More
    ALUs never add levels; with 4 buses per PP they never add cycles,
    parallel kernels gain over 40% by 5 PPs, 8 PPs add less than 5
    did, and the serial Horner chain stays within 2 cycles."""
    pp_counts = (1, 2, 3, 5, 8)
    for name in ("fir16", "matmul3", "fft4", "cmul4", "horner6"):
        kernel = get_kernel(name)
        levels, balanced = [], []
        for n_pps in pp_counts:
            fixed = map_frontend(frontends[name], TileParams(
                n_pps=n_pps, n_buses=10))
            scaled = map_frontend(frontends[name], TileParams(
                n_pps=n_pps, n_buses=4 * n_pps))
            verify_mapping(fixed, kernel.initial_state(0))
            verify_mapping(scaled, kernel.initial_state(0))
            levels.append(scaled.n_levels)
            balanced.append(scaled.n_cycles)
        assert levels == sorted(levels, reverse=True), name
        assert balanced == sorted(balanced, reverse=True), name
        at = dict(zip(pp_counts, balanced))
        if name == "horner6":
            assert at[1] - at[8] <= 2
        else:
            assert at[5] < at[1] * 0.6, name
        assert at[5] - at[8] <= at[1] - at[5], name


def test_ext_h_multitile_scaling(frontends):
    """§II: an FPFA is an array of tiles (an extension beyond the
    paper's one-tile flow).  A 1-tile array moves nothing and ignores
    its interconnect, mesh routes are never shorter than the array
    crossbar's one hop, and on narrow 2-PP tiles a second tile buys
    back parallelism somewhere."""
    narrow = TileParams(n_pps=2, n_buses=4)
    gains = False
    for name in ("fir16", "matmul3", "fft4", "cmul4"):
        makespan, hops = {}, {}
        for n_tiles in (1, 2, 4):
            for topology in ("crossbar", "mesh"):
                metrics = multitile_metrics(map_frontend(
                    frontends[name], narrow,
                    array=TileArrayParams(n_tiles=n_tiles,
                                          topology=topology)))
                makespan[topology, n_tiles] = metrics["makespan"]
                hops[topology, n_tiles] = metrics["transfer_hops"]
        assert hops["crossbar", 1] == hops["mesh", 1] == 0, name
        assert makespan["crossbar", 1] == makespan["mesh", 1], name
        for n_tiles in (2, 4):
            assert hops["mesh", n_tiles] >= hops["crossbar", n_tiles]
            assert makespan["mesh", n_tiles] >= \
                makespan["crossbar", n_tiles], name
            gains |= makespan["crossbar", n_tiles] < \
                makespan["crossbar", 1]
    assert gains
