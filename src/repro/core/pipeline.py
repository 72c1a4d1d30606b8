"""End-to-end mapping driver (the paper's four-step flow).

``map_source`` runs: C text → CDFG (step 1: translation) → complete
unrolling + full simplification (step 2: transformation) → task graph
→ clustering (step 3a) → scheduling (3b) → resource allocation (3c),
returning a :class:`MappingReport` that keeps every intermediate
artifact for inspection, metrics and the experiment harness.

The flow is factored into two stages so sweeps can reuse work:

* the **frontend** (:func:`compile_frontend` / :func:`prepare_graph`)
  turns source into a transformed CDFG.  It depends only on the
  program, the data-path *width* and the transform options
  (``simplify``/``balance``) — not on any other tile or array
  parameter — and its result, a :class:`Frontend`, is an immutable,
  picklable artifact.  A balanced frontend is one step on top of the
  plain one (:func:`balance_frontend`): it shares the plain
  frontend's pristine graph and pass counts, so a caller that keeps
  the plain frontend parses and simplifies the program once for
  both;
* the **backend** (:func:`map_frontend`) clusters, schedules and
  allocates one frontend onto one concrete tile (and optionally a
  tile array).  A 100-point sweep over tile parameters compiles each
  kernel once and runs 100 backends.

Of the backend, only allocation (and the multi-tile stage) needs the
whole tile.  The task graph depends on the frontend alone, the
clustering on the template library, the schedule on the clustering
and the level capacity ``min(n_pps, n_buses)``, and the reference run
:func:`verify_seeded` checks against on the pristine graph and its
inputs.  Each :class:`Frontend` memoises the first three, so the
points of a sweep that share a frontend compute each of them once;
the reference runs are kept per pristine graph, so a plain frontend
and the balanced one derived from it share them too.  Neither memo is
ever pickled, so neither rides to a pool worker or a daemon job.

``map_graph``/``map_source`` compose the two and are byte-for-byte
the original single-call flow.  Every report also carries a per-stage
wall-time breakdown (``report.timings``) that ``fpfa-map map
--profile`` prints.

``verify_mapping`` closes the loop: the tile program, executed on the
cycle-level simulator, must leave exactly the values at its output
addresses that the CDFG interpreter computes for the *original,
untransformed* graph.

An optional multi-tile stage (``map_graph(..., array=...)``) runs
after allocation: the clustered graph is partitioned over an FPFA
tile array and rescheduled with explicit inter-tile transfers
(:mod:`repro.multitile`), attached as ``report.multitile``.

Invariants
----------
* The flow is **deterministic**: the same (source, params, library,
  options) always produces the same report, program and metrics —
  the property the DSE result cache is built on.
* The mapped program is **semantics-preserving**; ``verify_mapping``
  enforces observational equality against the interpreter on the
  original graph, not the transformed one.
* The multi-tile stage is **additive**: it never alters the
  single-tile artifacts, and with ``n_tiles == 1`` it is the
  identity (zero transfers, unchanged metrics).
"""

from __future__ import annotations

import random
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.arch.control import TileProgram
from repro.arch.params import TileParams
from repro.arch.tilearray import TileArrayParams
from repro.arch.simulator import simulate
from repro.arch.templates import TemplateLibrary
from repro.cdfg.builder import build_main_cdfg
from repro.cdfg.graph import Graph
from repro.cdfg.interp import Interpreter
from repro.cdfg.statespace import StateSpace
from repro.core.allocation import AllocationStats, allocate
from repro.core.clustering import ClusterGraph, cluster_tasks
from repro.core.scheduling import (Schedule, cluster_mobility,
                                   schedule_clusters)
from repro.core.taskgraph import TaskGraph
from repro.multitile.mapping import MultiTileReport, map_multitile
from repro.obs import trace
from repro.transforms import reassociate
from repro.transforms.base import PassStats
from repro.transforms.pipeline import simplify as run_simplify


class VerificationError(Exception):
    """The mapped program does not reproduce the program's semantics."""


@contextmanager
def _stage(timings: dict[str, float], name: str):
    """Time one pipeline stage into *timings* under a tracing span.

    The timing semantics are exactly the old inline
    ``perf_counter()`` pairs (``report.timings`` and ``--profile``
    output are unchanged); the ``pipeline.<name>`` span is additive
    and free while tracing is disabled.
    """
    with trace.span(f"pipeline.{name}"):
        started = time.perf_counter()
        try:
            yield
        finally:
            timings[name] = time.perf_counter() - started


@dataclass
class MappingReport:
    """Everything the flow produced for one program."""

    source: str | None
    original: Graph
    minimised: Graph
    pass_stats: PassStats | None
    taskgraph: TaskGraph
    clustered: ClusterGraph
    schedule: Schedule
    program: TileProgram
    alloc_stats: AllocationStats
    params: TileParams
    library: TemplateLibrary
    #: The optional multi-tile stage outcome (None for the pure
    #: single-tile flow the paper describes).
    multitile: MultiTileReport | None = None
    #: Per-stage wall-clock seconds (parse, transforms, taskgraph,
    #: cluster, schedule, allocate, multitile, and verify once
    #: :func:`verify_mapping` has checked the report) — the breakdown
    #: ``fpfa-map map --profile`` prints.  Never part of the mapped
    #: artifacts or metrics.
    timings: dict[str, float] = field(default_factory=dict)
    #: ``(program, model, EnergyReport)`` of the last energy
    #: measurement, so one report's metric dicts measure it once (see
    #: :mod:`repro.eval.metrics`).
    _energy: tuple | None = field(default=None, init=False, repr=False,
                                  compare=False)

    # -- headline metrics -------------------------------------------------

    @property
    def n_tasks(self) -> int:
        return self.taskgraph.n_tasks

    @property
    def n_clusters(self) -> int:
        return self.clustered.n_clusters

    @property
    def n_levels(self) -> int:
        return self.schedule.n_levels

    @property
    def n_cycles(self) -> int:
        return self.program.n_cycles

    @property
    def serial_cycles(self) -> int:
        """Cycles a single ALU executing one op/cycle would need —
        the 1-ALU lower bound used for speedup."""
        return max(self.n_tasks, 1)

    @property
    def speedup_vs_serial(self) -> float:
        return self.serial_cycles / max(self.n_cycles, 1)

    def summary(self) -> str:
        lines = [
            f"tasks: {self.n_tasks}  clusters: {self.n_clusters} "
            f"(critical path {self.schedule.critical_path} levels)",
            f"schedule: {self.n_levels} levels "
            f"({self.schedule.inserted_levels} inserted), "
            f"ALU utilisation "
            f"{self.schedule.utilisation(self.params.n_pps):.0%}",
            f"program: {self.n_cycles} cycles "
            f"({self.program.n_stall_cycles} stalls, "
            f"{self.program.n_moves} moves), "
            f"speedup vs 1 ALU: {self.speedup_vs_serial:.2f}x",
            f"operand staging: {self.alloc_stats.reuse_hits} reused, "
            f"{self.alloc_stats.bypasses} written back directly, "
            f"{self.alloc_stats.staged_moves} moved from memory",
        ]
        return "\n".join(lines)


@dataclass
class Frontend:
    """One compiled frontend: source/graph → transformed CDFG.

    Immutable by convention — the backend only reads it — so one
    frontend can fan out to any number of :func:`map_frontend` calls
    (the DSE runner keeps one per unique (width, simplify, balance)
    combination, each balanced one derived from the plain one of its
    width and simplify).  Graphs pickle compactly: only the node
    tables travel; indexes are rebuilt on arrival.
    """

    original: Graph
    minimised: Graph
    pass_stats: PassStats | None
    #: Data-path width the transforms folded with; the backend tile
    #: must match (compile-time wrapping must equal ALU wrapping).
    width: int | None = None
    source: str | None = None
    #: Frontend stage seconds (parse, transforms); copied into every
    #: report built from this frontend.
    timings: dict[str, float] = field(default_factory=dict)
    #: Backend artifacts that depend on this frontend and a few
    #: backend inputs only (see :func:`_memoised`): never compared,
    #: printed or pickled.  Verification references are kept on the
    #: pristine graph instead (:func:`verify_seeded`).
    _memo: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        del state["_memo"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._memo = {}


#: Verification references one pristine graph keeps.  A daemon keeps
#: its frontends across jobs, and each job may verify under a new seed.
REFERENCES_KEPT = 4
#: Makes storing a reference and evicting the oldest one atomic.
_REFERENCES_LOCK = threading.Lock()


def _memoised(memo: dict, key, compute):
    """``memo[key]``, computed by *compute* and stored on a miss.

    Racing misses (thread-mode daemon jobs sharing one frontend) each
    compute a whole value and the first store wins, so no reader sees
    a partial result and every caller gets the same object.
    """
    try:
        return memo[key]
    except KeyError:
        return memo.setdefault(key, compute())


def prepare_graph(graph: Graph, *, simplify: bool = True,
                  balance: bool = False, width: int | None = None,
                  max_loop_iterations: int = 4096,
                  source: str | None = None) -> Frontend:
    """Run the transform frontend on a CDFG (step 2 of the flow).

    *graph* itself is never mutated; the returned frontend holds a
    pristine clone (for verification against the original semantics)
    and the minimised working copy.
    """
    return _prepare_owned(
        graph.clone(), simplify=simplify, balance=balance, width=width,
        max_loop_iterations=max_loop_iterations, source=source)


def _prepare_owned(original: Graph, *, simplify: bool, balance: bool,
                   width: int | None, max_loop_iterations: int,
                   source: str | None,
                   timings: dict[str, float] | None = None) -> Frontend:
    """:func:`prepare_graph` on a graph no caller holds: *original*
    becomes the frontend's pristine graph as it is, and only the
    working copy is cloned.  *timings* holds the stages already run
    (the parse)."""
    pass_stats = None
    working = original.clone()
    timings = dict(timings or {})
    with _stage(timings, "transforms"):
        if simplify:
            pass_stats = run_simplify(
                working, max_loop_iterations=max_loop_iterations,
                width=width)
    frontend = Frontend(original=original, minimised=working,
                        pass_stats=pass_stats, width=width,
                        source=source, timings=timings)
    if balance:
        return balance_frontend(frontend, simplify=simplify,
                                max_loop_iterations=max_loop_iterations)
    return frontend


def compile_frontend(source: str, *, width: int | None = None,
                     simplify: bool = True, balance: bool = False,
                     max_loop_iterations: int = 4096) -> Frontend:
    """Parse C *source* and run the transform frontend on ``main``."""
    parse_timing: dict[str, float] = {}
    with _stage(parse_timing, "parse"):
        graph = build_main_cdfg(source)
    return _prepare_owned(
        graph, simplify=simplify, balance=balance, width=width,
        max_loop_iterations=max_loop_iterations, source=source,
        timings=parse_timing)


def balance_frontend(plain: Frontend, *, simplify: bool = True,
                     max_loop_iterations: int = 4096) -> Frontend:
    """The balanced frontend of the program *plain* compiled.

    *plain* must be a frontend built with ``balance=False`` and the
    same *simplify* and *max_loop_iterations*; it is only read.  Its
    minimised graph is cloned with its id counter, so reassociating
    the clone (:func:`repro.transforms.reassociate.balance`) and
    cleaning it up (a second simplification) numbers every node
    exactly as doing both in place after the plain transforms would.
    The result shares *plain*'s pristine graph, source and pass
    counts (those of the first simplification), and with them its
    verification references; its ``transforms`` time adds this step
    to *plain*'s.
    """
    timings: dict[str, float] = {}
    with _stage(timings, "transforms"):
        working = plain.minimised.clone(continue_ids=True)
        reassociate.balance(working)
        if simplify:  # clean up after the rebuild
            run_simplify(working, max_loop_iterations=max_loop_iterations,
                         width=plain.width)
    return Frontend(
        original=plain.original, minimised=working,
        pass_stats=plain.pass_stats, width=plain.width,
        source=plain.source,
        timings={**plain.timings,
                 "transforms": plain.timings.get("transforms", 0.0)
                 + timings["transforms"]})


def map_frontend(frontend: Frontend,
                 params: TileParams | None = None,
                 library: TemplateLibrary | None = None, *,
                 array: TileArrayParams | None = None,
                 **alloc_options) -> MappingReport:
    """Run the backend: cluster, schedule and allocate one compiled
    frontend onto one concrete tile (see :class:`MappingReport`).

    The frontend must have been compiled for ``params.width`` —
    compile-time constant folding wraps with the width, so a mismatch
    would change program semantics and is rejected outright.
    """
    params = params or TileParams()
    library = library or TemplateLibrary.two_level()
    if frontend.width != params.width:
        raise ValueError(
            f"frontend was compiled for width={frontend.width}, "
            f"tile has width={params.width}; recompile the frontend")
    timings = dict(frontend.timings)
    memo = frontend._memo
    # The allocator and the multi-tile stage only read the task graph,
    # clustering and schedule, so every backend run on this frontend
    # can share them.
    with _stage(timings, "taskgraph"):
        taskgraph = _memoised(
            memo, ("taskgraph",),
            lambda: TaskGraph.from_cdfg(frontend.minimised))
    with _stage(timings, "cluster"):
        clustered = _memoised(
            memo, ("cluster", library),
            lambda: cluster_tasks(taskgraph, library))
    # Every cluster result is broadcast on one crossbar bus in its
    # execute cycle, so a level can hold at most min(PPs, buses)
    # clusters — with fewer buses than ALUs the scheduler serialises.
    capacity = min(params.n_pps, params.n_buses)
    # A level never holds more clusters than there are, so every
    # capacity from n_clusters up yields the same schedule: keyed on
    # the clamped capacity, the memo holds at most n_clusters + 1
    # schedules per library whatever tiles a daemon is sent.
    # Both schedulers rank clusters by the clustering's mobility, which
    # is computed once and only read.
    def mobility(graph: ClusterGraph) -> tuple:
        return _memoised(memo, ("mobility", library),
                         lambda: cluster_mobility(graph))
    with _stage(timings, "schedule"):
        schedule = _memoised(
            memo, ("schedule", library,
                   min(capacity, clustered.n_clusters)),
            lambda: schedule_clusters(clustered, n_pps=capacity,
                                      mobility=mobility))
    with _stage(timings, "allocate"):
        program, alloc_stats = allocate(clustered, schedule, params,
                                        **alloc_options)
    multitile = None
    if array is not None:
        with _stage(timings, "multitile"):
            multitile = map_multitile(clustered, array,
                                      capacity=capacity,
                                      base_levels=schedule.n_levels,
                                      mobility=mobility)
    return MappingReport(
        source=frontend.source, original=frontend.original,
        minimised=frontend.minimised, pass_stats=frontend.pass_stats,
        taskgraph=taskgraph, clustered=clustered,
        schedule=schedule, program=program, alloc_stats=alloc_stats,
        params=params, library=library, multitile=multitile,
        timings=timings)


def map_graph(graph: Graph, params: TileParams | None = None,
              library: TemplateLibrary | None = None, *,
              simplify: bool = True, balance: bool = False,
              source: str | None = None,
              max_loop_iterations: int = 4096,
              array: TileArrayParams | None = None,
              **alloc_options) -> MappingReport:
    """Map a CDFG onto one FPFA tile; see :class:`MappingReport`.

    ``balance=True`` additionally reassociates accumulation chains
    into balanced trees before mapping (shorter critical path; an
    extension beyond the paper — its Fig. 3 keeps the chain form).

    ``array`` additionally runs the multi-tile stage
    (:func:`repro.multitile.mapping.map_multitile`): the clustered
    graph is partitioned over ``array.n_tiles`` tiles and rescheduled
    with explicit inter-tile transfers; the outcome is attached as
    ``report.multitile``.  The single-tile artifacts and metrics are
    never altered by this stage — a 1-tile array is the identity.
    """
    params = params or TileParams()
    frontend = prepare_graph(
        graph, simplify=simplify, balance=balance, width=params.width,
        max_loop_iterations=max_loop_iterations, source=source)
    return map_frontend(frontend, params, library, array=array,
                        **alloc_options)


def map_source(source: str, params: TileParams | None = None,
               library: TemplateLibrary | None = None, *,
               simplify: bool = True, balance: bool = False,
               max_loop_iterations: int = 4096,
               array: TileArrayParams | None = None,
               **alloc_options) -> MappingReport:
    """Parse C *source* and map its ``main`` onto one FPFA tile."""
    params = params or TileParams()
    frontend = compile_frontend(
        source, width=params.width, simplify=simplify, balance=balance,
        max_loop_iterations=max_loop_iterations)
    return map_frontend(frontend, params, library, array=array,
                        **alloc_options)


def random_input_state(report: MappingReport,
                       seed: int) -> StateSpace:
    """Deterministic random values for every input address *report*'s
    program reads — the canonical seed → verification-input mapping
    shared by the CLI and the DSE runner."""
    rng = random.Random(seed)
    return StateSpace().store_all(
        (address, rng.randint(-99, 99))
        for address in report.taskgraph.input_addresses())


def verify_mapping(report: MappingReport,
                   initial_state: StateSpace | None = None,
                   inputs: dict | None = None) -> StateSpace:
    """Check program-vs-interpreter equivalence for one input.

    Executes the original CDFG on the reference interpreter and the
    mapped program on the tile simulator, then requires the two final
    statespaces to be observationally equal (and function outputs to
    match).  Returns the simulated final state on success.  The
    check is timed as the report's ``verify`` stage.
    """
    with _stage(report.timings, "verify"):
        initial_state = initial_state or StateSpace()
        merged_initial = initial_state
        if inputs:
            # Mapped programs read parameters from memory at the scalar
            # address of the parameter name; the interpreter must start
            # from the same picture so the final states are comparable.
            merged_initial = merged_initial.store_all(inputs.items())
        reference = _Reference.run(report.original, report.params.width,
                                   merged_initial, inputs)
        return reference.check(report.program)


def verify_seeded(frontend: Frontend, report: MappingReport,
                  seed: int) -> StateSpace:
    """``verify_mapping(report, random_input_state(report, seed))``
    for a *report* that :func:`map_frontend` built from *frontend*.

    The interpreter run depends only on the pristine graph and its
    initial state, which the seed and the addresses the task graph
    reads determine, so it is computed once per (seed, input
    addresses) and kept with the pristine graph: a plain frontend and
    the balanced one derived from it share it.  The mapped program is
    simulated and compared on every call.
    """
    if report.original is not frontend.original:
        raise ValueError("report was not mapped from this frontend")
    with _stage(report.timings, "verify"):
        references = frontend.original._references
        key = (seed, tuple(report.taskgraph.input_addresses()))
        reference = references.get(key)
        if reference is None:
            reference = _Reference.run(
                frontend.original, report.params.width,
                random_input_state(report, seed), None)
            with _REFERENCES_LOCK:
                reference = references.setdefault(key, reference)
                for stale in list(references)[:-REFERENCES_KEPT]:
                    del references[stale]
        return reference.check(report.program)


@dataclass(frozen=True)
class _Reference:
    """What the interpreter computes for one initial state: the
    outputs, and the final state with each output folded in at its
    ``__out_<slot>`` pseudo-address (where a mapped program leaves
    it)."""

    initial: StateSpace
    outputs: dict
    final: StateSpace

    @classmethod
    def run(cls, original: Graph, width: int | None,
            initial: StateSpace, inputs: dict | None) -> "_Reference":
        expected = Interpreter(width=width).run(original, initial, inputs)
        final = expected.state.store_all(
            (f"__out_{slot}", value)
            for slot, value in expected.outputs.items())
        return cls(initial, dict(expected.outputs), final)

    def check(self, program: TileProgram) -> StateSpace:
        """Simulate *program* from the initial state and require the
        interpreter's result; returns the simulated final state."""
        simulated = simulate(program, self.initial)
        for slot, value in self.outputs.items():
            got = simulated.fetch(f"__out_{slot}")
            if got != value:
                raise VerificationError(
                    f"output {slot!r}: simulator produced {got}, "
                    f"interpreter {value}")
        if simulated != self.final:
            differences = _diff_states(self.final, simulated)
            raise VerificationError(
                "final statespace mismatch:\n" + "\n".join(differences))
        return simulated


def _diff_states(expected: StateSpace, actual: StateSpace) -> list[str]:
    lines = []
    addresses = set(dict(expected.items())) | set(dict(actual.items()))
    for address in sorted(addresses):
        want = expected.fetch(address)
        got = actual.fetch(address)
        if want != got:
            lines.append(f"  [{address}] expected {want}, got {got}")
    return lines or ["  (representation-only difference)"]
