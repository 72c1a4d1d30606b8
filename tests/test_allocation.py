"""Unit tests for phase 3: the Fig. 5 heuristic resource allocator."""

import copy
import json

import pytest

from repro.arch.params import TileParams
from repro.arch.simulator import simulate
from repro.arch.templates import TemplateLibrary
from repro.cdfg.ops import Address
from repro.cdfg.statespace import StateSpace
from repro.core.allocation import (AllocationError, AllocationStats,
                                   Allocator)
from repro.core.pipeline import (compile_frontend, map_frontend,
                                 map_source, verify_mapping)
from repro.baselines.naive_alloc import map_source_naive
from repro.dse.runner import evaluate_point
from repro.dse.space import DesignPoint
from repro.eval.kernels import KERNELS, get_kernel
from repro.eval.metrics import METRIC_FIELDS

from tests.conftest import FIR_SOURCE


def fir_state():
    return (StateSpace()
            .store_array("a", [1, 2, 3, 4, 5])
            .store_array("c", [10, 20, 30, 40, 50]))


class TestBasicAllocation:
    def test_fir_allocates_and_verifies(self):
        report = map_source(FIR_SOURCE)
        final = verify_mapping(report, fir_state())
        assert final.fetch("sum") == 550

    def test_every_level_becomes_at_least_one_cycle(self):
        report = map_source(FIR_SOURCE)
        assert report.n_cycles >= report.n_levels

    def test_operands_in_proper_banks(self):
        """Leaf i of a cluster reads register bank i of its own PP
        (bank Ra feeds ALU input a, ...)."""
        report = map_source(FIR_SOURCE)
        for cycle in report.program.cycles:
            for config in cycle.alu_configs:
                for leaf, loc in enumerate(config.operands):
                    assert loc.bank == leaf
                    assert loc.pp == config.pp

    def test_stall_cycles_flagged(self):
        report = map_source(FIR_SOURCE)
        assert report.program.cycles[0].is_stall
        assert report.program.n_stall_cycles >= 1

    def test_program_output_layout_covers_stores(self):
        report = map_source(FIR_SOURCE)
        assert {str(a) for a in report.program.output_layout} == \
            {"sum", "i"}

    def test_constant_only_program(self):
        report = map_source("void main() { x = 42; }")
        final = verify_mapping(report)
        assert final.fetch("x") == 42

    def test_copy_only_program(self):
        report = map_source("void main() { x = a[1]; }")
        state = StateSpace().store_array("a", [0, 9])
        assert verify_mapping(report, state).fetch("x") == 9

    def test_empty_program(self):
        report = map_source("void main() { }")
        assert report.n_cycles == 0
        verify_mapping(report, StateSpace({"z": 1}))


class TestLocalityFeatures:
    def test_bypass_used_for_dependent_levels(self):
        report = map_source(FIR_SOURCE)
        assert report.alloc_stats.bypasses > 0

    def test_register_reuse_for_repeated_constant(self):
        source = """
        void main() {
          y0 = x0 * 3; y1 = x1 * 3; y2 = x2 * 3; y3 = x3 * 3;
          y4 = x4 * 3; y5 = x5 * 3; y6 = x6 * 3;
        }
        """
        report = map_source(source)
        assert report.alloc_stats.reuse_hits > 0

    def test_naive_disables_locality(self):
        naive = map_source_naive(FIR_SOURCE)
        assert naive.alloc_stats.bypasses == 0
        assert naive.alloc_stats.reuse_hits == 0
        verify_mapping(naive, fir_state())

    def test_naive_needs_more_cycles(self):
        smart = map_source(FIR_SOURCE)
        naive = map_source_naive(FIR_SOURCE)
        assert naive.n_cycles >= smart.n_cycles

    def test_input_placed_near_first_consumer(self):
        report = map_source("void main() { x = a[0] + a[1]; }")
        layout = report.program.data_layout
        consumer_pp = report.schedule.levels[0][0].pp
        assert layout[Address("a", 0)].pp == consumer_pp


class TestResourcePressure:
    def test_few_buses_forces_stalls(self):
        tight = map_source(FIR_SOURCE, TileParams(n_buses=2))
        loose = map_source(FIR_SOURCE, TileParams(n_buses=10))
        assert tight.n_cycles >= loose.n_cycles
        verify_mapping(tight, fir_state())

    def test_single_pp_tile(self):
        report = map_source(FIR_SOURCE, TileParams(n_pps=1))
        verify_mapping(report, fir_state())
        assert report.n_levels == report.n_clusters

    def test_tiny_register_banks(self):
        params = TileParams(regs_per_bank=1)
        report = map_source(FIR_SOURCE, params)
        verify_mapping(report, fir_state())

    def test_single_memory_per_pp(self):
        params = TileParams(memories_per_pp=1)
        report = map_source(FIR_SOURCE, params)
        verify_mapping(report, fir_state())

    def test_narrow_stage_window(self):
        report = map_source(FIR_SOURCE, stage_window=1)
        verify_mapping(report, fir_state())

    def test_simulator_checks_pass_on_all_allocations(self):
        """The allocator must respect every limit the simulator
        enforces (the simulator runs with check_limits=True)."""
        for buses in (2, 4, 10):
            report = map_source(FIR_SOURCE, TileParams(n_buses=buses))
            simulate(report.program, fir_state())  # raises on violation


class TestJournalBacktracking:
    """Levels that stall over and over (many stalls per level) still
    allocate deterministic, verified programs, and each is placed as if
    its stalls had been inserted up front."""

    PRESSURE = dict(n_buses=2, regs_per_bank=1, memories_per_pp=1)

    def test_heavy_backtracking_verifies(self):
        report = map_source(FIR_SOURCE, TileParams(**self.PRESSURE))
        assert report.alloc_stats.stall_cycles >= 1  # a level stalled
        verify_mapping(report, fir_state())
        simulate(report.program, fir_state())

    def test_heavy_backtracking_deterministic(self):
        params = TileParams(**self.PRESSURE)
        first = map_source(FIR_SOURCE, params)
        second = map_source(FIR_SOURCE, params)
        assert first.program.listing() == second.program.listing()
        assert vars(first.alloc_stats) == vars(second.alloc_stats)

    def test_rollback_leaves_no_claimed_registers(self):
        """After allocation, every register value the program relies
        on was actually written by an emitted move or write-back —
        nothing leaks from a stalled level's bookings (the simulator's
        checks would reject a read of a never-written register)."""
        report = map_source(FIR_SOURCE,
                            TileParams(n_buses=2, regs_per_bank=2),
                            stage_window=1)
        assert report.alloc_stats.stall_cycles >= 1
        verify_mapping(report, fir_state())

    def test_stalls_up_front_place_a_stalled_level_the_same(
            self, monkeypatch):
        """A level is planned once: a refusal inserts its stall cycle
        and planning carries on.  A stall changes no cycle before the
        pending execute cycle, so a level that stalled *s* times must
        be placed with no refusal, and to the same state, by a copy of
        the allocator from before the level given its *s* stall cycles
        up front and a staging window wider by *s*: cycle drafts,
        every resource table, register slots, memory words, residency,
        placements, the output layout and the statistics.  (The rows
        past the last cycle must all be empty: the two grow their
        tables at different cycles.)"""
        allocate_level = Allocator._allocate_level
        stalled = []

        def rows(table, live):
            return table.rows[:live], any(table.rows[live:])

        def state(allocator):
            drafts = [(cycle.alu_configs, cycle.moves, cycle.is_stall)
                      for cycle in allocator.cycles]
            n_cycles = len(allocator.cycles)
            tables = [rows(table, n_cycles * table.width)
                      for table in (allocator.bus, allocator.read_ports,
                                    allocator.write_ports,
                                    allocator.bank_ports)]
            registers = allocator.registers
            return (drafts, tables, allocator.memory_words.rows,
                    (registers.values, registers.written, registers.busy),
                    allocator.residency, allocator.placement,
                    allocator.output_layout, vars(allocator.stats))

        def checked(self, level):
            shared = {id(self.clustered): self.clustered,
                      id(self.schedule): self.schedule}
            before = copy.deepcopy(self, shared)
            allocate_level(self, level)
            stalls = sum(self.refusals[-1].values())
            if stalls:
                for _ in range(stalls):
                    before._new_cycle(is_stall=True)
                before.stats.stall_cycles += stalls
                before.stage_window += stalls
                allocate_level(before, level)
                assert before.refusals[-1] == {}
                assert state(before) == state(self)
                stalled.append(level)

        monkeypatch.setattr(Allocator, "_allocate_level", checked)
        for kernel in KERNELS[::3]:
            for params in (TileParams(**self.PRESSURE),
                           TileParams(n_buses=2, regs_per_bank=2,
                                      bank_write_ports=2)):
                map_source(kernel.source, params)
        assert len(stalled) > 50


class TestRefusals:
    """A stall is counted under the resource that turned most of its
    refused operand's candidate cycles away."""

    #: (refusal, kernel, a tile that binds it, that tile with the
    #: resource widened)
    CASES = [
        ("bus", "fir16", dict(n_buses=1), dict(n_buses=10)),
        ("read_port", "fir16",
         dict(n_buses=20, memories_per_pp=1, mem_read_ports=1),
         dict(n_buses=20, memories_per_pp=1, mem_read_ports=8)),
        ("bank_port", "saxpy8",
         dict(n_pps=2, n_buses=20, memories_per_pp=4, regs_per_bank=1,
              bank_write_ports=1),
         dict(n_pps=2, n_buses=20, memories_per_pp=4, regs_per_bank=1,
              bank_write_ports=2)),
        ("register", "saxpy8", dict(n_pps=1, n_buses=20, regs_per_bank=1),
         dict(n_pps=1, n_buses=20, regs_per_bank=4)),
    ]

    @staticmethod
    def named(kernel: str, tile: dict) -> list[str]:
        """Per stalled level, the refusal it counted most."""
        params = TileParams(**tile)
        report = map_frontend(compile_frontend(get_kernel(kernel).source),
                              params)
        allocator = Allocator(report.clustered, report.schedule, params)
        program = allocator.allocate()
        assert program.listing() == report.program.listing()
        assert len(allocator.refusals) == report.n_levels
        assert sum(sum(counts.values())
                   for counts in allocator.refusals) == \
            report.alloc_stats.stall_cycles
        return [max(counts, key=counts.get)
                for counts in allocator.refusals if counts]

    @pytest.mark.parametrize("resource, kernel, tight, loose", CASES,
                             ids=[case[0] for case in CASES])
    def test_a_binding_resource_names_the_stalled_level(
            self, resource, kernel, tight, loose):
        named = self.named(kernel, tight)
        assert resource in named
        assert self.named(kernel, loose).count(resource) < \
            named.count(resource)

    def test_refusals_stay_out_of_stats_and_records(self):
        assert [field.name for field in
                AllocationStats.__dataclass_fields__.values()] == [
            "reuse_hits", "bypasses", "staged_moves", "copy_moves",
            "stall_cycles", "stores"]
        assert METRIC_FIELDS == (
            "tasks", "clusters", "critical_path", "levels",
            "inserted_levels", "cycles", "stalls", "moves", "alu_util",
            "speedup", "reuse", "bypass", "mem_moves", "locality",
            "energy", "energy_per_op")
        record = evaluate_point(get_kernel("fir16").source,
                                DesignPoint.make({"n_buses": 1}), 1)
        assert record["ok"] and record["metrics"]["stalls"] > 1
        assert list(record["metrics"]) == list(METRIC_FIELDS)
        assert "refus" not in json.dumps(record)

    def test_results_no_memory_can_take_end_the_mapping(self):
        """A store refused for memory words is refused again in every
        stall cycle inserted for it, so the first level gives up after
        its 65th stall, most of them counted under ``memory_words``."""
        tight = dict(n_pps=2, memories_per_pp=1, memory_words=20)
        message = ("level with clusters [22, 19] cannot be staged "
                   "within 65 inserted cycles")
        frontend = compile_frontend(get_kernel("fir16").source)
        with pytest.raises(AllocationError) as raised:
            map_frontend(frontend, TileParams(**tight))
        assert str(raised.value) == message
        roomy = map_frontend(frontend, TileParams(**{**tight,
                                                     "memory_words": 512}))
        allocator = Allocator(roomy.clustered, roomy.schedule,
                              TileParams(**tight))
        with pytest.raises(AllocationError) as raised:
            allocator.allocate()
        assert str(raised.value) == message
        assert [list(counts.items()) for counts in allocator.refusals] \
            == [[("latency", 1), ("read_port", 1), ("memory_words", 63)]]


class TestInPlaceUpdates:
    def test_read_modify_write_scalar(self):
        report = map_source("void main() { x = x + 1; }")
        final = verify_mapping(report, StateSpace({"x": 41}))
        assert final.fetch("x") == 42

    def test_read_modify_write_array(self):
        source = """
        void main() {
          for (int i = 0; i < 4; i++) { v[i] = v[i] * 2; }
        }
        """
        report = map_source(source)
        state = StateSpace().store_array("v", [1, 2, 3, 4])
        final = verify_mapping(report, state)
        assert final.fetch_array("v", 4) == [2, 4, 6, 8]

    def test_swap_two_words(self):
        source = "void main() { t0 = a[0]; a[0] = a[1]; a[1] = t0; }"
        report = map_source(source)
        state = StateSpace().store_array("a", [5, 9])
        final = verify_mapping(report, state)
        assert final.fetch_array("a", 2) == [9, 5]

    def test_inplace_update_on_single_memory_tile(self):
        """An output whose address holds live input data on a tile
        with one memory per PP lands in a shadow word (regression:
        the allocator used to livelock excluding its only memory)."""
        params = TileParams(n_pps=1, memories_per_pp=1)
        report = map_source("void main() { x = x * 2 + y; }", params)
        final = verify_mapping(report, StateSpace({"x": 10, "y": 1}))
        assert final.fetch("x") == 21
        # the input word was preserved until read, so a shadow word
        # must carry the output
        loc = report.program.output_layout[Address("x")]
        assert str(loc.addr).startswith("$out$")

    def test_inplace_array_reverse_single_memory(self):
        params = TileParams(n_pps=2, memories_per_pp=1)
        source = """
        void main() {
          for (int i = 0; i < 4; i++) { r[i] = r[3 - i] + r[i]; }
        }
        """
        report = map_source(source, params)
        state = StateSpace().store_array("r", [1, 2, 3, 4])
        verify_mapping(report, state)
