"""Unit tests for the architecture model: params, templates, control
words and the energy model."""

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
from repro.arch.energy import EnergyModel, measure_energy
from repro.arch.params import PAPER_TILE, TileParams
from repro.arch.templates import ClusterShape, TemplateLibrary
from repro.cdfg.ops import Address, OpKind


class TestTileParams:
    def test_paper_defaults(self):
        params = PAPER_TILE
        assert params.n_pps == 5
        assert params.banks_per_pp == 4
        assert params.regs_per_bank == 4
        assert params.memories_per_pp == 2
        assert params.memory_words == 512

    def test_derived_totals(self):
        params = TileParams()
        assert params.total_registers == 5 * 4 * 4
        assert params.total_memory_words == 5 * 2 * 512
        assert params.alu_inputs == 4

    def test_with_replaces(self):
        params = TileParams().with_(n_pps=3)
        assert params.n_pps == 3
        assert params.memory_words == 512

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            TileParams(n_pps=0)
        with pytest.raises(ValueError):
            TileParams(n_buses=0)
        with pytest.raises(ValueError):
            TileParams(width=1)

    def test_describe_mentions_figure_quantities(self):
        text = TileParams().describe()
        assert "5 processing parts" in text
        assert "512 words" in text
        assert "4 registers" in text


class TestTemplateLibrary:
    def test_single_always_legal_for_alu_ops(self):
        library = TemplateLibrary.single_op()
        assert library.single_legal(OpKind.MUL)
        assert library.single_legal(OpKind.MUX)
        assert not library.single_legal(OpKind.ST)

    def test_single_op_disables_chain_and_dual(self):
        library = TemplateLibrary.single_op()
        assert not library.chain_legal(OpKind.ADD, OpKind.MUL, 3)
        assert not library.dual_legal(OpKind.ADD, OpKind.MUL,
                                      OpKind.MUL, 4)

    def test_two_level_chain(self):
        library = TemplateLibrary.two_level()
        assert library.chain_legal(OpKind.ADD, OpKind.MUL, 3)
        assert not library.dual_legal(OpKind.ADD, OpKind.MUL,
                                      OpKind.MUL, 4)

    def test_mac_enables_dual(self):
        library = TemplateLibrary.mac()
        assert library.dual_legal(OpKind.ADD, OpKind.MUL, OpKind.MUL, 4)

    def test_no_multiplier_at_level_two(self):
        library = TemplateLibrary.mac()
        assert not library.chain_legal(OpKind.MUL, OpKind.MUL, 3)

    def test_input_limit_enforced(self):
        library = TemplateLibrary.mac()
        assert not library.chain_legal(OpKind.ADD, OpKind.MUL, 5)
        assert not library.dual_legal(OpKind.ADD, OpKind.MUL,
                                      OpKind.MUL, 5)

    def test_stock_libraries(self):
        stock = TemplateLibrary.stock()
        assert set(stock) == {"single-op", "two-level", "mac"}

    def test_describe(self):
        assert "chain" in TemplateLibrary.two_level().describe()


class TestControlWords:
    def test_locations_render(self):
        assert str(RegLoc(2, 0, 3)) == "PP2.Ra[3]"
        assert str(RegLoc(0, 3, 1)) == "PP0.Rd[1]"
        assert str(MemLoc(4, 1, Address("a", 2))) == "PP4.MEM2[a##2]"
        assert str(ImmSource(7)) == "#7"

    def test_move_renders(self):
        move = Move(ImmSource(1), RegLoc(0, 0, 0))
        assert str(move) == "#1 -> PP0.Ra[0]"

    def test_cycle_bus_sources_multicast(self):
        """One ALU result to many dests = one bus; one move source
        repeated = one bus."""
        config = AluConfig(pp=0, shape=ClusterShape.SINGLE,
                           ops=(OpKind.ADD,),
                           operands=[RegLoc(0, 0, 0), RegLoc(0, 1, 0)],
                           dests=[MemLoc(0, 0, Address("x")),
                                  RegLoc(1, 0, 0)])
        source = MemLoc(0, 1, Address("y"))
        cycle = Cycle(alu_configs=[config],
                      moves=[Move(source, RegLoc(2, 0, 0)),
                             Move(source, RegLoc(3, 0, 0))])
        assert cycle.n_bus_values == 2

    def test_cycle_op_count_counts_tree_nodes(self):
        config = AluConfig(pp=0, shape=ClusterShape.CHAIN,
                           ops=(OpKind.ADD, OpKind.MUL),
                           operands=[])
        assert Cycle(alu_configs=[config]).n_ops == 2

    def test_program_counters(self):
        program = TileProgram(params=TileParams(), cycles=[
            Cycle(is_stall=True,
                  moves=[Move(ImmSource(1), RegLoc(0, 0, 0))]),
            Cycle(alu_configs=[AluConfig(
                pp=0, shape=ClusterShape.SINGLE, ops=(OpKind.NEG,),
                operands=[RegLoc(0, 0, 0)])]),
        ])
        assert program.n_cycles == 2
        assert program.n_stall_cycles == 1
        assert program.n_moves == 1
        assert program.n_ops == 1
        assert 0 < program.alu_utilisation() <= 0.5

    def test_listing_format(self):
        program = TileProgram(params=TileParams(), cycles=[
            Cycle(is_stall=True), Cycle()])
        listing = program.listing()
        assert "cycle 0 (stall):" in listing
        assert "(idle)" in listing


class TestEnergyModel:
    def _program(self):
        return TileProgram(params=TileParams(), cycles=[
            Cycle(moves=[Move(MemLoc(0, 0, Address("a")),
                              RegLoc(0, 0, 0)),
                         Move(ImmSource(3), RegLoc(0, 1, 0))]),
            Cycle(alu_configs=[AluConfig(
                pp=0, shape=ClusterShape.SINGLE, ops=(OpKind.ADD,),
                operands=[RegLoc(0, 0, 0), RegLoc(0, 1, 0)],
                dests=[MemLoc(0, 0, Address("x"))])]),
        ])

    def test_event_counts(self):
        report = measure_energy(self._program())
        assert report.mem_reads == 1
        assert report.reg_writes == 2
        assert report.mem_writes == 1
        assert report.alu_ops == 1
        assert report.reg_reads == 2
        assert report.cycles == 2
        assert report.bus_transfers == 3

    def test_total_uses_model_weights(self):
        flat = measure_energy(self._program(), EnergyModel(
            reg_read=0, reg_write=0, mem_read=0, mem_write=0,
            bus_transfer=0, alu_op=1, cycle_overhead=0))
        assert flat.total == 1

    def test_locality_metric(self):
        report = measure_energy(self._program())
        # 2 register operand reads vs 1 memory move
        assert report.locality == pytest.approx(2 / 3)

    def test_memory_heavier_than_register_by_default(self):
        model = EnergyModel()
        assert model.mem_read > model.reg_read
        assert model.bus_transfer > model.reg_read

    def test_table_row_keys(self):
        row = measure_energy(self._program()).table_row()
        assert {"cycles", "energy", "locality"} <= set(row)
