"""Access-cost energy model.

The paper's low-power argument is *locality of reference* (§VI-C,
§VII): operands served from a PP's own registers cost far less than
words dragged across the crossbar from memories.  This module turns a
:class:`TileProgram` into an energy estimate using per-event unit
costs, in the spirit of the architecture-evaluation literature —
relative magnitudes (register < local memory < crossbar transfer) are
what matters, not absolute joules.

The default unit costs (register access 1, ALU op 2, memory access 4,
crossbar bus transfer 3) keep those ratios; the locality experiment
(EXT-C) reports both the energy proxy and the raw event counts so the
conclusion can be checked under any other weighting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arch.control import ImmSource, MemLoc, Move, RegLoc, TileProgram


@dataclass(frozen=True)
class EnergyModel:
    """Unit costs per micro-architectural event."""

    reg_read: float = 1.0
    reg_write: float = 1.0
    mem_read: float = 4.0
    mem_write: float = 4.0
    bus_transfer: float = 3.0
    alu_op: float = 2.0
    #: Static control overhead per cycle (clocking the shared control
    #: unit); keeps "fewer, fuller cycles" preferable like on silicon.
    cycle_overhead: float = 0.5


@dataclass
class EnergyReport:
    """Event counts and the weighted energy total for one program."""

    reg_reads: int = 0
    reg_writes: int = 0
    mem_reads: int = 0
    mem_writes: int = 0
    bus_transfers: int = 0
    alu_ops: int = 0
    cycles: int = 0
    total: float = 0.0

    #: Operand deliveries that stayed inside register files (reused or
    #: directly latched) versus those that crossed a memory.
    local_operand_reads: int = 0
    memory_operand_moves: int = 0

    @property
    def locality(self) -> float:
        """Fraction of operand deliveries that avoided a memory trip."""
        considered = self.local_operand_reads + self.memory_operand_moves
        if considered == 0:
            return 1.0
        return self.local_operand_reads / considered

    def table_row(self) -> dict:
        return {
            "cycles": self.cycles,
            "alu_ops": self.alu_ops,
            "reg_rw": self.reg_reads + self.reg_writes,
            "mem_rw": self.mem_reads + self.mem_writes,
            "bus": self.bus_transfers,
            "locality": round(self.locality, 3),
            "energy": round(self.total, 1),
        }


def measure_energy(program: TileProgram,
                   model: EnergyModel | None = None) -> EnergyReport:
    """Count events in *program* and price them with *model*."""
    model = model or EnergyModel()
    report = EnergyReport(cycles=program.n_cycles)
    for cycle in program.cycles:
        report.bus_transfers += cycle.n_bus_values
        for config in cycle.alu_configs:
            report.alu_ops += len(config.ops)
            report.reg_reads += len(config.operands)
            report.local_operand_reads += len(config.operands)
            for dest in config.dests:
                if isinstance(dest, RegLoc):
                    report.reg_writes += 1
                else:
                    report.mem_writes += 1
        for move in cycle.moves:
            if isinstance(move.source, MemLoc):
                report.mem_reads += 1
                report.memory_operand_moves += 1
            elif isinstance(move.source, RegLoc):
                report.reg_reads += 1
            if isinstance(move.dest, RegLoc):
                report.reg_writes += 1
            else:
                report.mem_writes += 1
    report.total = (
        report.reg_reads * model.reg_read
        + report.reg_writes * model.reg_write
        + report.mem_reads * model.mem_read
        + report.mem_writes * model.mem_write
        + report.bus_transfers * model.bus_transfer
        + report.alu_ops * model.alu_op
        + report.cycles * model.cycle_overhead)
    return report
