"""Per-cycle control words: the mapper's output artifact.

The paper's allocation phase produces "the job of an FPFA tile for
each clock cycle" (Fig. 5).  A :class:`TileProgram` is exactly that: a
list of :class:`Cycle` records, each holding the ALU configurations
issued that cycle plus the crossbar moves staging operands and storing
results.

Locations
---------
* :class:`RegLoc` — register ``slot`` of input bank ``bank`` of PP
  ``pp`` (bank *b* feeds ALU input *b*: Ra..Rd);
* :class:`MemLoc` — word ``addr`` (a statespace :class:`Address`) of
  memory ``mem`` of PP ``pp``;
* :class:`ImmSource` — a constant injected by the control unit.

Timing model (documented reconstruction, used consistently by the
allocator and the simulator):

* ALU execution reads its register banks at the start of the cycle;
* every write — a move's destination, an ALU result latched into a
  register or stored into a memory — commits at the end of the cycle,
  so becomes readable the next cycle;
* one crossbar bus broadcasts one value per cycle; any number of
  destination ports may latch it (multicast), each port subject to
  its own per-cycle port limits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Union

from repro.arch.params import TileParams
from repro.arch.templates import ClusterShape
from repro.cdfg.ops import Address, OpKind


class RegLoc(NamedTuple):
    """One register: PP index, bank index (0=Ra..3=Rd), slot index."""

    pp: int
    bank: int
    slot: int

    def __str__(self) -> str:
        bank_name = "abcd"[self.bank] if self.bank < 4 else str(self.bank)
        return f"PP{self.pp}.R{bank_name}[{self.slot}]"


class MemLoc(NamedTuple):
    """One memory word: PP index, memory index (0/1), address."""

    pp: int
    mem: int
    addr: Address

    def __str__(self) -> str:
        return f"PP{self.pp}.MEM{self.mem + 1}[{self.addr}]"


class ImmSource(NamedTuple):
    """A constant delivered by the (shared) control unit."""

    value: int

    def __str__(self) -> str:
        return f"#{self.value}"


Source = Union[MemLoc, RegLoc, ImmSource]
Dest = Union[MemLoc, RegLoc]


class Move(NamedTuple):
    """A crossbar transfer executed in some cycle."""

    source: Source
    dest: Dest

    def __str__(self) -> str:
        return f"{self.source} -> {self.dest}"


@dataclass
class AluConfig:
    """One ALU's configuration for one cycle.

    ``ops`` spells the operation tree of the matched template:
    ``(root,)`` for SINGLE, ``(root, child)`` for CHAIN and
    ``(root, left, right)`` for DUAL.  ``operands`` lists the leaf
    operand registers in evaluation order (leaf *i* is read from bank
    *i*); ``dests`` are the crossbar destinations latching the result.
    """

    pp: int
    shape: ClusterShape
    ops: tuple[OpKind, ...]
    operands: list[RegLoc]
    dests: list[Dest] = field(default_factory=list)
    label: str = ""

    def __str__(self) -> str:
        ops = "/".join(str(op) for op in self.ops)
        operand_text = ", ".join(str(loc) for loc in self.operands)
        dest_text = ", ".join(str(dest) for dest in self.dests) or "-"
        return (f"PP{self.pp}: {self.shape.value}[{ops}]"
                f"({operand_text}) -> {dest_text}")


@dataclass
class Cycle:
    """The tile's job for one clock cycle (one control word)."""

    alu_configs: list[AluConfig] = field(default_factory=list)
    moves: list[Move] = field(default_factory=list)
    #: True when the allocator inserted this cycle purely to stage
    #: operands ("insert one or more clock cycles", Fig. 5).
    is_stall: bool = False

    @property
    def n_ops(self) -> int:
        """ALU operations issued this cycle (counting tree nodes)."""
        return sum(len(config.ops) for config in self.alu_configs)

    @property
    def n_bus_values(self) -> int:
        """Distinct values on the crossbar this cycle (bus usage): one
        per distinct move source, one per ALU whose result leaves."""
        return len({move.source for move in self.moves}) + len(
            {config.pp for config in self.alu_configs if config.dests})


@dataclass
class TileProgram:
    """A complete mapped program: per-cycle control plus data layout."""

    params: TileParams
    cycles: list[Cycle] = field(default_factory=list)
    #: Where each input address initially resides.
    data_layout: dict[Address, MemLoc] = field(default_factory=dict)
    #: Where each program-output address ends up.
    output_layout: dict[Address, MemLoc] = field(default_factory=dict)

    @property
    def n_cycles(self) -> int:
        return len(self.cycles)

    @property
    def n_stall_cycles(self) -> int:
        return sum(1 for cycle in self.cycles if cycle.is_stall)

    @property
    def n_ops(self) -> int:
        return sum(cycle.n_ops for cycle in self.cycles)

    @property
    def n_moves(self) -> int:
        return sum(len(cycle.moves) for cycle in self.cycles)

    def alu_utilisation(self) -> float:
        """Fraction of ALU execute slots actually used."""
        if not self.cycles:
            return 0.0
        used = sum(len(cycle.alu_configs) for cycle in self.cycles)
        return used / (self.params.n_pps * len(self.cycles))

    def listing(self) -> str:
        """Human-readable per-cycle program listing."""
        lines = []
        for index, cycle in enumerate(self.cycles):
            tag = " (stall)" if cycle.is_stall else ""
            lines.append(f"cycle {index}{tag}:")
            for config in cycle.alu_configs:
                lines.append(f"  {config}")
            for move in cycle.moves:
                lines.append(f"  move {move}")
            if not cycle.alu_configs and not cycle.moves:
                lines.append("  (idle)")
        return "\n".join(lines)
