"""Cycle-level functional simulator of one FPFA tile.

Executes a :class:`~repro.arch.control.TileProgram` against the timing
model documented in :mod:`repro.arch.control`:

* reads (ALU operand fetches from register banks, move sources) see
  the state at the *start* of the cycle;
* writes (move destinations, ALU results latched into registers or
  stored into memories) commit at the *end* of the cycle;
* resource limits — crossbar buses, memory read/write ports, register
  bank write ports, register/memory capacities — are enforced every
  cycle unless ``check_limits=False``.

The simulator is the end-to-end oracle: a mapped program must leave
the same values at its output addresses as the CDFG interpreter
computes for the original program.
"""

from __future__ import annotations

from repro.arch.control import (
    AluConfig,
    Cycle,
    ImmSource,
    MemLoc,
    Move,
    RegLoc,
    TileProgram,
)
from repro.arch.templates import ClusterShape
from repro.cdfg.ops import Address, OpKind, eval_op, wrap_value
from repro.cdfg.statespace import StateSpace


class SimulationError(Exception):
    """Raised on a malformed program or resource violation."""


def op_arity(kind: OpKind) -> int:
    """Operand count of an ALU operation."""
    if kind in (OpKind.NEG, OpKind.NOT, OpKind.LNOT, OpKind.ABS):
        return 1
    if kind is OpKind.MUX:
        return 3
    return 2


_wrap = wrap_value

#: What a register or memory word that was never written reads as.
_UNWRITTEN = object()


class TileSimulator:
    """Executes tile programs cycle by cycle."""

    def __init__(self, program: TileProgram,
                 initial_state: StateSpace | None = None, *,
                 check_limits: bool = True):
        self.program = program
        self.params = program.params
        self.check_limits = check_limits
        self.registers: dict[RegLoc, int] = {}
        self.memories: dict[tuple[int, int], dict[Address, int]] = {}
        self._load_memories(initial_state or StateSpace())

    # -- setup ---------------------------------------------------------

    def _load_memories(self, initial_state: StateSpace) -> None:
        for pp in range(self.params.n_pps):
            for mem in range(self.params.memories_per_pp):
                self.memories[(pp, mem)] = {}
        for address, loc in self.program.data_layout.items():
            self._check_memloc(loc)
            value = initial_state.fetch(address)
            if not isinstance(value, int):
                raise SimulationError(
                    f"initial data at {address} is not an integer: "
                    f"{value!r}")
            self.memories[(loc.pp, loc.mem)][address] = value
        if self.check_limits:
            for (pp, mem), words in self.memories.items():
                if len(words) > self.params.memory_words:
                    raise SimulationError(
                        f"PP{pp}.MEM{mem + 1} holds {len(words)} words, "
                        f"capacity {self.params.memory_words}")

    def _check_memloc(self, loc: MemLoc) -> None:
        if not (0 <= loc.pp < self.params.n_pps
                and 0 <= loc.mem < self.params.memories_per_pp):
            raise SimulationError(f"no such memory: {loc}")

    def _check_regloc(self, loc: RegLoc) -> None:
        if not (0 <= loc.pp < self.params.n_pps
                and 0 <= loc.bank < self.params.banks_per_pp
                and 0 <= loc.slot < self.params.regs_per_bank):
            raise SimulationError(f"no such register: {loc}")

    # -- execution ---------------------------------------------------------

    def run(self) -> StateSpace:
        """Execute all cycles; return the output statespace overlay.

        The returned statespace is the *initial* statespace with every
        output address overwritten by the value found at its mapped
        memory location — directly comparable with the interpreter's
        final state.
        """
        for index, cycle in enumerate(self.program.cycles):
            self._run_cycle(index, cycle)
        return self._collect_outputs()

    def _run_cycle(self, index: int, cycle: Cycle) -> None:
        # 1. Start-of-cycle reads.
        alu_results: dict[int, int] = {}
        for config in cycle.alu_configs:
            if config.pp in alu_results:
                raise SimulationError(
                    f"cycle {index}: PP{config.pp} configured twice")
            alu_results[config.pp] = self._execute_alu(index, config)
        move_values: list[int] = [self._read_source(index, move.source)
                                  for move in cycle.moves]
        if self.check_limits:
            self._check_resources(index, cycle)
        # 2. End-of-cycle commits.
        writes: list[tuple] = []
        for config in cycle.alu_configs:
            for dest in config.dests:
                writes.append((dest, alu_results[config.pp]))
        for move, value in zip(cycle.moves, move_values):
            writes.append((move.dest, value))
        self._commit(index, writes)

    def _execute_alu(self, index: int, config: AluConfig) -> int:
        values = []
        registers = self.registers
        for loc in config.operands:
            self._check_regloc(loc)
            if loc.pp != config.pp:
                raise SimulationError(
                    f"cycle {index}: PP{config.pp} reads foreign "
                    f"register {loc}")
            value = registers.get(loc, _UNWRITTEN)
            if value is _UNWRITTEN:
                raise SimulationError(
                    f"cycle {index}: PP{config.pp} reads register {loc} "
                    f"before any write")
            values.append(value)
        result = self._eval_tree(index, config, values)
        return _wrap(result, self.params.width)

    def _eval_tree(self, index: int, config: AluConfig,
                   values: list[int]) -> int:
        shape = config.shape
        ops = config.ops
        # wrap at every data-path level: the level-1 outputs are as
        # width-bounded as the final result, and the interpreter (which
        # wraps per node) is the reference
        width = self.params.width
        try:
            if shape is ClusterShape.SINGLE:
                (root,) = ops
                self._expect_operands(index, config, op_arity(root),
                                      values)
                return eval_op(root, *values, width=width)
            if shape is ClusterShape.CHAIN:
                root, child = ops
                child_arity = op_arity(child)
                expected = child_arity + op_arity(root) - 1
                self._expect_operands(index, config, expected, values)
                inner = eval_op(child, *values[:child_arity],
                                width=width)
                return eval_op(root, inner, *values[child_arity:],
                               width=width)
            root, left, right = ops
            left_arity = op_arity(left)
            right_arity = op_arity(right)
            self._expect_operands(index, config,
                                  left_arity + right_arity, values)
            left_value = eval_op(left, *values[:left_arity], width=width)
            right_value = eval_op(right, *values[left_arity:],
                                  width=width)
            return eval_op(root, left_value, right_value, width=width)
        except (TypeError, ValueError) as error:
            raise SimulationError(
                f"cycle {index}: bad ALU configuration on "
                f"PP{config.pp}: {error}") from None

    @staticmethod
    def _expect_operands(index: int, config: AluConfig, expected: int,
                         values: list[int]) -> None:
        if len(values) != expected:
            raise SimulationError(
                f"cycle {index}: PP{config.pp} {config.shape.value} "
                f"{'/'.join(map(str, config.ops))} needs {expected} "
                f"operands, got {len(values)}")

    def _read_source(self, index: int, source) -> int:
        if isinstance(source, ImmSource):
            return _wrap(source.value, self.params.width)
        if isinstance(source, RegLoc):
            self._check_regloc(source)
            value = self.registers.get(source, _UNWRITTEN)
            if value is _UNWRITTEN:
                raise SimulationError(
                    f"cycle {index}: move reads register {source} "
                    f"before any write")
            return value
        if isinstance(source, MemLoc):
            self._check_memloc(source)
            value = self.memories[(source.pp, source.mem)].get(
                source.addr, _UNWRITTEN)
            if value is _UNWRITTEN:
                raise SimulationError(
                    f"cycle {index}: move reads uninitialised word "
                    f"{source}")
            return value
        raise SimulationError(f"cycle {index}: bad source {source!r}")

    def _check_resources(self, index: int, cycle: Cycle) -> None:
        """Enforce this cycle's bus, port and write-once limits.

        Counts go into plain dicts keyed by tuples of ints (and the
        word's address), never into sets of the location records,
        whose generated hashes cost more than the checks themselves.
        """
        params = self.params
        moves = cycle.moves
        # One bus per distinct move source plus one per ALU whose
        # result leaves it (PPs are distinct, see _run_cycle).  A
        # source shared by two moves rides one bus, so the distinct
        # count is only needed when the plain count is over the limit.
        buses = len(moves) + sum(1 for config in cycle.alu_configs
                                 if config.dests)
        if buses > params.n_buses:
            buses = cycle.n_bus_values
            if buses > params.n_buses:
                raise SimulationError(
                    f"cycle {index}: {buses} crossbar values exceed "
                    f"{params.n_buses} buses")
        # Memory reads: one port per distinct word read.
        read_words: dict[tuple[int, int], list[Address]] = {}
        for move in moves:
            source = move.source
            if isinstance(source, MemLoc):
                words = read_words.get((source.pp, source.mem))
                if words is None:
                    read_words[(source.pp, source.mem)] = [source.addr]
                else:
                    words.append(source.addr)
        for (pp, mem), words in read_words.items():
            if len(words) > params.mem_read_ports:
                count = len(set(words))
                if count > params.mem_read_ports:
                    raise SimulationError(
                        f"cycle {index}: PP{pp}.MEM{mem + 1} serves "
                        f"{count} reads, has {params.mem_read_ports} "
                        f"port(s)")
        # Writes: every destination at most once, then the ports.
        bank_writes: dict[tuple[int, int], int] = {}
        mem_writes: dict[tuple[int, int], int] = {}
        regs_written: set[tuple[int, int, int]] = set()
        words_written: set[tuple[int, int, Address]] = set()
        dests = [dest for config in cycle.alu_configs
                 for dest in config.dests]
        dests.extend(move.dest for move in moves)
        for dest in dests:
            if isinstance(dest, RegLoc):
                key = (dest.pp, dest.bank, dest.slot)
                if key in regs_written:
                    raise SimulationError(
                        f"cycle {index}: register {dest} written twice")
                regs_written.add(key)
                bank = (dest.pp, dest.bank)
                bank_writes[bank] = bank_writes.get(bank, 0) + 1
            else:
                word = (dest.pp, dest.mem, dest.addr)
                if word in words_written:
                    raise SimulationError(
                        f"cycle {index}: memory word {dest} written "
                        f"twice")
                words_written.add(word)
                memory = (dest.pp, dest.mem)
                mem_writes[memory] = mem_writes.get(memory, 0) + 1
        for (pp, bank), count in bank_writes.items():
            if count > params.bank_write_ports:
                raise SimulationError(
                    f"cycle {index}: PP{pp} bank {bank} takes {count} "
                    f"writes, has {params.bank_write_ports} port(s)")
        for (pp, mem), count in mem_writes.items():
            if count > params.mem_write_ports:
                raise SimulationError(
                    f"cycle {index}: PP{pp}.MEM{mem + 1} takes {count} "
                    f"writes, has {params.mem_write_ports} port(s)")

    def _commit(self, index: int, writes: list[tuple]) -> None:
        for dest, value in writes:
            if isinstance(dest, RegLoc):
                self._check_regloc(dest)
                self.registers[dest] = value
            elif isinstance(dest, MemLoc):
                self._check_memloc(dest)
                words = self.memories[(dest.pp, dest.mem)]
                words[dest.addr] = value
                if self.check_limits and \
                        len(words) > self.params.memory_words:
                    raise SimulationError(
                        f"cycle {index}: {dest} overflows "
                        f"{self.params.memory_words}-word memory")
            else:
                raise SimulationError(
                    f"cycle {index}: bad destination {dest!r}")

    def _collect_outputs(self) -> StateSpace:
        outputs = []
        for address, loc in self.program.output_layout.items():
            # loc.addr is the physical word (it may be a shadow word
            # when the logical address also holds live input data);
            # the result is reported at the logical address.
            words = self.memories[(loc.pp, loc.mem)]
            if loc.addr not in words:
                raise SimulationError(
                    f"program ended without writing output {loc}")
            outputs.append((address, words[loc.addr]))
        return StateSpace().store_all(outputs)


def simulate(program: TileProgram,
             initial_state: StateSpace | None = None, *,
             check_limits: bool = True) -> StateSpace:
    """Run *program*; return *initial_state* overlaid with the outputs."""
    simulator = TileSimulator(program, initial_state,
                              check_limits=check_limits)
    outputs = simulator.run()
    return (initial_state or StateSpace()).store_all(outputs.items())
