"""Phase 3 — resource allocation (paper §VI-C, Fig. 5).

    function ResourceAllocation(G) {
        for each level in G do Allocate(level);
    }
    function Allocate(currentLevel) {
        Allocate ALUs of the current clock cycle
        for each output do store it to a memory;
        for each input of current level
        do try to move it to proper register at the clock cycle which
           is four steps before; If failed, do it three steps before;
           then two steps before; one step before.
        if some inputs are not moved successfully
        then insert one or more clock cycles before the current one to
             load inputs
    }

Each level becomes one execute cycle.  Every live result is stored in
it, in the first consumer's PP (*locality of reference*), never over
live input.  Leaf *i* of a cluster is read from register bank *i* of
its PP: the allocator tries *reuse*, then *direct write-back* (the
producing ALU latches its result into the register, Fig. 1), then a
*staging move* from memory (or an immediate) 4, 3, 2, 1 cycles ahead.
If an operand cannot be staged, a stall (load) cycle is inserted
before the execute cycle.  The program respects every limit of
:class:`~repro.arch.params.TileParams` (the simulator checks them
all), and candidates are tried in a fixed order, so a schedule and
params always yield the same program.

Each resource is one integer-indexed table (:mod:`repro.core.tables`).
A level is planned once, operand by operand and store by store.  Its
execute cycle is appended only after its last store is placed; until
then the bookings that name it (the registers the level holds until
it, and the results' write-port row) are pending, and they are stamped
when the level completes.  When every candidate cycle of an operand
refuses, or every memory refuses a store, a stall cycle is inserted
before the pending execute cycle, which widens the staging window by
one, and the operand's scan goes on into the new cycle.  A stall
changes no cycle before the execute cycle, so every decision already
taken is the one a plan made with the stall up front would take.
``Allocator.refusals`` counts each level's stalls by the resource that
caused them.  ``enable_bypass``, ``enable_reuse`` and ``stage_window``
serve the locality ablation (EXT-C).
"""

from __future__ import annotations

import functools
import itertools
import operator
import sys
from dataclasses import dataclass

from repro.arch.control import (AluConfig, Cycle, ImmSource, MemLoc,
                                Move, RegLoc, TileProgram)
from repro.arch.params import TileParams
from repro.cdfg.ops import Address
from repro.core.clustering import ClusterGraph
from repro.core.scheduling import Schedule, ScheduledCluster
from repro.core.tables import (BANK_PORT, BUS, LATENCY, MEMORY_WORDS,
                               READ_PORT, REGISTER, WRITE_PORT,
                               CountTable, RegisterTable, SetTable)
from repro.core.taskgraph import OperandKind


class AllocationError(Exception):
    """Raised when a schedule cannot be allocated at all."""


#: Stall cycles one level may insert before the schedule is given up.
MAX_STALLS_PER_LEVEL = 64

#: ``RegisterTable.busy`` of a slot held until the pending execute
#: cycle: no candidate cycle of the level may overwrite it.
_PENDING = sys.maxsize


@dataclass
class AllocationStats:
    """What the allocator did (feeds the locality experiment)."""

    reuse_hits: int = 0
    bypasses: int = 0
    staged_moves: int = 0
    copy_moves: int = 0
    stall_cycles: int = 0
    stores: int = 0

    def operand_events(self) -> int:
        return self.reuse_hits + self.bypasses + self.staged_moves


def _shadow(address: Address) -> Address:
    """A distinct word for an output whose address also holds live
    input data (``output_layout`` redirects readers to it)."""
    return Address(f"$out${address.name}", address.offset)


class _Values:
    """The numbering the allocator derives from a clustering alone,
    built once per (immutable) :class:`ClusterGraph`.

    Cluster *c*'s result is value *c*; each constant ``("const", v)``
    and input word ``("mem", address)`` takes the next number, and
    every word a program may hold gets a word number.  The tables hold
    these ints, so no check hashes a key."""

    def __init__(self, clustered: ClusterGraph):
        owner = clustered.owner
        self.n_clusters = n_clusters = \
            max(clustered.clusters, default=-1) + 1
        keys: list[tuple] = []  # value id - n_clusters -> key
        ids: dict[tuple, int] = {}
        self.words: dict[Address, int] = {}
        self.n_words = 0

        def value(operand) -> int:
            if operand.kind is OperandKind.TASK:
                return owner[operand.task_id]
            key = ("const" if operand.kind is OperandKind.CONST
                   else "mem", operand.value)
            vid = ids.get(key)
            if vid is None:
                vid = ids[key] = n_clusters + len(keys)
                keys.append(key)
            return vid

        #: cluster id -> value ids of its leaves, in bank order
        self.operands = {cid: [value(operand)
                               for operand in cluster.operands]
                         for cid, cluster in clustered.clusters.items()}
        outputs: dict[int, list[Address]] = {}
        for store in clustered.stores:
            if store.source.kind is OperandKind.TASK:
                outputs.setdefault(owner[store.source.task_id],
                                   []).append(store.address)
        #: (address, value id) of every output that is not a cluster's
        #: execute-cycle store: a copy move after the compute cycles
        self.copies = [
            (store.address, value(store.source))
            for store in clustered.stores
            if store.source.kind is not OperandKind.TASK
            or outputs[owner[store.source.task_id]][0] != store.address]
        #: (value id, word, address) of each input word, address order
        self.inputs = sorted(
            ((vid, self._word(key[1]), key[1])
             for vid, key in enumerate(keys, n_clusters)
             if key[0] == "mem"),
            key=lambda entry: (entry[2].name, entry[2].offset))
        n_inputs = self.n_words  # input words are numbered first
        #: cluster id -> (word, address, shadow word or -1, output
        #: address or None) of every cluster whose result is stored
        self.results: dict[int, tuple] = {}
        successors = clustered.successors()
        for cid in clustered.clusters:
            if cid in outputs:
                address = outputs[cid][0]
                word = self._word(address)
                shadow = self._word(_shadow(address)) \
                    if word < n_inputs else -1
                self.results[cid] = (word, address, shadow, address)
            elif successors[cid]:  # a temporary: its name is unique
                self.results[cid] = (self.n_words, Address(f"$t{cid}"),
                                     -1, None)
                self.n_words += 1
        for address, _ in self.copies:
            self._word(address), self._word(_shadow(address))
        #: residency before layout: constants are always readable
        self.residency = [None] * n_clusters + [
            (ImmSource(key[1]), 0, vid, -1) if key[0] == "const"
            else None for vid, key in enumerate(keys, n_clusters)]

    def _word(self, address: Address) -> int:
        word = self.words.setdefault(address, self.n_words)
        if word == self.n_words:
            self.n_words += 1
        return word


@functools.lru_cache(maxsize=64)
def _register_locs(n_pps: int, n_banks: int,
                   size: int) -> tuple[RegLoc, ...]:
    """Every register of a tile, at its register-table index."""
    return tuple(RegLoc(pp, bank, slot) for pp in range(n_pps)
                 for bank in range(n_banks) for slot in range(size))


@functools.lru_cache(maxsize=256)
def _memory_units(n_pps: int, n_mems: int,
                  preferred: int) -> tuple[int, ...]:
    """Memory units, PP *preferred*'s first, then by PP."""
    pps = [preferred] + [pp for pp in range(n_pps) if pp != preferred]
    return tuple(pp * n_mems + mem for pp in pps for mem in range(n_mems))


class Allocator:
    """Allocates one schedule onto one tile."""

    def __init__(self, clustered: ClusterGraph, schedule: Schedule,
                 params: TileParams | None = None, *,
                 enable_bypass: bool = True, enable_reuse: bool = True,
                 stage_window: int | None = None):
        self.clustered = clustered
        self.schedule = schedule
        self.params = params = params or TileParams()
        self.enable_bypass = enable_bypass
        self.enable_reuse = enable_reuse
        self.stage_window = stage_window or params.max_stage_ahead
        self.stats = AllocationStats()
        #: Per scheduled level: stall cycles by refusing resource.
        self.refusals: list[dict[str, int]] = []
        if clustered._values is None:
            clustered._values = _Values(clustered)
        self._values = values = clustered._values

        self._n_mems = n_mems = params.memories_per_pp
        self._n_banks = n_banks = params.banks_per_pp
        mem_units = params.n_pps * n_mems
        self.cycles: list[Cycle] = []  # resources in the tables
        self.bus = SetTable(BUS, params.n_buses, 1)
        self.read_ports = SetTable(READ_PORT, params.mem_read_ports,
                                   mem_units)
        self.write_ports = SetTable(WRITE_PORT, params.mem_write_ports,
                                    mem_units, shared=False)
        #: The pending execute cycle's write-port row.
        self._result_writes = SetTable(WRITE_PORT, params.mem_write_ports,
                                       mem_units, shared=False)
        self._result_writes.grow(1)
        self.bank_ports = CountTable(BANK_PORT, params.bank_write_ports,
                                     params.n_pps * n_banks)
        self._grown = 0  # cycles the per-cycle tables have rows for
        self.registers = RegisterTable(params.n_pps * n_banks,
                                       params.regs_per_bank)
        self._reglocs = _register_locs(params.n_pps, n_banks,
                                       params.regs_per_bank)
        self.memory_words = SetTable(MEMORY_WORDS, params.memory_words,
                                     mem_units)
        self.memory_words.grow(1)
        #: value id -> (source, first readable cycle, bus token, memory
        #: unit or -1), or None while the value is nowhere.
        self.residency = list(values.residency)
        #: cluster id -> (execute cycle, its AluConfig), or None.
        self.placement: list = [None] * values.n_clusters
        self.data_layout: dict[Address, MemLoc] = {}
        self.output_layout: dict[Address, MemLoc] = {}
        self._layout_inputs()

    def _layout_inputs(self) -> None:
        """Find each value's first consumer (levels list their clusters
        in PP order), and place every input word near its own."""
        values = self._values
        #: cluster id -> PP of its first consumer; for input value ids
        #: too, until the layout below reads them
        self._first_pp: dict[int, int] = {}
        for level in self.schedule.levels:
            for item in level:
                for vid in values.operands[item.cluster.id]:
                    self._first_pp.setdefault(vid, item.pp)
        #: word -> memory unit of the input word placed there, else -1
        self._input_units = [-1] * values.n_words
        toggle: dict[int, int] = {}
        n_mems = self._n_mems
        for vid, word, address in values.inputs:
            for first in self._units(self._first_pp.get(vid, 0))[::n_mems]:
                pp = first // n_mems
                start = toggle.get(pp, 0)
                for offset in range(n_mems):
                    mem = (start + offset) % n_mems
                    unit = pp * n_mems + mem
                    if self.memory_words.can_add(unit, word) is None:
                        break
                else:
                    continue
                loc = self.data_layout[address] = MemLoc(pp, mem, address)
                self.memory_words.add(unit, word)
                self._input_units[word] = unit
                self.residency[vid] = (loc, 0, self._token(unit, word),
                                       unit)
                toggle[pp] = (mem + 1) % n_mems
                break
            else:
                raise AllocationError(
                    f"tile memories cannot hold input word {address}")

    def _token(self, unit: int, word: int) -> int:
        """A memory word's bus token: distinct from a constant's (its
        value id) and an ALU result's (``-1 - pp``)."""
        return len(self.residency) + unit * self._values.n_words + word

    def _units(self, preferred: int) -> tuple[int, ...]:
        return _memory_units(self.params.n_pps, self._n_mems, preferred)

    def _new_cycle(self, is_stall: bool = False) -> Cycle:
        draft = Cycle(is_stall=is_stall)
        self.cycles.append(draft)
        if len(self.cycles) > self._grown:
            self._grown = 2 * len(self.cycles) + 8
            for table in (self.bus, self.read_ports, self.write_ports,
                          self.bank_ports):
                table.grow(self._grown)
        return draft

    # -- main ------------------------------------------------------------------

    def allocate(self) -> TileProgram:
        """Run the Fig. 5 procedure over every scheduled level."""
        for level in self.schedule.levels:
            self._allocate_level(level)
        self._emit_copy_stores()
        return self._to_program()

    def _allocate_level(self, level: list[ScheduledCluster]) -> None:
        """Plan each operand and result store of *level* once, then
        append its execute cycle and stamp the bookings that name it."""
        self.refusals.append({})
        # A stall moves the execute cycle but not this bound, so the
        # staging window widens with every inserted cycle.
        floor = len(self.cycles) - self.stage_window
        operands = self._values.operands
        stage = self._stage_operand
        planned = []
        for item in level:
            cluster_id = item.cluster.id
            held = [stage(vid, item.pp, leaf, floor)
                    for leaf, vid in enumerate(operands[cluster_id])]
            planned.append((held, self._plan_store(cluster_id, item.pp)))
        exec_cycle = len(self.cycles)
        draft = self._new_cycle()
        writes = self.write_ports
        row = exec_cycle * writes.width
        writes.rows[row:row + writes.width] = self._result_writes.rows
        self._result_writes.rows = [None] * writes.width
        busy = self.registers.busy
        for item, (held, stored) in zip(level, planned):
            for index in held:
                busy[index] = exec_cycle
            cluster = item.cluster
            config = AluConfig(
                pp=item.pp, shape=cluster.shape, ops=cluster.ops,
                operands=[self._reglocs[index] for index in held],
                dests=[stored[0]] if stored else [],
                label=f"Clu{cluster.id}")
            draft.alu_configs.append(config)
            self.placement[cluster.id] = (exec_cycle, config)
            if stored:
                loc, unit, word = stored
                self.bus.add(exec_cycle, -1 - item.pp)
                self.residency[cluster.id] = (
                    loc, exec_cycle + 1, self._token(unit, word), unit)
                output = self._values.results[cluster.id][3]
                if output is not None:
                    self.output_layout[output] = loc

    def _stall(self, resource: str | None) -> None:
        """Insert a load cycle before the pending execute cycle, counted
        under *resource* for the level being planned."""
        refusals = self.refusals[-1]
        refusals[resource] = refusals.get(resource, 0) + 1
        self._new_cycle(is_stall=True)
        self.stats.stall_cycles += 1
        stalls = sum(refusals.values())
        if stalls > MAX_STALLS_PER_LEVEL:
            level = self.schedule.levels[len(self.refusals) - 1]
            raise AllocationError(
                f"level with clusters "
                f"{[item.cluster.id for item in level]} cannot "
                f"be staged within {stalls} inserted cycles")

    # -- operand staging -------------------------------------------------------

    def _stage_operand(self, vid: int, pp: int, bank: int,
                       floor: int) -> int:
        """Reuse, write back, or move the value (Fig. 5: 4, 3, 2, then
        1 cycles ahead of the consumer) into a register held until the
        pending execute cycle; returns its register-table index."""
        if bank >= self._n_banks:
            raise AllocationError(
                f"cluster needs leaf {bank}, tile has only "
                f"{self._n_banks} input banks")
        unit = pp * self._n_banks + bank
        registers = self.registers
        if self.enable_reuse:
            slot = registers.holding(unit, vid, len(self.cycles))
            if slot >= 0:
                index = unit * registers.size + slot
                registers.add(index, vid, registers.written[index],
                              _PENDING)
                self.stats.reuse_hits += 1
                return index
        bus = self.bus
        reads = self.read_ports
        ports = self.bank_ports
        refusal = None
        placed = self.placement[vid] if self.enable_bypass and \
            vid < self._values.n_clusters else None
        if placed is not None and floor <= placed[0]:
            # Direct write-back, window-bounded like staging: a result
            # needed later comes back from memory.
            producer_cycle, config = placed
            port = producer_cycle * ports.width + unit
            slot = registers.free(unit, producer_cycle)
            refusal = ports.can_add(port) or (REGISTER if slot < 0 else None)
            if refusal is None:
                index = unit * registers.size + slot
                registers.add(index, vid, producer_cycle, _PENDING)
                config.dests.append(self._reglocs[index])
                bus.add(producer_cycle, -1 - config.pp)
                ports.add(port)
                self.stats.bypasses += 1
                return index
        refused = [refusal] if refusal else []
        source, available, token, mem_unit = self.residency[vid]
        for cycle in itertools.count(max(available, floor)):
            while cycle >= len(self.cycles):
                # Every candidate refused: stall on the resource that
                # turned most of them away (the later one on a tie).
                self._stall(max(reversed(refused), key=refused.count)
                            if refused else LATENCY)
            refusal = bus.can_add(cycle, token) or (
                mem_unit >= 0 and reads.can_add(
                    read := cycle * reads.width + mem_unit, token)) \
                or ports.can_add(port := cycle * ports.width + unit) \
                or ((slot := registers.free(unit, cycle)) < 0 and REGISTER)
            if refusal:
                refused.append(refusal)
                continue
            index = unit * registers.size + slot
            registers.add(index, vid, cycle, _PENDING)
            self.cycles[cycle].moves.append(
                Move(source, self._reglocs[index]))
            bus.add(cycle, token)
            if mem_unit >= 0:
                reads.add(read, token)
            ports.add(port)
            self.stats.staged_moves += 1
            return index

    def _plan_store(self, cluster_id: int, pp: int) -> tuple | None:
        """Book a word for the result in the pending execute cycle;
        returns ``(MemLoc, unit, word)``.  A shadow word may share the
        input's memory (needed on tiles with a single memory)."""
        result = self._values.results.get(cluster_id)
        if result is None:
            return None
        word, address, shadow, _ = result
        candidates = [(word, address, self._input_units[word])]
        if shadow >= 0:
            candidates.append((shadow, _shadow(address), -1))
        units = self._units(self._first_pp.get(cluster_id, pp))
        while (booked := self._book_word(
                self._result_writes, 0, candidates,
                units)).__class__ is not tuple:
            self._stall(booked)
        self.stats.stores += 1
        return booked

    def _book_word(self, writes: SetTable, row: int, candidates, units,
                   source=None, mem_unit: int = -1):
        """Book the first (word, memory unit) whose write port in the
        *writes* row starting at *row* and whose memory take it,
        skipping each word's forbidden unit and the move's own source:
        ``(MemLoc, unit, word)``, else the last refusal."""
        refusal = None
        for word, address, forbidden in candidates:
            for unit in units:
                if unit == forbidden or (unit == mem_unit and
                                         address == source.addr):
                    continue
                refusal = (writes.can_add(row + unit, word)
                           or self.memory_words.can_add(unit, word))
                if refusal:
                    continue
                writes.add(row + unit, word)
                self.memory_words.add(unit, word)
                return (MemLoc(*divmod(unit, self._n_mems), address),
                        unit, word)
        return refusal

    def _emit_copy_stores(self) -> None:
        """Outputs whose value is not a fresh cluster result (constants,
        copied inputs, secondary addresses of a multiply-stored result)
        become plain crossbar moves after/between the compute cycles."""
        for address, vid in self._values.copies:
            source, available, token, mem_unit = self.residency[vid]
            shadow = _shadow(address)
            word = self._values.words[address]
            candidates = ((word, address, self._input_units[word]),
                          (self._values.words[shadow], shadow, -1))
            for attempt, cycle in enumerate(itertools.count(available)):
                if attempt > len(self.cycles) + 1000:
                    raise AllocationError(
                        f"cannot place copy store of {address}")
                if cycle >= len(self.cycles):
                    self._new_cycle()
                read = cycle * self.read_ports.width + mem_unit
                if self.bus.can_add(cycle, token) or (
                        mem_unit >= 0 and
                        self.read_ports.can_add(read, token)):
                    continue
                booked = self._book_word(
                    self.write_ports, cycle * self.write_ports.width,
                    candidates, self._units(0), source, mem_unit)
                if booked.__class__ is tuple:
                    self.cycles[cycle].moves.append(Move(source, booked[0]))
                    self.bus.add(cycle, token)
                    if mem_unit >= 0:
                        self.read_ports.add(read, token)
                    self.output_layout[address] = booked[0]
                    self.stats.copy_moves += 1
                    break

    def _to_program(self) -> TileProgram:
        cycles = self.cycles
        for cycle in cycles:
            cycle.alu_configs.sort(key=operator.attrgetter("pp"))
        return TileProgram(params=self.params, cycles=cycles,
                           data_layout=dict(self.data_layout),
                           output_layout=dict(self.output_layout))


def allocate(clustered: ClusterGraph, schedule: Schedule,
             params: TileParams | None = None,
             **options) -> tuple[TileProgram, AllocationStats]:
    """Allocate *schedule*; returns (program, stats)."""
    allocator = Allocator(clustered, schedule, params, **options)
    program = allocator.allocate()
    return program, allocator.stats
