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

The allocator walks the schedule level by level and builds the
per-cycle tile program under every resource limit the paper names
(§VI-C): register bank sizes, memory sizes, crossbar buses and
memory/register-bank ports.  Exactly as in Fig. 5:

* each level becomes one execute cycle; its clusters' ALUs are
  configured on their scheduled PPs;
* every live cluster result is stored to a memory in its execute
  cycle — the memory is chosen in the first consumer's PP (*locality
  of reference*), never a word that still holds live input data;
* every leaf operand must sit in the *proper* register bank (leaf i
  feeds ALU input i, so bank Ra..Rd) before the cycle starts.  The
  allocator tries, in order: (1) *reuse* — the value already resides
  in the right bank; (2) *direct write-back* — the producing ALU
  latches its result straight into the consumer's input register via
  the crossbar (Fig. 1: "the crossbar enables an ALU to write back
  their result to any register or memory within a tile"); (3) a
  *staging move* from memory (or an immediate from the control unit)
  placed 4, then 3, 2, 1 cycles ahead of the consumer;
* when an operand cannot be staged, the level is rolled back, a stall
  (load) cycle is inserted before it, and the level is replanned —
  "insert one or more clock cycles before the current one".

Backtracking is journal-based: every mutation a level attempt makes
(a claimed register, a booked bus, a drafted move, a residency-table
entry) pushes one typed undo record onto :class:`_Journal` — a plain
tuple whose first item says which inverse to apply (pop a list, drop
a set element, restore or delete a dict entry, restore a register
slot) — and a failed attempt rolls those records back in reverse.
The four statistics counters an attempt can bump are saved as one
tuple before it starts and put back on failure.  A retry therefore
costs O(changes the attempt made) — not O(whole allocator state) —
and the per-level retry loop copies nothing: no register-file deep
copy, no ``mem_words`` set copies, no cycle-draft clones, and it
builds no closures.

Options ``enable_bypass`` / ``enable_reuse`` / ``stage_window`` exist
for the locality ablation (EXT-C): disabling them yields the
memory-only staging baseline.

Invariants
----------
* The emitted program respects *every* per-cycle resource limit of
  :class:`repro.arch.params.TileParams` — bank/memory sizes, bus
  count, read/write ports; the fully-checked simulator would raise
  on any violation, and the property tests drive it across random
  tiles.
* A value is never read in the cycle it is written (end-of-cycle
  commit), and a staged operand is staged at most
  ``stage_window`` cycles ahead.
* Allocation is deterministic: candidate locations are tried in a
  fixed order, so the same schedule and params always yield the
  same program, stall count and move count.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.arch.control import (
    AluConfig,
    Cycle,
    ImmSource,
    MemLoc,
    Move,
    RegLoc,
    TileProgram,
)
from repro.arch.params import TileParams
from repro.cdfg.ops import Address
from repro.core.clustering import Cluster, ClusterGraph
from repro.core.scheduling import Schedule, ScheduledCluster
from repro.core.taskgraph import Operand, OperandKind


class AllocationError(Exception):
    """Raised when a schedule cannot be allocated at all."""


class _LevelRetry(Exception):
    """Internal: the pending level needs a stall cycle inserted."""


#: Undo record tags: the first item of every journal entry.
_POP = 0      # (_POP, items): undo ``items.append``
_DISCARD = 1  # (_DISCARD, values, element): undo ``values.add``
_RESTORE = 2  # (_RESTORE, table, key, old): undo overwriting an entry
_DELETE = 3   # (_DELETE, table, key): undo adding an entry
_SLOT = 4     # (_SLOT, slot, value, write_cycle, busy_until)


class _Journal:
    """Undo log for one level attempt.

    ``entries`` holds typed undo records (see the tags above), pushed
    by the allocator's ``_j_*`` helpers.  ``rollback(mark)`` pops and
    applies them newest-first until the journal is back at *mark*,
    restoring exactly the state the attempt started from in
    O(changes).
    """

    __slots__ = ("entries",)

    def __init__(self):
        self.entries: list[tuple] = []

    def mark(self) -> int:
        return len(self.entries)

    def rollback(self, mark: int) -> None:
        entries = self.entries
        while len(entries) > mark:
            entry = entries.pop()
            tag = entry[0]
            if tag == _POP:
                entry[1].pop()
            elif tag == _DISCARD:
                entry[1].discard(entry[2])
            elif tag == _RESTORE:
                entry[1][entry[2]] = entry[3]
            elif tag == _DELETE:
                del entry[1][entry[2]]
            else:
                _, slot, slot.value, slot.write_cycle, \
                    slot.busy_until = entry

    def commit(self) -> None:
        """Drop all entries (the attempt succeeded; nothing to undo)."""
        self.entries.clear()


#: Identity of a value for residency tracking.
ValueKey = tuple


def _value_key(operand: Operand, owner: dict[int, int]) -> ValueKey:
    if operand.kind is OperandKind.CONST:
        return ("const", operand.value)
    if operand.kind is OperandKind.MEM:
        return ("mem", operand.value)
    return ("cluster", owner[operand.task_id])


@dataclass
class _Slot:
    """One physical register of one input bank."""

    value: ValueKey | None = None
    write_cycle: int = -1
    busy_until: int = -1


@dataclass
class _CycleDraft:
    """Mutable bookkeeping for one cycle being planned."""

    alu_configs: dict[int, AluConfig] = field(default_factory=dict)
    moves: list[Move] = field(default_factory=list)
    #: Values on the crossbar: ("alu", pp) for a broadcast result, a
    #: source token (see ``Allocator._in_memory``) for a move.
    bus: set = field(default_factory=set)
    mem_reads: dict = field(default_factory=dict)   # (pp,mem) -> {token}
    mem_writes: dict = field(default_factory=dict)  # (pp,mem) -> {addr}
    bank_writes: dict = field(default_factory=dict)  # (pp,bank) -> int
    is_stall: bool = False


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


class Allocator:
    """Allocates one schedule onto one tile."""

    def __init__(self, clustered: ClusterGraph, schedule: Schedule,
                 params: TileParams | None = None, *,
                 enable_bypass: bool = True, enable_reuse: bool = True,
                 stage_window: int | None = None,
                 max_stalls_per_level: int = 64):
        self.clustered = clustered
        self.schedule = schedule
        self.params = params or TileParams()
        self.enable_bypass = enable_bypass
        self.enable_reuse = enable_reuse
        self.stage_window = stage_window or self.params.max_stage_ahead
        self.max_stalls_per_level = max_stalls_per_level
        self.stats = AllocationStats()

        # -- mutable planning state (journal-rolled-back on retries) --
        self._journal = _Journal()
        self.cycles: list[_CycleDraft] = []
        self.banks: dict[tuple[int, int], list[_Slot]] = {
            (pp, bank): [_Slot() for _ in range(self.params.regs_per_bank)]
            for pp in range(self.params.n_pps)
            for bank in range(self.params.banks_per_pp)}
        self.mem_words: dict[tuple[int, int], set[Address]] = {
            (pp, mem): set()
            for pp in range(self.params.n_pps)
            for mem in range(self.params.memories_per_pp)}
        #: value -> (location, first readable cycle, source token)
        self.value_in_memory: dict[ValueKey, tuple[MemLoc, int, int]] = {}
        self._source_tokens: dict[MemLoc, int] = {}
        self.cluster_exec_cycle: dict[int, int] = {}
        self.data_layout: dict[Address, MemLoc] = {}
        self.output_layout: dict[Address, MemLoc] = {}

        self._prepare()

    # -- setup ------------------------------------------------------------

    def _prepare(self) -> None:
        """Compute per-cluster output addresses, consumers, layout."""
        owner = self.clustered.owner
        self.cluster_outputs: dict[int, list[Address]] = {}
        for store in self.clustered.stores:
            if store.source.kind is OperandKind.TASK:
                cluster_id = owner[store.source.task_id]
                self.cluster_outputs.setdefault(cluster_id, []).append(
                    store.address)
        successors = self.clustered.successors()
        self.first_consumer_pp: dict[int, int | None] = {}
        for cluster_id in self.clustered.clusters:
            consumers = sorted(
                successors[cluster_id],
                key=lambda cid: (self.schedule.level_of(cid),
                                 self.schedule.pp_of(cid)))
            self.first_consumer_pp[cluster_id] = (
                self.schedule.pp_of(consumers[0]) if consumers else None)
        self._layout_inputs()

    def _layout_inputs(self) -> None:
        """Place every initial-memory word near its first consumer."""
        wanted: dict[Address, int] = {}
        for level in self.schedule.levels:
            for item in level:
                for operand in item.cluster.operands:
                    if operand.kind is OperandKind.MEM and \
                            operand.value not in wanted:
                        wanted[operand.value] = item.pp
        for store in self.clustered.stores:
            if store.source.kind is OperandKind.MEM and \
                    store.source.value not in wanted:
                wanted[store.source.value] = 0
        toggle: dict[int, int] = {}
        n_mems = self.params.memories_per_pp
        for address in sorted(wanted):
            preferred_pp = wanted[address]
            placed = False
            for pp in self._pp_preference(preferred_pp):
                start = toggle.get(pp, 0)
                for offset in range(n_mems):
                    candidate = (start + offset) % n_mems
                    words = self.mem_words[(pp, candidate)]
                    if len(words) < self.params.memory_words:
                        loc = MemLoc(pp, candidate, address)
                        self.data_layout[address] = loc
                        words.add(address)
                        self.value_in_memory[("mem", address)] = \
                            self._in_memory(loc, 0)
                        toggle[pp] = (candidate + 1) % n_mems
                        placed = True
                        break
                if placed:
                    break
            if not placed:
                raise AllocationError(
                    f"tile memories cannot hold input word {address}")

    def _in_memory(self, loc: MemLoc, available: int) -> tuple:
        """A ``value_in_memory`` entry for a value readable at *loc*
        from cycle *available* on.  Its source token is an integer
        naming *loc*, so the per-cycle bus and read-port sets hash an
        int, not a ``MemLoc``, on every staging attempt."""
        tokens = self._source_tokens
        return loc, available, tokens.setdefault(loc, len(tokens))

    def _pp_preference(self, preferred: int | None) -> list[int]:
        pps = list(range(self.params.n_pps))
        if preferred is None:
            return pps
        return [preferred] + [pp for pp in pps if pp != preferred]

    # -- the undo journal ----------------------------------------------------
    #
    # A failed level attempt only ever mutates: the appended execute
    # cycle, the `window` cycles before it (staging moves and direct
    # write-backs are both window-bounded), a handful of register
    # slots, and a few residency-dict entries.  Each such mutation
    # goes through one of the helpers below, which records its exact
    # inverse in the journal; `_LevelRetry` rolls the journal back.
    # A retry is therefore O(changes the attempt made) — whole-program
    # allocation stays linear in the number of clusters (the paper's
    # §VI-C complexity claim) with no per-retry deep copies at all.

    def _j_append_cycle(self) -> _CycleDraft:
        draft = _CycleDraft()
        self.cycles.append(draft)
        self._journal.entries.append((_POP, self.cycles))
        return draft

    def _j_list_append(self, items: list, value) -> None:
        items.append(value)
        self._journal.entries.append((_POP, items))

    def _j_set_add(self, values: set, element) -> None:
        if element not in values:
            values.add(element)
            self._journal.entries.append((_DISCARD, values, element))

    def _j_dict_set(self, table: dict, key, value) -> None:
        if key in table:
            self._journal.entries.append(
                (_RESTORE, table, key, table[key]))
        else:
            self._journal.entries.append((_DELETE, table, key))
        table[key] = value

    def _j_slot_write(self, slot: _Slot, value: ValueKey | None,
                      write_cycle: int, busy_until: int) -> None:
        self._journal.entries.append(
            (_SLOT, slot, slot.value, slot.write_cycle, slot.busy_until))
        slot.value = value
        slot.write_cycle = write_cycle
        slot.busy_until = busy_until

    # -- main ------------------------------------------------------------------

    def allocate(self) -> TileProgram:
        """Run the Fig. 5 procedure over every scheduled level."""
        for level in self.schedule.levels:
            self._allocate_level(level)
        self._emit_copy_stores()
        return self._to_program()

    def _allocate_level(self, level: list[ScheduledCluster]) -> None:
        stalls = 0
        while True:
            mark = self._journal.mark()
            stats = self.stats
            counters = (stats.reuse_hits, stats.bypasses,
                        stats.staged_moves, stats.stores)
            try:
                # Fig. 5 stages 4..1 cycles ahead; when inserted load
                # cycles pile up, the window widens with them so the
                # fresh bus/port capacity is actually reachable (else
                # a level needing more moves than window x buses could
                # never complete).
                self._plan_level(level, self.stage_window + stalls)
                self._journal.commit()
                return
            except _LevelRetry:
                self._journal.rollback(mark)
                (stats.reuse_hits, stats.bypasses, stats.staged_moves,
                 stats.stores) = counters
                # The inserted stall outlives this attempt's rollback
                # scope — the next attempt plans over it — so it is
                # appended outside the journal.
                stall = _CycleDraft(is_stall=True)
                self.cycles.append(stall)
                stats.stall_cycles += 1
                stalls += 1
                if stalls > self.max_stalls_per_level:
                    raise AllocationError(
                        f"level with clusters "
                        f"{[item.cluster.id for item in level]} cannot "
                        f"be staged within {stalls} inserted cycles")

    def _plan_level(self, level: list[ScheduledCluster],
                    window: int | None = None) -> None:
        window = window or self.stage_window
        exec_cycle = len(self.cycles)
        draft = self._j_append_cycle()
        for item in level:
            cluster = item.cluster
            operand_locs = [
                self._stage_operand(operand, item.pp, leaf, exec_cycle,
                                    window)
                for leaf, operand in enumerate(cluster.operands)]
            dests = self._plan_store(cluster, item.pp, exec_cycle)
            config = AluConfig(pp=item.pp, shape=cluster.shape,
                               ops=cluster.ops, operands=operand_locs,
                               dests=dests, label=f"Clu{cluster.id}")
            self._j_dict_set(draft.alu_configs, item.pp, config)
            if dests:
                self._j_set_add(draft.bus, ("alu", item.pp))
            self._j_dict_set(self.cluster_exec_cycle, cluster.id,
                             exec_cycle)

    # -- operand staging -------------------------------------------------------

    def _stage_operand(self, operand: Operand, pp: int, bank: int,
                       exec_cycle: int, window: int | None = None
                       ) -> RegLoc:
        window = window or self.stage_window
        if bank >= self.params.banks_per_pp:
            raise AllocationError(
                f"cluster needs leaf {bank}, tile has only "
                f"{self.params.banks_per_pp} input banks")
        key = _value_key(operand, self.clustered.owner)
        slots = self.banks[(pp, bank)]

        if self.enable_reuse:
            for index, slot in enumerate(slots):
                if slot.value == key and slot.write_cycle <= exec_cycle - 1:
                    self._j_slot_write(
                        slot, slot.value, slot.write_cycle,
                        max(slot.busy_until, exec_cycle))
                    self.stats.reuse_hits += 1
                    return RegLoc(pp, bank, index)

        if self.enable_bypass and key[0] == "cluster":
            bypass = self._try_bypass(key[1], pp, bank, exec_cycle,
                                      window)
            if bypass is not None:
                self.stats.bypasses += 1
                return bypass

        return self._stage_via_move(key, pp, bank, exec_cycle, window)

    def _try_bypass(self, producer_id: int, pp: int, bank: int,
                    exec_cycle: int, window: int) -> RegLoc | None:
        """Latch the producer's result straight into the input bank.

        Like memory staging, write-back is window-bounded: a result
        needed further ahead than the staging window comes back from
        memory instead of squatting in a register (and level retries
        stay O(window))."""
        producer_cycle = self.cluster_exec_cycle.get(producer_id)
        if producer_cycle is None or producer_cycle >= exec_cycle:
            return None
        if producer_cycle < exec_cycle - window:
            return None
        draft = self.cycles[producer_cycle]
        producer_pp = self.schedule.pp_of(producer_id)
        config = draft.alu_configs.get(producer_pp)
        if config is None or config.label != f"Clu{producer_id}":
            return None
        used = draft.bank_writes.get((pp, bank), 0)
        if used >= self.params.bank_write_ports:
            return None
        slot_index = self._claim_slot(pp, bank, producer_cycle,
                                      exec_cycle,
                                      ("cluster", producer_id))
        if slot_index is None:
            return None
        loc = RegLoc(pp, bank, slot_index)
        self._j_list_append(config.dests, loc)
        self._j_set_add(draft.bus, ("alu", producer_pp))
        self._j_dict_set(draft.bank_writes, (pp, bank), used + 1)
        return loc

    def _stage_via_move(self, key: ValueKey, pp: int, bank: int,
                        exec_cycle: int, window: int) -> RegLoc:
        """Fig. 5: try 4, 3, 2, then 1 cycles ahead of the consumer."""
        source, available, token = self._source_of(key)
        window_start = max(available, exec_cycle - window)
        for cycle in range(window_start, exec_cycle):
            loc = self._try_move_at(cycle, source, token, key, pp, bank,
                                    exec_cycle)
            if loc is not None:
                self.stats.staged_moves += 1
                return loc
        raise _LevelRetry()

    def _try_move_at(self, cycle: int, source, token, key: ValueKey,
                     pp: int, bank: int, exec_cycle: int
                     ) -> RegLoc | None:
        draft = self.cycles[cycle]
        if token not in draft.bus and \
                len(draft.bus) >= self.params.n_buses:
            return None
        reads = None
        if isinstance(source, MemLoc):
            reads = draft.mem_reads.setdefault((source.pp, source.mem),
                                               set())
            if token not in reads and \
                    len(reads) >= self.params.mem_read_ports:
                return None
        used = draft.bank_writes.get((pp, bank), 0)
        if used >= self.params.bank_write_ports:
            return None
        slot_index = self._claim_slot(pp, bank, cycle, exec_cycle, key)
        if slot_index is None:
            return None
        loc = RegLoc(pp, bank, slot_index)
        self._j_list_append(draft.moves, Move(source=source, dest=loc))
        self._j_set_add(draft.bus, token)
        if reads is not None:
            self._j_set_add(reads, token)
        self._j_dict_set(draft.bank_writes, (pp, bank), used + 1)
        return loc

    def _claim_slot(self, pp: int, bank: int, write_cycle: int,
                    use_cycle: int, key: ValueKey) -> int | None:
        """Find a register free for [write_cycle, use_cycle]."""
        slots = self.banks[(pp, bank)]
        best_index = None
        best_busy = None
        for index, slot in enumerate(slots):
            if slot.busy_until <= write_cycle and \
                    slot.write_cycle <= write_cycle:
                if best_busy is None or slot.busy_until < best_busy:
                    best_index = index
                    best_busy = slot.busy_until
        if best_index is None:
            return None
        self._j_slot_write(slots[best_index], key, write_cycle,
                           use_cycle)
        return best_index

    def _source_of(self, key: ValueKey) -> tuple:
        """(source, first readable cycle, source token) of a value."""
        if key[0] == "const":
            return ImmSource(key[1]), 0, key
        entry = self.value_in_memory.get(key)
        if entry is None:
            raise AllocationError(f"value {key} is nowhere in memory")
        return entry

    # -- result stores -----------------------------------------------------------

    @staticmethod
    def _shadow(address: Address) -> Address:
        """A distinct word key for an output whose logical address
        also holds live input data (the data_layout word must stay
        readable; output_layout redirects readers to the shadow)."""
        return Address(f"$out${address.name}", address.offset)

    def _plan_store(self, cluster: Cluster, pp: int,
                    exec_cycle: int) -> list:
        outputs = self.cluster_outputs.get(cluster.id, [])
        has_consumers = self.first_consumer_pp[cluster.id] is not None
        if not outputs and not has_consumers:
            return []
        address = outputs[0] if outputs else Address(f"$t{cluster.id}")
        preferred_pp = self.first_consumer_pp[cluster.id]
        if preferred_pp is None:
            preferred_pp = pp
        draft = self.cycles[exec_cycle]
        forbidden = self.data_layout.get(address)
        candidate_words: list[tuple[Address, bool]] = [(address, True)]
        if forbidden is not None:
            # fallback: a shadow word may share even the input's own
            # memory (needed on tiles with a single memory)
            candidate_words.append((self._shadow(address), False))
        for word, respect_forbidden in candidate_words:
            for candidate_pp in self._pp_preference(preferred_pp):
                for mem in range(self.params.memories_per_pp):
                    loc = MemLoc(candidate_pp, mem, word)
                    if respect_forbidden and forbidden is not None and \
                            (loc.pp, loc.mem) == (forbidden.pp,
                                                  forbidden.mem):
                        continue
                    writes = draft.mem_writes.setdefault(
                        (candidate_pp, mem), set())
                    if len(writes) >= self.params.mem_write_ports:
                        continue
                    words = self.mem_words[(candidate_pp, mem)]
                    if word not in words and \
                            len(words) >= self.params.memory_words:
                        continue
                    self._j_set_add(writes, word)
                    self._j_set_add(words, word)
                    self._j_dict_set(self.value_in_memory,
                                     ("cluster", cluster.id),
                                     self._in_memory(loc, exec_cycle + 1))
                    if outputs:
                        self._j_dict_set(self.output_layout,
                                         outputs[0], loc)
                    self.stats.stores += 1
                    return [loc]
        raise _LevelRetry()

    def _emit_copy_stores(self) -> None:
        """Outputs whose value is not a fresh cluster result (constants,
        copied inputs, secondary addresses of a multiply-stored result)
        become plain crossbar moves after/between the compute cycles."""
        owner = self.clustered.owner
        for store in self.clustered.stores:
            if store.source.kind is OperandKind.TASK:
                cluster_id = owner[store.source.task_id]
                primary = self.cluster_outputs[cluster_id][0]
                if store.address == primary:
                    continue  # written by the execute-cycle store
                entry = self._source_of(("cluster", cluster_id))
            else:
                entry = self._source_of(_value_key(store.source, owner))
            self._emit_copy_move(store.address, *entry)

    def _emit_copy_move(self, address: Address, source,
                        available: int, token) -> None:
        forbidden = self.data_layout.get(address)
        for attempt, cycle_index in enumerate(
                itertools.count(available)):
            if attempt > len(self.cycles) + 1000:
                raise AllocationError(
                    f"cannot place copy store of {address}")
            if cycle_index >= len(self.cycles):
                self.cycles.append(_CycleDraft(is_stall=False))
            draft = self.cycles[cycle_index]
            if token not in draft.bus and \
                    len(draft.bus) >= self.params.n_buses:
                continue
            if isinstance(source, MemLoc):
                reads = draft.mem_reads.setdefault(
                    (source.pp, source.mem), set())
                if token not in reads and \
                        len(reads) >= self.params.mem_read_ports:
                    continue
            if self._try_copy_dest(draft, address, source, forbidden,
                                   token):
                return

    def _try_copy_dest(self, draft: _CycleDraft, address: Address,
                       source, forbidden, token) -> bool:
        candidate_words: list[tuple[Address, bool]] = [(address, True)]
        candidate_words.append((self._shadow(address), False))
        for word, respect_forbidden in candidate_words:
            for pp in self._pp_preference(0):
                for mem in range(self.params.memories_per_pp):
                    if respect_forbidden and forbidden is not None and \
                            (pp, mem) == (forbidden.pp, forbidden.mem):
                        continue
                    if isinstance(source, MemLoc) and \
                            (pp, mem, word) == (source.pp, source.mem,
                                                source.addr):
                        continue
                    writes = draft.mem_writes.setdefault((pp, mem),
                                                         set())
                    if word in writes or \
                            len(writes) >= self.params.mem_write_ports:
                        continue
                    words = self.mem_words[(pp, mem)]
                    if word not in words and \
                            len(words) >= self.params.memory_words:
                        continue
                    loc = MemLoc(pp, mem, word)
                    draft.moves.append(Move(source=source, dest=loc))
                    draft.bus.add(token)
                    if isinstance(source, MemLoc):
                        draft.mem_reads[(source.pp, source.mem)].add(
                            token)
                    writes.add(word)
                    words.add(word)
                    self.output_layout[address] = loc
                    self.stats.copy_moves += 1
                    return True
        return False

    # -- emission -------------------------------------------------------------------

    def _to_program(self) -> TileProgram:
        cycles = []
        for draft in self.cycles:
            configs = [draft.alu_configs[pp]
                       for pp in sorted(draft.alu_configs)]
            cycles.append(Cycle(alu_configs=configs, moves=draft.moves,
                                is_stall=draft.is_stall))
        # Drop trailing fully idle cycles (can appear when a stall was
        # inserted and the replan no longer needed its slots).
        while cycles and not cycles[-1].alu_configs \
                and not cycles[-1].moves:
            cycles.pop()
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
