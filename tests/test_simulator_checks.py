"""The simulator's per-cycle resource checks, message by message.

Each check is pinned with the exact error it raises, including the
write-once check on memory words, and the order in which a cycle
breaking several limits reports them.
"""

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
from repro.arch.params import TileParams
from repro.arch.simulator import SimulationError, simulate
from repro.arch.templates import ClusterShape
from repro.cdfg.ops import Address, OpKind
from repro.cdfg.statespace import StateSpace


def word(pp, memory, name):
    return MemLoc(pp, memory, Address(name))


def run(moves, params=None, data=None, state=None, alu_configs=()):
    program = TileProgram(
        params=params or TileParams(),
        cycles=[Cycle(alu_configs=list(alu_configs), moves=moves)],
        data_layout=data or {})
    return simulate(program, state)


def fails(message, *args, **kwargs):
    with pytest.raises(SimulationError) as caught:
        run(*args, **kwargs)
    assert str(caught.value) == message


def test_memory_word_written_twice():
    fails("cycle 0: memory word PP0.MEM1[x] written twice",
          [Move(ImmSource(1), word(0, 0, "x")),
           Move(ImmSource(2), word(0, 0, "x"))],
          params=TileParams(mem_write_ports=2))


def test_same_name_in_two_memories_is_two_words():
    run([Move(ImmSource(1), word(0, 0, "x")),
         Move(ImmSource(2), word(0, 1, "x"))])


def test_a_double_write_is_reported_before_a_port_overflow():
    fails("cycle 0: memory word PP0.MEM1[x] written twice",
          [Move(ImmSource(1), RegLoc(0, 0, 0)),
           Move(ImmSource(2), RegLoc(0, 0, 1)),
           Move(ImmSource(3), word(0, 0, "x")),
           Move(ImmSource(4), word(0, 0, "x"))])


def test_register_written_twice():
    fails("cycle 0: register PP0.Ra[0] written twice",
          [Move(ImmSource(1), RegLoc(0, 0, 0)),
           Move(ImmSource(2), RegLoc(0, 0, 0))],
          params=TileParams(bank_write_ports=2))


def test_bus_limit():
    fails("cycle 0: 3 crossbar values exceed 2 buses",
          [Move(ImmSource(index), RegLoc(0, index, 0))
           for index in range(3)],
          params=TileParams(n_buses=2))


def test_an_alu_result_takes_a_bus():
    setup = TileProgram(params=TileParams(n_buses=1), cycles=[
        Cycle(moves=[Move(ImmSource(1), RegLoc(0, 0, 0))]),
        Cycle(alu_configs=[AluConfig(
            pp=0, shape=ClusterShape.SINGLE, ops=(OpKind.NEG,),
            operands=[RegLoc(0, 0, 0)], dests=[word(0, 0, "r")])],
            moves=[Move(ImmSource(2), RegLoc(0, 1, 0))])])
    with pytest.raises(SimulationError) as caught:
        simulate(setup)
    assert str(caught.value) == "cycle 1: 2 crossbar values exceed 1 buses"


def test_moves_of_one_source_share_a_bus():
    run([Move(ImmSource(7), RegLoc(pp, 0, 0)) for pp in range(3)],
        params=TileParams(n_buses=1))


def test_memory_read_ports():
    data = {Address("a"): word(0, 0, "a"), Address("b"): word(0, 0, "b")}
    fails("cycle 0: PP0.MEM1 serves 2 reads, has 1 port(s)",
          [Move(word(0, 0, "a"), RegLoc(0, 0, 0)),
           Move(word(0, 0, "b"), RegLoc(0, 1, 0)),
           Move(word(0, 0, "a"), RegLoc(0, 2, 0))],
          data=data, state=StateSpace({"a": 1, "b": 2}))


def test_reads_of_one_word_share_a_port():
    data = {Address("a"): word(0, 0, "a")}
    run([Move(word(0, 0, "a"), RegLoc(pp, 0, 0)) for pp in range(3)],
        data=data, state=StateSpace({"a": 1}))


def test_bank_write_ports():
    fails("cycle 0: PP0 bank 0 takes 2 writes, has 1 port(s)",
          [Move(ImmSource(1), RegLoc(0, 0, 0)),
           Move(ImmSource(2), RegLoc(0, 0, 1))])


def test_memory_write_ports():
    fails("cycle 0: PP0.MEM2 takes 2 writes, has 1 port(s)",
          [Move(ImmSource(1), word(0, 1, "x")),
           Move(ImmSource(2), word(0, 1, "y"))])


def test_outputs_overlay_the_initial_state_in_order():
    program = TileProgram(
        params=TileParams(),
        cycles=[Cycle(moves=[Move(ImmSource(5), word(0, 0, "y")),
                             Move(ImmSource(6), word(0, 1, "b"))])],
        output_layout={Address("y"): word(0, 0, "y"),
                       Address("b"): word(0, 1, "b")})
    initial = StateSpace({"z": 1, "y": 2})
    result = simulate(program, initial)
    assert list(result.as_dict().items()) == [
        (Address("z"), 1), (Address("y"), 5), (Address("b"), 6)]
    assert list(initial.as_dict().items()) == [
        (Address("z"), 1), (Address("y"), 2)]
