"""The interpreter's evaluation plan: pinned output and plan lifetime.

``tests/fixtures/interp_golden.json`` holds, per program and per
data-path width, the sha256 of the canonical final statespace and
outputs the interpreter computes.  The programs are the 15 suite
kernels (from ``Kernel.initial_state(0)``) and 100 programs of the
property tests' generator (from ``random_initial_state(seed)``), each
run as built (loops and branches intact, as verification runs it) and
as simplified (unrolled and folded at that width).  Widths 16 (the
tile's) and unbounded are the ones the flow uses; no pinned input
reaches 16-bit wraparound, so width 4 pins the wrapping paths too.
The fixture was recorded with the tree-walking interpreter the plan
replaced.  Regenerate (only when an output change is intended) with::

    PYTHONPATH=src python -m tests.test_interp_plan
"""

from __future__ import annotations

import hashlib
import json
import pickle
from pathlib import Path

import pytest

from repro.cdfg.builder import build_main_cdfg
from repro.cdfg.graph import Graph
from repro.cdfg.interp import Interpreter, InterpreterError, run_graph
from repro.cdfg.ops import OpKind
from repro.cdfg.statespace import StateSpace
from repro.core.pipeline import compile_frontend
from repro.eval.kernels import KERNELS
from tests.test_property import random_initial_state, random_source

FIXTURE = Path(__file__).parent / "fixtures" / "interp_golden.json"
WIDTHS = (16, None, 4)
RANDOM_PROGRAMS = 100


def programs() -> list[tuple[str, str, StateSpace]]:
    """(name, source, initial state) of every pinned program."""
    found = [(kernel.name, kernel.source, kernel.initial_state(0))
             for kernel in KERNELS]
    found.extend((f"random{seed}", random_source(seed),
                  random_initial_state(seed))
                 for seed in range(RANDOM_PROGRAMS))
    return found


def digest(graph: Graph, state: StateSpace, width: int | None) -> str:
    """sha256 of the exact final tuple set and outputs (or of the
    error) of running *graph* from *state*."""
    try:
        result = Interpreter(width=width).run(graph, state)
        canonical = {
            "state": [[str(address), repr(data)]
                      for address, data in result.state.items()],
            "outputs": sorted([repr(slot), repr(value)]
                              for slot, value in result.outputs.items())}
    except InterpreterError as error:
        canonical = {"error": str(error)}
    text = json.dumps(canonical, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def program_digests(source: str, state: StateSpace) -> dict[str, str]:
    digests = {}
    for width in WIDTHS:
        simplified = compile_frontend(source, width=width).minimised
        digests[f"built/{width}"] = digest(build_main_cdfg(source),
                                           state, width)
        digests[f"simplified/{width}"] = digest(simplified, state, width)
    return digests


def generate() -> dict:
    return {name: program_digests(source, state)
            for name, source, state in programs()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


def test_every_program_matches_golden(golden):
    assert len(golden) == len(KERNELS) + RANDOM_PROGRAMS
    for name, source, state in programs():
        assert program_digests(source, state) == golden[name], name


# ---------------------------------------------------------------------------
# Plan lifetime
# ---------------------------------------------------------------------------

FIR = """
void main() {
  sum = 0; i = 0;
  while (i < 4) { sum = sum + a[i] * c[i]; i = i + 1; }
}
"""


def _fir_state() -> StateSpace:
    return (StateSpace().store_array("a", [1, 2, 3, 4])
            .store_array("c", [5, 6, 7, 8]))


def _sum_of(graph: Graph) -> int:
    return run_graph(graph, _fir_state()).fetch("sum")


def test_plan_is_rebuilt_after_a_mutation():
    graph = Graph("plan")
    left, right = graph.const(20), graph.const(3)
    total = graph.add(OpKind.ADD, [left.out(), right.out()])
    graph.add(OpKind.OUTPUT, [total.out()], value="r", n_outputs=0)
    assert run_graph(graph).outputs == {"r": 23}
    product = graph.add(OpKind.MUL, [left.out(), right.out()])
    graph.replace_uses(total.out(), product.out())
    assert run_graph(graph).outputs == {"r": 60}
    graph.remove_dead()
    graph.set_input(product, 1, left.out())
    assert run_graph(graph).outputs == {"r": 400}


def test_loop_body_plan_is_rebuilt_after_a_body_mutation():
    graph = build_main_cdfg(FIR)
    assert _sum_of(graph) == 70
    (loop,) = graph.find(OpKind.LOOP)
    body = loop.bodies[0]
    (product,) = body.find(OpKind.MUL)
    version = graph.version
    difference = body.add(OpKind.SUB, list(product.inputs))
    body.replace_uses(product.out(), difference.out())
    assert graph.version == version  # only the body changed
    assert _sum_of(graph) == (1 - 5) + (2 - 6) + (3 - 7) + (4 - 8)


def test_pickling_a_planned_graph_gives_the_same_bytes():
    graph = build_main_cdfg(FIR)
    before = pickle.dumps(graph)
    assert _sum_of(graph) == 70
    assert pickle.dumps(graph) == before
    restored = pickle.loads(before)
    unplanned = pickle.dumps(restored)
    assert _sum_of(restored) == 70
    assert pickle.dumps(restored) == unplanned



# ---------------------------------------------------------------------------
# Every check keeps its message
# ---------------------------------------------------------------------------

def _output(graph: Graph, node, slot="r") -> None:
    graph.add(OpKind.OUTPUT, [node.out()], value=slot, n_outputs=0)


def _raises(graph: Graph, message: str, **options) -> None:
    with pytest.raises(InterpreterError) as caught:
        Interpreter(**options).run(graph)
    assert str(caught.value) == message


def test_missing_input_message():
    graph = Graph()
    _output(graph, graph.add(OpKind.INPUT, value="p"))
    _raises(graph, "no value supplied for input 'p'")


def test_statespace_and_address_messages():
    graph = Graph()
    number = graph.const(1)
    where = graph.addr("x")
    fetched = graph.add(OpKind.FE, [number.out(), where.out()])
    _output(graph, fetched)
    _raises(graph, f"node {fetched.id} (FE) expected a statespace, "
                   f"got int")

    graph = Graph()
    state = graph.add(OpKind.SS_IN)
    number = graph.const(1)
    stored = graph.add(OpKind.ST, [state.out(), number.out(),
                                   number.out()])
    graph.add(OpKind.SS_OUT, [stored.out()])
    _raises(graph, f"node {stored.id} (ST) expected an address, got int")

    graph = Graph()
    number = graph.const(1)
    shifted = graph.add(OpKind.ADDR_ADD, [number.out(), number.out()])
    _output(graph, shifted)
    _raises(graph, f"node {shifted.id} (addr+) expected an address, "
                   f"got int")


def test_bad_operand_message():
    graph = Graph()
    where = graph.addr("x")
    number = graph.const(2)
    total = graph.add(OpKind.ADD, [where.out(), number.out()])
    _output(graph, total)
    _raises(graph, f"bad operand types for + at node {total.id}: "
                   f"[Address(name='x', offset=0), 2]")


def test_loop_messages():
    graph = build_main_cdfg(
        "void main() { i = 0; while (i < 100) { i = i + 1; } }")
    (loop,) = graph.find(OpKind.LOOP)
    _raises(graph, f"LOOP node {loop.id} exceeded 10 iterations",
            max_iterations=10)

    body = loop.bodies[0]
    cond = body.body_outputs(body)["cond"]
    body.remove(cond.id)
    _raises(graph, f"LOOP node {loop.id} body has no condition output")


def test_branch_missing_output_message():
    graph = Graph()
    cond = graph.const(1)
    then_body, else_body = Graph("then"), Graph("else")
    _output(then_body, then_body.const(5), slot="y")
    _output(else_body, else_body.const(6), slot="x")
    branch = graph.add(OpKind.BRANCH, [cond.out()], value=((), ("x",)),
                       bodies=(then_body, else_body), n_outputs=1)
    _output(graph, branch)
    _raises(graph, f"BRANCH node {branch.id} arm is missing output 'x'")


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(generate(), indent=1, sort_keys=True)
                       + "\n")
    print(f"wrote {FIXTURE}")
