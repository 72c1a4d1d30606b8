"""Reference interpreter for CDFGs.

This is the semantic ground truth of the whole reproduction: every
transformation pass and the complete mapping flow are tested by
checking that the final statespace they produce equals the one this
interpreter computes on the original graph.

Values flowing along edges are Python ints (VALUE), :class:`Address`
(ADDRESS) or :class:`StateSpace` (STATE).  Compound ``LOOP``/``BRANCH``
nodes are executed recursively; an iteration limit guards against
non-terminating loops in generated tests.

An optional *width* wraps every scalar result to a two's-complement
width (the FPFA data-path is 16-bit wide); by default arithmetic is
unbounded, which is what the algebraic transformations assume.

Evaluation plans
----------------
A graph is not walked node by node.  The first run of a graph lowers
it to a :class:`_Plan`: every node output gets a dense integer slot,
constants sit pre-wrapped in a per-width template of the slot list,
and each remaining node becomes one step — a closure its kind's
handler built, reading and writing slots — in topological order.
Running the graph copies the template and calls the steps.  A loop or
branch body is a graph of its own with its own plan, so a body is
planned once and reused on every iteration.  The plan is memoised on
the graph against :attr:`Graph.version`, beside its topological
order; a mutation rebuilds it on the next run, and pickling ships
only the node table, so the plan never travels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.cdfg.graph import COND_SLOT, Graph, Node
from repro.cdfg.ops import Address, OpKind, scalar_function, wrap_value
from repro.cdfg.statespace import StateSpace


class InterpreterError(Exception):
    """Raised on semantic errors during CDFG execution."""


@dataclass
class RunResult:
    """The observable outcome of executing a CDFG."""

    state: StateSpace
    outputs: dict[Any, Any] = field(default_factory=dict)

    def fetch(self, address: Address | str, **kwargs) -> Any:
        """Convenience: read the final statespace."""
        return self.state.fetch(address, **kwargs)


_wrap = wrap_value

#: What an SS_IN inside a compound body reads.  Statespaces are
#: immutable, so every body evaluation can share one.
_EMPTY = StateSpace()


class Interpreter:
    """Executes CDFGs produced by :mod:`repro.cdfg.builder`."""

    def __init__(self, *, max_iterations: int = 1_000_000,
                 width: int | None = None, strict_fetch: bool = False):
        self.max_iterations = max_iterations
        self.width = width
        self.strict_fetch = strict_fetch

    # -- public --------------------------------------------------------

    def run(self, graph: Graph, initial_state: StateSpace | None = None,
            inputs: Mapping[str, int] | None = None) -> RunResult:
        """Execute *graph* and return its final state and outputs."""
        env: dict[Any, Any] = {}
        if inputs:
            env.update(inputs)
        plan = _plan(graph)
        values = self._execute(plan, env, initial_state or StateSpace())
        result = RunResult(state=initial_state or StateSpace())
        if plan.final_states:
            result.state = values[plan.final_states[-1]]
        for name, slot in plan.outputs:
            result.outputs[name] = values[slot]
        return result

    # -- internals -------------------------------------------------------

    def _execute(self, plan: "_Plan", env: Mapping[Any, Any],
                 state: StateSpace) -> list:
        """Run every step of *plan*; return the filled slot list."""
        values = plan.slots(self.width)
        for step in plan.steps:
            step(values, self, env, state)
        return values

    def _eval_body(self, body: Graph, env: Mapping[Any, Any]) -> dict:
        """Run a compound body; return its OUTPUT slot -> value map."""
        plan = _plan(body)
        values = self._execute(plan, env, _EMPTY)
        return {name: values[slot] for name, slot in plan.outputs}


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------

#: One step of a plan: ``step(values, interpreter, env, state)``.
Step = Callable[[list, Interpreter, Mapping, StateSpace], None]


class _Plan:
    """One graph lowered to slot-indexed steps (see the module
    docstring).  Built by :func:`_plan`; never pickled."""

    __slots__ = ("size", "constants", "steps", "outputs",
                 "final_states", "_templates")

    def __init__(self, graph: Graph):
        slot_of: dict[tuple[int, int], int] = {}
        constants: list[tuple[int, OpKind, Any]] = []
        steps: list[Step] = []
        for node in graph.topo_order():
            out = len(slot_of)
            for index in range(node.n_outputs):
                slot_of[(node.id, index)] = out + index
            kind = node.kind
            if kind is OpKind.CONST or kind is OpKind.ADDR:
                constants.append((out, kind, node.value))
            elif kind is not OpKind.OUTPUT and kind is not OpKind.SS_OUT:
                handler = _HANDLERS.get(kind, _scalar)
                steps.append(handler(
                    node, out, tuple(slot_of[ref] for ref in node.inputs)))
        roots = graph.sorted_nodes()
        self.size = len(slot_of)
        self.constants = constants
        self.steps = steps
        #: (OUTPUT slot name, value slot), in node-id order.
        self.outputs = [(node.value, slot_of[node.inputs[0]])
                        for node in roots if node.kind is OpKind.OUTPUT]
        #: Value slots of the SS_OUT nodes, in node-id order.
        self.final_states = [slot_of[node.inputs[0]] for node in roots
                             if node.kind is OpKind.SS_OUT]
        self._templates: dict[int | None, list] = {}

    def slots(self, width: int | None) -> list:
        """A fresh slot list holding the constants, wrapped to
        *width*."""
        template = self._templates.get(width)
        if template is None:
            template = [None] * self.size
            for slot, kind, value in self.constants:
                template[slot] = _wrap(value, width) \
                    if kind is OpKind.CONST else value
            self._templates[width] = template
        return template[:]


def _plan(graph: Graph) -> _Plan:
    """*graph*'s plan, built on first use and after each mutation."""
    cached = graph._plan_cache
    if cached is not None and cached[0] == graph.version:
        return cached[1]
    plan = _Plan(graph)
    graph._plan_cache = (graph.version, plan)
    return plan


# ---------------------------------------------------------------------------
# Per-kind handlers: each builds the step of one node
# ---------------------------------------------------------------------------

def _not_state(node: Node, value) -> InterpreterError:
    return InterpreterError(
        f"node {node.id} ({node.kind}) expected a statespace, "
        f"got {type(value).__name__}")


def _not_address(node: Node, value) -> InterpreterError:
    return InterpreterError(
        f"node {node.id} ({node.kind}) expected an address, "
        f"got {type(value).__name__}")


def _input(node: Node, out: int, ins: tuple) -> Step:
    name = node.value

    def step(values, interp, env, state):
        if name not in env:
            raise InterpreterError(
                f"no value supplied for input {name!r}")
        values[out] = env[name]
    return step


def _ss_in(node: Node, out: int, ins: tuple) -> Step:
    def step(values, interp, env, state):
        values[out] = state
    return step


def _store(node: Node, out: int, ins: tuple) -> Step:
    state_in, address_in, data_in = ins

    def step(values, interp, env, state):
        space = values[state_in]
        if not isinstance(space, StateSpace):
            raise _not_state(node, space)
        address = values[address_in]
        if not isinstance(address, Address):
            raise _not_address(node, address)
        values[out] = space.store(address, values[data_in])
    return step


def _fetch(node: Node, out: int, ins: tuple) -> Step:
    state_in, address_in = ins

    def step(values, interp, env, state):
        space = values[state_in]
        if not isinstance(space, StateSpace):
            raise _not_state(node, space)
        address = values[address_in]
        if not isinstance(address, Address):
            raise _not_address(node, address)
        values[out] = space.fetch(address, strict=interp.strict_fetch)
    return step


def _delete(node: Node, out: int, ins: tuple) -> Step:
    state_in, address_in = ins

    def step(values, interp, env, state):
        space = values[state_in]
        if not isinstance(space, StateSpace):
            raise _not_state(node, space)
        address = values[address_in]
        if not isinstance(address, Address):
            raise _not_address(node, address)
        values[out] = space.delete(address)
    return step


def _address_add(node: Node, out: int, ins: tuple) -> Step:
    address_in, offset_in = ins

    def step(values, interp, env, state):
        address = values[address_in]
        if not isinstance(address, Address):
            raise _not_address(node, address)
        values[out] = address.shifted(values[offset_in])
    return step


def _mux(node: Node, out: int, ins: tuple) -> Step:
    cond_in, true_in, false_in = ins

    def step(values, interp, env, state):
        values[out] = values[true_in] if values[cond_in] != 0 \
            else values[false_in]
    return step


def _scalar_failed(node: Node, error: Exception,
                   operands: list) -> InterpreterError:
    if scalar_function(node.kind) is None:
        return InterpreterError(
            f"operation {node.kind} has no scalar evaluator")
    if isinstance(error, ValueError):
        return InterpreterError(str(error))
    return InterpreterError(
        f"bad operand types for {node.kind} at node {node.id}: "
        f"{operands!r}")


def _scalar(node: Node, out: int, ins: tuple) -> Step:
    """Every kind :func:`repro.cdfg.ops.eval_op` evaluates."""
    function = scalar_function(node.kind)
    if len(ins) == 2:
        left_in, right_in = ins

        def step(values, interp, env, state):
            try:
                result = function(values[left_in], values[right_in])
            except (TypeError, ValueError) as error:
                raise _scalar_failed(node, error, [
                    values[left_in], values[right_in]]) from None
            width = interp.width
            values[out] = result if width is None \
                else _wrap(result, width)
        return step

    def step(values, interp, env, state):
        operands = [values[slot] for slot in ins]
        try:
            result = function(*operands)
        except (TypeError, ValueError) as error:
            raise _scalar_failed(node, error, operands) from None
        values[out] = _wrap(result, interp.width)
    return step


def _loop(node: Node, out: int, ins: tuple) -> Step:
    names = node.value
    body = node.bodies[0]

    def step(values, interp, env, state):
        carried = {name: values[slot] for name, slot in zip(names, ins)}
        for _ in range(interp.max_iterations):
            outputs = interp._eval_body(body, carried)
            if COND_SLOT not in outputs:
                raise InterpreterError(
                    f"LOOP node {node.id} body has no condition output")
            if outputs[COND_SLOT] == 0:
                break
            carried = {name: outputs[name] for name in names}
        else:
            raise InterpreterError(
                f"LOOP node {node.id} exceeded "
                f"{interp.max_iterations} iterations")
        for index, name in enumerate(names):
            values[out + index] = carried[name]
    return step


def _branch(node: Node, out: int, ins: tuple) -> Step:
    live_ins, live_outs = node.value
    cond_in, *operand_ins = ins
    then_body, else_body = node.bodies

    def step(values, interp, env, state):
        arm = then_body if values[cond_in] != 0 else else_body
        outputs = interp._eval_body(arm, {
            name: values[slot]
            for name, slot in zip(live_ins, operand_ins)})
        for index, name in enumerate(live_outs):
            if name not in outputs:
                raise InterpreterError(
                    f"BRANCH node {node.id} arm is missing output "
                    f"{name!r}")
            values[out + index] = outputs[name]
    return step


#: Step builders by kind; every other kind (CONST, ADDR, OUTPUT and
#: SS_OUT aside) is a scalar operation.
_HANDLERS: dict[OpKind, Callable[[Node, int, tuple], Step]] = {
    OpKind.INPUT: _input,
    OpKind.SS_IN: _ss_in,
    OpKind.ST: _store,
    OpKind.FE: _fetch,
    OpKind.DEL: _delete,
    OpKind.ADDR_ADD: _address_add,
    OpKind.MUX: _mux,
    OpKind.LOOP: _loop,
    OpKind.BRANCH: _branch,
}


def run_graph(graph: Graph, initial_state: StateSpace | None = None,
              inputs: Mapping[str, int] | None = None,
              **interp_kwargs) -> RunResult:
    """Execute *graph*; see :class:`Interpreter` for keyword options."""
    return Interpreter(**interp_kwargs).run(graph, initial_state, inputs)


def run_main(source: str, initial_state: StateSpace | None = None,
             **interp_kwargs) -> RunResult:
    """Build the CDFG of C *source*'s main and execute it."""
    from repro.cdfg.builder import build_main_cdfg
    graph = build_main_cdfg(source)
    return run_graph(graph, initial_state, **interp_kwargs)
