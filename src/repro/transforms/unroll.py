"""Complete loop unrolling (paper Fig. 3: "after complete loop
unrolling and full simplification").

A ``LOOP`` node is unrolled by repeatedly evaluating its body's
condition slice on the current (constant) carried values:

* condition **true**  → the body is spliced into the parent graph with
  the carried INPUT slots substituted by the current references, and
  the carried references advance to the body's next-value outputs;
* condition **false** → the loop node's outputs are rewired to the
  current references and the node disappears.

Splicing folds on the fly: a copied pure node whose operands are all
constants is emitted as a constant (and constant address arithmetic
as a constant address), so induction variables stay statically
evaluable from one iteration to the next without global re-folding.

Splicing also reuses constants: every CONST or ADDR it would emit —
a body constant copied into an iteration, or a folded value — is
looked up first among those already emitted at the same graph level
in this run, keyed on ``(kind, type(value), value)``.  CSE would merge
the duplicates anyway, keeping the first, so the minimised graph is
the same; the frontend just creates less than half as many nodes.

Each loop's condition slice is flattened once, into a condition plan
(:class:`_ConditionPlan`) that each iteration evaluates in one pass
over its slots.  Each loop's body is classified once, into a splice
plan (:class:`_SplicePlan`), before its first iteration is copied:
which nodes are carried inputs, which are constants (resolved on
first use and reused by every later iteration), which may fold and
with what scalar function, and which are copied as they are because
none of their operands can ever be a constant.  An iteration then
costs one cheap step per body node.

If the condition stops being statically evaluable after *k* successful
iterations, the *k* iterations stay spliced and the loop node remains
with updated initial values — that is correct *loop peeling*
(``while(c){B}`` with ``c`` initially true ≡ ``B; while(c){B}``), and
the mapper later reports the residual loop with a clear diagnostic.
The same applies when ``max_iterations`` is hit.
"""

from __future__ import annotations

from repro.cdfg.graph import COND_SLOT, Graph, Node, ValueRef
from repro.cdfg.ops import (Address, OpKind, can_eval, scalar_function,
                            wrap_value)
from repro.transforms.base import Transform


class UnrollLoops(Transform):
    """Completely unroll LOOP nodes with statically evaluable trip counts.

    Parameters
    ----------
    max_iterations:
        Upper bound on spliced iterations per loop (safety valve for
        huge static trip counts; the remainder is left as a loop).
    """

    def __init__(self, max_iterations: int = 4096,
                 width: int | None = None):
        self.max_iterations = max_iterations
        #: data-path width for compile-time evaluation (must match the
        #: target tile so folded values wrap exactly like its ALUs)
        self.width = width

    def run_on(self, graph: Graph) -> int:
        #: (kind, type(value), value) -> the CONST/ADDR output this run
        #: already emitted into *graph*; nothing here removes them.
        self._emitted: dict[tuple, ValueRef] = {}
        changes = 0
        for loop in graph.find(OpKind.LOOP):
            if loop.id in graph.nodes:
                changes += self._unroll(graph, loop)
        return changes

    # -- one loop ------------------------------------------------------

    def _unroll(self, graph: Graph, loop: Node) -> int:
        names = loop.value
        body = loop.bodies[0]
        outputs = Graph.body_outputs(body)
        refs: dict[str, ValueRef] = dict(zip(names, loop.inputs))
        cond_node = outputs.get(COND_SLOT)
        if cond_node is None:
            return 0
        cone = _ConditionPlan(body, cond_node.inputs[0], self.width)
        plan = None
        spliced = 0
        while spliced < self.max_iterations:
            condition = cone.evaluate(graph.nodes, refs)
            if condition is None:
                break
            if condition == 0:
                for index, name in enumerate(names):
                    graph.replace_uses(loop.out(index), refs[name])
                graph.remove(loop.id)
                return spliced + 1
            if plan is None:
                plan = _SplicePlan(body, outputs)
            refs = self._splice_iteration(graph, plan, refs)
            spliced += 1
        if spliced:
            # Peeled a prefix; the residual loop restarts from the
            # current carried values.
            graph.set_inputs(loop, [refs[name] for name in names])
        return spliced

    # -- splicing -----------------------------------------------------------

    def _splice_iteration(self, graph: Graph, plan: _SplicePlan,
                          refs: dict[str, ValueRef]) -> dict[str, ValueRef]:
        """Copy one body iteration into *graph*; return next refs."""
        nodes = graph.nodes
        add = graph.add
        width = self.width
        constants = plan.constants
        #: one entry per body output, in the plan's slot numbering
        values: list[ValueRef] = []
        push = values.append
        for step in plan.steps:
            code = step[0]
            if code == _CONSTANT:
                index = step[1]
                ref = constants[index]
                if ref is None:
                    ref = constants[index] = self._constant(
                        graph, step[2], step[3], step[4])
                push(ref)
                continue
            if code == _INPUT:
                push(refs[step[1]])
                continue
            node = step[1]
            inputs = [values[slot] for slot in step[2]]
            if code == _FOLD:
                operands = []
                for ref in inputs:
                    producer = nodes[ref[0]]
                    if producer.kind is not OpKind.CONST:
                        break
                    operands.append(producer.value)
                else:
                    push(self._constant(
                        graph, OpKind.CONST,
                        wrap_value(step[3](*operands), width)))
                    continue
            elif code == _FOLD_ADDRESS:
                base = nodes[inputs[0][0]]
                offset = nodes[inputs[1][0]]
                if base.kind is OpKind.ADDR and \
                        offset.kind is OpKind.CONST:
                    push(self._constant(graph, OpKind.ADDR,
                                        base.value.shifted(offset.value)))
                    continue
            copied = add(node.kind, inputs, node.value, node.name,
                         node.bodies and tuple(body.clone()
                                               for body in node.bodies),
                         node.n_outputs).id
            if node.n_outputs == 1:
                push((copied, 0))
            else:
                values.extend((copied, index)
                              for index in range(node.n_outputs))
        next_slot = plan.next_slot
        return {name: values[next_slot[name]] if name in next_slot
                else refs[name] for name in refs}

    def _constant(self, graph: Graph, kind: OpKind, value,
                  name: str | None = None) -> ValueRef:
        """The CONST/ADDR output holding *value*, emitted at most once
        per run (the type is part of the key: ``True == 1``)."""
        key = (kind, type(value), value)
        ref = self._emitted.get(key)
        if ref is None:
            ref = graph.add(kind, value=value, name=name).out()
            self._emitted[key] = ref
        return ref


#: Plan step codes: a splice plan uses the first five, a condition
#: plan ``_INPUT``, ``_FOLD``, ``_FOLD_ADDRESS`` and ``_SELECT``.
_INPUT, _CONSTANT, _COPY, _FOLD, _FOLD_ADDRESS, _SELECT = range(6)


class _ConditionPlan:
    """A loop body's continue-condition cone, flattened once for all
    of its iterations.

    ``values`` holds one slot per cone node, operands before their
    users and the condition last, as each iteration starts: a CONST's
    wrapped value, an ADDR's address, and None for a node that has no
    static value (a fetch, a nested loop, ...) or is computed per
    iteration.  ``steps`` computes the latter in slot order:

    * ``(slot, _INPUT, name)`` — the constant or address the carried
      reference *name* currently names, else None;
    * ``(slot, _SELECT, cond, then, else)`` — a MUX: the chosen arm's
      value, None if the condition is not a static int;
    * ``(slot, _FOLD_ADDRESS, base, offset)`` — a static address
      shifted by a static int;
    * ``(slot, _FOLD, function, operands)`` — a scalar operation on
      static ints, wrapped to the data-path width.

    A step computes every operand, not just the chosen MUX arm or
    up to the first non-static operand, but every scalar evaluator is
    total, so the value is the one a lazy walk of the cone gives.
    """

    def __init__(self, body: Graph, condition: ValueRef,
                 width: int | None):
        self.width = width
        self.values: list = []
        self.steps: list[tuple] = []
        slots: dict[int, int] = {}

        def slot(ref: ValueRef) -> int:
            node = body.producer(ref)
            index = slots.get(node.id)
            if index is not None:
                return index
            kind = node.kind
            value = step = None
            if kind is OpKind.CONST:
                value = wrap_value(node.value, width)
            elif kind is OpKind.ADDR:
                value = node.value
            elif kind is OpKind.INPUT:
                step = (_INPUT, node.value)
            elif kind is OpKind.MUX:
                step = (_SELECT, *map(slot, node.inputs))
            elif kind is OpKind.ADDR_ADD:
                step = (_FOLD_ADDRESS, *map(slot, node.inputs))
            elif can_eval(kind):
                step = (_FOLD, scalar_function(kind),
                        [slot(operand) for operand in node.inputs])
            index = slots[node.id] = len(self.values)
            self.values.append(value)
            if step is not None:
                self.steps.append((index, *step))
            return index

        slot(condition)
        # ``slot`` refers to itself, the body and this plan: clearing
        # its cell lets reference counting free the unrolled body.
        del slot

    def evaluate(self, nodes: dict[int, Node],
                 refs: dict[str, ValueRef]) -> int | None:
        """The condition's value for the carried references *refs*
        (into the graph whose node table is *nodes*); None if it is
        not static."""
        width = self.width
        values = self.values.copy()
        for step in self.steps:
            code = step[1]
            result = None
            if code == _INPUT:
                outer = refs.get(step[2])
                if outer is not None:
                    producer = nodes[outer[0]]
                    if producer.kind is OpKind.CONST:
                        result = wrap_value(producer.value, width)
                    elif producer.kind is OpKind.ADDR:
                        result = producer.value
            elif code == _SELECT:
                cond = values[step[2]]
                if isinstance(cond, int):
                    result = values[step[3] if cond != 0 else step[4]]
            elif code == _FOLD_ADDRESS:
                base, offset = values[step[2]], values[step[3]]
                if isinstance(base, Address) and isinstance(offset, int):
                    result = base.shifted(offset)
            else:
                operands = [values[index] for index in step[3]]
                if all(isinstance(value, int) for value in operands):
                    result = wrap_value(step[2](*operands), width)
            values[step[0]] = result
        value = values[-1]
        return value if isinstance(value, int) else None


class _SplicePlan:
    """One loop body, classified once for all of its iterations.

    ``steps`` follows the body's ``topo_order`` (OUTPUT markers left
    out), one tuple per node:

    * ``(_INPUT, slot_name)`` — the current carried reference;
    * ``(_CONSTANT, index, kind, value, name)`` — a body CONST/ADDR,
      resolved through :meth:`UnrollLoops._constant` at its first use
      (so emitted node ids follow the same order as a node-by-node
      copy) and kept in ``constants[index]`` for later iterations;
    * ``(_FOLD, node, operand_slots, function)`` — a scalar operation
      that folds when every operand is a CONST;
    * ``(_FOLD_ADDRESS, node, operand_slots)`` — an ``ADDR_ADD`` that
      folds on a constant address and a constant offset;
    * ``(_COPY, node, operand_slots)`` — copied as is: no operand can
      ever be a constant of the kind the fold needs, or the kind has
      no evaluator.

    Each step defines the next ``n_outputs`` entries of an iteration's
    value list; ``operand_slots`` index into it.
    """

    def __init__(self, body: Graph, outputs: dict):
        slots: dict[ValueRef, int] = {}
        #: per slot: can it hold a CONST, can it hold an ADDR?
        may_const: list[bool] = []
        may_address: list[bool] = []
        self.steps: list[tuple] = []
        self.constants: list[ValueRef | None] = []
        for node in body.topo_order():
            kind = node.kind
            if kind is OpKind.OUTPUT:
                continue
            if kind is OpKind.INPUT:
                step = (_INPUT, node.value)
                const, address = True, True
            elif kind is OpKind.CONST or kind is OpKind.ADDR:
                step = (_CONSTANT, len(self.constants), kind, node.value,
                        node.name)
                self.constants.append(None)
                const, address = kind is OpKind.CONST, kind is OpKind.ADDR
            else:
                operands = [slots[ref] for ref in node.inputs]
                function = scalar_function(kind)
                const = address = False
                if kind is OpKind.ADDR_ADD:
                    address = may_address[operands[0]] and \
                        may_const[operands[1]]
                    step = (_FOLD_ADDRESS if address else _COPY, node,
                            operands)
                elif function is not None and operands and all(
                        may_const[slot] for slot in operands):
                    const = True
                    step = (_FOLD, node, operands, function)
                else:
                    step = (_COPY, node, operands)
            self.steps.append(step)
            for index in range(node.n_outputs):
                slots[(node.id, index)] = len(may_const)
                may_const.append(const)
                may_address.append(address)
        #: carried name -> the slot its next value comes from (a name
        #: with no OUTPUT keeps its current reference)
        self.next_slot: dict[str, int] = {
            name: slots[output.inputs[0]]
            for name, output in outputs.items() if name != COND_SLOT}
