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

If the condition stops being statically evaluable after *k* successful
iterations, the *k* iterations stay spliced and the loop node remains
with updated initial values — that is correct *loop peeling*
(``while(c){B}`` with ``c`` initially true ≡ ``B; while(c){B}``), and
the mapper later reports the residual loop with a clear diagnostic.
The same applies when ``max_iterations`` is hit.
"""

from __future__ import annotations

from repro.cdfg.graph import COND_SLOT, Graph, Node, ValueRef
from repro.cdfg.ops import Address, OpKind, can_eval, eval_op, wrap_value
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
        for node in graph.sorted_nodes():
            if node.id not in graph.nodes or node.kind is not OpKind.LOOP:
                continue
            changes += self._unroll(graph, node)
        return changes

    # -- one loop ------------------------------------------------------

    def _unroll(self, graph: Graph, loop: Node) -> int:
        names = loop.value
        body = loop.bodies[0]
        outputs = Graph.body_outputs(body)
        refs: dict[str, ValueRef] = dict(zip(names, loop.inputs))
        spliced = 0
        while spliced < self.max_iterations:
            condition = self._eval_condition(graph, body, outputs, refs)
            if condition is None:
                break
            if condition == 0:
                for index, name in enumerate(names):
                    graph.replace_uses(loop.out(index), refs[name])
                graph.remove(loop.id)
                return spliced + 1
            refs = self._splice_iteration(graph, body, outputs, refs)
            spliced += 1
        if spliced:
            # Peeled a prefix; the residual loop restarts from the
            # current carried values.
            graph.set_inputs(loop, [refs[name] for name in names])
        return spliced

    # -- static condition evaluation -------------------------------------

    def _eval_condition(self, graph: Graph, body: Graph,
                        outputs: dict, refs: dict[str, ValueRef]
                        ) -> int | None:
        """Evaluate the body's condition output; None if not static."""
        cond_node = outputs.get(COND_SLOT)
        if cond_node is None:
            return None
        cache: dict[int, int | Address | None] = {}
        value = self._eval_body_ref(graph, body, cond_node.inputs[0],
                                    refs, cache)
        if isinstance(value, int):
            return value
        return None

    def _eval_body_ref(self, graph: Graph, body: Graph, ref: ValueRef,
                       refs: dict[str, ValueRef],
                       cache: dict) -> int | Address | None:
        node = body.producer(ref)
        if node.id in cache:
            return cache[node.id]
        cache[node.id] = None  # cycle guard (bodies are acyclic anyway)
        result: int | Address | None = None
        if node.kind is OpKind.CONST:
            result = wrap_value(node.value, self.width)
        elif node.kind is OpKind.ADDR:
            result = node.value
        elif node.kind is OpKind.INPUT:
            outer = refs.get(node.value)
            if outer is not None:
                producer = graph.producer(outer)
                if producer.kind is OpKind.CONST:
                    result = wrap_value(producer.value, self.width)
                elif producer.kind is OpKind.ADDR:
                    result = producer.value
        elif node.kind is OpKind.MUX:
            cond = self._eval_body_ref(graph, body, node.inputs[0], refs,
                                       cache)
            if isinstance(cond, int):
                chosen = node.inputs[1] if cond != 0 else node.inputs[2]
                result = self._eval_body_ref(graph, body, chosen, refs,
                                             cache)
        elif node.kind is OpKind.ADDR_ADD:
            base = self._eval_body_ref(graph, body, node.inputs[0], refs,
                                       cache)
            offset = self._eval_body_ref(graph, body, node.inputs[1],
                                         refs, cache)
            if isinstance(base, Address) and isinstance(offset, int):
                result = base.shifted(offset)
        elif can_eval(node.kind):
            operands = []
            for input_ref in node.inputs:
                value = self._eval_body_ref(graph, body, input_ref, refs,
                                            cache)
                if not isinstance(value, int):
                    operands = None
                    break
                operands.append(value)
            if operands is not None:
                result = eval_op(node.kind, *operands, width=self.width)
        cache[node.id] = result
        return result

    # -- splicing -----------------------------------------------------------

    def _splice_iteration(self, graph: Graph, body: Graph, outputs: dict,
                          refs: dict[str, ValueRef]) -> dict[str, ValueRef]:
        """Copy one body iteration into *graph*; return next refs."""
        mapping: dict[ValueRef, ValueRef] = {}
        for node in body.topo_order():
            kind = node.kind
            if kind is OpKind.INPUT:
                mapping[(node.id, 0)] = refs[node.value]
                continue
            if kind is OpKind.OUTPUT:
                continue
            if kind is OpKind.CONST or kind is OpKind.ADDR:
                mapping[(node.id, 0)] = self._constant(
                    graph, kind, node.value, node.name)
                continue
            inputs = [mapping[ref] for ref in node.inputs]
            folded = self._emit_folded(graph, node, inputs)
            if folded is not None:
                mapping[(node.id, 0)] = folded
                continue
            copied = graph.add(
                kind, inputs, node.value, node.name,
                tuple(b.clone() for b in node.bodies),
                node.n_outputs)
            for index in range(node.n_outputs):
                mapping[(node.id, index)] = (copied.id, index)
        next_refs: dict[str, ValueRef] = {}
        for name in refs:
            output_node = outputs.get(name)
            if output_node is None:
                next_refs[name] = refs[name]
            else:
                next_refs[name] = mapping[output_node.inputs[0]]
        return next_refs

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

    def _emit_folded(self, graph: Graph, node: Node,
                     inputs: list[ValueRef]) -> ValueRef | None:
        """Fold-on-copy: emit a CONST/ADDR instead of copying when all
        operands are already constant in the parent graph."""
        if node.kind is OpKind.ADDR_ADD:
            base = graph.producer(inputs[0])
            offset = graph.producer(inputs[1])
            if base.kind is OpKind.ADDR and offset.kind is OpKind.CONST:
                return self._constant(graph, OpKind.ADDR,
                                      base.value.shifted(offset.value))
            return None
        if not can_eval(node.kind) or not inputs:
            return None
        operands = []
        for ref in inputs:
            producer = graph.producer(ref)
            if producer.kind is not OpKind.CONST:
                return None
            operands.append(producer.value)
        return self._constant(graph, OpKind.CONST,
                              eval_op(node.kind, *operands,
                                      width=self.width))
