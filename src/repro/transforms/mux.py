"""If-conversion: BRANCH nodes become MUX-selected dataflow.

The paper's CDFG steers selection statements with MUXes (§III); the
mapper consumes flat DAGs.  This pass converts a BRANCH node by
splicing *both* arms into the parent graph and selecting each live-out
with ``MUX(cond, then_value, else_value)``.

Speculation is safe because every operation is totalised (division by
zero yields 0, fetching an absent address yields 0, the statespace is
functional).

Statespace live-outs need *store predication*: the arms' store chains
are replaced by one unconditional chain whose stored data are MUXed::

    if (c) a[0] = v;   ==>   ST(a##0, mux(c, v, FE(a##0)))

The general case merges both arms' chains address by address (last
store per address wins inside an arm, untouched addresses read their
pre-branch value).  Conversion requires every stored address in the
arms to be statically constant and arms free of loops, nested branches
and DELs; otherwise the BRANCH is left in place and the mapper will
report it (richer control flow is the paper's declared future work).

A BRANCH whose condition is a known constant is resolved by splicing
only the taken arm (no speculation needed, no constraints on the arm).
"""

from __future__ import annotations

from repro.cdfg.graph import Graph, Node, ValueRef
from repro.cdfg.ops import OpKind
from repro.cdfg.builder import STATE_NAME
from repro.transforms.base import Transform
from repro.transforms.dependency import resolve_address

_FORBIDDEN_IN_ARMS = (OpKind.LOOP, OpKind.BRANCH, OpKind.DEL,
                      OpKind.SS_IN, OpKind.SS_OUT)


class BranchToMux(Transform):
    """Convert BRANCH nodes to speculated, MUX-merged dataflow."""

    def run_on(self, graph: Graph) -> int:
        changes = 0
        for branch in graph.find(OpKind.BRANCH):
            if branch.id in graph.nodes:
                changes += self._convert(graph, branch)
        return changes

    # -- one branch -----------------------------------------------------

    def _convert(self, graph: Graph, branch: Node) -> int:
        live_ins, live_outs = branch.value
        cond_ref = branch.inputs[0]
        cond_producer = graph.producer(cond_ref)
        if cond_producer.kind is OpKind.CONST:
            taken = branch.bodies[0] if cond_producer.value != 0 \
                else branch.bodies[1]
            self._splice_single_arm(graph, branch, taken)
            return 1
        for body in branch.bodies:
            if not self._arm_convertible(body):
                return 0
        then_outs = self._splice_arm(graph, branch, branch.bodies[0])
        else_outs = self._splice_arm(graph, branch, branch.bodies[1])
        state_input = self._state_input(branch)
        for index, name in enumerate(live_outs):
            then_ref = then_outs[name]
            else_ref = else_outs[name]
            if name == STATE_NAME:
                merged = self._predicate_stores(
                    graph, cond_ref, state_input, then_ref, else_ref)
            elif then_ref == else_ref:
                merged = then_ref
            else:
                merged = graph.add(OpKind.MUX,
                                   inputs=[cond_ref, then_ref,
                                           else_ref]).out()
            graph.replace_uses(branch.out(index), merged)
        graph.remove(branch.id)
        return 1

    # -- feasibility ------------------------------------------------------

    def _arm_convertible(self, body: Graph) -> bool:
        for node in body.nodes.values():
            if node.kind in _FORBIDDEN_IN_ARMS:
                return False
            if node.kind is OpKind.ST:
                if not resolve_address(body, node.inputs[1]).is_const:
                    return False
        return True

    # -- splicing -----------------------------------------------------------

    def _arm_substitutions(self, graph: Graph, branch: Node,
                           body: Graph) -> dict[ValueRef, ValueRef]:
        live_ins, __ = branch.value
        substitutions: dict[ValueRef, ValueRef] = {}
        inputs_by_slot = Graph.body_inputs(body)
        for index, name in enumerate(live_ins):
            input_node = inputs_by_slot.get(name)
            if input_node is not None:
                substitutions[input_node.out()] = branch.inputs[1 + index]
        return substitutions

    def _splice_arm(self, graph: Graph, branch: Node,
                    body: Graph) -> dict[str, ValueRef]:
        """Splice an arm; return its OUTPUT slot -> parent ref map."""
        substitutions = self._arm_substitutions(graph, branch, body)
        mapping = graph.splice(
            body, substitutions,
            skip=lambda node: node.kind is OpKind.OUTPUT)
        arm_outputs: dict[str, ValueRef] = {}
        for slot, output_node in Graph.body_outputs(body).items():
            arm_outputs[slot] = mapping[output_node.inputs[0]]
        return arm_outputs

    def _splice_single_arm(self, graph: Graph, branch: Node,
                           body: Graph) -> None:
        outs = self._splice_arm(graph, branch, body)
        __, live_outs = branch.value
        for index, name in enumerate(live_outs):
            graph.replace_uses(branch.out(index), outs[name])
        graph.remove(branch.id)

    def _state_input(self, branch: Node) -> ValueRef | None:
        live_ins, __ = branch.value
        for index, name in enumerate(live_ins):
            if name == STATE_NAME:
                return branch.inputs[1 + index]
        return None

    # -- store predication -----------------------------------------------

    def _chain_stores(self, graph: Graph, state_ref: ValueRef,
                      root: ValueRef) -> list[Node] | None:
        """Collect the ST chain from *state_ref* back to *root*,
        earliest first; None if the chain is not a pure ST chain."""
        stores: list[Node] = []
        current = state_ref
        while current != root:
            producer = graph.producer(current)
            if producer.kind is not OpKind.ST:
                return None
            stores.append(producer)
            current = producer.inputs[0]
        stores.reverse()
        return stores

    def _predicate_stores(self, graph: Graph, cond_ref: ValueRef,
                          root: ValueRef | None, then_ref: ValueRef,
                          else_ref: ValueRef) -> ValueRef:
        assert root is not None, "state live-out without state live-in"
        then_chain = self._chain_stores(graph, then_ref, root)
        else_chain = self._chain_stores(graph, else_ref, root)
        assert then_chain is not None and else_chain is not None, \
            "arm feasibility check should have rejected this branch"

        def chain_map(chain: list[Node]):
            ordered: list = []
            last: dict = {}
            for store in chain:
                key = resolve_address(graph, store.inputs[1])
                key_tuple = (key.base, key.offset)
                if key_tuple not in last:
                    ordered.append((key_tuple, store.inputs[1]))
                last[key_tuple] = store.inputs[2]
            return ordered, last

        then_order, then_last = chain_map(then_chain)
        else_order, else_last = chain_map(else_chain)
        merged_order = list(then_order)
        seen = {key for key, __ in then_order}
        for key, addr_ref in else_order:
            if key not in seen:
                merged_order.append((key, addr_ref))
                seen.add(key)
        state = root
        for key, addr_ref in merged_order:
            then_value = then_last.get(key)
            else_value = else_last.get(key)
            if then_value is None:
                then_value = graph.add(OpKind.FE,
                                       inputs=[root, addr_ref]).out()
            if else_value is None:
                else_value = graph.add(OpKind.FE,
                                       inputs=[root, addr_ref]).out()
            if then_value == else_value:
                data = then_value
            else:
                data = graph.add(OpKind.MUX,
                                 inputs=[cond_ref, then_value,
                                         else_value]).out()
            state = graph.add(OpKind.ST,
                              inputs=[state, addr_ref, data]).out()
        return state
