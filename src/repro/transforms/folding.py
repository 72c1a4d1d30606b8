"""Constant folding and algebraic simplification.

Both passes only use identities that hold for unbounded integers (the
interpreter's default semantics), so they are behaviour-preserving by
construction; the totalised division/shift semantics in
:mod:`repro.cdfg.ops` keep even the degenerate cases (``0/x`` with
``x == 0``) consistent.
"""

from __future__ import annotations

import heapq

from repro.cdfg.graph import Graph, Node, ValueRef
from repro.cdfg.ops import Address, OpKind, can_eval, eval_op, wrap_value
from repro.transforms.base import Transform, replace_node


def _const_value(graph: Graph, ref) -> int | None:
    node = graph.producer(ref)
    if node.kind is OpKind.CONST:
        return node.value
    return None


def _addr_value(graph: Graph, ref) -> Address | None:
    node = graph.producer(ref)
    if node.kind is OpKind.ADDR:
        return node.value
    return None


#: The kinds :meth:`ConstantFolding._fold` can fold: address
#: arithmetic, selection and every kind with a scalar evaluator.
_FOLD_KINDS = frozenset(
    [OpKind.ADDR_ADD, OpKind.MUX]
    + [kind for kind in OpKind if can_eval(kind)])


class ConstantFolding(Transform):
    """Evaluate operations whose operands are all constants.

    Also folds constant address arithmetic — ``ADDR_ADD(&a##0, 3)``
    becomes ``&a##3`` — which is what turns the unrolled FIR loop's
    indexed accesses into the named locations of paper Fig. 3 and
    unlocks dependency analysis.

    ``width`` must match the target data-path width: compile-time
    evaluation of an overflowing expression has to wrap exactly like
    the tile's ALUs (16-bit FPFA) or folding would change behaviour.
    """

    def __init__(self, width: int | None = None):
        self.width = width

    def run_on(self, graph: Graph) -> int:
        # Every fold needs a CONST operand (an ADDR_ADD's offset, a
        # MUX's condition, each operand of a scalar operation), so only
        # the users of CONST nodes are candidates, plus the users a
        # fold hands a new operand.  Visiting them in ascending id
        # order, and queueing a user only when its id is above the
        # node just folded, rewrites exactly what a visit of every
        # node in id order would.
        nodes = graph.nodes
        uses = graph.uses()
        queue = sorted({user_id
                        for const in graph.find(OpKind.CONST)
                        for user_id, __ in uses.get(const.out(), ())
                        if nodes[user_id].kind in _FOLD_KINDS})
        changes = 0
        visited = -1
        while queue:
            node_id = heapq.heappop(queue)
            if node_id == visited or node_id not in nodes:
                continue
            visited = node_id
            replacement = self._fold(graph, nodes[node_id])
            if replacement is None:
                continue
            changes += 1
            for user_id, __ in uses.get(replacement, ()):
                if user_id > node_id and nodes[user_id].kind in _FOLD_KINDS:
                    heapq.heappush(queue, user_id)
        return changes

    def _fold(self, graph: Graph, node: Node) -> ValueRef | None:
        """Fold *node* if its operands allow; return what replaced it."""
        kind = node.kind
        # CONST payloads are wrapped on read: a literal like 70000 *is*
        # 4464 on a 16-bit tile, and folding must see what the ALU sees.
        if kind is OpKind.ADDR_ADD:
            base = _addr_value(graph, node.inputs[0])
            offset = _const_value(graph, node.inputs[1])
            if base is None or offset is None:
                return None
            folded = graph.addr(base.shifted(wrap_value(offset,
                                                        self.width)))
            replace_node(graph, node, folded.out())
            return folded.out()
        if kind is OpKind.MUX:
            cond = _const_value(graph, node.inputs[0])
            if cond is None:
                return None
            cond = wrap_value(cond, self.width)
            chosen = node.inputs[1] if cond != 0 else node.inputs[2]
            graph.replace_uses(node.out(), chosen)
            graph.remove(node.id)
            return chosen
        if not can_eval(kind) or not node.inputs:
            return None
        operands = []
        for ref in node.inputs:
            value = _const_value(graph, ref)
            if value is None:
                return None
            operands.append(wrap_value(value, self.width))
        folded = graph.const(eval_op(kind, *operands, width=self.width))
        replace_node(graph, node, folded.out())
        return folded.out()


#: Every kind :meth:`AlgebraicSimplification._rule` has a rule for;
#: the rest (fetches, stores, constants: most of an unrolled graph)
#: are skipped before the rule is called.
_RULE_KINDS = frozenset({
    OpKind.ADD, OpKind.SUB, OpKind.MUL, OpKind.DIV, OpKind.MOD,
    OpKind.AND, OpKind.OR, OpKind.XOR, OpKind.SHL, OpKind.SHR,
    OpKind.EQ, OpKind.LE, OpKind.GE, OpKind.NE, OpKind.LT, OpKind.GT,
    OpKind.LAND, OpKind.LOR, OpKind.MIN, OpKind.MAX,
    OpKind.MUX, OpKind.NEG, OpKind.NOT, OpKind.ABS,
})


def _may_fire(nodes: dict[int, Node], node: Node) -> bool:
    """Whether :meth:`AlgebraicSimplification._rule` may match
    *node*, one of :data:`_RULE_KINDS`, as its operands stand: every
    rule needs a CONST operand or two equal operands, equal MUX arms,
    or a NEG, NOT or ABS over a node of its own kind."""
    inputs = node.inputs
    if node.kind is OpKind.MUX:
        return inputs[1] == inputs[2]
    if len(inputs) == 1:
        return nodes[inputs[0][0]].kind is node.kind
    lhs, rhs = inputs
    return (lhs == rhs or nodes[lhs[0]].kind is OpKind.CONST
            or nodes[rhs[0]].kind is OpKind.CONST)


class AlgebraicSimplification(Transform):
    """Identity, absorption and same-operand rules.

    Applied rules (x is any value, constants shown literally)::

        x+0, 0+x, x-0        -> x        x-x          -> 0
        x*1, 1*x             -> x        x*0, 0*x     -> 0
        x/1                  -> x        0/x, 0%x     -> 0
        x%1                  -> 0
        x&x, x|x             -> x        x^x          -> 0
        x&0, 0&x             -> 0        x|0, 0|x, x^0, 0^x -> x
        x<<0, x>>0           -> x        0<<x, 0>>x   -> 0
        x==x, x<=x, x>=x     -> 1        x!=x, x<x, x>x -> 0
        0&&x, x&&0           -> 0        LOR with non-zero const -> 1
        min(x,x), max(x,x)   -> x        mux(c,x,x)   -> x
        neg(neg(x)), ~~x     -> x        abs(abs(x))  -> abs(x)
    """

    def run_on(self, graph: Graph) -> int:
        # Only a node :func:`_may_fire` accepts can match a rule, and
        # only a rewrite changes a node's operands: it hands its users
        # the replacement.  Visiting the candidates in ascending id
        # order, and queueing a user only when its id is above the
        # node just rewritten, rewrites exactly what a visit of every
        # node in id order would.
        nodes = graph.nodes
        uses = graph.uses()
        queue = [node.id
                 for kind in _RULE_KINDS & graph.counts().keys()
                 for node in graph.find(kind)
                 if _may_fire(nodes, node)]
        heapq.heapify(queue)
        changes = 0
        visited = -1
        while queue:
            node_id = heapq.heappop(queue)
            if node_id == visited or node_id not in nodes:
                continue
            visited = node_id
            replacement = self._simplify(graph, nodes[node_id])
            if replacement is None:
                continue
            changes += 1
            for user_id, __ in uses.get(replacement, ()):
                if user_id > node_id and nodes[user_id].kind in _RULE_KINDS:
                    heapq.heappush(queue, user_id)
        return changes

    # The table below returns either None (no rule), a ValueRef to
    # forward, or an int constant to materialise.
    def _simplify(self, graph: Graph, node: Node) -> ValueRef | None:
        """Rewrite *node* if a rule matches; return what replaced it."""
        result = self._rule(graph, node)
        if result is None:
            return None
        if isinstance(result, int):
            replacement = graph.const(result).out()
        else:
            replacement = result
        graph.replace_uses(node.out(), replacement)
        graph.remove(node.id)
        return replacement

    def _rule(self, graph: Graph, node: Node):
        kind = node.kind
        inputs = node.inputs
        if len(inputs) == 2:
            lhs, rhs = inputs
            lhs_const = _const_value(graph, lhs)
            rhs_const = _const_value(graph, rhs)
            same = lhs == rhs
            if kind is OpKind.ADD:
                if lhs_const == 0:
                    return rhs
                if rhs_const == 0:
                    return lhs
            elif kind is OpKind.SUB:
                if rhs_const == 0:
                    return lhs
                if same:
                    return 0
            elif kind is OpKind.MUL:
                if lhs_const == 1:
                    return rhs
                if rhs_const == 1:
                    return lhs
                if lhs_const == 0 or rhs_const == 0:
                    return 0
            elif kind is OpKind.DIV:
                if rhs_const == 1:
                    return lhs
                if lhs_const == 0:
                    return 0
            elif kind is OpKind.MOD:
                if rhs_const == 1 or lhs_const == 0:
                    return 0
            elif kind is OpKind.AND:
                if same:
                    return lhs
                if lhs_const == 0 or rhs_const == 0:
                    return 0
            elif kind is OpKind.OR:
                if same:
                    return lhs
                if lhs_const == 0:
                    return rhs
                if rhs_const == 0:
                    return lhs
            elif kind is OpKind.XOR:
                if same:
                    return 0
                if lhs_const == 0:
                    return rhs
                if rhs_const == 0:
                    return lhs
            elif kind in (OpKind.SHL, OpKind.SHR):
                if rhs_const == 0:
                    return lhs
                if lhs_const == 0:
                    return 0
            elif kind in (OpKind.EQ, OpKind.LE, OpKind.GE):
                if same:
                    return 1
            elif kind in (OpKind.NE, OpKind.LT, OpKind.GT):
                if same:
                    return 0
            elif kind is OpKind.LAND:
                if lhs_const == 0 or rhs_const == 0:
                    return 0
                if same:
                    # x && x == (x != 0)
                    return None
            elif kind is OpKind.LOR:
                if (lhs_const is not None and lhs_const != 0) or \
                        (rhs_const is not None and rhs_const != 0):
                    return 1
            elif kind in (OpKind.MIN, OpKind.MAX):
                if same:
                    return lhs
        elif kind is OpKind.MUX:
            if inputs[1] == inputs[2]:
                return inputs[1]
        elif kind in (OpKind.NEG, OpKind.NOT):
            inner = graph.producer(inputs[0])
            if inner.kind is kind:
                return inner.inputs[0]
        elif kind is OpKind.ABS:
            inner = graph.producer(inputs[0])
            if inner.kind is OpKind.ABS:
                return inputs[0]
        return None
