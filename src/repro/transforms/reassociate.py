"""Reassociation: balance chains of associative-commutative ops.

The paper's §VII names optimising the graph transformations as future
work; this is the single most profitable one for the FPFA.  Complete
unrolling of an accumulation loop leaves a *serial* chain::

    sum = ((((p0 + p1) + p2) + p3) + p4)        depth N

whose critical path forces one level per addition regardless of how
many ALUs the tile has.  Reassociating the chain into a balanced
tree::

    sum = ((p0 + p1) + (p2 + p3)) + p4          depth ceil(log2 N)

preserves the value for every associative-commutative operator over
unbounded integers and shortens the schedule's critical path, which
phase 2 then exploits.

The pass is *not* part of the default "full simplification" pipeline:
paper Fig. 3 shows the chain form, so the default flow reproduces the
figure; experiments enable reassociation explicitly (EXT-F measures
the gain).

A chain is collected greedily: starting from a root op, same-kind
operands produced by single-use nodes are merged in recursively, and
the collected leaves are rebuilt as a balanced tree (pairing adjacent
leaves level by level, preserving leaf order for determinism).
"""

from __future__ import annotations

from repro.cdfg.graph import Graph, Node, ValueRef
from repro.cdfg.ops import OpKind
from repro.transforms.base import Transform

#: Operators that are associative and commutative on unbounded ints.
REASSOCIABLE_OPS = frozenset({
    OpKind.ADD, OpKind.MUL, OpKind.AND, OpKind.OR, OpKind.XOR,
    OpKind.MIN, OpKind.MAX,
})


class Reassociate(Transform):
    """Balance single-use chains of one associative-commutative op."""

    def run_on(self, graph: Graph) -> int:
        uses = graph.uses()  # live view: stays current across rebuilds
        changes = 0
        for node in graph.sorted_nodes():
            if node.id not in graph.nodes:
                continue
            if node.kind not in REASSOCIABLE_OPS:
                continue
            consumers = uses.get(node.out(), [])
            if not consumers:
                continue  # dead (possibly a just-replaced old root)
            # only rebuild from chain *roots* — a node whose own value
            # is not merged into a same-kind single consumer
            if len(consumers) == 1:
                consumer = graph.node(consumers[0][0])
                if consumer.kind is node.kind:
                    continue
            if self._rebalance(graph, node, uses):
                changes += 1
        if changes:
            graph.remove_dead()
        return changes

    def _collect_leaves(self, graph: Graph, node: Node,
                        uses) -> list[ValueRef]:
        """Flatten the maximal same-kind single-use chain under *node*."""
        leaves: list[ValueRef] = []
        for ref in node.inputs:
            producer = graph.producer(ref)
            producer_uses = uses.get(ref, [])
            if (producer.kind is node.kind
                    and len(producer_uses) == 1):
                leaves.extend(self._collect_leaves(graph, producer,
                                                   uses))
            else:
                leaves.append(ref)
        return leaves

    def _depth_of(self, graph: Graph, node: Node, uses,
                  cache: dict[int, int]) -> int:
        """Depth of the same-kind chain rooted at *node*."""
        if node.id in cache:
            return cache[node.id]
        depth = 1
        for ref in node.inputs:
            producer = graph.producer(ref)
            if (producer.kind is node.kind
                    and len(uses.get(ref, [])) == 1):
                depth = max(depth, 1 + self._depth_of(graph, producer,
                                                      uses, cache))
        cache[node.id] = depth
        return depth

    def _rebalance(self, graph: Graph, root: Node, uses) -> int:
        leaves = self._collect_leaves(graph, root, uses)
        if len(leaves) < 3:
            return 0
        # already balanced? compare chain depth with the optimum
        optimal = (len(leaves) - 1).bit_length()
        current = self._depth_of(graph, root, uses, {})
        if current <= optimal:
            return 0
        # build the balanced tree: pair adjacent values level by level
        level = list(leaves)
        while len(level) > 1:
            paired: list[ValueRef] = []
            for index in range(0, len(level) - 1, 2):
                fresh = graph.add(root.kind,
                                  inputs=[level[index],
                                          level[index + 1]])
                paired.append(fresh.out())
            if len(level) % 2:
                paired.append(level[-1])
            level = paired
        graph.replace_uses(root.out(), level[0])
        return 1


def balance(graph: Graph) -> int:
    """Convenience: run reassociation (with cleanup) on *graph*."""
    return Reassociate().run(graph)
