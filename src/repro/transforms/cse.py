"""Common subexpression elimination (named explicitly in the paper).

Classic value numbering over the pure subset of the operation
vocabulary.  Two nodes are merged when they have the same kind, the
same payload and the same input references (after canonicalising
commutative operand order).

``FE`` participates: a fetch is pure *given a state version* — Fig. 2
gives FE no ``ss_out`` — so two fetches of the same address from the
same state version are one value.  ``ST``/``DEL`` never merge.
"""

from __future__ import annotations

from repro.cdfg.graph import Graph
from repro.cdfg.ops import COMMUTATIVE_OPS, PURE_OPS
from repro.transforms.base import Transform


class CommonSubexpressionElimination(Transform):
    """Merge structurally identical pure nodes (value numbering)."""

    def run_on(self, graph: Graph) -> int:
        changes = 0
        table: dict[tuple, tuple[int, int]] = {}
        nodes = graph.nodes
        for node in graph.topo_order():
            kind = node.kind
            # PURE_OPS leaves out the INPUT/OUTPUT slot markers and
            # the compounds, so neither ever merges.
            if kind not in PURE_OPS or node.id not in nodes:
                continue
            inputs = tuple(node.inputs)
            if kind in COMMUTATIVE_OPS and len(inputs) == 2 \
                    and inputs[1] < inputs[0]:
                inputs = (inputs[1], inputs[0])
            key = (kind, node.value, inputs)
            existing = table.get(key)
            if existing is None:
                table[key] = (node.id, 0)
                continue
            graph.replace_uses((node.id, 0), existing)
            graph.remove(node.id)
            changes += 1
        return changes
