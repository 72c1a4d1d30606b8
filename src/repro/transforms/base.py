"""Transformation framework: the Transform base class and PassManager.

Every pass mutates a graph in place and reports how many rewrites it
performed; the :class:`PassManager` runs an ordered list of passes to a
fix-point.  Passes are applied recursively to compound bodies *first*
(post-order), so e.g. an inner loop is unrolled before the outer loop
that contains it is considered.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

from repro.cdfg.graph import Graph, Node, ValueRef
from repro.cdfg.ops import OpKind


class Transform(abc.ABC):
    """A behaviour-preserving in-place graph rewrite."""

    #: Human-readable pass name (defaults to the class name).
    name: str = ""

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if not cls.name:
            cls.name = cls.__name__

    def run(self, graph: Graph) -> int:
        """Apply the pass to *graph* and nested bodies; return #rewrites."""
        changes = 0
        # Only compounds have bodies.  A body is its own graph, so
        # running a pass on one never changes this level's nodes.
        for node in graph.find(OpKind.LOOP) + graph.find(OpKind.BRANCH):
            for body in node.bodies:
                changes += self.run(body)
        changes += self.run_on(graph)
        return changes

    @abc.abstractmethod
    def run_on(self, graph: Graph) -> int:
        """Apply the pass to one graph level (bodies already done)."""


def replace_node(graph: Graph, node: Node, replacement: ValueRef) -> None:
    """Route all uses of *node*'s (single) output to *replacement* and
    delete the node.  The node must have exactly one output."""
    assert node.n_outputs == 1
    graph.replace_uses(node.out(), replacement)
    graph.remove(node.id)


@dataclass
class PassStats:
    """Rewrite counts accumulated by a PassManager run."""

    rounds: int = 0
    by_pass: dict[str, int] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return sum(self.by_pass.values())

    def record(self, name: str, changes: int) -> None:
        self.by_pass[name] = self.by_pass.get(name, 0) + changes

    def __str__(self) -> str:
        parts = ", ".join(f"{name}: {count}"
                          for name, count in sorted(self.by_pass.items())
                          if count)
        return f"{self.rounds} round(s); {parts or 'no rewrites'}"


class PassManager:
    """Runs a pass list to fix-point.

    Parameters
    ----------
    passes:
        Ordered transforms; one *round* applies each once.
    max_rounds:
        Safety bound — a correct pass set converges long before this.
    """

    def __init__(self, passes: list[Transform], max_rounds: int = 50):
        self.passes = passes
        self.max_rounds = max_rounds

    def run(self, graph: Graph) -> PassStats:
        """Apply rounds of passes until none rewrites anything."""
        stats = PassStats()
        for _ in range(self.max_rounds):
            stats.rounds += 1
            round_changes = 0
            for transform in self.passes:
                changes = transform.run(graph)
                stats.record(transform.name, changes)
                round_changes += changes
            if round_changes == 0:
                return stats
        raise RuntimeError(
            f"pass pipeline did not converge in {self.max_rounds} rounds "
            f"({stats})")
