"""The paper's "full simplification" preset.

Fig. 3's caption — "after complete loop unrolling and full
simplification" — is reproduced by :func:`simplify`, which runs the
whole transformation tool-chest to a fix-point in a deliberate order:

1. unroll loops (inner-first via the recursive pass driver);
2. if-convert branches;
3. fold constants (turns unrolled address arithmetic into named
   locations);
4. algebraic identities (drop ``sum + 0``-style seeds);
5. CSE (merges re-fetched operands and repeated sub-expressions);
6. dependency analysis (hangs independent fetches off ``ss_in`` and
   forwards stored values);
7. dead code elimination.

Rounds repeat until nothing changes, so enabling one transformation
can unlock another (unrolling exposes constants, folding exposes
aliasing facts, forwarding exposes dead stores, ...).
"""

from __future__ import annotations

from repro.cdfg.graph import Graph
from repro.transforms.base import PassManager, PassStats
from repro.transforms.cse import CommonSubexpressionElimination
from repro.transforms.dce import DeadCodeElimination
from repro.transforms.dependency import DependencyAnalysis
from repro.transforms.folding import (
    AlgebraicSimplification,
    ConstantFolding,
)
from repro.transforms.loopslots import PruneLoopSlots
from repro.transforms.mux import BranchToMux
from repro.transforms.unroll import UnrollLoops


def full_pipeline(max_loop_iterations: int = 4096,
                  max_rounds: int = 50,
                  width: int | None = None) -> PassManager:
    """Build the standard minimisation pipeline.

    *width* is the target data-path width: compile-time evaluation
    (constant folding, unroll-time folding) wraps with it so that a
    finite-width tile sees exactly the values the transformations
    assumed.
    """
    return PassManager(
        passes=[
            PruneLoopSlots(),
            UnrollLoops(max_iterations=max_loop_iterations,
                        width=width),
            BranchToMux(),
            ConstantFolding(width=width),
            AlgebraicSimplification(),
            CommonSubexpressionElimination(),
            DependencyAnalysis(),
            DeadCodeElimination(),
        ],
        max_rounds=max_rounds)


def simplify(graph: Graph, max_loop_iterations: int = 4096,
             width: int | None = None) -> PassStats:
    """Minimise *graph* in place (complete unrolling + full
    simplification); returns the per-pass rewrite statistics."""
    return full_pipeline(max_loop_iterations, width=width).run(graph)
