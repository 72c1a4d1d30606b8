"""Unit tests for complete loop unrolling."""

import gc

from repro.cdfg.builder import build_main_cdfg
from repro.cdfg.graph import Graph
from repro.cdfg.interp import run_graph
from repro.cdfg.ops import OpKind
from repro.cdfg.statespace import StateSpace
from repro.eval.kernels import fir_source
from repro.transforms import unroll
from repro.transforms.cse import CommonSubexpressionElimination
from repro.transforms.pipeline import simplify
from repro.transforms.unroll import UnrollLoops

from tests.conftest import assert_behaviour_preserved


def build(body: str) -> Graph:
    return build_main_cdfg("void main() { " + body + " }")


class TestCompleteUnrolling:
    def test_static_while_unrolled(self):
        graph = build("i = 0; while (i < 5) { s = s + i; i = i + 1; }")
        changes = UnrollLoops().run(graph)
        assert changes > 0
        assert not graph.find(OpKind.LOOP)
        assert run_graph(graph, StateSpace({"s": 0})).fetch("s") == 10

    def test_zero_trip_loop_disappears(self):
        graph = build("i = 9; while (i < 5) { i = i + 1; }")
        UnrollLoops().run(graph)
        assert not graph.find(OpKind.LOOP)
        assert run_graph(graph).fetch("i") == 9

    def test_for_loop_unrolled(self):
        graph = build("for (int j = 0; j < 3; j++) { o[j] = j * j; }")
        UnrollLoops().run(graph)
        assert not graph.find(OpKind.LOOP)
        result = run_graph(graph)
        assert result.state.fetch_array("o", 3) == [0, 1, 4]

    def test_fir_unrolls_to_five_products(self, fir_graph, fir_state):
        UnrollLoops().run(fir_graph)
        assert not fir_graph.find(OpKind.LOOP)
        assert len(fir_graph.find(OpKind.MUL)) == 5
        assert run_graph(fir_graph, fir_state).fetch("sum") == 550

    def test_nested_loops_unroll_inner_first(self):
        graph = build(
            "for (int i = 0; i < 3; i++) {"
            "  for (int j = 0; j < 2; j++) { s = s + 1; }"
            "}")
        UnrollLoops().run(graph)
        assert not graph.find(OpKind.LOOP)
        assert run_graph(graph, StateSpace({"s": 0})).fetch("s") == 6

    def test_downward_counting_loop(self):
        graph = build("i = 5; while (i > 0) { s = s + i; i = i - 1; }")
        UnrollLoops().run(graph)
        assert not graph.find(OpKind.LOOP)
        assert run_graph(graph, StateSpace({"s": 0})).fetch("s") == 15

    def test_step_by_two(self):
        graph = build("for (int i = 0; i < 10; i += 2) { s = s + i; }")
        UnrollLoops().run(graph)
        assert run_graph(graph, StateSpace({"s": 0})).fetch("s") == 20

    def test_condition_with_mux(self):
        graph = build("i = 0; while ((i < 3 ? 1 : 0)) { i = i + 1; }")
        UnrollLoops().run(graph)
        assert not graph.find(OpKind.LOOP)

    def test_only_the_chosen_arm_decides_the_condition(self):
        """The arm a static MUX does not choose may read memory: the
        condition is static while the chosen arm is, and the loop is
        peeled where it stops being so."""
        graph = build("i = 0; while ((i < 3 ? 1 : a[0])) { i = i + 1; }")
        assert UnrollLoops().run(graph) == 3
        assert graph.find(OpKind.LOOP)
        assert run_graph(graph, StateSpace({"a": 0})).fetch("i") == 3

    def test_the_condition_is_flattened_once_per_loop(self, monkeypatch):
        plans, evaluations = [], []

        class Counting(unroll._ConditionPlan):
            def __init__(self, *args):
                super().__init__(*args)
                plans.append(self)

            def evaluate(self, nodes, refs):
                evaluations.append(self)
                return super().evaluate(nodes, refs)

        monkeypatch.setattr(unroll, "_ConditionPlan", Counting)
        graph = build(
            "for (int i = 0; i < 3; i++) {"
            "  for (int j = 0; j < 2; j++) { s = s + 1; }"
            "}")
        UnrollLoops().run(graph)
        assert not graph.find(OpKind.LOOP)
        # the inner loop, in the body the outer loop copies from, then
        # the outer loop: one plan each, one evaluation per iteration
        # plus the final one
        assert len(plans) == 2
        assert [evaluations.count(plan) for plan in plans] == [3, 4]


class TestNonStaticLoops:
    def test_symbolic_bound_not_unrolled(self):
        graph = build("i = 0; while (i < n) { i = i + 1; }")
        changes = UnrollLoops().run(graph)
        assert changes == 0
        assert graph.find(OpKind.LOOP)

    def test_array_dependent_condition_not_unrolled(self):
        graph = build("i = 0; while (a[i] > 0) { i = i + 1; }")
        assert UnrollLoops().run(graph) == 0
        assert graph.find(OpKind.LOOP)

    def test_peeling_prefix_preserves_behaviour(self):
        # First iteration statically true, then the bound is symbolic:
        # i starts at 0 < 2 is static... use data-dependent step.
        source = """
        void main() {
          i = 0;
          while (i < 4) { i = i + step; }
        }
        """
        states = [StateSpace({"step": 1}), StateSpace({"step": 3})]
        assert_behaviour_preserved(source,
                                   lambda g: UnrollLoops().run(g),
                                   states)

    def test_iteration_limit_leaves_residual_loop(self):
        graph = build("i = 0; while (i < 100) { i = i + 1; }")
        UnrollLoops(max_iterations=10).run(graph)
        # 10 iterations peeled, loop remains, semantics intact
        assert graph.find(OpKind.LOOP)
        assert run_graph(graph).fetch("i") == 100

    def test_limit_exactly_sufficient(self):
        graph = build("i = 0; while (i < 8) { i = i + 1; }")
        UnrollLoops(max_iterations=9).run(graph)
        assert not graph.find(OpKind.LOOP)


class TestUnrollingQuality:
    def test_unrolling_emits_each_constant_once(self):
        """Splicing reuses the CONST/ADDR nodes it already emitted
        instead of minting duplicates for CSE to delete: after
        unrolling a 64-tap FIR no two constants the unroller emitted
        hold the same value, so the following CSE merges none of
        them.  (The builder's own constants are not the unroller's to
        share; CSE still merges those.)"""
        graph = build_main_cdfg(fir_source(64))
        first_emitted = max(graph.nodes) + 1
        UnrollLoops().run(graph)
        emitted = {kind: [node for node in graph.find(kind)
                          if node.id >= first_emitted]
                   for kind in (OpKind.CONST, OpKind.ADDR)}
        for kind, nodes in emitted.items():
            values = [(type(node.value), node.value) for node in nodes]
            assert len(values) == len(set(values)), kind
        CommonSubexpressionElimination().run(graph)
        for kind, nodes in emitted.items():
            merged = [node for node in nodes if node.id not in graph.nodes]
            assert not merged, kind

    def test_fold_on_copy_keeps_induction_constant(self):
        graph = build("i = 0; while (i < 4) { s = s + a[i]; i = i + 1; }")
        UnrollLoops().run(graph)
        # all FE addresses must already be constant ADDR nodes
        assert not graph.find(OpKind.ADDR_ADD)

    def test_unroll_behaviour_preserved_with_stores(self):
        source = """
        void main() {
          for (int i = 0; i < 3; i++) {
            hist[i] = hist[i] + x[i];
          }
        }
        """
        states = [
            StateSpace().store_array("hist", [1, 2, 3])
                        .store_array("x", [10, 20, 30]),
            StateSpace().store_array("x", [5, 5, 5]),
        ]
        assert_behaviour_preserved(source,
                                   lambda g: UnrollLoops().run(g),
                                   states)

    def test_loop_with_branch_inside_unrolls(self):
        graph = build(
            "for (int i = 0; i < 4; i++) {"
            "  if (x[i] > 0) { s = s + x[i]; }"
            "}")
        UnrollLoops().run(graph)
        assert not graph.find(OpKind.LOOP)
        assert len(graph.find(OpKind.BRANCH)) == 4
        state = StateSpace({"s": 0}).store_array("x", [1, -2, 3, -4])
        assert run_graph(graph, state).fetch("s") == 4


def test_unrolled_bodies_need_no_cycle_collector():
    """Simplifying a loop kernel leaves no reference cycle holding a
    graph: with the collector off, the unrolled bodies are freed by
    reference counting alone."""
    gc.collect()
    was_enabled, flags = gc.isenabled(), gc.get_debug()
    gc.disable()
    try:
        graph = build_main_cdfg(fir_source(16))
        simplify(graph)
        del graph
        gc.set_debug(flags | gc.DEBUG_SAVEALL)
        gc.collect()
        graphs = [item for item in gc.garbage if isinstance(item, Graph)]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
    assert graphs == []
