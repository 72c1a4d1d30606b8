"""Unit tests for constant folding and algebraic simplification."""

import pytest

from repro.cdfg.builder import build_main_cdfg
from repro.cdfg.graph import Graph
from repro.cdfg.interp import run_graph
from repro.cdfg.ops import Address, OpKind
from repro.cdfg.statespace import StateSpace
from repro.transforms.base import PassManager
from repro.transforms.dce import DeadCodeElimination
from repro.transforms.folding import (
    _RULE_KINDS,
    AlgebraicSimplification,
    ConstantFolding,
)
from repro.transforms.mux import BranchToMux
from repro.transforms.unroll import UnrollLoops

from tests.conftest import assert_behaviour_preserved
from tests.test_property import random_source


def folded(source_body: str) -> Graph:
    graph = build_main_cdfg("void main() { " + source_body + " }")
    PassManager([ConstantFolding(), AlgebraicSimplification(),
                 DeadCodeElimination()]).run(graph)
    return graph


def stored_const(graph: Graph, name: str):
    """The CONST feeding the final ST of global *name* (None if not)."""
    for store in graph.find(OpKind.ST):
        if store.name == name:
            producer = graph.producer(store.inputs[2])
            if producer.kind is OpKind.CONST:
                return producer.value
            return None
    raise AssertionError(f"no store of {name}")


class TestConstantFolding:
    def test_arithmetic_chain(self):
        graph = folded("x = 2 + 3 * 4;")
        assert stored_const(graph, "x") == 14

    def test_division_semantics_in_folding(self):
        graph = folded("x = (0 - 7) / 2;")
        assert stored_const(graph, "x") == -3

    def test_division_by_zero_folds_to_zero(self):
        graph = folded("x = 5 / 0; y = 5 % 0;")
        assert stored_const(graph, "x") == 0
        assert stored_const(graph, "y") == 0

    def test_comparison_folds(self):
        graph = folded("x = 3 < 5;")
        assert stored_const(graph, "x") == 1

    def test_mux_with_constant_condition(self):
        graph = folded("x = 1 ? p : q;")
        # MUX removed, x = p directly
        assert not graph.find(OpKind.MUX)

    def test_mux_keeps_symbolic_condition(self):
        graph = folded("x = c ? p : q;")
        assert graph.find(OpKind.MUX)

    def test_addr_add_folds_to_constant_address(self):
        graph = folded("i = 2; x = a[i + 1];")
        assert not graph.find(OpKind.ADDR_ADD)
        fetch = graph.sole(OpKind.FE)
        assert graph.producer(fetch.inputs[1]).value == Address("a", 3)

    def test_addr_add_with_symbolic_index_kept(self):
        graph = folded("x = a[i];")
        assert graph.find(OpKind.ADDR_ADD)

    def test_intrinsic_folding(self):
        graph = folded("x = min(3, 7) + max(2, 9) + abs(0 - 4);")
        assert stored_const(graph, "x") == 3 + 9 + 4

    def test_folding_is_behaviour_preserving(self):
        source = """
        void main() {
          x = (2 + 3) * (4 - 1) / 2;
          y = p * (1 + 1);
        }
        """
        transform = PassManager([ConstantFolding()]).run
        assert_behaviour_preserved(source, transform,
                                   [StateSpace({"p": 5}),
                                    StateSpace({"p": -3})])

    def test_folding_inside_loop_bodies(self):
        graph = build_main_cdfg(
            "void main() { while (g < 2 + 3) { g = g + (1 * 1); } }")
        changes = ConstantFolding().run(graph)
        assert changes >= 1  # folded 2+3 inside the body
        result = run_graph(graph, StateSpace({"g": 0}))
        assert result.fetch("g") == 5


class TestAlgebraic:
    @pytest.mark.parametrize("expr,expected_ops", [
        ("p + 0", 0), ("0 + p", 0), ("p - 0", 0),
        ("p * 1", 0), ("1 * p", 0),
        ("p / 1", 0),
        ("p & p", 0), ("p | p", 0),
        ("p ^ 0", 0), ("0 ^ p", 0),
        ("p << 0", 0), ("p >> 0", 0),
        ("min(p, p)", 0), ("max(p, p)", 0),
    ])
    def test_identity_rules_remove_op(self, expr, expected_ops):
        graph = folded(f"x = {expr};")
        alu_ops = [node for node in graph
                   if node.kind not in (OpKind.CONST, OpKind.ADDR,
                                        OpKind.ST, OpKind.FE,
                                        OpKind.SS_IN, OpKind.SS_OUT)]
        assert len(alu_ops) == expected_ops, graph.stats()

    @pytest.mark.parametrize("expr,value", [
        ("p - p", 0), ("p * 0", 0), ("0 * p", 0),
        ("0 / p", 0), ("p % 1", 0), ("0 % p", 0),
        ("p ^ p", 0), ("p & 0", 0), ("0 & p", 0),
        ("0 << p", 0), ("0 >> p", 0),
        ("p == p", 1), ("p <= p", 1), ("p >= p", 1),
        ("p != p", 0), ("p < p", 0), ("p > p", 0),
        ("p && 0", 0), ("0 && p", 0),
        ("p || 1", 1), ("1 || p", 1),
    ])
    def test_absorption_rules_produce_constant(self, expr, value):
        graph = folded(f"x = {expr};")
        assert stored_const(graph, "x") == value, expr

    def test_double_negation(self):
        graph = folded("x = -(-p);")
        assert not graph.find(OpKind.NEG)

    def test_double_bitwise_not(self):
        graph = folded("x = ~~p;")
        assert not graph.find(OpKind.NOT)

    def test_abs_of_abs(self):
        graph = folded("x = abs(abs(p));")
        assert len(graph.find(OpKind.ABS)) == 1

    def test_mux_same_arms(self):
        graph = folded("x = c ? p : p;")
        assert not graph.find(OpKind.MUX)

    def test_land_same_operand_not_rewritten_to_operand(self):
        # x && x == (x != 0), NOT x: must stay.
        graph = folded("x = p && p;")
        result_two = run_graph(graph, StateSpace({"p": 2}))
        assert result_two.fetch("x") == 1

    def test_rules_behaviour_preserved_on_random_inputs(self):
        source = """
        void main() {
          a0 = p + 0; b0 = p - p; c0 = p * 1; d0 = p * 0;
          e0 = p / 1; f0 = p ^ p; g0 = p | p; h0 = p << 0;
          i0 = p == p; j0 = q ? p : p; k0 = min(p, p);
        }
        """
        transform = PassManager([ConstantFolding(),
                                 AlgebraicSimplification()]).run
        states = [StateSpace({"p": v, "q": w})
                  for v in (-7, 0, 13) for w in (0, 1)]
        assert_behaviour_preserved(source, transform, states)

    def test_sub_zero_minus_p_not_simplified_to_p(self):
        graph = folded("x = 0 - p;")
        result = run_graph(graph, StateSpace({"p": 5}))
        assert result.fetch("x") == -5


class TestAlgebraicVisitOrder:
    """The pass visits only nodes a rule may match, yet rewrites what
    visiting every node in id order rewrites, in the same order."""

    @staticmethod
    def every_node(graph: Graph) -> list:
        """The reference: every rule-kind node, in id order."""
        rewrites = []
        transform = AlgebraicSimplification()
        for node in graph.sorted_nodes():
            if node.kind in _RULE_KINDS and node.id in graph.nodes:
                replacement = transform._simplify(graph, node)
                if replacement is not None:
                    rewrites.append((node.id, replacement))
        return rewrites

    @staticmethod
    def candidates(graph: Graph, monkeypatch) -> tuple[list, int]:
        rewrites, visits = [], []
        simplify = AlgebraicSimplification._simplify

        def recording(self, graph, node):
            visits.append(node.id)
            replacement = simplify(self, graph, node)
            if replacement is not None:
                rewrites.append((node.id, replacement))
            return replacement

        with monkeypatch.context() as patch:
            patch.setattr(AlgebraicSimplification, "_simplify", recording)
            assert AlgebraicSimplification().run_on(graph) \
                == len(rewrites)
        return rewrites, len(visits)

    @pytest.mark.parametrize("seed", range(40))
    def test_same_rewrites_in_the_same_order(self, seed, monkeypatch):
        graph = build_main_cdfg(random_source(seed))
        PassManager([UnrollLoops(), BranchToMux(),
                     ConstantFolding()]).run(graph)
        expected = graph.clone()
        reference = self.every_node(expected)
        rewrites, visits = self.candidates(graph, monkeypatch)
        assert rewrites == reference
        assert sorted(graph.nodes) == sorted(expected.nodes)
        assert [node.inputs for node in graph.sorted_nodes()] \
            == [node.inputs for node in expected.sorted_nodes()]
        assert visits <= sum(node.kind in _RULE_KINDS
                             for node in expected.nodes.values()) \
            + len(rewrites)

    def test_a_rewrite_queues_the_users_it_enables(self, monkeypatch):
        """``(p + 0) - p``: only the addition has a constant operand;
        rewriting it makes the subtraction ``p - p``."""
        graph = build_main_cdfg("void main() { x = (p + 0) - p; }")
        rewrites, visits = self.candidates(graph, monkeypatch)
        assert len(rewrites) == visits == 2
        assert stored_const(graph, "x") == 0
