"""Unit tests for dependency analysis (statespace relaxation)."""

from repro.cdfg.builder import build_main_cdfg
from repro.cdfg.graph import Graph
from repro.cdfg.ops import Address, OpKind
from repro.cdfg.statespace import StateSpace
from repro.transforms.base import PassManager
from repro.transforms.dce import DeadCodeElimination
from repro.transforms.dependency import (
    DependencyAnalysis,
    ResolvedAddress,
    definitely_same,
    may_alias,
    resolve_address,
)

from tests.conftest import assert_behaviour_preserved


def analyzed(body: str) -> Graph:
    graph = build_main_cdfg("void main() { " + body + " }")
    PassManager([DependencyAnalysis(), DeadCodeElimination()]).run(graph)
    return graph


def build(body: str) -> Graph:
    return build_main_cdfg("void main() { " + body + " }")


class TestAliasRules:
    def test_resolve_constant_address(self):
        graph = build("x = a[3];")
        fetch = graph.sole(OpKind.FE)
        resolved = resolve_address(graph, fetch.inputs[1])
        assert resolved == ResolvedAddress("a", 3)
        assert resolved.is_const

    def test_resolve_dynamic_address_keeps_base(self):
        graph = build("x = a[i];")
        fetch = graph.find(OpKind.FE)[-1]
        resolved = resolve_address(graph, fetch.inputs[1])
        assert resolved.base == "a"
        assert resolved.offset is None

    def test_may_alias_rules(self):
        a0 = ResolvedAddress("a", 0)
        a1 = ResolvedAddress("a", 1)
        a_dyn = ResolvedAddress("a", None)
        b0 = ResolvedAddress("b", 0)
        unknown = ResolvedAddress(None, None)
        assert may_alias(a0, a0)
        assert not may_alias(a0, a1)
        assert not may_alias(a0, b0)
        assert not may_alias(a_dyn, b0)  # distinct base names
        assert may_alias(a_dyn, a0)
        assert may_alias(unknown, b0)

    def test_definitely_same(self):
        assert definitely_same(ResolvedAddress("a", 2),
                               ResolvedAddress("a", 2))
        assert not definitely_same(ResolvedAddress("a", None),
                                   ResolvedAddress("a", None))


class TestFetchHoisting:
    def test_fetch_hoisted_over_disjoint_store(self):
        graph = analyzed("b[0] = p; x = a[0];")
        fetch = [f for f in graph.find(OpKind.FE) if f.name == "a"][0]
        assert graph.producer(fetch.inputs[0]).kind is OpKind.SS_IN

    def test_fetch_not_hoisted_over_may_alias_store(self):
        graph = analyzed("a[i] = p; x = a[0];")
        fetch = [f for f in graph.find(OpKind.FE) if f.name == "a"][-1]
        assert graph.producer(fetch.inputs[0]).kind is OpKind.ST

    def test_fetch_hoisted_over_chain_of_stores(self):
        graph = analyzed("b[0] = p; b[1] = q; b[2] = p; x = a[0];")
        fetch = [f for f in graph.find(OpKind.FE) if f.name == "a"][0]
        assert graph.producer(fetch.inputs[0]).kind is OpKind.SS_IN

    def test_store_to_load_forwarding(self):
        graph = analyzed("b[0] = p * q; x = b[0];")
        # the fetch of b[0] is gone: x = p*q directly
        fetch_names = [f.name for f in graph.find(OpKind.FE)]
        assert "b" not in fetch_names

    def test_del_then_fetch_forwards_zero(self):
        graph = build("x = a[0];")
        # splice a DEL of a##0 before the fetch, via surgery:
        ss_in = graph.sole(OpKind.SS_IN)
        addr = graph.addr("a", 0)
        delete = graph.add(OpKind.DEL, inputs=[ss_in.out(), addr.out()])
        fetch = graph.sole(OpKind.FE)
        fetch.inputs[0] = delete.out()
        PassManager([DependencyAnalysis(), DeadCodeElimination()]
                    ).run(graph)
        from repro.cdfg.interp import run_graph
        result = run_graph(graph, StateSpace().store_array("a", [42]))
        assert result.fetch("x") == 0

    def test_hoisting_behaviour_preserved(self):
        source = """
        void main() {
          out0 = in0 * 2;
          b[0] = out0;
          b[1] = out0 + 1;
          x = a[0] + b[0];
          y = b[1];
        }
        """
        states = [StateSpace({"in0": 5}).store_array("a", [3]),
                  StateSpace({"in0": -2}).store_array("a", [0])]
        transform = PassManager([DependencyAnalysis(),
                                 DeadCodeElimination()]).run
        assert_behaviour_preserved(source, transform, states)


class TestOverwrittenStores:
    def test_overwritten_store_removed(self):
        graph = analyzed("b[0] = p; b[0] = q;")
        assert len(graph.find(OpKind.ST)) == 1

    def test_store_with_intervening_read_kept(self):
        graph = build("b[0] = p; x = b[0]; b[0] = q;")
        DependencyAnalysis().run(graph)
        DeadCodeElimination().run(graph)
        # forwarding removes the read, then the first store dies in the
        # next round — run a full fixpoint to check the final state.
        PassManager([DependencyAnalysis(), DeadCodeElimination()]
                    ).run(graph)
        assert len(graph.find(OpKind.ST)) >= 2  # x and b[0]

    def test_store_overwritten_by_may_alias_kept(self):
        graph = analyzed("b[0] = p; b[i] = q;")
        assert len(graph.find(OpKind.ST)) >= 2

    def test_overwrite_behaviour_preserved(self):
        source = """
        void main() {
          b[0] = p;
          b[0] = p + 1;
          b[1] = b[0];
        }
        """
        states = [StateSpace({"p": 9}), StateSpace({"p": -1})]
        transform = PassManager([DependencyAnalysis(),
                                 DeadCodeElimination()]).run
        assert_behaviour_preserved(source, transform, states)


class TestFigureThreeProperty:
    """The Fig. 3 property beyond the FIR: a loop that also *writes*
    an array still leaves every FE hanging off ss_in.  The FIR of
    Fig. 3 itself is tests/test_paper.py::test_fig3_fir_cdfg."""

    def test_loop_written_fetches_all_reach_ss_in(self):
        from repro.transforms.pipeline import simplify
        graph = build_main_cdfg("""
        void main() {
          for (int i = 0; i < 4; i++) { out[i] = in[i] * k; }
        }
        """)
        simplify(graph)
        ss_in = graph.sole(OpKind.SS_IN)
        for fetch in graph.find(OpKind.FE):
            assert fetch.inputs[0] == ss_in.out()


class _CountingNodes(dict):
    """A node table that counts its lookups (``[]`` and ``get``)."""

    lookups = 0

    def __getitem__(self, node_id):
        self.lookups += 1
        return super().__getitem__(node_id)

    def get(self, node_id, default=None):
        self.lookups += 1
        return super().get(node_id, default)


def _hoisting_lookups(n: int) -> int:
    """Node lookups of one dependency-analysis run over *n* stores to
    ``a`` followed by *n* fetches from ``b``, each accumulated into
    ``s``: every fetch is hoisted over all *n* stores and every earlier
    store to ``s``."""
    stores = " ".join(f"a[{index}] = {index};" for index in range(n))
    fetches = " ".join(f"s = s + b[{index}];" for index in range(n))
    graph = build(stores + " " + fetches)
    graph.nodes = _CountingNodes(graph.nodes)
    DependencyAnalysis().run(graph)
    lookups = graph.nodes.lookups
    ss_in = graph.sole(OpKind.SS_IN).out()
    for fetch in graph.find(OpKind.FE):
        if resolve_address(graph, fetch.inputs[1]).base == "b":
            assert fetch.inputs[0] == ss_in
    return lookups


class TestHoistingWork:
    """Hoisting a fetch over writers to other arrays costs O(1) per
    writer once per run, not once per fetch: the work grows linearly
    with the program, where a walk per fetch grows quadratically."""

    def test_node_lookups_grow_linearly(self):
        small, large = _hoisting_lookups(50), _hoisting_lookups(200)
        # 4x the program: linear work reads ~4x, a walk per fetch ~16x.
        assert large <= 5 * small, (small, large)
