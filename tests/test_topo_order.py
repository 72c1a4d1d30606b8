"""Differential test of ``Graph.topo_order`` against Kahn's algorithm.

``topo_order`` promises the order of Kahn's algorithm that always
emits the smallest ready id, and on a cycle a :class:`GraphError`
naming every node it could not order.  The reference below is that
algorithm with a min-heap over the whole graph; the graphs are the
frontends of random programs (bodies included) and random graphs
whose edges ``replace_uses`` bends back onto later nodes, which makes
some of them consumers of larger ids and some of them cyclic.
"""

from __future__ import annotations

import heapq
import random

import pytest

from repro.cdfg.graph import Graph, GraphError
from repro.cdfg.ops import OpKind
from repro.core.pipeline import compile_frontend

from tests.test_property import random_source


def reference_kahn(graph: Graph) -> tuple[list[int], list[int]]:
    """(min-id Kahn order, sorted ids it could not order)."""
    indegree: dict[int, int] = {}
    consumers: dict[int, list[int]] = {node_id: [] for node_id in graph.nodes}
    for node in graph.nodes.values():
        producers = {ref[0] for ref in node.inputs}
        indegree[node.id] = len(producers)
        for producer in producers:
            consumers[producer].append(node.id)
    ready = [node_id for node_id, count in indegree.items() if count == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        node_id = heapq.heappop(ready)
        order.append(node_id)
        for consumer in consumers[node_id]:
            indegree[consumer] -= 1
            if indegree[consumer] == 0:
                heapq.heappush(ready, consumer)
    return order, sorted(set(graph.nodes) - set(order))


def assert_matches_reference(graph: Graph) -> bool:
    """Compare one graph (not its bodies); True if it is acyclic."""
    order, stuck = reference_kahn(graph)
    if stuck:
        with pytest.raises(GraphError) as error:
            graph.topo_order()
        assert str(error.value) == f"cycle through nodes {stuck}"
        return False
    assert [node.id for node in graph.topo_order()] == order
    return True


def assert_matches_recursively(graph: Graph) -> None:
    assert assert_matches_reference(graph)
    for node in graph.nodes.values():
        for body in node.bodies:
            assert_matches_recursively(body)


_BINARY = (OpKind.ADD, OpKind.SUB, OpKind.MUL, OpKind.MIN)


def random_bent_graph(seed: int) -> Graph:
    """A random DAG of constants and binary operations, then a few
    ``replace_uses`` of an output by a later node's output."""
    rng = random.Random(seed)
    graph = Graph()
    refs = [graph.const(rng.randint(-5, 5)).out() for __ in range(3)]
    for __ in range(rng.randint(5, 60)):
        if rng.random() < 0.15:
            refs.append(graph.const(rng.randint(-5, 5)).out())
        else:
            refs.append(graph.add(rng.choice(_BINARY),
                                  inputs=[rng.choice(refs),
                                          rng.choice(refs)]).out())
    for __ in range(rng.randint(1, 4)):
        old = rng.randrange(len(refs) - 1)
        new = rng.randrange(old + 1, len(refs))
        graph.replace_uses(refs[old], refs[new])
    return graph


@pytest.mark.parametrize("seed", range(40))
def test_random_program_frontends_match_reference(seed):
    source = random_source(seed)
    for width, balance in ((None, False), (16, True)):
        frontend = compile_frontend(source, width=width, balance=balance)
        assert_matches_recursively(frontend.original)
        assert_matches_recursively(frontend.minimised)


def test_bent_graphs_match_reference_orders_and_cycles():
    outcomes = [assert_matches_reference(random_bent_graph(seed))
                for seed in range(400)]
    # The sample holds both kinds, so both branches were compared.
    assert 50 < sum(outcomes) < 350


def test_back_edge_is_ordered_by_its_last_producer():
    graph = Graph()
    first = graph.const(1)
    neg = graph.add(OpKind.NEG, inputs=[first.out()])
    late = graph.const(2)
    graph.replace_uses(first.out(), late.out())  # neg now reads id 2
    tail = graph.add(OpKind.ABS, inputs=[neg.out()])
    assert [node.id for node in graph.topo_order()] == \
        [first.id, late.id, neg.id, tail.id]
    assert_matches_reference(graph)


def test_self_loop_names_itself_and_what_it_feeds():
    graph = Graph()
    seed = graph.const(0)
    neg = graph.add(OpKind.NEG, inputs=[seed.out()])
    after = graph.add(OpKind.ABS, inputs=[neg.out()])
    graph.const(7)
    graph.set_input(neg, 0, neg.out())
    with pytest.raises(GraphError) as error:
        graph.topo_order()
    assert str(error.value) == f"cycle through nodes {[neg.id, after.id]}"


def test_two_node_cycle_is_reported():
    graph = Graph()
    seed = graph.const(0)
    first = graph.add(OpKind.NEG, inputs=[seed.out()])
    second = graph.add(OpKind.NOT, inputs=[first.out()])
    graph.set_input(first, 0, second.out())
    with pytest.raises(GraphError) as error:
        graph.topo_order()
    assert str(error.value) == f"cycle through nodes {[first.id, second.id]}"
