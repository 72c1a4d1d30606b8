"""Frontend identity: the minimised CDFG and every mapping figure are
pinned against a golden fixture.

The fixture ``tests/fixtures/frontend_golden.json`` holds, per suite
kernel and per (width, balance) configuration, the sha256 of a
canonical dump of ``frontend.minimised`` (node ids renumbered by rank,
so only the graph's shape and payloads count) together with the
simplification pass counts, and the ``mapping_metrics`` of the 15
kernels and 100 random programs on three tiles.  Four large scaled
kernels (``LARGE``: 200 or more tasks each, where simplification costs
the most) are pinned the same way as the suite kernels.  A speed-up of the
transforms must leave all of it unchanged.  The one count excluded is
CSE's: it depends on how many duplicates the earlier passes create,
not on the graph they leave.

Regenerate (only when an output change is intended) with::

    PYTHONPATH=src python -m tests.test_frontend_identity
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.arch.params import TileParams
from repro.cdfg.graph import Graph
from repro.core.pipeline import compile_frontend, map_frontend
from repro.eval.kernels import (KERNELS, convolution_source,
                                correlation_source, fir_source,
                                matmul_source)
from repro.eval.metrics import mapping_metrics
from repro.transforms.cse import CommonSubexpressionElimination

from tests.test_property import random_source

FIXTURE = Path(__file__).parent / "fixtures" / "frontend_golden.json"

WIDTHS = (16, None)
BALANCE = (False, True)
TILES = {
    "default": TileParams(),
    "1pp-1bus": TileParams(n_pps=1, n_buses=1),
    "2pp-3bus": TileParams(n_pps=2, n_buses=3),
}
RANDOM_SEEDS = range(100)

#: Scaled kernels the size of ``kernel_suite``'s largest programs.
LARGE = {
    "fir104": fir_source(104),
    "matmul5": matmul_source(5),
    "corr32": correlation_source(32, 4),
    "conv64": convolution_source(64, 3),
}

_CSE = CommonSubexpressionElimination.name


def canonical_dump(graph: Graph) -> list:
    """The graph with node ids replaced by their rank, bodies inline."""
    rank = {node_id: index
            for index, node_id in enumerate(sorted(graph.nodes))}
    return [[node.kind.value, type(node.value).__name__, repr(node.value),
             node.name, node.n_outputs,
             [[rank[producer], index] for producer, index in node.inputs],
             [canonical_dump(body) for body in node.bodies]]
            for node in graph.sorted_nodes()]


def digest(graph: Graph) -> str:
    text = json.dumps(canonical_dump(graph), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def frontend_record(source: str, width, balance: bool) -> dict:
    frontend = compile_frontend(source, width=width, balance=balance)
    stats = frontend.pass_stats
    return {"sha256": digest(frontend.minimised),
            "rounds": stats.rounds,
            "by_pass": {name: count for name, count in stats.by_pass.items()
                        if name != _CSE}}


def metrics_record(source: str) -> dict:
    """``mapping_metrics`` per tile (all tiles share width None, so one
    frontend serves the three backends)."""
    frontend = compile_frontend(source)
    return {label: mapping_metrics(map_frontend(frontend, params))
            for label, params in TILES.items()}


def config_label(width, balance: bool) -> str:
    return f"width={width},balance={int(balance)}"


def frontend_records(source: str) -> dict:
    return {config_label(width, balance):
            frontend_record(source, width, balance)
            for width in WIDTHS for balance in BALANCE}


def generate() -> dict:
    return {
        "frontends": {
            **{kernel.name: frontend_records(kernel.source)
               for kernel in KERNELS},
            **{name: frontend_records(source)
               for name, source in LARGE.items()}},
        "metrics": {
            **{kernel.name: metrics_record(kernel.source)
               for kernel in KERNELS},
            **{f"random{seed}": metrics_record(random_source(seed))
               for seed in RANDOM_SEEDS}},
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda kernel: kernel.name)
def test_minimised_cdfg_and_pass_counts_match_golden(kernel, golden):
    expected = golden["frontends"][kernel.name]
    for width in WIDTHS:
        for balance in BALANCE:
            label = config_label(width, balance)
            assert frontend_record(kernel.source, width, balance) == \
                expected[label], f"{kernel.name} {label}"


@pytest.mark.parametrize("name", LARGE)
def test_large_kernel_cdfg_and_pass_counts_match_golden(name, golden):
    assert frontend_records(LARGE[name]) == golden["frontends"][name], name


def test_kernel_metrics_match_golden(golden):
    for kernel in KERNELS:
        assert metrics_record(kernel.source) == \
            golden["metrics"][kernel.name], kernel.name


def test_random_program_metrics_match_golden(golden):
    for seed in RANDOM_SEEDS:
        assert metrics_record(random_source(seed)) == \
            golden["metrics"][f"random{seed}"], f"random_source({seed})"


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(generate(), indent=1, sort_keys=True)
                       + "\n")
    print(f"wrote {FIXTURE}")
