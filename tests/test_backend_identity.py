"""Backend identity: sweep records and allocations are pinned against a
golden fixture.

The fixture ``tests/fixtures/backend_golden.json`` holds two kinds of
sha256:

* ``records`` — per suite kernel and per 12-point pass, the records
  ``run_sweep(workers=1, verify_seed=1)`` returns for the first three
  passes of perfbench's ``tile_sweep`` at seed 1 (36 points per kernel
  over all three template libraries, ``balance`` on and off and 1-4
  tile arrays).  A record holds every mapping metric and the verified
  flag, so this pins clustering, scheduling, allocation, the multi-tile
  stage and verification together.
* ``allocations`` — per suite kernel and per tile, the allocated
  program listing, its data and output layouts and the
  ``AllocationStats``, on tiles with one register per bank, one or
  two buses, where the allocator inserts stall cycles over and over.
* ``refusals`` — on the same kernels and tiles, ``Allocator.refusals``
  (per level, the stall cycles inserted by refusing resource, in the
  order the resources first refused).  Records never carry it.

A speed-up of the backend must leave all of it unchanged.
Regenerate (only when an output change is intended) with::

    PYTHONPATH=src python -m tests.test_backend_identity
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.arch.params import TileParams
from repro.core.allocation import Allocator
from repro.core.pipeline import compile_frontend, map_frontend
from repro.dse.runner import run_sweep
from repro.dse.space import DesignSpace
from repro.eval.kernels import KERNELS

FIXTURE = Path(__file__).parent / "fixtures" / "backend_golden.json"

#: perfbench's ``tile_sweep`` design space, seed and pass size.
TILE_SPACE = {
    "n_pps": [1, 2, 3, 4, 5, 6, 7, 8],
    "n_buses": [2, 3, 4, 6, 8, 10],
    "library": ["single-op", "two-level", "mac"],
    "balance": [False, True],
    "tiles": [1, 2, 3, 4],
    "topology": ["crossbar", "ring", "mesh"],
}
SEED = 1
POINTS_PER_PASS = 12
PASSES = 3

#: Tiles on which levels stall over and over.  With two write ports
#: per bank, a port booked for a cycle an operand did not keep changes
#: the program.
ROLLBACK_TILES = {
    "regs1": TileParams(regs_per_bank=1),
    "bus1": TileParams(n_buses=1),
    "2pp-bus1-regs1": TileParams(n_pps=2, n_buses=1, regs_per_bank=1),
    "bus2-regs2-2ports": TileParams(n_buses=2, regs_per_bank=2,
                                    bank_write_ports=2),
}


def sha256(value) -> str:
    text = json.dumps(value, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def sweep_points(kernel) -> list:
    """The kernel's first ``PASSES`` passes of points.  ``sample``
    draws points one at a time from its seeded stream, so these are
    the first points of the benchmark's longer sample."""
    seed = random.Random(f"tile_sweep:{SEED}:{kernel.name}").getrandbits(32)
    return DesignSpace(TILE_SPACE).sample(POINTS_PER_PASS * PASSES,
                                          seed=seed)


def record_digests(kernel) -> list[str]:
    records = run_sweep(kernel.source, sweep_points(kernel), workers=1,
                        verify_seed=SEED).records
    return [sha256(records[start:start + POINTS_PER_PASS])
            for start in range(0, len(records), POINTS_PER_PASS)]


def allocation_digests(kernel) -> dict[str, str]:
    frontend = compile_frontend(kernel.source)
    digests = {}
    for label, params in ROLLBACK_TILES.items():
        report = map_frontend(frontend, params)
        program = report.program
        digests[label] = sha256([
            program.listing(),
            sorted((str(address), str(loc))
                   for address, loc in program.data_layout.items()),
            sorted((str(address), str(loc))
                   for address, loc in program.output_layout.items()),
            vars(report.alloc_stats)])
    return digests


def refusal_digests(kernel) -> dict[str, str]:
    frontend = compile_frontend(kernel.source)
    digests = {}
    for label, params in ROLLBACK_TILES.items():
        report = map_frontend(frontend, params)
        allocator = Allocator(report.clustered, report.schedule, params)
        allocator.allocate()
        digests[label] = sha256(allocator.refusals)
    return digests


def generate() -> dict:
    return {"records": {kernel.name: record_digests(kernel)
                        for kernel in KERNELS},
            "allocations": {kernel.name: allocation_digests(kernel)
                            for kernel in KERNELS},
            "refusals": {kernel.name: refusal_digests(kernel)
                         for kernel in KERNELS}}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda kernel: kernel.name)
def test_sweep_records_match_golden(kernel, golden):
    assert record_digests(kernel) == golden["records"][kernel.name]


def test_rollback_heavy_allocations_match_golden(golden):
    for kernel in KERNELS:
        assert allocation_digests(kernel) == \
            golden["allocations"][kernel.name], kernel.name


def test_stall_heavy_refusals_match_golden(golden):
    for kernel in KERNELS:
        assert refusal_digests(kernel) == \
            golden["refusals"][kernel.name], kernel.name


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(generate(), indent=1, sort_keys=True)
                       + "\n")
    print(f"wrote {FIXTURE}")
