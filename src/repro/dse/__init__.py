"""Design-space exploration over the FPFA mapping flow.

The paper maps one program onto one fixed tile; §VI names the bus and
port counts as *constraints*, which makes the architecture itself a
search space.  This package treats every kernel x :class:`TileParams`
x template-library x transform-option combination as one *design
point* and explores sets of them as a batch workload:

* :mod:`repro.dse.space` — declarative parameter spaces (grids,
  random samples, explicit point lists) over tile fields, stock
  template libraries, ``map_graph`` options and tile-array fields
  (``tiles``, ``topology``, ... — the multi-tile axis of
  :mod:`repro.multitile`);
* :mod:`repro.dse.runner` — a sweep runner that tolerates per-point
  failures and records the
  :func:`repro.eval.metrics.mapping_metrics` of every mapping, and
  the one worker pool (a pooled sweep's chunks and the service
  daemon's jobs run on it);
* :mod:`repro.dse.cache` — a content-addressed on-disk result cache
  keyed by a stable hash of (source, design point), so repeated and
  overlapping sweeps skip re-mapping entirely;
* :mod:`repro.dse.pareto` — Pareto-frontier extraction and scalarised
  best-point selection over cycles / energy / resource proxies;
* :mod:`repro.dse.search` — exhaustive, random and greedy hill-climb
  strategies sharing the same runner and cache;
* :mod:`repro.dse.distributed` — a sweep's pending points leased in
  chunks to one ``fpfa-map serve`` daemon, with a local fallback
  (records bit-identical to a local sweep).

Quickstart::

    from repro.dse import DesignSpace, run_sweep, pareto_front

    space = DesignSpace({"n_pps": [1, 2, 3, 5, 8],
                         "n_buses": [4, 10],
                         "library": ["two-level", "mac"]})
    result = run_sweep(source, space.grid(), workers=4,
                       cache="~/.cache/fpfa-dse")
    for record in pareto_front(result.ok_records()):
        print(record["config"], record["metrics"]["cycles"])
"""

from repro.dse.cache import ResultCache
from repro.dse.distributed import (
    DistributedSweepStats,
    parse_remote,
    run_distributed_sweep,
)
from repro.dse.pareto import (
    best_record,
    dominates,
    frontier_table,
    objective_value,
    pareto_front,
)
from repro.dse.runner import (
    SweepResult,
    SweepStats,
    evaluate_point,
    run_sweep,
)
from repro.dse.search import (
    SearchResult,
    exhaustive_search,
    hill_climb,
    random_search,
)
from repro.dse.space import DesignPoint, DesignSpace

__all__ = [
    "DesignPoint",
    "DesignSpace",
    "DistributedSweepStats",
    "ResultCache",
    "SearchResult",
    "SweepResult",
    "SweepStats",
    "best_record",
    "dominates",
    "evaluate_point",
    "exhaustive_search",
    "frontier_table",
    "hill_climb",
    "objective_value",
    "pareto_front",
    "parse_remote",
    "random_search",
    "run_distributed_sweep",
    "run_sweep",
]
