"""Benchmark-side spans around each layer's public entry point.

Each entry of :data:`PATCHES` names a function where its caller
looks it up (``repro.core.pipeline.allocate`` rather than
``repro.core.allocation.allocate``, because the pipeline imported the
name), the span it records, and the counts read from its arguments
or result.  Nothing under ``src/`` changes: the names are swapped
for wrappers while a traced slice runs and put back afterwards.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager

from benchlib import SpanRecorder


def _nodes_in(args):
    return len(args[0])


def _nodes_out(args, result, before):
    return {"transforms.nodes_in": before,
            "transforms.nodes_out": len(args[0])}


#: (module, attribute path, span name, before(args), observe(args,
#: result, before) -> counts)
PATCHES = (
    ("repro.core.pipeline", "build_main_cdfg", "lang.parse",
     None, None),
    ("repro.core.pipeline", "run_simplify", "transforms.simplify",
     _nodes_in, _nodes_out),
    ("repro.transforms.reassociate", "balance", "transforms.balance",
     None, None),
    ("repro.core.taskgraph", "TaskGraph.from_cdfg", "core.taskgraph",
     None, lambda args, result, _: {"core.tasks": result.n_tasks}),
    ("repro.core.pipeline", "cluster_tasks", "core.cluster",
     None, lambda args, result, _: {"core.clusters": result.n_clusters}),
    ("repro.core.pipeline", "schedule_clusters", "core.schedule",
     None, lambda args, result, _: {"core.levels": result.n_levels}),
    ("repro.core.pipeline", "allocate", "core.allocate",
     None, lambda args, result, _: {
         "core.stall_cycles": result[0].n_stall_cycles,
         "core.moves": result[0].n_moves}),
    ("repro.core.pipeline", "map_multitile", "multitile.map",
     None, lambda args, result, _: {
         "multitile.transfers": result.n_transfers}),
    ("repro.cdfg.interp", "Interpreter.run", "cdfg.interp",
     None, None),
    ("repro.core.pipeline", "simulate", "arch.simulate",
     None, lambda args, result, _: {
         "arch.sim_cycles": args[0].n_cycles}),
    ("repro.eval.metrics", "mapping_metrics", "eval.metrics",
     None, None),
    ("repro.dse.runner", "mapping_metrics", "eval.metrics",
     None, None),
    ("repro.dse.runner", "run_sweep", "dse.runner", None, None),
    ("repro.dse.cache", "ResultCache.get", "dse.cache_get",
     None, lambda args, result, _: {
         "dse.cache_hits": int(result is not None)}),
    ("repro.dse.cache", "ResultCache.put", "dse.cache_put",
     None, None),
)


class Layers:
    """Installs and removes the :data:`PATCHES` wrappers."""

    def __init__(self, recorder: SpanRecorder | None = None):
        self.recorder = recorder or SpanRecorder()
        self._saved: list[tuple] = []

    @contextmanager
    def installed(self):
        for module_name, path, name, before, observe in PATCHES:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            function = original.__func__ \
                if isinstance(original, classmethod) else original
            wrapped = self.recorder.wrap(name, function, before, observe)
            if isinstance(original, classmethod):
                wrapped = classmethod(wrapped)
            setattr(owner, attr, wrapped)
            self._saved.append((owner, attr, original))
        try:
            yield self.recorder
        finally:
            while self._saved:
                owner, attr, original = self._saved.pop()
                setattr(owner, attr, original)


def layer_metrics(recorder: SpanRecorder, records: int) -> dict:
    """Per-layer figures from one traced run's spans.

    Times are self times in ms per record the workload produced
    while spans were recorded; counts are means per call of the
    wrapped function.
    """
    own = recorder.self_time_by_name()
    calls = recorder.calls_by_name()
    counts = recorder.counts
    records = max(records, 1)

    def ms(*names):
        return sum(own.get(name, 0.0) for name in names) * 1e3 / records

    def per_call(counter, name):
        return counts.get(counter, 0) / calls[name] \
            if calls.get(name) else 0.0

    simulate_s = own.get("arch.simulate", 0.0)
    gets = calls.get("dse.cache_get", 0)
    return {
        "lang.parse_ms": ms("lang.parse"),
        "lang.calls": calls.get("lang.parse", 0) / records,
        "transforms.simplify_ms": ms("transforms.simplify",
                                    "transforms.balance"),
        "transforms.nodes_in": per_call("transforms.nodes_in",
                                        "transforms.simplify"),
        "transforms.nodes_out": per_call("transforms.nodes_out",
                                         "transforms.simplify"),
        "core.taskgraph_ms": ms("core.taskgraph"),
        "core.cluster_ms": ms("core.cluster"),
        "core.schedule_ms": ms("core.schedule"),
        "core.tasks": per_call("core.tasks", "core.taskgraph"),
        "core.clusters": per_call("core.clusters", "core.cluster"),
        "core.levels": per_call("core.levels", "core.schedule"),
        "core.allocate_ms": ms("core.allocate"),
        "core.stall_cycles": per_call("core.stall_cycles",
                                      "core.allocate"),
        "core.moves": per_call("core.moves", "core.allocate"),
        "multitile.map_ms": ms("multitile.map"),
        "multitile.transfers": per_call("multitile.transfers",
                                        "multitile.map"),
        "cdfg.interp_ms": ms("cdfg.interp"),
        "arch.simulate_ms": ms("arch.simulate"),
        "arch.sim_cycles_per_s": (counts.get("arch.sim_cycles", 0)
                                  / simulate_s if simulate_s else 0.0),
        "eval.metrics_ms": ms("eval.metrics"),
        "dse.runner_self_ms": ms("dse.runner"),
        "dse.cache_get_ms": ms("dse.cache_get"),
        "dse.cache_put_ms": ms("dse.cache_put"),
        "dse.cache_hit_ratio": (counts.get("dse.cache_hits", 0) / gets
                                if gets else 0.0),
    }
