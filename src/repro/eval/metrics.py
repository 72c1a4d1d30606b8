"""Metric extraction from mapping reports.

Collects the quantities the experiments compare: graph sizes, cluster
counts, schedule shape, program cycles, utilisation, operand locality
and the energy proxy — one flat dict per program so the table renderer
and the benchmarks stay trivial.
"""

from __future__ import annotations

from repro.arch.energy import EnergyModel, EnergyReport, measure_energy
from repro.core.pipeline import MappingReport

#: Keys of the dict :func:`mapping_metrics` returns — the stable
#: reporting schema sweep objectives are validated against.
METRIC_FIELDS = (
    "tasks", "clusters", "critical_path", "levels",
    "inserted_levels", "cycles", "stalls", "moves", "alu_util",
    "speedup", "reuse", "bypass", "mem_moves", "locality",
    "energy", "energy_per_op",
)

#: Extra keys :func:`multitile_metrics` adds when the multi-tile
#: stage ran (``fpfa-map map --tiles`` / an array-dimension sweep).
MULTITILE_METRIC_FIELDS = (
    "tiles", "makespan", "step_speedup", "cut_edges", "transfers",
    "transfer_hops", "transfer_cycles", "transfer_energy",
    "array_energy", "tile_util_mean", "tile_util_min",
    "load_imbalance",
)


def _energy(report: MappingReport,
            energy_model: EnergyModel | None) -> EnergyReport:
    """``measure_energy`` of *report*'s program, kept on the report:
    an array point asks for it twice, once per metric dict."""
    model = energy_model or EnergyModel()
    cached = report._energy
    if cached is not None and cached[0] is report.program \
            and cached[1] == model:
        return cached[2]
    energy = measure_energy(report.program, model)
    report._energy = (report.program, model, energy)
    return energy


def mapping_metrics(report: MappingReport,
                    energy_model: EnergyModel | None = None) -> dict:
    """All headline metrics of one mapped program."""
    energy = _energy(report, energy_model)
    stats = report.alloc_stats
    operand_events = max(stats.operand_events(), 1)
    return {
        "tasks": report.n_tasks,
        "clusters": report.n_clusters,
        "critical_path": report.schedule.critical_path,
        "levels": report.n_levels,
        "inserted_levels": report.schedule.inserted_levels,
        "cycles": report.n_cycles,
        "stalls": report.program.n_stall_cycles,
        "moves": report.program.n_moves,
        "alu_util": round(report.program.alu_utilisation(), 3),
        "speedup": round(report.speedup_vs_serial, 2),
        "reuse": stats.reuse_hits,
        "bypass": stats.bypasses,
        "mem_moves": stats.staged_moves,
        "locality": round(
            (stats.reuse_hits + stats.bypasses) / operand_events, 3),
        "energy": round(energy.total, 1),
        "energy_per_op": round(
            energy.total / max(report.n_tasks, 1), 2),
    }


def multitile_metrics(report: MappingReport,
                      energy_model: EnergyModel | None = None) -> dict:
    """Array-level metrics of a report whose multi-tile stage ran.

    ``array_energy`` is the single-tile energy proxy plus the per-hop
    communication adder — transfers only ever *add* energy.  Raises
    :class:`ValueError` when the report has no multi-tile stage.
    """
    multitile = report.multitile
    if multitile is None:
        raise ValueError("report has no multi-tile stage; map with "
                         "array=TileArrayParams(...) first")
    energy = _energy(report, energy_model)
    utils = multitile.tile_utilisations()
    return {
        "tiles": multitile.n_tiles,
        "makespan": multitile.makespan,
        "step_speedup": round(multitile.step_speedup, 2),
        "cut_edges": multitile.cut_edges,
        "transfers": multitile.n_transfers,
        "transfer_hops": multitile.transfer_hops,
        "transfer_cycles": multitile.transfer_cycles,
        "transfer_energy": round(multitile.transfer_energy, 1),
        "array_energy": round(
            energy.total + multitile.transfer_energy, 1),
        "tile_util_mean": round(sum(utils) / max(len(utils), 1), 3),
        "tile_util_min": round(min(utils), 3) if utils else 0.0,
        "load_imbalance": round(
            multitile.partition.imbalance(multitile.clustered), 3),
    }


def kernel_row(name: str, report: MappingReport, **extra) -> dict:
    """A table row for the kernel-suite experiments."""
    row = {"kernel": name}
    row.update(mapping_metrics(report))
    row.update(extra)
    return row
