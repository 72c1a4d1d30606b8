"""The multi-tile mapping stage and its report object.

``map_multitile`` runs after the paper's three phases: it takes the
phase-1 cluster graph, partitions it over the tile array
(:mod:`repro.multitile.partition`), schedules clusters and inter-tile
transfers (:mod:`repro.multitile.schedule`), and wraps the outcome in
a :class:`MultiTileReport` with the aggregate metrics the DSE engine
sweeps: per-tile utilisation, cut size, transfer steps and transfer
energy.

The stage is *analytic* at the cluster granularity: per-tile programs
are not re-allocated register by register (the single-tile
:class:`~repro.arch.control.TileProgram` of the base report remains
the cycle-accurate artifact); instead the array schedule extends the
level/cycle accounting with communication steps and the energy
accounting with a per-hop adder, the same altitude at which the paper
reasons about phase 2.

Invariants
----------
* ``n_tiles == 1``: no transfers, zero cut, zero transfer energy, and
  the step schedule equals the single-tile level schedule — the base
  flow's metrics are untouched.
* ``transfer_energy == sum(hops) * hop_energy`` exactly; energy is
  only ever *added* by communication, never hidden.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.tilearray import TileArrayParams
from repro.core.clustering import ClusterGraph
from repro.core.scheduling import cluster_mobility
from repro.multitile.partition import Partition, partition_clusters
from repro.multitile.schedule import ArraySchedule, schedule_array


@dataclass
class MultiTileReport:
    """Everything the multi-tile stage produced for one program."""

    array: TileArrayParams
    partition: Partition
    schedule: ArraySchedule
    clustered: ClusterGraph
    #: Levels of the single-tile schedule (the 1-tile baseline the
    #: step speedup is measured against).
    base_levels: int

    # -- headline metrics ---------------------------------------------

    @property
    def n_tiles(self) -> int:
        return self.array.n_tiles

    @property
    def makespan(self) -> int:
        """Array steps until the last cluster has executed."""
        return self.schedule.makespan

    @property
    def cut_edges(self) -> int:
        """Cluster-graph edges crossing tiles."""
        return len(self.partition.cut_edges(self.clustered))

    @property
    def n_transfers(self) -> int:
        """Transfer nodes inserted (one per value per remote tile)."""
        return self.schedule.n_transfers

    @property
    def transfer_hops(self) -> int:
        return self.schedule.transfer_hops

    @property
    def transfer_cycles(self) -> int:
        """Steps transferred words spend on links."""
        return self.schedule.transfer_cycles

    @property
    def transfer_energy(self) -> float:
        """Array-level communication energy (hops x hop_energy)."""
        return self.transfer_hops * self.array.hop_energy

    @property
    def step_speedup(self) -> float:
        """Single-tile levels / array makespan (>1 = the array wins)."""
        return self.base_levels / max(self.makespan, 1)

    def tile_utilisations(self) -> list[float]:
        return self.schedule.utilisations()

    def tile_rows(self) -> list[dict]:
        """Per-tile breakdown rows for the table renderer."""
        loads = self.partition.loads(self.clustered)
        rows = []
        for tile in range(self.n_tiles):
            clusters = self.schedule.clusters_on(tile)
            steps = [self.schedule.step_of(cid) for cid in clusters]
            rows.append({
                "tile": tile,
                "clusters": len(clusters),
                "ops": loads[tile],
                "util": round(self.schedule.utilisation(tile), 3),
                "sends": len(self.schedule.sends_from(tile)),
                "recvs": len(self.schedule.arrivals_to(tile)),
                "first": min(steps) if steps else "",
                "last": max(steps) if steps else "",
            })
        return rows

    def summary(self) -> str:
        utils = self.tile_utilisations()
        mean_util = sum(utils) / max(len(utils), 1)
        lines = [
            self.array.describe(),
            f"partition: {self.cut_edges} cut edges, load imbalance "
            f"{self.partition.imbalance(self.clustered):.2f}x",
            f"array schedule: {self.makespan} steps "
            f"(1 tile: {self.base_levels} levels, "
            f"step speedup {self.step_speedup:.2f}x), "
            f"mean tile utilisation {mean_util:.0%}",
            f"transfers: {self.n_transfers} "
            f"({self.transfer_hops} hops, "
            f"{self.transfer_cycles} link steps, "
            f"energy +{self.transfer_energy:g})",
        ]
        return "\n".join(lines)


def map_multitile(clustered: ClusterGraph, array: TileArrayParams, *,
                  capacity: int = 5, base_levels: int | None = None,
                  seed: int = 0, balance_slack: float = 0.25,
                  refine_rounds: int = 8,
                  mobility=cluster_mobility) -> MultiTileReport:
    """Partition and schedule *clustered* over *array*.

    *capacity* is the per-tile clusters-per-step limit (the single
    tile's ``min(n_pps, n_buses)``).  *base_levels* is the single-tile
    level count used as the speedup baseline; when omitted it is
    recomputed by scheduling the graph on one tile.  *mobility*
    computes the graph's ``cluster_mobility`` (a caller may memoise it).
    """
    partition = partition_clusters(
        clustered, array.n_tiles, seed=seed,
        balance_slack=balance_slack, refine_rounds=refine_rounds)
    schedule = schedule_array(clustered, partition, array,
                              capacity=capacity, mobility=mobility)
    if base_levels is None:
        from repro.core.scheduling import schedule_clusters
        base_levels = schedule_clusters(clustered, n_pps=capacity,
                                        mobility=mobility).n_levels
    return MultiTileReport(array=array, partition=partition,
                           schedule=schedule, clustered=clustered,
                           base_levels=base_levels)
