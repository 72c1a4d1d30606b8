"""Phase 2 — scheduling clusters on the 5 physical ALUs (paper §VI-B).

"In the scheduling phase, the graph obtained from the clustering phase
is scheduled according to the maximum number of ALUs (in our case 5).
This means that at most 5 clusters can be on the same level.  In a
clustered graph, the longest path is referred to as critical path.
All nodes on the critical path have an incremental level number.  The
clusters that do not belong to any critical path can be moved up and
down within the range where the dependence relations among the tasks
are satisfied.  Here we adopt a heuristic procedure in which the
clusters are scheduled level by level.  The complexity is thus linear
to the number of clusters."

Implementation: classic ASAP/ALAP levelling gives each cluster its
mobility range; levels are then filled in order.  At each level the
ready clusters are taken critical-first (slack 0, i.e. on a critical
path), others by increasing slack — a non-critical cluster that does
not fit is simply "moved down" within its dependence range.  When even
critical clusters overflow the 5 slots, the surplus spills into a
freshly *inserted level* and every downstream level shifts, exactly
the Fig. 4 scenario.  One bucket-queue pass over clusters and edges:
O(V + E).

Invariants
----------
* Dependences map to strictly increasing levels: a cluster's level
  is greater than every predecessor's.
* No level holds more than ``n_pps`` clusters, and every cluster is
  placed exactly once.
* The schedule is deterministic: the ready queue is ordered by
  (slack, ASAP, id), all total orders.
* ``n_levels >= critical_path`` always; the difference is exactly
  Fig. 4's inserted levels.
* The same (slack, ASAP, id) priority drives the multi-tile array
  scheduler (:mod:`repro.multitile.schedule`), which therefore
  degenerates to this leveller on a 1-tile array.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.clustering import Cluster, ClusterGraph


@dataclass
class ScheduledCluster:
    """One cluster placed at (level, ALU index)."""

    cluster: Cluster
    level: int
    pp: int


@dataclass
class Schedule:
    """The levelled schedule produced by phase 2."""

    #: levels[t] = clusters executing in level t, ALU order.
    levels: list[list[ScheduledCluster]] = field(default_factory=list)
    #: cluster id -> its placement.
    placement: dict[int, ScheduledCluster] = field(default_factory=dict)
    #: length of the clustered graph's critical path (in levels).
    critical_path: int = 0
    #: per-cluster slack (ALAP - ASAP) before capacity was applied.
    slack: dict[int, int] = field(default_factory=dict)

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    @property
    def inserted_levels(self) -> int:
        """Levels beyond the critical path — Fig. 4's inserted levels."""
        return self.n_levels - self.critical_path

    def level_of(self, cluster_id: int) -> int:
        return self.placement[cluster_id].level

    def utilisation(self, n_pps: int) -> float:
        if not self.levels:
            return 0.0
        placed = sum(len(level) for level in self.levels)
        return placed / (n_pps * len(self.levels))

    def table(self) -> str:
        """Fig. 4-style rendering: one row per level."""
        lines = []
        for index, level in enumerate(self.levels):
            names = "  ".join(f"Clu{item.cluster.id}" for item in level)
            lines.append(f"Level{index}: {names}")
        return "\n".join(lines)


def _asap_levels(graph: ClusterGraph,
                 predecessors: dict[int, set[int]]) -> dict[int, int]:
    asap: dict[int, int] = {}
    for cluster_id in topo_cluster_ids(graph, predecessors):
        preds = predecessors[cluster_id]
        asap[cluster_id] = (max(asap[p] for p in preds) + 1) if preds \
            else 0
    return asap


def _alap_levels(graph: ClusterGraph, successors: dict[int, set[int]],
                 depth: int) -> dict[int, int]:
    alap: dict[int, int] = {}
    for cluster_id in reversed(topo_cluster_ids(graph,
                                         _invert(successors, graph))):
        succs = successors[cluster_id]
        alap[cluster_id] = (min(alap[s] for s in succs) - 1) if succs \
            else depth - 1
    return alap


def _invert(successors: dict[int, set[int]],
            graph: ClusterGraph) -> dict[int, set[int]]:
    predecessors: dict[int, set[int]] = {cid: set()
                                         for cid in graph.clusters}
    for cluster_id, succs in successors.items():
        for successor in succs:
            predecessors[successor].add(cluster_id)
    return predecessors


def topo_cluster_ids(graph: ClusterGraph,
                     predecessors: dict[int, set[int]]) -> list[int]:
    """Deterministic topological order of the cluster ids (smallest
    ready id first) — shared by the levelers and the multi-tile
    partitioner.  Raises on a cyclic cluster graph."""
    import heapq
    indegree = {cid: len(preds) for cid, preds in predecessors.items()}
    successors: dict[int, list[int]] = {cid: [] for cid in graph.clusters}
    for cid, preds in predecessors.items():
        for pred in preds:
            successors[pred].append(cid)
    ready = [cid for cid, degree in indegree.items() if degree == 0]
    heapq.heapify(ready)
    order: list[int] = []
    while ready:
        cid = heapq.heappop(ready)
        order.append(cid)
        for successor in successors[cid]:
            indegree[successor] -= 1
            if indegree[successor] == 0:
                heapq.heappush(ready, successor)
    if len(order) != len(graph.clusters):
        raise ValueError("cycle in cluster graph")
    return order


def cluster_mobility(graph: ClusterGraph) -> tuple[dict, dict, dict, int]:
    """ASAP level, ALAP level, slack per cluster, and graph depth.

    The mobility quadruple drives both this module's single-tile level
    scheduler and the multi-tile array scheduler
    (:mod:`repro.multitile.schedule`): slack-0 clusters sit on a
    critical path and are always placed first.
    """
    predecessors = graph.predecessors()
    successors = graph.successors()
    asap = _asap_levels(graph, predecessors)
    depth = (max(asap.values()) + 1) if asap else 0
    alap = _alap_levels(graph, successors, depth)
    slack = {cid: alap[cid] - asap[cid] for cid in graph.clusters}
    return asap, alap, slack, depth


def schedule_clusters(graph: ClusterGraph, n_pps: int = 5,
                      mobility=cluster_mobility) -> Schedule:
    """Level-schedule *graph* with at most *n_pps* clusters per level.

    *mobility* computes the graph's :func:`cluster_mobility`; a caller
    may pass a memoised one.  Its tables are only read (the schedule
    keeps the slack).
    """
    predecessors = graph.predecessors()
    successors = graph.successors()
    asap, _, slack, depth = mobility(graph)

    schedule = Schedule(critical_path=depth, slack=slack)

    # Incremental ready tracking keeps the pass O(V log V + E) — the
    # paper's "complexity is thus linear to the number of clusters".
    # Priority: critical clusters first (slack 0), then by slack, then
    # by ASAP level, id as the deterministic tie-break.
    import heapq
    pending = {cid: len(preds) for cid, preds in predecessors.items()}
    ready = [(slack[cid], asap[cid], cid)
             for cid, count in pending.items() if count == 0]
    heapq.heapify(ready)
    remaining = len(graph.clusters)
    level = 0
    while remaining:
        placed = []
        for pp in range(min(n_pps, len(ready))):
            __, __, cid = heapq.heappop(ready)
            item = ScheduledCluster(cluster=graph.clusters[cid],
                                    level=level, pp=pp)
            schedule.placement[cid] = item
            placed.append(item)
        remaining -= len(placed)
        # Successors become eligible only at the *next* level (a
        # dependence means strictly-earlier level), so release them
        # after this level's picks are committed.
        for item in placed:
            for successor in successors[item.cluster.id]:
                pending[successor] -= 1
                if pending[successor] == 0:
                    heapq.heappush(ready, (slack[successor],
                                           asap[successor], successor))
        schedule.levels.append(placed)
        level += 1
        if level > 4 * (len(graph.clusters) + 1):
            raise RuntimeError("scheduler failed to make progress")
    return schedule
