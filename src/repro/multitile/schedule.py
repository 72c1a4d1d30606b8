"""Array-level scheduling: clusters on tiles, transfers on links.

This is the multi-tile generalisation of the paper's phase 2
(:mod:`repro.core.scheduling`).  The schedule advances in *steps* (the
array-level analogue of a level): in one step every tile executes up
to ``capacity`` of its ready clusters, and every link moves up to
``link_bandwidth`` words one hop further.

When a cluster's result is consumed on another tile, the scheduler
inserts an explicit :class:`Transfer` node: the word leaves the
producing tile the step after the producer executes (results commit at
end-of-cycle, exactly like the intra-tile timing model of
:mod:`repro.arch.control`), crosses its route link by link under
per-link bandwidth limits, and the consuming cluster becomes ready
only once the word has arrived.  One transfer serves *all* consumers
of a value on the destination tile (link-level multicast, mirroring
the intra-tile crossbar broadcast).

Invariants
----------
* With ``n_tiles == 1`` there are no transfers and the produced step
  schedule is identical — same (level, slot) for every cluster — to
  :func:`repro.core.scheduling.schedule_clusters` at the same
  capacity: both drain the same (slack, ASAP, id) priority queue.
* A consumer never executes before all of its operand transfers have
  arrived, and no directed link carries more than ``link_bandwidth``
  words per step.
* Scheduling is deterministic: priorities and tie-breaks are total
  orders over cluster ids.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, insort
from dataclasses import dataclass, field

from repro.arch.tilearray import TileArrayParams
from repro.core.clustering import ClusterGraph
from repro.core.scheduling import cluster_mobility
from repro.multitile.partition import Partition


@dataclass(frozen=True)
class Transfer:
    """One inter-tile word transfer inserted by the scheduler."""

    #: Cluster whose result is transferred.
    producer: int
    src_tile: int
    dst_tile: int
    #: Step the word leaves the source tile.
    send_step: int
    #: Link hops the word crosses (= route length).
    hops: int
    #: Steps in flight (= hops * hop_latency).
    latency: int
    #: Consuming clusters on the destination tile, ascending.
    consumers: tuple[int, ...] = ()

    @property
    def arrive_step(self) -> int:
        """First step the word is readable on the destination tile."""
        return self.send_step + self.latency


@dataclass
class PlacedCluster:
    """One cluster placed at (step, tile, ALU slot)."""

    cluster_id: int
    step: int
    tile: int
    slot: int


@dataclass
class ArraySchedule:
    """The array-level schedule: placements plus transfer nodes."""

    n_tiles: int
    capacity: int
    #: cluster id -> its placement.
    placement: dict[int, PlacedCluster] = field(default_factory=dict)
    transfers: list[Transfer] = field(default_factory=list)
    #: Total steps until the last cluster has executed.
    makespan: int = 0

    def step_of(self, cluster_id: int) -> int:
        return self.placement[cluster_id].step

    def tile_of(self, cluster_id: int) -> int:
        return self.placement[cluster_id].tile

    def clusters_on(self, tile: int) -> list[int]:
        return sorted(cid for cid, item in self.placement.items()
                      if item.tile == tile)

    def utilisation(self, tile: int) -> float:
        """Fraction of *tile*'s execute slots used over the makespan."""
        if self.makespan == 0:
            return 0.0
        return len(self.clusters_on(tile)) / \
            (self.capacity * self.makespan)

    def utilisations(self) -> list[float]:
        return [self.utilisation(tile) for tile in range(self.n_tiles)]

    def sends_from(self, tile: int) -> list[Transfer]:
        return [t for t in self.transfers if t.src_tile == tile]

    def arrivals_to(self, tile: int) -> list[Transfer]:
        return [t for t in self.transfers if t.dst_tile == tile]

    @property
    def n_transfers(self) -> int:
        return len(self.transfers)

    @property
    def transfer_hops(self) -> int:
        return sum(t.hops for t in self.transfers)

    @property
    def transfer_cycles(self) -> int:
        """Total steps transferred words spend in flight."""
        return sum(t.latency for t in self.transfers)

    def table(self) -> str:
        """Fig. 4-style rendering, one row per step with tile columns."""
        lines = []
        by_step: dict[int, dict[int, list[int]]] = {}
        for item in self.placement.values():
            by_step.setdefault(item.step, {}) \
                .setdefault(item.tile, []).append(item.cluster_id)
        sends = {}
        for transfer in self.transfers:
            sends.setdefault(transfer.send_step, []).append(transfer)
        for step in range(self.makespan):
            cells = []
            for tile in range(self.n_tiles):
                ids = sorted(by_step.get(step, {}).get(tile, []))
                names = " ".join(f"Clu{cid}" for cid in ids) or "-"
                cells.append(f"T{tile}[{names}]")
            line = f"Step{step}: " + "  ".join(cells)
            for transfer in sends.get(step, []):
                line += (f"  xfer Clu{transfer.producer} "
                         f"T{transfer.src_tile}->T{transfer.dst_tile}")
            lines.append(line)
        return "\n".join(lines)


class _LinkOccupancy:
    """Per-link word bookings with a sorted saturated-step list.

    ``counts[link]`` maps a step to the words booked on that directed
    link in that step; ``full[link]`` is the ascending list of steps
    already at ``bandwidth``.  Finding the earliest feasible send step
    for a route bisects the full lists and jumps straight past each
    saturated step instead of re-scanning every booked transfer one
    candidate cycle at a time, so a congested link costs
    O(conflicts x log(full steps)) per transfer, not
    O(makespan x route length).  The found step is exactly the one the
    old linear scan produced: a send is infeasible iff some hop's
    occupancy window contains a saturated step, and the jump target is
    the smallest send clearing that step.
    """

    __slots__ = ("bandwidth", "counts", "full")

    def __init__(self, bandwidth: int):
        self.bandwidth = bandwidth
        self.counts: dict[tuple[int, int], dict[int, int]] = {}
        self.full: dict[tuple[int, int], list[int]] = {}

    def earliest_send(self, route, hop_latency: int, send: int) -> int:
        """Smallest ``s >= send`` with every hop window unsaturated."""
        while True:
            required = send
            for hop, link in enumerate(route):
                full = self.full.get(link)
                if not full:
                    continue
                start = send + hop * hop_latency
                index = bisect_left(full, start)
                if index < len(full) and \
                        full[index] < start + hop_latency:
                    # hop's window [start, start + latency) holds a
                    # saturated step; clear it entirely.
                    required = max(required,
                                   full[index] + 1 - hop * hop_latency)
            if required == send:
                return send
            send = required

    def book(self, route, hop_latency: int, send: int) -> None:
        """Occupy every (link, step) slot of one transfer."""
        for hop, link in enumerate(route):
            counts = self.counts.setdefault(link, {})
            base = send + hop * hop_latency
            for tick in range(hop_latency):
                step = base + tick
                count = counts.get(step, 0) + 1
                counts[step] = count
                if count == self.bandwidth:
                    insort(self.full.setdefault(link, []), step)


def schedule_array(graph: ClusterGraph, partition: Partition,
                   array: TileArrayParams, capacity: int = 5,
                   mobility=cluster_mobility) -> ArraySchedule:
    """Schedule *graph* on the array under *partition*.

    List scheduling over global steps: per step, each tile takes up to
    *capacity* of its ready clusters critical-first — the same
    (slack, ASAP, id) priority as the single-tile leveller — then the
    results needed on other tiles are launched as transfers at the
    earliest step with free link bandwidth along their whole route.
    """
    predecessors = graph.predecessors()
    successors = graph.successors()
    asap, _, slack, _ = mobility(graph)

    schedule = ArraySchedule(n_tiles=array.n_tiles, capacity=capacity)
    if not graph.clusters:
        return schedule

    #: preds a cluster is still waiting for (same-tile executions and
    #: cross-tile arrivals both count down through this map).
    pending = {cid: len(preds) for cid, preds in predecessors.items()}
    #: earliest step a cluster may execute (pushed by preds/arrivals).
    earliest = {cid: 0 for cid in graph.clusters}
    #: per-tile ready pool: cluster id -> True once pending hits 0.
    ready: list[set[int]] = [set() for _ in range(array.n_tiles)]
    for cid, count in pending.items():
        if count == 0:
            ready[partition.tile_of(cid)].add(cid)

    #: Per-link interval bookings (a word occupies hop h's link for
    #: the hop_latency steps it takes to cross it, not just the entry
    #: step).
    links = _LinkOccupancy(array.link_bandwidth)

    def launch_transfer(producer: int, exec_step: int, src: int,
                        dst: int, consumers: list[int]) -> Transfer:
        route = array.route(src, dst)
        # Result commits at end of exec_step; the word leaves at the
        # earliest later step whose whole route is under bandwidth.
        send = links.earliest_send(route, array.hop_latency,
                                   exec_step + 1)
        links.book(route, array.hop_latency, send)
        return Transfer(
            producer=producer, src_tile=src, dst_tile=dst,
            send_step=send, hops=len(route),
            latency=len(route) * array.hop_latency,
            consumers=tuple(sorted(consumers)))

    remaining = len(graph.clusters)
    step = 0
    while remaining:
        placed: list[PlacedCluster] = []
        for tile in range(array.n_tiles):
            eligible = [(slack[cid], asap[cid], cid)
                        for cid in ready[tile]
                        if earliest[cid] <= step]
            for _, _, cid in heapq.nsmallest(capacity, eligible):
                slot = sum(1 for item in placed if item.tile == tile)
                item = PlacedCluster(cluster_id=cid, step=step,
                                     tile=tile, slot=slot)
                schedule.placement[cid] = item
                ready[tile].discard(cid)
                placed.append(item)
        remaining -= len(placed)
        # Commit this step's results: same-tile consumers unlock at
        # step+1, cross-tile consumers once their transfer arrives.
        for item in placed:
            src = item.tile
            remote: dict[int, list[int]] = {}
            for consumer in sorted(successors[item.cluster_id]):
                dst = partition.tile_of(consumer)
                if dst == src:
                    pending[consumer] -= 1
                    earliest[consumer] = max(earliest[consumer],
                                             step + 1)
                    if pending[consumer] == 0:
                        ready[dst].add(consumer)
                else:
                    remote.setdefault(dst, []).append(consumer)
            for dst, consumers in sorted(remote.items()):
                transfer = launch_transfer(item.cluster_id, step,
                                           src, dst, consumers)
                schedule.transfers.append(transfer)
                for consumer in consumers:
                    pending[consumer] -= 1
                    earliest[consumer] = max(earliest[consumer],
                                             transfer.arrive_step)
                    if pending[consumer] == 0:
                        ready[dst].add(consumer)
        step += 1
        bound = 4 * (len(graph.clusters) + 1) * \
            (1 + array.n_tiles * array.hop_latency)
        if step > bound:
            raise RuntimeError("array scheduler failed to make progress")
    schedule.makespan = step
    schedule.transfers.sort(key=lambda t: (t.send_step, t.producer,
                                           t.dst_tile))
    return schedule
