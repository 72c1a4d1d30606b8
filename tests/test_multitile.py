"""Multi-tile mapping: partitioner, array scheduler, pipeline stage.

Covers the subsystem's contract:

* a 1-tile array is the identity — same metrics, same levels, no
  transfers;
* the partitioner is a total assignment (no cluster on two tiles, no
  cluster unassigned), deterministic under a fixed seed, and respects
  the load cap's feasibility;
* the array scheduler never violates dependences, per-tile capacity,
  transfer latency or per-link bandwidth;
* the topology models produce consistent distances and routes.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.arch.params import TileParams
from repro.arch.tilearray import TOPOLOGIES, TileArrayParams
from repro.core.clustering import cluster_tasks
from repro.core.pipeline import map_source
from repro.core.scheduling import schedule_clusters
from repro.eval.kernels import get_kernel
from repro.eval.metrics import mapping_metrics, multitile_metrics
from repro.eval.randomdag import random_task_graph
from repro.multitile import (
    map_multitile,
    partition_clusters,
    schedule_array,
)

FIR = get_kernel("fir16")


def _clustered(n_tasks: int, seed: int):
    return cluster_tasks(random_task_graph(n_tasks, seed=seed))


# ---------------------------------------------------------------------------
# Tile-array geometry
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("topology", TOPOLOGIES)
@pytest.mark.parametrize("n_tiles", [1, 2, 3, 4, 5, 6, 7, 8, 11])
def test_routes_match_distances(topology, n_tiles):
    array = TileArrayParams(n_tiles=n_tiles, topology=topology)
    for src in range(n_tiles):
        for dst in range(n_tiles):
            route = array.route(src, dst)
            assert len(route) == array.hop_distance(src, dst)
            # the route is a connected src -> dst walk without loops,
            # and every tile on it exists (partial mesh rows!)
            here = src
            seen = {src}
            for u, v in route:
                assert u == here
                assert 0 <= v < n_tiles
                assert v not in seen
                seen.add(v)
                here = v
            assert here == dst


def test_ring_takes_shorter_direction():
    array = TileArrayParams(n_tiles=6, topology="ring")
    assert array.hop_distance(0, 5) == 1
    assert array.hop_distance(0, 3) == 3
    assert array.route(0, 5) == [(0, 5)]


def test_mesh_shape_is_near_square():
    assert TileArrayParams(n_tiles=4, topology="mesh").mesh_shape \
        == (2, 2)
    assert TileArrayParams(n_tiles=6, topology="mesh").mesh_shape \
        == (3, 2)
    assert TileArrayParams(n_tiles=5, topology="mesh").mesh_shape \
        == (3, 2)


def test_array_params_validate():
    with pytest.raises(ValueError):
        TileArrayParams(n_tiles=0)
    with pytest.raises(ValueError):
        TileArrayParams(topology="torus")
    with pytest.raises(ValueError):
        TileArrayParams(hop_latency=0)
    with pytest.raises(ValueError):
        TileArrayParams(link_bandwidth=0)


# ---------------------------------------------------------------------------
# Partitioner
# ---------------------------------------------------------------------------

def test_one_tile_partition_is_trivial():
    graph = _clustered(40, seed=1)
    partition = partition_clusters(graph, 1)
    assert set(partition.assignment) == set(graph.clusters)
    assert set(partition.assignment.values()) == {0}
    assert partition.cut_edges(graph) == []


def test_partition_is_deterministic_under_fixed_seed():
    graph = _clustered(60, seed=7)
    first = partition_clusters(graph, 4, seed=123)
    second = partition_clusters(graph, 4, seed=123)
    assert first.assignment == second.assignment


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(n_tasks=st.integers(5, 80), graph_seed=st.integers(0, 1000),
       n_tiles=st.integers(1, 6), seed=st.integers(0, 50))
def test_partition_is_a_total_assignment(n_tasks, graph_seed, n_tiles,
                                         seed):
    """Property: every cluster lands on exactly one valid tile."""
    graph = _clustered(n_tasks, seed=graph_seed)
    partition = partition_clusters(graph, n_tiles, seed=seed)
    # total: each cluster appears exactly once (a dict key cannot
    # repeat, so totality + key-set equality is the whole property)
    assert set(partition.assignment) == set(graph.clusters)
    assert all(0 <= tile < n_tiles
               for tile in partition.assignment.values())
    # the per-tile cluster lists are disjoint and cover everything
    covered = [cid for tile in range(n_tiles)
               for cid in partition.clusters_on(tile)]
    assert sorted(covered) == sorted(graph.clusters)


def test_refinement_does_not_unbalance():
    graph = _clustered(100, seed=3)
    partition = partition_clusters(graph, 4, seed=0)
    assert partition.imbalance(graph) <= 1.5


# ---------------------------------------------------------------------------
# Array scheduler
# ---------------------------------------------------------------------------

def test_one_tile_schedule_equals_single_tile_leveller():
    graph = _clustered(50, seed=5)
    single = schedule_clusters(graph, n_pps=4)
    partition = partition_clusters(graph, 1)
    array = schedule_array(graph, partition,
                           TileArrayParams(n_tiles=1), capacity=4)
    assert array.makespan == single.n_levels
    assert not array.transfers
    for cid, item in single.placement.items():
        placed = array.placement[cid]
        assert (placed.step, placed.slot) == (item.level, item.pp)


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(n_tasks=st.integers(5, 60), graph_seed=st.integers(0, 500),
       n_tiles=st.integers(2, 4),
       topology=st.sampled_from(TOPOLOGIES),
       hop_latency=st.integers(1, 3),
       bandwidth=st.integers(1, 2),
       capacity=st.integers(1, 5))
def test_array_schedule_respects_all_constraints(
        n_tasks, graph_seed, n_tiles, topology, hop_latency,
        bandwidth, capacity):
    graph = _clustered(n_tasks, seed=graph_seed)
    array = TileArrayParams(n_tiles=n_tiles, topology=topology,
                            hop_latency=hop_latency,
                            link_bandwidth=bandwidth)
    partition = partition_clusters(graph, n_tiles)
    schedule = schedule_array(graph, partition, array,
                              capacity=capacity)
    # every cluster placed once, on its partition tile
    assert set(schedule.placement) == set(graph.clusters)
    for cid, item in schedule.placement.items():
        assert item.tile == partition.tile_of(cid)
        assert 0 <= item.step < schedule.makespan
    # per-tile per-step capacity
    per_slot: dict[tuple[int, int], int] = {}
    for item in schedule.placement.values():
        key = (item.tile, item.step)
        per_slot[key] = per_slot.get(key, 0) + 1
    assert all(count <= capacity for count in per_slot.values())
    # dependences: same-tile strictly-later step; cross-tile via a
    # transfer that leaves after the producer and arrives in time
    transfers = {(t.producer, t.dst_tile): t
                 for t in schedule.transfers}
    for cid, preds in graph.predecessors().items():
        for pred in preds:
            producer = schedule.placement[pred]
            consumer = schedule.placement[cid]
            if producer.tile == consumer.tile:
                assert producer.step < consumer.step
            else:
                transfer = transfers[(pred, consumer.tile)]
                assert cid in transfer.consumers
                assert transfer.send_step > producer.step
                assert transfer.arrive_step <= consumer.step
                assert transfer.hops == array.hop_distance(
                    producer.tile, consumer.tile)
    # per-link bandwidth is honoured for every step a word spends on
    # a link (a hop occupies its link for hop_latency steps)
    link_load: dict[tuple[int, int, int], int] = {}
    for transfer in schedule.transfers:
        route = array.route(transfer.src_tile, transfer.dst_tile)
        for hop, link in enumerate(route):
            for tick in range(hop_latency):
                slot = (*link,
                        transfer.send_step + hop * hop_latency + tick)
                link_load[slot] = link_load.get(slot, 0) + 1
    assert all(count <= bandwidth for count in link_load.values())


# ---------------------------------------------------------------------------
# Pipeline stage and metrics
# ---------------------------------------------------------------------------

def test_tiles_one_keeps_mapping_metrics_identical():
    plain = map_source(FIR.source)
    tiled = map_source(FIR.source, array=TileArrayParams(n_tiles=1))
    assert mapping_metrics(plain) == mapping_metrics(tiled)
    multitile = multitile_metrics(tiled)
    assert multitile["tiles"] == 1
    assert multitile["cut_edges"] == 0
    assert multitile["transfers"] == 0
    assert multitile["transfer_energy"] == 0.0
    assert multitile["makespan"] == tiled.schedule.n_levels
    assert multitile["array_energy"] == \
        pytest.approx(mapping_metrics(plain)["energy"], abs=0.1)


def test_an_array_point_measures_its_energy_once(monkeypatch):
    from repro.arch.energy import EnergyModel
    from repro.eval import metrics as metrics_module
    calls = []
    measure = metrics_module.measure_energy
    monkeypatch.setattr(metrics_module, "measure_energy",
                        lambda *args: calls.append(args) or measure(*args))
    report = map_source(FIR.source, TileParams(n_pps=2, n_buses=4),
                        array=TileArrayParams(n_tiles=2))
    energy = mapping_metrics(report)["energy"]
    array_energy = multitile_metrics(report)["array_energy"]
    assert len(calls) == 1
    assert array_energy == round(
        measure(report.program).total
        + report.multitile.transfer_energy, 1)
    # Another model is another measurement, not the cached one.
    costly = EnergyModel(bus_transfer=30.0)
    assert mapping_metrics(report, costly)["energy"] > energy
    assert len(calls) == 2


def test_multitile_stage_is_off_by_default():
    report = map_source(FIR.source)
    assert report.multitile is None
    with pytest.raises(ValueError):
        multitile_metrics(report)


def test_transfer_energy_scales_with_hop_energy():
    params = TileParams(n_pps=2, n_buses=4)
    cheap = map_source(FIR.source, params,
                       array=TileArrayParams(n_tiles=2, hop_energy=1.0))
    costly = map_source(FIR.source, params,
                        array=TileArrayParams(n_tiles=2,
                                              hop_energy=10.0))
    assert cheap.multitile.transfer_hops == \
        costly.multitile.transfer_hops
    hops = cheap.multitile.transfer_hops
    assert hops > 0
    assert cheap.multitile.transfer_energy == hops * 1.0
    assert costly.multitile.transfer_energy == hops * 10.0


def test_multitile_report_tables_render():
    from repro.eval.report import multitile_table
    report = map_source(FIR.source, TileParams(n_pps=2, n_buses=4),
                        array=TileArrayParams(n_tiles=2))
    text = multitile_table(report.multitile)
    assert "tile" in text and "util" in text
    assert report.multitile.summary()
    assert "Step0" in report.multitile.schedule.table()


# ---------------------------------------------------------------------------
# DSE integration
# ---------------------------------------------------------------------------

def test_design_space_sweeps_tiles():
    from repro.dse import DesignSpace, run_sweep

    space = DesignSpace({"tiles": [1, 2, 4],
                         "topology": ["crossbar", "mesh"]})
    result = run_sweep(FIR.source, space.grid(), workers=1)
    assert result.stats.failed == 0
    for record in result.records:
        assert record["metrics"]["tiles"] == \
            record["config"]["tiles"]
        assert "transfer_cycles" in record["metrics"]
        assert "tile_util_min" in record["metrics"]
    by_tiles = {record["config"]["tiles"]: record
                for record in result.records
                if record["config"]["topology"] == "crossbar"}
    assert by_tiles[1]["metrics"]["transfers"] == 0


def test_design_point_without_array_has_stable_identity():
    from repro.dse.space import DesignPoint

    point = DesignPoint.make({"n_pps": 3})
    assert "array" not in point.to_dict()
    assert point.tile_array_params() is None
    arrayed = DesignPoint.make({"n_pps": 3}, array={"tiles": 2})
    assert arrayed.to_dict()["array"] == {"tiles": 2}
    assert arrayed.tile_array_params().n_tiles == 2
    # round-trip through the serialised form
    assert DesignPoint.from_dict(arrayed.to_dict()) == arrayed


def test_design_space_rejects_bad_array_values():
    from repro.dse.space import DesignSpace, SpaceError

    with pytest.raises(SpaceError):
        DesignSpace({"tiles": ["many"]})
    with pytest.raises(SpaceError):
        DesignSpace({"topology": ["torus"]})
    with pytest.raises(SpaceError):
        DesignSpace({"hop_latency": [1.5]})


def test_map_multitile_recomputes_baseline_when_omitted():
    graph = _clustered(30, seed=9)
    report = map_multitile(graph, TileArrayParams(n_tiles=2),
                           capacity=3)
    assert report.base_levels == \
        schedule_clusters(graph, n_pps=3).n_levels


# ---------------------------------------------------------------------------
# Link-occupancy interval bookkeeping
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(bandwidth=st.integers(1, 3),
       hop_latency=st.integers(1, 3),
       bookings=st.lists(
           st.tuples(st.integers(0, 3),     # route choice
                     st.integers(0, 6)),    # requested send step
           min_size=1, max_size=40))
def test_link_occupancy_matches_linear_scan(bandwidth, hop_latency,
                                            bookings):
    """_LinkOccupancy's bisect jump search returns exactly the send
    step the old one-step-at-a-time scan found, for any booking
    sequence, and never oversubscribes a link."""
    from repro.multitile.schedule import _LinkOccupancy

    routes = [((0, 1),), ((0, 1), (1, 2)), ((1, 2),),
              ((2, 1), (1, 0))]
    fast = _LinkOccupancy(bandwidth)
    #: (link, step) -> load — the pre-interval-list reference model.
    linear_load: dict = {}

    def linear_earliest(route, send):
        while True:
            slots = [(link, send + hop * hop_latency + tick)
                     for hop, link in enumerate(route)
                     for tick in range(hop_latency)]
            if all(linear_load.get(slot, 0) < bandwidth
                   for slot in slots):
                return send, slots
            send += 1

    for route_index, requested in bookings:
        route = routes[route_index]
        expected, slots = linear_earliest(route, requested)
        actual = fast.earliest_send(route, hop_latency, requested)
        assert actual == expected
        fast.book(route, hop_latency, actual)
        for slot in slots:
            linear_load[slot] = linear_load.get(slot, 0) + 1

    for link, counts in fast.counts.items():
        assert all(load <= bandwidth for load in counts.values())
        saturated = sorted(step for step, load in counts.items()
                           if load == bandwidth)
        assert fast.full.get(link, []) == saturated
