"""Unit tests for phase 2: level scheduling (paper Fig. 4)."""

from repro.arch.templates import ClusterShape
from repro.core.clustering import Cluster, ClusterGraph
from repro.core.scheduling import schedule_clusters
from repro.core.taskgraph import Operand
from repro.cdfg.ops import OpKind


def make_cluster_graph(edges: dict[int, list[int]],
                       n_clusters: int) -> ClusterGraph:
    """Build a synthetic cluster graph: edges[c] = predecessors of c."""
    graph = ClusterGraph()
    for cid in range(n_clusters):
        operands = [Operand.task(p) for p in edges.get(cid, [])]
        if not operands:
            operands = [Operand.const(cid)]
        graph.clusters[cid] = Cluster(
            id=cid, shape=ClusterShape.SINGLE, ops=(OpKind.ADD,),
            task_ids=(cid,), operands=operands)
        graph.owner[cid] = cid
    return graph


class TestBasicScheduling:
    def test_independent_clusters_fill_levels(self):
        graph = make_cluster_graph({}, 12)
        schedule = schedule_clusters(graph, n_pps=5)
        assert schedule.n_levels == 3
        assert [len(level) for level in schedule.levels] == [5, 5, 2]

    def test_chain_gets_incremental_levels(self):
        graph = make_cluster_graph({1: [0], 2: [1], 3: [2]}, 4)
        schedule = schedule_clusters(graph, n_pps=5)
        assert schedule.n_levels == 4
        assert [schedule.level_of(c) for c in range(4)] == [0, 1, 2, 3]

    def test_dependencies_strictly_earlier(self):
        graph = make_cluster_graph({2: [0, 1], 3: [2]}, 4)
        schedule = schedule_clusters(graph, n_pps=2)
        assert schedule.level_of(2) > schedule.level_of(0)
        assert schedule.level_of(2) > schedule.level_of(1)
        assert schedule.level_of(3) > schedule.level_of(2)

    def test_pp_assignment_unique_per_level(self):
        graph = make_cluster_graph({}, 9)
        schedule = schedule_clusters(graph, n_pps=5)
        for level in schedule.levels:
            pps = [item.pp for item in level]
            assert len(set(pps)) == len(pps)

    def test_empty_graph(self):
        schedule = schedule_clusters(make_cluster_graph({}, 0))
        assert schedule.n_levels == 0
        assert schedule.critical_path == 0

    def test_deterministic(self):
        graph = make_cluster_graph({3: [0], 4: [1], 5: [2, 3]}, 7)
        first = schedule_clusters(graph, n_pps=2).table()
        second = schedule_clusters(graph, n_pps=2).table()
        assert first == second

    def test_utilisation(self):
        graph = make_cluster_graph({}, 10)
        schedule = schedule_clusters(graph, n_pps=5)
        assert schedule.utilisation(5) == 1.0


class TestInsertLevel:
    """Paper Fig. 4: six ready clusters, capacity five — one cluster
    moves down, inserting a level."""

    def test_six_ready_clusters_insert_one_level(self):
        # Clu1..Clu6 ready at level 0; capacity 5 -> one spills.
        graph = make_cluster_graph({}, 6)
        schedule = schedule_clusters(graph, n_pps=5)
        assert schedule.critical_path == 1
        assert schedule.n_levels == 2
        assert schedule.inserted_levels == 1

    def test_off_critical_moved_down_without_insertion(self):
        # 0->2 chain is critical (3 long); 6 extra independent
        # clusters have slack and slot into levels 1 and 2.
        edges = {1: [0], 2: [1]}
        graph = make_cluster_graph(edges, 9)
        schedule = schedule_clusters(graph, n_pps=5)
        assert schedule.critical_path == 3
        assert schedule.n_levels == 3
        assert schedule.inserted_levels == 0
        # the critical chain keeps incremental levels
        assert [schedule.level_of(c) for c in (0, 1, 2)] == [0, 1, 2]

    def test_critical_clusters_scheduled_before_slack(self):
        # 5 critical roots + 3 slack-y roots; critical go first.
        edges = {5: [0], 6: [5]}  # 0 -> 5 -> 6: 0 is critical
        graph = make_cluster_graph(edges, 8)
        schedule = schedule_clusters(graph, n_pps=3)
        assert schedule.level_of(0) == 0

    def test_capacity_one_serialises(self):
        graph = make_cluster_graph({}, 4)
        schedule = schedule_clusters(graph, n_pps=1)
        assert schedule.n_levels == 4
        assert schedule.inserted_levels == 3

    def test_table_rendering(self):
        graph = make_cluster_graph({1: [0]}, 2)
        table = schedule_clusters(graph, n_pps=5).table()
        assert "Level0: Clu0" in table
        assert "Level1: Clu1" in table
