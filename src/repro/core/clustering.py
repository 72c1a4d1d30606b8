"""Phase 1 — task clustering and ALU data-path mapping (paper §VI-A).

"In the clustering phase the task graph is partitioned and mapped to
an unbounded number of fully connected ALUs. [...] This clustering and
mapping scheme is based on the ALU data-path of our FPFA."

A *cluster* is a small operation tree that one configured ALU executes
in one clock cycle; legal shapes come from the
:class:`~repro.arch.templates.TemplateLibrary`.  Clustering is a
greedy maximal-munch cover in reverse topological order — at each
unclaimed task we try the largest legal template first (DUAL, then
CHAIN, then SINGLE), claiming producer tasks only when the merged
value does not escape the cluster (the producer's only consumer is the
cluster root and its result is not a program output).

Following Sarkar's reasoning, merging a producer into its consumer
*internalises* the connecting edge: the intermediate value never
leaves the ALU data-path, saving a store/load round-trip and a level.
The number of ALUs is unbounded here; the 5-ALU limit is phase 2's
problem.

Invariants
----------
* Clustering is a **partition** of the task graph: every task is
  covered by exactly one cluster (``owner`` is total), and a value
  merged into a cluster has no consumer outside it.
* The cluster graph is a DAG whenever the task graph is one (merging
  only follows single-consumer producer edges, which cannot create a
  cycle) — the property phase 2, the multi-tile partitioner and the
  array scheduler all rely on.
* Cluster ids are assigned in reverse topological visit order and
  are deterministic for a given task graph and template library.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arch.templates import ClusterShape, TemplateLibrary
from repro.cdfg.ops import COMMUTATIVE_OPS, OpKind
from repro.core.taskgraph import (
    Operand,
    OperandKind,
    StoreTask,
    Task,
    TaskGraph,
)


@dataclass
class Cluster:
    """One ALU configuration instance covering 1-3 tasks."""

    id: int
    shape: ClusterShape
    #: Operation tree, root first — matches AluConfig.ops.
    ops: tuple[OpKind, ...]
    #: Covered task ids, root first.
    task_ids: tuple[int, ...]
    #: Leaf operands in ALU-input order (leaf i reads bank i).
    operands: list[Operand] = field(default_factory=list)

    @property
    def n_ops(self) -> int:
        return len(self.ops)

    def predecessor_cluster_ids(self, owner: dict[int, int]) -> list[int]:
        """Clusters whose results this cluster consumes."""
        predecessors = []
        for operand in self.operands:
            if operand.kind is OperandKind.TASK:
                predecessors.append(owner[operand.task_id])
        return predecessors

    def label(self) -> str:
        return f"Clu{self.id}[{'/'.join(str(op) for op in self.ops)}]"


@dataclass
class ClusterGraph:
    """The clustered DAG handed to phase 2.

    The graph is immutable once :func:`cluster_tasks` returns, so the
    adjacency tables (``predecessors``/``successors``) are memoised on
    first use — phase 2, the multi-tile partitioner and the array
    scheduler all walk them repeatedly, and ``consumers_of`` inside a
    loop must stay O(degree), not O(V·E).  The returned tables are the
    shared memo: treat them as read-only (copy before mutating).
    """

    clusters: dict[int, Cluster] = field(default_factory=dict)
    #: task id -> id of the cluster covering it.
    owner: dict[int, int] = field(default_factory=dict)
    stores: list[StoreTask] = field(default_factory=list)
    #: Lazily-built adjacency memos (valid because the graph never
    #: changes after construction); excluded from equality/repr.
    _predecessors: dict[int, set[int]] | None = field(
        default=None, init=False, repr=False, compare=False)
    _successors: dict[int, set[int]] | None = field(
        default=None, init=False, repr=False, compare=False)
    #: The allocator's value and word numbering of this graph
    #: (``repro.core.allocation._Values``), built on first use.
    _values: object | None = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)

    def predecessors(self) -> dict[int, set[int]]:
        """cluster id -> set of predecessor cluster ids (memoised)."""
        if self._predecessors is None:
            table: dict[int, set[int]] = {}
            for cluster in self.clusters.values():
                table[cluster.id] = set(
                    cluster.predecessor_cluster_ids(self.owner))
            self._predecessors = table
        return self._predecessors

    def successors(self) -> dict[int, set[int]]:
        """cluster id -> set of successor cluster ids (memoised)."""
        if self._successors is None:
            table: dict[int, set[int]] = {cid: set()
                                          for cid in self.clusters}
            for cluster_id, preds in self.predecessors().items():
                for pred in preds:
                    table[pred].add(cluster_id)
            self._successors = table
        return self._successors

    def consumers_of(self, cluster_id: int) -> list[int]:
        """Clusters consuming *cluster_id*'s result, sorted."""
        return sorted(self.successors()[cluster_id])

    def internalised_edges(self, taskgraph: TaskGraph) -> int:
        """Task-graph edges hidden inside clusters (Sarkar's metric)."""
        internal = 0
        for task in taskgraph.tasks.values():
            for pred in task.predecessor_ids():
                if self.owner[pred] == self.owner[task.id]:
                    internal += 1
        return internal


def _task_operand_count(task: Task) -> int:
    return len(task.operands)


def cluster_tasks(taskgraph: TaskGraph,
                  library: TemplateLibrary | None = None) -> ClusterGraph:
    """Cover *taskgraph* with ALU data-path clusters."""
    library = library or TemplateLibrary.two_level()
    consumers = taskgraph.consumers()
    #: results that must exist outside any consumer's data-path
    output_tasks = {store.source.task_id for store in taskgraph.stores
                    if store.source.kind is OperandKind.TASK}
    claimed: set[int] = set()
    result = ClusterGraph(stores=list(taskgraph.stores))
    next_cluster_id = 0

    def claimable(task: Task, consumer_id: int) -> bool:
        """May *task* be merged into its consumer's cluster?"""
        if task.id in claimed:
            return False
        if task.id in output_tasks:
            return False
        # Exactly one consuming reference: the value must not escape
        # the merged data-path (a twice-read operand still escapes).
        return consumers[task.id] == [consumer_id]

    order = taskgraph.topo_order()
    for task in reversed(order):
        if task.id in claimed:
            continue
        cluster = _match(taskgraph, library, task, claimable, claimed)
        cluster.id = next_cluster_id
        next_cluster_id += 1
        result.clusters[cluster.id] = cluster
        for task_id in cluster.task_ids:
            claimed.add(task_id)
            result.owner[task_id] = cluster.id
    return result


def _match(taskgraph: TaskGraph, library: TemplateLibrary, root: Task,
           claimable, claimed: set[int]) -> Cluster:
    """Try DUAL, then CHAIN, then SINGLE at *root*."""
    tasks = taskgraph.tasks

    def producer(operand: Operand) -> Task | None:
        if operand.kind is OperandKind.TASK:
            return tasks[operand.task_id]
        return None

    # DUAL: binary root, both operands produced by claimable tasks.
    if len(root.operands) == 2:
        left = producer(root.operands[0])
        right = producer(root.operands[1])
        if (left is not None and right is not None
                and left.id != right.id
                and claimable(left, root.id) and claimable(right, root.id)):
            n_inputs = (_task_operand_count(left)
                        + _task_operand_count(right))
            if library.dual_legal(root.kind, left.kind, right.kind,
                                  n_inputs):
                operands = list(left.operands) + list(right.operands)
                return Cluster(
                    id=-1, shape=ClusterShape.DUAL,
                    ops=(root.kind, left.kind, right.kind),
                    task_ids=(root.id, left.id, right.id),
                    operands=operands)

    # CHAIN: one operand's producer feeds the first ALU level.  The
    # chained producer must sit in operand position 0 (the data-path
    # feeds level 1 into the left port of level 2); a commutative root
    # lets us swap the other operand into place.
    for position, operand in enumerate(root.operands):
        child = producer(operand)
        if child is None or not claimable(child, root.id):
            continue
        if position > 0 and not (len(root.operands) == 2
                                 and root.kind in COMMUTATIVE_OPS):
            continue
        n_inputs = (_task_operand_count(child)
                    + _task_operand_count(root) - 1)
        if not library.chain_legal(root.kind, child.kind, n_inputs):
            continue
        rest = [op for index, op in enumerate(root.operands)
                if index != position]
        return Cluster(
            id=-1, shape=ClusterShape.CHAIN,
            ops=(root.kind, child.kind),
            task_ids=(root.id, child.id),
            operands=list(child.operands) + rest)

    if not library.single_legal(root.kind):
        raise ValueError(
            f"operation {root.kind} of task {root.id} is not "
            f"ALU-executable")
    return Cluster(id=-1, shape=ClusterShape.SINGLE, ops=(root.kind,),
                   task_ids=(root.id,), operands=list(root.operands))
