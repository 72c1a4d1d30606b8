"""Lowering a minimised CDFG into the mapper's task DAG.

The three mapping phases (paper §VI) operate on a directed acyclic
graph of ALU-executable operations.  After complete unrolling and full
simplification the CDFG has exactly that shape, plus the statespace
plumbing.  This module converts it:

* every ALU-executable node (arith/logic/compare/MUX) becomes a
  :class:`Task`;
* every ``FE`` hanging off ``ss_in`` with a constant address becomes a
  *memory input operand* — the value sits in a tile memory when
  execution starts;
* the final ``ST`` chain becomes :class:`StoreTask` records — the
  program's outputs ("for each output do store it to a memory",
  Fig. 5); a ``DEL`` on the chain lowers to storing the totalised 0;
* ``INPUT`` parameter nodes become memory input operands at the
  scalar address of the parameter's name.

Anything the paper's flow does not map — residual loops/branches
(future work in §VII), dynamic addresses, fetches still depending on
stores — raises :class:`MappingError` with a precise diagnostic
instead of producing a wrong program.

Invariants
----------
* The task graph is a DAG over ALU-executable tasks only; lowering
  either succeeds completely or raises :class:`MappingError` —
  there is no partially-mapped state.
* Operand order is preserved from the CDFG (operand *i* later feeds
  ALU input *i*), and every ``TASK`` operand references a task in
  the graph.
* Task ids follow a fixed traversal of the CDFG, so lowering is
  deterministic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator

from repro.cdfg.graph import Graph, Node, ValueRef
from repro.cdfg.ops import ALU_OPS, Address, OpKind
from repro.transforms.dependency import resolve_address


class MappingError(Exception):
    """Raised when a CDFG cannot be mapped onto the tile."""


class OperandKind(enum.Enum):
    """Where a task's leaf operand comes from."""

    CONST = "const"   # an immediate constant
    MEM = "mem"       # a word of initial memory (FE off ss_in)
    TASK = "task"     # the result of another task


@dataclass(frozen=True)
class Operand:
    """One leaf input of a task."""

    kind: OperandKind
    value: int | Address | None = None  # CONST value or MEM address
    task_id: int | None = None          # producing task for TASK kind

    @classmethod
    def const(cls, value: int) -> "Operand":
        return cls(OperandKind.CONST, value=value)

    @classmethod
    def mem(cls, address: Address) -> "Operand":
        return cls(OperandKind.MEM, value=address)

    @classmethod
    def task(cls, task_id: int) -> "Operand":
        return cls(OperandKind.TASK, task_id=task_id)

    def __str__(self) -> str:
        if self.kind is OperandKind.CONST:
            return f"#{self.value}"
        if self.kind is OperandKind.MEM:
            return f"[{self.value}]"
        return f"t{self.task_id}"


@dataclass
class Task:
    """One ALU-executable operation."""

    id: int
    kind: OpKind
    operands: list[Operand] = field(default_factory=list)

    def predecessor_ids(self) -> Iterator[int]:
        for operand in self.operands:
            if operand.kind is OperandKind.TASK:
                assert operand.task_id is not None
                yield operand.task_id

    def __str__(self) -> str:
        rendered = ", ".join(str(operand) for operand in self.operands)
        return f"t{self.id} = {self.kind}({rendered})"


@dataclass
class StoreTask:
    """A program output: value stored at a statespace address."""

    address: Address
    source: Operand

    def __str__(self) -> str:
        return f"[{self.address}] = {self.source}"


@dataclass
class TaskGraph:
    """The DAG handed to clustering/scheduling/allocation."""

    tasks: dict[int, Task] = field(default_factory=dict)
    stores: list[StoreTask] = field(default_factory=list)

    # -- queries -------------------------------------------------------

    @property
    def n_tasks(self) -> int:
        return len(self.tasks)

    def input_addresses(self) -> list[Address]:
        """Every initial-memory address read by any task or store."""
        addresses: set[Address] = set()
        for task in self.tasks.values():
            for operand in task.operands:
                if operand.kind is OperandKind.MEM:
                    addresses.add(operand.value)
        for store in self.stores:
            if store.source.kind is OperandKind.MEM:
                addresses.add(store.source.value)
        return sorted(addresses)

    def output_addresses(self) -> list[Address]:
        return [store.address for store in self.stores]

    def consumers(self) -> dict[int, list[int]]:
        """task id -> ids of tasks consuming its result (sorted)."""
        table: dict[int, list[int]] = {task_id: []
                                       for task_id in self.tasks}
        for task in sorted(self.tasks.values(), key=lambda t: t.id):
            for pred in task.predecessor_ids():
                table[pred].append(task.id)
        return table

    def topo_order(self) -> list[Task]:
        """Tasks in dependence order (deterministic)."""
        import heapq
        indegree = {task_id: len(set(task.predecessor_ids()))
                    for task_id, task in self.tasks.items()}
        consumers = self.consumers()
        ready = [task_id for task_id, degree in indegree.items()
                 if degree == 0]
        heapq.heapify(ready)
        order = []
        while ready:
            task_id = heapq.heappop(ready)
            order.append(self.tasks[task_id])
            for consumer in dict.fromkeys(consumers[task_id]):
                indegree[consumer] -= 1
                if indegree[consumer] == 0:
                    heapq.heappush(ready, consumer)
        if len(order) != len(self.tasks):
            raise MappingError("cycle in task graph")
        return order

    def critical_path_length(self) -> int:
        """Longest dependence chain (in tasks)."""
        depth: dict[int, int] = {}
        for task in self.topo_order():
            preds = [depth[p] for p in task.predecessor_ids()]
            depth[task.id] = 1 + (max(preds) if preds else 0)
        return max(depth.values(), default=0)

    # -- lowering ---------------------------------------------------------

    @classmethod
    def from_cdfg(cls, graph: Graph) -> "TaskGraph":
        """Lower a minimised flat CDFG; raises MappingError otherwise."""
        _reject_unmappable(graph)
        lowering = _Lowering(graph)
        return lowering.run()


def _reject_unmappable(graph: Graph) -> None:
    residual = [node for node in graph.sorted_nodes()
                if node.kind in (OpKind.LOOP, OpKind.BRANCH)]
    if residual:
        kinds = ", ".join(f"{node.kind} (node {node.id})"
                          for node in residual)
        raise MappingError(
            f"graph still contains compound control after "
            f"simplification: {kinds}.  Loops must have statically "
            f"determined trip counts and branches must be "
            f"if-convertible — the paper lists richer control flow as "
            f"future work (§VII)")


class _Lowering:
    """One lowering run (keeps the node->operand memo)."""

    def __init__(self, graph: Graph):
        self.graph = graph
        self.result = TaskGraph()
        self._operand_of: dict[ValueRef, Operand] = {}

    def run(self) -> TaskGraph:
        graph = self.graph
        ss_in = graph.find(OpKind.SS_IN)
        self._ss_in_ref = ss_in[0].out() if ss_in else None
        for node in graph.topo_order():
            self._lower_node(node)
        self._lower_state_chain()
        self._lower_outputs()
        return self.result

    # -- values ----------------------------------------------------------

    def _operand(self, ref: ValueRef) -> Operand:
        if ref in self._operand_of:
            return self._operand_of[ref]
        node = self.graph.producer(ref)
        raise MappingError(
            f"node {node.id} ({node.kind}) is not mappable as an "
            f"operand")

    def _lower_node(self, node: Node) -> None:
        kind = node.kind
        if kind is OpKind.CONST:
            self._operand_of[node.out()] = Operand.const(node.value)
        elif kind is OpKind.INPUT:
            # Parameters live in memory at their name's scalar address.
            self._operand_of[node.out()] = Operand.mem(
                Address(str(node.value)))
        elif kind is OpKind.FE:
            self._lower_fetch(node)
        elif kind in ALU_OPS:
            task = Task(id=node.id, kind=kind,
                        operands=[self._operand(ref)
                                  for ref in node.inputs])
            self.result.tasks[task.id] = task
            self._operand_of[node.out()] = Operand.task(task.id)
        elif kind in (OpKind.ADDR, OpKind.ADDR_ADD, OpKind.SS_IN,
                      OpKind.SS_OUT, OpKind.ST, OpKind.DEL,
                      OpKind.OUTPUT):
            pass  # handled by fetch/state-chain lowering
        else:  # pragma: no cover - defensive
            raise MappingError(f"cannot lower node {node.id} ({kind})")

    def _lower_fetch(self, node: Node) -> None:
        if self._ss_in_ref is None or node.inputs[0] != self._ss_in_ref:
            producer = self.graph.producer(node.inputs[0])
            raise MappingError(
                f"FE node {node.id} still depends on {producer.kind} "
                f"(node {producer.id}); dependency analysis could not "
                f"prove independence — typically a dynamic address")
        resolved = resolve_address(self.graph, node.inputs[1])
        if not resolved.is_const:
            raise MappingError(
                f"FE node {node.id} has a dynamic address; the mapped "
                f"DAG needs constant addresses (complete unrolling "
                f"failed upstream?)")
        address = Address(resolved.base, resolved.offset)
        self._operand_of[node.out()] = Operand.mem(address)

    # -- the final store chain ----------------------------------------------

    def _lower_state_chain(self) -> None:
        ss_outs = self.graph.find(OpKind.SS_OUT)
        if not ss_outs:
            return
        chain: list[Node] = []
        current = ss_outs[0].inputs[0]
        while self._ss_in_ref is None or current != self._ss_in_ref:
            producer = self.graph.producer(current)
            if producer.kind is OpKind.ST:
                chain.append(producer)
                current = producer.inputs[0]
            elif producer.kind is OpKind.DEL:
                chain.append(producer)
                current = producer.inputs[0]
            elif producer.kind is OpKind.SS_IN:
                break
            else:
                raise MappingError(
                    f"state chain contains {producer.kind} "
                    f"(node {producer.id}); cannot map")
        chain.reverse()
        seen: dict[Address, int] = {}
        stores: list[StoreTask] = []
        for writer in chain:
            resolved = resolve_address(self.graph, writer.inputs[1])
            if not resolved.is_const:
                raise MappingError(
                    f"{writer.kind} node {writer.id} stores to a "
                    f"dynamic address; cannot map")
            address = Address(resolved.base, resolved.offset)
            if writer.kind is OpKind.ST:
                source = self._operand(writer.inputs[2])
            else:  # DEL: hardware memories cannot forget — store the
                # totalised 0 (observational statespace equality).
                source = Operand.const(0)
            if address in seen:
                stores[seen[address]] = StoreTask(address, source)
            else:
                seen[address] = len(stores)
                stores.append(StoreTask(address, source))
        self.result.stores.extend(stores)

    def _lower_outputs(self) -> None:
        for node in self.graph.find(OpKind.OUTPUT):
            address = Address(f"__out_{node.value}")
            self.result.stores.append(
                StoreTask(address, self._operand(node.inputs[0])))
