"""The CDFG graph data structure.

A :class:`Graph` is a set of :class:`Node` objects connected by value
references.  A :class:`ValueRef` names one output of one node as the
pair ``(node_id, output_index)``; node inputs are ordered lists of such
references, which encodes the hyperedges of the paper's hypergraph
model (one producer output fanning out to many consumer ports is one
hyperedge).

Compound control (paper §III: "control information ... which in turn
control the iteration and selection statements") is represented by
``LOOP`` and ``BRANCH`` nodes carrying nested sub-graphs:

* A ``LOOP`` node has ``k`` inputs (initial values of the loop-carried
  variables) and ``k`` outputs (their final values).  Its single body
  graph uses ``INPUT`` nodes with slots ``0..k-1`` for the current
  carried values, an ``OUTPUT`` node with slot ``COND_SLOT`` for the
  continue-condition, and ``OUTPUT`` nodes with slots ``0..k-1`` for
  the next-iteration values.
* A ``BRANCH`` node has ``1 + k`` inputs (condition plus live-ins) and
  ``k`` outputs (merged live-outs).  Each of its two bodies maps INPUT
  slots ``0..k-1`` to OUTPUT slots ``0..k-1``.

The statespace, when touched inside a loop/branch, is threaded through
as just another carried value — its port type is STATE.

Incremental analyses
--------------------
The graph maintains a *versioned* use/def index alongside the node
table: every structural mutation (``add``, ``remove``, ``remove_dead``,
``replace_uses``, ``set_input``, ``set_inputs``, ``splice``) updates a
reverse-adjacency map (``ref -> {(consumer_id, slot)}``) and a per-kind
id set, and bumps :attr:`version`.  ``uses()`` / ``users_of()`` /
``find()`` / ``counts()`` are then O(fan-out) lookups instead of whole
graph rescans, and ``topo_order()`` / ``sorted_nodes()`` memoise their
result against the current version, so the common
analyse-mutate-reanalyse loops of the transform passes stop being
quadratic in graph size.  The interpreter memoises its evaluation
plan the same way (``_plan_cache``).

Mutating ``node.inputs`` directly bypasses the index; rewiring must go
through :meth:`Graph.set_input` / :meth:`Graph.set_inputs` (or
``replace_uses``).  :meth:`check_index` compares the incremental index
against a from-scratch recomputation and is wired into
:func:`repro.cdfg.validate.validate`, and the hypothesis property
tests drive it across randomized transform sequences.
"""

from __future__ import annotations

import heapq
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator

from repro.cdfg.ops import Address, OpKind, PortType, signature

#: One output of one node: (node id, output index).
ValueRef = tuple[int, int]

#: OUTPUT slot used for a LOOP body's continue-condition.
COND_SLOT = "cond"


class GraphError(Exception):
    """Raised on malformed graph manipulation."""


@dataclass
class Node:
    """One operation in a CDFG.

    Attributes
    ----------
    id:
        Unique (per graph) integer identity.
    kind:
        The operation.
    inputs:
        Ordered input references.  Treat as read-only outside
        :class:`Graph`; rewire through :meth:`Graph.set_input` /
        :meth:`Graph.set_inputs` so the use index stays current.
    value:
        Payload: ``int`` for CONST, :class:`Address` for ADDR, a slot
        index or :data:`COND_SLOT` for INPUT/OUTPUT nodes.
    name:
        Optional human-readable label (variable name etc.).
    bodies:
        Nested sub-graphs: ``(body,)`` for LOOP and
        ``(then_body, else_body)`` for BRANCH; empty otherwise.
    n_outputs:
        Number of output ports.
    """

    id: int
    kind: OpKind
    inputs: list[ValueRef] = field(default_factory=list)
    value: Any = None
    name: str | None = None
    bodies: tuple["Graph", ...] = ()
    n_outputs: int = 1

    def out(self, index: int = 0) -> ValueRef:
        """The reference naming this node's *index*-th output."""
        if not 0 <= index < self.n_outputs:
            raise GraphError(
                f"node {self.id} ({self.kind}) has {self.n_outputs} "
                f"output(s); no output {index}")
        return (self.id, index)

    @property
    def is_compound(self) -> bool:
        return self.kind in (OpKind.LOOP, OpKind.BRANCH)

    def describe(self) -> str:
        """Short human-readable description used in errors and DOT."""
        if self.kind is OpKind.CONST:
            return str(self.value)
        if self.kind is OpKind.ADDR:
            return f"&{self.value}"
        label = str(self.kind)
        if self.name:
            label += f" {self.name}"
        return label

    def __repr__(self) -> str:
        return f"<Node {self.id} {self.describe()}>"


class UsesView(Mapping):
    """Live, deterministic mapping view over a graph's use index.

    Behaves like the dict ``uses()`` historically returned —
    ``view[ref]`` is the list of ``(consumer_id, slot)`` pairs in
    ascending order, refs with no consumers are absent — but reads
    straight from the incremental index, so it is always current and
    each lookup costs O(fan-out log fan-out) instead of a full-graph
    rescan.

    Per-ref lookups (``get``/``[]``/``in``) are always mutation-safe.
    Iteration (``items()``/``values()``/``iter``) walks a snapshot of
    the refs and silently skips any whose uses vanish mid-iteration,
    so rewiring the graph while iterating never raises.
    """

    __slots__ = ("_graph",)

    def __init__(self, graph: "Graph"):
        self._graph = graph

    def get(self, ref, default=None):
        users = self._graph._users.get(ref)
        return sorted(users) if users else default

    def __getitem__(self, ref) -> list[tuple[int, int]]:
        users = self._graph._users.get(ref)
        if not users:
            raise KeyError(ref)
        return sorted(users)

    def __contains__(self, ref) -> bool:
        return bool(self._graph._users.get(ref))

    def __iter__(self):
        return iter(sorted(self._graph._users))

    def items(self):
        for ref in sorted(self._graph._users):
            users = self._graph._users.get(ref)
            if users:
                yield ref, sorted(users)

    def values(self):
        for __, consumers in self.items():
            yield consumers

    def __len__(self) -> int:
        return len(self._graph._users)

    def __repr__(self) -> str:
        return f"<UsesView of {self._graph!r}>"


class Graph:
    """A mutable CDFG.

    Nodes are created with :meth:`add` (or one of the typed helpers)
    and wired by passing producer references as inputs.  The graph
    offers the navigation and surgery primitives that the transform
    passes and the mapper rely on: topological iteration, use lists,
    use replacement, dead-node removal and deep cloning — all backed
    by the incremental versioned index described in the module
    docstring.
    """

    def __init__(self, name: str = "cdfg"):
        self.name = name
        self.nodes: dict[int, Node] = {}
        #: The id :meth:`add` gives the next node.
        self._next_id = 0
        #: ref -> {(consumer_id, slot)} — incremental reverse adjacency.
        self._users: dict[ValueRef, set[tuple[int, int]]] = {}
        #: kind -> {node ids} — incremental kind partition.
        self._kind_ids: dict[OpKind, set[int]] = {}
        #: Bumped on every structural mutation; memoised analyses key
        #: their cache on it.
        self._version = 0
        self._topo_cache: tuple[int, list[Node]] | None = None
        self._sorted_cache: tuple[int, list[Node]] | None = None
        #: The interpreter's evaluation plan (:mod:`repro.cdfg.interp`).
        self._plan_cache: tuple[int, Any] | None = None
        #: Verification references run on this graph, kept by
        #: :func:`repro.core.pipeline.verify_seeded` (never pickled).
        self._references: dict = {}

    # -- index maintenance -------------------------------------------

    @property
    def version(self) -> int:
        """Monotone structural-mutation counter."""
        return self._version

    def _touch(self) -> None:
        self._version += 1

    def _index_removed(self, node: Node) -> None:
        kind_ids = self._kind_ids.get(node.kind)
        if kind_ids is not None:
            kind_ids.discard(node.id)
            if not kind_ids:
                del self._kind_ids[node.kind]
        for slot, ref in enumerate(node.inputs):
            self._drop_use(ref, node.id, slot)
        self._touch()

    def _drop_use(self, ref: ValueRef, consumer_id: int,
                  slot: int) -> None:
        users = self._users.get(ref)
        if users is not None:
            users.discard((consumer_id, slot))
            if not users:
                del self._users[ref]

    def _rebuild_index(self) -> None:
        """Recompute the whole index from the node table (used by
        clone/unpickle, and by :meth:`check_index` as the oracle)."""
        self._users = {}
        self._kind_ids = {}
        for node in self.nodes.values():
            self._kind_ids.setdefault(node.kind, set()).add(node.id)
            for slot, ref in enumerate(node.inputs):
                self._users.setdefault(ref, set()).add((node.id, slot))
        self._topo_cache = None
        self._sorted_cache = None
        self._plan_cache = None
        self._touch()

    def check_index(self, recursive: bool = True) -> None:
        """Verify the incremental index against a from-scratch scan.

        Raises :class:`GraphError` on any divergence — the symptom of
        a transform mutating ``node.inputs`` behind the graph's back.
        """
        fresh_users: dict[ValueRef, set[tuple[int, int]]] = {}
        fresh_kinds: dict[OpKind, set[int]] = {}
        for node in self.nodes.values():
            fresh_kinds.setdefault(node.kind, set()).add(node.id)
            for slot, ref in enumerate(node.inputs):
                fresh_users.setdefault(ref, set()).add((node.id, slot))
        if fresh_users != self._users:
            stale = set(self._users) ^ set(fresh_users)
            raise GraphError(
                f"use index out of date (refs {sorted(stale)} differ); "
                f"node.inputs was mutated directly — use "
                f"Graph.set_input/set_inputs")
        if fresh_kinds != self._kind_ids:
            raise GraphError("kind index out of date")
        if recursive:
            for node in self.nodes.values():
                for body in node.bodies:
                    body.check_index(recursive=True)

    # -- pickling -----------------------------------------------------
    #
    # Ships only the node table (the DSE runner sends compiled
    # frontend graphs to worker processes); the index and memoised
    # analyses are rebuilt on arrival, keeping the payload compact.

    def __getstate__(self) -> dict:
        return {"name": self.name, "nodes": self.nodes,
                "next_id": max(self.nodes, default=-1) + 1}

    def __setstate__(self, state: dict) -> None:
        self.name = state["name"]
        self.nodes = state["nodes"]
        self._next_id = state["next_id"]
        self._version = 0
        self._references = {}
        self._rebuild_index()

    # -- construction -------------------------------------------------

    def add(self, kind: OpKind, inputs: Iterable[ValueRef] = (),
            value: Any = None, name: str | None = None,
            bodies: tuple["Graph", ...] = (),
            n_outputs: int | None = None) -> Node:
        """Create a node, wire its inputs, and return it."""
        # The hottest mutation (the unroller splices thousands of
        # nodes per program), so the ref check and the index update
        # are inlined; ``_check_ref`` only words the error.
        nodes = self.nodes
        inputs = list(inputs)
        for ref in inputs:
            producer = nodes.get(ref[0])
            if producer is None or not 0 <= ref[1] < producer.n_outputs:
                self._check_ref(ref)  # raises the precise error
        if n_outputs is None:
            sig = signature(kind)
            n_outputs = len(sig[1]) if sig else 1
        node_id = self._next_id
        self._next_id = node_id + 1
        node = Node(node_id, kind, inputs, value, name, bodies, n_outputs)
        nodes[node_id] = node
        kind_ids = self._kind_ids.get(kind)
        if kind_ids is None:
            kind_ids = self._kind_ids[kind] = set()
        kind_ids.add(node_id)
        users = self._users
        for slot, ref in enumerate(inputs):
            ref_users = users.get(ref)
            if ref_users is None:
                ref_users = users[ref] = set()
            ref_users.add((node_id, slot))
        self._version += 1
        return node

    def const(self, value: int) -> Node:
        """Add a new integer constant node.

        Always creates a node, even when an equal constant exists;
        callers that emit many constants (the unroller) reuse their
        own, and CSE merges whatever duplicates remain."""
        return self.add(OpKind.CONST, value=value)

    def addr(self, address: Address | str, offset: int = 0) -> Node:
        """Add a constant address node."""
        if isinstance(address, str):
            address = Address(address, offset)
        return self.add(OpKind.ADDR, value=address)

    def _check_ref(self, ref: ValueRef) -> None:
        node_id, out_index = ref
        if node_id not in self.nodes:
            raise GraphError(f"reference to unknown node {node_id}")
        producer = self.nodes[node_id]
        if not 0 <= out_index < producer.n_outputs:
            raise GraphError(
                f"node {node_id} ({producer.kind}) has no output "
                f"{out_index}")

    # -- lookup -------------------------------------------------------

    def node(self, node_id: int) -> Node:
        """Return the node with identity *node_id*."""
        return self.nodes[node_id]

    def producer(self, ref: ValueRef) -> Node:
        """The node producing reference *ref*."""
        return self.nodes[ref[0]]

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self) -> Iterator[Node]:
        return iter(list(self.nodes.values()))

    def find(self, kind: OpKind) -> list[Node]:
        """All nodes of the given kind, in id order (O(matches))."""
        return [self.nodes[node_id]
                for node_id in sorted(self._kind_ids.get(kind, ()))]

    def sorted_nodes(self) -> list[Node]:
        """All nodes in ascending id order (deterministic).

        Memoised against :attr:`version`; do not mutate the returned
        list.  The list is a snapshot — iterating it while mutating
        the graph is safe.
        """
        cached = self._sorted_cache
        if cached is not None and cached[0] == self._version:
            return cached[1]
        ordered = [self.nodes[node_id] for node_id in sorted(self.nodes)]
        self._sorted_cache = (self._version, ordered)
        return ordered

    def sole(self, kind: OpKind) -> Node:
        """The unique node of *kind* (GraphError if 0 or >1)."""
        found = self.find(kind)
        if len(found) != 1:
            raise GraphError(
                f"expected exactly one {kind} node, found {len(found)}")
        return found[0]

    def counts(self) -> dict[OpKind, int]:
        """Histogram of node kinds (used by the Fig. 3 experiment)."""
        return {kind: len(ids)
                for kind, ids in self._kind_ids.items() if ids}

    # -- uses ----------------------------------------------------------

    def uses(self) -> UsesView:
        """Map each referenced output to its consumers.

        Returns a live :class:`UsesView`:
        ``view[(producer_id, out_idx)]`` is
        ``[(consumer_id, in_slot), ...]`` in deterministic (id, slot)
        order.  The view always reflects the current graph — callers
        that mutate while iterating no longer need to re-request it.
        """
        return UsesView(self)

    def users_of(self, node_id: int) -> list[Node]:
        """Nodes consuming any output of *node_id* (deduplicated)."""
        node = self.nodes[node_id]
        seen = {consumer_id
                for index in range(node.n_outputs)
                for consumer_id, __ in self._users.get((node_id, index),
                                                       ())}
        return [self.nodes[consumer_id] for consumer_id in sorted(seen)]

    def replace_uses(self, old: ValueRef, new: ValueRef) -> int:
        """Rewire every input reading *old* to read *new*; return count.

        O(number of rewired inputs) via the use index.
        """
        if old == new:
            return 0
        self._check_ref(new)
        users = self._users.pop(old, None)
        if not users:
            return 0
        new_users = self._users.setdefault(new, set())
        for consumer_id, slot in users:
            self.nodes[consumer_id].inputs[slot] = new
            new_users.add((consumer_id, slot))
        self._touch()
        return len(users)

    def set_input(self, node: Node | int, slot: int,
                  ref: ValueRef) -> None:
        """Rewire one input of one node, keeping the index current.

        This is the supported way to mutate ``node.inputs[slot]``.
        """
        if isinstance(node, int):
            node = self.nodes[node]
        self._check_ref(ref)
        old = node.inputs[slot]
        if old == ref:
            return
        self._drop_use(old, node.id, slot)
        node.inputs[slot] = ref
        self._users.setdefault(ref, set()).add((node.id, slot))
        self._touch()

    def set_inputs(self, node: Node | int,
                   refs: Iterable[ValueRef]) -> None:
        """Replace a node's whole input list, keeping the index
        current (the supported way to write ``node.inputs = [...]``)."""
        if isinstance(node, int):
            node = self.nodes[node]
        refs = list(refs)
        for ref in refs:
            self._check_ref(ref)
        for slot, old in enumerate(node.inputs):
            self._drop_use(old, node.id, slot)
        node.inputs = refs
        for slot, ref in enumerate(refs):
            self._users.setdefault(ref, set()).add((node.id, slot))
        self._touch()

    def remove(self, node_id: int) -> None:
        """Remove a node; it must have no remaining users."""
        node = self.nodes[node_id]
        user_ids = sorted({consumer_id
                           for index in range(node.n_outputs)
                           for consumer_id, __ in self._users.get(
                               (node_id, index), ())})
        if user_ids:
            raise GraphError(
                f"cannot remove node {node_id}: still used by "
                f"{user_ids}")
        self._index_removed(node)
        del self.nodes[node_id]

    def remove_dead(self, keep: Iterable[int] = ()) -> int:
        """Remove all nodes not reachable (via inputs) from root nodes.

        Roots are OUTPUT / SS_OUT nodes plus anything listed in *keep*.
        Returns the number of removed nodes.
        """
        roots = set(self._kind_ids.get(OpKind.OUTPUT, ()))
        roots |= set(self._kind_ids.get(OpKind.SS_OUT, ()))
        roots.update(keep)
        live: set[int] = set()
        stack = list(roots)
        while stack:
            node_id = stack.pop()
            if node_id in live:
                continue
            live.add(node_id)
            for ref in self.nodes[node_id].inputs:
                stack.append(ref[0])
        dead = [node_id for node_id in self.nodes if node_id not in live]
        for node_id in dead:
            self._index_removed(self.nodes[node_id])
            del self.nodes[node_id]
        return len(dead)

    # -- ordering -------------------------------------------------------

    def topo_order(self) -> list[Node]:
        """Nodes in dependence order (inputs before users).

        Raises :class:`GraphError` on a cycle.  Ties are broken by node
        id so the order is deterministic: it is the order of Kahn's
        algorithm that always emits the smallest ready id.  Memoised
        against :attr:`version` — repeated calls between mutations are
        O(1); do not mutate the returned list.

        Almost every edge points from a smaller id to a larger one, so
        the ids are scanned in ascending order and each node is
        emitted as soon as it is reached.  A node with a producer not
        yet emitted (a larger id, a deferred node or itself) is
        deferred until its last producer is emitted; the deferred
        nodes it releases all have ids below the scan position, so
        emitting them smallest-first before the scan moves on keeps
        the min-id order without a heap over the whole graph.
        """
        cached = self._topo_cache
        if cached is not None and cached[0] == self._version:
            return cached[1]
        nodes = self.nodes
        ids = sorted(nodes)
        emitted = bytearray(ids[-1] + 1 if ids else 0)
        order: list[Node] = []
        append = order.append
        #: deferred id -> how many of its producers are not emitted
        missing_count: dict[int, int] = {}
        #: producer id -> the deferred nodes waiting on it
        waiting: dict[int, list[int]] = {}
        for node_id in ids:
            node = nodes[node_id]
            missing = None
            for producer_id, __ in node.inputs:
                if producer_id >= node_id or not emitted[producer_id]:
                    if missing is None:
                        missing = {producer_id}
                    else:
                        missing.add(producer_id)
            if missing is not None:
                missing_count[node_id] = len(missing)
                for producer_id in missing:
                    deferred = waiting.get(producer_id)
                    if deferred is None:
                        waiting[producer_id] = [node_id]
                    else:
                        deferred.append(node_id)
                continue
            append(node)
            emitted[node_id] = 1
            if node_id in waiting:
                self._release(node_id, waiting, missing_count, emitted,
                              append)
        if len(order) != len(nodes):
            stuck = [node_id for node_id in ids if not emitted[node_id]]
            raise GraphError(f"cycle through nodes {stuck}")
        self._topo_cache = (self._version, order)
        return order

    def _release(self, node_id: int, waiting: dict[int, list[int]],
                 missing_count: dict[int, int], emitted: bytearray,
                 append: Callable[[Node], None]) -> None:
        """Emit every deferred node that *node_id* (just emitted)
        makes ready, and transitively what those release, always the
        smallest ready id first."""
        ready: list[int] = []
        released = waiting.pop(node_id)
        while True:
            for consumer_id in released:
                missing_count[consumer_id] -= 1
                if missing_count[consumer_id] == 0:
                    heapq.heappush(ready, consumer_id)
            if not ready:
                return
            node_id = heapq.heappop(ready)
            del missing_count[node_id]
            append(self.nodes[node_id])
            emitted[node_id] = 1
            released = waiting.pop(node_id, ())

    def depth(self) -> int:
        """Length (in nodes) of the longest dependence chain."""
        longest: dict[int, int] = {}
        for node in self.topo_order():
            incoming = [longest[ref[0]] for ref in node.inputs]
            longest[node.id] = 1 + (max(incoming) if incoming else 0)
        return max(longest.values(), default=0)

    # -- compound-node helpers ------------------------------------------

    @staticmethod
    def body_inputs(body: "Graph") -> dict[Any, Node]:
        """Map INPUT slot -> node for a compound body graph."""
        return {node.value: node for node in body.find(OpKind.INPUT)}

    @staticmethod
    def body_outputs(body: "Graph") -> dict[Any, Node]:
        """Map OUTPUT slot -> node for a compound body graph."""
        return {node.value: node for node in body.find(OpKind.OUTPUT)}

    # -- copying ----------------------------------------------------------

    @property
    def next_id(self) -> int:
        """The id :meth:`add` gives the next node."""
        return self._next_id

    def clone(self, *, continue_ids: bool = False) -> "Graph":
        """Deep copy (sub-graphs included); node ids are preserved.

        The copy numbers new nodes from one past its highest id; with
        *continue_ids* it numbers them, at every nesting level, from
        this graph's :attr:`next_id`, so the copy grows exactly as
        this graph would have.
        """
        fresh = Graph(self.name)
        fresh._next_id = self._next_id if continue_ids \
            else max(self.nodes, default=-1) + 1
        for node_id, node in self.nodes.items():
            fresh.nodes[node_id] = Node(
                id=node.id, kind=node.kind, inputs=list(node.inputs),
                value=node.value, name=node.name,
                bodies=tuple(body.clone(continue_ids=continue_ids)
                             for body in node.bodies),
                n_outputs=node.n_outputs)
        fresh._rebuild_index()
        return fresh

    def splice(self, other: "Graph",
               substitutions: dict[ValueRef, ValueRef],
               skip: Callable[[Node], bool] | None = None
               ) -> dict[ValueRef, ValueRef]:
        """Copy *other*'s nodes into this graph.

        ``substitutions`` maps references *inside other* (typically its
        INPUT nodes' outputs) to references in *self*; nodes whose
        output is substituted are not copied.  Nodes for which *skip*
        returns True (typically OUTPUT markers) are not copied either.
        Returns the full mapping from other-refs to self-refs.
        """
        mapping: dict[ValueRef, ValueRef] = dict(substitutions)
        for node in other.topo_order():
            if any(node.out(i) in mapping for i in range(node.n_outputs)):
                continue
            if skip is not None and skip(node):
                continue
            copied = self.add(
                kind=node.kind,
                inputs=[mapping[ref] for ref in node.inputs],
                value=node.value, name=node.name,
                bodies=tuple(body.clone() for body in node.bodies),
                n_outputs=node.n_outputs)
            for index in range(node.n_outputs):
                mapping[node.out(index)] = copied.out(index)
        return mapping

    # -- misc ---------------------------------------------------------------

    def stats(self) -> str:
        """One-line summary, e.g. ``"cdfg: 17 nodes (FE:8 *:4 +:3 ST:2)"``."""
        histogram = self.counts()
        parts = " ".join(
            f"{kind}:{count}"
            for kind, count in sorted(histogram.items(),
                                      key=lambda item: str(item[0])))
        return f"{self.name}: {len(self.nodes)} nodes ({parts})"

    def __repr__(self) -> str:
        return f"<Graph {self.name!r} with {len(self.nodes)} nodes>"
