"""Dependency analysis over the statespace thread.

The builder serialises all memory traffic through a single chain of
state versions.  This pass — the *dependency analysis* the paper lists
first among its transformations — relaxes that chain using address
disambiguation, which is what lets every fetch of the minimised FIR
graph hang directly off ``ss_in`` (paper Fig. 3):

* **fetch hoisting** — a ``FE`` is moved above any ``ST``/``DEL``
  whose address provably differs, landing on the earliest state
  version that can have produced its value;
* **store-to-load forwarding** — a ``FE`` reading exactly the address
  a dominating ``ST`` wrote is replaced by the stored value (and a
  fetch after a ``DEL`` of its address yields the totalised 0);
* **overwritten-store elimination** — a ``ST``/``DEL`` whose only
  observer is a later ``ST``/``DEL`` to provably the same address is
  bypassed and dies.

Address disambiguation: two constant addresses alias iff equal; any
address is rooted in a base array/scalar name, so addresses with
different base names never alias; a dynamic offset into the same base
may alias anything in that base.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

from repro.cdfg.graph import Graph, Node, ValueRef
from repro.cdfg.ops import Address, OpKind
from repro.transforms.base import Transform


@dataclass(frozen=True)
class ResolvedAddress:
    """What static analysis knows about an address reference."""

    base: str | None           # base name, None if unknown
    offset: int | None = None  # constant offset, None if dynamic

    @property
    def is_const(self) -> bool:
        return self.base is not None and self.offset is not None


def resolve_address(graph: Graph, ref: ValueRef) -> ResolvedAddress:
    """Statically resolve an address reference as far as possible."""
    node = graph.producer(ref)
    if node.kind is OpKind.ADDR:
        address: Address = node.value
        return ResolvedAddress(address.name, address.offset)
    if node.kind is OpKind.ADDR_ADD:
        base = resolve_address(graph, node.inputs[0])
        return ResolvedAddress(base.base, None)
    return ResolvedAddress(None, None)


def may_alias(first: ResolvedAddress, second: ResolvedAddress) -> bool:
    """Conservative: True unless the addresses provably differ."""
    if first.base is None or second.base is None:
        return True
    if first.base != second.base:
        return False
    if first.offset is None or second.offset is None:
        return True
    return first.offset == second.offset


def definitely_same(first: ResolvedAddress,
                    second: ResolvedAddress) -> bool:
    """True only when both addresses are fully constant and equal."""
    return (first.is_const and second.is_const
            and first.base == second.base
            and first.offset == second.offset)


_WRITERS = (OpKind.ST, OpKind.DEL)


class DependencyAnalysis(Transform):
    """Relax the statespace thread via address disambiguation."""

    def run_on(self, graph: Graph) -> int:
        #: address ref -> its resolution.  This pass rewires only
        #: state and value inputs, never an address port, and node ids
        #: are never reused, so a resolution holds for the whole run.
        self._resolved: dict[ValueRef, ResolvedAddress] = {}
        changes = self._hoist_and_forward(graph)
        changes += self._kill_overwritten(graph)
        return changes

    def _resolve(self, graph: Graph, ref: ValueRef) -> ResolvedAddress:
        resolved = self._resolved.get(ref)
        if resolved is None:
            resolved = self._resolved[ref] = resolve_address(graph, ref)
        return resolved

    # -- fetch hoisting / forwarding -----------------------------------

    def _hoist_and_forward(self, graph: Graph) -> int:
        #: base -> {state version -> the nearest version at or above
        #: it not written by a writer with a known base other than
        #: *base*}.  Hoisting and forwarding rewire only fetch inputs
        #: and the uses of fetch outputs.  A fetch yields data: it
        #: never feeds a state port, and at most an address's offset,
        #: which leaves its base unresolved either way.  So the writer
        #: chain and every writer's base, and with them every entry,
        #: hold for the whole walk.
        self._skips: dict[str, dict[ValueRef, ValueRef]] = {}
        changes = 0
        nodes = graph.nodes
        for fetch in graph.find(OpKind.FE):
            if fetch.id in nodes:
                changes += self._process_fetch(graph, fetch)
        return changes

    def _skip_other_bases(self, graph: Graph, state_ref: ValueRef,
                          base: str) -> ValueRef:
        """Step *state_ref* over every writer whose address has a known
        base other than *base* (none of them can alias a fetch from
        *base*), compressing the path it walks."""
        skips = self._skips.get(base)
        if skips is None:
            skips = self._skips[base] = {}
        nodes = graph.nodes
        walked = []
        ref = state_ref
        while True:
            target = skips.get(ref)
            if target is not None:
                ref = target
                break
            writer = nodes[ref[0]]
            if writer.kind not in _WRITERS:
                break
            writer_base = self._resolve(graph, writer.inputs[1]).base
            if writer_base is None or writer_base == base:
                break
            walked.append(ref)
            ref = writer.inputs[0]
        for step in walked:
            skips[step] = ref
        skips[ref] = ref
        return ref

    def _process_fetch(self, graph: Graph, fetch: Node) -> int:
        address = self._resolve(graph, fetch.inputs[1])
        state_ref = fetch.inputs[0]
        while True:
            if address.base is not None:
                state_ref = self._skip_other_bases(graph, state_ref,
                                                   address.base)
            producer = graph.producer(state_ref)
            if producer.kind not in _WRITERS:
                break
            writer_address = self._resolve(graph, producer.inputs[1])
            if definitely_same(address, writer_address):
                if producer.kind is OpKind.ST:
                    # Forward the stored value.
                    graph.replace_uses(fetch.out(), producer.inputs[2])
                else:
                    # Fetch after DEL of the same address: totalised 0.
                    graph.replace_uses(fetch.out(), graph.const(0).out())
                graph.remove(fetch.id)
                return 1
            if may_alias(address, writer_address):
                break
            state_ref = producer.inputs[0]
        if state_ref != fetch.inputs[0]:
            graph.set_input(fetch, 0, state_ref)
            return 1
        return 0

    # -- overwritten stores ---------------------------------------------

    def _kill_overwritten(self, graph: Graph) -> int:
        changes = 0
        uses = graph.uses()  # live view: always current, no recompute
        writers = sorted(graph.find(OpKind.ST) + graph.find(OpKind.DEL),
                         key=attrgetter("id"))
        for node in writers:
            consumers = uses.get(node.out(), [])
            if len(consumers) != 1:
                continue
            consumer_id, slot = consumers[0]
            consumer = graph.node(consumer_id)
            if consumer.kind not in _WRITERS or slot != 0:
                continue
            if not definitely_same(self._resolve(graph, node.inputs[1]),
                                   self._resolve(graph,
                                                 consumer.inputs[1])):
                continue
            # The write is observed by nobody and then overwritten.
            graph.set_input(consumer, 0, node.inputs[0])
            changes += 1
        return changes
