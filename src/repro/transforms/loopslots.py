"""Loop slot pruning: drop dead loop-carried values.

The builder conservatively carries every scalar a loop touches.  A
carried slot is *dead* when

* the LOOP node's output for the slot has no users in the parent
  graph, **and**
* the slot's next-value computation feeds nothing else inside the
  body (i.e. removing the slot's OUTPUT leaves its defining cone dead
  unless shared with live slots — sharing is handled naturally by the
  body-level DCE that runs afterwards).

Dropping the slot removes the body OUTPUT, the matching INPUT (if its
only remaining users were the dead cone) and narrows the LOOP node's
interface.  This keeps unrollable loops small and, for residual
(non-static) loops, stops dead recurrences from inflating the body.

Example: ``for (i = 0; i < n; i++) { dead = dead + x[i]; s = s + 1; }``
with ``dead`` never read after the loop — the whole ``dead``
accumulation disappears.

Invariants
----------
* Slot liveness is a **fixpoint**: a slot whose only consumers are
  the next-value cones of other *dead* slots is itself dead, so
  liveness is propagated until stable before anything is removed
  (mutually-recurrent dead slots, e.g. two accumulators feeding each
  other, are pruned together; seeding from external users alone
  would miss them).
* Pruning never changes the observable statespace: only values
  provably unread outside the loop are dropped.
"""

from __future__ import annotations

from repro.cdfg.graph import COND_SLOT, Graph, Node
from repro.cdfg.ops import OpKind
from repro.transforms.base import Transform


class PruneLoopSlots(Transform):
    """Remove loop-carried slots whose final value is never used."""

    def run_on(self, graph: Graph) -> int:
        changes = 0
        uses = graph.uses()  # live view: stays current across prunes
        for loop in graph.find(OpKind.LOOP):
            if loop.id in graph.nodes:
                changes += self._prune(graph, loop, uses)
        return changes

    def _prune(self, graph: Graph, loop: Node, uses) -> int:
        names = list(loop.value)
        body = loop.bodies[0]
        dead_slots = self._dead_slots(graph, loop, names, body, uses)
        if not dead_slots:
            return 0
        keep = [index for index, name in enumerate(names)
                if name not in dead_slots]
        if not keep:
            # Never prune a loop to nothing: a (possibly diverging)
            # loop with no observable values is still a loop.
            return 0
        # Rewire surviving outputs onto a narrowed loop node.  Output
        # indices shift, so a fresh node replaces the old one.
        fresh = graph.add(
            OpKind.LOOP,
            inputs=[loop.inputs[index] for index in keep],
            value=tuple(names[index] for index in keep),
            bodies=(body,), n_outputs=len(keep), name=loop.name)
        for new_index, old_index in enumerate(keep):
            graph.replace_uses(loop.out(old_index),
                               fresh.out(new_index))
        graph.remove(loop.id)
        # Drop the dead OUTPUT markers; the cone they kept alive goes
        # with the body-level dead-code sweep.
        for output in body.find(OpKind.OUTPUT):
            if output.value in dead_slots:
                body.remove(output.id)
        body.remove_dead(keep=[n.id for n in body.find(OpKind.INPUT)])
        # INPUT markers for pruned slots must disappear too (their
        # slot names are no longer carried).
        for node_in in body.find(OpKind.INPUT):
            if node_in.value in dead_slots and not body.users_of(
                    node_in.id):
                body.remove(node_in.id)
        return 1

    def _dead_slots(self, graph: Graph, loop: Node, names: list,
                    body: Graph, uses) -> set:
        """Slots whose loop output is unused and whose removal cannot
        change the surviving outputs or the condition.

        Liveness is a fixpoint: a slot kept alive (used output, or its
        INPUT marker read by a live cone) keeps its own next-value
        OUTPUT in the body, whose cone may read further INPUT markers
        — e.g. a store chain reading ``g2`` whose recurrence reads
        ``g1`` must keep both carried, even though neither loop output
        has parent users.
        """
        outputs = Graph.body_outputs(body)
        unused = {name for index, name in enumerate(names)
                  if not uses.get(loop.out(index))}
        if not unused:
            return set()
        inputs_by_slot = Graph.body_inputs(body)
        live_slots = set(names) - unused
        while True:
            live_roots = ([outputs[COND_SLOT]]
                          if COND_SLOT in outputs else [])
            live_roots += [outputs[name] for name in names
                           if name in live_slots and name in outputs]
            reachable: set[int] = set()
            stack = [root.id for root in live_roots]
            while stack:
                node_id = stack.pop()
                if node_id in reachable:
                    continue
                reachable.add(node_id)
                for ref in body.node(node_id).inputs:
                    stack.append(ref[0])
            newly_live = set()
            for name in unused - live_slots:
                marker = inputs_by_slot.get(name)
                if marker is not None and marker.id in reachable:
                    newly_live.add(name)  # a live computation reads it
            if not newly_live:
                return unused - live_slots
            live_slots |= newly_live
