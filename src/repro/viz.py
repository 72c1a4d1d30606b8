"""Visualisation helpers: schedules, programs and cluster graphs.

Text renderings for terminals (ASCII Gantt charts of the per-cycle
program, level maps in the style of paper Fig. 4) and Graphviz DOT for
cluster graphs, complementing :func:`repro.cdfg.dot.to_dot` for CDFGs.
"""

from __future__ import annotations

from repro.arch.control import MemLoc, RegLoc, TileProgram
from repro.core.clustering import ClusterGraph
from repro.core.scheduling import Schedule


def schedule_gantt(schedule: Schedule, n_pps: int = 5) -> str:
    """ASCII map: one row per ALU, one column per level.

    ::

        PP0 | Clu1  Clu6  Clu9  Clu10
        PP1 | Clu2  Clu8  .     .
        ...
    """
    if not schedule.levels:
        return "(empty schedule)"
    cells: dict[tuple[int, int], str] = {}
    for level_index, level in enumerate(schedule.levels):
        for item in level:
            cells[(item.pp, level_index)] = f"Clu{item.cluster.id}"
    width = max((len(text) for text in cells.values()), default=3)
    lines = []
    header = "      " + " ".join(f"L{index}".ljust(width)
                                 for index in range(schedule.n_levels))
    lines.append(header)
    for pp in range(n_pps):
        row = [cells.get((pp, level), ".").ljust(width)
               for level in range(schedule.n_levels)]
        lines.append(f"PP{pp} | " + " ".join(row))
    return "\n".join(lines)


def program_gantt(program: TileProgram) -> str:
    """ASCII occupancy chart of a tile program.

    One row per PP plus a crossbar row; columns are cycles.  ``#``
    marks an ALU executing, ``s`` a stall-cycle slot, digits count the
    moves on the crossbar.
    """
    if not program.cycles:
        return "(empty program)"
    n_pps = program.params.n_pps
    lines = []
    header = "       " + "".join(str(index % 10)
                                 for index in range(program.n_cycles))
    lines.append(header + "   (cycle mod 10)")
    for pp in range(n_pps):
        row = []
        for cycle in program.cycles:
            if any(config.pp == pp for config in cycle.alu_configs):
                row.append("#")
            elif cycle.is_stall:
                row.append("s")
            else:
                row.append(".")
        lines.append(f"PP{pp}  | " + "".join(row))
    bus_row = []
    for cycle in program.cycles:
        buses = cycle.n_bus_values
        bus_row.append(str(min(buses, 9)) if buses else ".")
    lines.append("xbar | " + "".join(bus_row))
    lines.append(f"\n#=ALU busy  s=inserted load cycle  "
                 f"digits=crossbar values/cycle "
                 f"(of {program.params.n_buses})")
    return "\n".join(lines)


def register_pressure(program: TileProgram) -> dict[tuple[int, int], int]:
    """Peak registers simultaneously holding live values per bank.

    A register is live from its writing cycle until its last read.
    """
    writes: dict[RegLoc, list[int]] = {}
    reads: dict[RegLoc, list[int]] = {}
    for index, cycle in enumerate(program.cycles):
        for move in cycle.moves:
            if isinstance(move.dest, RegLoc):
                writes.setdefault(move.dest, []).append(index)
        for config in cycle.alu_configs:
            for loc in config.operands:
                reads.setdefault(loc, []).append(index)
            for dest in config.dests:
                if isinstance(dest, RegLoc):
                    writes.setdefault(dest, []).append(index)
    intervals: dict[RegLoc, list[tuple[int, int]]] = {}
    for loc, write_cycles in writes.items():
        read_cycles = sorted(reads.get(loc, []))
        for write in sorted(write_cycles):
            last = max((r for r in read_cycles if r >= write),
                       default=write)
            intervals.setdefault(loc, []).append((write, last))
    peak: dict[tuple[int, int], int] = {}
    for cycle_index in range(program.n_cycles):
        per_bank: dict[tuple[int, int], set[int]] = {}
        for loc, spans in intervals.items():
            if any(start <= cycle_index <= end for start, end in spans):
                per_bank.setdefault((loc.pp, loc.bank),
                                    set()).add(loc.slot)
        for bank, slots in per_bank.items():
            peak[bank] = max(peak.get(bank, 0), len(slots))
    return peak


def cluster_graph_dot(clustered: ClusterGraph,
                      schedule: Schedule | None = None) -> str:
    """Graphviz DOT of a cluster graph, Fig. 4 style.

    With a schedule, clusters are ranked by level (one subgraph rank
    per level, like the paper's level rows).
    """
    lines = ["digraph clusters {", "rankdir=TB",
             'node [shape=box style=rounded fontname="Helvetica"]']
    for cluster in clustered.clusters.values():
        ops = "/".join(str(op) for op in cluster.ops)
        label = f"Clu{cluster.id}\\n{ops}"
        lines.append(f'c{cluster.id} [label="{label}"]')
    predecessors = clustered.predecessors()
    for cluster_id, preds in sorted(predecessors.items()):
        for pred in sorted(preds):
            lines.append(f"c{pred} -> c{cluster_id}")
    if schedule is not None:
        for level_index, level in enumerate(schedule.levels):
            members = " ".join(f"c{item.cluster.id}" for item in level)
            lines.append(f"{{ rank=same {members} }}  "
                         f"// Level{level_index}")
    lines.append("}")
    return "\n".join(lines)


def memory_map(program: TileProgram) -> str:
    """Where the data lives: inputs and outputs per memory."""
    per_memory: dict[tuple[int, int], list[str]] = {}
    for address, loc in sorted(program.data_layout.items()):
        per_memory.setdefault((loc.pp, loc.mem), []).append(
            f"{address} (in)")
    for address, loc in sorted(program.output_layout.items()):
        per_memory.setdefault((loc.pp, loc.mem), []).append(
            f"{address} (out)")
    lines = []
    for (pp, mem), entries in sorted(per_memory.items()):
        lines.append(f"PP{pp}.MEM{mem + 1}: " + ", ".join(entries))
    return "\n".join(lines) or "(no data placed)"
