"""Architecture parameters of an FPFA tile *array*.

The paper maps applications onto a single tile, but the FPFA itself
is "a reconfigurable array of processor tiles" (§II).  This module
models the array-level architecture the multi-tile mapping stage
(:mod:`repro.multitile`) targets: how many tiles there are, how they
are interconnected, and what an inter-tile word transfer costs.

Three interconnect topologies are supported:

* ``crossbar`` — a full array-level crossbar: every tile pair is one
  hop apart (the most generous model, mirroring the intra-tile
  crossbar one level up);
* ``ring`` — tiles on a bidirectional ring; the hop count is the
  shorter ring distance;
* ``mesh`` — tiles on a near-square 2D grid with XY (dimension-order)
  routing; the hop count is the Manhattan distance.

A transfer of one word over ``h`` hops occupies one link per hop for
``hop_latency`` consecutive scheduling steps each and costs
``h * hop_energy`` energy units on top of the intra-tile costs of
:class:`repro.arch.energy.EnergyModel`.  ``link_bandwidth`` limits how
many words one directed link can accept per step.

Invariants
----------
* ``n_tiles == 1`` degenerates to the paper's single tile: there are
  no links, every route is empty, and the multi-tile flow must be
  observationally identical to the single-tile flow.
* ``route(a, b)`` is deterministic and loop-free, and
  ``len(route(a, b)) == hop_distance(a, b)`` for every tile pair.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

#: Interconnect topologies the array model understands.
TOPOLOGIES = ("crossbar", "ring", "mesh")


@dataclass(frozen=True)
class TileArrayParams:
    """Array-level architecture constants (tile count + interconnect)."""

    #: Number of FPFA tiles in the array.
    n_tiles: int = 1
    #: Interconnect topology: ``crossbar``, ``ring`` or ``mesh``.
    topology: str = "crossbar"
    #: Scheduling steps one word needs to traverse one link.
    hop_latency: int = 1
    #: Energy units one word costs per hop (on top of the intra-tile
    #: access costs; compare ``EnergyModel.bus_transfer == 3``).
    hop_energy: float = 6.0
    #: Words one directed link can accept per scheduling step.
    link_bandwidth: int = 1

    def __post_init__(self):
        if self.n_tiles < 1:
            raise ValueError(
                f"n_tiles must be >= 1, got {self.n_tiles}")
        if self.topology not in TOPOLOGIES:
            raise ValueError(
                f"unknown topology {self.topology!r}; known: "
                f"{', '.join(TOPOLOGIES)}")
        if self.hop_latency < 1:
            raise ValueError(
                f"hop_latency must be >= 1, got {self.hop_latency}")
        if self.hop_energy < 0:
            raise ValueError(
                f"hop_energy must be >= 0, got {self.hop_energy}")
        if self.link_bandwidth < 1:
            raise ValueError(
                f"link_bandwidth must be >= 1, got "
                f"{self.link_bandwidth}")

    # -- geometry -----------------------------------------------------

    @property
    def mesh_shape(self) -> tuple[int, int]:
        """(columns, rows) of the near-square grid a mesh uses.

        Columns is ``ceil(sqrt(n_tiles))``; the last row may be
        partially filled.
        """
        columns = 1
        while columns * columns < self.n_tiles:
            columns += 1
        rows = -(-self.n_tiles // columns)
        return columns, rows

    def _mesh_coords(self, tile: int) -> tuple[int, int]:
        columns, _ = self.mesh_shape
        return tile % columns, tile // columns

    def _check_tile(self, tile: int) -> None:
        if not 0 <= tile < self.n_tiles:
            raise ValueError(
                f"tile index {tile} out of range 0..{self.n_tiles - 1}")

    def hop_distance(self, src: int, dst: int) -> int:
        """Link hops one word needs from tile *src* to tile *dst*."""
        self._check_tile(src)
        self._check_tile(dst)
        if src == dst:
            return 0
        if self.topology == "crossbar":
            return 1
        if self.topology == "ring":
            around = abs(src - dst)
            return min(around, self.n_tiles - around)
        x0, y0 = self._mesh_coords(src)
        x1, y1 = self._mesh_coords(dst)
        return abs(x0 - x1) + abs(y0 - y1)

    def route(self, src: int, dst: int) -> list[tuple[int, int]]:
        """The directed links a word crosses from *src* to *dst*.

        Deterministic: crossbar is the direct link, a ring takes the
        shorter direction (ties go clockwise), a mesh routes X first,
        then Y (XY routing), detouring through Y early only when the
        X-first step would leave the partially-filled last grid row.
        Every tile on the route exists.  Empty when ``src == dst``.
        """
        self._check_tile(src)
        self._check_tile(dst)
        if src == dst:
            return []
        if self.topology == "crossbar":
            return [(src, dst)]
        if self.topology == "ring":
            forward = (dst - src) % self.n_tiles
            step = 1 if forward <= self.n_tiles - forward else -1
            links = []
            here = src
            while here != dst:
                nxt = (here + step) % self.n_tiles
                links.append((here, nxt))
                here = nxt
            return links
        # mesh, XY routing over a possibly partial last row: prefer
        # the X step, fall back to the Y step when the X neighbour
        # does not exist (only possible from the partial last row,
        # where the Y step towards dst is guaranteed to exist).
        columns, _ = self.mesh_shape
        x0, y0 = self._mesh_coords(src)
        x1, y1 = self._mesh_coords(dst)

        def exists(x: int, y: int) -> bool:
            return 0 <= x < columns and y * columns + x < self.n_tiles

        links = []
        here = src
        while (x0, y0) != (x1, y1):
            step_x = x0 + (1 if x1 > x0 else -1)
            if x0 != x1 and exists(step_x, y0):
                x0 = step_x
            else:
                y0 += 1 if y1 > y0 else -1
            nxt = y0 * columns + x0
            assert exists(x0, y0), (src, dst, x0, y0)
            links.append((here, nxt))
            here = nxt
        return links

    # -- derived ------------------------------------------------------

    def transfer_energy(self, src: int, dst: int) -> float:
        """Energy units one word costs from *src* to *dst*."""
        return self.hop_distance(src, dst) * self.hop_energy

    def with_(self, **changes) -> "TileArrayParams":
        """A copy with the given fields replaced."""
        return replace(self, **changes)

    def describe(self) -> str:
        """One-line inventory for reports and the CLI."""
        if self.n_tiles == 1:
            return "tile array: 1 tile (single-tile flow)"
        shape = ""
        if self.topology == "mesh":
            columns, rows = self.mesh_shape
            shape = f" ({columns}x{rows})"
        return (f"tile array: {self.n_tiles} tiles, "
                f"{self.topology}{shape} interconnect, "
                f"{self.hop_latency} step(s)/hop, "
                f"{self.hop_energy:g} energy/hop, "
                f"{self.link_bandwidth} word(s)/link/step")


#: A single tile — the degenerate array the paper's flow targets.
SINGLE_TILE = TileArrayParams()
