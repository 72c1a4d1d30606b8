"""Declarative design spaces over the mapping flow's free parameters.

A *dimension* is one named axis with an ordered list of candidate
values.  Three kinds of names are legal:

* any field of :class:`repro.arch.params.TileParams` (``n_pps``,
  ``n_buses``, ``mem_read_ports``, ...) — swept architecture
  parameters;
* ``library`` — a stock :class:`repro.arch.templates.TemplateLibrary`
  name (``single-op``, ``two-level``, ``mac``);
* a ``map_graph`` keyword option (``balance``, ``simplify``) —
  swept transform choices;
* an array field (``tiles``, ``topology``, ``hop_latency``,
  ``hop_energy``, ``link_bandwidth``) — the multi-tile axis; any of
  them makes the point run the multi-tile stage
  (:mod:`repro.multitile`) with the corresponding
  :class:`repro.arch.tilearray.TileArrayParams`.

A :class:`DesignPoint` is one frozen assignment; it knows how to
materialise its :class:`TileParams` / library / array and how to
serialise itself to a canonical JSON-able dict (the unit the result
cache hashes).  A :class:`DesignSpace` enumerates points as a full
grid, a seeded random sample, or wraps an explicit point list, and
produces the one-step neighbourhoods the hill-climb strategy walks.

Invariants
----------
* Name and value validation happens at construction: an unknown
  dimension name, a mistyped value, an unknown topology/library or
  an out-of-range array field raises :class:`SpaceError` *before*
  any sweep runs.  :class:`TileParams` *feasibility* (e.g.
  ``n_pps=0``, or combinations the allocator cannot satisfy) is
  deliberately left to evaluation time, where it surfaces as an
  ``{"ok": False}`` record instead of aborting the sweep.
* Point identity is canonical: ``(name, value)`` tuples are sorted,
  so points built from dicts in any order compare, hash and
  serialise identically.
* A point without array dimensions serialises exactly as it did
  before the multi-tile axis existed (no ``array`` key), keeping
  every previously-minted cache key valid.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import random
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro.arch.params import TileParams
from repro.arch.templates import TemplateLibrary
from repro.arch.tilearray import TOPOLOGIES, TileArrayParams

#: TileParams field names that may appear as dimensions.
TILE_FIELDS = tuple(field.name for field in
                    dataclasses.fields(TileParams))

#: ``map_graph`` keyword options that may appear as dimensions.
OPTION_FIELDS = ("balance", "simplify")

#: Array-level dimension names -> the TileArrayParams field each one
#: sets (the multi-tile axis of the design space).
ARRAY_FIELDS = {
    "tiles": "n_tiles",
    "topology": "topology",
    "hop_latency": "hop_latency",
    "hop_energy": "hop_energy",
    "link_bandwidth": "link_bandwidth",
}

#: The dimension selecting the ALU data-path template library.
LIBRARY_FIELD = "library"

DEFAULT_LIBRARY = "two-level"


class SpaceError(ValueError):
    """A dimension name or value the flow cannot realise."""


def _validate_dimension(name: str, values: Sequence) -> tuple:
    # Dedupe preserving order: repeated values would make size/grid
    # overcount and let sample() return "distinct" duplicates.
    values = tuple(dict.fromkeys(values))
    if not values:
        raise SpaceError(f"dimension {name!r} has no values")
    if name == LIBRARY_FIELD:
        stock = TemplateLibrary.stock()
        for value in values:
            if value not in stock:
                raise SpaceError(
                    f"unknown template library {value!r}; stock: "
                    f"{', '.join(sorted(stock))}")
    elif name in OPTION_FIELDS:
        for value in values:
            if not isinstance(value, bool):
                raise SpaceError(
                    f"option dimension {name!r} takes booleans, "
                    f"got {value!r}")
    elif name in TILE_FIELDS:
        # Fail before the sweep, not as N cryptic failure records.
        for value in values:
            is_int = isinstance(value, int) and \
                not isinstance(value, bool)
            if not (is_int or (name == "width" and value is None)):
                raise SpaceError(
                    f"tile dimension {name!r} takes integers, "
                    f"got {value!r}")
    elif name == "topology":
        for value in values:
            if value not in TOPOLOGIES:
                raise SpaceError(
                    f"unknown topology {value!r}; known: "
                    f"{', '.join(TOPOLOGIES)}")
    elif name in ARRAY_FIELDS:
        for value in values:
            is_number = isinstance(value, (int, float)) and \
                not isinstance(value, bool)
            if not is_number or (name != "hop_energy"
                                 and not isinstance(value, int)):
                raise SpaceError(
                    f"array dimension {name!r} takes "
                    f"{'numbers' if name == 'hop_energy' else 'integers'}"
                    f", got {value!r}")
            # Range-check up front: an out-of-range array value would
            # otherwise fail every point of the sweep one by one.
            if name == "hop_energy":
                if value < 0:
                    raise SpaceError(
                        f"array dimension 'hop_energy' must be >= 0, "
                        f"got {value!r}")
            elif value < 1:
                raise SpaceError(
                    f"array dimension {name!r} must be >= 1, "
                    f"got {value!r}")
    else:
        raise SpaceError(
            f"unknown dimension {name!r}; legal: TileParams fields "
            f"({', '.join(TILE_FIELDS)}), {LIBRARY_FIELD!r}, "
            f"options ({', '.join(OPTION_FIELDS)}), array fields "
            f"({', '.join(ARRAY_FIELDS)})")
    return values


@dataclass(frozen=True)
class DesignPoint:
    """One frozen configuration of the whole mapping flow.

    ``tile`` and ``options`` are sorted ``(name, value)`` tuples so
    points are hashable, order-insensitive and stable under
    serialisation round-trips.
    """

    tile: tuple = ()
    library: str = DEFAULT_LIBRARY
    options: tuple = ()
    #: Array-level dimensions (``tiles``, ``topology``, ...); empty
    #: means the pure single-tile flow (and an unchanged cache key).
    array: tuple = ()

    @classmethod
    def make(cls, tile: Mapping | None = None,
             library: str = DEFAULT_LIBRARY,
             options: Mapping | None = None,
             array: Mapping | None = None) -> "DesignPoint":
        """Build a point from plain dicts, validating every name."""
        tile = dict(tile or {})
        options = dict(options or {})
        array = dict(array or {})
        for name in tile:
            if name not in TILE_FIELDS:
                raise SpaceError(f"unknown TileParams field {name!r}")
        for name, value in options.items():
            if name not in OPTION_FIELDS:
                raise SpaceError(f"unknown map_graph option {name!r}")
            _validate_dimension(name, [value])
        for name, value in array.items():
            if name not in ARRAY_FIELDS:
                raise SpaceError(f"unknown array field {name!r}")
            _validate_dimension(name, [value])
        _validate_dimension(LIBRARY_FIELD, [library])
        return cls(tile=tuple(sorted(tile.items())), library=library,
                   options=tuple(sorted(options.items())),
                   array=tuple(sorted(array.items())))

    @classmethod
    def from_assignment(cls, assignment: Mapping) -> "DesignPoint":
        """Build a point from one flat dimension-name -> value dict."""
        tile, options, array = {}, {}, {}
        library = DEFAULT_LIBRARY
        for name, value in assignment.items():
            if name == LIBRARY_FIELD:
                library = value
            elif name in OPTION_FIELDS:
                options[name] = value
            elif name in ARRAY_FIELDS:
                array[name] = value
            else:
                tile[name] = value
        return cls.make(tile, library, options, array)

    # -- materialisation ----------------------------------------------

    def tile_dict(self) -> dict:
        return dict(self.tile)

    def options_dict(self) -> dict:
        return dict(self.options)

    def array_dict(self) -> dict:
        return dict(self.array)

    def tile_params(self) -> TileParams:
        """The :class:`TileParams` this point configures (validates)."""
        return TileParams(**self.tile_dict())

    def tile_array_params(self) -> TileArrayParams | None:
        """The :class:`TileArrayParams` this point configures, or
        ``None`` when the point has no array dimensions (pure
        single-tile flow — the multi-tile stage is skipped)."""
        if not self.array:
            return None
        return TileArrayParams(**{ARRAY_FIELDS[name]: value
                                  for name, value in self.array})

    def template_library(self) -> TemplateLibrary:
        return TemplateLibrary.stock()[self.library]

    def assignment(self) -> dict:
        """The flat dimension-name -> value view of this point."""
        flat = self.tile_dict()
        flat[LIBRARY_FIELD] = self.library
        flat.update(self.options_dict())
        flat.update(self.array_dict())
        return flat

    # -- identity -----------------------------------------------------

    def to_dict(self) -> dict:
        # The "array" key is omitted when empty so the canonical
        # identity (and thus every existing cache key) of a pure
        # single-tile point is byte-for-byte what it was before the
        # multi-tile axis existed.
        payload = {"tile": self.tile_dict(), "library": self.library,
                   "options": self.options_dict()}
        if self.array:
            payload["array"] = self.array_dict()
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "DesignPoint":
        return cls.make(payload.get("tile"),
                        payload.get("library", DEFAULT_LIBRARY),
                        payload.get("options"),
                        payload.get("array"))

    def key(self) -> str:
        """Canonical JSON identity (the cache hashes this + source)."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    def label(self) -> str:
        """Short human-readable identity for tables and logs."""
        parts = [f"{name}={value}" for name, value in self.tile]
        parts.append(f"lib={self.library}")
        parts.extend(f"{name}={value}" for name, value in self.options)
        parts.extend(f"{name}={value}" for name, value in self.array)
        return " ".join(parts)

    def with_(self, **changes) -> "DesignPoint":
        """A copy with the given flat dimension values replaced."""
        flat = self.assignment()
        flat.update(changes)
        return self.from_assignment(flat)


def allowed_objectives(space: "DesignSpace") -> set[str]:
    """Objective names resolvable on *space*'s sweep records.

    Always: every mapping metric plus the ``resource`` proxy.  Tile
    fields only when the space sweeps them (records carry swept
    dimensions in their config); multi-tile metrics and numeric array
    fields only when the space has an array dimension (``topology``
    is categorical — it cannot be minimised).  ``fpfa-map explore``
    validates objectives against this rule before a sweep runs.
    """
    # Local import: eval.metrics sits above the core pipeline and
    # must stay importable without repro.dse.
    from repro.eval.metrics import (
        METRIC_FIELDS,
        MULTITILE_METRIC_FIELDS,
    )
    allowed = (set(METRIC_FIELDS) | {"resource"} |
               (set(space.names) & set(TILE_FIELDS)))
    if set(space.names) & set(ARRAY_FIELDS):
        allowed |= set(MULTITILE_METRIC_FIELDS) | \
            ((set(space.names) & set(ARRAY_FIELDS)) - {"topology"})
    return allowed


class DesignSpace:
    """An ordered set of dimensions spanning a point grid."""

    def __init__(self, dimensions: Mapping[str, Sequence]):
        if not dimensions:
            raise SpaceError("a design space needs >= 1 dimension")
        self.dimensions: dict[str, tuple] = {
            name: _validate_dimension(name, values)
            for name, values in dimensions.items()}

    # -- shape --------------------------------------------------------

    @property
    def names(self) -> list[str]:
        return list(self.dimensions)

    @property
    def size(self) -> int:
        """Number of points in the full grid."""
        total = 1
        for values in self.dimensions.values():
            total *= len(values)
        return total

    def describe(self) -> str:
        lines = [f"design space: {self.size} points, "
                 f"{len(self.dimensions)} dimensions"]
        for name, values in self.dimensions.items():
            lines.append(f"  {name}: {list(values)}")
        return "\n".join(lines)

    # -- enumeration --------------------------------------------------

    def grid(self) -> list[DesignPoint]:
        """Every point of the full cartesian grid, row-major order."""
        names = self.names
        return [DesignPoint.from_assignment(dict(zip(names, combo)))
                for combo in itertools.product(
                    *self.dimensions.values())]

    def sample(self, n: int, seed: int = 0) -> list[DesignPoint]:
        """*n* distinct points drawn uniformly without replacement
        (the whole grid when ``n >= size``), deterministic in *seed*."""
        if n >= self.size:
            return self.grid()
        rng = random.Random(seed)
        names = self.names
        axes = [self.dimensions[name] for name in names]
        chosen: set[tuple] = set()
        points = []
        # Index-space rejection sampling: cheap because n < size.
        while len(points) < n:
            combo = tuple(rng.randrange(len(axis)) for axis in axes)
            if combo in chosen:
                continue
            chosen.add(combo)
            points.append(DesignPoint.from_assignment(
                {name: axis[index]
                 for name, axis, index in zip(names, axes, combo)}))
        return points

    @staticmethod
    def explicit(points: Iterable) -> list[DesignPoint]:
        """Normalise an explicit point list: accepts
        :class:`DesignPoint` instances, flat assignment dicts, or
        ``to_dict``-style nested dicts."""
        normalised = []
        for point in points:
            if isinstance(point, DesignPoint):
                normalised.append(point)
            elif isinstance(point, Mapping) and (
                    "tile" in point or "options" in point):
                normalised.append(DesignPoint.from_dict(point))
            elif isinstance(point, Mapping):
                normalised.append(DesignPoint.from_assignment(point))
            else:
                raise SpaceError(f"cannot interpret point {point!r}")
        return normalised

    # -- neighbourhoods (hill-climb) ----------------------------------

    def neighbours(self, point: DesignPoint) -> list[DesignPoint]:
        """All points one step away along one dimension (adjacent
        values in that dimension's ordered list)."""
        flat = point.assignment()
        result = []
        for name, values in self.dimensions.items():
            current = flat.get(name)
            if current not in values:
                # Point sits off this axis — every value is a step.
                candidates = values
            else:
                index = values.index(current)
                candidates = values[max(0, index - 1):index + 2]
            for value in candidates:
                if value != current:
                    result.append(point.with_(**{name: value}))
        return result

    def random_point(self, seed: int = 0) -> DesignPoint:
        rng = random.Random(seed)
        return DesignPoint.from_assignment(
            {name: rng.choice(values)
             for name, values in self.dimensions.items()})

    # -- stock spaces -------------------------------------------------

    @classmethod
    def default(cls) -> "DesignSpace":
        """The architecture sweep the examples and CLI default to:
        PP count x crossbar width x template library (120 points)."""
        return cls({
            "n_pps": [1, 2, 3, 4, 5, 6, 7, 8],
            "n_buses": [2, 4, 6, 8, 10],
            "library": sorted(TemplateLibrary.stock()),
        })
