"""Integer-indexed resource tables for the phase-3 allocator.

One table per resource the paper names in §VI-C, indexed by a cycle,
by ``cycle * width + unit`` (a unit's per-cycle ports) or by a unit,
where unit ``pp * n + k`` is memory or register bank *k* of PP *pp*.
``can_add(index, item)`` returns None or the refusing resource's name;
``add`` books.  The allocator plans each level once, so no booking is
ever taken back.  Per-cycle tables only grow.
"""

from __future__ import annotations

#: Refusals.  ``LATENCY`` has no table: the value is readable too late
#: for any staging cycle before its consumer.
BUS = "bus"
READ_PORT = "read_port"
BANK_PORT = "bank_port"
REGISTER = "register"
WRITE_PORT = "write_port"
MEMORY_WORDS = "memory_words"
LATENCY = "latency"


class SetTable:
    """Rows of at most ``capacity`` distinct items; None is an empty
    row.  A *shared* row carries an item it holds for free (a bus or
    read port serving one value twice); otherwise a repeat is refused
    (a word written twice in one cycle)."""

    __slots__ = ("name", "capacity", "width", "shared", "rows")
    EMPTY = None

    def __init__(self, name: str, capacity: int, width: int, *,
                 shared: bool = True):
        self.name = name
        self.capacity = capacity
        self.width = width
        self.shared = shared
        self.rows: list = []

    def grow(self, n: int) -> None:  # rows for cycles [0, n)
        missing = n * self.width - len(self.rows)
        if missing > 0:
            self.rows.extend([self.EMPTY] * missing)

    def can_add(self, index: int, item) -> str | None:
        row = self.rows[index]
        if row is None:
            return None
        if item in row:
            return None if self.shared else self.name
        return None if len(row) < self.capacity else self.name

    def add(self, index: int, item) -> None:
        row = self.rows[index]
        if row is None:
            self.rows[index] = {item}
        else:
            row.add(item)


class CountTable(SetTable):
    """Rows of booking counts: a register bank's write ports, whose
    writes always go to distinct registers."""

    __slots__ = ()
    EMPTY = 0

    def can_add(self, index: int, item=None) -> str | None:
        return None if self.rows[index] < self.capacity else self.name

    def add(self, index: int, item=None) -> None:
        self.rows[index] += 1


class RegisterTable:
    """Register slots, ``size`` per bank unit: slot ``unit * size + s``
    holds value id ``values[i]``, written in cycle ``written[i]`` and
    kept until cycle ``busy[i]`` (-1: never)."""

    __slots__ = ("size", "values", "written", "busy")

    def __init__(self, n_units: int, size: int):
        self.size = size
        self.values = [-1] * (n_units * size)
        self.written = list(self.values)
        self.busy = list(self.values)

    def free(self, unit: int, write_cycle: int) -> int:
        """The slot of *unit* writable at *write_cycle* that frees up
        soonest (lowest on ties), or -1.  A slot is never kept for
        less than since its write, so ``busy`` alone decides."""
        base = unit * self.size
        busy = self.busy[base:base + self.size]
        soonest = min(busy)
        return busy.index(soonest) if soonest <= write_cycle else -1

    def holding(self, unit: int, value: int, before: int) -> int:
        """The first slot of *unit* holding *value* written before
        cycle *before*, or -1."""
        base = unit * self.size
        if value in self.values[base:base + self.size]:
            for index in range(base, base + self.size):
                if self.values[index] == value and \
                        self.written[index] < before:
                    return index - base
        return -1

    def add(self, index: int, value: int, written: int,
            busy: int) -> None:
        self.values[index] = value
        self.written[index] = written
        self.busy[index] = busy
