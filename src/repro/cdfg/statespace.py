"""The statespace: the paper's abstraction of the C memory model (§IV).

    "The statespace is a set of tuples: {(ad, da), (ad, da), ...}.
     A tuple consists of an ad field, which represents the address,
     and a da field which represents the data at that address.  This
     data can be anything, including a tuple of this type again."

Interaction happens exclusively through the three primitive operations
of paper Fig. 2:

* ``ST`` (store)  — ``(state, ad, da) -> state'``
* ``FE`` (fetch)  — ``(state, ad) -> da``
* ``DEL`` (delete)— ``(state, ad) -> state'``

:class:`StateSpace` here is a persistent (functional) mapping: ``store``
and ``delete`` return a *new* statespace, leaving the original intact.
This matches the dataflow reading of Fig. 2 — each primitive consumes an
``ss_in`` edge and produces an ``ss_out`` edge — and makes speculative
evaluation (both arms of a statespace MUX) trivially safe.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Mapping

from repro.cdfg.ops import Address


class MissingAddressError(KeyError):
    """Raised by strict fetches of an address with no stored tuple."""

    def __init__(self, address: Address):
        self.address = address
        super().__init__(str(address))

    def __str__(self) -> str:
        return f"no tuple with address {self.address} in the statespace"


class StateSpace:
    """An immutable set of (ad, da) tuples keyed by address.

    Parameters
    ----------
    tuples:
        Initial contents, mapping :class:`Address` (or plain name
        strings, promoted to scalar addresses) to data.  Data can be
        anything — including another :class:`StateSpace`, as §IV allows.
    """

    __slots__ = ("_tuples",)

    def __init__(self, tuples: Mapping[Address | str, Any] | None = None):
        normalised: dict[Address, Any] = {}
        if tuples:
            for address, data in tuples.items():
                normalised[self._as_address(address)] = data
        self._tuples = normalised

    @staticmethod
    def _as_address(address: Address | str) -> Address:
        if isinstance(address, Address):
            return address
        if isinstance(address, str):
            return Address(address)
        raise TypeError(f"not an address: {address!r}")

    # -- the three primitives (paper Fig. 2) -------------------------

    def store(self, address: Address | str, data: Any) -> "StateSpace":
        """``ST``: return a statespace with (ad, da) added/replaced."""
        address = self._as_address(address)
        fresh = StateSpace()
        fresh._tuples = dict(self._tuples)
        fresh._tuples[address] = data
        return fresh

    def fetch(self, address: Address | str, *, strict: bool = False,
              default: Any = 0) -> Any:
        """``FE``: read the data stored at *address*.

        Fetching an address that holds no tuple returns *default* (0)
        unless ``strict=True``, in which case it raises
        :class:`MissingAddressError`.  The paper leaves this case
        undefined; totalising it keeps speculative evaluation safe and
        mirrors zero-initialised memories in the simulator.
        """
        address = self._as_address(address)
        if address in self._tuples:
            return self._tuples[address]
        if strict:
            raise MissingAddressError(address)
        return default

    def delete(self, address: Address | str) -> "StateSpace":
        """``DEL``: return a statespace without the tuple at *address*."""
        address = self._as_address(address)
        fresh = StateSpace()
        fresh._tuples = dict(self._tuples)
        fresh._tuples.pop(address, None)
        return fresh

    # -- conveniences -------------------------------------------------

    def store_all(self, tuples: Iterable[tuple[Address | str, Any]]
                  ) -> "StateSpace":
        """``ST`` of each (ad, da) of *tuples* in turn, built with one
        copy of the tuple set instead of one copy per store."""
        fresh = StateSpace()
        fresh._tuples = stored = dict(self._tuples)
        as_address = self._as_address
        for address, data in tuples:
            stored[as_address(address)] = data
        return fresh

    def store_array(self, name: str, values) -> "StateSpace":
        """Store ``values[i]`` at ``Address(name, i)`` for each i."""
        return self.store_all((Address(name, offset), value)
                              for offset, value in enumerate(values))

    def fetch_array(self, name: str, length: int) -> list:
        """Read ``length`` consecutive words of array *name*."""
        return [self.fetch(Address(name, offset))
                for offset in range(length)]

    def __contains__(self, address) -> bool:
        return self._as_address(address) in self._tuples

    def __len__(self) -> int:
        return len(self._tuples)

    def __iter__(self) -> Iterator[Address]:
        return iter(sorted(self._tuples))

    def items(self) -> Iterator[tuple[Address, Any]]:
        """Iterate (ad, da) tuples in sorted address order."""
        for address in sorted(self._tuples):
            yield address, self._tuples[address]

    def as_dict(self) -> dict[Address, Any]:
        """A plain-dict snapshot of the tuple set."""
        return dict(self._tuples)

    def _nonzero_tuples(self) -> dict[Address, Any]:
        return {address: data for address, data in self._tuples.items()
                if not (isinstance(data, int) and data == 0)}

    def __eq__(self, other) -> bool:
        """Observational equality: statespaces are compared as *total*
        functions from addresses to data with default 0.

        A tuple holding 0 is indistinguishable from an absent tuple
        under the totalised ``fetch`` semantics (and from a real
        memory word, which always holds something), so ``ST(ad, 0)``
        and ``DEL(ad)`` yield equal statespaces.  Transformations such
        as store predication rely on this.  Use :meth:`same_tuples`
        for exact sparse-representation comparison.
        """
        if not isinstance(other, StateSpace):
            return NotImplemented
        return self._nonzero_tuples() == other._nonzero_tuples()

    def same_tuples(self, other: "StateSpace") -> bool:
        """Exact tuple-set equality (distinguishes 0 from absent)."""
        return self._tuples == other._tuples

    def __hash__(self):  # pragma: no cover - explicit unhashability
        raise TypeError("StateSpace is unhashable; compare with ==")

    def __repr__(self) -> str:
        rendered = ", ".join(f"({address}, {data!r})"
                             for address, data in self.items())
        return f"StateSpace({{{rendered}}})"
