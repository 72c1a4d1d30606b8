"""The service's artifact store — one format shared with the DSE.

:class:`ArtifactStore` **is** a :class:`repro.dse.cache.ResultCache`:
same sharded directory layout, same atomic-rename writes, same
corrupt-entry recovery, and —
because map jobs are keyed by :func:`repro.dse.cache.cache_key` —
the same keys.  Point an exploration sweep's ``--cache`` at a
daemon's store directory (or the daemon at an old sweep cache) and
the two populations interleave freely: a mapping job's record
satisfies a sweep point and a swept record satisfies a mapping job.

What the service adds on top is *policy*, not format:

* :meth:`lookup` applies the runner's verification rule (an
  unverified record never satisfies a verifying request — it is
  recomputed) and tags provenance;
* :meth:`admit` enforces the ok-only rule (failures are never
  memoised — a transient worker failure must not poison the key).

Both policies are lifted straight from ``repro.dse.runner`` so the
store behaves identically no matter which front door filled it.
"""

from __future__ import annotations

from typing import Mapping

from repro.dse.cache import ResultCache


class ArtifactStore(ResultCache):
    """A :class:`ResultCache` with the service's admission policy."""

    def lookup(self, key: str, *,
               want_verified: bool = False) -> dict | None:
        """The stored record for *key*, honouring verification.

        Returns ``None`` when the caller requires verification but
        the stored record was produced by a run that never verified
        — mirroring
        ``run_sweep``'s cache rule, so daemon and sweep agree on what
        a usable record is.
        """
        record = self.get(key)
        if want_verified and record is not None and record.get("ok") \
                and not record.get("verified"):
            return None
        return record

    def admit(self, key: str, record: Mapping) -> bool:
        """Persist *record* if it is admissible (``ok`` records only);
        returns whether it was written.  A degraded write (full disk —
        ``put`` returned False) reports False: the record was not
        admitted, and the store's ``put_errors`` counter carries the
        event."""
        if not record.get("ok"):
            return False
        return self.put(key, record)
