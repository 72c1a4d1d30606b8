"""The service's artifact store — one format shared with the DSE.

:class:`ArtifactStore` **is** a :class:`repro.dse.cache.ResultCache`:
same sharded directory layout, same atomic-rename writes, same
corrupt-entry recovery, and —
because map jobs are keyed by :func:`repro.dse.cache.cache_key` —
the same keys.  Point an exploration sweep's ``--cache`` at a
daemon's store directory (or the daemon at an old sweep cache) and
the two populations interleave freely: a mapping job's record
satisfies a sweep point and a swept record satisfies a mapping job.
Reads go through :meth:`~repro.dse.cache.ResultCache.get`, whose
``want_verified`` rule is the one a sweep applies, so daemon and
sweep agree on what a usable record is.

What the service adds on top is the admission policy: :meth:`admit`
enforces the ok-only rule (failures are never memoised — a transient
worker failure must not poison the key), lifted straight from
``repro.dse.runner``.  The daemon's one handle is the only one the
service opens on its store: it reads and admits the records of map
and chunk jobs alike, so its index and bounds never need a rescan.
"""

from __future__ import annotations

from typing import Mapping

from repro.dse.cache import ResultCache


class ArtifactStore(ResultCache):
    """A :class:`ResultCache` with the service's admission policy."""

    def admit(self, key: str, record: Mapping) -> bool:
        """Persist *record* if it is admissible (``ok`` records only);
        returns whether it was written.  A degraded write (full disk —
        ``put`` returned False) reports False: the record was not
        admitted, and the store's ``put_errors`` counter carries the
        event."""
        if not record.get("ok"):
            return False
        return self.put(key, record)
