"""Content-addressed on-disk memoisation of design-point results.

The mapping flow is deterministic: the same (source, design point)
pair always yields the same metrics.  That makes every result safe to
memoise by content hash — the cache key is the SHA-256 of a canonical
JSON envelope of the program source, the point's canonical identity
and a format version.  Overlapping sweeps (a bus sweep after a full
grid, a hill-climb revisiting a ridge) then skip re-mapping entirely.

Records are JSON dicts stored one-per-file under a two-hex-char
shard directory, written atomically (temp file + ``os.replace``) so a
killed sweep never leaves a truncated record behind.  Corrupt or
unreadable entries degrade to cache misses.

The files are the only state
----------------------------
Each handle keeps a small in-memory index of the directory: an
insertion-ordered key → size map (least recently used first) and a
byte total, guarded by one lock.  It is built by one directory scan,
ordered by (mtime, key), the first time ``len``/:meth:`stats`/a bound
needs it; after that the handle's own puts, hits, discards and
evictions keep it current.  Recency persists across processes as the
record file's mtime: a put or a hit stamps it explicitly with a
nanosecond time, so the order a later scan reads back never depends
on the filesystem's timestamp granularity.

Another handle's writes to the same directory are seen at the next
scan (:meth:`invalidate_count`, :meth:`fsck`); the service daemon's
handle never needs one, because it is its store's only writer.
Files at the root beside the shard directories (a trace log, an
older release's index database) are ignored.

Bounds
------
``max_entries``/``max_bytes`` bound the store; every admission
evicts least-recently-*accessed* records, in this handle's index
order, until the store fits.

Invariants
----------
* **Cache records are bit-identical to fresh ones.**  A record read
  back from disk must be indistinguishable from re-evaluating the
  point: key order is preserved on write (no ``sort_keys``) so warm
  and cold sweeps render identical tables, and the key hashes the
  full program source plus the point's canonical identity, so no two
  distinct evaluations can alias.
* Only ``ok`` records are memoised (:meth:`ResultCache.admit`, the
  write-back every sweep and the daemon use); a failure is never
  served from the cache.
* A store failure is a *miss*, never a crash: corrupt entries and
  full-disk writes (``put`` returns ``False``, counted in
  ``put_errors``) degrade.
* ``CACHE_VERSION`` is part of every key: bumping it invalidates the
  whole store without touching files.
* A pure single-tile :class:`DesignPoint` serialises without an
  ``array`` key, so keys minted before the multi-tile axis existed
  remain valid.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import tempfile
import threading
import time
from typing import Mapping

from repro.dse.space import DesignPoint

#: Bump when the record layout changes: stale entries become misses.
CACHE_VERSION = 1


def cache_key(source: str, point: DesignPoint) -> str:
    """Stable content hash of one (source, design point) pair."""
    envelope = json.dumps(
        {"version": CACHE_VERSION, "source": source,
         "point": point.to_dict()},
        sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(envelope.encode("utf-8")).hexdigest()


def _scan(root: pathlib.Path) -> list[tuple[int, str, int]]:
    """(mtime_ns, key, size) of every record file under *root*,
    oldest first (ties by key).  Reads no record: a corrupt file
    counts until a read or :meth:`ResultCache.fsck` removes it."""
    rows = []
    for shard in sorted(os.listdir(root)):
        if len(shard) != 2:
            continue
        directory = os.path.join(root, shard)
        try:
            names = sorted(os.listdir(directory))
        except OSError:
            continue  # not a shard directory, or pruned meanwhile
        for name in names:
            if not name.endswith(".json"):
                continue
            try:
                status = os.stat(os.path.join(directory, name))
            except OSError:
                continue  # evicted between listing and stat
            rows.append((status.st_mtime_ns, name[:-5],
                         status.st_size))
    rows.sort()
    return rows


# Plain descriptor I/O, not file objects: a file object adds fstat,
# isatty and seek calls, and each system call is a release and
# reacquire of the GIL for the service daemon, which does every store
# read and write next to its request handling.

def _read_file(path: pathlib.Path) -> bytes:
    """The whole content of the file at *path*."""
    descriptor = os.open(path, os.O_RDONLY)
    try:
        chunks = []
        while chunk := os.read(descriptor, 1 << 16):
            chunks.append(chunk)
    finally:
        os.close(descriptor)
    return b"".join(chunks)


def _write_file(descriptor: int, payload: bytes) -> None:
    """Write all of *payload* to *descriptor*, then close it."""
    try:
        view = memoryview(payload)
        while view:
            view = view[os.write(descriptor, view):]
    finally:
        os.close(descriptor)


class ResultCache:
    """A directory of memoised sweep records, keyed by content hash,
    with a per-handle in-memory index and optional LRU bounds."""

    def __init__(self, root, *, max_entries: int | None = None,
                 max_bytes: int | None = None):
        self.root = pathlib.Path(root).expanduser()
        self.root.mkdir(parents=True, exist_ok=True)
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.evictions = 0          #: records removed by the bounds
        self.put_errors = 0         #: writes degraded to no-ops
        #: key -> size, least recently used first; None until the
        #: first scan (:meth:`_index`).
        self._entries: dict[str, int] | None = None
        self._bytes = 0
        self._lock = threading.Lock()
        self._last_stamp = 0

    # -- the index ----------------------------------------------------

    def _index(self) -> dict[str, int]:
        """The index, scanning the directory the first time.  Called
        with ``_lock`` held, so a put racing the scan either lands
        before it (and is scanned) or waits for it (and is noted)."""
        if self._entries is None:
            self._entries = {key: size
                             for __, key, size in _scan(self.root)}
            self._bytes = sum(self._entries.values())
        return self._entries

    def _note(self, key: str, size: int | None) -> None:
        """Index *key* as most recently used at *size* bytes, or drop
        it when *size* is None.  Called with ``_lock`` held."""
        if self._entries is not None:
            self._bytes -= self._entries.pop(key, 0)
            if size is not None:
                self._entries[key] = size
                self._bytes += size

    def _stamp(self, path: pathlib.Path) -> None:
        """Persist *path*'s recency as its mtime: a nanosecond stamp,
        strictly increasing per handle.  Best effort — a file evicted
        meanwhile is fine."""
        # A wall clock, not a monotonic one: other processes' scans
        # order by these stamps.
        stamp = max(time.time_ns(),  # fpfa-lint: wall-clock
                    self._last_stamp + 1)
        self._last_stamp = stamp
        try:
            os.utime(path, ns=(stamp, stamp))
        except OSError:
            pass

    def invalidate_count(self) -> None:
        """Forget the index; the next use rescans the directory.  For
        owners that know it was written behind this handle's back."""
        with self._lock:
            self._entries = None

    # -- addressing ---------------------------------------------------

    def key(self, source: str, point: DesignPoint) -> str:
        return cache_key(source, point)

    def path_for(self, key: str) -> pathlib.Path:
        return self.root / key[:2] / f"{key}.json"

    # -- access -------------------------------------------------------

    def get(self, key: str, want_verified: bool = False) -> dict | None:
        """The memoised record for *key*, or None.

        With *want_verified*, an ``ok`` record that was never
        verified is a miss: a request that promises verification
        recomputes it (the one serving rule every sweep and the
        daemon share).  A corrupt or truncated entry (a crashed
        foreign process, a full disk, manual editing) is *deleted*,
        not just skipped: the store is shared by every sweep and
        daemon, and a bad file must not be re-parsed — or
        re-reported — on every later lookup.
        """
        path = self.path_for(key)
        try:
            record = json.loads(_read_file(path))
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            self._discard(key)
            return None
        if not isinstance(record, dict):
            self._discard(key)
            return None
        if want_verified and record.get("ok") \
                and not record.get("verified"):
            return None
        self._stamp(path)
        with self._lock:
            if self._entries is not None and key in self._entries:
                self._entries[key] = self._entries.pop(key)
        return record

    def _discard(self, key: str) -> None:
        """Best-effort removal of a poisoned entry; a concurrent
        reader may have discarded it first, which is fine."""
        try:
            self.path_for(key).unlink()
        except OSError:
            pass
        with self._lock:
            self._note(key, None)

    def put(self, key: str, record: Mapping) -> bool:
        """Atomically persist *record* under *key*; returns whether
        it was written.

        A failed write (full disk, permissions, a shard directory
        racing an eviction) is a degraded no-op — counted in
        ``put_errors`` — never an exception: a store failure must
        cost a future cache miss, not the sweep or daemon writing
        through it.
        """
        path = self.path_for(key)
        # Key order is preserved (no sort_keys): a cached record must
        # round-trip exactly as the runner built it, column order and
        # all, so warm and cold sweeps render identical tables.
        payload = json.dumps(dict(record)).encode("utf-8")
        for attempt in (1, 2):
            temp_name = None
            try:
                try:
                    descriptor, temp_name = tempfile.mkstemp(
                        dir=path.parent, suffix=".tmp")
                except FileNotFoundError:  # a new shard
                    path.parent.mkdir(parents=True, exist_ok=True)
                    descriptor, temp_name = tempfile.mkstemp(
                        dir=path.parent, suffix=".tmp")
                _write_file(descriptor, payload)
                os.replace(temp_name, path)
                break
            except OSError:
                if temp_name is not None:
                    try:
                        os.unlink(temp_name)
                    except OSError:
                        pass
                # One retry covers a shard directory removed by a
                # concurrent evict/clear before the rename.
                if attempt == 2:
                    self.put_errors += 1
                    return False
        self._stamp(path)
        with self._lock:
            self._note(key, len(payload))
        self._enforce_bounds(protect=key)
        return True

    def admit(self, key: str, record: Mapping) -> bool:
        """:meth:`put` *record* if it is ``ok``; returns whether it
        was written.

        The one write-back rule of every sweep and the daemon: a
        failure may be transient (resource exhaustion in a worker),
        and caching it would poison the key for every later sweep
        sharing this store.  A degraded write reports False, as
        :meth:`put` does.
        """
        if not record.get("ok"):
            return False
        return self.put(key, record)

    # -- bounds + eviction --------------------------------------------

    def set_bounds(self, max_entries: int | None = None,
                   max_bytes: int | None = None) -> int:
        """Install (or change) the store bounds and enforce them now;
        returns how many records were evicted doing so."""
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        return self._enforce_bounds()

    def _within_bounds(self, count: int, total_bytes: int) -> bool:
        return (self.max_entries is None
                or count <= self.max_entries) and \
               (self.max_bytes is None
                or total_bytes <= self.max_bytes)

    def _enforce_bounds(self, protect: str | None = None) -> int:
        """Evict least-recently-accessed records until the store fits
        its bounds; returns the number evicted.  *protect* (the key
        just written) is never chosen, so the caller can always read
        back what it put."""
        if self.max_entries is None and self.max_bytes is None:
            return 0
        evicted = 0
        with self._lock:
            entries = self._index()
            while not self._within_bounds(len(entries), self._bytes):
                victim = next((key for key in entries
                               if key != protect), None)
                if victim is None:
                    break
                self._note(victim, None)
                path = self.path_for(victim)
                try:
                    path.unlink()
                except OSError:
                    pass  # another handle evicted it first
                try:
                    path.parent.rmdir()  # drop an emptied shard
                except OSError:
                    pass
                evicted += 1
            self.evictions += evicted
        return evicted

    def gc(self) -> dict:
        """Enforce the configured bounds now; returns a report."""
        evicted = self._enforce_bounds()
        return {"evicted": evicted, **self.stats()}

    # -- maintenance --------------------------------------------------

    def fsck(self) -> dict:
        """Repair the directory and re-anchor the index on it; returns
        a report.

        Corrupt records and stale ``*.tmp`` corpses from killed
        writers are removed, emptied shard directories are pruned,
        and the index is rebuilt from the records that remain.
        """
        report = {"files": 0, "corrupt_removed": 0, "tmp_removed": 0,
                  "dirs_removed": 0}
        for path in sorted(self.root.glob("??/*")):
            if path.suffix != ".json":
                try:
                    path.unlink()
                    report["tmp_removed"] += 1
                except OSError:
                    pass
                continue
            report["files"] += 1
            try:
                record = json.loads(path.read_bytes().decode("utf-8"))
                if not isinstance(record, dict):
                    raise ValueError("record is not an object")
            except (OSError, ValueError):
                try:
                    path.unlink()
                except OSError:
                    pass
                report["corrupt_removed"] += 1
        for shard in sorted(self.root.glob("??")):
            if shard.is_dir():
                try:
                    shard.rmdir()
                    report["dirs_removed"] += 1
                except OSError:
                    pass
        with self._lock:
            self._entries = None
            report["entries"] = len(self._index())
            report["bytes"] = self._bytes
        return report

    def clear(self) -> int:
        """Delete every record; returns how many were removed.

        Also removes the emptied two-hex shard directories (an
        operator pointing ``du``/``ls`` at a cleared store should see
        an empty store).
        """
        removed = 0
        for path in sorted(self.root.glob("??/*.json")):
            try:
                path.unlink()
            except OSError:
                continue  # evicted or discarded concurrently
            removed += 1
        for shard in sorted(self.root.glob("??")):
            if not shard.is_dir():
                continue
            for stale in sorted(shard.glob("*.tmp")):
                try:
                    stale.unlink()
                except OSError:
                    pass
            try:
                shard.rmdir()
            except OSError:
                pass
        self.invalidate_count()
        return removed

    # -- bookkeeping --------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._index())

    def stats(self) -> dict:
        with self._lock:
            entries = len(self._index())
            stored_bytes = self._bytes
        return {
            "entries": entries,
            "bytes": stored_bytes,
            "evictions": self.evictions,
            "put_errors": self.put_errors,
            "max_entries": self.max_entries,
            "max_bytes": self.max_bytes,
        }
