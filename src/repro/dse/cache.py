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

Tiers
-----
The record files are the *truth*; layered over them is an **index
tier**: a sqlite ``manifest.db`` at the store root holding one row
per record (key, size, mtime, ok/verified flags, LRU stamp).  The
manifest makes ``len()``/``stats()``/key listing indexed lookups
instead of directory walks, carries the flags that let
``__contains__``/:meth:`probe` answer without parsing files, and
drives LRU eviction when the store is bounded.

The manifest is strictly *rebuildable state*: a store directory
without one (an old flat cache, a copy rsynced without the db) opens
in place — the manifest is lazily rebuilt from the files on first
use.  A torn, truncated or version-mismatched manifest is deleted and
rebuilt the same way.  Every manifest failure degrades: the cache
falls back to directory walks and keeps serving, it never raises.
:meth:`fsck` reconciles manifest and directory explicitly and removes
corpses (corrupt records, stale ``*.tmp`` files from killed writers).

Bounds
------
``max_entries``/``max_bytes`` bound the store; every admission
evicts least-recently-*accessed* records (the manifest's LRU stamp —
a cross-process logical clock, so two writers sharing a directory
agree on recency) until the store fits.  Eviction requires a live
manifest; with the manifest degraded the store grows unbounded
rather than guessing victims.

Invariants
----------
* **Cache records are bit-identical to fresh ones.**  A record read
  back from disk must be indistinguishable from re-evaluating the
  point: key order is preserved on write (no ``sort_keys``) so warm
  and cold sweeps render identical tables, and the key hashes the
  full program source plus the point's canonical identity, so no two
  distinct evaluations can alias.  The manifest never touches record
  bytes — tiered and flat stores write identical files.
* Only ``ok`` records are memoised (the runner's policy); a failure
  is never served from the cache.
* A store failure is a *miss*, never a crash: corrupt entries,
  full-disk writes (``put`` returns ``False``) and manifest
  corruption all degrade and are counted
  (``put_errors``/``manifest_errors``/``manifest_rebuilds``).
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
import sqlite3
import tempfile
import threading
import time
from typing import Iterator, Mapping

from repro.dse.space import DesignPoint

#: Bump when the record layout changes: stale entries become misses.
CACHE_VERSION = 1

#: The index tier's file name, at the store root (next to the two-hex
#: shard directories, whose names can never collide with it).
MANIFEST_NAME = "manifest.db"

#: Bump when the manifest schema changes: an old manifest is deleted
#: and rebuilt from the record files (which never change format here).
MANIFEST_VERSION = 1

#: Seconds a writer waits on a locked manifest before degrading.
SQLITE_TIMEOUT = 30.0

#: Sentinel distinguishing "manifest unavailable" from "no row".
_UNAVAILABLE = object()


def cache_key(source: str, point: DesignPoint) -> str:
    """Stable content hash of one (source, design point) pair."""
    envelope = json.dumps(
        {"version": CACHE_VERSION, "source": source,
         "point": point.to_dict()},
        sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(envelope.encode("utf-8")).hexdigest()


def _scan_records(root: pathlib.Path) -> list[tuple]:
    """(key, size, mtime, ok, verified) of every parseable record
    file under *root*, in name order."""
    rows = []
    for path in sorted(root.glob("??/*.json")):
        try:
            raw = path.read_bytes()
            mtime = path.stat().st_mtime
            record = json.loads(raw.decode("utf-8"))
        except (OSError, ValueError):
            continue
        if not isinstance(record, dict):
            continue
        rows.append((path.stem, len(raw), mtime,
                     int(bool(record.get("ok"))),
                     int(bool(record.get("verified")))))
    return rows


class _Manifest:
    """The sqlite index over one sharded record directory.

    Methods raise ``sqlite3.Error``/``OSError`` freely — the owning
    :class:`ResultCache` wraps every call in its degrade-don't-crash
    guard (:meth:`ResultCache._manifest_op`), which recovers by
    rebuilding from the record files.  The connection is shared
    across threads (the service daemon reads stats from executor
    threads) under one lock; cross-process writers coordinate through
    sqlite's own locking (WAL + busy timeout).

    ``last_access`` is a *logical* clock: every touch stamps
    ``MAX(last_access)+1`` inside the writing transaction, so recency
    is strictly ordered even across processes and never depends on
    wall-clock resolution — the LRU victim is exact, and the most
    recently accessed key can never be chosen.
    """

    def __init__(self, root: pathlib.Path):
        self.path = root / MANIFEST_NAME
        self._lock = threading.RLock()
        self._conn = sqlite3.connect(str(self.path),
                                     timeout=SQLITE_TIMEOUT,
                                     check_same_thread=False)
        with self._lock, self._conn:
            # WAL keeps concurrent readers off the writer's lock;
            # NORMAL sync is safe with WAL and skips the per-commit
            # fsync (the manifest is rebuildable state — the records
            # themselves are still written via atomic rename).
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS meta "
                "(name TEXT PRIMARY KEY, value TEXT NOT NULL)")
            row = self._conn.execute(
                "SELECT value FROM meta WHERE name='version'"
            ).fetchone()
            if row is None:
                self._conn.execute(
                    "INSERT OR REPLACE INTO meta VALUES "
                    "('version', ?)", (str(MANIFEST_VERSION),))
            elif row[0] != str(MANIFEST_VERSION):
                raise sqlite3.DataError(
                    f"manifest version {row[0]!r}, expected "
                    f"{MANIFEST_VERSION}")
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS entries ("
                " key TEXT PRIMARY KEY,"
                " size INTEGER NOT NULL,"
                " mtime REAL NOT NULL,"
                " ok INTEGER NOT NULL,"
                " verified INTEGER NOT NULL,"
                " last_access INTEGER NOT NULL)")
            self._conn.execute(
                "CREATE INDEX IF NOT EXISTS entries_lru "
                "ON entries(last_access)")

    #: Fresh-stamp subquery: strictly greater than every live stamp.
    _NEXT = "(SELECT COALESCE(MAX(last_access),0)+1 FROM entries)"

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    # -- queries ------------------------------------------------------

    def count(self) -> int:
        with self._lock:
            return self._conn.execute(
                "SELECT COUNT(*) FROM entries").fetchone()[0]

    def totals(self) -> tuple[int, int]:
        """(entry count, byte total) in one indexed aggregate."""
        with self._lock:
            return tuple(self._conn.execute(
                "SELECT COUNT(*), COALESCE(SUM(size),0) "
                "FROM entries").fetchone())

    def entry(self, key: str) -> tuple[int, bool, bool] | None:
        """(size, ok, verified) for *key*, or None."""
        with self._lock:
            row = self._conn.execute(
                "SELECT size, ok, verified FROM entries "
                "WHERE key=?", (key,)).fetchone()
        if row is None:
            return None
        return row[0], bool(row[1]), bool(row[2])

    def keys(self) -> list[str]:
        with self._lock:
            return [row[0] for row in self._conn.execute(
                "SELECT key FROM entries ORDER BY key")]

    def lru_victim(self, exclude: str | None = None
                   ) -> tuple[str, int] | None:
        """(key, size) of the least recently accessed entry."""
        query = ("SELECT key, size FROM entries "
                 "{} ORDER BY last_access ASC, key ASC LIMIT 1")
        with self._lock:
            if exclude is None:
                row = self._conn.execute(query.format("")).fetchone()
            else:
                row = self._conn.execute(
                    query.format("WHERE key != ?"),
                    (exclude,)).fetchone()
        return None if row is None else (row[0], row[1])

    # -- mutation -----------------------------------------------------

    def touch(self, key: str) -> bool:
        """Stamp *key* most-recently-accessed; False if unknown."""
        with self._lock, self._conn:
            cursor = self._conn.execute(
                f"UPDATE entries SET last_access={self._NEXT} "
                f"WHERE key=?", (key,))
            return cursor.rowcount > 0

    def record(self, key: str, size: int, mtime: float, ok: bool,
               verified: bool) -> None:
        """Upsert one entry with a fresh recency stamp."""
        with self._lock, self._conn:
            self._conn.execute(
                f"INSERT INTO entries VALUES (?,?,?,?,?,{self._NEXT})"
                f" ON CONFLICT(key) DO UPDATE SET"
                f" size=excluded.size, mtime=excluded.mtime,"
                f" ok=excluded.ok, verified=excluded.verified,"
                f" last_access=excluded.last_access",
                (key, size, mtime, int(ok), int(verified)))

    def remove(self, key: str) -> None:
        with self._lock, self._conn:
            self._conn.execute("DELETE FROM entries WHERE key=?",
                               (key,))

    def clear(self) -> None:
        with self._lock, self._conn:
            self._conn.execute("DELETE FROM entries")

    # -- reconstruction -----------------------------------------------

    def rebuild(self, root: pathlib.Path) -> int:
        """Index every record file not yet indexed; returns the number
        of record files found.

        Insert-only: another process may record a put between the
        scan and the insert, and its row must survive, so nothing is
        deleted and an existing row wins.  Rebuilt rows are stamped
        older than every existing row, in name order.

        Unparseable files are skipped (they stay misses; ``fsck``
        removes them) — a rebuild must succeed on any directory a
        crashed writer could leave behind.  LRU history is advisory
        state and not worth a sidecar to preserve.
        """
        rows = _scan_records(root)
        with self._lock, self._conn:
            floor = self._conn.execute(
                "SELECT COALESCE(MIN(last_access),1) FROM entries"
            ).fetchone()[0]
            stamp = floor - len(rows)
            self._conn.executemany(
                "INSERT OR IGNORE INTO entries VALUES (?,?,?,?,?,?)",
                [row + (stamp + index,) for index, row in enumerate(rows)])
        return len(rows)

    def reconcile(self, valid: Mapping[str, tuple[int, float, bool,
                                                  bool]]
                  ) -> tuple[int, int]:
        """Converge on *valid* (key -> (size, mtime, ok, verified))
        preserving recency stamps of surviving rows; returns
        (rows added, rows dropped)."""
        with self._lock, self._conn:
            existing = {row[0]: row[1] for row in self._conn.execute(
                "SELECT key, size FROM entries")}
            dropped = [key for key in existing if key not in valid]
            self._conn.executemany(
                "DELETE FROM entries WHERE key=?",
                [(key,) for key in dropped])
            added = 0
            for key, (size, mtime, ok, verified) in valid.items():
                if key in existing:
                    self._conn.execute(
                        "UPDATE entries SET size=?, mtime=?, ok=?, "
                        "verified=? WHERE key=?",
                        (size, mtime, int(ok), int(verified), key))
                else:
                    added += 1
                    self._conn.execute(
                        f"INSERT INTO entries VALUES "
                        f"(?,?,?,?,?,{self._NEXT})",
                        (key, size, mtime, int(ok), int(verified)))
        return added, len(dropped)


class ResultCache:
    """A directory of memoised sweep records, keyed by content hash,
    with a sqlite index tier and optional LRU bounds."""

    def __init__(self, root, *, max_entries: int | None = None,
                 max_bytes: int | None = None):
        self.root = pathlib.Path(root).expanduser()
        self.root.mkdir(parents=True, exist_ok=True)
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.evictions = 0          #: records removed by the bounds
        self.put_errors = 0         #: writes degraded to no-ops
        self.manifest_errors = 0    #: manifest ops that failed
        self.manifest_rebuilds = 0  #: full reindexes from the files
        #: Entry count, maintained incrementally (put/discard/clear)
        #: after one lazy initial read — ``len``/``stats`` must not
        #: walk the whole store per call (the daemon serves them on
        #: every ``/stats`` request).  The count tracks *this
        #: instance's* view; a foreign process adding entries behind
        #: our back is only picked up after ``invalidate_count``.
        self._entries: int | None = None
        #: Lazily opened index tier; ``True`` once it is known
        #: unusable for this instance (every op then degrades to the
        #: flat-directory behaviour).
        self._manifest: _Manifest | None = None
        self._manifest_dead = False
        #: Serialises the lazy open: threads putting into a fresh
        #: store must not each open (and so rebuild) the manifest, or
        #: one thread's rebuild drops a row another has just recorded.
        self._opening = threading.Lock()

    # -- the index tier (degrade-don't-crash guard) -------------------

    def _open_manifest(self) -> _Manifest:
        """Open (creating if needed) the manifest; lazily rebuild the
        index when it is empty but the directory is not — the
        open-an-old-flat-store-in-place path."""
        manifest = _Manifest(self.root)
        # Pure existence probe — scan order cannot matter, and
        # sorting would materialise the whole directory.
        if manifest.count() == 0 and next(
                self.root.glob("??/*.json"),  # fpfa-lint: disable=FPL001
                None) is not None:
            if manifest.rebuild(self.root):
                self.manifest_rebuilds += 1
        return manifest

    def _recover_manifest(self) -> None:
        """Last resort for a torn/mismatched manifest: delete the
        database files and reindex from the records (the truth)."""
        if self._manifest is not None:
            try:
                self._manifest.close()
            except sqlite3.Error:
                pass
            self._manifest = None
        for suffix in ("", "-wal", "-shm"):
            try:
                os.unlink(self.root / f"{MANIFEST_NAME}{suffix}")
            except OSError:
                pass
        manifest = _Manifest(self.root)
        if manifest.rebuild(self.root):
            pass
        self.manifest_rebuilds += 1
        self._manifest = manifest

    def _manifest_op(self, action, default=_UNAVAILABLE):
        """Run ``action(manifest)``; on any failure, recover once,
        then degrade to *default* and stop using the manifest.  The
        directory of records stays authoritative throughout — a dead
        manifest costs indexed lookups and eviction, never data."""
        if self._manifest_dead:
            return default
        try:
            if self._manifest is None:
                with self._opening:
                    if self._manifest is None:
                        self._manifest = self._open_manifest()
            return action(self._manifest)
        except (sqlite3.Error, OSError, ValueError):
            self.manifest_errors += 1
            try:
                self._recover_manifest()
                return action(self._manifest)
            except (sqlite3.Error, OSError, ValueError):
                self._manifest_dead = True
                return default

    @property
    def manifest_active(self) -> bool:
        """Whether the index tier is serving this instance."""
        return not self._manifest_dead

    # -- addressing ---------------------------------------------------

    def key(self, source: str, point: DesignPoint) -> str:
        return cache_key(source, point)

    def path_for(self, key: str) -> pathlib.Path:
        return self.root / key[:2] / f"{key}.json"

    # -- access -------------------------------------------------------

    def get(self, key: str) -> dict | None:
        """The memoised record for *key*, or None.

        Reads the record *file* — the truth — so a record a foreign
        flat writer added behind the manifest's back is still served
        (and healed into the index).  A corrupt or truncated entry (a
        crashed foreign process, a full disk, manual editing) is
        *deleted*, not just skipped: the store is shared by every
        sweep and service worker, and a bad file must not be
        re-parsed — or re-reported — on every later lookup.
        """
        path = self.path_for(key)
        try:
            with open(path, encoding="utf-8") as handle:
                raw = handle.read()
            record = json.loads(raw)
        except FileNotFoundError:
            # Heal a row whose file vanished (a foreign eviction or
            # manual deletion); harmless when no row exists.
            self._manifest_op(lambda m: m.remove(key), None)
            return None
        except (OSError, ValueError):
            self._discard(path, key)
            return None
        if not isinstance(record, dict):
            self._discard(path, key)
            return None

        def note_access(manifest: _Manifest) -> None:
            if not manifest.touch(key):
                # Unindexed but valid: a flat writer put it here.
                manifest.record(key, len(raw.encode("utf-8")),
                                time.time(), bool(record.get("ok")),  # fpfa-lint: wall-clock
                                bool(record.get("verified")))
        self._manifest_op(note_access, None)
        return record

    def probe(self, key: str, *, want_verified: bool = False) -> bool:
        """Whether *key* holds a servable record — with a live
        manifest, without touching the file.

        Unlike a bare ``path.exists()``, a poisoned entry (garbage
        bytes under a valid key path) is **not** reported present:
        the manifest only indexes records that parsed, and the
        fallback path parses.  With *want_verified*, an ``ok`` record
        that was never verified is not servable (the
        :meth:`~repro.service.store.ArtifactStore.lookup` rule).
        """
        entry = self._manifest_op(lambda m: m.entry(key))
        if entry is not _UNAVAILABLE and entry is not None:
            __, ok, verified = entry
            return not (want_verified and ok and not verified)
        path = self.path_for(key)
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            return False
        except (OSError, ValueError):
            self._discard(path, key)
            return False
        if not isinstance(record, dict):
            self._discard(path, key)
            return False
        if entry is not _UNAVAILABLE:
            # Valid file the manifest missed: heal the index.
            self._manifest_op(
                lambda m: m.record(
                    key, path.stat().st_size, time.time(),  # fpfa-lint: wall-clock
                    bool(record.get("ok")),
                    bool(record.get("verified"))), None)
        return not (want_verified and record.get("ok")
                    and not record.get("verified"))

    def _discard(self, path: pathlib.Path,
                 key: str | None = None) -> None:
        """Best-effort removal of a poisoned entry; a concurrent
        reader may have discarded it first, which is fine."""
        try:
            path.unlink()
        except OSError:
            return
        if key is not None:
            self._manifest_op(lambda m: m.remove(key), None)
        if self._entries is not None and self._entries > 0:
            self._entries -= 1

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
        # Open the index before the file lands: otherwise the first
        # put into a fresh store would trip the empty-manifest /
        # non-empty-directory rebuild heuristic on its own write.
        if self._manifest is None and not self._manifest_dead:
            self._manifest_op(lambda manifest: None, None)
        # Key order is preserved (no sort_keys): a cached record must
        # round-trip exactly as the runner built it, column order and
        # all, so warm and cold sweeps render identical tables.
        payload = json.dumps(dict(record))
        fresh = False
        for attempt in (1, 2):
            temp_name = None
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
                descriptor, temp_name = tempfile.mkstemp(
                    dir=path.parent, suffix=".tmp")
                with os.fdopen(descriptor, "w",
                               encoding="utf-8") as handle:
                    handle.write(payload)
                fresh = not path.exists()
                os.replace(temp_name, path)
                break
            except OSError:
                if temp_name is not None:
                    try:
                        os.unlink(temp_name)
                    except OSError:
                        pass
                # One retry covers a shard directory removed between
                # mkdir and mkstemp by a concurrent evict/clear.
                if attempt == 2:
                    self.put_errors += 1
                    return False
        if fresh and self._entries is not None:
            self._entries += 1
        size = len(payload.encode("utf-8"))
        self._manifest_op(
            lambda m: m.record(key, size, time.time(),  # fpfa-lint: wall-clock
                               bool(record.get("ok")),
                               bool(record.get("verified"))), None)
        self._enforce_bounds(protect=key)
        return True

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
        just written) is never chosen — even a pathological clock
        cannot evict the record the caller is about to read back.
        Requires a live manifest: without one the store degrades to
        unbounded growth rather than guessing victims.
        """
        if self.max_entries is None and self.max_bytes is None:
            return 0
        evicted = 0
        previous_count = None
        while True:
            totals = self._manifest_op(lambda m: m.totals())
            if totals is _UNAVAILABLE:
                break
            count, total_bytes = totals
            if self._within_bounds(count, total_bytes):
                break
            if previous_count is not None and count >= previous_count:
                break  # nothing shrank: stop rather than spin
            previous_count = count
            victim = self._manifest_op(
                lambda m: m.lru_victim(exclude=protect))
            if victim is _UNAVAILABLE or victim is None:
                break
            victim_key, __ = victim
            victim_path = self.path_for(victim_key)
            try:
                victim_path.unlink()
            except OSError:
                pass  # a concurrent evict/clear got there first
            self._manifest_op(lambda m: m.remove(victim_key), None)
            try:
                victim_path.parent.rmdir()  # drop an emptied shard
            except OSError:
                pass
            self.evictions += 1
            evicted += 1
            if self._entries is not None and self._entries > 0:
                self._entries -= 1
        return evicted

    def gc(self) -> dict:
        """Enforce the configured bounds now; returns a report."""
        evicted = self._enforce_bounds()
        return {"evicted": evicted, **self.stats()}

    # -- reconciliation -----------------------------------------------

    def fsck(self) -> dict:
        """Reconcile manifest and directory; returns a repair report.

        Walks the record files (the truth): corrupt records and stale
        ``*.tmp`` corpses from killed writers are removed, valid
        records missing from the manifest are indexed, manifest rows
        whose file vanished are dropped (surviving rows keep their
        recency), emptied shard directories are pruned, and the
        incremental entry count is re-anchored.  A dead manifest is
        force-recovered first — ``fsck`` is the repair tool.
        """
        report = {"files": 0, "corrupt_removed": 0, "tmp_removed": 0,
                  "rows_added": 0, "rows_dropped": 0,
                  "dirs_removed": 0, "manifest": "ok"}
        self._manifest_dead = False  # fsck always retries the index
        valid: dict[str, tuple[int, float, bool, bool]] = {}
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
                raw = path.read_bytes()
                mtime = path.stat().st_mtime
                record = json.loads(raw.decode("utf-8"))
                if not isinstance(record, dict):
                    raise ValueError("record is not an object")
            except (OSError, ValueError):
                try:
                    path.unlink()
                except OSError:
                    pass
                report["corrupt_removed"] += 1
                continue
            valid[path.stem] = (len(raw), mtime,
                                bool(record.get("ok")),
                                bool(record.get("verified")))
        outcome = self._manifest_op(lambda m: m.reconcile(valid))
        if outcome is _UNAVAILABLE:
            report["manifest"] = "unavailable"
        else:
            report["rows_added"], report["rows_dropped"] = outcome
            if self.manifest_rebuilds:
                report["manifest"] = "rebuilt"
        for shard in sorted(self.root.glob("??")):
            if shard.is_dir():
                try:
                    shard.rmdir()
                    report["dirs_removed"] += 1
                except OSError:
                    pass
        self._entries = len(valid)
        return report

    # -- bookkeeping --------------------------------------------------

    def __len__(self) -> int:
        """Entry count: one lazy manifest read (or directory scan
        when the index is unavailable), then O(1) updates."""
        if self._entries is None:
            count = self._manifest_op(lambda m: m.count())
            if count is _UNAVAILABLE:
                # Counting — order-free by construction.
                # fpfa-lint: disable=FPL001
                scan = self.root.glob("??/*.json")
                count = sum(1 for _ in scan)
            self._entries = count
        return self._entries

    def invalidate_count(self) -> None:
        """Forget the incremental entry count; the next ``len()``
        re-reads the manifest.  For owners that know the directory
        was written behind this instance's back — the service daemon
        calls it after explore/chunk jobs, whose workers write
        through their own :class:`ResultCache` handle on the same
        directory."""
        self._entries = None

    def __contains__(self, key: str) -> bool:
        """Manifest-routed presence: a poisoned entry (garbage bytes
        at the key's path) is not present — unlike the bare
        ``path.exists()`` this used to be."""
        return self.probe(key)

    def keys(self) -> Iterator[str]:
        """Every stored key — an indexed read, not a directory walk,
        while the manifest is live."""
        listed = self._manifest_op(lambda m: m.keys())
        if listed is not _UNAVAILABLE:
            return iter(listed)
        return (path.stem
                for path in sorted(self.root.glob("??/*.json")))

    def clear(self) -> int:
        """Delete every record; returns how many were removed.

        Also removes the emptied two-hex shard directories (an
        operator pointing ``du``/``ls`` at a cleared store should see
        an empty store).
        """
        removed = 0
        for path in sorted(self.root.glob("??/*.json")):
            path.unlink()
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
        self._manifest_op(lambda m: m.clear(), None)
        self._entries = 0
        return removed

    def stats(self) -> dict:
        totals = self._manifest_op(lambda m: m.totals())
        stored_bytes = None if totals is _UNAVAILABLE else totals[1]
        return {
            "entries": len(self),
            "bytes": stored_bytes,
            "evictions": self.evictions,
            "put_errors": self.put_errors,
            "max_entries": self.max_entries,
            "max_bytes": self.max_bytes,
            "manifest_active": self.manifest_active,
            "manifest_errors": self.manifest_errors,
            "manifest_rebuilds": self.manifest_rebuilds,
        }
