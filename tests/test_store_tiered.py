"""Fault-injection battery + property tests for the artifact store.

The :class:`~repro.dse.cache.ResultCache` (record files, a per-handle
in-memory index, LRU bounds, fsck) carries every sweep's and daemon's
records, so its failure modes are the service's failure modes.  The
battery pins the contract from ``docs/store.md``:

* the record files are the store's only state and stay
  **bit-identical** to the flat format — an existing directory, with
  or without an older release's ``manifest.db``, opens in place;
* *no* store failure crashes a caller: truncated records, full disks
  and killed writers all degrade to a miss (or a ``False`` put) plus
  a counted event;
* a handle's index always equals a walk of the directory it wrote
  (entries, bytes and LRU order, the last read from file mtimes), and
  ``fsck`` re-anchors it on one;
* LRU eviction never removes the most recently accessed record.

The hypothesis section drives random put/get/corrupt/clear sequences
against a parallel in-memory model and checks index/directory
agreement, exact LRU eviction and bit-identical round-trips after
every step.
"""

import hashlib
import json
import multiprocessing
import os
import pathlib
import signal
import sqlite3
import tempfile
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dse import cache as cache_module
from repro.dse.cache import ResultCache
from repro.dse.runner import run_sweep
from repro.dse.space import DesignPoint, DesignSpace

from tests.conftest import FIR_SOURCE

#: The index file of releases that kept a sqlite tier over the files.
OLD_MANIFEST = "manifest.db"


def key_for(n) -> str:
    """A deterministic, shard-diverse 64-hex store key."""
    return hashlib.sha256(f"tiered-{n}".encode()).hexdigest()


def record_for(n, pad: int = 0) -> dict:
    record = {"ok": True, "metrics": {"cycles": n}, "n": n}
    if pad:
        record["pad"] = "x" * pad
    return record


def record_files(root) -> dict:
    """key -> raw bytes of every record file under *root*."""
    return {path.stem: path.read_bytes()
            for path in pathlib.Path(root).glob("??/*.json")}


def walk(root) -> list[tuple[str, int]]:
    """(key, size) of every record file under *root*, least recently
    used first — the tests' independent view of the store, read from
    file mtimes with no ResultCache involved."""
    rows = []
    for path in pathlib.Path(root).glob("??/*.json"):
        status = path.stat()
        rows.append((status.st_mtime_ns, path.stem, status.st_size))
    return [(key, size) for __, key, size in sorted(rows)]


def assert_index_matches_walk(cache: ResultCache) -> None:
    rows = walk(cache.root)
    assert len(cache) == len(rows)
    assert cache.stats()["bytes"] == sum(size for __, size in rows)
    assert list(cache._entries.items()) == rows


# -- the record files -----------------------------------------------------


def test_record_bytes_identical_to_flat_format(tmp_path):
    """A put writes exactly ``json.dumps(dict(record))`` — the flat
    store's format, key order preserved."""
    cache = ResultCache(tmp_path)
    record = {"z_last": 1, "ok": True, "a_first": 2,
              "metrics": {"cycles": 3, "energy": 4}}
    cache.put(key_for(0), record)
    raw = cache.path_for(key_for(0)).read_bytes()
    assert raw == json.dumps(dict(record)).encode("utf-8")
    # Round-trip preserves key order (no sort_keys anywhere).
    assert list(cache.get(key_for(0))) == list(record)


def test_legacy_flat_directory_opens_in_place(tmp_path):
    """A store of bare shard directories opens unchanged: the index
    is one scan of the files, and every record is served
    bit-identically."""
    payloads = {}
    for n in range(5):
        key = key_for(n)
        path = tmp_path / key[:2] / f"{key}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(record_for(n)).encode("utf-8")
        path.write_bytes(payload)
        payloads[key] = payload

    cache = ResultCache(tmp_path)
    assert len(cache) == 5
    assert cache.stats()["bytes"] == sum(map(len, payloads.values()))
    for key, payload in payloads.items():
        assert cache.get(key) == json.loads(payload)
        # The files were not rewritten by reading them.
        assert cache.path_for(key).read_bytes() == payload
    # Nothing but the shard directories: no index file appears.
    assert set(tmp_path.iterdir()) == {tmp_path / key[:2]
                                       for key in payloads}


def test_lazy_rebuild_keeps_a_row_recorded_after_its_scan(tmp_path,
                                                         monkeypatch):
    """A put racing the first scan is never lost.  The scan lists
    the files and then stalls; meanwhile a put on the same handle
    lands its file.  When the scan finishes, the put must still be
    indexed — and as the most recently used record."""
    for n in range(3):
        path = tmp_path / key_for(n)[:2] / f"{key_for(n)}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(record_for(n)))
    real_scan = cache_module._scan
    scanned, resume = threading.Event(), threading.Event()

    def stalled_first_scan(root):
        rows = real_scan(root)
        if not scanned.is_set():
            scanned.set()
            assert resume.wait(timeout=30)
        return rows

    monkeypatch.setattr(cache_module, "_scan", stalled_first_scan)
    cache = ResultCache(tmp_path)
    opener = threading.Thread(target=len, args=(cache,))
    opener.start()
    assert scanned.wait(timeout=30)
    writer = threading.Thread(target=cache.put,
                              args=(key_for(3), record_for(3)))
    writer.start()
    deadline = time.monotonic() + 30
    while not cache.path_for(key_for(3)).exists():
        assert time.monotonic() < deadline
        time.sleep(0.001)
    resume.set()
    opener.join(timeout=30)
    writer.join(timeout=30)
    assert not opener.is_alive() and not writer.is_alive()

    assert len(cache) == 4
    assert_index_matches_walk(cache)
    assert cache.set_bounds(max_entries=1) == 3
    assert record_files(tmp_path).keys() == {key_for(3)}


def test_stats_count_the_record_files(tmp_path):
    cache = ResultCache(tmp_path)
    for n in range(4):
        cache.put(key_for(n), record_for(n))
    stats = cache.stats()
    assert stats["entries"] == 4
    assert stats["bytes"] == sum(
        len(raw) for raw in record_files(tmp_path).values())
    assert set(stats) == {"entries", "bytes", "evictions",
                          "put_errors", "max_entries", "max_bytes"}


# -- an older release's manifest ------------------------------------------


def _old_manifest(path) -> None:
    """A sqlite index of the shape older releases kept at the root."""
    connection = sqlite3.connect(path)
    with connection:
        connection.execute("CREATE TABLE meta (name TEXT PRIMARY KEY, "
                           "value TEXT NOT NULL)")
        connection.execute("INSERT INTO meta VALUES ('version', '1')")
        connection.execute("CREATE TABLE entries (key TEXT PRIMARY "
                           "KEY, size INTEGER, last_access INTEGER)")
        connection.execute("INSERT INTO entries VALUES ('gone', 1, 1)")
    connection.close()


@pytest.mark.parametrize("corrupt", [
    lambda path: path.write_bytes(b"this is not a sqlite file"),
    lambda path: path.write_bytes(path.read_bytes()[:100]),
    lambda path: path.unlink(),
])
def test_torn_manifest_recovers_from_the_files(tmp_path, corrupt):
    """A leftover ``manifest.db`` — intact, garbage, truncated or
    deleted — is ignored: the store serves every record from the
    files and never rewrites one."""
    first = ResultCache(tmp_path)
    for n in range(4):
        first.put(key_for(n), record_for(n))
    before = record_files(tmp_path)
    _old_manifest(tmp_path / OLD_MANIFEST)
    intact = ResultCache(tmp_path)
    assert len(intact) == 4
    corrupt(tmp_path / OLD_MANIFEST)

    cache = ResultCache(tmp_path)
    assert len(cache) == 4
    for n in range(4):
        assert cache.get(key_for(n)) == record_for(n)
    assert cache.fsck()["corrupt_removed"] == 0
    assert record_files(tmp_path) == before


# -- fault battery: record corruption and write failures ------------------


def test_truncated_record_is_a_miss_and_removed(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(key_for(0), record_for(0, pad=512))
    assert len(cache) == 1
    path = cache.path_for(key_for(0))
    path.write_bytes(path.read_bytes()[:64])
    assert cache.get(key_for(0)) is None
    assert not path.exists()
    assert cache.stats()["entries"] == cache.stats()["bytes"] == 0


def test_full_disk_put_degrades_to_false_not_crash(tmp_path,
                                                   monkeypatch):
    cache = ResultCache(tmp_path)
    assert cache.put(key_for(0), record_for(0)) is True

    def no_space(*args, **kwargs):
        raise OSError(28, "No space left on device")
    monkeypatch.setattr(tempfile, "mkstemp", no_space)
    assert cache.put(key_for(1), record_for(1)) is False
    assert cache.put(key_for(2), record_for(2)) is False
    assert cache.put_errors == 2
    monkeypatch.undo()
    # Nothing partial appeared; the store still works.
    assert cache.get(key_for(1)) is None
    assert cache.get(key_for(0)) == record_for(0)
    assert cache.put(key_for(1), record_for(1)) is True


def test_full_disk_does_not_abort_a_sweep(tmp_path, monkeypatch):
    """End to end: every cache write failing costs future misses,
    never the sweep."""
    def no_space(*args, **kwargs):
        raise OSError(28, "No space left on device")
    monkeypatch.setattr(tempfile, "mkstemp", no_space)
    cache = ResultCache(tmp_path)
    point = DesignPoint.from_assignment({"n_pps": 2})
    result = run_sweep(FIR_SOURCE, [point], workers=1, cache=cache)
    assert result.records[0]["ok"]
    assert cache.put_errors >= 1
    assert len(cache) == 0


def _put_until_killed(root, ready):
    store = ResultCache(root)
    n = 0
    ready.set()
    while True:
        store.put(key_for(n), record_for(n, pad=4096))
        n += 1


def test_sigkill_mid_put_leaves_no_partial_record(tmp_path):
    """SIGKILL a writer at a random moment: every record file that
    exists afterwards parses completely (atomic rename), and fsck
    finds no corrupt records — at worst a temp-file corpse."""
    context = multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods()
        else None)
    ready = context.Event()
    writer = context.Process(target=_put_until_killed,
                             args=(str(tmp_path), ready))
    writer.start()
    assert ready.wait(30)
    time.sleep(0.2)  # let a few dozen puts land
    os.kill(writer.pid, signal.SIGKILL)
    writer.join(30)

    for key, raw in record_files(tmp_path).items():
        record = json.loads(raw)  # every survivor parses whole
        assert record["pad"] == "x" * 4096

    cache = ResultCache(tmp_path)
    report = cache.fsck()
    assert report["corrupt_removed"] == 0
    assert report["files"] >= 1
    assert report["entries"] == report["files"] == len(cache)
    assert_index_matches_walk(cache)


def _evict_loop(root, rounds):
    store = ResultCache(root, max_entries=5)
    for n in range(rounds):
        store.put(key_for(n), record_for(n, pad=1024))


def _read_loop(root, rounds, failures):
    store = ResultCache(root)
    for n in range(rounds):
        try:
            record = store.get(key_for(n % 40))
        except Exception as error:  # noqa: BLE001 — the assertion
            failures.put(f"get raised {type(error).__name__}: "
                         f"{error}")
            return
        if record is not None and record.get("pad") != "x" * 1024:
            failures.put(f"torn read: {sorted(record)}")
            return


def test_concurrent_evict_vs_get_across_processes(tmp_path):
    """One process evicting under a tight bound, one reading the
    same keys: reads are hits or misses, never exceptions or torn
    records."""
    context = multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods()
        else None)
    failures = context.Queue()
    ResultCache(tmp_path).put(key_for(0), record_for(0, pad=1024))
    evictor = context.Process(target=_evict_loop,
                              args=(str(tmp_path), 200))
    reader = context.Process(target=_read_loop,
                             args=(str(tmp_path), 200, failures))
    evictor.start()
    reader.start()
    evictor.join(120)
    reader.join(120)
    assert evictor.exitcode == 0 and reader.exitcode == 0
    assert failures.empty(), failures.get()
    # The bound held: the survivors are the 5 newest keys.
    final = ResultCache(tmp_path)
    assert len(final) == 5
    assert sorted(record_files(tmp_path)) == sorted(
        key_for(n) for n in range(195, 200))


# -- fault battery: fsck --------------------------------------------------


def test_fsck_reanchors_the_index_on_the_directory(tmp_path):
    cache = ResultCache(tmp_path)
    for n in range(3):
        cache.put(key_for(n), record_for(n))
    assert len(cache) == 3
    # Diverge both ways behind the handle's back: one foreign flat
    # write (unindexed) and one vanished file (indexed, gone).
    foreign = key_for(10)
    path = tmp_path / foreign[:2] / f"{foreign}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record_for(10)), encoding="utf-8")
    cache.path_for(key_for(0)).unlink()

    report = cache.fsck()
    assert report["corrupt_removed"] == 0
    assert report["files"] == report["entries"] == 3
    assert record_files(tmp_path).keys() == {key_for(1), key_for(2),
                                             foreign}
    assert_index_matches_walk(cache)
    assert cache.get(key_for(0)) is None
    assert cache.get(foreign) == record_for(10)


def test_fsck_removes_corpses(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(key_for(0), record_for(0))
    shard = cache.path_for(key_for(0)).parent
    (shard / "tmpdead123.tmp").write_bytes(b"half a rec")
    bad = key_for(1)
    bad_path = tmp_path / bad[:2] / f"{bad}.json"
    bad_path.parent.mkdir(parents=True, exist_ok=True)
    bad_path.write_bytes(b"{torn")
    report = cache.fsck()
    assert report["tmp_removed"] == 1
    assert report["corrupt_removed"] == 1
    assert report["files"] == 2  # scanned both .json files
    assert report["entries"] == 1
    assert record_files(tmp_path).keys() == {key_for(0)}
    assert not bad_path.exists()
    # The emptied shard of the corrupt record is gone too.
    assert not bad_path.parent.exists()


# -- bounds + LRU eviction ------------------------------------------------


def test_lru_eviction_respects_access_order(tmp_path):
    cache = ResultCache(tmp_path, max_entries=3)
    for n in range(3):
        cache.put(key_for(n), record_for(n))
    assert cache.get(key_for(0)) is not None  # 0 is now MRU
    cache.put(key_for(3), record_for(3))
    # Victim is 1 (the least recently accessed), never 0 or 3.
    assert record_files(tmp_path).keys() == {key_for(0), key_for(2),
                                             key_for(3)}
    assert cache.evictions == 1
    assert len(cache) == 3
    assert cache.stats()["evictions"] == 1
    # The recency persists: a fresh handle scans the same order.
    assert [key for key, __ in walk(tmp_path)] == [
        key_for(2), key_for(0), key_for(3)]


def test_just_written_key_is_never_its_own_victim(tmp_path):
    cache = ResultCache(tmp_path, max_entries=1)
    cache.put(key_for(0), record_for(0))
    cache.put(key_for(1), record_for(1))
    assert record_files(tmp_path).keys() == {key_for(1)}
    assert cache.get(key_for(1)) == record_for(1)


def test_max_bytes_evicts_down_to_the_bound(tmp_path):
    cache = ResultCache(tmp_path)
    for n in range(6):
        cache.put(key_for(n), record_for(n, pad=1000))
    total = cache.stats()["bytes"]
    evicted = cache.set_bounds(None, total // 2)
    assert evicted >= 1
    assert cache.stats()["bytes"] <= total // 2
    # The newest key always survives a byte-bound squeeze.
    assert cache.path_for(key_for(5)).exists()
    assert_index_matches_walk(cache)


def test_evicted_shard_directories_are_pruned(tmp_path):
    cache = ResultCache(tmp_path, max_entries=1)
    cache.put(key_for(0), record_for(0))
    first_shard = cache.path_for(key_for(0)).parent
    cache.put(key_for(1), record_for(1))
    assert not first_shard.exists()


def test_gc_enforces_bounds_and_reports(tmp_path):
    cache = ResultCache(tmp_path)
    for n in range(8):
        cache.put(key_for(n), record_for(n))
    cache.max_entries = 3
    report = cache.gc()
    assert report["evicted"] == 5
    assert report["entries"] == 3
    assert len(ResultCache(tmp_path)) == 3
    # The survivors are the three most recently written.
    assert record_files(tmp_path).keys() == {key_for(n)
                                             for n in range(5, 8)}


def test_bounded_sweep_survivors_equal_unbounded(tmp_path):
    """A bounded cache changes which records *survive on disk*, not
    the sweep result — and the survivors are byte-identical to their
    unbounded counterparts."""
    space = DesignSpace({"n_pps": [1, 2, 3], "n_buses": [4, 10]})
    points = space.grid()
    flat_root = tmp_path / "flat"
    bound_root = tmp_path / "bounded"
    flat = run_sweep(FIR_SOURCE, points, workers=1, cache=flat_root)
    bounded = run_sweep(FIR_SOURCE, points, workers=1,
                        cache=bound_root, cache_max_entries=2)
    assert json.dumps(flat.records, sort_keys=True) == \
        json.dumps(bounded.records, sort_keys=True)
    flat_files = record_files(flat_root)
    bound_files = record_files(bound_root)
    assert len(bound_files) == 2
    assert set(bound_files) <= set(flat_files)
    for key, raw in bound_files.items():
        assert raw == flat_files[key]


# -- foreign writers ------------------------------------------------------


def test_get_serves_foreign_flat_writes(tmp_path):
    """A record another handle dropped in behind this one's back is
    served at once, and counted from the next scan on."""
    cache = ResultCache(tmp_path)
    cache.put(key_for(0), record_for(0))
    assert len(cache) == 1
    foreign = key_for(1)
    path = tmp_path / foreign[:2] / f"{foreign}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record_for(1)), encoding="utf-8")
    assert cache.get(foreign) == record_for(1)
    cache.invalidate_count()
    assert len(cache) == 2
    assert_index_matches_walk(cache)


# -- clear ----------------------------------------------------------------


def test_clear_removes_shard_dirs_and_resets_counters(tmp_path):
    cache = ResultCache(tmp_path)
    for n in range(6):
        cache.put(key_for(n), record_for(n))
    assert cache.stats()["entries"] == 6
    assert cache.clear() == 6
    # No empty two-hex shard directories left behind.
    assert list(tmp_path.glob("??")) == []
    stats = cache.stats()
    assert stats["entries"] == 0
    assert stats["bytes"] == 0
    # The store is immediately usable again.
    assert cache.put(key_for(0), record_for(0)) is True
    assert cache.get(key_for(0)) == record_for(0)


def test_clear_tolerates_a_record_removed_under_it(tmp_path,
                                                  monkeypatch):
    """A record evicted or discarded by another handle between
    clear's listing and its unlink is skipped, not a crash, and is
    not counted as removed."""
    cache = ResultCache(tmp_path)
    for n in range(6):
        cache.put(key_for(n), record_for(n))
    real_glob = pathlib.Path.glob

    def list_then_evict(self, pattern):
        listed = sorted(real_glob(self, pattern))
        if pattern == "??/*.json" and listed:
            os.unlink(listed[0])  # a concurrent eviction
        return iter(listed)

    monkeypatch.setattr(pathlib.Path, "glob", list_then_evict)
    assert cache.clear() == 5
    monkeypatch.undo()
    assert record_files(tmp_path) == {}
    assert len(cache) == 0


# -- hypothesis: random op sequences vs a model ---------------------------

_KEY_POOL = [key_for(f"pool-{n}") for n in range(6)]

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.integers(0, 5),
                  st.integers(0, 200)),
        st.tuples(st.just("get"), st.integers(0, 5)),
        st.tuples(st.just("corrupt"), st.integers(0, 5)),
        st.tuples(st.just("clear")),
    ),
    max_size=30)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=_OPS)
def test_index_always_agrees_with_directory(ops):
    """After every step of any put/get/corrupt/clear sequence, the
    handle's entry count, byte total and LRU order equal a walk of
    the directory (recency read back from the file mtimes), and
    every surviving record round-trips bit-identically."""
    with tempfile.TemporaryDirectory() as root_name:
        cache = ResultCache(root_name)
        root = cache.root
        model: dict[str, bytes] = {}
        for op in ops:
            if op[0] == "put":
                __, index, n = op
                key = _KEY_POOL[index]
                record = record_for(n, pad=n)
                assert cache.put(key, record) is True
                model[key] = json.dumps(dict(record)).encode("utf-8")
            elif op[0] == "get":
                key = _KEY_POOL[op[1]]
                record = cache.get(key)
                if key in model:
                    assert json.dumps(dict(record)).encode("utf-8") \
                        == model[key]
                else:
                    assert record is None
            elif op[0] == "corrupt":
                key = _KEY_POOL[op[1]]
                if key in model:
                    cache.path_for(key).write_bytes(b"{torn")
                    assert cache.get(key) is None
                    del model[key]
            else:
                cache.clear()
                model.clear()
            assert record_files(root) == model
            assert_index_matches_walk(cache)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.integers(0, 5)),
        st.tuples(st.just("get"), st.integers(0, 5)),
    ),
    max_size=40), bound=st.integers(1, 4))
def test_lru_eviction_matches_the_model_exactly(ops, bound):
    """Under a ``max_entries`` bound, the store's surviving key set
    equals an exact LRU model's after every operation — so the most
    recently accessed key is never evicted, by construction."""
    with tempfile.TemporaryDirectory() as root_name:
        cache = ResultCache(root_name, max_entries=bound)
        order: list[str] = []  # least → most recently accessed
        for op in ops:
            key = _KEY_POOL[op[1]]
            if op[0] == "put":
                cache.put(key, record_for(op[1]))
                if key in order:
                    order.remove(key)
                order.append(key)
                while len(order) > bound:
                    order.pop(0)
            else:
                record = cache.get(key)
                if key in order:
                    assert record is not None
                    order.remove(key)
                    order.append(key)
                else:
                    assert record is None
            assert set(record_files(root_name)) == set(order)
            if order:
                # MRU always survives.
                assert cache.path_for(order[-1]).exists()
        assert len(cache) == len(order)
