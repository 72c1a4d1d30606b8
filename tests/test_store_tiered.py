"""Fault-injection battery + property tests for the tiered store.

The tiered :class:`~repro.dse.cache.ResultCache` (sqlite manifest
index, LRU bounds, fsck) carries every sweep's and daemon's records,
so its failure modes are the fleet's failure modes.  The battery
pins the contract from ``docs/store.md``:

* the record files are the truth and stay **bit-identical** to the
  flat pre-manifest format — an old flat directory opens in place;
* *no* store failure crashes a caller: torn/truncated manifests and
  records, full disks and killed writers all degrade to a miss (or a
  ``False`` put) plus a counted event;
* the manifest always reconverges with the directory (lazily on
  open, explicitly via ``fsck``);
* LRU eviction never removes the most recently accessed record.

The hypothesis section drives random put/get/gc/clear sequences
against a parallel in-memory model and checks manifest/directory
agreement, exact LRU eviction and bit-identical round-trips after
every step.
"""

import hashlib
import json
import multiprocessing
import os
import signal
import sqlite3
import tempfile
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dse.cache import (
    MANIFEST_NAME,
    ResultCache,
    cache_key,
)
from repro.dse.runner import run_sweep
from repro.dse.space import DesignPoint, DesignSpace

from tests.conftest import FIR_SOURCE


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
            for path in root.glob("??/*.json")}


def manifest_rows(root) -> dict:
    """key -> (size, last_access) straight from sqlite — the tests'
    independent view of the index, no ResultCache involved.  An
    absent manifest (never opened, nothing stored) reads as empty."""
    path = root / MANIFEST_NAME
    if not path.exists():
        return {}
    connection = sqlite3.connect(path)
    try:
        return {key: (size, last_access) for key, size, last_access
                in connection.execute(
                    "SELECT key, size, last_access FROM entries")}
    finally:
        connection.close()


# -- index tier -----------------------------------------------------------


def test_record_bytes_identical_to_flat_format(tmp_path):
    """The manifest never touches record bytes: a tiered put writes
    exactly ``json.dumps(dict(record))`` — the flat store's format,
    key order preserved."""
    cache = ResultCache(tmp_path)
    record = {"z_last": 1, "ok": True, "a_first": 2,
              "metrics": {"cycles": 3, "energy": 4}}
    cache.put(key_for(0), record)
    raw = cache.path_for(key_for(0)).read_bytes()
    assert raw == json.dumps(dict(record)).encode("utf-8")
    # Round-trip preserves key order (no sort_keys anywhere).
    assert list(cache.get(key_for(0))) == list(record)


def test_legacy_flat_directory_opens_in_place(tmp_path):
    """A pre-manifest store (bare shard dirs, no manifest.db) opens
    unchanged: the manifest is rebuilt lazily from the files and
    every record is served bit-identically."""
    payloads = {}
    for n in range(5):
        key = key_for(n)
        path = tmp_path / key[:2] / f"{key}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(record_for(n)).encode("utf-8")
        path.write_bytes(payload)
        payloads[key] = payload
    assert not (tmp_path / MANIFEST_NAME).exists()

    cache = ResultCache(tmp_path)
    assert len(cache) == 5
    assert cache.manifest_rebuilds == 1
    assert sorted(cache.keys()) == sorted(payloads)
    for key, payload in payloads.items():
        assert key in cache
        assert cache.get(key) == json.loads(payload)
        # The files were not rewritten by indexing.
        assert cache.path_for(key).read_bytes() == payload
    assert (tmp_path / MANIFEST_NAME).exists()
    assert manifest_rows(tmp_path).keys() == payloads.keys()


def test_lazy_rebuild_keeps_a_row_recorded_after_its_scan(tmp_path,
                                                         monkeypatch):
    """Two instances open one old flat directory.  The first one's
    lazy rebuild scans the files and then stalls; meanwhile the
    second indexes the directory and records a fresh put.  When the
    stalled rebuild writes, the fresh put's row must survive — it
    used to be wiped by the rebuild's ``DELETE FROM entries``."""
    import threading

    from repro.dse import cache as cache_module

    for n in range(3):
        path = tmp_path / key_for(n)[:2] / f"{key_for(n)}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(record_for(n)))
    real_scan = cache_module._scan_records
    scanned, resume = threading.Event(), threading.Event()

    def stalled_first_scan(root):
        rows = real_scan(root)
        if not scanned.is_set():
            scanned.set()
            assert resume.wait(timeout=30)
        return rows

    monkeypatch.setattr(cache_module, "_scan_records", stalled_first_scan)
    first = ResultCache(tmp_path)
    opener = threading.Thread(target=len, args=(first,))
    opener.start()
    assert scanned.wait(timeout=30)
    second = ResultCache(tmp_path)
    assert second.put(key_for(3), record_for(3))
    resume.set()
    opener.join(timeout=30)
    assert not opener.is_alive()

    keys = {key_for(n) for n in range(4)}
    assert manifest_rows(tmp_path).keys() == keys
    assert len(ResultCache(tmp_path)) == 4
    # The rebuilt rows are older than the put that raced them, so the
    # fresh record is the last the LRU bound would evict.
    stamps = {key: stamp for key, (__, stamp)
              in manifest_rows(tmp_path).items()}
    assert max(stamps, key=stamps.get) == key_for(3)


def test_keys_and_stats_come_from_the_manifest(tmp_path):
    cache = ResultCache(tmp_path)
    for n in range(4):
        cache.put(key_for(n), record_for(n))
    stats = cache.stats()
    assert stats["entries"] == 4
    assert stats["bytes"] == sum(
        len(raw) for raw in record_files(tmp_path).values())
    assert stats["manifest_active"] is True
    assert sorted(cache.keys()) == sorted(key_for(n)
                                          for n in range(4))


# -- fault battery: manifest corruption -----------------------------------


@pytest.mark.parametrize("corrupt", [
    lambda path: path.write_bytes(b"this is not a sqlite file"),
    lambda path: path.write_bytes(path.read_bytes()[:100]),
    lambda path: path.unlink(),
])
def test_torn_manifest_recovers_from_the_files(tmp_path, corrupt):
    """Garbage, truncation or deletion of manifest.db: the next
    instance rebuilds the index from the record files and serves
    everything — the manifest is rebuildable state, never truth."""
    first = ResultCache(tmp_path)
    for n in range(4):
        first.put(key_for(n), record_for(n))
    before = record_files(tmp_path)
    del first
    for suffix in ("-wal", "-shm"):
        try:
            os.unlink(tmp_path / f"{MANIFEST_NAME}{suffix}")
        except OSError:
            pass
    corrupt(tmp_path / MANIFEST_NAME)

    cache = ResultCache(tmp_path)
    assert len(cache) == 4
    for n in range(4):
        assert cache.get(key_for(n)) == record_for(n)
    assert cache.manifest_active
    assert cache.manifest_rebuilds >= 1
    # Recovery never rewrote a record.
    assert record_files(tmp_path) == before


def test_manifest_version_mismatch_triggers_rebuild(tmp_path):
    first = ResultCache(tmp_path)
    first.put(key_for(0), record_for(0))
    del first
    connection = sqlite3.connect(tmp_path / MANIFEST_NAME)
    with connection:
        connection.execute(
            "UPDATE meta SET value='9999' WHERE name='version'")
    connection.close()
    cache = ResultCache(tmp_path)
    assert cache.get(key_for(0)) == record_for(0)
    assert cache.manifest_rebuilds >= 1


def test_dead_manifest_degrades_to_flat_behaviour(tmp_path):
    """With the index tier gone for good (forced dead), the store
    still serves: directory-walk len, file-probe contains, get/put —
    only bounds enforcement is lost."""
    cache = ResultCache(tmp_path, max_entries=2)
    for n in range(2):
        cache.put(key_for(n), record_for(n))
    cache._manifest_dead = True  # what repeated sqlite failure sets
    assert len(ResultCache(tmp_path)) == 2
    cache.invalidate_count()
    assert len(cache) == 2          # glob fallback
    assert key_for(0) in cache      # file-probe fallback
    assert cache.get(key_for(0)) == record_for(0)
    assert cache.put(key_for(5), record_for(5)) is True
    assert cache.get(key_for(5)) == record_for(5)
    # No manifest, no eviction — unbounded growth, not a crash.
    assert len(cache) == 3
    assert cache.stats()["manifest_active"] is False
    assert cache.stats()["bytes"] is None


# -- fault battery: record corruption and write failures ------------------


def test_truncated_record_is_a_miss_and_removed(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(key_for(0), record_for(0, pad=512))
    path = cache.path_for(key_for(0))
    path.write_bytes(path.read_bytes()[:64])
    assert cache.get(key_for(0)) is None
    assert not path.exists()
    assert key_for(0) not in manifest_rows(tmp_path)


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
    finds no corrupt records — at worst a temp-file corpse and a
    file/manifest divergence, both healed."""
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
    # After fsck, manifest and directory agree exactly.
    assert manifest_rows(tmp_path).keys() == \
        record_files(tmp_path).keys()
    assert len(cache) == report["files"]


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
    assert sorted(final.keys()) == sorted(key_for(n)
                                          for n in range(195, 200))


# -- fault battery: fsck --------------------------------------------------


def test_fsck_heals_manifest_directory_divergence(tmp_path):
    cache = ResultCache(tmp_path)
    for n in range(3):
        cache.put(key_for(n), record_for(n))
    # Diverge both ways behind the manifest's back: one foreign flat
    # write (file, no row) and one vanished file (row, no file).
    foreign = key_for(10)
    path = tmp_path / foreign[:2] / f"{foreign}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record_for(10)), encoding="utf-8")
    cache.path_for(key_for(0)).unlink()

    report = cache.fsck()
    assert report["rows_added"] == 1
    assert report["rows_dropped"] == 1
    assert report["corrupt_removed"] == 0
    expected = {key_for(1), key_for(2), foreign}
    assert set(cache.keys()) == expected
    assert manifest_rows(tmp_path).keys() == expected
    assert len(cache) == 3
    assert key_for(0) not in cache
    assert foreign in cache


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
    assert set(cache.keys()) == {key_for(0)}
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
    assert set(cache.keys()) == {key_for(0), key_for(2), key_for(3)}
    assert cache.evictions == 1
    assert len(cache) == 3
    assert cache.stats()["evictions"] == 1


def test_just_written_key_is_never_its_own_victim(tmp_path):
    cache = ResultCache(tmp_path, max_entries=1)
    cache.put(key_for(0), record_for(0))
    cache.put(key_for(1), record_for(1))
    assert set(cache.keys()) == {key_for(1)}
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
    assert key_for(5) in cache


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


# -- __contains__ / probe (the poisoned-entry satellite) ------------------


def test_contains_rejects_poisoned_entry(tmp_path):
    """Regression: ``in`` used to be a bare path.exists(), reporting
    garbage bytes as a present record."""
    cache = ResultCache(tmp_path)
    path = cache.path_for(key_for(0))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(b"\x00 garbage, not a record")
    assert key_for(0) not in cache
    # And the corpse is gone — not re-parsed on every probe.
    assert not path.exists()


def test_contains_sees_foreign_flat_writes(tmp_path):
    """A record a flat writer dropped in behind the manifest's back
    is present (and healed into the index)."""
    cache = ResultCache(tmp_path)
    cache.put(key_for(0), record_for(0))  # manifest exists now
    foreign = key_for(1)
    path = tmp_path / foreign[:2] / f"{foreign}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record_for(1)), encoding="utf-8")
    assert foreign in cache
    assert foreign in manifest_rows(tmp_path)  # healed


def test_probe_applies_the_verification_rule(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(key_for(0), record_for(0))
    cache.put(key_for(1), {**record_for(1), "verified": True})
    rows = manifest_rows(tmp_path)
    assert cache.probe(key_for(0))
    assert not cache.probe(key_for(0), want_verified=True)
    assert cache.probe(key_for(1), want_verified=True)
    # probe never touches the LRU order.
    assert manifest_rows(tmp_path) == rows


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


# -- hypothesis: random op sequences vs a model ---------------------------

_KEY_POOL = [key_for(f"pool-{n}") for n in range(6)]

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.integers(0, 5),
                  st.integers(0, 200)),
        st.tuples(st.just("get"), st.integers(0, 5)),
        st.tuples(st.just("clear")),
    ),
    max_size=30)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=_OPS)
def test_manifest_always_agrees_with_directory(ops):
    """After any put/get/clear sequence the manifest and the
    directory agree on entry count, byte total and key set, and
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
            else:
                cache.clear()
                model.clear()
        files = record_files(root)
        assert files == model
        rows = manifest_rows(root)
        assert rows.keys() == model.keys()
        assert sum(size for size, __ in rows.values()) == \
            sum(len(raw) for raw in model.values())
        assert cache.stats()["entries"] == len(model)


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
            assert set(cache.keys()) == set(order)
            if order:
                assert order[-1] in cache  # MRU always survives
        assert len(cache) == len(order)
