"""Tests for the unified artifact store (and ResultCache hardening).

Covers the satellite requirements: corrupt/truncated cache entries
are deleted and degrade to misses (a crashed writer must not poison
the shared store), and concurrent cross-process put/get on one key
never produces a torn read (atomic rename semantics).
"""

import json
import multiprocessing
import tempfile

import pytest

from repro.dse.cache import ResultCache, cache_key
from repro.dse.runner import evaluate_point, run_sweep
from repro.dse.space import DesignPoint
from repro.service import ServiceClient, ServiceThread

from tests.conftest import FIR_SOURCE

KEY = "ab" + "cd" * 31  # 64 hex chars, shard "ab"


def _record(n=0, ok=True, verified=None):
    record = {"ok": ok, "metrics": {"cycles": n}, "n": n}
    if verified is not None:
        record["verified"] = verified
    return record


# -- corrupt-entry hardening (ResultCache and therefore the store) --------

@pytest.mark.parametrize("garbage", [
    b"",                       # truncated to nothing
    b"{\"ok\": true",          # truncated mid-object
    b"not json at all \x00",   # binary junk
    b"[1, 2, 3]",              # valid JSON, wrong shape
])
def test_corrupt_entry_is_deleted_and_misses(tmp_path, garbage):
    cache = ResultCache(tmp_path)
    path = cache.path_for(KEY)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(garbage)
    assert cache.get(KEY) is None
    assert not path.exists(), "poisoned entry must be removed"
    assert len(cache) == 0
    # The key is immediately writable again.
    cache.put(KEY, _record(7))
    assert cache.get(KEY)["n"] == 7


def test_missing_entry_is_a_plain_miss(tmp_path):
    cache = ResultCache(tmp_path)
    assert cache.get(KEY) is None
    assert len(cache) == 0 and list(tmp_path.glob("??")) == []


def test_corrupt_entry_does_not_abort_a_sweep(tmp_path):
    """End to end: a garbage file under a real sweep key degrades to
    re-evaluation, not an exception."""
    cache = ResultCache(tmp_path)
    point = DesignPoint.from_assignment({"n_pps": 2})
    key = cache_key(FIR_SOURCE, point)
    path = cache.path_for(key)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("{broken")
    result = run_sweep(FIR_SOURCE, [point], workers=1, cache=cache)
    assert result.records[0]["ok"]
    assert result.stats.evaluated == 1
    assert result.stats.cached == 0
    # The fresh record replaced the garbage.
    assert json.loads(path.read_text())["ok"] is True


# -- ResultCache.admit policy ---------------------------------------------

def test_store_is_a_result_cache(tmp_path):
    store = ResultCache(tmp_path)
    assert isinstance(store, ResultCache)
    # Same layout: a ResultCache over the same root sees the entry.
    store.put(KEY, _record(1))
    assert ResultCache(tmp_path).get(KEY)["n"] == 1


def test_admit_rejects_failure_records(tmp_path):
    store = ResultCache(tmp_path)
    assert store.admit(KEY, _record(ok=False)) is False
    assert len(store) == 0
    assert store.admit(KEY, _record(ok=True)) is True
    assert len(store) == 1


def test_admit_reports_failed_writes(tmp_path, monkeypatch):
    """A full disk turns admit into ``False`` (the daemon keeps
    serving from memory), never an exception."""
    store = ResultCache(tmp_path)

    def no_space(*args, **kwargs):
        raise OSError(28, "No space left on device")
    monkeypatch.setattr(tempfile, "mkstemp", no_space)
    assert store.admit(KEY, _record(ok=True)) is False
    assert store.put_errors == 1
    assert len(store) == 0


def test_lookup_honours_verification(tmp_path):
    store = ResultCache(tmp_path)
    store.put(KEY, _record(1))
    assert store.get(KEY) is not None
    # Unverified record cannot satisfy a verifying caller.
    assert store.get(KEY, want_verified=True) is None
    store.put(KEY, _record(1, verified=True))
    assert store.get(KEY, want_verified=True) is not None


def test_map_record_satisfies_sweep_and_vice_versa(tmp_path):
    """The unification acceptance: one store, shared keys, both
    populations interchangeable."""
    store = ResultCache(tmp_path)
    point = DesignPoint.from_assignment({"n_pps": 4, "n_buses": 10})
    key = cache_key(FIR_SOURCE, point)
    # A "map job" records its result...
    store.admit(key, evaluate_point(FIR_SOURCE, point))
    # ...and a sweep over the same grid point is a pure cache read.
    result = run_sweep(FIR_SOURCE, [point], workers=1, cache=store)
    assert result.stats.cached == 1
    assert result.stats.evaluated == 0


# -- concurrent access (atomic rename semantics) --------------------------

def _hammer_writes(root, key, rounds):
    store = ResultCache(root)
    for index in range(rounds):
        store.put(key, {"ok": True, "n": index,
                        "pad": "x" * 4096})  # big enough to tear


def _hammer_reads(root, key, rounds, failures):
    store = ResultCache(root)
    seen = 0
    for __ in range(rounds):
        record = store.get(key)
        if record is None:
            continue  # not yet written — a miss, never an error
        seen += 1
        if record.get("pad") != "x" * 4096 or "n" not in record:
            failures.put(f"torn read: {record.keys()}")
    if seen == 0:
        failures.put("reader never observed a record")


def test_concurrent_put_get_never_tears(tmp_path):
    """Two processes hammer one key; every read parses and is a
    complete record (os.replace atomicity)."""
    context = multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods()
        else None)
    failures = context.Queue()
    store = ResultCache(tmp_path)   # pre-create the directory
    store.put(KEY, {"ok": True, "n": -1, "pad": "x" * 4096})
    writer = context.Process(target=_hammer_writes,
                             args=(str(tmp_path), KEY, 300))
    reader = context.Process(target=_hammer_reads,
                             args=(str(tmp_path), KEY, 300, failures))
    writer.start()
    reader.start()
    writer.join(60)
    reader.join(60)
    assert writer.exitcode == 0 and reader.exitcode == 0
    assert failures.empty(), failures.get()
    # The surviving entry is whole.
    final = store.get(KEY)
    assert final is not None and final["pad"] == "x" * 4096


# -- a live daemon's store -----------------------------------------------

OTHER = "ef" + "01" * 31


@pytest.fixture()
def warm_daemon(tmp_path):
    store = ResultCache(tmp_path / "store")
    store.put(KEY, _record(1))
    store.put(OTHER, _record(2, verified=True))
    with ServiceThread(store=tmp_path / "store",
                       workers=2) as thread:
        yield ServiceClient(*thread.address), thread


def test_stats_after_server_side_clear(warm_daemon):
    """``cache clear`` against a live daemon's directory: the /stats
    view drops to zero entries and bytes."""
    client, thread = warm_daemon
    assert client.stats()["store"]["entries"] == 2
    thread.service.store.clear()
    stats = client.stats()["store"]
    assert stats["entries"] == 0
    assert stats["bytes"] == 0
    # The daemon keeps serving: a new record is admitted cleanly.
    assert thread.service.store.admit(KEY, _record(3)) is True
    assert client.stats()["store"]["entries"] == 1
    assert thread.service.store.get(KEY) == _record(3)
