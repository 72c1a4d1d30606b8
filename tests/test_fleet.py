"""Fleet acceptance: the platform's guarantees against real daemons.

The paper's flow is deterministic, so a mapping computed on a remote
``fpfa-map serve`` daemon must be bit-identical to one computed
in-process — through concurrent clients, sharding, daemon death,
store bounds, peering, tracing and injected faults.  Every test here
drives subprocess daemons from the one ``fleet`` fixture and compares
against one local ``run_sweep`` ground truth over one grid.  Killing
a subprocess is a *real* death (SIGKILL, sockets torn down
mid-request), which the in-process ``ServiceThread`` tests beside
each layer cannot stage.

The fixture's teardown is part of every test: each daemon the test
did not deliberately kill must exit 0 after ``POST /shutdown``.
"""

import concurrent.futures
import http.client
import json
import os
import pathlib
import signal
import subprocess
import sys
import threading
import time

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:  # `python -m pytest` from elsewhere
    sys.path.insert(0, str(ROOT))

from tools.chaos import ChaosProxy, ChaosSchedule  # noqa: E402

from repro.cli import main as cli_main
from repro.dse.cache import ResultCache
from repro.dse.checkpoint import JOURNAL_NAME, load_journal
from repro.dse.distributed import run_distributed_sweep
from repro.dse.runner import run_sweep
from repro.dse.space import DesignSpace
from repro.eval.kernels import KERNELS, get_kernel
from repro.obs.critical import critical_path, render_critical
from repro.obs.export import (
    TRACE_LOG_NAME,
    harvest_daemons,
    load_trace,
    recording,
    to_chrome_trace,
)
from repro.obs.metrics import parse_prometheus
from repro.service.client import ServiceClient, ServiceError
from repro.service.resilience import RetryPolicy
from repro.service.subproc import DaemonProcess

KERNEL = "fir5"
SOURCE = get_kernel(KERNEL).source

#: The one swept grid: 24 points, enough chunks that a mid-sweep
#: kill always strands leases and the storm sees plenty of
#: connections.
AXES = {"n_pps": [1, 2, 3, 4, 6, 8], "n_buses": [2, 4, 6, 10]}
SPACE = DesignSpace(AXES)

DAEMONS = 2
#: Worker pool per fleet daemon; the service and metrics checks run
#: a wider pool of worker processes, the mode ``serve`` defaults to.
WORKERS = 2
SERVICE_WORKERS = 4
#: Concurrent submitting clients in the service check.
CLIENTS = 8
#: Points per lease; the chaos sweeps lease smaller chunks.
CHUNK_SIZE = 3
CHAOS_CHUNK_SIZE = 2
#: The LRU entry bound of the store checks.
MAX_ENTRIES = 4

#: Families ``/metrics`` must expose, with their declared types: one
#: per layer the daemon aggregates.
REQUIRED_FAMILIES = {
    "fpfa_service_uptime_seconds": "gauge",
    "fpfa_service_submits_total": "counter",
    "fpfa_service_computed_total": "counter",
    "fpfa_service_failed_total": "counter",
    "fpfa_service_store_hits_total": "counter",
    "fpfa_queue_depth": "gauge",
    "fpfa_queue_coalesced_total": "counter",
    "fpfa_jobs_total": "counter",
    "fpfa_job_wait_seconds": "histogram",
    "fpfa_job_runtime_seconds": "histogram",
    "fpfa_store_entries": "gauge",
    "fpfa_workers": "gauge",
    "fpfa_chunk_leases_total": "counter",
    "fpfa_chunk_releases_total": "counter",
}

#: The storm the fault-storm fleet lives behind.  ``grace`` exempts
#: the coordinator's probe and peering connections so the fleet is
#: admitted before the weather starts.
STORM = dict(faults={"latency": 0.20, "reset": 0.10,
                     "inject-503": 0.08, "truncate": 0.05},
             latency=0.05, truncate_after=120, grace=4)

#: The storm-riding coordinator policy: more attempts than the
#: default, tight delays.
STORM_RETRY = RetryPolicy(attempts=5, base_delay=0.05,
                          max_delay=0.5, jitter=0.25, seed=7)

#: Extend, never replace: the interpreter may need inherited vars
#: (LD_LIBRARY_PATH for shared builds, VIRTUAL_ENV, ...).
SUBPROCESS_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [
        str(ROOT / "src"), os.environ.get("PYTHONPATH")])),
}


def canon(payload) -> str:
    return json.dumps(payload, sort_keys=True)


def hostport(address) -> str:
    return "%s:%d" % tuple(address)


def urls(daemons) -> list[str]:
    return [daemon.url for daemon in daemons]


class Fleet:
    """Starts :class:`DaemonProcess` daemons, each on a fresh store
    under one directory, plus any chaos proxies in front of them, and
    tears all of it down."""

    def __init__(self, root: pathlib.Path):
        self.root = root
        self.daemons: list[DaemonProcess] = []
        self.killed: set[int] = set()
        self.proxies: list[ChaosProxy] = []

    def store(self, index: int) -> pathlib.Path:
        """The store directory of the *index*-th daemon started."""
        return self.root / f"store-{index}"

    def __call__(self, n: int = DAEMONS, *, workers: int = WORKERS,
                 **options) -> list[DaemonProcess]:
        started = [DaemonProcess(
            self.store(len(self.daemons) + index),
            workers=workers, **options) for index in range(n)]
        self.daemons += started
        with concurrent.futures.ThreadPoolExecutor(n) as pool:
            list(pool.map(DaemonProcess.start, started))
        return started

    def kill(self, daemon: DaemonProcess) -> None:
        """SIGKILL *daemon* on purpose; teardown will not expect a
        clean exit from it unless it is restarted."""
        self.killed.add(id(daemon))
        daemon.kill()

    def proxy(self, daemon: DaemonProcess, **schedule) -> ChaosProxy:
        proxy = ChaosProxy(*daemon.address,
                           ChaosSchedule(**schedule)).start()
        self.proxies.append(proxy)
        return proxy

    def teardown(self) -> list[str]:
        """Stop the proxies, ``POST /shutdown`` every live daemon and
        return what went wrong: a daemon that died untold, refused
        ``/shutdown`` or exited non-zero after it."""
        with concurrent.futures.ThreadPoolExecutor() as pool:
            # A proxy stops on its accept timeout: let them all wind
            # down while the daemons shut down.
            for proxy in self.proxies:
                pool.submit(proxy.stop)
            return self._shut_down_daemons()

    def _shut_down_daemons(self) -> list[str]:
        problems, stopping = [], []
        for daemon in self.daemons:
            process = daemon.process
            if process is None:
                continue
            if process.poll() is not None:
                if id(daemon) not in self.killed:
                    problems.append(f"{daemon.url} died before "
                                    f"teardown ({process.returncode})")
                continue
            try:
                ServiceClient(*daemon.address, timeout=5.0).shutdown()
                stopping.append(daemon)
            except (ServiceError, OSError) as error:
                daemon.kill()
                problems.append(f"{daemon.url}: /shutdown failed: "
                                f"{error!r}")
        for daemon in stopping:
            try:
                code = daemon.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                daemon.kill()
                problems.append(f"{daemon.url} outlived /shutdown")
                continue
            if code != 0:
                problems.append(f"{daemon.url} exited {code} after "
                                f"/shutdown")
        return problems


@pytest.fixture
def fleet(tmp_path):
    fleet = Fleet(tmp_path)
    yield fleet
    problems = fleet.teardown()
    assert not problems, problems


@pytest.fixture(scope="session")
def truth() -> str:
    """The local ground truth every fleet run must reproduce."""
    result = run_sweep(SOURCE, SPACE.grid(), workers=1)
    assert not result.stats.failed, "bad grid"
    return canon(result.records)


def kill_on_first_chunk(fleet, victim, then=None):
    """A progress hook that SIGKILLs *victim* the moment the first
    chunk completes, then calls *then*; ``hook.fired`` records it."""
    fired = threading.Event()

    def hook(event):
        if event["event"] == "chunk" and not fired.is_set():
            fired.set()
            fleet.kill(victim)
            if then is not None:
                then()

    hook.fired = fired
    return hook


def http_get(address, path: str) -> tuple[int, str, bytes]:
    connection = http.client.HTTPConnection(*address, timeout=30)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        body = response.read()
    finally:
        connection.close()
    return (response.status, response.getheader("Content-Type") or "",
            body)


# -- service ----------------------------------------------------------------

def test_service_serves_the_kernel_suite_bit_identically(fleet,
                                                         tmp_path):
    """The kernel suite over concurrent clients matches offline
    ``map --json``; duplicates add zero backend runs; a warm
    resubmit reuses the compiled frontend."""
    with concurrent.futures.ThreadPoolExecutor(1) as pool:
        # The daemon boots while the offline payloads are computed.
        booting = pool.submit(fleet, 1, workers=SERVICE_WORKERS,
                              worker_mode="process")
        offline = {}
        for kernel in KERNELS:
            source_path = tmp_path / f"{kernel.name}.c"
            source_path.write_text(kernel.source)
            json_path = tmp_path / f"{kernel.name}.json"
            assert cli_main(["map", str(source_path), "--json",
                             str(json_path)]) == 0, kernel.name
            offline[kernel.name] = (str(source_path),
                                    json.loads(json_path.read_text()))
        daemon, = booting.result()
    client = ServiceClient(*daemon.address)

    def submit(kernel):
        return ServiceClient(*daemon.address).map_source(
            kernel.source, file=offline[kernel.name][0], timeout=120)

    with concurrent.futures.ThreadPoolExecutor(CLIENTS) as pool:
        served = list(pool.map(submit, KERNELS))
    for kernel, payload in zip(KERNELS, served):
        assert canon(payload) == canon(offline[kernel.name][1]), \
            f"{kernel.name}: daemon payload differs from map --json"
    assert client.stats()["service"]["computed"] == len(KERNELS)

    first = KERNELS[0]
    with concurrent.futures.ThreadPoolExecutor(CLIENTS) as pool:
        warm = list(pool.map(lambda __: submit(first), range(CLIENTS)))
    assert client.stats()["service"]["computed"] == len(KERNELS), \
        "duplicate submissions added backend runs"
    assert {canon(payload) for payload in warm} \
        == {canon(offline[first.name][1])}

    client.map_source(first.source, file=offline[first.name][0],
                      pps=3)
    assert client.stats()["service"]["frontends_reused"] >= 1, \
        "warm resubmit recompiled the frontend"


# -- distributed ------------------------------------------------------------

def test_distributed_sharding_is_bit_identical(fleet, truth, tmp_path):
    """Every record is computed remotely, each daemon leases a fair
    share of the chunks, and the remote records warm both the
    coordinator cache (the shared on-disk format) and the daemons'
    stores: a re-shard fetches every record from a peer store and
    leases nothing."""
    daemons = fleet()
    cache = tmp_path / "coordinator-cache"
    result = run_distributed_sweep(
        SOURCE, SPACE.grid(), remotes=urls(daemons), cache=cache,
        chunk_size=CHUNK_SIZE)
    stats = result.stats
    assert canon(result.records) == truth
    assert stats.local_records == 0
    assert stats.lost_daemons == 0
    assert stats.remote_records == stats.unique
    leases = [ServiceClient(*daemon.address).stats()["service"]
              ["computed"] for daemon in daemons]
    assert sum(leases) == stats.chunks
    assert min(leases) >= stats.chunks // len(daemons) - 2, leases
    warm = run_sweep(SOURCE, SPACE.grid(), cache=cache)
    assert canon(warm.records) == truth
    assert warm.stats.cached == warm.stats.unique
    reshard = run_distributed_sweep(
        SOURCE, SPACE.grid(), remotes=urls(daemons),
        chunk_size=CHUNK_SIZE)
    assert canon(reshard.records) == truth
    assert reshard.stats.peer_records == reshard.stats.unique
    assert reshard.stats.remote_records == 0


def test_distributed_survives_a_daemon_killed_mid_sweep(fleet, truth,
                                                        tmp_path):
    daemons = fleet()
    hook = kill_on_first_chunk(fleet, daemons[0])
    result = run_distributed_sweep(
        SOURCE, SPACE.grid(), remotes=urls(daemons),
        cache=tmp_path / "cache", chunk_size=CHUNK_SIZE, timeout=30,
        progress=hook)
    assert hook.fired.is_set(), "no chunk completed before the kill"
    assert canon(result.records) == truth
    assert len(result.records) == result.stats.total


def test_distributed_total_fleet_loss_falls_back_locally(fleet, truth,
                                                         tmp_path):
    daemons = fleet()
    for daemon in daemons:
        fleet.kill(daemon)
    result = run_distributed_sweep(
        SOURCE, SPACE.grid(), remotes=urls(daemons),
        cache=tmp_path / "cache", chunk_size=6, timeout=10)
    assert canon(result.records) == truth
    assert result.stats.local_records == result.stats.unique


# -- store ------------------------------------------------------------------

def test_store_lru_bound_leaves_fsck_nothing_to_heal(truth, tmp_path):
    root = tmp_path / "bounded-store"
    result = run_sweep(SOURCE, SPACE.grid(), cache=root,
                       cache_max_entries=MAX_ENTRIES)
    assert canon(result.records) == truth
    store = ResultCache(root)
    assert store.stats()["entries"] == MAX_ENTRIES
    report = store.fsck()
    assert report["corrupt_removed"] == report["rows_added"] \
        == report["rows_dropped"] == report["tmp_removed"] == 0, report
    assert report["files"] == MAX_ENTRIES


def test_store_bounded_daemon_enforces_and_reports_its_bound(fleet,
                                                            truth):
    daemon, = fleet(1, store_max_entries=MAX_ENTRIES)
    result = run_distributed_sweep(
        SOURCE, SPACE.grid(), remotes=daemon.url,
        chunk_size=CHUNK_SIZE)
    client = ServiceClient(*daemon.address)
    store = client.stats()["store"]
    assert canon(result.records) == truth
    assert store["entries"] <= MAX_ENTRIES
    assert store["evictions"] >= SPACE.size - MAX_ENTRIES
    assert parse_prometheus(client.metrics()).value(
        "fpfa_store_evictions_total") == store["evictions"]


def test_store_peer_fetch_serves_warm_records(fleet, truth):
    """Records written offline into one daemon's store before it
    starts are fetched from it (``/store/fetch``), not recomputed:
    the fleet computes chunk jobs for the cold remainder only."""
    warm_points = SPACE.grid()[:5]
    run_sweep(SOURCE, warm_points, cache=fleet.store(0))
    warm, cold = fleet()
    result = run_distributed_sweep(
        SOURCE, SPACE.grid(), remotes=urls([warm, cold]),
        chunk_size=CHUNK_SIZE)
    assert canon(result.records) == truth
    assert result.stats.peer_records == len(warm_points)
    assert result.stats.peers.get(warm.url, {}).get("hits", 0) \
        == len(warm_points)
    computed = sum(ServiceClient(*daemon.address)
                   .stats()["service"]["computed"]
                   for daemon in (warm, cold))
    cold_points = SPACE.size - len(warm_points)
    assert computed == -(-cold_points // CHUNK_SIZE)


# -- observability ----------------------------------------------------------

def test_obs_metrics_and_stats_follow_the_fleet(fleet, truth):
    """``/metrics`` parses strictly and agrees with ``/stats``, and a
    sharded sweep leases chunks to both daemons without changing the
    sweep's records."""
    daemons = fleet(workers=SERVICE_WORKERS, worker_mode="process")
    client = ServiceClient(*daemons[0].address)
    for kernel in KERNELS[:3]:
        client.map_source(kernel.source, file=kernel.name, timeout=120)
    # One duplicate (a store hit) and one failure, so the hit and
    # failure families carry non-zero samples too.
    client.map_source(KERNELS[0].source, file=KERNELS[0].name,
                      timeout=120)
    with pytest.raises(ServiceError):
        client.map_source(KERNELS[0].source, file=KERNELS[0].name,
                          pps=0)

    status, content_type, body = http_get(daemons[0].address,
                                          "/metrics")
    assert status == 200
    assert content_type == "text/plain; version=0.0.4; charset=utf-8"
    parsed = parse_prometheus(body.decode("utf-8"))
    for family, kind in REQUIRED_FAMILIES.items():
        assert parsed.family(family)["type"] == kind, family
    stats = client.stats()
    assert stats["service"]["store_hits"] == 1
    for name in ("submits", "computed", "failed", "store_hits"):
        assert parsed.value(f"fpfa_service_{name}_total") \
            == stats["service"][name], name
    assert parsed.value("fpfa_store_entries") \
        == stats["store"]["entries"]
    assert stats["uptime"] >= 0
    assert "started_at" in stats

    result = run_distributed_sweep(SOURCE, SPACE.grid(),
                                   remotes=",".join(urls(daemons)),
                                   chunk_size=CHUNK_SIZE)
    assert canon(result.records) == truth
    assert result.stats.daemons == DAEMONS
    assert result.stats.remote_records == SPACE.size
    for daemon in daemons:
        status, __, body = http_get(daemon.address, "/metrics")
        assert status == 200
        leases = parse_prometheus(body.decode("utf-8")).value(
            "fpfa_chunk_leases_total")
        assert leases > 0, daemon.url


# -- tracing ----------------------------------------------------------------

def test_trace_stitches_one_sweep_across_processes(fleet, truth,
                                                   tmp_path,
                                                   monkeypatch):
    """A sharded sweep recorded in the coordinator and harvested from
    the daemons is one trace: parent-linked across the process
    boundary, exportable to Perfetto, attributed on the critical
    path — and its records are those of an untraced run."""
    # Daemons inherit the environment: tracing on before they spawn.
    monkeypatch.setenv("FPFA_TRACE", "1")
    daemons = fleet()
    log = tmp_path / TRACE_LOG_NAME
    with recording(log) as recorder:
        result = run_distributed_sweep(
            SOURCE, SPACE.grid(), remotes=urls(daemons),
            cache=tmp_path / "cache", chunk_size=CHUNK_SIZE)
        harvest_daemons(urls(daemons), recorder,
                        trace_ids=recorder.seen_traces)
    assert canon(result.records) == truth, \
        "observation mutated the artifacts"

    entries = load_trace(log)
    spans = [e for e in entries if e.get("kind") == "span"]
    sweeps = [e for e in spans if e["name"] == "dse.sweep"]
    assert len(sweeps) == 1
    root = sweeps[0]
    assert {e.get("trace") for e in spans} == {root["trace"]}
    leases = [e for e in spans if e["name"] == "distributed.lease"]
    assert leases
    assert all(e.get("parent") == root["span"] for e in leases)
    lease_ids = {e["span"] for e in leases}
    for name in ("worker.chunk", "queue.wait"):
        daemon_side = [e for e in spans if e["name"] == name]
        assert daemon_side, f"no {name} spans harvested"
        assert any(e.get("pid") not in (None, os.getpid())
                   for e in daemon_side), \
            f"no {name} span crossed the process boundary"
        assert all(e.get("parent") in lease_ids for e in daemon_side), \
            f"a {name} span does not parent a lease span"

    events = json.loads(json.dumps(to_chrome_trace(entries)))[
        "traceEvents"]
    assert isinstance(events, list) and events
    complete = [e for e in events if e.get("ph") == "X"]
    assert all({"name", "ts", "dur", "pid", "tid"} <= e.keys()
               and e["ts"] >= 0 and e["dur"] >= 0 for e in complete)
    named = {e["pid"] for e in events
             if e.get("ph") == "M" and e.get("name") == "process_name"}
    assert {e["pid"] for e in complete} <= named

    report = critical_path(entries)
    assert report["total"] > 0
    assert report["attributed"] >= 0.95, render_critical(report)


# -- chaos ------------------------------------------------------------------

def test_chaos_fault_storm_is_bit_identical(fleet, truth, tmp_path):
    """Latency, resets, truncated responses and fake 503s on every
    connection: the retrying coordinator still completes the sweep,
    and the counts prove the faults fired and were absorbed."""
    proxies = [fleet.proxy(daemon, seed=100 + index, **STORM)
               for index, daemon in enumerate(fleet())]
    result = run_distributed_sweep(
        SOURCE, SPACE.grid(),
        remotes=[hostport(proxy.address) for proxy in proxies],
        cache=tmp_path / "cache", chunk_size=CHAOS_CHUNK_SIZE,
        timeout=60, retry=STORM_RETRY)
    injected = {kind: sum(proxy.counts.get(kind, 0)
                          for proxy in proxies)
                for kind in ("latency", "reset", "inject-503",
                             "truncate")}
    assert canon(result.records) == truth
    assert len(result.records) == result.stats.total
    assert any(injected.values()), "the storm tested nothing"
    if injected["reset"] + injected["inject-503"] \
            + injected["truncate"]:
        assert result.stats.retries > 0, \
            "faults fired but nothing retried"


def test_chaos_killed_daemon_is_readmitted_after_restart(fleet, truth,
                                                         tmp_path):
    """A daemon SIGKILLed mid-sweep and restarted on its port is
    demoted to probation, re-probed and readmitted."""
    victim, slow = fleet()
    # The survivor answers through a latency proxy so the sweep
    # outlives the victim's death-and-rebirth window.
    proxy = fleet.proxy(slow, seed=9, faults={"latency": 1.0},
                        latency=0.3)
    restart = threading.Timer(0.6, victim.restart)
    hook = kill_on_first_chunk(fleet, victim, then=restart.start)
    try:
        result = run_distributed_sweep(
            SOURCE, SPACE.grid(),
            remotes=[victim.url, hostport(proxy.address)],
            cache=tmp_path / "cache", chunk_size=1, timeout=30,
            progress=hook)
    finally:
        restart.cancel()
        if restart.ident is not None:
            restart.join()
    stats = result.stats
    assert hook.fired.is_set(), "no chunk completed before the kill"
    assert canon(result.records) == truth
    assert stats.probations >= 1
    assert stats.readmissions >= 1
    assert stats.probes >= stats.readmissions
    assert stats.remote_records + stats.peer_records \
        + stats.local_records == stats.evaluated


def explore_command(cache, remote: str, *extra: str) -> list[str]:
    return [sys.executable, "-m", "repro.cli", "explore",
            "--kernel", KERNEL,
            "--pps", ",".join(map(str, AXES["n_pps"])),
            "--buses", ",".join(map(str, AXES["n_buses"])),
            "--strategy", "exhaustive", "--cache", str(cache),
            "--remote", remote, "--chunk-size", str(CHAOS_CHUNK_SIZE),
            *extra]


def completed_chunks(journal: pathlib.Path) -> int:
    try:
        return sum('"complete"' in line
                   for line in journal.read_text().splitlines())
    except OSError:
        return 0


def test_chaos_killed_coordinator_resumes_from_its_journal(fleet,
                                                           truth,
                                                           tmp_path):
    """An ``explore --remote`` coordinator SIGKILLed mid-sweep is
    re-run with ``--resume``: it recognises its journal and
    recomputes only the missing records."""
    daemon, = fleet(1)
    # A latency proxy slows the sweep enough to kill it with
    # completed chunks in the journal.
    proxy = fleet.proxy(daemon, seed=21, faults={"latency": 1.0},
                        latency=0.25)
    cache = tmp_path / "cache"
    journal = cache / JOURNAL_NAME
    coordinator = subprocess.Popen(
        explore_command(cache, hostport(proxy.address)),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        env=SUBPROCESS_ENV)
    try:
        deadline = time.monotonic() + 60
        while coordinator.poll() is None \
                and time.monotonic() < deadline \
                and completed_chunks(journal) < 2:
            time.sleep(0.05)
        assert coordinator.poll() is None, \
            "coordinator finished before the kill window"
        coordinator.send_signal(signal.SIGKILL)
    finally:
        coordinator.kill()
        coordinator.wait(timeout=30)

    state = load_journal(journal)
    assert state is not None, "no loadable journal after the kill"
    assert not state.ended, "journal claims a clean end after SIGKILL"
    recovered = len(state.completed & set(state.pending))
    assert recovered > 0, "nothing completed before the kill"

    json_path = tmp_path / "resume.json"
    resumed = subprocess.run(
        explore_command(cache, daemon.url, "--json", str(json_path),
                        "--resume"),
        capture_output=True, text=True, timeout=300,
        env=SUBPROCESS_ENV)
    assert resumed.returncode == 0, resumed.stderr[-400:]
    assert "resume: journal matches" in resumed.stdout + resumed.stderr
    payload = json.loads(json_path.read_text())
    stats = payload["stats"]
    assert canon(payload["records"]) == truth
    assert stats["cached"] >= recovered
    assert stats["evaluated"] == stats["unique"] - stats["cached"]
