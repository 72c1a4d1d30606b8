"""Fleet acceptance: the platform's guarantees against real daemons.

The paper's flow is deterministic, so a mapping computed on a remote
``fpfa-map serve`` daemon must be bit-identical to one computed
in-process — through concurrent clients, distributed sweeps, daemon
death, a killed coordinator, store bounds and tracing.  Every test
here drives subprocess daemons from the one ``fleet`` fixture and
compares against one local ``run_sweep`` ground truth over one grid.
Killing a subprocess is a *real* death (SIGKILL, sockets torn down
mid-request), which the in-process ``ServiceThread`` tests beside
each layer cannot stage.

The fixture's teardown is part of every test: each daemon the test
did not deliberately kill must exit 0 after ``POST /shutdown``.
"""

import concurrent.futures
import json
import os
import pathlib
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.cli import main as cli_main
from repro.dse.cache import ResultCache
from repro.dse.distributed import run_distributed_sweep
from repro.dse.runner import run_sweep
from repro.dse.space import DesignSpace
from repro.eval.kernels import KERNELS, get_kernel
from repro.obs.critical import critical_path, render_critical
from repro.obs.export import (
    TRACE_LOG_NAME,
    load_trace,
    recording,
    to_chrome_trace,
)
from repro.service.client import ServiceClient, ServiceError

ROOT = pathlib.Path(__file__).resolve().parents[1]

KERNEL = "fir5"
SOURCE = get_kernel(KERNEL).source

#: The one swept grid: 24 points, enough chunks that a mid-sweep
#: kill always strands leases.
AXES = {"n_pps": [1, 2, 3, 4, 6, 8], "n_buses": [2, 4, 6, 10]}
SPACE = DesignSpace(AXES)

#: Worker pool per fleet daemon; the service and stats checks run
#: a wider pool of worker processes, the mode ``serve`` defaults to.
WORKERS = 2
SERVICE_WORKERS = 4
#: Concurrent submitting clients in the service check.
CLIENTS = 8
#: Points per lease.
CHUNK_SIZE = 3
#: The LRU entry bound of the store checks.
MAX_ENTRIES = 4

#: Extend, never replace: the interpreter may need inherited vars
#: (LD_LIBRARY_PATH for shared builds, VIRTUAL_ENV, ...).
SUBPROCESS_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [
        str(ROOT / "src"), os.environ.get("PYTHONPATH")])),
}


#: Seconds to wait for a spawned daemon to become healthy.
STARTUP_TIMEOUT = 30.0


def canon(payload) -> str:
    return json.dumps(payload, sort_keys=True)


class DaemonProcess:
    """One ``fpfa-map serve`` subprocess: spawn, address, kill.

    Spawned exactly as an operator would (``python -m repro.cli
    serve``); it reports its bound address and is health-checked.
    Unlike the in-process ``ServiceThread``, each instance owns a
    whole interpreter, so killing it is a real daemon death.
    """

    def __init__(self, store, *, workers: int = 2,
                 worker_mode: str = "thread", port: int = 0,
                 store_max_entries: int | None = None,
                 store_max_bytes: int | None = None):
        self.store = pathlib.Path(store)
        self.workers = workers
        self.worker_mode = worker_mode
        self.port = port
        self.store_max_entries = store_max_entries
        self.store_max_bytes = store_max_bytes
        self.process: subprocess.Popen | None = None
        self.address: tuple[str, int] | None = None

    @property
    def url(self) -> str:
        host, port = self.address
        return f"{host}:{port}"

    def start(self) -> "DaemonProcess":
        argv = [sys.executable, "-m", "repro.cli", "serve",
                "--port", str(self.port),
                "--workers", str(self.workers),
                "--worker-mode", self.worker_mode,
                "--store", str(self.store)]
        if self.store_max_entries is not None:
            argv += ["--store-max-entries",
                     str(self.store_max_entries)]
        if self.store_max_bytes is not None:
            argv += ["--store-max-bytes", str(self.store_max_bytes)]
        # The environment is read now, not at import: a test may set
        # FPFA_TRACE just before it spawns a daemon.
        env = {**os.environ, "PYTHONPATH": SUBPROCESS_ENV["PYTHONPATH"]}
        self.process = subprocess.Popen(
            argv, stdout=subprocess.PIPE, text=True, env=env)
        line = self.process.stdout.readline()
        if "listening on http://" not in line:
            self.kill()
            raise RuntimeError(f"daemon failed to start: {line!r}")
        host, port = line.rsplit("http://", 1)[1].strip().split(":")
        self.address = (host, int(port))
        self._wait_healthy()
        return self

    def _wait_healthy(self) -> None:
        client = ServiceClient(*self.address, timeout=5.0)
        deadline = time.monotonic() + STARTUP_TIMEOUT
        while True:
            try:
                client.health()
                return
            except OSError:
                if time.monotonic() > deadline:
                    self.kill()
                    raise RuntimeError(
                        f"daemon at {self.url} never became healthy")
                time.sleep(0.05)

    def kill(self) -> None:
        """SIGKILL — the death the local fallback must survive."""
        if self.process is not None and self.process.poll() is None:
            self.process.kill()
            self.process.wait(timeout=10)


class Fleet:
    """Starts :class:`DaemonProcess` daemons, each on a fresh store
    under one directory, and tears them down."""

    def __init__(self, root: pathlib.Path):
        self.root = root
        self.daemons: list[DaemonProcess] = []
        self.killed: set[int] = set()

    def __call__(self, *, workers: int = WORKERS,
                 **options) -> DaemonProcess:
        daemon = DaemonProcess(self.root / f"store-{len(self.daemons)}",
                               workers=workers, **options)
        self.daemons.append(daemon)
        return daemon.start()

    def kill(self, daemon: DaemonProcess) -> None:
        """SIGKILL *daemon* on purpose; teardown will not expect a
        clean exit from it."""
        self.killed.add(id(daemon))
        daemon.kill()

    def teardown(self) -> list[str]:
        """``POST /shutdown`` every live daemon and return what went
        wrong: a daemon that died untold, refused ``/shutdown`` or
        exited non-zero after it."""
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


def kill_on_first_chunk(fleet, victim):
    """A progress hook that SIGKILLs *victim* the moment the first
    chunk completes; ``hook.fired`` records it."""
    fired = threading.Event()

    def hook(event):
        if event["event"] == "chunk" and not fired.is_set():
            fired.set()
            fleet.kill(victim)

    hook.fired = fired
    return hook


# -- service ----------------------------------------------------------------

def test_service_serves_the_kernel_suite_bit_identically(fleet,
                                                         tmp_path):
    """The kernel suite over concurrent clients matches offline
    ``map --json``; duplicates add zero backend runs; a warm
    resubmit reuses the compiled frontend."""
    with concurrent.futures.ThreadPoolExecutor(1) as pool:
        # The daemon boots while the offline payloads are computed.
        booting = pool.submit(fleet, workers=SERVICE_WORKERS,
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
        daemon = booting.result()
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

    # One more computed job of one frontend than there are worker
    # processes (pps 5, the default, is a store hit by now): some
    # process maps two of them, and its memo serves the second.
    before = client.stats()["service"]["frontends_reused"]
    for pps in range(6, SERVICE_WORKERS + 7):
        client.map_source(first.source, file=offline[first.name][0],
                          pps=pps)
    assert client.stats()["service"]["frontends_reused"] > before, \
        "no worker reused a frontend it had compiled"


# -- distributed ------------------------------------------------------------

def test_distributed_sharding_is_bit_identical(fleet, truth, tmp_path):
    """Every record is computed remotely, one chunk job per lease, and
    the remote records warm both the coordinator cache (the shared
    on-disk format) and the daemon's store: a warm re-run computes
    nothing — the daemon's store serves every record."""
    daemon = fleet()
    cache = tmp_path / "coordinator-cache"
    result = run_distributed_sweep(
        SOURCE, SPACE.grid(), remotes=daemon.url, cache=cache,
        chunk_size=CHUNK_SIZE)
    stats = result.stats
    assert canon(result.records) == truth
    assert stats.local_records == 0 and stats.stolen == 0
    assert stats.remote_records == stats.unique
    assert stats.peer_records == 0
    client = ServiceClient(*daemon.address)
    assert client.stats()["service"]["computed"] \
        == stats.leases == stats.chunks
    warm = run_sweep(SOURCE, SPACE.grid(), cache=cache)
    assert canon(warm.records) == truth
    assert warm.stats.cached == warm.stats.unique
    entries = client.stats()["store"]["entries"]
    rerun = run_distributed_sweep(
        SOURCE, SPACE.grid(), remotes=daemon.url,
        chunk_size=CHUNK_SIZE)
    assert canon(rerun.records) == truth
    assert rerun.stats.peer_records == rerun.stats.unique
    assert client.stats()["store"]["entries"] == entries


def test_distributed_survives_a_daemon_killed_mid_sweep(fleet, truth,
                                                        tmp_path):
    """The daemon dies after the first chunk: the next lease fails
    and the rest of the sweep runs locally."""
    daemon = fleet()
    hook = kill_on_first_chunk(fleet, daemon)
    result = run_distributed_sweep(
        SOURCE, SPACE.grid(), remotes=daemon.url,
        cache=tmp_path / "cache", chunk_size=CHUNK_SIZE,
        progress=hook)
    stats = result.stats
    assert hook.fired.is_set(), "no chunk completed before the kill"
    assert canon(result.records) == truth
    assert stats.stolen >= 1
    assert stats.remote_records >= CHUNK_SIZE
    assert stats.remote_records + stats.local_records == stats.unique


def test_distributed_total_fleet_loss_falls_back_locally(fleet, truth,
                                                         tmp_path):
    daemon = fleet()
    fleet.kill(daemon)
    result = run_distributed_sweep(
        SOURCE, SPACE.grid(), remotes=daemon.url,
        cache=tmp_path / "cache", chunk_size=6)
    assert canon(result.records) == truth
    assert result.stats.local_records == result.stats.unique
    assert result.stats.leases == 0


def explore_command(cache, remote: str, *extra: str) -> list[str]:
    return [sys.executable, "-m", "repro.cli", "explore",
            "--kernel", KERNEL,
            "--pps", ",".join(map(str, AXES["n_pps"])),
            "--buses", ",".join(map(str, AXES["n_buses"])),
            "--strategy", "exhaustive", "--cache", str(cache),
            "--remote", remote, "--chunk-size", "1", *extra]


def cached_records(cache: pathlib.Path) -> int:
    return len(list(cache.glob("??/*.json")))


def test_killed_coordinator_rerun_recomputes_only_missing_points(
        fleet, truth, tmp_path):
    """An ``explore --remote --cache`` coordinator SIGKILLed mid-sweep
    leaves the records it merged in its cache; re-running the same
    command recomputes only the missing points."""
    # One worker and one point per lease: the sweep advances one
    # record at a time.  Once two are cached the daemon is frozen
    # (SIGSTOP), so the coordinator is stuck mid-sweep when killed.
    daemon = fleet(workers=1)
    cache = tmp_path / "cache"
    coordinator = subprocess.Popen(
        explore_command(cache, daemon.url),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        env=SUBPROCESS_ENV)
    try:
        deadline = time.monotonic() + 60
        while coordinator.poll() is None \
                and time.monotonic() < deadline \
                and cached_records(cache) < 2:
            time.sleep(0.005)
        daemon.process.send_signal(signal.SIGSTOP)
        assert coordinator.poll() is None, \
            "coordinator finished before the kill window"
        coordinator.send_signal(signal.SIGKILL)
    finally:
        coordinator.kill()
        coordinator.wait(timeout=30)
        daemon.process.send_signal(signal.SIGCONT)

    recovered = cached_records(cache)
    assert 0 < recovered < SPACE.size, recovered
    json_path = tmp_path / "rerun.json"
    rerun = subprocess.run(
        explore_command(cache, daemon.url, "--json", str(json_path)),
        capture_output=True, text=True, timeout=300,
        env=SUBPROCESS_ENV)
    assert rerun.returncode == 0, rerun.stderr[-400:]
    payload = json.loads(json_path.read_text())
    stats = payload["stats"]
    assert canon(payload["records"]) == truth
    assert stats["cached"] == recovered
    assert stats["remote_records"] == stats["unique"] - recovered


# -- store ------------------------------------------------------------------

def assert_stats_walk_the_store(stats: dict, root: pathlib.Path) -> None:
    """``/stats`` entries and bytes equal a walk of the store."""
    files = list(root.glob("??/*.json"))
    assert stats["entries"] == len(files)
    assert stats["bytes"] == sum(path.stat().st_size for path in files)


def test_store_lru_bound_leaves_fsck_nothing_to_heal(truth, tmp_path):
    root = tmp_path / "bounded-store"
    result = run_sweep(SOURCE, SPACE.grid(), cache=root,
                       cache_max_entries=MAX_ENTRIES)
    assert canon(result.records) == truth
    store = ResultCache(root)
    assert store.stats()["entries"] == MAX_ENTRIES
    report = store.fsck()
    assert report["corrupt_removed"] == report["tmp_removed"] == 0, \
        report
    assert report["files"] == report["entries"] == MAX_ENTRIES


def test_store_bounded_daemon_enforces_and_reports_its_bound(fleet,
                                                            truth):
    daemon = fleet(store_max_entries=MAX_ENTRIES)
    result = run_distributed_sweep(
        SOURCE, SPACE.grid(), remotes=daemon.url,
        chunk_size=CHUNK_SIZE)
    client = ServiceClient(*daemon.address)
    store = client.stats()["store"]
    assert canon(result.records) == truth
    assert store["entries"] <= MAX_ENTRIES
    assert store["evictions"] >= SPACE.size - MAX_ENTRIES
    assert_stats_walk_the_store(store, daemon.store)


def test_store_byte_bounded_daemon_enforces_and_reports_its_bound(
        fleet, truth):
    """``serve --store-max-bytes``: the daemon trims its store to the
    byte bound after every chunk, and ``/stats`` reports exactly what
    is left on disk."""
    sizes = [len(json.dumps(record)) for record in json.loads(truth)]
    max_bytes = MAX_ENTRIES * max(sizes)
    daemon = fleet(store_max_bytes=max_bytes)
    result = run_distributed_sweep(
        SOURCE, SPACE.grid(), remotes=daemon.url,
        chunk_size=CHUNK_SIZE)
    store = ServiceClient(*daemon.address).stats()["store"]
    assert canon(result.records) == truth
    assert store["max_bytes"] == max_bytes
    assert 0 < store["bytes"] <= max_bytes
    assert store["evictions"] >= SPACE.size - max_bytes // min(sizes)
    assert_stats_walk_the_store(store, daemon.store)


# -- observability ----------------------------------------------------------

def test_obs_metrics_and_stats_follow_the_fleet(fleet, truth):
    """``/stats`` counts the daemon's work, and a distributed sweep
    leases chunks to the daemon without changing the sweep's
    records."""
    daemon = fleet(workers=SERVICE_WORKERS, worker_mode="process")
    client = ServiceClient(*daemon.address)
    for kernel in KERNELS[:3]:
        client.map_source(kernel.source, file=kernel.name, timeout=120)
    # One duplicate (a store hit) and one failure, so the hit and
    # failure counts are non-zero too.
    client.map_source(KERNELS[0].source, file=KERNELS[0].name,
                      timeout=120)
    with pytest.raises(ServiceError):
        client.map_source(KERNELS[0].source, file=KERNELS[0].name,
                          pps=0)

    stats = client.stats()
    assert stats["service"]["store_hits"] == 1
    assert {name: stats["service"][name] for name in
            ("submits", "computed", "failed", "store_hits")} \
        == {"submits": 5, "computed": 4, "failed": 1, "store_hits": 1}
    assert stats["store"]["entries"] == 3
    assert stats["uptime"] >= 0
    assert "started_at" in stats

    result = run_distributed_sweep(SOURCE, SPACE.grid(),
                                   remotes=daemon.url,
                                   chunk_size=CHUNK_SIZE)
    assert canon(result.records) == truth
    assert result.stats.remote_records == SPACE.size
    leases = [job for job in client.jobs()
              if job["kind"] == "sweep-chunk"]
    assert len(leases) == result.stats.leases > 0


# -- tracing ----------------------------------------------------------------

def test_trace_stitches_one_sweep_across_processes(fleet, truth,
                                                   tmp_path,
                                                   monkeypatch):
    """A distributed sweep recorded in the coordinator, with the
    daemon's spans returned inside each lease's result, is one trace:
    parent-linked across the process boundary, exportable to
    Perfetto, attributed on the critical path — and its records are
    those of an untraced run."""
    # Daemons inherit the environment: tracing on before they spawn.
    monkeypatch.setenv("FPFA_TRACE", "1")
    daemon = fleet()
    log = tmp_path / TRACE_LOG_NAME
    with recording(log):
        result = run_distributed_sweep(
            SOURCE, SPACE.grid(), remotes=daemon.url,
            cache=tmp_path / "cache", chunk_size=CHUNK_SIZE)
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
        assert daemon_side, f"no {name} spans came home"
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


def test_trace_of_a_long_sweep_keeps_every_point(fleet, tmp_path,
                                                 monkeypatch):
    """A sweep whose daemon side emits more entries than a 1,024-entry
    ring holds, against a traced daemon with worker processes: the
    coordinator's log still holds one ``dse.point`` per evaluated
    point, every daemon span sits under the lease that carried it,
    and the critical path attributes the sweep's time."""
    monkeypatch.setenv("FPFA_TRACE", "1")
    daemon = fleet(worker_mode="process")
    points = DesignSpace({"n_pps": [1, 2, 3, 4, 5, 6, 7, 8],
                          "n_buses": [2, 3, 4, 5, 6, 7, 8, 9, 10],
                          "library": ["mac", "single-op",
                                      "two-level"]}).grid()
    log = tmp_path / TRACE_LOG_NAME
    with recording(log):
        result = run_distributed_sweep(
            SOURCE, points, remotes=daemon.url,
            cache=tmp_path / "cache", chunk_size=CHUNK_SIZE)
    assert result.stats.evaluated == len(points) >= 200
    assert len(load_trace(daemon.store / TRACE_LOG_NAME)) > 1024

    entries = load_trace(log)
    spans = [e for e in entries if e.get("kind") == "span"]
    assert len([e for e in spans if e["name"] == "dse.point"]) \
        == result.stats.evaluated
    lease_ids = {e["span"] for e in spans
                 if e["name"] == "distributed.lease"}
    daemon_side = [e for e in spans
                   if e["name"] in ("worker.chunk", "queue.wait")]
    assert daemon_side
    assert all(e.get("parent") in lease_ids for e in daemon_side)
    report = critical_path(entries)
    assert report["attributed"] >= 0.95, render_critical(report)
