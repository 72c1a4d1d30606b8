"""The benchmark's three workloads, driven through ``repro``'s public API.

Every workload builds its inputs from the seed alone, warms up once in
:meth:`setup`, then runs a closed loop until the requested seconds are
up *and* the run holds enough samples for its tail percentile.  Passes
always complete, so each run covers whole passes over its inputs and
the latency quantiles do not depend on where the clock ran out.

Every output is checked: each mapping is verified against the
reference interpreter (``verify_seed`` on every op, service and
sharded ones included), repeats must equal first results, and
service records are re-evaluated locally after the window.

A traced run alternates slices of three modes: ``plain``, ``spans``
(the :mod:`layers` wrappers installed) and ``program`` (the program's
own tracer on, ``repro.obs.trace.scoped_tracing``).  The per-layer
figures come from the ``spans`` slices; the rates of the three modes
give the tracing overheads.
"""

from __future__ import annotations

import multiprocessing
import random
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

from repro.arch.params import TileParams
from repro.core import pipeline
from repro.dse import distributed, runner
from repro.dse.space import DesignPoint, DesignSpace
from repro.eval import kernels as suite
from repro.eval import metrics as metric_module
from repro.obs import trace
from repro.service import ServiceClient, ServiceError, ServiceThread
from repro.service.protocol import (
    TERMINAL_STATES,
    normalise_request,
    record_to_map_payload,
    request_point,
)

from benchlib import Clock, Ledger, percentile, samples_for
from layers import Layers, layer_metrics

MODES = ("plain", "spans", "program")

#: Requests a run needs so that its p90 has ten samples beyond it.
MIN_COMPUTE = samples_for(90)

#: A run that cannot reach its sample counts gives up here.
HARD_LIMIT_S = 150.0


@dataclass
class Outcome:
    """What one timed window produced."""

    ledger: Ledger
    records: int = 0
    #: Wall seconds of the window.
    wall: float = 0.0
    #: Reference seconds the records took (see ``benchlib.Clock``);
    #: every duration below is in reference seconds too.
    busy: float = 0.0
    #: Seconds per cold (computing) request.
    latencies: list = field(default_factory=list)
    #: Seconds per warm request served from a cache or store.
    hits: list = field(default_factory=list)
    #: Seconds per sweep: a sharded sweep request (service_mix) or
    #: one pass over the workload's inputs.
    sweeps: list = field(default_factory=list)
    #: (cycles, energy) of the run's fixed set of mappings.
    quality: list = field(default_factory=list)
    layers: dict = field(default_factory=dict)


class Slices:
    """Alternates the traced run's measurement modes slice by slice;
    an untraced run has only ``plain`` slices."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.layers = Layers()
        self.seconds = dict.fromkeys(MODES, 0.0)
        self.records = dict.fromkeys(MODES, 0)
        self.count = 0

    @property
    def complete(self) -> bool:
        """True once every mode ran the same number of slices."""
        return not self.traced or (
            self.count > 0 and self.count % len(MODES) == 0)

    @property
    def inputs(self) -> int:
        """Index of the inputs the next slice runs.  A traced run gives
        the same inputs to every mode of a round, so the modes' rates
        compare like with like."""
        return self.count // len(MODES) if self.traced else self.count

    @contextmanager
    def next(self):
        """One slice; the caller stores the records it produced in
        the yielded one-element list."""
        mode = "plain"
        if self.traced:
            # Each round rotates the order, so no mode always runs first.
            rounds, place = divmod(self.count, len(MODES))
            mode = MODES[(rounds + place) % len(MODES)]
        self.count += 1
        context = {"spans": self.layers.installed,
                   "program": trace.scoped_tracing}.get(mode, nullcontext)
        tally = [0]
        with context():
            started = time.perf_counter()
            try:
                yield tally
            finally:
                self.seconds[mode] += time.perf_counter() - started
                self.records[mode] += tally[0]

    def figures(self) -> dict:
        """Per-layer figures plus the overhead of each tracing mode."""
        def overhead(mode):
            if not (self.records[mode] and self.seconds["plain"]):
                return 0.0
            return (self.records["plain"] / self.seconds["plain"]) \
                / (self.records[mode] / self.seconds[mode]) - 1.0

        recorder = self.layers.recorder
        figures = layer_metrics(recorder, self.records["spans"])
        figures["bench.trace_overhead_frac"] = overhead("spans")
        figures["obs.trace_overhead_frac"] = overhead("program")
        figures["bench.attributed_frac"] = max(
            recorder.top_level_by_thread().values(), default=0.0) \
            / self.seconds["spans"]
        return figures


def _derived_seed(*parts) -> int:
    return random.Random(":".join(map(str, parts))).getrandbits(32)


def _enough(started: float, seconds: float, ready: bool) -> bool:
    elapsed = time.perf_counter() - started
    return elapsed >= HARD_LIMIT_S or (elapsed >= seconds and ready)


# ---------------------------------------------------------------------------
# kernel_suite
# ---------------------------------------------------------------------------

#: Scaled variants: (label, generator, size, extra args, jitter).  The
#: seed moves each size by at most ``jitter`` so the workload's
#: latency quantiles stay put across seeds.  fir104, matmul5, corr32
#: and conv64 have 200 or more tasks.  With 25 programs the p90 falls
#: mid-way through the ops of the third slowest, corr32, which is kept
#: fixed and apart from its neighbours in cost; the p50 falls mid-way
#: through the thirteenth.
VARIANTS = (
    ("fir", suite.fir_source, 32, (), 2),
    ("fir", suite.fir_source, 64, (), 2),
    ("fir", suite.fir_source, 104, (), 2),
    ("matmul", suite.matmul_source, 4, (), 0),
    ("matmul", suite.matmul_source, 5, (), 0),
    ("corr", suite.correlation_source, 12, (3,), 1),
    ("corr", suite.correlation_source, 32, (4,), 0),
    ("conv", suite.convolution_source, 16, (3,), 1),
    ("conv", suite.convolution_source, 28, (3,), 1),
    ("conv", suite.convolution_source, 64, (3,), 2),
)


def kernel_programs(seed: int) -> list[tuple[str, str]]:
    """The 15 suite kernels plus seeded scaled variants."""
    rng = random.Random(f"kernel_suite:{seed}")
    programs = [(kernel.name, kernel.source) for kernel in suite.KERNELS]
    for label, generate, size, extra, jitter in VARIANTS:
        size += rng.randint(-jitter, jitter)
        programs.append((f"{label}{size}", generate(size, *extra)))
    return programs


def map_program(source: str, verify_seed: int) -> dict:
    """What ``fpfa-map map --verify-seed`` does for one program."""
    params = TileParams()
    frontend = pipeline.compile_frontend(source, width=params.width)
    report = pipeline.map_frontend(frontend, params)
    pipeline.verify_mapping(
        report, pipeline.random_input_state(report, verify_seed))
    return metric_module.mapping_metrics(report)


class KernelSuite:
    """Closed loop, one thread: every op compiles, maps, verifies and
    measures one program, with no memo across ops."""

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.programs: list = []

    def setup(self) -> None:
        self.programs = kernel_programs(self.seed)
        map_program(self.programs[0][1], self.seed)

    def run(self, seconds: float, slices: Slices, clock: Clock) -> Outcome:
        outcome = Outcome(Ledger())
        ledger = outcome.ledger
        first: dict[str, dict] = {}
        started = time.perf_counter()
        passes = 0
        while not _enough(started, seconds, slices.complete and
                          len(outcome.latencies) >= MIN_COMPUTE):
            pass_busy = 0.0
            with slices.next() as tally:
                for name, source in self.programs:
                    ledger.attempt()
                    try:
                        metrics, elapsed = clock.time(
                            map_program, source, self.seed)
                    except Exception as error:  # noqa: BLE001
                        ledger.fail(f"{name}: {type(error).__name__}: "
                                    f"{error}")
                        continue
                    outcome.latencies.append(elapsed)
                    pass_busy += elapsed
                    tally[0] += 1
                    if passes == 0:
                        first[name] = metrics
                        continue
                    outcome.hits.append(elapsed)
                    if metrics != first.get(name):
                        ledger.fail(f"{name}: metrics differ between "
                                    f"passes")
            outcome.sweeps.append(pass_busy)
            outcome.busy += pass_busy
            passes += 1
        outcome.wall = time.perf_counter() - started
        outcome.records = len(outcome.latencies)
        outcome.quality = [(metrics["cycles"], metrics["energy"])
                           for metrics in first.values()]
        return outcome

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# tile_sweep
# ---------------------------------------------------------------------------

TILE_SPACE = {
    "n_pps": [1, 2, 3, 4, 5, 6, 7, 8],
    "n_buses": [2, 3, 4, 6, 8, 10],
    "library": ["single-op", "two-level", "mac"],
    "balance": [False, True],
    "tiles": [1, 2, 3, 4],
    "topology": ["crossbar", "ring", "mesh"],
}
POINTS_PER_SWEEP = 12
#: Passes a run can make before it runs out of fresh points.
MAX_PASSES = 40
#: The quality geomeans cover the first passes' points.
QUALITY_PASSES = 3


class TileSweep:
    """Closed loop, one thread, in process: per kernel a cold
    ``run_sweep`` over fresh points, then the identical sweep again,
    which must be served wholly from the cache.

    A traced run makes each pass once per mode on the same points,
    each into its own cache, and every mode must produce the same
    records.
    """

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.workdir = workdir
        self.warmup_cache = str(workdir / "warmup-cache")
        self.kernels: list = []

    def setup(self) -> None:
        space = DesignSpace(TILE_SPACE)
        self.kernels = [
            (kernel.name, kernel.source, space.sample(
                POINTS_PER_SWEEP * MAX_PASSES,
                seed=_derived_seed("tile_sweep", self.seed, kernel.name)))
            for kernel in suite.KERNELS]
        name, source, points = self.kernels[0]
        runner.run_sweep(source, points[:2], workers=1,
                         verify_seed=self.seed, cache=self.warmup_cache)

    def _sweep(self, source, points, cache):
        return runner.run_sweep(source, points, workers=1,
                                verify_seed=self.seed, cache=cache)

    def run(self, seconds: float, slices: Slices, clock: Clock) -> Outcome:
        outcome = Outcome(Ledger())
        ledger = outcome.ledger
        #: Cold records of the first run of each (pass, kernel).
        first: dict[tuple, list] = {}
        started = time.perf_counter()
        while slices.inputs < MAX_PASSES and not _enough(
                started, seconds,
                slices.complete and slices.inputs >= QUALITY_PASSES
                and len(outcome.latencies) >= MIN_COMPUTE):
            pass_busy = 0.0
            index = slices.inputs
            lo, hi = index * POINTS_PER_SWEEP, \
                (index + 1) * POINTS_PER_SWEEP
            # One cache per place in a round: a round's points are new
            # to each of them, so every mode's cold sweeps compute.
            cache = self.workdir / f"tile-cache-{slices.count % len(MODES)}"
            with slices.next() as tally:
                for name, source, sample in self.kernels:
                    points = sample[lo:hi]
                    ledger.attempt()
                    ledger.attempt()
                    try:
                        cold, cold_s = clock.time(self._sweep, source,
                                                  points, str(cache))
                        warm, warm_s = clock.time(self._sweep, source,
                                                  points, str(cache))
                    except Exception as error:  # noqa: BLE001
                        ledger.fail(f"{name}: {type(error).__name__}: "
                                    f"{error}")
                        continue
                    if cold.stats.cached or not all(
                            record.get("ok") and record.get("verified")
                            for record in cold.records):
                        ledger.fail(f"{name}: cold sweep not fully "
                                    f"computed and verified")
                        continue
                    if warm.stats.cached != warm.stats.unique or \
                            warm.records != cold.records:
                        ledger.fail(f"{name}: warm sweep differs from "
                                    f"cold or missed the cache")
                        continue
                    outcome.latencies.append(cold_s)
                    outcome.hits.append(warm_s)
                    pass_busy += cold_s + warm_s
                    tally[0] += len(cold.records) + len(warm.records)
                    earlier = first.setdefault((index, name), cold.records)
                    if earlier is not cold.records:
                        if earlier != cold.records:
                            ledger.fail(f"{name}: records differ between "
                                        f"runs of one pass")
                    elif index < QUALITY_PASSES:
                        outcome.quality.extend(
                            (record["metrics"]["cycles"],
                             record["metrics"]["energy"])
                            for record in cold.records)
            outcome.records += tally[0]
            outcome.sweeps.append(pass_busy)
            outcome.busy += pass_busy
        outcome.wall = time.perf_counter() - started
        return outcome

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# service_mix
# ---------------------------------------------------------------------------

#: Tile axes of the service clients.  The axis sizes are pairwise
#: coprime, so ``index % len(axis)`` walks every combination once and
#: any short run of inputs is balanced over each axis: the mix a run
#: computes hardly depends on the seed, which only permutes the axes.
#: Client A's pair j is (kernel[j % 15], pps[j % 8], buses[j % 7],
#: library[j // 15 % 3]): 2520 distinct pairs.
A_PPS = (1, 2, 3, 4, 5, 6, 7, 8)
A_BUSES = (2, 3, 4, 5, 6, 8, 10)
A_LIBRARIES = ("single-op", "two-level", "mac")
A_PAIRS = len(suite.KERNELS) * len(A_PPS) * len(A_BUSES) \
    * len(A_LIBRARIES)
B_KERNELS = ("fir16", "matmul3", "fft4", "corr8", "conv8")
#: Client B's point i is (pps[i % 8], buses[i % 7], library[i % 3],
#: tiles[(i + i // 168) % 4]) on a mesh, with ``balance`` on, so it
#: never shares a store key with client A's map jobs.  The fresh
#: points of every sweep, four consecutive i, cover each tile count
#: once; the i // 168 term makes all 672 points distinct.
B_TILES = (1, 2, 3, 4)
B_POINTS = len(A_PPS) * len(A_BUSES) * len(A_LIBRARIES) * len(B_TILES)
#: Points of a B sweep new to the store; as many again come from the
#: previous sweep on the same kernel, so peering and leases both run.
B_FRESH = len(B_TILES)
POOL = 2
SLICE_S = 0.5
#: The main thread runs the yardstick this often during the window; a
#: request is scaled by the samples within the margin around it.
SAMPLE_S = 0.02
SCALE_MARGIN_S = 0.1
#: The fixed mapping set the quality geomeans cover: client A's first
#: pairs and client B's first sweeps.
QUALITY_A = 168
QUALITY_B = 20
#: Records re-evaluated locally after the window.
CHECK_A = 24
CHECK_B = 3


def _round_trip(client: ServiceClient, request: dict) -> dict:
    """Submit, then long-poll to a terminal job view."""
    job = client.submit(request)["job"]
    while job["state"] not in TERMINAL_STATES:
        job = client.job(job["id"], wait=10.0)
    if job["state"] != "done":
        raise ServiceError(f"job {job['id']} {job['state']}: "
                           f"{job.get('error')}")
    return job


class ServiceMix:
    """Two closed-loop clients against one in-process daemon with a
    two-process worker pool and an empty store.

    Client A submits verified map jobs: per round one fresh (program,
    tile) pair and two resubmits of pairs it already computed.
    Client B runs small verified sharded sweeps through
    ``run_distributed_sweep``, half of whose points the store holds.
    """

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.store = str(workdir / "store")
        self.daemon: ServiceThread | None = None
        self.lock = threading.Lock()
        self.stop = threading.Event()
        self.delivered = 0

    # -- set-up -------------------------------------------------------

    def setup(self) -> None:
        rng = random.Random(f"service_mix:{self.seed}")

        def permuted(values):
            values = list(values)
            rng.shuffle(values)
            return values

        self.a_axes = [permuted(axis) for axis in (
            suite.KERNELS, A_PPS, A_BUSES, A_LIBRARIES)]
        self.b_axes = [permuted(axis) for axis in (
            A_PPS, A_BUSES, A_LIBRARIES, B_TILES)]
        sources = {kernel.name: kernel.source for kernel in suite.KERNELS}
        self.b_sources = {name: sources[name] for name in B_KERNELS}
        self.daemon = ServiceThread(workers=POOL, worker_mode="process",
                                    store=self.store)
        self.address = self.daemon.start()
        self.url = "http://%s:%d" % tuple(self.address)
        # Warm-up: A's first pair, and the first B sweep per kernel so
        # that every timed B sweep finds half its points stored.
        view = _round_trip(ServiceClient(*self.address), self._request(0))
        self.next_pair = 1
        #: Pairs computed so far, in order, and their payloads.
        self.done: list[int] = [0]
        self.payloads: dict[int, dict] = {0: view["result"]}
        self.previous = {}
        for name, source in self.b_sources.items():
            points = self._b_points(0)
            distributed.run_distributed_sweep(
                source, points, remotes=[self.url], verify_seed=self.seed)
            self.previous[name] = points

    def _request(self, j: int) -> dict:
        kernels, pps, buses, libraries = self.a_axes
        kernel = kernels[j % len(kernels)]
        return {"kind": "map", "source": kernel.source,
                "file": kernel.name, "pps": pps[j % len(pps)],
                "buses": buses[j % len(buses)],
                "library": libraries[j // len(kernels) % len(libraries)],
                "verify_seed": self.seed}

    def _b_points(self, sweep: int) -> list:
        """The fresh points of one kernel's *sweep*-th B sweep."""
        pps, buses, libraries, tiles = self.b_axes
        combos = len(pps) * len(buses) * len(libraries)
        return [DesignPoint.from_assignment({
            "n_pps": pps[i % len(pps)], "n_buses": buses[i % len(buses)],
            "library": libraries[i % len(libraries)], "balance": True,
            "tiles": tiles[(i + i // combos) % len(tiles)],
            "topology": "mesh"})
            for i in range(sweep * B_FRESH, (sweep + 1) * B_FRESH)]

    def _deliver(self, records: int) -> None:
        with self.lock:
            self.delivered += records

    # -- clients ------------------------------------------------------

    def _client_a(self, ledger: Ledger) -> None:
        client = ServiceClient(*self.address)
        round_index = 0
        while not self.stop.is_set():
            rng = random.Random(f"{self.seed}:A:{round_index}")
            kinds = ["fresh", "hit", "hit"]
            rng.shuffle(kinds)
            for kind in kinds:
                if kind == "fresh":
                    if self.next_pair >= A_PAIRS:
                        return
                    index = self.next_pair
                    self.next_pair += 1
                else:
                    index = rng.choice(self.done)
                request = self._request(index)
                ledger.attempt()
                op_started = time.perf_counter()
                try:
                    view = _round_trip(client, request)
                except Exception as error:  # noqa: BLE001
                    ledger.fail(f"A {kind}: {type(error).__name__}: "
                                f"{error}")
                    continue
                span = (op_started, time.perf_counter())
                payload = view["result"]
                cache = view["meta"].get("cache")
                if payload.get("verified") is not True:
                    ledger.fail(f"A {kind}: unverified payload")
                    continue
                if kind == "fresh":
                    if cache != "miss":
                        ledger.fail(f"A fresh pair served as {cache}")
                        continue
                    self.payloads[index] = payload
                    self.done.append(index)
                    self.computed.append(
                        (span, view["waited"], view["runtime"]))
                    self.a_results.append((request, payload))
                else:
                    if cache != "hit" or payload != self.payloads[index]:
                        ledger.fail("A resubmit not a bit-identical "
                                    "store hit")
                        continue
                    self.hit_spans.append(span)
                self._deliver(1)
            round_index += 1

    def _client_b(self, ledger: Ledger) -> None:
        sweep_index = 0
        while not self.stop.is_set():
            name = B_KERNELS[sweep_index % len(B_KERNELS)]
            source = self.b_sources[name]
            kernel_sweep = sweep_index // len(B_KERNELS) + 1
            if (kernel_sweep + 1) * B_FRESH > B_POINTS:
                return
            fresh = self._b_points(kernel_sweep)
            points = self.previous[name] + fresh
            random.Random(f"{self.seed}:B:{sweep_index}").shuffle(points)
            ledger.attempt()
            op_started = time.perf_counter()
            try:
                result = distributed.run_distributed_sweep(
                    source, points, remotes=[self.url],
                    verify_seed=self.seed)
            except Exception as error:  # noqa: BLE001
                ledger.fail(f"B sweep: {type(error).__name__}: {error}")
                sweep_index += 1
                continue
            span = (op_started, time.perf_counter())
            sweep_index += 1
            if result.stats.failed or not all(
                    record.get("ok") and record.get("verified")
                    for record in result.records):
                ledger.fail("B sweep: record not ok and verified")
                continue
            self.previous[name] = fresh
            self.sweep_spans.append(span)
            self.b_stats.append(result.stats)
            self.b_results.append((source, points, result.records))
            self._deliver(len(result.records))

    def _guarded(self, client, ledger: Ledger) -> None:
        try:
            client(ledger)
        except Exception as error:  # noqa: BLE001 — report, not hang
            ledger.fail(f"client crashed: {type(error).__name__}: "
                        f"{error}")
            self.stop.set()

    # -- the window ---------------------------------------------------

    def _ready(self) -> bool:
        return (len(self.computed) >= max(MIN_COMPUTE, QUALITY_A)
                and len(self.b_results) >= QUALITY_B)

    def run(self, seconds: float, slices: Slices, clock: Clock) -> Outcome:
        #: Wall (start, end) of each request, with the job view's
        #: queue wait and run time for computed pairs.
        self.computed: list[tuple] = []
        self.hit_spans: list[tuple] = []
        self.sweep_spans: list[tuple] = []
        self.a_results: list[tuple] = []
        self.b_results: list[tuple] = []
        self.b_stats: list = []
        client = ServiceClient(*self.address)
        before = client.stats()["service"]
        ledgers = (Ledger(), Ledger())
        threads = [threading.Thread(target=self._guarded,
                                    args=(target, ledger), daemon=True)
                   for target, ledger in zip(
                       (self._client_a, self._client_b), ledgers)]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        while not self.stop.is_set() and not _enough(
                started, seconds, slices.complete and self._ready()):
            with slices.next() as tally:
                with self.lock:
                    mark = self.delivered
                slice_end = time.perf_counter() + SLICE_S
                while time.perf_counter() < slice_end and \
                        not self.stop.is_set():
                    clock.sample()
                    self.stop.wait(SAMPLE_S)
                with self.lock:
                    tally[0] = self.delivered - mark
        self.stop.set()
        for thread in threads:
            thread.join(timeout=120)
        clock.sample()
        outcome = Outcome(Ledger())
        ended = time.perf_counter()
        outcome.wall = ended - started
        outcome.busy = outcome.wall * clock.scale(started, ended)
        outcome.records = self.delivered
        after = client.stats()["service"]
        ledger = outcome.ledger
        for part in ledgers:
            ledger.attempted += part.attempted
            ledger.failed += part.failed
            ledger.reasons.extend(part.reasons)
        if any(thread.is_alive() for thread in threads):
            ledger.fail("a client did not stop")

        def scaled(span):
            start, end = span
            return (end - start) * clock.scale(start - SCALE_MARGIN_S,
                                               end + SCALE_MARGIN_S)

        outcome.latencies = [scaled(entry[0]) for entry in self.computed]
        outcome.hits = [scaled(span) for span in self.hit_spans]
        outcome.sweeps = [scaled(span) for span in self.sweep_spans]
        self._check_locally(ledger)
        outcome.quality = self._quality()
        if slices.traced:
            outcome.layers = self._service_figures(before, after)
        return outcome

    def _check_locally(self, ledger: Ledger) -> None:
        """Re-evaluate a seeded subset of the service's records in
        this process; each must be bit-identical."""
        rng = random.Random(f"service_mix:{self.seed}:check")
        for request, payload in rng.sample(
                self.a_results, min(CHECK_A, len(self.a_results))):
            ledger.attempt()
            point = request_point(normalise_request(request))
            record = runner.evaluate_point(request["source"], point,
                                           self.seed)
            if record_to_map_payload(record, file=request["file"],
                                     want_verified=True) != payload:
                ledger.fail(f"A record for {request['file']} differs "
                            f"from its local re-evaluation")
        for source, points, records in rng.sample(
                self.b_results, min(CHECK_B, len(self.b_results))):
            for point, record in zip(points, records):
                ledger.attempt()
                if runner.evaluate_point(source, point,
                                         self.seed) != record:
                    ledger.fail("sharded record differs from its local "
                                "re-evaluation")

    def _quality(self) -> list:
        quality = [(self.payloads[j]["metrics"]["cycles"],
                    self.payloads[j]["metrics"]["energy"])
                   for j in range(QUALITY_A) if j in self.payloads]
        seen = set()
        for source, points, records in self.b_results[:QUALITY_B]:
            for point, record in zip(points, records):
                if (source, point) not in seen:
                    seen.add((source, point))
                    quality.append((record["metrics"]["cycles"],
                                    record["metrics"]["energy"]))
        return quality

    def _service_figures(self, before: dict, after: dict) -> dict:
        def delta(name):
            return after[name] - before[name]

        waited = [entry[1] for entry in self.computed]
        runtime = [entry[2] for entry in self.computed]
        transport = [end - start - queued - ran
                     for (start, end), queued, ran in self.computed]
        reused = delta("frontends_reused")
        lookups = reused + delta("frontends_compiled")
        unique = sum(stats.unique for stats in self.b_stats)
        return {
            "service.queue_wait_ms_p50": percentile(waited, 50) * 1e3,
            "service.compute_ms_p50": percentile(runtime, 50) * 1e3,
            "service.transport_ms_p50": percentile(transport, 50) * 1e3,
            "service.store_hit_ratio": (delta("store_hits")
                                        / max(delta("submits"), 1)),
            "service.coalesced": delta("coalesced"),
            "service.frontend_reuse_ratio": reused / max(lookups, 1),
            "dse.distributed.peer_ratio": (
                sum(stats.peer_records for stats in self.b_stats)
                / max(unique, 1)),
            "dse.distributed.leases": (
                sum(stats.leases for stats in self.b_stats)
                / max(len(self.b_stats), 1)),
            "dse.distributed.stolen": sum(stats.stolen
                                          for stats in self.b_stats),
        }

    def close(self) -> None:
        self.stop.set()
        if self.daemon is not None:
            self.daemon.stop()
        # The pool shuts down without waiting; reap its processes so
        # none outlives the benchmark.
        for child in multiprocessing.active_children():
            child.join(timeout=30)
            if child.is_alive():
                child.terminate()
                child.join()


WORKLOADS = {
    "kernel_suite": KernelSuite,
    "tile_sweep": TileSweep,
    "service_mix": ServiceMix,
}
