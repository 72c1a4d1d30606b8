"""End-to-end tests for the mapping daemon (repro.service).

The acceptance criteria of the service subsystem live here:

* payloads bit-identical to ``fpfa-map map --json`` for the whole
  kernel suite, served to 8+ concurrent clients;
* duplicate in-flight submissions coalesce to exactly one backend
  computation (worker-run counters);
* a resubmit to a warm worker skips frontend compilation (worker
  frontend memo counters + per-job profile meta).
"""

import asyncio
import concurrent.futures
import contextlib
import json
import logging
import socket
import threading
import time

import pytest

from repro.cli import main
from repro.dse.space import DesignSpace
from repro.eval.kernels import KERNELS
from repro.service import ServiceClient, ServiceError, ServiceThread

from tests.conftest import FIR_SOURCE


@pytest.fixture
def daemon(tmp_path):
    with ServiceThread(store=tmp_path / "store", workers=4) as thread:
        yield thread


@pytest.fixture
def client(daemon):
    return ServiceClient(*daemon.address)


def _offline_payload(tmp_path, source, *flags):
    """The ground truth: what `fpfa-map map --json` writes."""
    source_path = tmp_path / "prog.c"
    source_path.write_text(source)
    json_path = tmp_path / "out.json"
    assert main(["map", str(source_path), "--json", str(json_path),
                 *flags]) == 0
    return str(source_path), json.loads(json_path.read_text())


def _canon(payload):
    return json.dumps(payload, sort_keys=True)


# -- basics ---------------------------------------------------------------

def test_health_and_stats(client):
    assert client.health()["ok"] is True
    stats = client.stats()
    assert stats["workers"]["workers"] == 4
    assert stats["queue"]["jobs"] == 0
    assert stats["store"]["entries"] == 0


def test_map_job_payload_matches_offline_cli(client, tmp_path):
    file, expected = _offline_payload(tmp_path, FIR_SOURCE)
    payload = client.map_source(FIR_SOURCE, file=file)
    assert _canon(payload) == _canon(expected)
    # A field the protocol does not know, such as an old client's
    # "priority", is accepted and ignored.
    payload = client.map_source(FIR_SOURCE, file=file, priority=5)
    assert _canon(payload) == _canon(expected)


def test_map_job_with_tiles_and_verify_matches_offline(client,
                                                       tmp_path):
    file, expected = _offline_payload(
        tmp_path, FIR_SOURCE, "--tiles", "2", "--topology", "ring",
        "--verify-seed", "3", "--balance")
    payload = client.map_source(FIR_SOURCE, file=file, tiles=2,
                                topology="ring", verify_seed=3,
                                balance=True)
    assert _canon(payload) == _canon(expected)
    assert payload["verified"] is True
    assert payload["multitile"]["tiles"] == 2


# -- acceptance: kernel suite, 8 concurrent clients -----------------------

def test_kernel_suite_concurrently_bit_identical(client, tmp_path):
    expected = {}
    for kernel in KERNELS:
        directory = tmp_path / kernel.name
        directory.mkdir()
        expected[kernel.name] = _offline_payload(directory,
                                                 kernel.source)

    def submit(kernel):
        # One client per thread: clients are cheap and isolated.
        own = ServiceClient(client.host, client.port)
        file, __ = expected[kernel.name]
        return kernel.name, own.map_source(kernel.source, file=file)

    with concurrent.futures.ThreadPoolExecutor(8) as pool:
        results = dict(pool.map(submit, KERNELS))
    for kernel in KERNELS:
        assert _canon(results[kernel.name]) \
            == _canon(expected[kernel.name][1]), kernel.name
    stats = client.stats()
    assert stats["service"]["computed"] == len(KERNELS)
    assert stats["store"]["entries"] == len(KERNELS)


# -- acceptance: coalescing -----------------------------------------------

def test_duplicate_submissions_share_one_backend_run(client):
    n_clients = 8

    def submit(index):
        own = ServiceClient(client.host, client.port)
        return own.map_source(FIR_SOURCE, file="dup.c")

    with concurrent.futures.ThreadPoolExecutor(n_clients) as pool:
        payloads = list(pool.map(submit, range(n_clients)))
    assert all(_canon(payload) == _canon(payloads[0])
               for payload in payloads)
    stats = client.stats()["service"]
    # Exactly one backend computation; every other submission either
    # coalesced onto it in flight or hit the artifact store after it.
    assert stats["computed"] == 1
    assert stats["submits"] == n_clients
    assert stats["coalesced"] + stats["store_hits"] == n_clients - 1


def test_duplicate_whose_lookup_outlives_the_first_job_never_reruns(
        tmp_path):
    """Regression for the coalescing race: a duplicate that arrives
    while the first job is in flight must not start a store read that
    outlives that job — the read's stale miss would queue a second
    backend run.  The store here answers every read after the first
    only once released, and the release comes after the first job
    finished."""
    from repro.service.daemon import MappingService
    from repro.dse.cache import ResultCache

    class HeldStore(ResultCache):
        def __init__(self, root):
            super().__init__(root)
            self.release = threading.Event()
            self.reads = 0

        def get(self, key, want_verified=False):
            record = super().get(key, want_verified=want_verified)
            self.reads += 1
            if self.reads > 1:
                self.release.wait(timeout=30)
            return record

    store = HeldStore(tmp_path / "store")
    request = {"kind": "map", "source": FIR_SOURCE, "file": "dup.c"}

    async def until_terminal(job):
        while job.state not in ("done", "failed"):
            await asyncio.sleep(0.01)

    async def scenario():
        service = MappingService(store=store, workers=1,
                                 worker_mode="thread")
        await service.start("127.0.0.1", 0)
        try:
            first, __ = await service.submit(dict(request))
            duplicate = asyncio.ensure_future(
                service.submit(dict(request)))
            await until_terminal(first)
            store.release.set()
            job, coalesced = await duplicate
            await until_terminal(job)
            return first, job, coalesced, \
                service.describe()["service"]
        finally:
            store.release.set()
            await service.close()

    first, job, coalesced, stats = asyncio.run(scenario())
    assert first.state == "done"
    assert stats["computed"] == 1
    assert job is first and coalesced


# -- acceptance: warm resubmits skip the frontend -------------------------

def test_warm_resubmit_reuses_the_frontend(client):
    first = client.submit({"kind": "map", "source": FIR_SOURCE,
                           "pps": 5})
    client.result(first["job"]["id"])
    # Different tile parameters -> different store key, same source
    # and transform options -> same frontend.
    second = client.submit({"kind": "map", "source": FIR_SOURCE,
                            "pps": 3})
    client.result(second["job"]["id"])
    stats = client.stats()["service"]
    assert stats["computed"] == 2
    assert stats["frontends_compiled"] == 1
    assert stats["frontends_reused"] == 1
    view = client.job(second["job"]["id"])
    assert view["meta"]["frontend_reused"] is True
    # The per-job profile carries the MappingReport timings: backend
    # stages ran for this job, so they are present alongside the
    # memoised frontend's stage times.
    timings = view["meta"]["timings"]
    for stage in ("parse", "transforms", "cluster", "schedule",
                  "allocate"):
        assert stage in timings


def test_two_daemons_in_one_process_share_no_frontend_memo():
    """Each thread-mode daemon's pool keeps its own memo: the same
    chunk on a second daemon compiles its frontend again."""
    chunk = {"kind": "sweep-chunk", "source": FIR_SOURCE,
             "points": [DesignSpace({"n_pps": [2]}).grid()[0]
                        .to_dict()]}
    with ServiceThread(workers=1) as first, \
            ServiceThread(workers=1) as second:
        counts = []
        for daemon in (first, second):
            client = ServiceClient(*daemon.address)
            client.result(client.submit(chunk)["job"]["id"])
            counts.append(client.stats()["service"])
    for service in counts:
        assert service["frontends_compiled"] == 1
        assert service["frontends_reused"] == 0


def test_store_hit_skips_the_pool_entirely(client):
    client.map_source(FIR_SOURCE, file="a.c")
    response = client.submit({"kind": "map", "source": FIR_SOURCE,
                              "file": "b.c"})
    job = response["job"]
    assert job["state"] == "done"          # finished at submit time
    assert job["meta"]["cache"] == "hit"
    assert job["result"]["file"] == "b.c"  # label is per-request
    assert client.stats()["service"]["computed"] == 1


def test_verifying_client_never_trusts_an_unverified_record(client):
    client.map_source(FIR_SOURCE, file="a.c")
    payload = client.map_source(FIR_SOURCE, file="a.c",
                                verify_seed=11)
    assert payload["verified"] is True
    stats = client.stats()["service"]
    assert stats["computed"] == 2  # the unverified record re-ran
    assert stats["store_hits"] == 0  # ... and was not counted a hit
    # And now the verified record serves both kinds of request.
    client.map_source(FIR_SOURCE, file="a.c", verify_seed=5)
    client.map_source(FIR_SOURCE, file="a.c")
    stats = client.stats()["service"]
    assert stats["computed"] == 2
    assert stats["store_hits"] == 2


# -- sweep-chunk jobs and the store ---------------------------------------

def _chunk(dimensions):
    return {"kind": "sweep-chunk", "source": FIR_SOURCE,
            "points": [point.to_dict()
                       for point in DesignSpace(dimensions).grid()]}


def test_chunk_reuses_map_job_artifacts(client):
    client.map_source(FIR_SOURCE, file="a.c")  # pps=5, buses=10
    response = client.submit(_chunk({"n_pps": [4, 5], "n_buses": [10]}))
    result = client.result(response["job"]["id"])
    # One of the two chunk points is the map job's record.
    assert result["stats"]["cached"] == 1
    assert result["stats"]["evaluated"] == 1
    # A chunk's hits are its own: the map-job hit count stays put.
    assert client.stats()["service"]["store_hits"] == 0


def test_repeated_chunk_job_counts_its_hits_in_the_chunk(client):
    """The daemon serves a chunk's stored points itself, and counts
    them where they happen — the chunk's ``stats.cached`` — while
    ``/stats["service"]["store_hits"]`` stays a map-job count and
    ``/stats["store"]`` reports no hit figure."""
    request = _chunk({"n_pps": [1, 2, 3], "n_buses": [4, 10]})
    results = [client.result(client.submit(request)["job"]["id"])
               for __ in range(2)]
    assert [r["stats"]["cached"] for r in results] == [0, 6]
    assert results[1]["records"] == results[0]["records"]
    stats = client.stats()
    assert stats["store"]["entries"] == 6
    assert not {"hits", "misses", "hit_rate"} & set(stats["store"])
    assert stats["service"]["store_hits"] == 0


# -- status, events, failures ---------------------------------------------

def test_job_listing_and_long_poll(client):
    response = client.submit({"kind": "map", "source": FIR_SOURCE})
    job_id = response["job"]["id"]
    view = client.job(job_id, wait=30)
    assert view["state"] == "done"
    listed = client.jobs()
    assert [item["id"] for item in listed] == [job_id]
    assert client.jobs(state="done")[0]["id"] == job_id
    assert client.jobs(state="failed") == []


def test_event_stream_replays_to_terminal(client):
    response = client.submit({"kind": "map", "source": FIR_SOURCE})
    job_id = response["job"]["id"]
    events = [event["event"] for event in client.events(job_id)]
    assert events[0] == "queued"
    assert events[-1] == "done"
    assert "running" in events


def test_failing_job_surfaces_the_record_error(client):
    response = client.submit({"kind": "map", "source": FIR_SOURCE,
                              "pps": 0})
    with pytest.raises(ServiceError, match="failed"):
        client.result(response["job"]["id"])
    view = client.job(response["job"]["id"])
    assert view["state"] == "failed"
    assert "error" in view
    # A failure is never memoised: nothing poisoned the store.
    assert client.stats()["store"]["entries"] == 0


def test_protocol_errors_are_http_400(client):
    with pytest.raises(ServiceError) as excinfo:
        client.submit({"kind": "map"})
    assert excinfo.value.status == 400


def test_validation_400_from_a_real_daemon_is_fatal():
    with ServiceThread(workers=1) as daemon:
        client = ServiceClient(*daemon.address)
        with pytest.raises(ServiceError) as info:
            client.submit({"kind": "bogus"})
    assert info.value.status == 400
    assert "bogus" in str(info.value)


@pytest.fixture
def held_worker(monkeypatch):
    """Hold every job's pool task on its worker until ``release`` is
    set; ``running`` is set when the first one starts."""
    from repro.service import daemon as daemon_module

    running, release = threading.Event(), threading.Event()
    run_chunk_job = daemon_module.run_chunk_job

    def held_chunk_job(*args):
        running.set()
        release.wait(timeout=60)
        return run_chunk_job(*args)

    monkeypatch.setattr(daemon_module, "run_chunk_job", held_chunk_job)
    yield running, release
    release.set()


def _map_request(pps):
    return {"kind": "map", "source": FIR_SOURCE, "pps": pps}


def test_queue_full_503_carries_retry_after(held_worker):
    """Overload is plain HTTP: with the one worker held and the one
    queue slot taken, the next submit is a 503 whose ``Retry-After``
    header says when to come back."""
    import http.client

    running, release = held_worker
    with ServiceThread(workers=1, max_queue=1) as daemon:
        try:
            client = ServiceClient(*daemon.address)
            client.submit(_map_request(1))  # runs, held on the worker
            assert running.wait(timeout=30), "the worker never started"
            client.submit(_map_request(2))  # takes the one queue slot
            connection = http.client.HTTPConnection(*daemon.address,
                                                    timeout=30)
            try:
                connection.request(
                    "POST", "/jobs",
                    body=json.dumps(_map_request(3)).encode("utf-8"),
                    headers={"Content-Type": "application/json"})
                response = connection.getresponse()
                body = json.loads(response.read().decode("utf-8"))
            finally:
                connection.close()
        finally:
            release.set()
    assert response.status == 503
    assert response.getheader("Retry-After") == "0.5"
    assert "queue depth 1 reached" in body["error"]


# -- the request path: no executor hop, one round trip --------------------

def test_store_hit_and_stats_make_no_executor_hop(daemon, client,
                                                  monkeypatch):
    """A warm map hit and ``GET /stats`` are answered on the event
    loop: with its ``run_in_executor`` patched to raise, both succeed
    and it is never called."""
    client.map_source(FIR_SOURCE, file="a.c")
    hops = []

    def no_hop(*args):
        hops.append(args)
        raise AssertionError("executor hop on the event loop")

    monkeypatch.setattr(daemon._loop, "run_in_executor", no_hop)
    job = client.submit({"kind": "map", "source": FIR_SOURCE,
                         "file": "a.c"})["job"]
    stats = client.stats()
    assert hops == []
    assert job["state"] == "done" and job["meta"]["cache"] == "hit"
    assert stats["service"]["store_hits"] == 1


def test_submit_wait_returns_a_computed_job_terminal(client):
    response = client.submit(_map_request(4), wait=60)
    job = response["job"]
    assert job["state"] == "done"
    assert job["meta"]["cache"] == "miss"
    assert job["result"] == client.job(job["id"])["result"]


def test_submit_wait_returns_a_coalesced_duplicate_terminal(
        held_worker):
    running, release = held_worker
    with ServiceThread(workers=1) as daemon:
        client = ServiceClient(*daemon.address)
        first = client.submit(_map_request(4))["job"]
        assert running.wait(timeout=30), "the worker never started"
        with concurrent.futures.ThreadPoolExecutor(1) as pool:
            duplicate = pool.submit(client.submit, _map_request(4), 60)
            # Free the worker only once the duplicate joined the job.
            deadline = time.monotonic() + 30
            while client.job(first["id"])["submits"] < 2:
                assert time.monotonic() < deadline, "no duplicate came"
                time.sleep(0.01)
            release.set()
            response = duplicate.result(timeout=60)
    assert response["coalesced"] is True
    assert response["job"]["id"] == first["id"]
    assert response["job"]["state"] == "done"
    assert response["job"]["result"]["config"]["n_pps"] == 4


def test_a_map_job_stored_while_queued_finishes_as_a_hit(held_worker):
    """Job B, queued behind job A of the same point under another
    ``file`` label, is served by its dispatch-time store pass: it
    reads ``cache: hit`` and runs no pool task, so the daemon looked
    one frontend up, for A."""
    running, release = held_worker
    with ServiceThread(workers=1) as daemon, \
            ServiceClient(*daemon.address) as client:
        first = client.submit(dict(_map_request(4), file="a.c"))
        assert running.wait(timeout=30), "the worker never started"
        second = client.submit(dict(_map_request(4), file="b.c"))
        assert not second["coalesced"]
        assert second["job"]["state"] == "queued"
        release.set()
        payload_a = client.result(first["job"]["id"], timeout=60)
        payload_b = client.result(second["job"]["id"], timeout=60)
        meta = client.job(second["job"]["id"])["meta"]
        stats = client.stats()["service"]
    assert meta["cache"] == "hit" and meta["worker"] is None
    assert payload_b["file"] == "b.c"
    assert _canon(dict(payload_b, file="a.c")) == _canon(payload_a)
    assert stats["frontends_compiled"] + stats["frontends_reused"] == 1
    assert (stats["computed"], stats["store_hits"]) == (2, 0)


def test_submit_wait_zero_answers_at_once_and_junk_is_400(
        held_worker):
    from repro.service.client import POLL_SLICE

    __, release = held_worker
    with ServiceThread(workers=1) as daemon:
        client = ServiceClient(*daemon.address)
        started = time.monotonic()
        job = client.submit(_map_request(4), wait=0)["job"]
        elapsed = time.monotonic() - started
        # The job is held on its worker: the answer did not wait.
        assert job["state"] in ("queued", "running")
        assert elapsed < POLL_SLICE
        with pytest.raises(ServiceError) as posted:
            client._request("POST", "/jobs?wait=abc",
                            body=_map_request(5))
        with pytest.raises(ServiceError) as polled:
            client._request("GET", f"/jobs/{job['id']}?wait=abc")
        assert posted.value.status == polled.value.status == 400
        assert len(client.jobs()) == 1  # the 400 queued nothing
        release.set()


def test_unknown_job_is_http_404(client):
    with pytest.raises(ServiceError) as excinfo:
        client.job("job-999999")
    assert excinfo.value.status == 404


def test_unknown_route_is_http_404(client):
    for path in ("/no/such/route", "/metrics"):
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", path)
        assert excinfo.value.status == 404, path


# -- persistent connections -----------------------------------------------

def _sockets(client):
    """The local address of each idle connection *client* keeps."""
    return [connection.sock.getsockname()
            for connection in client._idle]


def _exchange(address, raw: bytes, eof: bool = False) -> bytes:
    """Send *raw* on a new socket (then EOF, with *eof*) and read until
    the daemon closes it (a socket timeout if it never does).  A
    daemon that closes with input unread resets the connection: that
    ends the read too, after what it answered."""
    with socket.create_connection(address, timeout=10) as sock:
        chunks = []
        try:
            sock.sendall(raw)
            if eof:
                sock.shutdown(socket.SHUT_WR)
            while chunk := sock.recv(65536):
                chunks.append(chunk)
        except (BrokenPipeError, ConnectionResetError):
            pass
    return b"".join(chunks)


def test_sequential_calls_reuse_one_connection(client):
    client.health()
    first = _sockets(client)
    payload = client.map_source(FIR_SOURCE)  # a submit that waits
    job = client.submit(_map_request(3))["job"]
    assert client.job(job["id"], wait=30)["state"] == "done"
    assert client.stats()["queue"]["jobs"] == 2
    assert client.map_source(FIR_SOURCE) == payload  # a store hit
    assert len(first) == 1 and _sockets(client) == first


def test_threads_sharing_a_client_get_their_own_connections(
        held_worker):
    running, release = held_worker
    with ServiceThread(workers=1) as daemon, \
            ServiceClient(*daemon.address) as client:
        with concurrent.futures.ThreadPoolExecutor(1) as pool:
            held = pool.submit(client.submit, _map_request(4), 60)
            assert running.wait(timeout=30), "the worker never started"
            # The held submit still waits on its connection.
            assert client.health()["ok"] is True
            release.set()
            assert held.result(timeout=60)["job"]["state"] == "done"
        assert len(set(_sockets(client))) == 2


def test_stop_closes_an_idle_connection_quietly(tmp_path, caplog):
    """With a client's connection open and idle, the daemon stops at
    once, logs nothing, and the client reads EOF on it."""
    daemon = ServiceThread(store=tmp_path / "store")
    daemon.start()
    client = ServiceClient(*daemon.address)
    try:
        client.health()
        [connection] = client._idle
        with caplog.at_level(logging.DEBUG):
            started = time.monotonic()
            daemon.stop()
            elapsed = time.monotonic() - started
        assert elapsed < 2
        assert daemon.error is None
        assert [record.getMessage() for record in caplog.records
                if record.levelno >= logging.WARNING] == []
        connection.sock.settimeout(5)
        assert connection.sock.recv(1) == b""
    finally:
        client.close()
        daemon.stop()


def test_event_stream_ends_its_connection(client):
    job = client.submit({"kind": "map", "source": FIR_SOURCE})["job"]
    client.health()
    pooled = _sockets(client)
    # The stream ends only when the daemon closes its connection.
    events = [event["event"] for event in client.events(job["id"],
                                                        timeout=30)]
    assert events[-1] == "done"
    assert client.job(job["id"])["state"] == "done"
    assert _sockets(client) == pooled


def test_connection_close_and_a_bad_request_end_the_connection(
        daemon):
    """Requests on one connection are answered in turn until one asks
    for ``Connection: close`` (as an HTTP/1.0 request does) or is
    malformed; the daemon then closes it."""
    health = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
    both = _exchange(daemon.address,
                     health + b"GET /healthz HTTP/1.1\r\nHost: x\r\n"
                              b"Connection: close\r\n\r\n" + health)
    assert both.count(b"HTTP/1.1 200 OK\r\n") == 2
    assert both.count(b"Connection: close\r\n") == 1
    old = _exchange(daemon.address,
                    b"GET /healthz HTTP/1.0\r\n\r\n" + health)
    assert old.count(b"HTTP/1.1 200 OK\r\n") == 1
    for malformed in (b"NONSENSE\r\n\r\n",
                      b"POST /jobs HTTP/1.1\r\n"
                      b"Transfer-Encoding: chunked\r\n\r\n0\r\n\r\n"):
        bad = _exchange(daemon.address, malformed + health)
        assert bad.startswith(b"HTTP/1.1 400 Bad Request\r\n")
        assert b"Connection: close\r\n" in bad
        assert b"200 OK" not in bad


def _unhandled(caplog):
    return [record.getMessage() for record in caplog.records
            if "Unhandled exception" in record.getMessage()]


def test_a_content_length_other_than_digits_is_a_400(daemon, caplog):
    """Only ASCII digits frame a body: a sign, a vertical tab, an
    exponent or an underscore (each of which ``int()`` reads or
    chokes on) is refused before any body byte is read."""
    health = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
    for length in (b"-5", b"+2", b"\x0b2", b"1e3", b"1_0"):
        answer = _exchange(daemon.address,
                           b"POST /nope HTTP/1.1\r\nContent-Length: "
                           + length + b"\r\n\r\n{}" + health)
        assert answer.startswith(b"HTTP/1.1 400 Bad Request\r\n"), \
            length
        assert b"Connection: close\r\n" in answer
        assert b"200 OK" not in answer
    assert _unhandled(caplog) == []


def test_an_oversized_head_is_a_431(daemon, caplog):
    """A request line or header over the head bound, or too many
    header lines, is answered 431 and the connection closed."""
    for head in (b"GET /" + b"a" * 70000 + b" HTTP/1.1\r\n\r\n",
                 b"GET /healthz HTTP/1.1\r\nX: " + b"a" * 70000
                 + b"\r\n\r\n",
                 b"GET /healthz HTTP/1.1\r\n" + b"X: y\r\n" * 500
                 + b"\r\n"):
        answer = _exchange(daemon.address, head)
        assert answer.startswith(
            b"HTTP/1.1 431 Request Header Fields Too Large\r\n")
        assert b"Connection: close\r\n" in answer
    assert _unhandled(caplog) == []


def test_a_head_cut_short_by_eof_gets_no_answer(daemon, caplog):
    """A head, or a body, that EOF cuts short gets no answer: the
    daemon closes the connection and logs nothing."""
    for raw in (b"GET /healthz HTTP/1.1\r\nHost: x",
                b"GET /healthz HTTP/1.1\r\nHost: x\r\n",
                b"POST /jobs HTTP/1.1\r\nContent-Length: 9\r\n\r\n{}"):
        assert _exchange(daemon.address, raw, eof=True) == b"", raw
    assert _unhandled(caplog) == []


def test_a_target_with_an_unclosed_ipv6_host_is_a_400(daemon):
    """``urlsplit`` refuses ``//[``: a 400, not a 500."""
    answer = _exchange(daemon.address, b"GET //[ HTTP/1.1\r\n\r\n")
    assert answer.startswith(b"HTTP/1.1 400 Bad Request\r\n")
    assert b"Connection: close\r\n" in answer


def test_the_bytes_on_the_wire_are_pinned(daemon):
    """What the client sends and the daemon answers, byte for byte."""
    received = []
    answer = (b"HTTP/1.1 200 OK\r\nContent-Length: 12\r\n\r\n"
              b'{"jobs": []}')
    with _canned_daemon(answer, answer, answer,
                        received=received) as address, \
            ServiceClient(*address, timeout=10) as client:
        client.health()
        client.submit({"kind": "map", "source": "x"}, wait=1.5)
        client.jobs("done")
    host = f"Host: {address[0]}:{address[1]}\r\n".encode()
    assert received == [
        b"GET /healthz HTTP/1.1\r\n" + host
        + b"Content-Length: 0\r\n\r\n",
        b"POST /jobs?wait=1.5 HTTP/1.1\r\n" + host
        + b"Content-Length: 30\r\nContent-Type: application/json\r\n"
          b'\r\n{"kind": "map", "source": "x"}',
        b"GET /jobs?state=done HTTP/1.1\r\n" + host
        + b"Content-Length: 0\r\n\r\n"]
    assert _exchange(daemon.address,
                     b"GET /jobs?state=done HTTP/1.1\r\n\r\n"
                     b"POST /jobs HTTP/1.1\r\nContent-Length: 1\r\n"
                     b"\r\n{") == (
        b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
        b'Content-Length: 12\r\n\r\n{"jobs": []}'
        b"HTTP/1.1 400 Bad Request\r\nContent-Type: application/json"
        b"\r\nContent-Length: 43\r\nConnection: close\r\n\r\n"
        b'{"error": "request body is not valid JSON"}')
    with ServiceClient(*daemon.address) as client:
        job = client.submit({"kind": "map", "source": FIR_SOURCE})["job"]
    stream = _exchange(daemon.address,
                       f"GET /jobs/{job['id']}/events HTTP/1.1\r\n"
                       f"\r\n".encode())
    assert stream.startswith(
        b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n"
        b"Connection: close\r\n\r\n{")


def test_a_stale_connection_is_resent_on_a_new_one(tmp_path):
    """A daemon restarted on the same port: the client's pooled
    connection to the old one fails, and the call goes through on a
    new connection."""
    with ServiceThread(store=tmp_path / "store") as first:
        client = ServiceClient(*first.address)
        old = client.health()
        stale = _sockets(client)
    with ServiceThread(store=tmp_path / "store",
                       port=first.address[1]) as second, client:
        assert second.address == first.address
        new = client.health()
        fresh = _sockets(client)
    assert len(stale) == 1 and len(fresh) == 1
    assert new["started_at"] > old["started_at"]


# -- the client's wire ----------------------------------------------------

class _CountingSocket:
    """A socket that records each ``sendall`` it is asked for."""

    def __init__(self, sock):
        self._sock = sock
        self.sent: list[bytes] = []

    def sendall(self, data):
        self.sent.append(bytes(data))
        return self._sock.sendall(data)

    def __getattr__(self, name):
        return getattr(self._sock, name)


@contextlib.contextmanager
def _canned_daemon(*answers: bytes, received: list | None = None):
    """A server for one connection: it reads one request per canned
    answer (adding its bytes to *received*), writes that answer back,
    then closes the connection.  Yields its address."""
    with socket.create_server(("127.0.0.1", 0)) as server:
        server.settimeout(10)

        def serve():
            connection, __ = server.accept()
            with connection, connection.makefile("rb") as reader:
                for answer in answers:
                    length = 0
                    request = b""
                    while (line := reader.readline()) not in (
                            b"\r\n", b""):
                        request += line
                        name, __, value = line.partition(b":")
                        if name.lower() == b"content-length":
                            length = int(value)
                    request += line + reader.read(length)
                    if received is not None:
                        received.append(request)
                    connection.sendall(answer)

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        yield server.getsockname()[:2]
        thread.join(timeout=10)


def test_a_request_goes_out_in_one_sendall(client):
    client.health()
    [connection] = client._idle
    connection.sock = counting = _CountingSocket(connection.sock)
    job = client.submit({"kind": "map", "source": FIR_SOURCE})["job"]
    assert job["state"] in ("queued", "running", "done")
    [request] = counting.sent
    head, __, body = request.partition(b"\r\n\r\n")
    assert head.startswith(b"POST /jobs HTTP/1.1\r\n")
    assert f"Content-Length: {len(body)}".encode() in head
    assert json.loads(body)["source"] == FIR_SOURCE
    assert client._idle == [connection]


def test_a_short_body_raises_and_is_not_pooled():
    answer = (b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\n"
              b'{"ok": 1')
    with _canned_daemon(answer) as address, \
            ServiceClient(*address, timeout=10) as client:
        with pytest.raises(ConnectionError, match="cut short"):
            client.health()
        assert client._idle == []


def test_an_answer_saying_connection_close_is_not_pooled():
    answer = (b"HTTP/1.1 200 OK\r\nContent-Length: 12\r\n"
              b"connection: Close\r\n\r\n{\"ok\": true}")
    with _canned_daemon(answer) as address, \
            ServiceClient(*address, timeout=10) as client:
        assert client.health() == {"ok": True}
        assert client._idle == []


def test_daemon_errors_raise_their_status_and_end_the_connection(
        client):
    for call, status in ((lambda: client.job("job-999999"), 404),
                         (lambda: client.submit({"kind": "bogus"}),
                          400)):
        with pytest.raises(ServiceError) as excinfo:
            call()
        assert excinfo.value.status == status
        assert client._idle == []  # the daemon said Connection: close


def test_events_read_the_stream_to_eof():
    events = [{"event": "queued"}, {"event": "running"},
              {"event": "done"}]
    lines = [json.dumps(event).encode() for event in events]
    answer = (b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson"
              b"\r\nConnection: close\r\n\r\n"
              + b"\n".join(lines[:2]) + b"\n\n" + lines[2])
    with _canned_daemon(answer) as address:
        client = ServiceClient(*address)
        assert list(client.events("job-000001", timeout=10)) == events
        assert client._idle == []


def test_no_module_imports_http_client():
    """The client speaks HTTP/1.1 on its own socket; nothing under
    ``src/repro`` goes back to ``http.client``.  The framing lives in
    ``service/wire.py`` alone: it does no I/O of its own, and no other
    module spells the ``Content-Length`` header."""
    import ast
    import pathlib

    import repro
    offenders = []
    wire_imports = []
    spellers = []
    for path in pathlib.Path(repro.__file__).parent.rglob("*.py"):
        text = path.read_text()
        is_wire = path.parts[-2:] == ("service", "wire.py")
        if not is_wire and "content-length" in text.lower():
            spellers.append(str(path))
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}"
                         for alias in node.names]
            else:
                continue
            if any(name == "http.client" or
                   name.startswith("http.client.") for name in names):
                offenders.append(str(path))
            if is_wire:
                wire_imports += [name for name in names
                                 if name.split(".")[0] in
                                 ("socket", "asyncio")]
    assert offenders == []
    assert wire_imports == []
    assert spellers == []


# -- worker process mode --------------------------------------------------

def test_process_worker_mode_results_identical(tmp_path):
    """Each worker process keeps its own frontend memo: three jobs of
    one frontend on two processes compile it at most twice and reuse
    it at least once."""
    file, expected = _offline_payload(tmp_path, FIR_SOURCE)
    with ServiceThread(worker_mode="process", workers=2) as thread:
        own = ServiceClient(*thread.address)
        payload = own.map_source(FIR_SOURCE, file=file)
        warm = [own.map_source(FIR_SOURCE, file=file, pps=pps)
                for pps in (3, 4)]
        stats = own.stats()["service"]
    assert _canon(payload) == _canon(expected)
    assert [entry["config"]["n_pps"] for entry in warm] == [3, 4]
    assert stats["computed"] == 3
    assert stats["frontends_compiled"] <= 2
    assert stats["frontends_reused"] >= 1
    assert stats["frontends_compiled"] + stats["frontends_reused"] == 3


def test_a_client_close_reaches_a_process_mode_daemon():
    """The pool forks its workers before the daemon listens, so no
    worker holds a copy of a client's socket: with two clients
    connected when the first job runs, one client's close() ends its
    handler on the daemon."""
    with ServiceThread(worker_mode="process", workers=2) as thread, \
            ServiceClient(*thread.address) as first, \
            ServiceClient(*thread.address) as second:
        first.health()
        second.health()
        first.map_source(FIR_SOURCE)
        connections = thread.service._connections
        assert len(connections) == 2
        second.close()
        deadline = time.monotonic() + 5
        while len(connections) > 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert len(connections) == 1


# -- CLI surface ----------------------------------------------------------

def test_cli_submit_stdout_is_the_map_json_payload(daemon, tmp_path,
                                                   capsys):
    source_path = tmp_path / "fir.c"
    source_path.write_text(FIR_SOURCE)
    host, port = daemon.address
    assert main(["submit", str(source_path), "--host", host,
                 "--port", str(port)]) == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)   # stdout is pure JSON
    assert payload["metrics"]["cycles"] > 0
    assert "job job-" in captured.err    # chatter went to stderr

    json_path = tmp_path / "out.json"
    assert main(["map", str(source_path), "--json",
                 str(json_path)]) == 0
    capsys.readouterr()
    assert _canon(payload) == _canon(json.loads(
        json_path.read_text()))


def test_cli_submit_no_wait_then_jobs(daemon, tmp_path, capsys):
    source_path = tmp_path / "fir.c"
    source_path.write_text(FIR_SOURCE)
    host, port = daemon.address
    address = ["--host", host, "--port", str(port)]
    assert main(["submit", str(source_path), *address,
                 "--no-wait"]) == 0
    err = capsys.readouterr().err
    job_id = err.split("job ")[1].split(":")[0]
    assert main(["jobs", *address]) == 0
    out = capsys.readouterr().out
    assert job_id in out and "state" in out
    assert main(["jobs", *address, "--job", job_id]) == 0
    view = json.loads(capsys.readouterr().out)
    assert view["id"] == job_id
    # --state lists only the jobs in that state.
    client = ServiceClient(host, port)
    client.result(job_id)
    failed = client.submit({"kind": "map", "source": FIR_SOURCE,
                            "pps": 0})["job"]["id"]
    with pytest.raises(ServiceError):
        client.result(failed)
    assert main(["jobs", *address, "--state", "done"]) == 0
    out = capsys.readouterr().out
    assert job_id in out and failed not in out
    assert main(["jobs", *address, "--state", "failed"]) == 0
    out = capsys.readouterr().out
    assert failed in out and job_id not in out


def test_cli_jobs_follow_streams_events(daemon, tmp_path, capsys):
    source_path = tmp_path / "fir.c"
    source_path.write_text(FIR_SOURCE)
    host, port = daemon.address
    address = ["--host", host, "--port", str(port)]
    assert main(["submit", str(source_path), *address]) == 0
    capsys.readouterr()
    assert main(["jobs", *address, "--job", "job-000001",
                 "--follow"]) == 0
    lines = [json.loads(line) for line
             in capsys.readouterr().out.splitlines() if line]
    assert lines[-1]["event"] == "done"


def test_cli_serve_max_queue_refuses_submits_beyond_it(held_worker,
                                                       tmp_path, capsys):
    """``serve --max-queue 1``: with the one worker held and the one
    queue slot taken, ``submit`` exits with the daemon's 503."""
    running, release = held_worker
    exit_codes = []
    server = threading.Thread(target=lambda: exit_codes.append(main([
        "serve", "--port", "0", "--workers", "1",
        "--worker-mode", "thread", "--max-queue", "1",
        "--store", str(tmp_path / "store")])), daemon=True)
    server.start()
    out, deadline = "", time.monotonic() + 30
    while "listening on http://" not in out:
        assert time.monotonic() < deadline, f"serve never listened: {out}"
        time.sleep(0.05)
        out += capsys.readouterr().out
    host, port = out.split("http://")[1].split()[0].rsplit(":", 1)
    client = ServiceClient(host, int(port))
    source_path = tmp_path / "fir.c"
    source_path.write_text(FIR_SOURCE)
    try:
        client.submit(_map_request(1))  # runs, held on the worker
        assert running.wait(timeout=30), "the worker never started"
        client.submit(_map_request(2))  # takes the one queue slot
        with pytest.raises(SystemExit, match="queue depth 1 reached"):
            main(["submit", str(source_path), "--host", host,
                  "--port", port, "--pps", "3"])
    finally:
        release.set()
        client.shutdown()
        server.join(timeout=60)
    assert exit_codes == [0]


def test_cli_submit_timeout_gives_up_on_a_running_job(held_worker,
                                                      tmp_path):
    """``submit --timeout S`` stops waiting after S seconds and exits
    with an error naming the job that is still running."""
    running, release = held_worker
    source_path = tmp_path / "fir.c"
    source_path.write_text(FIR_SOURCE)
    with ServiceThread(workers=1) as daemon:
        host, port = daemon.address
        try:
            started = time.monotonic()
            with pytest.raises(SystemExit,
                               match="still running after 0.3s"):
                main(["submit", str(source_path), "--host", host,
                      "--port", str(port), "--timeout", "0.3"])
            assert time.monotonic() - started < 10
            assert running.is_set()
        finally:
            release.set()


def test_cli_submit_unreachable_daemon_is_a_clean_error(tmp_path):
    source_path = tmp_path / "fir.c"
    source_path.write_text(FIR_SOURCE)
    with pytest.raises(SystemExit, match="cannot reach"):
        main(["submit", str(source_path), "--port", "1"])


# ---------------------------------------------------------------------------
# Cancellation hygiene (FPL004's contract, exercised at runtime)
# ---------------------------------------------------------------------------

def test_cancelled_connection_reads_as_cancelled(tmp_path):
    """Cancelling a connection mid-poll from outside the daemon's own
    ``close()`` (which ends its connections quietly) must leave the
    task *cancelled* — the handler re-raises CancelledError instead
    of swallowing it, so the cancellation propagates to whoever
    gathered the task."""
    import asyncio

    from repro.service.daemon import MappingService

    class _Writer:
        """The minimum StreamWriter surface the handler's finally
        block touches."""

        def close(self):
            pass

        async def wait_closed(self):
            return None

    async def scenario():
        service = MappingService(store=str(tmp_path / "store"),
                                 workers=1, worker_mode="thread")
        reader = asyncio.StreamReader()  # never fed: blocks in read
        task = asyncio.ensure_future(
            service._handle_connection(reader, _Writer()))
        await asyncio.sleep(0.05)
        task.cancel()
        with pytest.raises(asyncio.CancelledError):
            await task
        return task

    task = asyncio.run(scenario())
    assert task.cancelled()
