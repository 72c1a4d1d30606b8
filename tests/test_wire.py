"""Byte-level fuzzing of the daemon's HTTP/1.1 framing.

The pure parser in :mod:`repro.service.wire` gets arbitrary,
truncated, oversized and concatenated byte streams; a live daemon
gets the same kind of stream over a raw socket, and a real client
gets answers cut at any length.  The properties:

* nothing hangs past the socket timeout;
* no caller is handed truncated JSON;
* malformed input gets a 4xx or a clean close, never a 5xx or a
  handler task left running;
* the connection is closed after any error;
* pipelined keep-alive requests are answered in order;
* a connection that sends half a head, or none, is closed unanswered
  after ``HEAD_TIMEOUT``.
"""

import json
import logging
import socket
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.service import ServiceClient, ServiceThread, wire
from repro.service import daemon as daemon_module

from tests.conftest import FIR_SOURCE
from tests.test_service import _canned_daemon, _exchange

FRAMING_STATUSES = {400, 413, 431}

VALID = [
    b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n",
    b"GET /jobs?state=done HTTP/1.1\r\n\r\n",
    b"POST /jobs HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}",
    b"POST /jobs?wait=0 HTTP/1.1\r\nContent-Length: 4\r\n\r\nnull",
    b"GET /nope HTTP/1.1\r\n\r\n",
    b"GET /healthz HTTP/1.0\r\n\r\n",
    b"get /stats HTTP/1.1\r\nconnection: keep-alive\r\n\r\n",
]
OVERSIZED = [
    b"GET /" + b"a" * wire.MAX_HEAD + b" HTTP/1.1\r\n\r\n",
    b"GET / HTTP/1.1\r\n" + b"X: y\r\n" * (wire.MAX_HEADERS + 1)
    + b"\r\n",
]


#: A request built from a start line, header lines and a body, each
#: drawn from well-formed and rule-breaking choices.
REQUEST = st.builds(
    lambda start, headers, body: b"\r\n".join([start, *headers, b"",
                                               body]),
    st.sampled_from([b"GET /healthz HTTP/1.1", b"POST /jobs HTTP/1.1",
                     b"GET /jobs?state=done HTTP/1.0", b"GET //[ HTTP/1.1",
                     b"NONSENSE", b"GET / HTTP/1.1 extra", b""]),
    st.lists(st.sampled_from([
        b"Host: x", b"Connection: close", b"Content-Length: 2",
        b"Content-Length: 99", b"Content-Length: -5",
        b"Content-Length: +2", b"Content-Length: 1e3",
        b"Content-Length: \x0b2", b"Content-Length: 1_0",
        b"Content-Length: 99999999999999999999",
        b"Transfer-Encoding: chunked", b"X", b": y"]), max_size=4),
    st.sampled_from([b"", b"{}", b"null"]))


def _truncated(messages):
    return messages.flatmap(
        lambda message: st.integers(0, len(message)).map(
            lambda cut: message[:cut]))


#: One piece of a stream: a valid request, a built one, a cut one, or
#: junk.
PIECE = st.one_of(
    st.sampled_from(VALID),
    REQUEST,
    _truncated(st.sampled_from(VALID) | REQUEST),
    st.binary(max_size=48),
)
STREAM = st.lists(PIECE, max_size=5).map(b"".join)


def _answers(data: bytes) -> list:
    """Split what a daemon sent into ``(status, close, payload)``
    answers, asserting each is complete."""
    answers = []
    while data:
        head, separator, data = data.partition(b"\r\n\r\n")
        assert separator, f"an answer head cut short: {head[:80]!r}"
        status, __, close, length = wire.parse_response_head(
            head + separator)
        assert length is not None
        assert len(data) >= length, "an answer cut short"
        answers.append((status, close, json.loads(data[:length])))
        data = data[length:]
    return answers


# -- the pure parser ------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(st.one_of(REQUEST, STREAM))
def test_the_parsers_take_any_bytes(raw):
    """Any bytes, and the head a reader would cut from them, parse or
    raise HttpError with a framing status."""
    head, separator, __ = raw.partition(b"\r\n\r\n")
    for data in (raw, head + separator):
        for parse in (wire.parse_request_head, wire.parse_response_head):
            try:
                length = parse(data)[-1]
            except wire.HttpError as error:
                assert error.status in FRAMING_STATUSES
            else:
                assert data.endswith(b"\r\n\r\n")
                assert length is None or length >= 0


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(
    st.sampled_from(["GET", "POST"]),
    st.text("abcdefghijklmnopqrstuvwxyz/?=&0123456789", min_size=1,
            max_size=20).map(lambda path: "/" + path),
    st.one_of(st.none(), st.dictionaries(
        st.text(max_size=8), st.integers() | st.text(max_size=8),
        max_size=3))), min_size=1, max_size=4))
def test_concatenated_requests_split_back_in_order(requests):
    """Encoded requests laid end to end parse back one by one."""
    stream = b"".join(wire.encode_request(method, path, "h:1", body)
                      for method, path, body in requests)
    for method, path, body in requests:
        head, separator, stream = stream.partition(b"\r\n\r\n")
        parsed_method, target, __, close, length = \
            wire.parse_request_head(head + separator)
        assert (parsed_method, target, close) == (method, path, False)
        payload, stream = stream[:length], stream[length:]
        assert (json.loads(payload) if payload else None) == body
    assert stream == b""


@settings(max_examples=50, deadline=None)
@given(st.integers(100, 599), st.booleans(),
       st.dictionaries(st.text(max_size=8), st.integers(), max_size=3))
def test_an_encoded_answer_parses_back(status, close, payload):
    raw = wire.encode_response(status, payload, close=close)
    head, separator, body = raw.partition(b"\r\n\r\n")
    parsed = wire.parse_response_head(head + separator)
    assert parsed[0] == status and parsed[2] == close
    assert parsed[3] == len(body)
    assert json.loads(body) == payload


@pytest.mark.parametrize("head", OVERSIZED)
def test_the_parser_refuses_an_oversized_head_with_431(head):
    with pytest.raises(wire.HttpError) as excinfo:
        wire.parse_request_head(head)
    assert excinfo.value.status == 431


# -- a live daemon --------------------------------------------------------

@pytest.fixture(scope="module")
def live(tmp_path_factory):
    """One daemon and three finished jobs whose views tell them
    apart."""
    with ServiceThread(store=tmp_path_factory.mktemp("store"),
                       workers=1) as daemon:
        with ServiceClient(*daemon.address) as client:
            jobs = [client.submit({"kind": "map", "source": FIR_SOURCE,
                                   "pps": pps}, wait=60)["job"]["id"]
                    for pps in (1, 2, 3)]
        yield daemon, jobs


def _settled(daemon) -> bool:
    """True once the daemon has no connection handler left running."""
    deadline = time.monotonic() + 5
    while daemon.service._connections:
        if time.monotonic() > deadline:
            return False
        time.sleep(0.005)
    return True


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(STREAM, st.sampled_from(OVERSIZED)))
def test_a_live_daemon_survives_any_stream(live, caplog, raw):
    daemon, __ = live
    answers = _answers(_exchange(daemon.address, raw, eof=True))
    for index, (status, close, payload) in enumerate(answers):
        assert status < 500, payload
        if status >= 400:
            assert close
            assert index == len(answers) - 1, "answered after an error"
    assert _settled(daemon), "a handler task outlived its connection"
    assert [record.getMessage() for record in caplog.records
            if record.levelno >= logging.WARNING] == []


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 2), min_size=1, max_size=6))
def test_pipelined_requests_are_answered_in_order(live, order):
    daemon, jobs = live
    raw = b"".join(f"GET /jobs/{jobs[index]} HTTP/1.1\r\n\r\n".encode()
                   for index in order)
    answers = _answers(_exchange(daemon.address, raw, eof=True))
    assert [payload["id"] for __, __, payload in answers] == \
        [jobs[index] for index in order]
    assert not any(close for __, close, __ in answers)


def test_a_half_sent_head_is_closed_unanswered(tmp_path, monkeypatch):
    """Sockets that send part of a head, or nothing, and then wait are
    closed with no answer once ``HEAD_TIMEOUT`` has passed, and their
    handlers end.  A client's pooled connection that the daemon closed
    this way is resent once on a new connection."""
    timeout = 0.3
    monkeypatch.setattr(daemon_module, "HEAD_TIMEOUT", timeout)
    with ServiceThread(store=tmp_path / "store", workers=1) as daemon:
        started = time.monotonic()
        sockets = [socket.create_connection(daemon.address, timeout=10)
                   for __ in range(6)]
        try:
            for sock in sockets[1:]:
                sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n")
            assert [sock.recv(65536) for sock in sockets] == [b""] * 6
        finally:
            for sock in sockets:
                sock.close()
        assert time.monotonic() - started >= timeout
        assert _settled(daemon), "a handler outlived its timeout"
        with ServiceClient(*daemon.address) as client:
            old = client.health()
            stale = list(client._idle)
            time.sleep(3 * timeout)
            assert _settled(daemon)
            assert client.health()["started_at"] == old["started_at"]
            fresh = list(client._idle)
        assert len(stale) == len(fresh) == 1 and fresh[0] is not stale[0]


# -- a real client ----------------------------------------------------------

ANSWER = (b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
          b'Content-Length: 12\r\n\r\n{"ok": true}')


@settings(max_examples=40, deadline=None)
@given(st.integers(0, len(ANSWER)))
def test_a_client_never_returns_a_cut_answer(cut):
    """An answer cut at any length is a ConnectionError; only the
    whole one is returned."""
    with _canned_daemon(ANSWER[:cut]) as address, \
            ServiceClient(*address, timeout=10) as client:
        if cut < len(ANSWER):
            with pytest.raises(ConnectionError):
                client.health()
            assert client._idle == []
        else:
            assert client.health() == {"ok": True}
