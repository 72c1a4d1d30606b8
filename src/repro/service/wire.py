"""HTTP/1.1 framing for the daemon and its client, as pure functions.

The daemon (asyncio streams) and the client (a blocking socket) each
read a head, everything up to and including the first blank line,
with their own I/O and hand it here; nothing here does I/O.  The
rules are in ``docs/service.md``, "The wire".
"""

from __future__ import annotations

import json
from typing import Mapping

#: Longest head either side reads, blank line included.
MAX_HEAD = 65536
#: Most header lines one head may carry.
MAX_HEADERS = 100
#: Bound on request bodies (a kernel source is a few KB; 8 MB leaves
#: room for generated programs without letting a client exhaust RAM).
MAX_BODY_BYTES = 8 * 1024 * 1024
#: The event stream's head: close-delimited NDJSON, no length.
EVENTS_HEAD = (b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n"
               b"Connection: close\r\n\r\n")

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            413: "Payload Too Large", 431: "Request Header Fields Too Large",
            500: "Internal Server Error", 503: "Service Unavailable"}


class HttpError(ConnectionError):
    """A message that breaks the framing, or a request the daemon
    refuses (*status*, *headers*); to a client, a transport failure."""

    def __init__(self, status: int, message: str,
                 headers: Mapping[str, str] | None = None):
        super().__init__(message)
        self.status = status
        self.headers = dict(headers or {})


def encode_request(method: str, target: str, host: str,
                   body: Mapping | None) -> bytes:
    """One request's bytes: the head, then the JSON body if any."""
    payload = b""
    extra = ""
    if body is not None:
        payload = json.dumps(body).encode("utf-8")
        extra = "Content-Type: application/json\r\n"
    return (f"{method} {target} HTTP/1.1\r\nHost: {host}\r\n"
            f"Content-Length: {len(payload)}\r\n{extra}\r\n"
            ).encode("latin-1") + payload


def encode_response(status: int, payload: dict,
                    headers: Mapping[str, str] | None = None,
                    close: bool = False) -> bytes:
    """One JSON answer's bytes; with *close* it says ``Connection:
    close`` and is the connection's last."""
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    headers = dict(headers or {})
    if close:
        headers["Connection"] = "close"
    extra = "".join(f"{name}: {value}\r\n"
                    for name, value in headers.items())
    return (f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"{extra}\r\n").encode("latin-1") + body


def parse_request_head(head: bytes
                       ) -> tuple[str, str, dict[str, str], bool, int]:
    """A request head's method, target, headers, close flag (the
    connection ends after this exchange) and body length."""
    start, headers, length = _split_head(head)
    fields = start.split()
    if len(fields) != 3 or not fields[2].startswith("HTTP/"):
        raise HttpError(400, "malformed request line")
    method, target, version = fields
    if "transfer-encoding" in headers:
        # The next request starts where this body ends: only a
        # length says where that is.
        raise HttpError(400, "send the body with a Content-Length")
    if length is None:
        length = 0
    elif length > MAX_BODY_BYTES:
        raise HttpError(413, f"body exceeds {MAX_BODY_BYTES} bytes")
    return method.upper(), target, headers, _closes(version, headers), \
        length


def parse_response_head(head: bytes
                        ) -> tuple[int, dict[str, str], bool, int | None]:
    """An answer head's status, headers, close flag and body length
    (None: the close-delimited event stream)."""
    start, headers, length = _split_head(head)
    fields = start.split(None, 2)
    if len(fields) < 2 or not fields[0].startswith("HTTP/") \
            or not (fields[1].isascii() and fields[1].isdigit()):
        raise HttpError(400, f"malformed status line {start[:80]!r}")
    return int(fields[1]), headers, _closes(fields[0], headers), length


def _split_head(head: bytes
                ) -> tuple[str, dict[str, str], int | None]:
    """A head's start line, headers (names lower-cased) and body
    length (None when it announces none)."""
    if len(head) > MAX_HEAD:
        raise HttpError(431, f"head over {MAX_HEAD} bytes")
    if not head.endswith(b"\r\n\r\n"):
        raise HttpError(400, "head not ended by a blank line")
    start, *lines = head.decode("latin-1").split("\r\n")[:-2]
    if len(lines) > MAX_HEADERS:
        raise HttpError(431, f"over {MAX_HEADERS} header lines")
    headers: dict[str, str] = {}
    for line in lines:
        name, colon, value = line.partition(":")
        name = name.strip(" \t").lower()
        if not colon or not name or (
                name == "content-length" and name in headers):
            raise HttpError(400, f"malformed header {line[:80]!r}")
        headers[name] = value.strip(" \t")
    length = headers.get("content-length")
    if length is None:
        return start, headers, None
    if not (length.isascii() and length.isdigit()) or len(length) > 18:
        raise HttpError(400, f"bad Content-Length {length[:20]!r}")
    return start, headers, int(length)


def _closes(version: str, headers: Mapping[str, str]) -> bool:
    """Whether this message is its connection's last."""
    return (headers.get("connection", "").lower() == "close"
            or version == "HTTP/1.0")
