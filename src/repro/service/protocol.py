"""The service wire contract: requests, job keys, payload shapes.

A *request* is one JSON object submitted to ``POST /jobs``.  Two
kinds exist:

* ``kind: "map"`` — map one source at one configuration; the result
  payload is **bit-identical** to ``fpfa-map map --json`` for the
  same flags;
* ``kind: "sweep-chunk"`` — evaluate an explicit list of design
  points of one sweep and return the records keyed by cache key; the
  lease unit of :mod:`repro.dse.distributed` (``fpfa-map explore
  --remote``).

Validation happens here, once, at submission time — a malformed
request is rejected with HTTP 400 before it ever reaches the queue,
so workers only see normalised requests.

Identity
--------
A map job's identity is :func:`repro.dse.cache.cache_key` of its
(source, design point) pair — *the same key an exploration sweep
would mint for that point*.  That single decision is what unifies the
artifact store: a mapping job's record is a sweep record, a sweep
warm-starts from mapping jobs and vice versa.  A chunk's identity is
the content hash of its ordered canonical point list.

The *coalescing* key extends the job key with the verification
requirement: a verifying and a non-verifying submission of the same
point must not coalesce blindly (the non-verified compute would not
satisfy the verifying client), but two submissions with the same
requirement always share one compute.

Invariants
----------
* Requests are normalised exactly once; every downstream consumer
  (queue, workers, store) sees the canonical form.
* ``record_to_map_payload`` is the one map payload builder: the
  daemon runs it over a stored record and ``fpfa-map map --json``
  over a fresh report's metric dicts, so a store hit is
  indistinguishable from a compute.
* The ``file`` label is presentation-only: it appears in payloads
  but never in the *storage* key, so the same source submitted under
  different paths shares artifact-store entries (it does split the
  in-flight coalescing key — see :func:`coalesce_key`).
"""

from __future__ import annotations

import hashlib
import json
from typing import Mapping

from repro.arch.tilearray import TOPOLOGIES
from repro.dse.cache import cache_key
from repro.dse.space import DesignPoint, SpaceError
from repro.eval.metrics import METRIC_FIELDS, MULTITILE_METRIC_FIELDS

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8537

#: Job lifecycle states (terminal: done / failed).
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
TERMINAL_STATES = (DONE, FAILED)

#: Bound on points per ``sweep-chunk`` job: a chunk is a lease unit,
#: not a whole sweep — the distributed coordinator re-runs a chunk
#: locally when its lease fails, so chunks must stay cheap to repeat.
MAX_CHUNK_POINTS = 256

#: ``Retry-After`` hint (seconds) on a queue-full 503: the queue
#: drains at mapping speed, so "shortly" is the honest answer.
RETRY_AFTER_QUEUE_FULL = 0.5


class ProtocolError(ValueError):
    """A request the daemon rejects with HTTP 400."""


# ---------------------------------------------------------------------------
# Request normalisation
# ---------------------------------------------------------------------------

def _require_source(raw: Mapping) -> str:
    source = raw.get("source")
    if not isinstance(source, str) or not source.strip():
        raise ProtocolError("request needs a non-empty 'source' "
                            "(the C program text)")
    return source


def _optional_int(raw: Mapping, name: str,
                  default: int | None = None) -> int | None:
    value = raw.get(name, default)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolError(f"{name!r} must be an integer, "
                            f"got {value!r}")
    return value


def _optional_trace(raw: Mapping) -> dict | None:
    """The submitter's trace context, if it sent one.

    A ``trace`` field is pure observability passthrough:
    ``{"trace": <32-hex trace id>, "span": <16-hex parent span id>}``
    minted by :func:`repro.obs.trace.context` on the client side.  It
    never enters :func:`job_key`/:func:`coalesce_key` (identity
    envelopes enumerate their fields explicitly) and never reaches a
    stored record — observation must not change what is computed or
    cached.  Malformed contexts are rejected at the door like every
    other field.
    """
    ctx = raw.get("trace")
    if ctx is None:
        return None
    if not isinstance(ctx, Mapping) or \
            not isinstance(ctx.get("trace"), str) or \
            not isinstance(ctx.get("span"), str):
        raise ProtocolError(
            "'trace' must be {'trace': hex-id, 'span': hex-id} "
            f"(a trace context), got {ctx!r}")
    return {"trace": ctx["trace"], "span": ctx["span"]}


def normalise_map_request(raw: Mapping) -> dict:
    """Validate one map request; returns the canonical form.

    The canonical form carries the :class:`DesignPoint` as its
    ``to_dict`` payload — the exact unit the result cache hashes — so
    job identity and artifact identity cannot drift apart.  It is a
    one-element ``points`` list, as a chunk's are: the daemon runs
    both kinds as one job body.
    """
    source = _require_source(raw)
    tile = {"n_pps": _optional_int(raw, "pps", 5),
            "n_buses": _optional_int(raw, "buses", 10)}
    library = raw.get("library", "two-level")
    balance = raw.get("balance", False)
    if not isinstance(balance, bool):
        raise ProtocolError(f"'balance' must be a boolean, "
                            f"got {balance!r}")
    array = None
    tiles = _optional_int(raw, "tiles")
    if tiles is not None:
        topology = raw.get("topology", "crossbar")
        if topology not in TOPOLOGIES:
            raise ProtocolError(
                f"unknown topology {topology!r}; known: "
                f"{', '.join(TOPOLOGIES)}")
        hop_energy = raw.get("hop_energy", 6.0)
        if isinstance(hop_energy, bool) or \
                not isinstance(hop_energy, (int, float)):
            raise ProtocolError(f"'hop_energy' must be a number, "
                                f"got {hop_energy!r}")
        array = {"tiles": tiles, "topology": topology,
                 "hop_latency": _optional_int(raw, "hop_latency", 1),
                 "hop_energy": float(hop_energy),
                 "link_bandwidth": _optional_int(
                     raw, "link_bandwidth", 1)}
    try:
        # balance=False stays OUT of the point: a DesignPoint's
        # identity is its explicit assignments, and an exploration
        # sweep that never sweeps `balance` mints balance-free keys.
        # Omitting the default here makes a plain map job and a plain
        # --pps/--buses sweep share store entries; the payload
        # restores the config default (`record_to_map_payload`).
        point = DesignPoint.make(
            tile=tile, library=library,
            options={"balance": True} if balance else {},
            array=array)
    except SpaceError as error:
        raise ProtocolError(str(error))
    return {
        "kind": "map",
        "source": source,
        "file": raw.get("file"),
        "points": [point.to_dict()],
        "verify_seed": _optional_int(raw, "verify_seed"),
        "trace": _optional_trace(raw),
    }


def normalise_sweep_chunk_request(raw: Mapping) -> dict:
    """Validate one sweep-chunk request; returns the canonical form.

    A chunk is the distributed coordinator's lease unit: an explicit
    list of design points (``to_dict`` payloads) of one sweep.  Every
    point is round-tripped through :class:`DesignPoint` here, so the
    canonical form carries exactly the dicts the result cache hashes
    — chunk identity and per-point artifact identity cannot drift.
    """
    source = _require_source(raw)
    points = raw.get("points")
    if not isinstance(points, list) or not points:
        raise ProtocolError("sweep-chunk requests need 'points': "
                            "[{tile: ..., library: ...}, ...]")
    if len(points) > MAX_CHUNK_POINTS:
        raise ProtocolError(
            f"sweep-chunk carries {len(points)} points; the lease "
            f"bound is {MAX_CHUNK_POINTS} — split the chunk")
    canonical = []
    for entry in points:
        if not isinstance(entry, Mapping):
            raise ProtocolError(
                f"sweep-chunk points must be objects, got {entry!r}")
        try:
            canonical.append(DesignPoint.from_dict(entry).to_dict())
        except SpaceError as error:
            raise ProtocolError(str(error))
    return {
        "kind": "sweep-chunk",
        "source": source,
        "file": raw.get("file"),
        "points": canonical,
        "verify_seed": _optional_int(raw, "verify_seed"),
        "trace": _optional_trace(raw),
    }


def normalise_request(raw) -> dict:
    """Dispatch on ``kind``; raises :class:`ProtocolError` on junk."""
    if not isinstance(raw, Mapping):
        raise ProtocolError("request body must be a JSON object")
    kind = raw.get("kind", "map")
    if kind == "map":
        return normalise_map_request(raw)
    if kind == "sweep-chunk":
        return normalise_sweep_chunk_request(raw)
    raise ProtocolError(f"unknown job kind {kind!r}; "
                        f"known: map, sweep-chunk")


# ---------------------------------------------------------------------------
# Identity
# ---------------------------------------------------------------------------

def request_point(request: Mapping) -> DesignPoint:
    """The design point of a normalised map request."""
    return DesignPoint.from_dict(request["points"][0])


def job_key(request: Mapping) -> str:
    """Content identity of one normalised request.

    Map jobs reuse :func:`repro.dse.cache.cache_key` — the artifact
    store key — verbatim.  A chunk hashes its ordered canonical point
    list, so two coordinators sweeping the same chunk of the same
    sweep coalesce (its per-point records are stored under map keys
    anyway, so the chunk key only exists for coalescing).
    """
    if request["kind"] == "map":
        return cache_key(request["source"], request_point(request))
    envelope = json.dumps(
        {name: request[name] for name in ("kind", "source", "points")},
        sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(envelope.encode("utf-8")).hexdigest()


def coalesce_key(request: Mapping, key: str | None = None) -> str:
    """In-flight deduplication identity.

    The job key, split by two request attributes a shared run could
    not honour per-client: the verification requirement (an
    unverified compute cannot satisfy a verifying client) and the
    ``file`` label (a coalesced job yields *one* result payload, and
    its ``file`` field must equal what ``fpfa-map map --json`` would
    print for each submitter — so differently-labelled duplicates
    keep separate jobs; once the first finishes, the rest are store
    hits rendered with their own label anyway).

    *key* is the request's :func:`job_key` when the caller already
    holds it: hashing the source again costs a submit ~25 us.
    """
    suffix = "+verify" if request.get("verify_seed") is not None \
        else ""
    label = request.get("file") or ""
    if key is None:
        key = job_key(request)
    return f"{key}{suffix}|{label}"


# ---------------------------------------------------------------------------
# Record <-> payload conversion
# ---------------------------------------------------------------------------

def record_to_map_payload(record: Mapping, *,
                          file: str | None = None,
                          want_verified: bool = False) -> dict:
    """Rebuild the ``fpfa-map map --json`` payload from one stored
    sweep record.

    The record's flat metric dict is split back into the single-tile
    and multi-tile sections (the field sets are disjoint by
    construction), and ``verified`` mirrors the CLI: ``True`` when
    the caller asked for verification, ``None`` otherwise — never
    ``False``.
    """
    metrics = record["metrics"]
    config = dict(record["config"])
    # The CLI config always spells the transform choice out; a point
    # (or a swept record) that never pinned `balance` means False.
    config.setdefault("balance", False)
    payload = {
        "file": file,
        "config": config,
        "metrics": {name: metrics[name] for name in METRIC_FIELDS
                    if name in metrics},
        "verified": True if want_verified else None,
    }
    multitile = {name: metrics[name]
                 for name in MULTITILE_METRIC_FIELDS
                 if name in metrics}
    if multitile:
        payload["multitile"] = multitile
    return payload
