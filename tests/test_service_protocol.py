"""Unit tests for the service wire contract (repro.service.protocol)."""

import pytest

from repro.dse.cache import cache_key
from repro.dse.runner import evaluate_point
from repro.service import ServiceClient, ServiceError, ServiceThread
from repro.service.protocol import (
    ProtocolError,
    coalesce_key,
    job_key,
    normalise_request,
    record_to_map_payload,
    request_point,
)

from tests.conftest import FIR_SOURCE


def _map_request(**overrides):
    raw = {"kind": "map", "source": FIR_SOURCE}
    raw.update(overrides)
    return normalise_request(raw)


# -- normalisation --------------------------------------------------------

def test_map_defaults_mirror_the_cli():
    request = _map_request()
    point = request_point(request)
    assert point.tile_dict() == {"n_pps": 5, "n_buses": 10}
    assert point.library == "two-level"
    assert point.options_dict() == {}
    assert point.array_dict() == {}
    assert request["verify_seed"] is None
    # An old client's "priority" is ignored like any unknown field.
    assert _map_request(priority=5) == request


def test_map_balance_false_stays_out_of_the_point_identity():
    """A plain map job must share store keys with a plain sweep —
    the unification the artifact store is built on."""
    explicit_off = _map_request(balance=False)
    default = _map_request()
    assert job_key(explicit_off) == job_key(default)
    assert request_point(_map_request(balance=True)).options_dict() \
        == {"balance": True}


def test_map_array_fields_normalise_with_defaults():
    request = _map_request(tiles=2, topology="ring")
    assert request_point(request).array_dict() == {
        "tiles": 2, "topology": "ring", "hop_latency": 1,
        "hop_energy": 6.0, "link_bandwidth": 1}


@pytest.mark.parametrize("raw", [
    42,
    {"kind": "map"},
    {"kind": "map", "source": "   "},
    {"kind": "map", "source": FIR_SOURCE, "pps": "five"},
    {"kind": "map", "source": FIR_SOURCE, "balance": "yes"},
    {"kind": "map", "source": FIR_SOURCE, "tiles": 2,
     "topology": "torus"},
    {"kind": "map", "source": FIR_SOURCE, "library": "no-such"},
    {"kind": "bake", "source": FIR_SOURCE},
    {"kind": "map", "source": FIR_SOURCE, "pps": True},
    {"kind": "map", "source": FIR_SOURCE, "verify_seed": "7"},
    {"kind": "map", "source": FIR_SOURCE, "tiles": "2"},
    {"kind": "map", "source": FIR_SOURCE, "tiles": 2,
     "hop_energy": "far"},
])
def test_junk_requests_are_rejected(raw):
    with pytest.raises(ProtocolError):
        normalise_request(raw)


def test_explore_kind_is_refused():
    """Sweeps reach a daemon only as ``sweep-chunk`` leases
    (``fpfa-map explore --remote``); an ``explore`` job is an unknown
    kind, refused with HTTP 400 before anything is queued."""
    raw = {"kind": "explore", "source": FIR_SOURCE,
           "dimensions": {"n_pps": [1, 2]}}
    with pytest.raises(ProtocolError, match="unknown job kind"):
        normalise_request(raw)
    with ServiceThread(workers=1) as daemon:
        client = ServiceClient(*daemon.address)
        with pytest.raises(ServiceError) as info:
            client.submit(raw)
        assert client.jobs() == []
    assert info.value.status == 400
    assert "unknown job kind 'explore'" in str(info.value)


def test_kind_defaults_to_map():
    assert normalise_request({"source": FIR_SOURCE})["kind"] == "map"


# -- identity -------------------------------------------------------------

def test_map_job_key_is_the_store_key():
    request = _map_request(pps=3)
    assert job_key(request) == cache_key(FIR_SOURCE,
                                         request_point(request))


def test_file_label_never_enters_the_key():
    assert job_key(_map_request(file="a.c")) \
        == job_key(_map_request(file="b.c"))


def test_coalesce_key_splits_on_file_label():
    """A coalesced job yields one payload whose `file` must match
    every submitter's `map --json` — so labels split coalescing
    (storage identity stays shared; see job_key test above)."""
    assert coalesce_key(_map_request(file="a.c")) \
        != coalesce_key(_map_request(file="b.c"))
    assert coalesce_key(_map_request(file="a.c")) \
        == coalesce_key(_map_request(file="a.c"))


def test_coalesce_key_splits_on_verification():
    plain = _map_request()
    verifying = _map_request(verify_seed=7)
    assert job_key(plain) == job_key(verifying)
    assert coalesce_key(plain) != coalesce_key(verifying)
    assert coalesce_key(_map_request(verify_seed=3)) \
        == coalesce_key(verifying)  # the seed itself never splits


# -- record -> payload ----------------------------------------------------

def test_record_round_trips_to_the_map_payload():
    request = _map_request(file="fir.c", tiles=2)
    record = evaluate_point(FIR_SOURCE, request_point(request))
    assert record["ok"]
    payload = record_to_map_payload(record, file="fir.c")
    assert payload["file"] == "fir.c"
    assert payload["verified"] is None
    assert payload["config"]["balance"] is False
    assert payload["config"]["tiles"] == 2
    # The flat record metrics split cleanly back into sections.
    assert "cycles" in payload["metrics"]
    assert "makespan" not in payload["metrics"]
    assert payload["multitile"]["tiles"] == 2
    assert record_to_map_payload(record, want_verified=True)[
        "verified"] is True


# -- sweep-chunk (the distributed lease unit) -----------------------------

def _chunk_request(**overrides):
    raw = {"kind": "sweep-chunk", "source": FIR_SOURCE,
           "points": [{"tile": {"n_pps": 2}, "library": "two-level",
                       "options": {}},
                      {"tile": {"n_pps": 3}, "library": "two-level",
                       "options": {}}]}
    raw.update(overrides)
    return normalise_request(raw)


def test_chunk_points_round_trip_canonically():
    request = _chunk_request()
    assert request["kind"] == "sweep-chunk"
    from repro.dse.space import DesignPoint
    for entry in request["points"]:
        assert DesignPoint.from_dict(entry).to_dict() == entry


@pytest.mark.parametrize("raw", [
    {"kind": "sweep-chunk", "source": FIR_SOURCE},
    {"kind": "sweep-chunk", "source": FIR_SOURCE, "points": []},
    {"kind": "sweep-chunk", "source": FIR_SOURCE, "points": ["x"]},
    {"kind": "sweep-chunk", "source": FIR_SOURCE,
     "points": [{"library": "no-such-library"}]},
    {"kind": "sweep-chunk", "source": "", "points": [{}]},
])
def test_junk_chunk_requests_are_rejected(raw):
    with pytest.raises(ProtocolError):
        normalise_request(raw)


def test_chunk_lease_bound_is_enforced():
    from repro.service.protocol import MAX_CHUNK_POINTS
    points = [{"tile": {"n_pps": index + 1}} for index in
              range(MAX_CHUNK_POINTS + 1)]
    with pytest.raises(ProtocolError, match="lease bound"):
        normalise_request({"kind": "sweep-chunk",
                           "source": FIR_SOURCE, "points": points})


def test_chunk_key_is_point_list_sensitive():
    first = _chunk_request()
    same = _chunk_request()
    assert job_key(first) == job_key(same)  # coordinators coalesce
    fewer = _chunk_request(points=first["points"][:1])
    assert job_key(first) != job_key(fewer)
    # Order matters: a chunk is an ordered lease, not a set.
    swapped = _chunk_request(points=list(reversed(first["points"])))
    assert job_key(first) != job_key(swapped)


def test_chunk_coalesce_key_splits_on_verification():
    plain = _chunk_request()
    verifying = _chunk_request(verify_seed=7)
    assert job_key(plain) == job_key(verifying)
    assert coalesce_key(plain) != coalesce_key(verifying)


def test_coalesce_key_from_the_held_job_key_is_the_same_key():
    """The daemon passes the job key it already computed; both job
    kinds get the key they would without it."""
    for request in (_map_request(), _map_request(file="a.c",
                                                 verify_seed=3),
                    _chunk_request(), _chunk_request(verify_seed=7)):
        assert coalesce_key(request, job_key(request)) \
            == coalesce_key(request)
