"""Mapping-as-a-service: a persistent front door for the flow.

Every other entry point in this repository (``fpfa-map map``, the
benchmarks, the sweeps) is a one-shot process that pays interpreter
start-up, frontend compilation and cache-directory walking per
invocation.  :mod:`repro.service` turns the flow into a long-running
daemon: jobs arrive over a small JSON-over-HTTP protocol, run on a
persistent :class:`~repro.dse.runner.WorkerPool` whose workers each
keep a memo of compiled frontends, and land in a content-addressed
:class:`~repro.dse.cache.ResultCache` — the class, format and keys
offline sweeps use — so mapping jobs, distributed sweep chunks and
offline sweeps all feed one store.

Modules
-------
* :mod:`repro.service.protocol` — request validation, job keys, and
  the record ↔ payload conversions that keep daemon responses
  bit-identical to ``fpfa-map map --json``;
* :mod:`repro.service.queue`    — FIFO job queue with in-flight
  request coalescing;
* :mod:`repro.service.wire`     — HTTP/1.1 framing as pure functions,
  shared by the daemon and the client;
* :mod:`repro.service.daemon`   — the asyncio HTTP daemon
  (``fpfa-map serve``);
* :mod:`repro.service.client`   — the blocking client
  (``fpfa-map submit`` / ``fpfa-map jobs``).

See ``docs/service.md`` for the protocol reference.
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.daemon import MappingService, ServiceThread

__all__ = [
    "MappingService",
    "ServiceClient",
    "ServiceError",
    "ServiceThread",
]
