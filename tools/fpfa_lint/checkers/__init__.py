"""Checker catalog — importing this package registers every checker.

One module per invariant; the stable codes:

====== ================ ==========================================
code   name             invariant
====== ================ ==========================================
FPL001 determinism      monotonic durations, seeded randomness,
                        ordered iteration in the mapping core
FPL002 async-safety     no blocking calls / lock-held awaits in
                        ``async def``
FPL003 trace-guard      attribute-building trace calls sit behind
                        ``trace.enabled()``
FPL004 exception-hygiene no bare except, async broad handlers
                        re-raise CancelledError, no silent
                        swallows in the lease path
FPL005 protocol-drift   wire field names exist in the protocol
                        validators
FPL006 no-print         stdout purity outside cli.py / tools/
FPL007 resource-hygiene files/sockets/sqlite handles are scoped
====== ================ ==========================================
"""

from tools.fpfa_lint.checkers import (  # noqa: F401 — registration
    async_safety,
    determinism,
    exceptions,
    no_print,
    protocol_drift,
    resources,
    trace_guard,
)
