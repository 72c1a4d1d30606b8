"""Fixture: FPL003/FPL004 true negatives (lease paths)."""

from repro.obs import trace


def lease(chunk, label):
    if trace.enabled():
        trace.event("lease", daemon=label, points=len(chunk))
    try:
        chunk.send()
    except OSError:
        pass  # batches still count via the journal
