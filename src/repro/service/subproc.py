"""Real ``fpfa-map serve`` subprocesses for harnesses and benchmarks.

:class:`DaemonProcess` spawns the daemon exactly as an operator would
(``python -m repro.cli serve``), waits for it to report its bound
address, and health-checks it.  Unlike the in-process
:class:`~repro.service.daemon.ServiceThread`, each instance owns a
whole interpreter — which is what the fleet tests need: killing the
process is a *real* daemon death (SIGKILL, sockets torn down
mid-request), the failure :mod:`repro.dse.distributed` must survive
by evaluating the rest of its sweep locally.

The flow is deterministic, so results never depend on which harness
hosts the daemon — only latency does.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys
import time

#: Seconds to wait for a spawned daemon to become healthy.
STARTUP_TIMEOUT = 30.0


class DaemonProcess:
    """One ``fpfa-map serve`` subprocess: spawn, address, kill."""

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
        repo_src = pathlib.Path(__file__).resolve().parents[2]
        env = {**os.environ,
               "PYTHONPATH": str(repo_src) + (
                   os.pathsep + os.environ["PYTHONPATH"]
                   if os.environ.get("PYTHONPATH") else "")}
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
        from repro.service.client import ServiceClient
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

    def stop(self, timeout: float = 15.0) -> None:
        """Graceful stop (POST /shutdown), escalating to kill."""
        if self.process is None or self.process.poll() is not None:
            return
        from repro.service.client import ServiceClient, ServiceError
        try:
            ServiceClient(*self.address, timeout=5.0).shutdown()
            self.process.wait(timeout=timeout)
        except (ServiceError, OSError,
                subprocess.TimeoutExpired):
            self.kill()

    def __enter__(self) -> "DaemonProcess":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
