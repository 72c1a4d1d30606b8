"""Fixture: FPL002/FPL004 true positives (async paths)."""

import time


class Daemon:
    def __init__(self, store, lock):
        self.store = store
        self._lock = lock

    async def submit(self, key):
        time.sleep(0.1)
        return self.store.get(key)

    async def drain(self):
        with self._lock:
            await self.flush()

    async def run_job(self, job):
        try:
            await job()
        except Exception as error:
            return error

    async def flush(self):
        return None
