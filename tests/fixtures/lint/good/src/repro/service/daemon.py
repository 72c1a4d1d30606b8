"""Fixture: FPL002/FPL004 true negatives (async done right)."""

import asyncio


class Daemon:
    def __init__(self, store, lock):
        self.store = store
        self._lock = lock

    async def submit(self, key):
        loop = asyncio.get_running_loop()
        await asyncio.sleep(0.1)
        return await loop.run_in_executor(
            None, lambda: self.store.get(key))

    async def drain(self):
        async with self._lock:
            await self.flush()

    async def run_job(self, job):
        try:
            await job()
        except asyncio.CancelledError:
            raise
        except Exception as error:
            return error

    async def flush(self):
        return None
