"""Execution backends for the campaign scheduler.

The scheduler never executes a cell itself; it awaits
``backend.run(cell)`` on whatever backend it was built with.  A backend
owns *where* cells run — the scheduler owns dedupe, caching, quotas,
retries and event streams, so every backend gets those for free.

Two stdlib-only backends ship:

* :class:`PoolBackend` — a ``ProcessPoolExecutor`` fed one cell at a
  time: what ``repro-cachesim serve`` runs by default and what
  :func:`repro.campaign.run_campaign` runs local campaigns on.  A worker
  crash breaks the whole executor, so the backend replaces the pool and
  fails only the cells that were in flight; the scheduler retries them.
* :class:`InlineBackend` — runs cells on threads inside the service
  process.  Zero startup cost, and its runner may be any callable (a
  closure, a fake), which makes it the tier for tests, debugging and
  tiny traces (the simulation kernels release little of the GIL, so its
  parallelism is nominal).

Both expose ``capacity`` (concurrent cells the scheduler should keep in
flight), are started with ``await backend.start()`` and torn down with
``await backend.close()``.  A cell whose *execution vehicle* died (not
the cell's own exception) raises :class:`BackendCrash`; the scheduler
retries it and, once retries run out, records a failed outcome rather
than hanging.  ``preemptible`` says whether cancelling a running cell
frees its worker: the pool kills its workers, so the scheduler's
per-cell timeout applies to it; a thread cannot be stopped, so it does
not apply to :class:`InlineBackend`.
"""

from __future__ import annotations

import asyncio
import os
import stat
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from ..campaign import worker_count
from ..core.jobs import CampaignCell, CellResult, run_cell

__all__ = ["BackendCrash", "InlineBackend", "PoolBackend"]


class BackendCrash(RuntimeError):
    """The execution vehicle died under a cell (worker killed, pool broken)."""


class InlineBackend:
    """Run cells on threads inside the service process (test/debug tier)."""

    name = "inline"
    preemptible = False

    def __init__(self, capacity: int = 1, runner=run_cell) -> None:
        self.capacity = max(1, capacity)
        self._runner = runner

    async def start(self) -> None:
        return None

    async def run(self, cell: CampaignCell) -> CellResult:
        return await asyncio.to_thread(self._runner, cell)

    async def close(self) -> None:
        return None


def _drop_inherited_sockets() -> None:
    """Pool-worker initializer: release every socket forked from the service.

    A forked worker holds a copy of each socket the service had open at
    that instant: the listener and any client connection.  A connection
    ends only when its last copy closes, so an SSE stream copied into a
    worker would never reach end-of-file after ``campaign_finished``.
    Workers talk to the pool over pipes, so each socket descriptor is
    pointed at ``/dev/null`` — not closed, because the inherited socket
    objects may still close their descriptor numbers later.
    """
    try:
        descriptors = [int(name) for name in os.listdir("/dev/fd")]
    except OSError:
        return
    null = os.open(os.devnull, os.O_RDWR)
    try:
        for fd in descriptors:
            try:
                if fd != null and stat.S_ISSOCK(os.fstat(fd).st_mode):
                    os.dup2(null, fd, inheritable=False)
            except OSError:
                pass  # the listing's own descriptor, already closed
    finally:
        os.close(null)


class PoolBackend:
    """A ``ProcessPoolExecutor`` that runs one cell per ``run`` call.

    ``workers=None`` resolves exactly like the campaign runner
    (``REPRO_WORKERS``, then CPU count).  ``BrokenProcessPool`` takes
    down every in-flight future at once; each affected cell surfaces as
    :class:`BackendCrash` and the pool is rebuilt for subsequent cells.
    Cancelling a cell that a worker is already running (the scheduler
    does so on its per-cell timeout) terminates the pool's workers, since
    one hung worker cannot be stopped alone, and rebuilds the pool the
    same way; the cells caught beside it see :class:`BackendCrash` and
    are retried.  A cancelled *campaign* does not cancel its running
    cells: the scheduler lets their workers finish and drops the results,
    so other campaigns' cells in the shared pool are untouched.

    The pool starts workers lazily, while the service holds client
    sockets open; every worker (of the first pool and of each rebuilt
    one) lets go of the sockets it inherited before it takes a cell — see
    :func:`_drop_inherited_sockets`.
    """

    name = "pool"
    preemptible = True

    def __init__(self, workers: int | None = None, runner=run_cell) -> None:
        self.capacity = worker_count(workers)
        self._runner = runner
        self._pool: ProcessPoolExecutor | None = None
        self._generation = 0

    def _new_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.capacity, initializer=_drop_inherited_sockets
        )

    async def start(self) -> None:
        if self._pool is None:
            self._pool = self._new_pool()

    async def run(self, cell: CampaignCell) -> CellResult:
        if self._pool is None:
            await self.start()
        pool = self._pool
        generation = self._generation
        try:
            future = pool.submit(self._runner, cell)
            return await asyncio.wrap_future(future)
        except BrokenProcessPool as exc:
            self._replace(pool, generation)
            raise BackendCrash(
                f"process pool broke under cell {cell.label!r}: "
                f"{exc or type(exc).__name__}"
            ) from exc
        except asyncio.CancelledError:
            if future.running():
                self._replace(pool, generation, terminate=True)
            raise

    def _replace(self, pool, generation: int, *, terminate: bool = False) -> None:
        """Swap in a fresh pool, once per generation; optionally kill ``pool``.

        The first cell to notice a broken pool swaps; the rest see the
        generation already advanced and leave it be.  Terminating the old
        pool's workers breaks it, which fails every cell still in it.
        """
        if self._generation != generation:
            return
        self._generation += 1
        self._pool = self._new_pool()
        if terminate:
            for process in list((getattr(pool, "_processes", None) or {}).values()):
                try:
                    process.terminate()
                except Exception:
                    pass
        try:
            pool.shutdown(wait=False)
        except Exception:
            pass

    async def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
