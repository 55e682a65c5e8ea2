"""Pluggable execution backends for the campaign scheduler.

The scheduler never executes a cell itself; it awaits
``backend.run(cell)`` on whatever :class:`Backend` it was built with.
A backend owns *where* cells run — the scheduler owns dedupe, caching,
quotas, and event streams, so every backend gets those for free.

Three stdlib-only backends ship:

* :class:`InlineBackend` — runs cells on threads inside the service
  process.  Zero startup cost; the right choice for tests, debugging,
  and tiny traces (the simulation kernels release little of the GIL, so
  its parallelism is nominal).
* :class:`PoolBackend` — a ``ProcessPoolExecutor`` fed one cell at a
  time; :func:`repro.campaign.run_campaign` runs local campaigns on it.
  A worker crash breaks the whole executor, so the backend replaces the
  pool and fails only the cells that were in flight.
* :class:`SubprocessFleetBackend` — N long-lived worker processes
  (``python -m repro.service.worker``) pulling cells over stdin/stdout
  pipes (length-prefixed pickle frames).  Workers are independent: one
  crashing loses only its own cell and is respawned, which makes this
  the resilient choice for long-running services.

All backends expose ``capacity`` (concurrent cells the scheduler should
keep in flight), are started with ``await backend.start()`` and torn
down with ``await backend.close()``.  A cell whose *execution vehicle*
died (not the cell's own exception) raises :class:`BackendCrash`; the
scheduler retries it and, once retries run out, records a failed outcome
rather than hanging.  ``preemptible`` says whether cancelling a running
cell frees its worker: the pool and the fleet kill the worker, so the
scheduler's per-cell timeout applies to them; a thread cannot be
stopped, so it does not apply to :class:`InlineBackend`.
"""

from __future__ import annotations

import asyncio
import os
import pickle
import stat
import struct
import sys
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from ..campaign import worker_count
from ..core.jobs import CampaignCell, CellError, CellResult, run_cell
from .worker import MAX_FRAME_BYTES

__all__ = [
    "BackendCrash",
    "CellExecutionError",
    "InlineBackend",
    "PoolBackend",
    "SubprocessFleetBackend",
    "create_backend",
    "BACKENDS",
]

_HEADER = struct.Struct(">Q")


class BackendCrash(RuntimeError):
    """The execution vehicle died under a cell (worker killed, pool broken)."""


class CellExecutionError(RuntimeError):
    """A cell raised inside a fleet worker; carries the structured error
    and whether the worker judged the exception transient."""

    def __init__(self, error: CellError, transient: bool) -> None:
        super().__init__(str(error))
        self.error = error
        self.transient = transient


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


class _FleetWorker:
    """One spawned worker process plus its frame protocol."""

    def __init__(self, process: asyncio.subprocess.Process) -> None:
        self.process = process

    async def request(self, cell: CampaignCell) -> tuple[str, object]:
        payload = pickle.dumps(cell, protocol=pickle.HIGHEST_PROTOCOL)
        self.process.stdin.write(_HEADER.pack(len(payload)) + payload)
        await self.process.stdin.drain()
        header = await self.process.stdout.readexactly(_HEADER.size)
        (length,) = _HEADER.unpack(header)
        if length > MAX_FRAME_BYTES:
            raise BackendCrash("fleet worker sent a corrupt frame header")
        frame = await self.process.stdout.readexactly(length)
        return pickle.loads(frame)

    @property
    def alive(self) -> bool:
        return self.process.returncode is None

    async def stop(self, *, kill: bool = False) -> None:
        if kill:  # busy with a cell: it would not see EOF until done
            try:
                self.process.kill()
            except ProcessLookupError:
                pass
        try:
            if self.process.stdin is not None:
                self.process.stdin.close()
        except Exception:
            pass
        try:
            await asyncio.wait_for(self.process.wait(), timeout=5.0)
        except Exception:
            try:
                self.process.kill()
                await self.process.wait()
            except Exception:
                pass


class SubprocessFleetBackend:
    """N worker subprocesses pulling cells over pipes.

    Each worker is an independent ``python -m repro.service.worker``
    process; an idle-worker queue hands cells to whichever worker is
    free.  A worker that dies mid-cell (EOF on its pipe) fails only that
    cell (:class:`BackendCrash`) and is replaced immediately, so the
    fleet's capacity self-heals — unlike a broken process pool, the
    blast radius is one cell.  A cell cancelled mid-run (the scheduler's
    per-cell timeout) kills its worker, which is replaced the same way.
    """

    name = "fleet"
    preemptible = True

    def __init__(
        self,
        workers: int | None = None,
        runner: str = "repro.core.jobs:run_cell",
        python: str | None = None,
    ) -> None:
        self.capacity = worker_count(workers)
        self._runner = runner
        self._python = python or sys.executable
        self._idle: asyncio.Queue[_FleetWorker] = asyncio.Queue()
        self._workers: list[_FleetWorker] = []
        self._closed = False
        #: Workers replaced after a crash or a cancelled cell (test hook).
        self.respawns = 0

    async def _spawn(self) -> _FleetWorker:
        process = await asyncio.create_subprocess_exec(
            self._python,
            "-m",
            "repro.service.worker",
            "--runner",
            self._runner,
            stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE,
            stderr=None,  # worker diagnostics go to the service's stderr
            env=os.environ.copy(),
        )
        worker = _FleetWorker(process)
        self._workers.append(worker)
        return worker

    async def start(self) -> None:
        while len(self._workers) < self.capacity:
            self._idle.put_nowait(await self._spawn())

    async def run(self, cell: CampaignCell) -> CellResult:
        if not self._workers:
            await self.start()
        worker = await self._idle.get()
        try:
            if not worker.alive:
                raise asyncio.IncompleteReadError(b"", None)
            reply = await worker.request(cell)
        except asyncio.CancelledError:
            # The worker may still be busy with this cell; handing it on
            # would stall the next one, so kill it and respawn.
            await self._replace(worker, kill=True)
            raise
        except (
            asyncio.IncompleteReadError,
            BrokenPipeError,
            ConnectionResetError,
            EOFError,
            pickle.UnpicklingError,
        ) as exc:
            # The worker died (or garbled its pipe) under this cell:
            # retire it, spawn a replacement, fail just this cell.
            await self._replace(worker)
            raise BackendCrash(
                f"fleet worker died under cell {cell.label!r} "
                f"(exit code {worker.process.returncode})"
            ) from exc
        self._idle.put_nowait(worker)
        if reply[0] == "ok":
            return reply[1]
        _, error, transient = reply
        raise CellExecutionError(error, transient)

    async def _replace(self, worker: _FleetWorker, *, kill: bool = False) -> None:
        """Retire ``worker`` and, unless the fleet is closing, spawn its successor."""
        if worker in self._workers:
            self._workers.remove(worker)
        await worker.stop(kill=kill)
        if not self._closed:
            self.respawns += 1
            self._idle.put_nowait(await self._spawn())

    async def close(self) -> None:
        self._closed = True
        workers, self._workers = self._workers, []
        while not self._idle.empty():
            self._idle.get_nowait()
        await asyncio.gather(
            *(worker.stop() for worker in workers), return_exceptions=True
        )


#: Backend registry used by ``repro-cachesim serve --backend``.
BACKENDS = {
    "inline": InlineBackend,
    "pool": PoolBackend,
    "fleet": SubprocessFleetBackend,
}


def create_backend(name: str, workers: int | None = None):
    """Build a backend by registry name (``inline`` / ``pool`` / ``fleet``)."""
    try:
        factory = BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; choose from {sorted(BACKENDS)}"
        ) from None
    if name == "inline":
        return factory(capacity=worker_count(workers))
    return factory(workers=workers)
