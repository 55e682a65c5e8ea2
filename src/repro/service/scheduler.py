"""The async campaign scheduler: submissions → deduped cells → backends.

This is the service-tier answer to the paper's methodology point — that
conclusions require *many* workloads — at many-users scale: overlapping
campaigns from independent clients must not multiply work.  The
scheduler dedupes cells by their content key
(:func:`repro.core.jobs.cell_key`) in three layers:

1. **Result cache** — a cell whose key is in the shared on-disk
   :class:`~repro.campaign.ResultCache` is served without executing
   anything (cross-run, cross-process, cross-host on shared storage).
2. **In-flight registry** — a cell already executing for *any* campaign
   in this scheduler is awaited, not re-submitted; every waiting
   campaign receives the one result (and failures propagate to all of
   them).
3. **Cross-process claims** — schedulers sharing a cache directory take
   a ``.claim`` entry per key beside it
   (:meth:`repro.store.ContentStore.try_claim`): the first to claim runs
   the cell, the others poll the cache until the result lands, and a
   claim older than ``claim_timeout`` is presumed orphaned and stolen.

Campaigns are admitted through the
:class:`~repro.service.queue.FairShareQueue` (priorities, per-user
quotas, fair-share start order) and executed with at most
``backend.capacity`` cells in flight.  Execution retries transient
failures (``OSError``, :class:`~repro.service.backends.BackendCrash`)
with capped exponential backoff and, on backends that can preempt a
cell, enforces a per-cell timeout — the ``REPRO_RETRIES``,
``REPRO_RETRY_BACKOFF`` and ``REPRO_CELL_TIMEOUT`` settings of the
campaign runner, which drives local campaigns through this same cell
path (:meth:`Scheduler.obtain`).  Every campaign gets its own
replayable event stream in the :mod:`repro.campaign` event vocabulary,
plus ``campaign_queued`` and a ``source`` field on ``cell_finished`` and
``cell_failed`` saying *how* the cell was satisfied: ``"run"`` (this
campaign executed it), ``"cache"`` (served from the result cache), or
``"shared"`` (joined another campaign's in-flight execution).  Counting
``source == "run"`` across every scheduler sharing a cache directory
therefore counts *actual simulations* — the number the dedupe tests pin.
"""

from __future__ import annotations

import asyncio
import functools
import itertools
import os
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path

from ..campaign import (
    BACKOFF_ENV,
    CELL_TIMEOUT_ENV,
    DEFAULT_BACKOFF,
    DEFAULT_RETRIES,
    RETRIES_ENV,
    EventLog,
    ResultCache,
    _resolve_cache,
)
from ..core.jobs import CampaignCell, CellError, CellResult, cell_key
from ..store import ContentStore
from .backends import BackendCrash
from .queue import FairShareQueue, QueueEntry, QuotaExceeded
from .spec import summarize_sampling, summarize_value

__all__ = [
    "QUOTA_ENV",
    "ACTIVE_ENV",
    "CLAIM_TIMEOUT_ENV",
    "POLL_ENV",
    "CampaignState",
    "Scheduler",
    "QuotaExceeded",
    "cell_event",
]

#: Per-user quota of outstanding campaigns (unset = unlimited).
QUOTA_ENV = "REPRO_SERVICE_QUOTA"
#: Campaigns allowed to run concurrently (default 4).
ACTIVE_ENV = "REPRO_SERVICE_ACTIVE"
#: Seconds before a foreign cell claim is presumed orphaned (default 300).
CLAIM_TIMEOUT_ENV = "REPRO_SERVICE_CLAIM_TIMEOUT"
#: Seconds between polls while waiting on a foreign claim (default 0.05).
POLL_ENV = "REPRO_SERVICE_POLL"

DEFAULT_ACTIVE = 4
DEFAULT_CLAIM_TIMEOUT = 300.0
DEFAULT_POLL = 0.05

#: Exception types treated as transient (worth retrying).  ``OSError``
#: covers the resource-exhaustion family (EMFILE, ENOMEM, flaky NFS);
#: :class:`BackendCrash` is the worker or pool dying under a cell.
TRANSIENT_EXCEPTIONS = (OSError, BackendCrash)
#: Ceiling on a single backoff sleep, seconds.
BACKOFF_CAP = 5.0

#: Campaign lifecycle statuses.
QUEUED, RUNNING, DONE, FAILED = "queued", "running", "done", "failed"
CANCELLED = "cancelled"
_TERMINAL = frozenset({DONE, FAILED, CANCELLED})


def _env_number(name: str, default, kind=float):
    value = os.environ.get(name)
    if not value:
        return default
    try:
        return kind(value)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ValueError(f"{name} must be {noun}, got {value!r}") from None


def _backoff_seconds(backoff: float, attempts: int) -> float:
    """Capped exponential backoff before retry number ``attempts``."""
    if backoff <= 0:
        return 0.0
    return min(BACKOFF_CAP, backoff * (2 ** (attempts - 1)))


def _drop_result(run: asyncio.Future) -> None:
    """Retrieve an abandoned run's outcome, so asyncio does not log it."""
    if not run.cancelled():
        run.exception()


def cell_event(
    label: str, index: int, key: str, source: str, payload, attempts: int
) -> tuple[str, dict]:
    """The ``cell_finished`` or ``cell_failed`` event of one resolved cell.

    Both the service and :func:`repro.campaign.run_campaign` log cells
    with it, so their event fields agree; the service adds ``source``.
    ``attempts`` is 0 for a cell nobody executed for this campaign.
    """
    fields = {"label": label, "index": index, "key": key}
    if isinstance(payload, CellError):
        return "cell_failed", {
            **fields,
            "error": payload.type,
            "message": payload.message,
            "attempts": max(1, attempts),
        }
    wall = payload.wall_seconds if source == "run" else 0.0
    return "cell_finished", {
        **fields,
        "cached": source != "run",
        "wall_seconds": wall,
        "references": payload.references,
        "refs_per_second": payload.references / wall if wall > 0 else 0.0,
        "attempts": attempts,
        **summarize_sampling(payload.sampling),
    }


@dataclass
class CampaignState:
    """Everything the service knows about one submitted campaign."""

    id: str
    user: str
    priority: int
    cells: list[CampaignCell]
    entry: QueueEntry
    status: str = QUEUED
    submitted_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None
    outcomes: list[dict | None] = field(default_factory=list)
    events: list[dict] = field(default_factory=list)
    cancel_requested: bool = False

    def __post_init__(self) -> None:
        if not self.outcomes:
            self.outcomes = [None] * len(self.cells)

    @property
    def done(self) -> bool:
        return self.status in _TERMINAL

    def counts(self) -> dict:
        finished = [o for o in self.outcomes if o is not None]
        return {
            "cells": len(self.cells),
            "finished": len(finished),
            "failed": sum(1 for o in finished if not o["ok"]),
            "cached": sum(1 for o in finished if o.get("source") == "cache"),
            "shared": sum(1 for o in finished if o.get("source") == "shared"),
            "simulated": sum(1 for o in finished if o.get("source") == "run"),
        }

    def describe(self, *, results: bool = True) -> dict:
        """The status document ``GET /campaigns/{id}`` returns."""
        doc = {
            "id": self.id,
            "user": self.user,
            "priority": self.priority,
            "status": self.status,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            **self.counts(),
        }
        if results and self.done:
            doc["results"] = [o for o in self.outcomes if o is not None]
        return doc


class Scheduler:
    """Async campaign scheduler over a pluggable execution backend.

    Args:
        backend: a started-or-startable backend from
            :mod:`repro.service.backends`.
        cache: shared result-cache directory (or a
            :class:`~repro.campaign.ResultCache`); ``None`` falls back to
            ``REPRO_CACHE_DIR``, and ``False`` or an unset variable
            disables caching *and* cross-process claims.
        quota: per-user outstanding-campaign quota
            (default ``REPRO_SERVICE_QUOTA``; unset = unlimited).
        max_active: campaigns run concurrently
            (default ``REPRO_SERVICE_ACTIVE`` or 4).
        events: optional service-global :class:`~repro.campaign.EventLog`
            (or path) that additionally receives every campaign's events
            with a ``campaign`` field attached.
        claim_timeout / poll: cross-process claim staleness and cache
            poll interval, seconds.

    The per-cell failure policy lives in three attributes, read from the
    campaign runner's environment variables: ``retries``
    (``REPRO_RETRIES``, default 2), ``backoff`` (``REPRO_RETRY_BACKOFF``,
    default 0.1 s) and ``timeout`` (``REPRO_CELL_TIMEOUT``, unset = no
    limit; applied only on a ``preemptible`` backend).
    """

    def __init__(
        self,
        backend,
        *,
        cache: ResultCache | str | Path | bool | None = None,
        quota: int | None = None,
        max_active: int | None = None,
        events: EventLog | str | Path | None = None,
        claim_timeout: float | None = None,
        poll: float | None = None,
    ) -> None:
        self.backend = backend
        self.cache = _resolve_cache(cache)
        if quota is None:
            quota = _env_number(QUOTA_ENV, None, int)
        self.queue = FairShareQueue(quota=quota)
        self.max_active = int(
            max_active
            if max_active is not None
            else _env_number(ACTIVE_ENV, DEFAULT_ACTIVE)
        )
        self.poll = (
            poll if poll is not None else _env_number(POLL_ENV, DEFAULT_POLL)
        )
        self.claim_timeout = (
            claim_timeout
            if claim_timeout is not None
            else _env_number(CLAIM_TIMEOUT_ENV, DEFAULT_CLAIM_TIMEOUT)
        )
        # ``<key>.claim`` files beside the cache's ``<key>.pkl`` entries.
        self.claims = (
            ContentStore(self.cache.root, ".claim") if self.cache is not None else None
        )
        self.retries = _env_number(RETRIES_ENV, DEFAULT_RETRIES, int)
        self.backoff = _env_number(BACKOFF_ENV, DEFAULT_BACKOFF)
        self.timeout = _env_number(CELL_TIMEOUT_ENV, None)
        if events is not None and not isinstance(events, EventLog):
            events = EventLog(events)
        self.log = events
        self.campaigns: dict[str, CampaignState] = {}
        self._inflight: dict[str, asyncio.Future] = {}
        self._slots: asyncio.Semaphore | None = None
        # Event objects stopped binding a loop at construction in 3.10,
        # so these can be created eagerly, before any loop runs.
        self._wakeup = asyncio.Event()
        self._event_signal = asyncio.Event()
        self._loop_task: asyncio.Task | None = None
        self._campaign_tasks: set[asyncio.Task] = set()
        self._running_tasks: dict[str, asyncio.Task] = {}
        self._active = 0
        self._seq = itertools.count(1)
        self.started_at = time.time()

    # ------------------------- lifecycle -------------------------

    async def start(self) -> None:
        """Start the backend and the queue-draining loop."""
        self._slots = asyncio.Semaphore(max(1, self.backend.capacity))
        await self.backend.start()
        self._loop_task = asyncio.create_task(self._drain_queue())

    async def close(self) -> None:
        """Stop draining, cancel running campaigns, shut the backend down."""
        if self._loop_task is not None:
            self._loop_task.cancel()
            try:
                await self._loop_task
            except (asyncio.CancelledError, Exception):
                pass
            self._loop_task = None
        for task in list(self._campaign_tasks):
            task.cancel()
        if self._campaign_tasks:
            await asyncio.gather(*self._campaign_tasks, return_exceptions=True)
        await self.backend.close()
        if self.log is not None:
            self.log.close()

    # ------------------------- submission -------------------------

    def submit(
        self,
        cells: list[CampaignCell],
        *,
        user: str = "anonymous",
        priority: int = 0,
    ) -> CampaignState:
        """Admit one campaign; raises :class:`QuotaExceeded` over quota.

        Must be called on the scheduler's event loop (the HTTP layer
        does); returns immediately with the queued
        :class:`CampaignState`.
        """
        if not cells:
            raise ValueError("a campaign needs at least one cell")
        campaign_id = f"c{next(self._seq):06d}-{uuid.uuid4().hex[:8]}"
        entry = self.queue.submit(
            campaign_id, user, priority=priority, weight=len(cells)
        )
        state = CampaignState(
            id=campaign_id,
            user=user,
            priority=priority,
            cells=list(cells),
            entry=entry,
        )
        self.campaigns[campaign_id] = state
        self._emit(
            state,
            "campaign_queued",
            user=user,
            priority=priority,
            cells=len(cells),
        )
        self._wakeup.set()
        return state

    def get(self, campaign_id: str) -> CampaignState | None:
        return self.campaigns.get(campaign_id)

    def cancel(self, campaign_id: str) -> bool:
        """Cancel a queued or running campaign; False if already terminal.

        Queued campaigns are pulled out of the fair-share queue and
        finalized on the spot; running ones have their task cancelled and
        the ``CancelledError`` path finalizes them as ``cancelled``
        (rather than ``failed``) because ``cancel_requested`` is set.
        Returns ``True`` when this call initiated a cancellation.
        """
        state = self.campaigns.get(campaign_id)
        if state is None:
            raise KeyError(campaign_id)
        if state.done:
            return False
        state.cancel_requested = True
        self._emit(state, "campaign_cancelled", status=state.status,
                   user=state.user)
        if state.status == QUEUED:
            if self.queue.cancel(campaign_id):
                state.status = CANCELLED
                state.finished_at = time.time()
                self._emit(state, "campaign_finished", status=CANCELLED,
                           **state.counts())
                self._wakeup.set()
            # else: popped from the queue but its task has not started
            # yet — ``cancel_requested`` makes ``_run_campaign`` finalize
            # it (with the queue/slot bookkeeping) on its first tick.
            return True
        task = self._running_tasks.get(campaign_id)
        if task is not None:
            task.cancel()
        return True

    def describe(self) -> dict:
        """Service-level status (the ``/healthz`` document)."""
        return {
            "status": "ok",
            "backend": getattr(self.backend, "name", type(self.backend).__name__),
            "capacity": self.backend.capacity,
            "campaigns": len(self.campaigns),
            "queued": len(self.queue),
            "active": self._active,
            "cache": str(self.cache.root) if self.cache is not None else None,
            "uptime_seconds": time.time() - self.started_at,
        }

    # --------------------------- events ---------------------------

    def _emit(self, state: CampaignState, event: str, **fields) -> None:
        record = {"event": event, "time": time.time(), **fields}
        state.events.append(record)
        if self.log is not None:
            self.log.emit(event, campaign=state.id, **fields)
        # Wake every subscriber by retiring the current signal object.
        # Streamers grab a reference *before* scanning the event list, so
        # an event appended after their scan has already set the signal
        # they hold — no lost wakeups, no condition-variable dance.
        signal, self._event_signal = self._event_signal, asyncio.Event()
        signal.set()

    async def stream_events(self, state: CampaignState):
        """Yield a campaign's events: full replay, then live until terminal.

        Every subscriber gets the identical sequence regardless of when
        it connected — late joiners replay history first (the SSE replay
        semantics the HTTP layer exposes).
        """
        position = 0
        while True:
            signal = self._event_signal
            while position < len(state.events):
                yield state.events[position]
                position += 1
            if state.done:
                return
            await signal.wait()

    # ------------------------ the run loop ------------------------

    async def _drain_queue(self) -> None:
        while True:
            await self._wakeup.wait()
            self._wakeup.clear()
            while len(self.queue) and self._active < self.max_active:
                entry = self.queue.pop()
                state = self.campaigns[entry.campaign_id]
                self.queue.started(entry)
                self._active += 1
                task = asyncio.create_task(self._run_campaign(state))
                self._campaign_tasks.add(task)
                self._running_tasks[state.id] = task
                task.add_done_callback(self._campaign_tasks.discard)
                task.add_done_callback(
                    lambda _t, cid=state.id: self._running_tasks.pop(cid, None)
                )

    async def _run_campaign(self, state: CampaignState) -> None:
        if state.cancel_requested:
            # Cancelled in the gap between the queue pop and this task
            # starting: finalize without running a single cell.
            state.status = CANCELLED
            state.finished_at = time.time()
            self._emit(state, "campaign_finished", status=CANCELLED,
                       **state.counts())
            self.queue.finished(state.entry)
            self._active -= 1
            self._wakeup.set()
            return
        state.status = RUNNING
        state.started_at = time.time()
        self._emit(
            state,
            "campaign_started",
            cells=len(state.cells),
            workers=self.backend.capacity,
            user=state.user,
        )
        try:
            await asyncio.gather(
                *(
                    self._resolve_cell(state, index, cell)
                    for index, cell in enumerate(state.cells)
                )
            )
        except asyncio.CancelledError:
            status = CANCELLED if state.cancel_requested else FAILED
            state.status = status
            state.finished_at = time.time()
            self._emit(state, "campaign_finished", status=status,
                       **state.counts())
            raise
        except Exception as exc:  # defensive: a bug must not hang clients
            state.status = FAILED
            state.finished_at = time.time()
            self._emit(
                state,
                "campaign_finished",
                status=FAILED,
                error=type(exc).__name__,
                message=str(exc),
                **state.counts(),
            )
        else:
            counts = state.counts()
            state.status = DONE
            state.finished_at = time.time()
            self._emit(
                state,
                "campaign_finished",
                status=DONE,
                wall_seconds=state.finished_at - state.started_at,
                **counts,
            )
        finally:
            self.queue.finished(state.entry)
            self._active -= 1
            if self._wakeup is not None:
                self._wakeup.set()

    # ------------------------- cell dedupe -------------------------

    async def _resolve_cell(
        self, state: CampaignState, index: int, cell: CampaignCell
    ) -> None:
        key = cell_key(cell)
        emit = functools.partial(
            self._emit, state, label=cell.label, index=index, key=key
        )
        source, payload, attempts = await self.obtain(cell, key, emit)
        event, fields = cell_event(cell.label, index, key, source, payload, attempts)
        outcome = {
            "label": cell.label,
            "index": index,
            "key": key,
            "ok": event == "cell_finished",
            "source": source,
        }
        if isinstance(payload, CellError):
            outcome.update(error=payload.type, message=payload.message)
        else:
            outcome.update(
                cached=fields["cached"],
                references=payload.references,
                wall_seconds=fields["wall_seconds"],
                value=summarize_value(payload.value),
                **summarize_sampling(payload.sampling),
            )
        state.outcomes[index] = outcome
        self._emit(state, event, source=source, **fields)

    async def obtain(self, cell: CampaignCell, key: str, emit):
        """Resolve one cell: ``(source, CellResult | CellError, attempts)``.

        Order of escalation: result cache → in-flight future → foreign
        claim (poll the cache) → execute on the backend.  ``attempts``
        counts the backend runs made for this call (0 when the cache or
        another caller's run satisfied it).  ``emit(event, **fields)``
        receives the cell's ``cell_retried`` and ``pool_terminated``
        events.  Must run between :meth:`start` and :meth:`close`.
        """
        while True:
            if self.cache is not None:
                hit = self.cache.get(key)
                if isinstance(hit, CellResult):
                    return "cache", hit, 0
            future = self._inflight.get(key)
            if future is not None:
                return "shared", await asyncio.shield(future), 0
            if self.claims is not None and not self.claims.try_claim(
                key, self.claim_timeout
            ):
                # Another process owns this key: poll until its result
                # lands in the shared cache (or the claim goes stale).
                await asyncio.sleep(self.poll)
                continue
            try:
                payload, attempts = await self._execute(cell, key, emit)
                return "run", payload, attempts
            finally:
                if self.claims is not None:
                    self.claims.release(key)

    async def _execute(self, cell: CampaignCell, key: str, emit):
        """Run one cell with retries; publish the payload to sharers."""
        future = asyncio.get_running_loop().create_future()
        self._inflight[key] = future
        try:
            attempts = 0
            while True:
                attempts += 1
                async with self._slots:
                    payload, transient = await self._attempt(cell, emit)
                if not transient or attempts > self.retries:
                    break
                pause = _backoff_seconds(self.backoff, attempts)
                emit(
                    "cell_retried",
                    error=payload.type,
                    message=payload.message,
                    attempt=attempts,
                    backoff_seconds=pause,
                )
                await asyncio.sleep(pause)
            if self.cache is not None and isinstance(payload, CellResult):
                try:
                    self.cache.put(key, payload)
                except Exception as exc:
                    # The result is good; only its cached copy is lost.
                    emit(
                        "cache_write_failed",
                        error=type(exc).__name__,
                        message=str(exc),
                    )
        except BaseException as exc:
            if not future.done():
                future.set_exception(exc)
                # Consume the exception if nobody awaited the future.
                future.exception()
            raise
        finally:
            self._inflight.pop(key, None)
        future.set_result(payload)
        return payload, attempts

    async def _attempt(self, cell: CampaignCell, emit):
        """One backend run of ``cell`` as ``(payload, transient)``."""
        limit = self.timeout if getattr(self.backend, "preemptible", False) else None
        run = asyncio.ensure_future(self.backend.run(cell))
        try:
            done, _ = await asyncio.wait((run,), timeout=limit)
        except asyncio.CancelledError:
            # The campaign was cancelled: leave the cell to its worker and
            # drop the result, rather than kill a pool other campaigns share.
            run.add_done_callback(_drop_result)
            raise
        if not done:
            # Timed out: cancelling the run makes the backend kill the
            # worker holding the cell (the pool rebuilds).
            run.cancel()
            await asyncio.wait((run,))
            emit(
                "pool_terminated",
                reason="cell_timeout",
                backend=getattr(self.backend, "name", type(self.backend).__name__),
                timeout=limit,
            )
            return CellError(
                type="TimeoutError",
                message=(
                    f"cell exceeded the {limit:g}s per-cell timeout "
                    f"({CELL_TIMEOUT_ENV})"
                ),
                traceback="",
            ), False
        try:
            return run.result(), False
        except Exception as exc:
            return CellError.from_exception(exc), isinstance(exc, TRANSIENT_EXCEPTIONS)
