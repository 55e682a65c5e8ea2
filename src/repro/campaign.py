"""The campaign runner: parallel trace x configuration sweeps with an
on-disk result cache, failure isolation, and structured observability.

The paper's experiments are *campaigns* — the same simulator applied to
dozens of traces across dozens of configurations (49 traces x 12 sizes for
Table 1 alone).  Every cell is independent, so the natural execution model
is a process pool:

* :func:`run_campaign` takes an iterable of
  :class:`~repro.core.jobs.CampaignCell` and executes them through the
  campaign service's cell path (:meth:`repro.service.Scheduler.obtain`)
  on a process-pool backend.  The worker count comes from
  ``os.cpu_count()``, overridable with the ``REPRO_WORKERS`` environment
  variable (or the ``workers=`` argument); ``REPRO_WORKERS=1`` runs the
  cells one at a time on the calling thread, which is what you want under
  a debugger.  The call is synchronous even where an event loop is
  already running (a notebook, an ``async def``): the campaign's own loop
  then runs on a helper thread.
* Results are merged **in submission order**, so a campaign's output is
  bit-identical no matter how many workers ran it or in which order the
  cells finished.
* Finished cells are memoized in an on-disk :class:`ResultCache` keyed by
  :func:`repro.core.jobs.cell_key`, so a re-run skips every cell already
  simulated.  Its directory comes from ``cache=`` or ``REPRO_CACHE_DIR``;
  with neither, caching is off.  A failed cache write keeps the result.
* Large traces are best shipped as ``TraceSpec.file`` cells pointing at a
  version-2 ``.rtrc`` file: each worker memory-maps the array sections
  read-only (:func:`repro.trace.io.read_binary_trace` with ``mmap=True``),
  so concurrent workers share one physical copy of the trace through the
  page cache instead of each materializing (or unpickling) the arrays.

A production-scale campaign must also survive its own cells.  The runner
therefore degrades gracefully instead of failing all-or-nothing:

* **Failure isolation** — an exception inside one cell becomes a failed
  :class:`CellOutcome` (:class:`~repro.core.jobs.CellError` with type,
  message, and traceback) on the :class:`CampaignResult`; every other
  cell still runs and successful cells still land in the result cache,
  so a re-run only re-executes the failures.  Pass
  ``raise_on_error=True`` to restore strict behavior (a
  :class:`CampaignError` after all cells have been collected).
* **Retries** — transient failures (``OSError``, a crashed pool worker)
  are retried with capped exponential backoff; ``REPRO_RETRIES`` /
  ``retries=`` bounds the retry count, ``REPRO_RETRY_BACKOFF`` /
  ``backoff=`` scales the delay.
* **Timeouts** — with ``REPRO_CELL_TIMEOUT`` / ``timeout=`` set, a cell
  that runs longer than the limit is recorded as a failed outcome (error
  type ``TimeoutError``) instead of hanging the campaign; the pool's
  workers are terminated and the pool rebuilt, and the cells caught in
  it are retried.  (Timeouts are enforced in pool mode only — a cell
  running inside this process cannot be preempted.)
* **Broken pools** — if the process pool dies (a worker was OOM-killed,
  for example), the cells it held are retried on a rebuilt pool; a cell
  whose every attempt crashed gets one last run inside this process
  rather than crashing the campaign.
* **Observability** — results are collected as they complete, so the
  ``progress`` callback genuinely streams (still in submission order),
  and every lifecycle step can be appended to a JSONL event log
  (:class:`EventLog`, ``events=`` / ``REPRO_EVENT_LOG``); the schema is
  in ``docs/campaign.md``.
* **Shared trace store** — with ``REPRO_TRACE_STORE=<dir>`` (or
  ``--trace-store`` on the CLI) the parent stores every distinct catalog
  trace of the pending cells once
  (:class:`~repro.trace.store.TraceStore`) and the workers memory-map it:
  N cells over one workload cost one generation.

Every executed cell is timed; :meth:`CampaignResult.summary` reports wall
time, references/second, and failure/retry counts per campaign, and
:attr:`CellOutcome.wall_seconds` per cell.
"""

from __future__ import annotations

import functools
import json
import os
import pickle
import time
from collections.abc import Awaitable, Callable, Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path

from .core.jobs import CampaignCell, CellError, CellResult, cell_key, run_cell
from .store import ContentStore

__all__ = [
    "CellOutcome",
    "CampaignError",
    "CampaignResult",
    "EventLog",
    "ResultCache",
    "run_campaign",
    "worker_count",
]

#: Environment variable overriding the worker count.
WORKERS_ENV = "REPRO_WORKERS"
#: Environment variable naming the default result-cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
#: Environment variable bounding transient-failure retries per cell.
RETRIES_ENV = "REPRO_RETRIES"
#: Environment variable scaling the retry backoff (seconds; 0 disables).
BACKOFF_ENV = "REPRO_RETRY_BACKOFF"
#: Environment variable setting the per-cell timeout (seconds; unset = none).
CELL_TIMEOUT_ENV = "REPRO_CELL_TIMEOUT"
#: Environment variable naming the default JSONL event-log path.
EVENT_LOG_ENV = "REPRO_EVENT_LOG"

#: Default transient-failure retries per cell.
DEFAULT_RETRIES = 2
#: Default backoff base in seconds (attempt n sleeps ``base * 2**(n-1)``).
DEFAULT_BACKOFF = 0.1


def worker_count(workers: int | None = None) -> int:
    """Resolve the campaign worker count.

    Priority: explicit argument, then ``REPRO_WORKERS``, then
    ``os.cpu_count()``.  Always at least 1.
    """
    if workers is None:
        env = os.environ.get(WORKERS_ENV)
        if env:
            try:
                workers = int(env)
            except ValueError:
                raise ValueError(
                    f"{WORKERS_ENV} must be an integer, got {env!r}"
                ) from None
        else:
            workers = os.cpu_count() or 1
    return max(1, workers)


class ResultCache(ContentStore):
    """On-disk memo of finished campaign cells: a
    :class:`~repro.store.ContentStore` of pickled :class:`CellResult`
    files (``ab/abcdef....pkl``) keyed by :func:`~repro.core.jobs.cell_key`.
    """

    def __init__(self, directory: str | Path) -> None:
        super().__init__(directory, ".pkl")

    def get(self, key: str) -> CellResult | None:
        """The cached :class:`CellResult` for ``key``, or None on a miss."""
        return self.read(key, lambda path: pickle.loads(path.read_bytes()))

    def put(self, key: str, result: CellResult) -> None:
        """Store one finished cell (atomically)."""
        self.write(
            key, lambda handle: pickle.dump(result, handle, pickle.HIGHEST_PROTOCOL)
        )


class EventLog:
    """Append-only JSONL log of campaign lifecycle events.

    Each line is one JSON object with at least ``event`` (the event name)
    and ``time`` (epoch seconds).  Lines are flushed as they are written,
    so a tail of the file is a live view of the campaign.  The target
    ``"-"`` streams to stdout (what ``campaign --events -`` and remote
    tailing use).  See ``docs/campaign.md`` for the event schema.
    """

    def __init__(self, target: str | Path | object) -> None:
        if target == "-":
            import sys

            self._handle = sys.stdout
            self._owns_handle = False
        elif hasattr(target, "write"):
            self._handle = target
            self._owns_handle = False
        else:
            path = Path(target)
            path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = path.open("a", encoding="utf-8")
            self._owns_handle = True

    def emit(self, event: str, **fields) -> None:
        """Append one event line (best-effort: I/O errors are swallowed)."""
        record = {"event": event, "time": time.time(), **fields}
        try:
            self._handle.write(json.dumps(record, sort_keys=False) + "\n")
            self._handle.flush()
        except Exception:
            pass  # observability must never take the campaign down

    def close(self) -> None:
        """Close the underlying file if this log opened it."""
        if self._owns_handle:
            try:
                self._handle.close()
            except Exception:
                pass

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


@dataclass(frozen=True)
class CellOutcome:
    """One campaign cell plus everything its execution produced.

    Attributes:
        cell: the cell specification.
        value: the job payload (report or miss-ratio tuple); ``None`` for
            a failed cell.
        references: references replayed by the cell (0 for a failure).
        wall_seconds: execution wall time (0.0 for a cache hit).
        cached: True iff the result came from the on-disk cache.
        key: the cell's content-hash cache key.
        error: why the cell failed, or ``None`` on success.
        attempts: execution attempts made (1 = first try succeeded).
        sampling: the :class:`~repro.sampling.estimators.SamplingInfo`
            describing how the value was estimated, when the cell ran
            under a sampling plan (``value`` then holds point estimates);
            ``None`` for exact cells.
    """

    cell: CampaignCell
    value: object
    references: int
    wall_seconds: float
    cached: bool
    key: str
    error: CellError | None = None
    attempts: int = 1
    sampling: object | None = None

    @property
    def label(self) -> str:
        """The cell's display label."""
        return self.cell.label

    @property
    def ok(self) -> bool:
        """True iff the cell produced a value (cached or simulated)."""
        return self.error is None


class CampaignError(RuntimeError):
    """Raised by ``run_campaign(..., raise_on_error=True)`` after cells fail.

    Raised only once every cell has been collected, so the partial
    :attr:`result` (with its cached successes) is still available.
    """

    def __init__(self, result: "CampaignResult") -> None:
        failures = result.failures()
        preview = "; ".join(
            f"{o.label}: {o.error}" for o in failures[:3]
        )
        if len(failures) > 3:
            preview += f"; ... ({len(failures) - 3} more)"
        super().__init__(
            f"{len(failures)} of {result.cells} campaign cell(s) failed: {preview}"
        )
        self.result = result


@dataclass(frozen=True)
class CampaignResult:
    """All cell outcomes of one campaign, in submission order."""

    outcomes: tuple[CellOutcome, ...]
    wall_seconds: float
    workers: int

    def values(self) -> list:
        """The job payloads, in submission order (``None`` for failures)."""
        return [outcome.value for outcome in self.outcomes]

    def by_label(self) -> dict[str, list[CellOutcome]]:
        """Outcomes grouped by cell label (insertion-ordered)."""
        grouped: dict[str, list[CellOutcome]] = {}
        for outcome in self.outcomes:
            grouped.setdefault(outcome.label, []).append(outcome)
        return grouped

    def failures(self) -> tuple[CellOutcome, ...]:
        """The failed outcomes, in submission order."""
        return tuple(o for o in self.outcomes if o.error is not None)

    def errors(self) -> dict[str, CellError]:
        """Errors keyed by cell label (first failure wins per label)."""
        out: dict[str, CellError] = {}
        for outcome in self.outcomes:
            if outcome.error is not None:
                out.setdefault(outcome.label, outcome.error)
        return out

    @property
    def cells(self) -> int:
        """Total number of cells."""
        return len(self.outcomes)

    @property
    def cached_cells(self) -> int:
        """Cells served from the result cache."""
        return sum(1 for outcome in self.outcomes if outcome.cached)

    @property
    def failed_cells(self) -> int:
        """Cells that ended in a failure."""
        return sum(1 for outcome in self.outcomes if outcome.error is not None)

    @property
    def retried_cells(self) -> int:
        """Cells that needed more than one attempt (succeeded or not)."""
        return sum(1 for outcome in self.outcomes if outcome.attempts > 1)

    @property
    def simulated_cells(self) -> int:
        """Cells actually executed (successfully) this run."""
        return self.cells - self.cached_cells - self.failed_cells

    @property
    def simulated_references(self) -> int:
        """References replayed by the executed (non-cached) cells."""
        return sum(o.references for o in self.outcomes if not o.cached)

    @property
    def references_per_second(self) -> float:
        """Aggregate throughput of the executed cells (0.0 if all cached).

        Computed against campaign wall time, so it reflects the *parallel*
        throughput the user actually observed.
        """
        if self.simulated_cells == 0 or self.wall_seconds <= 0:
            return 0.0
        return self.simulated_references / self.wall_seconds

    def summary(self) -> str:
        """Human-readable per-campaign accounting."""
        counts = (
            f"({self.cached_cells} cached, {self.simulated_cells} simulated"
            + (f", {self.failed_cells} failed" if self.failed_cells else "")
            + ")"
        )
        lines = [
            f"campaign: {self.cells} cells {counts} "
            f"in {self.wall_seconds:.2f}s on {self.workers} worker(s)"
        ]
        if self.retried_cells:
            lines.append(f"  retried {self.retried_cells} cell(s)")
        if self.simulated_cells:
            lines.append(
                f"  replayed {self.simulated_references:,} references "
                f"at {self.references_per_second:,.0f} refs/s"
            )
            slowest = max(
                (o for o in self.outcomes if not o.cached and o.error is None),
                key=lambda o: o.wall_seconds,
            )
            lines.append(
                f"  slowest cell: {slowest.label} ({slowest.wall_seconds:.2f}s)"
            )
        for outcome in self.failures():
            lines.append(
                f"  FAILED {outcome.label}: {outcome.error} "
                f"(after {outcome.attempts} attempt(s))"
            )
        return "\n".join(lines)


def _resolve_cache(cache) -> ResultCache | None:
    """Interpret the ``cache`` argument of :func:`run_campaign`."""
    if cache is False:
        return None
    if cache is True:
        directory = os.environ.get(CACHE_DIR_ENV)
        if not directory:
            raise ValueError(
                f"run_campaign(cache=True) requires {CACHE_DIR_ENV} to name "
                "a cache directory (or pass the directory itself as cache=)"
            )
        return ResultCache(directory)
    if isinstance(cache, ResultCache):
        return cache
    if cache is None:
        directory = os.environ.get(CACHE_DIR_ENV)
        return ResultCache(directory) if directory else None
    return ResultCache(cache)


def _resolve_events(events) -> tuple[EventLog | None, bool]:
    """Interpret ``events=``: the log (or None) and whether we own it."""
    if events is None:
        path = os.environ.get(EVENT_LOG_ENV)
        return (EventLog(path), True) if path else (None, False)
    if isinstance(events, EventLog):
        return events, False
    return EventLog(events), True


def _wrap_sampled(cells: list[CampaignCell], sampling) -> list[CampaignCell]:
    """Wrap every cell's job in a :class:`SampledJob` carrying ``sampling``.

    Imported late so the core campaign machinery has no dependency on
    :mod:`repro.sampling`; cells already sampled are left untouched.
    """
    from .sampling.jobs import SampledJob

    wrapped = []
    for cell in cells:
        if isinstance(cell.job, SampledJob):
            wrapped.append(cell)
        else:
            wrapped.append(
                CampaignCell(
                    label=cell.label,
                    trace=cell.trace,
                    job=SampledJob(cell.job, sampling),
                )
            )
    return wrapped


class _Recorder:
    """Shared completion path: outcome slot, events, progress.

    Progress streams in submission order: the callback fires for outcome
    *i* as soon as outcomes ``0..i`` are all known, which with
    as-completed collection means long before the campaign ends.
    Callback exceptions are swallowed so a broken progress bar can never
    corrupt the merge — but the *first* one is surfaced as a one-time
    ``callback_error`` event in the JSONL log, so a silently broken
    progress consumer is at least diagnosable after the fact.
    """

    def __init__(
        self,
        cells: list[CampaignCell],
        keys: list[str],
        log: EventLog | None,
        progress: Callable[[CellOutcome], None] | None,
        cell_event: Callable,
    ) -> None:
        self.cells = cells
        self.keys = keys
        self.outcomes: list[CellOutcome | None] = [None] * len(cells)
        self._log = log
        self._progress = progress
        self._cell_event = cell_event
        self._next_emit = 0
        self._callback_error_reported = False

    def emit(self, event: str, **fields) -> None:
        """Append one event to the log, if there is one."""
        if self._log is not None:
            self._log.emit(event, **fields)

    def emitter(self, index: int) -> Callable[..., None]:
        """``emit(event, **fields)`` tagged with cell ``index``'s identity."""
        return functools.partial(
            self.emit,
            label=self.cells[index].label,
            index=index,
            key=self.keys[index],
        )

    def record(self, index: int, source: str, payload, attempts: int) -> None:
        """Store cell ``index``'s final payload as its outcome and log it."""
        cell, key = self.cells[index], self.keys[index]
        if isinstance(payload, CellError):
            outcome = CellOutcome(
                cell=cell,
                value=None,
                references=0,
                wall_seconds=0.0,
                cached=False,
                key=key,
                error=payload,
                attempts=max(1, attempts),
            )
        else:
            ran = source == "run"
            outcome = CellOutcome(
                cell=cell,
                value=payload.value,
                references=payload.references,
                wall_seconds=payload.wall_seconds if ran else 0.0,
                cached=not ran,
                key=key,
                attempts=max(1, attempts),
                sampling=payload.sampling,
            )
        self.outcomes[index] = outcome
        if self._log is not None:
            event, fields = self._cell_event(
                cell.label, index, key, source, payload, attempts
            )
            self.emit(event, **fields)
        self._advance()

    def _advance(self) -> None:
        while (
            self._next_emit < len(self.outcomes)
            and self.outcomes[self._next_emit] is not None
        ):
            outcome = self.outcomes[self._next_emit]
            self._next_emit += 1
            if self._progress is not None:
                try:
                    self._progress(outcome)
                except Exception as exc:
                    # A broken callback must not corrupt the merge, but it
                    # must not vanish either: log the first failure once.
                    if self._log is not None and not self._callback_error_reported:
                        self._callback_error_reported = True
                        self.emit(
                            "callback_error",
                            label=outcome.label,
                            error=type(exc).__name__,
                            message=str(exc),
                        )


def _prime_trace_store(pending: list[CampaignCell], log: EventLog | None) -> None:
    """Store each distinct catalog trace once, before the fan-out.

    With ``REPRO_TRACE_STORE`` set, the parent resolves every distinct
    catalog ``(name, length)`` of the pending cells through the shared
    :class:`~repro.trace.store.TraceStore` up front, so every worker
    lookup is a hit that memory-maps the parent's file.  Emits one
    ``trace_store_write``, ``trace_store_hit`` or ``trace_store_error``
    event per trace.  Best-effort: a failure here costs no cell anything.
    """
    from .trace.store import TraceStore

    store = TraceStore.from_env()
    if store is None:
        return
    from .workloads import catalog
    from .workloads.generator import SyntheticWorkload, trace_identity

    needed: dict[tuple[str, int | None], None] = {}
    for cell in pending:
        spec = cell.trace
        if spec.kind == "catalog":
            needed.setdefault((spec.name, spec.length), None)
        elif spec.kind == "mix":
            for member in spec.members:
                needed.setdefault((member, spec.length), None)
    for name, length in needed:
        started = time.perf_counter()
        try:
            params = catalog.get(name)
            resolved = length if length is not None else catalog.default_length(name)
            identity = trace_identity(params, resolved)
            _trace, hit, error = store.resolve(
                identity,
                functools.partial(SyntheticWorkload(params).generate, resolved),
            )
        except Exception as exc:
            error = exc
        if error is not None:
            if log is not None:
                log.emit(
                    "trace_store_error",
                    name=name,
                    length=length,
                    error=type(error).__name__,
                    message=str(error),
                )
            continue
        if log is not None:
            key = store.key_for(identity)
            log.emit(
                "trace_store_hit" if hit else "trace_store_write",
                name=name,
                length=resolved,
                key=key,
                path=str(store.path_for(key)),
                wall_seconds=time.perf_counter() - started,
            )


class _SerialBackend:
    """The ``workers == 1`` backend: one cell at a time on the loop's thread.

    Nothing else needs the loop while a local cell runs, and running it
    on the calling thread keeps Ctrl-C and debuggers acting on the cell
    itself, as a plain loop over the cells would.
    """

    capacity = 1
    preemptible = False

    def __init__(self, runner: Callable[[CampaignCell], CellResult]) -> None:
        self._runner = runner

    async def start(self) -> None:
        return None

    async def run(self, cell: CampaignCell) -> CellResult:
        return self._runner(cell)

    async def close(self) -> None:
        return None


def _run_until_complete(main: Callable[[], Awaitable[None]]) -> None:
    """Run ``main()`` to completion on a private event loop.

    Not ``asyncio.run``: its SIGINT handler turns a first Ctrl-C into a
    task cancellation, which waits until the running serial cell returns.
    Here ``KeyboardInterrupt`` is raised inside the cell, and the tasks it
    leaves are cancelled so every scheduler still closes its backend.
    A caller whose thread already runs a loop gets the private loop on a
    short-lived helper thread, so the call stays synchronous.
    """
    import asyncio

    try:
        asyncio.get_running_loop()
    except RuntimeError:
        pass
    else:
        import threading

        failure: list[BaseException] = []

        def host() -> None:
            try:
                _run_until_complete(main)
            except BaseException as exc:
                failure.append(exc)

        thread = threading.Thread(target=host, name="repro-campaign")
        thread.start()
        thread.join()
        if failure:
            raise failure[0]
        return

    loop = asyncio.new_event_loop()
    try:
        loop.run_until_complete(main())
    finally:
        try:
            leftover = asyncio.all_tasks(loop)
            for task in leftover:
                task.cancel()
            if leftover:
                loop.run_until_complete(
                    asyncio.gather(*leftover, return_exceptions=True)
                )
        finally:
            loop.close()


async def _execute_pending(
    scheduler, pending: list[int], recorder: _Recorder, fallback=None
) -> None:
    """Resolve the ``pending`` cells through ``scheduler``'s cell path.

    With a ``fallback`` scheduler, a cell whose final error is a
    ``BackendCrash`` — every attempt lost its pool worker — is not
    recorded yet: it gets one more run there, after ``scheduler`` has
    shut down (the broken-pool fallback, logged as ``serial_fallback``).
    """
    import asyncio

    crashed: dict[int, int] = {}

    async def resolve(owner, index: int, prior: int) -> None:
        source, payload, attempts = await owner.obtain(
            recorder.cells[index], recorder.keys[index], recorder.emitter(index)
        )
        lost = isinstance(payload, CellError) and payload.type == "BackendCrash"
        if lost and fallback is not None and owner is scheduler:
            crashed[index] = attempts
        else:
            recorder.record(index, source, payload, prior + attempts)

    async def drain(owner, runs: dict[int, int]) -> None:
        await owner.start()
        try:
            await asyncio.gather(
                *(resolve(owner, index, prior) for index, prior in runs.items())
            )
        finally:
            await owner.close()

    await drain(scheduler, dict.fromkeys(pending, 0))
    if crashed:
        recorder.emit("serial_fallback", cells=len(crashed))
        await drain(fallback, dict(sorted(crashed.items())))


def run_campaign(
    cells: Iterable[CampaignCell] | Sequence[CampaignCell],
    workers: int | None = None,
    cache: ResultCache | str | Path | bool | None = None,
    progress: Callable[[CellOutcome], None] | None = None,
    *,
    raise_on_error: bool = False,
    retries: int | None = None,
    backoff: float | None = None,
    timeout: float | None = None,
    events: EventLog | str | Path | None = None,
    runner: Callable[[CampaignCell], CellResult] = run_cell,
    sampling=None,
) -> CampaignResult:
    """Execute a campaign: every cell, in parallel, memoized on disk.

    A failing cell does **not** abort the campaign: it is recorded as a
    failed :class:`CellOutcome` (see :attr:`CellOutcome.error`) while its
    siblings complete and are cached, so a re-run only re-executes the
    failures.

    Args:
        cells: the trace x configuration cells to run.
        workers: process count; defaults to ``REPRO_WORKERS`` or
            ``os.cpu_count()``.  1 means serial in-process execution.
        cache: result cache — a :class:`ResultCache`, a directory path,
            ``True`` to require ``REPRO_CACHE_DIR`` (``ValueError`` if
            unset), ``False`` to disable, or ``None`` to use
            ``REPRO_CACHE_DIR`` (no caching if unset).
        progress: optional callback invoked once per cell, in submission
            order, streamed as each outcome becomes available (failed
            outcomes included).  Exceptions raised by the callback are
            swallowed.
        raise_on_error: raise :class:`CampaignError` after collection if
            any cell failed (successes are still cached first).
        retries: transient-failure retries per cell; defaults to
            ``REPRO_RETRIES`` or :data:`DEFAULT_RETRIES`.
        backoff: base backoff seconds between retries (capped exponential);
            defaults to ``REPRO_RETRY_BACKOFF`` or :data:`DEFAULT_BACKOFF`.
        timeout: per-cell wall-time limit in seconds, enforced in pool
            mode; defaults to ``REPRO_CELL_TIMEOUT`` (unset = no limit).
        events: JSONL event log — an :class:`EventLog`, a path, or
            ``None`` to use ``REPRO_EVENT_LOG`` (no log if unset).
        runner: the per-cell execution function (the fault-injection seam
            used by the tests; must be picklable for pool execution).
        sampling: a :class:`~repro.sampling.plans.SamplingPlan`
            (:class:`IntervalSampling` or :class:`SetSampling`).  Every
            cell's job is wrapped in a
            :class:`~repro.sampling.jobs.SampledJob` so the campaign runs
            sampled: outcomes carry point estimates as their values plus a
            ``sampling`` info block (estimate ± CI per metric, sampled
            reference counts), and the same fields land in the event log.
            The plan enters the cache key, keeping sampled and exact
            results separate.  All plan randomness is seeded, so results
            stay bit-identical across worker counts.

    Returns:
        A :class:`CampaignResult` whose outcomes are in submission order —
        deterministic and bit-identical across worker counts.

    Raises:
        CampaignError: with ``raise_on_error=True``, after all cells have
            been collected, if at least one failed.
    """
    # Imported here: the service modules import this one, and loading
    # asyncio and the service must not slow down ``import repro``.
    from .service.backends import PoolBackend
    from .service.scheduler import Scheduler, cell_event

    cells = list(cells)
    if sampling is not None:
        cells = _wrap_sampled(cells, sampling)
    count = worker_count(workers)
    store = _resolve_cache(cache)

    def local_scheduler(backend) -> Scheduler:
        scheduler = Scheduler(backend, cache=store if store is not None else False)
        # One process runs the whole campaign: no cross-process claims,
        # so a killed run leaves nothing behind to stall the next one.
        scheduler.claims = None
        if retries is not None:
            scheduler.retries = retries
        if backoff is not None:
            scheduler.backoff = backoff
        if timeout is not None:
            scheduler.timeout = timeout
        return scheduler

    started = time.perf_counter()
    keys = [cell_key(cell) for cell in cells]
    hits = [store.get(key) if store is not None else None for key in keys]
    pending = [i for i, hit in enumerate(hits) if not isinstance(hit, CellResult)]
    fallback = None
    if count == 1 or len(pending) <= 1:
        scheduler = local_scheduler(_SerialBackend(runner))
    else:
        scheduler = local_scheduler(PoolBackend(min(count, len(pending)), runner))
        fallback = local_scheduler(_SerialBackend(runner))
        fallback.retries = 0
    log, owns_log = _resolve_events(events)
    recorder = _Recorder(cells, keys, log, progress, cell_event)

    try:
        recorder.emit(
            "campaign_started",
            cells=len(cells),
            cached=len(cells) - len(pending),
            pending=len(pending),
            workers=count,
            retries=scheduler.retries,
            timeout=scheduler.timeout,
        )
        for index, hit in enumerate(hits):
            if isinstance(hit, CellResult):
                recorder.record(index, "cache", hit, 0)

        if pending:
            _prime_trace_store([cells[i] for i in pending], log)
            _run_until_complete(
                functools.partial(
                    _execute_pending, scheduler, pending, recorder, fallback
                )
            )

        result = CampaignResult(
            outcomes=tuple(recorder.outcomes),
            wall_seconds=time.perf_counter() - started,
            workers=count,
        )
        recorder.emit(
            "campaign_finished",
            cells=result.cells,
            cached=result.cached_cells,
            simulated=result.simulated_cells,
            failed=result.failed_cells,
            retried=result.retried_cells,
            wall_seconds=result.wall_seconds,
            references=result.simulated_references,
            refs_per_second=result.references_per_second,
        )
    finally:
        if owns_log and log is not None:
            log.close()

    if raise_on_error and result.failed_cells:
        raise CampaignError(result)
    return result
