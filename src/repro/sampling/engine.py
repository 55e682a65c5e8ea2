"""Sampled execution engines: run a fraction, estimate the whole.

One engine per campaign job family:

* :func:`sampled_stack_sweep` and :func:`sampled_associativity_sweep` —
  interval-sampled LRU sweeps, one per-window loop for both.  A stack
  sweep is the one-set row of an associativity grid, so both group their
  cells by set count (:func:`repro.core.kernels.associativity_groups`).
  Per sampled window and set count the engine computes exact per-set
  stack distances (:func:`repro.core.stackdist.set_stack_distances`) over
  the warm prefix plus the window, and reads the window's miss counts for
  every cell of the group from the distances of the measured region
  alone.  Because a stack distance depends only on *earlier* references,
  the prefix-warmed counts are exactly "misses of this window given this
  prefix" — no replay approximation.  Set sampling under a
  :class:`~repro.sampling.plans.SetSampling` plan is exact per kept
  class instead.
* :func:`sampled_simulate` — interval-sampled direct simulation through
  :func:`repro.core.simulator.simulate`, reusing its warmup machinery
  for the discarded prefixes.

**Bias bounds.**  For LRU, a window simulated after a warm prefix can
only *overcount* misses: the prefix-warmed LRU stack is exactly the top
of the true (full-history) stack, so every hit the sampled run sees is a
true hit, and the spurious misses are at most the window's cold
references not covered by the prefix — zero when a purge fell inside
the prefix, and, in a one-set group, zero at capacity ``C`` once the
prefix touched ``C`` distinct lines.  The engines compute these bounds
per window and the estimator widens the CI by them deterministically,
which is what makes "truth inside the reported interval" a guarantee
rather than a 95% hope for the one-sided part of the error.  For
:func:`sampled_simulate` under non-LRU or prefetching policies the same
counts are used as a heuristic (documented in ``docs/sampling.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..core.jobs import AssociativitySweepJob, SimulateJob, StackSweepJob
from ..core.kernels import all_associativity_hit_counts, associativity_groups
from ..core.simulator import simulate
from ..core.stackdist import (
    COLD_DISTANCE,
    capacity_lines,
    kind_stream,
    purge_resets,
    set_stack_distances,
)
from ..trace.stream import Trace
from .estimators import Estimate, SampledValue, SamplingInfo, ratio_estimates
from .plans import (
    Interval,
    IntervalSampling,
    RepresentativeSampling,
    SamplingPlan,
    SelectedIntervals,
    SetSampling,
    select_intervals,
    select_set_classes,
)

__all__ = [
    "SampledStats",
    "SampledReport",
    "sampled_stack_sweep",
    "sampled_associativity_sweep",
    "sampled_simulate",
    "run_sampled",
]

#: Absolute floor under which a miss ratio is "small enough": the
#: calibration budget compares CI half-widths against
#: ``max(estimate, _BUDGET_FLOOR)`` so near-zero cells do not chase an
#: impossible relative target.
_BUDGET_FLOOR = 1e-3


# -- interval-sampled sweeps -------------------------------------------------


def _miss_counts(distances: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Miss counts per threshold: references with distance > threshold."""
    ordered = np.sort(distances)
    return len(ordered) - np.searchsorted(ordered, thresholds, side="right")


@dataclass(frozen=True)
class _SweepGrid:
    """A sweep job as an associativity grid grouped by set count.

    ``groups`` maps a set count to its ``(row, column, threshold)`` cells
    (:func:`repro.core.kernels.associativity_groups`); a stack sweep is
    the single row of one-set cells at its capacities in lines.  ``kinds``
    and ``purge_interval`` select and purge the line stream.
    """

    groups: dict[int, list[tuple[int, int, int]]]
    rows: int
    cols: int
    kinds: tuple[int, ...] | None = None
    purge_interval: int | None = None

    @classmethod
    def of(cls, job: StackSweepJob | AssociativitySweepJob) -> "_SweepGrid":
        if isinstance(job, StackSweepJob):
            caps = capacity_lines(job.sizes, job.line_size, job.purge_interval)
            cells = [(0, j, c) for j, c in enumerate(caps.tolist())]
            return cls(
                {1: cells},
                rows=1,
                cols=len(cells),
                kinds=None if job.kinds is None else tuple(int(k) for k in job.kinds),
                purge_interval=job.purge_interval,
            )
        groups = associativity_groups(job.ways, job.capacities, job.line_size)
        return cls(groups, len(job.ways), len(job.capacities))

    def value(self, job, estimates) -> tuple:
        """The job-shaped payload of row-major per-cell ``estimates``."""
        if isinstance(job, StackSweepJob):
            return tuple(e.value for e in estimates)
        return tuple(
            tuple(estimates[i * self.cols + j].value for j in range(self.cols))
            for i in range(self.rows)
        )


def _interval_sweep(
    trace: Trace, job: StackSweepJob | AssociativitySweepJob, plan: IntervalSampling
) -> SampledValue:
    """The one per-window loop of both interval-sampled sweeps: per window
    and set count, one distance pass over prefix + window."""
    grid = _SweepGrid.of(job)
    total = len(trace)
    selection = select_intervals(plan, total)
    lines, positions = kind_stream(trace.compiled(job.line_size), grid.kinds)

    units = len(selection.intervals)
    metrics = grid.rows * grid.cols
    misses = np.zeros((units, metrics))
    refs = np.zeros(units)
    bias_up = np.zeros((units, metrics))
    measured = 0
    replayed = 0
    warm = plan.warmup_references
    for w, iv in enumerate(selection.intervals):
        warm_start = max(0, iv.start - warm)
        lo, mid, hi = (
            int(b)
            for b in np.searchsorted(
                positions, [warm_start, iv.start, iv.stop], side="left"
            )
        )
        measured += iv.stop - iv.start
        replayed += iv.stop - warm_start
        if hi == mid:
            continue  # window matched no (filtered) references
        segment = lines[lo:hi]
        prefix_length = mid - lo
        resets = purge_resets(positions[lo:hi], grid.purge_interval)
        refs[w] = hi - mid
        # Full history included, or a purge inside the prefix: the warm
        # state is exact.  Otherwise cold references before any in-window
        # purge may be spurious misses.
        exact = warm_start == 0 or (
            resets is not None and bool((resets <= prefix_length).any())
        )
        if resets is not None and len(resets):
            bias_end = int(resets[0]) - prefix_length
        else:
            bias_end = hi - mid
        for num_sets, cells in grid.groups.items():
            columns = [i * grid.cols + j for i, j, _t in cells]
            thresholds = np.asarray([t for _i, _j, t in cells], dtype=np.int64)
            distances = set_stack_distances(segment, num_sets, resets)[prefix_length:]
            misses[w, columns] = _miss_counts(distances, thresholds)
            if exact:
                continue
            cold = int(np.count_nonzero(distances[:bias_end] == COLD_DISTANCE))
            if not cold:
                continue
            if num_sets == 1:
                # Refined per capacity by the prefix's distinct-line
                # coverage: a prefix that touched C lines fills the top
                # of the true stack at capacity C.
                prefix_distinct = len(np.unique(segment[:prefix_length]))
                bias_up[w, columns] = np.minimum(
                    cold, np.maximum(0, thresholds - prefix_distinct)
                )
            else:
                bias_up[w, columns] = cold

    estimates = ratio_estimates(
        misses,
        refs,
        expansion=selection.expansion,
        bias_up=(selection.expansion[:, None] * bias_up).sum(axis=0),
        confidence=plan.confidence,
        bootstrap=plan.bootstrap,
        seed=plan.seed + 1,
        clip=(0.0, 1.0),
    )
    info = _interval_info(plan, selection, measured, replayed, total, tuple(estimates))
    return SampledValue(grid.value(job, estimates), info)


def sampled_stack_sweep(
    trace: Trace, job: StackSweepJob, plan: IntervalSampling | RepresentativeSampling
) -> SampledValue:
    """Estimate a :class:`StackSweepJob`'s miss-ratio curve from samples.

    Returns a :class:`SampledValue` whose payload is the point-estimate
    tuple (same shape as the full job's) and whose info carries one
    :class:`Estimate` per capacity.  A :class:`RepresentativeSampling`
    plan delegates to the weighted-medoid engine.
    """
    if isinstance(plan, RepresentativeSampling):
        from .representative import representative_stack_sweep

        return representative_stack_sweep(trace, job, plan)
    return _interval_sweep(trace, job, plan)


def _interval_info(
    plan: IntervalSampling,
    selection: SelectedIntervals,
    measured: int,
    replayed: int,
    total: int,
    estimates: tuple[Estimate, ...],
) -> SamplingInfo:
    return SamplingInfo(
        plan=plan.identity(),
        unit="interval",
        units_sampled=len(selection.intervals),
        units_total=selection.candidates,
        measured_references=measured,
        replayed_references=replayed,
        total_references=total,
        estimates=estimates,
    )


def sampled_associativity_sweep(
    trace: Trace, job: AssociativitySweepJob, plan: SamplingPlan
) -> SampledValue:
    """Estimate an :class:`AssociativitySweepJob` surface from samples.

    Under :class:`SetSampling` the kept set classes are simulated
    exactly and extrapolated across classes (grid cells with fewer sets
    than classes — fully associative rows included — are computed
    exactly on the full stream).  Under :class:`IntervalSampling` it
    runs the same per-window loop as :func:`sampled_stack_sweep`.

    The payload is the nested point-estimate surface; the info's
    estimates are flattened row-major over (ways, capacities).
    """
    if isinstance(plan, SetSampling):
        return _set_sampled_surface(trace, job, plan)
    if isinstance(plan, RepresentativeSampling):
        from .representative import representative_associativity_sweep

        return representative_associativity_sweep(trace, job, plan)
    return _interval_sweep(trace, job, plan)


def _set_sampled_surface(
    trace: Trace, job: AssociativitySweepJob, plan: SetSampling
) -> SampledValue:
    grid = _SweepGrid.of(job)
    groups, rows, cols = grid.groups, grid.rows, grid.cols
    compiled = trace.compiled(job.line_size)
    lines = compiled.lines
    total_lines = len(lines)
    classes = select_set_classes(plan)
    class_mask = plan.classes - 1
    class_streams = {c: lines[(lines & class_mask) == c] for c in classes}

    estimates: list[Estimate | None] = [None] * (rows * cols)
    sampled_line_refs = 0
    for num_sets, cells in groups.items():
        max_way = max(way for _i, _j, way in cells)
        if num_sets < plan.classes:
            # The class partition is coarser than the set mapping: the
            # kept classes would not be whole sets, so compute exactly.
            hits, total = all_associativity_hit_counts(lines, num_sets, max_way)
            for i, j, way in cells:
                value = (total - int(hits[way])) / total if total else float("nan")
                estimates[i * cols + j] = Estimate(value, value, value, plan.confidence)
            continue
        # Exact per-class hit counts; classes are unions of whole sets.
        class_misses = np.zeros((len(classes), len(cells)))
        class_refs = np.zeros(len(classes))
        for k, c in enumerate(classes):
            stream = class_streams[c]
            hits, total = all_associativity_hit_counts(stream, num_sets, max_way)
            class_refs[k] = total
            for m, (_i, _j, way) in enumerate(cells):
                class_misses[k, m] = total - int(hits[way])
        cell_estimates = ratio_estimates(
            class_misses,
            class_refs,
            confidence=plan.confidence,
            bootstrap=plan.bootstrap,
            seed=plan.seed + 1,
            clip=(0.0, 1.0),
        )
        for (i, j, _way), estimate in zip(cells, cell_estimates):
            estimates[i * cols + j] = estimate
    sampled_line_refs = int(sum(len(s) for s in class_streams.values()))

    surface = grid.value(job, estimates)
    # References are counted in trace terms for the info block; the set
    # filter keeps the same fraction of line references.
    total_refs = len(trace)
    fraction = sampled_line_refs / total_lines if total_lines else 0.0
    measured = int(round(fraction * total_refs))
    info = SamplingInfo(
        plan=plan.identity(),
        unit="set",
        units_sampled=len(classes),
        units_total=plan.classes,
        measured_references=measured,
        replayed_references=measured,
        total_references=total_refs,
        estimates=tuple(estimates),
    )
    return SampledValue(surface, info)


# -- sampled direct simulation -----------------------------------------------


@dataclass(frozen=True, slots=True)
class SampledStats:
    """Extrapolated statistics for one cache side of a sampled run.

    ``memory_traffic_bytes`` is scaled to the full trace, so traffic
    ratios and Table-4-style sums computed on sampled reports line up
    with full-run ones.
    """

    miss_ratio: float
    memory_traffic_bytes: int
    references: int


@dataclass(frozen=True, slots=True)
class SampledReport:
    """A :class:`~repro.core.simulator.SimulationReport` look-alike.

    Exposes the fields the analysis drivers consume (``miss_ratio``,
    ``overall/instruction/data`` with ``miss_ratio`` and
    ``memory_traffic_bytes``) with point estimates in place of exact
    counters.  The per-side miss ratios are class miss ratios
    (instruction = ifetch, data = read+write) for unified organizations
    too.  Intervals live on the cell's :class:`SamplingInfo`.
    """

    trace_name: str
    references: int
    purge_interval: int | None
    overall: SampledStats
    instruction: SampledStats
    data: SampledStats

    @property
    def miss_ratio(self) -> float:
        return self.overall.miss_ratio

    @property
    def instruction_miss_ratio(self) -> float:
        return self.instruction.miss_ratio

    @property
    def data_miss_ratio(self) -> float:
        return self.data.miss_ratio


def _sampled_total(trace: Trace, job: SimulateJob) -> int:
    """References a sampled :class:`SimulateJob` stands for.

    Raises:
        ValueError: if the job itself requests warmup (compose the plan's
            warmup instead).
    """
    if job.warmup:
        raise ValueError(
            "sampled SimulateJob cells must not set job.warmup; "
            "use the plan's warmup_fraction instead"
        )
    return len(trace) if job.limit is None else min(job.limit, len(trace))


class _WindowRows:
    """What a sampled simulation reads from each window's report.

    ``misses`` and ``references`` hold the (overall, ifetch, data) class
    counts, ``traffic`` the (overall, instruction, data) memory-traffic
    bytes, and ``window_refs`` the window's trace references.
    """

    def __init__(self, units: int) -> None:
        self.misses = np.zeros((units, 3))
        self.references = np.zeros((units, 3))
        self.traffic = np.zeros((units, 3))
        self.window_refs = np.zeros(units)

    def read(self, w: int, report, interval: Interval) -> None:
        overall = report.overall
        self.misses[w] = (
            overall.misses,
            overall.ifetch.misses,
            overall.read.misses + overall.write.misses,
        )
        self.references[w] = (
            overall.references,
            overall.ifetch.references,
            overall.read.references + overall.write.references,
        )
        self.traffic[w] = (
            report.overall.memory_traffic_bytes,
            report.instruction.memory_traffic_bytes,
            report.data.memory_traffic_bytes,
        )
        self.window_refs[w] = interval.stop - interval.start


def _replay_windows(
    trace: Trace, job: SimulateJob, intervals: tuple[Interval, ...], warm: int
) -> _WindowRows:
    """Replay each window through a fresh organization after a discarded
    prefix of up to ``warm`` references (``simulate``'s own warmup
    machinery).  The purge clock restarts at the prefix start, a
    documented approximation."""
    rows = _WindowRows(len(intervals))
    for w, iv in enumerate(intervals):
        warm_start = max(0, iv.start - warm)
        report = simulate(
            trace[warm_start : iv.stop],
            job.build_organization(),
            purge_interval=job.purge_interval,
            warmup=iv.start - warm_start,
            engine=job.engine,
        )
        rows.read(w, report, iv)
    return rows


def _sampled_report(
    trace: Trace,
    job: SimulateJob,
    total: int,
    estimates: list[Estimate],
    class_fraction: np.ndarray,
) -> SampledReport:
    """The :class:`SampledReport` of a sampled simulation.

    ``estimates`` are the (overall, instruction, data) miss ratios then
    traffic bytes per reference; ``class_fraction`` is each side's share
    of the references.  Traffic and side references are scaled to
    ``total``; an unobserved (NaN) quantity scales to 0.
    """

    def scaled(share: float) -> int:
        return int(round(share * total)) if np.isfinite(share) else 0

    sides = [
        SampledStats(
            miss_ratio=estimates[column].value,
            memory_traffic_bytes=scaled(estimates[3 + column].value),
            references=total if column == 0 else scaled(class_fraction[column]),
        )
        for column in range(3)
    ]
    return SampledReport(
        trace_name=trace.metadata.name,
        references=total,
        purge_interval=job.purge_interval,
        overall=sides[0],
        instruction=sides[1],
        data=sides[2],
    )


def sampled_simulate(
    trace: Trace, job: SimulateJob, plan: IntervalSampling | RepresentativeSampling
) -> SampledValue:
    """Estimate a :class:`SimulateJob`'s report from sampled windows.

    Each window is replayed through a fresh organization after a
    discarded warm prefix (``simulate``'s own warmup machinery).  The
    window's purge clock restarts at its (warm) start, a documented
    approximation.  The payload is a :class:`SampledReport`; the info's
    estimates are ordered (overall, instruction, data) miss ratios then
    (overall, instruction, data) traffic bytes/reference.

    Raises:
        ValueError: if the job itself requests warmup (compose the plan's
            warmup instead).
    """
    if isinstance(plan, RepresentativeSampling):
        from .representative import representative_simulate

        return representative_simulate(trace, job, plan)
    total = _sampled_total(trace, job)
    selection = select_intervals(plan, total)
    intervals = selection.intervals
    measured = sum(iv.stop - iv.start for iv in intervals)
    warm = plan.warmup_references
    rows = _replay_windows(trace, job, intervals, warm)
    # Cold-start bounds in lines per window, from the line stream
    # (rigorous for LRU demand fetch; a heuristic otherwise — see
    # docs/sampling.md).
    over = np.zeros(len(intervals))
    compiled = trace.compiled(job.line_size)
    lines, positions = compiled.lines, compiled.positions
    replayed = 0
    for w, iv in enumerate(intervals):
        warm_start = max(0, iv.start - warm)
        replayed += iv.stop - warm_start
        if warm_start > 0:
            plo, lo, hi = (
                int(b)
                for b in np.searchsorted(
                    positions, [warm_start, iv.start, iv.stop], side="left"
                )
            )
            over[w] = len(np.setdiff1d(np.unique(lines[lo:hi]), lines[plo:lo]))

    # Each possibly spurious miss is priced at two lines of traffic (a
    # fetch and a write-back).
    line_traffic = 2 * job.line_size
    estimates: list[Estimate] = []
    for column in range(6):
        side = column % 3
        if column < 3:
            numerators, denominators = rows.misses[:, side], rows.references[:, side]
            up, clip = over, (0.0, 1.0)
        else:
            numerators, denominators = rows.traffic[:, side], rows.window_refs
            up, clip = over * line_traffic, (0.0, None)
        estimates.extend(
            ratio_estimates(
                numerators,
                denominators,
                expansion=selection.expansion,
                bias_up=(selection.expansion * up).sum(),
                confidence=plan.confidence,
                bootstrap=plan.bootstrap,
                seed=plan.seed + 1 + column,
                clip=clip,
            )
        )
    class_fraction = rows.references.sum(axis=0) / max(1.0, rows.window_refs.sum())
    report = _sampled_report(trace, job, total, estimates, class_fraction)
    info = _interval_info(plan, selection, measured, replayed, total, tuple(estimates))
    return SampledValue(report, info)


# -- dispatch + calibration --------------------------------------------------


def _run_once(trace: Trace, job, plan: SamplingPlan) -> SampledValue:
    if isinstance(plan, SetSampling):
        if not isinstance(job, AssociativitySweepJob):
            raise ValueError(
                "set sampling applies to AssociativitySweepJob cells only "
                "(fully associative sweeps have a single set); use an "
                "IntervalSampling plan instead"
            )
        return sampled_associativity_sweep(trace, job, plan)
    if isinstance(job, StackSweepJob):
        return sampled_stack_sweep(trace, job, plan)
    if isinstance(job, AssociativitySweepJob):
        return sampled_associativity_sweep(trace, job, plan)
    if isinstance(job, SimulateJob):
        return sampled_simulate(trace, job, plan)
    raise ValueError(f"cannot sample a {type(job).__name__}")


def _budget_metric(estimates: tuple[Estimate, ...]) -> float:
    """Worst CI half-width relative to ``max(estimate, floor)``."""
    if not estimates:
        return 0.0
    return max(e.half_width / max(abs(e.value), _BUDGET_FLOOR) for e in estimates)


def run_sampled(trace: Trace, job, plan: SamplingPlan) -> SampledValue:
    """Execute a job under a sampling plan, calibrating if asked.

    With ``target_rel_err`` set on an :class:`IntervalSampling` plan, the
    sample fraction grows geometrically until every metric's CI
    half-width is within the budget of ``max(estimate, 1e-3)`` (the
    floor keeps near-zero cells from demanding impossible precision),
    the fraction hits ``max_fraction``, or every candidate window is
    already sampled.  The returned info reports the rounds taken, the
    cumulative replayed references, and whether the budget was met.
    """
    if getattr(plan, "target_rel_err", None) is None:
        # Set and representative plans have no fraction to grow; interval
        # plans without a budget run exactly once.
        return _run_once(trace, job, plan)

    current = plan
    rounds = 0
    replayed_total = 0
    while True:
        rounds += 1
        value = _run_once(trace, job, current)
        replayed_total += value.info.replayed_references
        met = _budget_metric(value.info.estimates) <= plan.target_rel_err
        exhausted = (
            current.fraction >= current.max_fraction
            or value.info.units_sampled >= value.info.units_total
        )
        if met or exhausted:
            break
        current = current.grown()
    info = replace(
        value.info,
        calibration_rounds=rounds,
        target_met=met,
        replayed_references=replayed_total,
    )
    return SampledValue(value.value, info)
