"""Sampling plans: *which* fraction of the work a sampled run performs.

Two orthogonal families are supported, mirroring the two classic ways of
shrinking a trace-driven cache study:

* **Interval (time) sampling** (:class:`IntervalSampling`) — simulate only
  evenly spaced windows of the reference stream (with a seeded phase),
  each after a discarded warm prefix, and extrapolate.
* **Set sampling** (:class:`SetSampling`) — simulate only a hash-selected
  subset of cache sets.  Because the engine's set mapping is bit selection
  (``line & (num_sets - 1)``), keeping the lines whose low ``bits`` address
  bits fall in a chosen class selects *exactly* ``keep / 2**bits`` of the
  sets of every geometry with at least ``2**bits`` sets, and the kept
  sets' reference streams are exact — no warmup bias at all.

A third plan, :class:`RepresentativeSampling`, chooses windows by program
phase, the representativeness idea of Bueno et al.: cluster *all*
candidate windows by a behavioral signature (per-window reference-mix
features from :mod:`repro.trace.characteristics` plus stack-distance
statistics) and simulate only the medoid window of each cluster, weighted
by cluster population (see :mod:`repro.sampling.representative`).

All plans are frozen, picklable, and expose :meth:`identity` so a sampled
campaign cell keys the result cache on the plan as well as the work.
All randomness is drawn from ``numpy`` generators seeded by the plan, so a
sampled campaign is bit-identical across runs and worker counts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Union

import numpy as np

from ..trace.stream import Trace

__all__ = [
    "Interval",
    "IntervalSampling",
    "RepresentativeSampling",
    "SetSampling",
    "SamplingPlan",
    "SelectedIntervals",
    "kmeans",
    "select_intervals",
    "select_set_classes",
    "window_mix_features",
]

@dataclass(frozen=True)
class IntervalSampling:
    """An interval (time) sampling plan.

    Windows are evenly spaced with a seeded phase, and each is measured
    after replaying a discarded warm prefix of ``warmup_fraction * window``
    references (0 means a cold start; the bias bound then widens the
    interval instead).

    Attributes:
        fraction: target fraction of the trace's references to *measure*
            (warmup replays come on top; see ``warmup_fraction``).
        window: references per sampled window.
        warmup_fraction: warm-prefix length as a fraction of the window.
        seed: base seed for the window phase and the bootstrap.
        confidence: CI confidence level (default 95%).
        bootstrap: bootstrap replicates for the CI (0 = point estimate
            with a bias-bound-only interval).
        target_rel_err: if set, :func:`repro.sampling.run_sampled` grows
            the fraction (by ``growth``, up to ``max_fraction``) until the
            worst relative CI half-width fits this budget.
        max_fraction: calibration ceiling on ``fraction``.
        growth: multiplicative calibration step.

    Raises:
        ValueError: for a non-positive/overlarge fraction, a non-positive
            window, or any other out-of-range parameter.
    """

    fraction: float = 0.1
    window: int = 2000
    warmup_fraction: float = 0.5
    seed: int = 0
    confidence: float = 0.95
    bootstrap: int = 200
    target_rel_err: float | None = None
    max_fraction: float = 0.5
    growth: float = 1.6

    def __post_init__(self) -> None:
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError(
                f"fraction must be in (0, 1], got {self.fraction} "
                "(an empty sampling plan measures nothing)"
            )
        if self.window <= 0:
            raise ValueError(f"window must be positive, got {self.window}")
        if self.warmup_fraction < 0:
            raise ValueError(
                f"warmup_fraction must be non-negative, got {self.warmup_fraction}"
            )
        if not 0.0 < self.confidence < 1.0:
            raise ValueError(f"confidence must be in (0, 1), got {self.confidence}")
        if self.bootstrap < 0:
            raise ValueError(f"bootstrap must be non-negative, got {self.bootstrap}")
        if self.target_rel_err is not None and self.target_rel_err <= 0:
            raise ValueError(
                f"target_rel_err must be positive, got {self.target_rel_err}"
            )
        if not self.fraction <= self.max_fraction <= 1.0:
            raise ValueError(
                f"need fraction <= max_fraction <= 1, got "
                f"{self.fraction}/{self.max_fraction}"
            )
        if self.growth <= 1.0:
            raise ValueError(f"growth must exceed 1, got {self.growth}")

    @property
    def warmup_references(self) -> int:
        """Warm prefix per window in references."""
        return int(round(self.window * self.warmup_fraction))

    def grown(self, factor: float | None = None) -> "IntervalSampling":
        """The next calibration step: same plan, a larger fraction."""
        factor = self.growth if factor is None else factor
        return replace(self, fraction=min(self.max_fraction, self.fraction * factor))

    def identity(self) -> dict:
        """JSON-able identity (enters the campaign cache key)."""
        return {
            "plan": "interval",
            "fraction": self.fraction,
            "window": self.window,
            "warmup_fraction": self.warmup_fraction,
            "seed": self.seed,
            "confidence": self.confidence,
            "bootstrap": self.bootstrap,
            "target_rel_err": self.target_rel_err,
            "max_fraction": self.max_fraction,
            "growth": self.growth,
        }


@dataclass(frozen=True)
class SetSampling:
    """A set-sampling plan: simulate ``keep`` of ``2**bits`` set classes.

    Lines are partitioned by their low ``bits`` address bits (the same
    bits the engine's set mapping uses), and only the lines of ``keep``
    seeded-randomly chosen classes are simulated.  For any geometry with
    at least ``2**bits`` sets the kept classes are a union of whole sets,
    so their per-set streams — and hence their hit counts — are **exact**;
    the only error is extrapolating from the kept sets to the rest, which
    the bootstrap over classes quantifies.  Geometries with fewer sets
    (including fully associative rows) are computed exactly on the full
    stream instead.

    Attributes:
        bits: low address bits defining ``2**bits`` classes.
        keep: classes simulated.  With ``keep=1`` there is no cross-class
            variance information, so the reported CI collapses to the
            point estimate; ``keep=2`` gives the bootstrap too little of
            it and under-covers, so the default keeps half the classes.
        seed: class-choice and bootstrap seed.
        confidence: CI confidence level.
        bootstrap: bootstrap replicates over classes.
    """

    bits: int = 3
    keep: int = 4
    seed: int = 0
    confidence: float = 0.95
    bootstrap: int = 200

    def __post_init__(self) -> None:
        if self.bits <= 0:
            raise ValueError(f"bits must be positive, got {self.bits}")
        if not 0 < self.keep <= 2**self.bits:
            raise ValueError(
                f"keep must be in 1..2**bits={2**self.bits}, got {self.keep} "
                "(an empty sampling plan measures nothing)"
            )
        if not 0.0 < self.confidence < 1.0:
            raise ValueError(f"confidence must be in (0, 1), got {self.confidence}")
        if self.bootstrap < 0:
            raise ValueError(f"bootstrap must be non-negative, got {self.bootstrap}")

    @property
    def classes(self) -> int:
        """Total number of set classes (``2**bits``)."""
        return 2**self.bits

    def identity(self) -> dict:
        """JSON-able identity (enters the campaign cache key)."""
        return {
            "plan": "set",
            "bits": self.bits,
            "keep": self.keep,
            "seed": self.seed,
            "confidence": self.confidence,
            "bootstrap": self.bootstrap,
        }


@dataclass(frozen=True)
class RepresentativeSampling:
    """A representative-interval plan (SimPoint-style, per Bueno et al.).

    Instead of *sampling* windows, cluster all candidate windows by a
    behavioral signature — reference mix, branch fraction,
    within-window footprint, footprint growth, and a log-bucketed
    stack-distance sketch — and simulate only the **medoid** window of each
    cluster, weighting its contribution by the cluster population.  The
    one-time signature pass per trace is amortized across every cache
    configuration simulated against that trace; the marginal cost of one
    more configuration is a handful of windows.

    See :mod:`repro.sampling.representative` for the machinery and
    :func:`repro.sampling.estimators.representative_estimates` for the
    error-bound semantics.

    Attributes:
        clusters: behavioral clusters, i.e. representative windows
            simulated (fewer when the trace offers fewer candidates).
        window: references per candidate window.
        seed: k-means seeding — the only randomness; selection is
            bit-identical across runs and worker counts.
        confidence: nominal confidence carried into the reported
            estimates.
        iterations: Lloyd iterations for the signature clustering.
    """

    clusters: int = 8
    window: int = 2000
    seed: int = 0
    confidence: float = 0.95
    iterations: int = 25

    def __post_init__(self) -> None:
        if self.clusters <= 0:
            raise ValueError(f"clusters must be positive, got {self.clusters}")
        if self.window <= 0:
            raise ValueError(f"window must be positive, got {self.window}")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError(f"confidence must be in (0, 1), got {self.confidence}")
        if self.iterations <= 0:
            raise ValueError(f"iterations must be positive, got {self.iterations}")

    def identity(self) -> dict:
        """JSON-able identity (enters the campaign cache key)."""
        return {
            "plan": "representative",
            "clusters": self.clusters,
            "window": self.window,
            "seed": self.seed,
            "confidence": self.confidence,
            "iterations": self.iterations,
        }


SamplingPlan = Union[IntervalSampling, SetSampling, RepresentativeSampling]


@dataclass(frozen=True)
class Interval:
    """One sampled window: trace references ``[start, stop)``."""

    start: int
    stop: int


@dataclass(frozen=True)
class SelectedIntervals:
    """The concrete windows an :class:`IntervalSampling` plan picked.

    Attributes:
        intervals: the sampled windows, ascending by start.
        expansion: per-interval expansion factor ``N / k`` (candidate
            windows over sampled windows) — the ratio estimator's weights.
        candidates: total candidate windows the trace offered.
    """

    intervals: tuple[Interval, ...]
    expansion: np.ndarray
    candidates: int


def select_set_classes(plan: SetSampling) -> tuple[int, ...]:
    """The ``keep`` class ids (of ``2**bits``) this plan simulates."""
    rng = np.random.default_rng(plan.seed)
    chosen = rng.choice(plan.classes, size=plan.keep, replace=False)
    return tuple(sorted(int(c) for c in chosen))


def _standardize(features: np.ndarray) -> np.ndarray:
    """Center and scale feature columns; constant columns stay zero."""
    center = features - features.mean(axis=0)
    scale = features.std(axis=0)
    scale[scale == 0] = 1.0
    return center / scale


def window_mix_features(trace: Trace, candidates: int, window: int) -> np.ndarray:
    """Raw reference-mix features, one row per candidate window.

    The same observable "phase" signature as
    :func:`repro.trace.characteristics.characterize` — kind fractions,
    branch fraction, and footprint bytes per reference — but computed for
    all windows in one vectorized sweep instead of per-window slicing.
    These are the first columns of the representative signatures
    (:func:`repro.sampling.representative.window_signatures`).  Columns:
    ifetch, read, write fractions; branch fraction; footprint bytes per
    reference.
    """
    from ..trace.characteristics import BRANCH_WINDOW_BYTES, FOOTPRINT_LINE_SIZE
    from ..trace.record import AccessKind

    limit = min(len(trace), candidates * window)
    kinds = trace.kinds[:limit]
    win = np.arange(limit, dtype=np.int64) // window
    lengths = np.bincount(win, minlength=candidates).astype(float)
    lengths[lengths == 0] = 1.0

    mix = np.zeros((candidates, 3), dtype=float)
    for column, kind in enumerate((AccessKind.IFETCH, AccessKind.READ, AccessKind.WRITE)):
        mix[:, column] = np.bincount(win[kinds == int(kind)], minlength=candidates)
    mix /= lengths[:, None]

    # Branch heuristic over consecutive same-window ifetch pairs — exactly
    # the pairs a per-window slice would see.
    ifetch = np.nonzero(kinds == int(AccessKind.IFETCH))[0]
    branch = np.zeros(candidates, dtype=float)
    if len(ifetch) >= 2:
        first = win[ifetch[:-1]]
        same = first == win[ifetch[1:]]
        delta = np.diff(trace.addresses[:limit][ifetch])
        taken = same & ((delta < 0) | (delta > BRANCH_WINDOW_BYTES))
        pairs = np.bincount(first[same], minlength=candidates).astype(float)
        counts = np.bincount(first[taken], minlength=candidates).astype(float)
        branch = np.divide(
            counts, pairs, out=np.zeros(candidates, dtype=float), where=pairs > 0
        )

    # Footprint bytes per reference: distinct (line, code/data/fetch) pairs
    # per window over the compiled line stream, matching how
    # ``characterize`` counts instruction and data lines separately.
    compiled = trace.compiled(FOOTPRINT_LINE_SIZE)
    inside = compiled.positions < limit
    line_win = compiled.positions[inside] // window
    line_kind = compiled.kinds[inside]
    group = np.where(
        line_kind == int(AccessKind.IFETCH),
        0,
        np.where(line_kind == int(AccessKind.FETCH), 2, 1),
    )
    key = compiled.lines[inside] * 3 + group
    order = np.lexsort((key, line_win))
    sorted_win = line_win[order]
    sorted_key = key[order]
    fresh = np.ones(len(sorted_key), dtype=bool)
    fresh[1:] = (sorted_key[1:] != sorted_key[:-1]) | (sorted_win[1:] != sorted_win[:-1])
    footprint = np.bincount(sorted_win[fresh], minlength=candidates).astype(float)
    density = footprint * FOOTPRINT_LINE_SIZE / lengths

    return np.column_stack([mix, branch, density])


def kmeans(
    features: np.ndarray, clusters: int, rng: np.random.Generator, iterations: int = 10
) -> tuple[np.ndarray, np.ndarray]:
    """Seeded Lloyd iterations returning ``(labels, centers)``.

    Deterministic for a given generator state: ties in the assignment step
    break toward the lower cluster index, and all randomness comes from
    ``rng``.  A cluster left empty by an assignment step is reseeded with
    the point currently farthest from its assigned center (the point is
    *moved*, not copied), so duplicate-heavy inputs still spread across
    clusters instead of collapsing onto one center.  ``clusters`` is
    clamped to the number of points.
    """
    features = np.asarray(features, dtype=float)
    n = len(features)
    if n == 0:
        return np.empty(0, dtype=np.int64), features.copy()
    clusters = max(1, min(clusters, n))
    centers = features[rng.choice(n, size=clusters, replace=False)].copy()
    labels = np.zeros(n, dtype=np.int64)
    for _ in range(iterations):
        squared = ((features[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        labels = squared.argmin(axis=1)
        nearest = squared[np.arange(n), labels]
        for c in range(clusters):
            members = labels == c
            if members.any():
                centers[c] = features[members].mean(axis=0)
            else:
                farthest = int(np.argmax(nearest))
                centers[c] = features[farthest]
                labels[farthest] = c
                nearest[farthest] = 0.0
    return labels, centers


def select_intervals(plan: IntervalSampling, total: int) -> SelectedIntervals:
    """Choose the windows of ``total`` references this plan measures.

    Returns:
        The selected windows with their estimator weights.  A trace
        shorter than one window yields a single whole-trace interval
        (the estimate is then exact); an empty trace yields no intervals.
    """
    if total <= 0:
        return SelectedIntervals((), np.empty(0, dtype=float), 0)
    candidates = total // plan.window
    if candidates <= 1:
        # Window covers the trace (or all but a tail shorter than one
        # window): sample everything — the estimator degenerates to the
        # exact full-trace value.
        return SelectedIntervals(
            (Interval(0, total),), np.ones(1, dtype=float), max(1, candidates)
        )

    count = min(candidates, max(1, int(round(plan.fraction * candidates))))
    stride = candidates / count
    phase = float(np.random.default_rng(plan.seed).uniform(0.0, stride))
    chosen = np.floor(phase + stride * np.arange(count)).astype(np.int64)
    chosen = np.minimum(chosen, candidates - 1)
    intervals = tuple(
        Interval(int(c) * plan.window, int(c) * plan.window + plan.window)
        for c in chosen.tolist()
    )
    return SelectedIntervals(
        intervals, np.full(count, candidates / count, dtype=float), candidates
    )
