"""Estimation machinery for sampled simulation.

The quantity of interest is almost always a **ratio of totals** — misses
over references, traffic bytes over references — so the estimator is the
classic ratio estimator with expansion weights: each sampled unit (window
or set class) is weighted by how many units it stands for, and the
estimate is ``sum(w * numerator) / sum(w * denominator)``.

Uncertainty is quantified two ways, and the reported interval is the
union of both:

* **Sampling noise** — a seeded bootstrap over the sampled units
  (resampling the units with replacement) gives percentile intervals,
  widened by a small-sample t/z factor because percentile intervals
  under-cover at the handful-of-windows scale.
* **Warm-start bias** — interval sampling cannot know whether a sampled
  window's cold references would have hit on state built before the
  window.  For LRU that error is one-sided and boundable (a warmed
  prefix of the true LRU stack only *overcounts* misses, by at most the
  number of in-window cold references not covered by the warm prefix),
  so the engine passes explicit bias bounds and the interval is widened
  by them deterministically rather than probabilistically.

Everything is seeded and deterministic: the same plan over the same
trace yields the same estimate and interval on any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Estimate",
    "SamplingInfo",
    "SampledValue",
    "ratio_estimates",
    "representative_estimates",
]

#: Two-sided 97.5% Student-t quantiles by degrees of freedom; the
#: bootstrap interval is widened by ``t / 1.96`` to correct percentile
#: under-coverage with few sampled units.  (Exact for 95% confidence,
#: a close approximation for nearby levels.)
_T95 = {
    1: 12.71, 2: 4.30, 3: 3.18, 4: 2.78, 5: 2.57, 6: 2.45, 7: 2.36,
    8: 2.31, 9: 2.26, 10: 2.23, 11: 2.20, 12: 2.18, 13: 2.16, 14: 2.14,
    15: 2.13, 16: 2.12, 17: 2.11, 18: 2.10, 19: 2.09, 20: 2.09,
}


def _small_sample_factor(units: int) -> float:
    """Widening factor for the bootstrap interval (t over z)."""
    df = max(1, units - 1)
    if df > 20:
        return 1.0
    return _T95[df] / 1.96


@dataclass(frozen=True)
class Estimate:
    """A point estimate with its confidence interval.

    ``ci_low == ci_high == value`` marks an exact (unsampled or fully
    covered) quantity.
    """

    value: float
    ci_low: float
    ci_high: float
    confidence: float = 0.95

    @property
    def half_width(self) -> float:
        """Half the interval width (the "±" the CLI prints)."""
        return (self.ci_high - self.ci_low) / 2.0

    @property
    def relative_half_width(self) -> float:
        """Half-width over the estimate (the calibration budget's metric).

        Zero for an exact estimate; also zero when the estimate itself is
        zero with a degenerate interval.
        """
        if self.half_width == 0.0:
            return 0.0
        return self.half_width / max(abs(self.value), 1e-12)

    def contains(self, truth: float, slack: float = 0.0) -> bool:
        """Whether ``truth`` falls inside the interval (± ``slack``)."""
        return self.ci_low - slack <= truth <= self.ci_high + slack

    def __str__(self) -> str:
        return f"{self.value:.4f} ± {self.half_width:.4f}"


@dataclass(frozen=True)
class SamplingInfo:
    """How a sampled value was produced (recorded on the cell outcome).

    Attributes:
        plan: the plan's JSON-able identity.
        unit: ``"interval"`` or ``"set"``.
        units_sampled / units_total: sampled vs available units.
        measured_references: references whose statistics were measured.
        replayed_references: measured plus warmup replays (the work
            actually done — the speedup denominator).
        total_references: full-trace references the estimate stands for.
        estimates: per-metric estimates, aligned with the job's value
            (per capacity for sweeps, flattened row-major for surfaces,
            (overall, instruction, data) miss ratios for simulations).
        calibration_rounds: sampling passes run (1 = no calibration).
        target_met: whether the error budget was met (None = no budget).
    """

    plan: dict
    unit: str
    units_sampled: int
    units_total: int
    measured_references: int
    replayed_references: int
    total_references: int
    estimates: tuple[Estimate, ...]
    calibration_rounds: int = 1
    target_met: bool | None = None

    @property
    def sampled_fraction(self) -> float:
        """Measured references as a fraction of the full trace."""
        if self.total_references == 0:
            return 0.0
        return self.measured_references / self.total_references

    @property
    def worst_relative_half_width(self) -> float:
        """The largest relative CI half-width across metrics."""
        if not self.estimates:
            return 0.0
        return max(e.relative_half_width for e in self.estimates)


@dataclass(frozen=True)
class SampledValue:
    """What a :class:`~repro.sampling.jobs.SampledJob` returns.

    ``value`` mimics the wrapped job's payload shape (point estimates in
    place of exact numbers) so positional consumers — the analysis
    drivers, the CLI tables — work unchanged; ``info`` carries the
    intervals.  ``unwrap_for_cell`` is the duck-typed hook
    :func:`repro.core.jobs.run_cell` uses to split the two without the
    core layer importing this package.
    """

    value: object
    info: SamplingInfo

    def unwrap_for_cell(self) -> tuple[object, SamplingInfo]:
        """``(payload, sampling info)`` for the campaign cell result."""
        return self.value, self.info


def ratio_estimates(
    numerators: np.ndarray,
    denominators: np.ndarray,
    *,
    expansion: np.ndarray | None = None,
    bias_up: np.ndarray | float = 0.0,
    confidence: float = 0.95,
    bootstrap: int = 200,
    seed: int = 0,
    clip: tuple[float | None, float | None] = (0.0, None),
) -> list[Estimate]:
    """Ratio estimates with bootstrap + bias-bound intervals.

    Args:
        numerators: shape ``(units, metrics)`` (or ``(units,)`` for one
            metric) — e.g. misses per sampled window per capacity.
        denominators: shape ``(units,)`` — e.g. references per window.
        expansion: per-unit expansion weights (default: all ones).
        bias_up: per-metric bound on how much the sampled totals may
            *overcount* the truth (in numerator units); widens the lower
            interval edge.
        confidence: interval confidence level.
        bootstrap: bootstrap replicates (0 disables; the interval is then
            the bias bounds alone).
        seed: bootstrap seed.
        clip: final (low, high) clamp for the interval edges — ``(0, 1)``
            for miss ratios, ``(0, None)`` for traffic.

    Returns:
        One :class:`Estimate` per metric column.  Units with zero
        denominator contribute nothing (a zero-reference unit simply
        carries no weight); if *every* unit is empty the estimate is NaN —
        an unobserved ratio is unknown, not zero.
    """
    numerators = np.asarray(numerators, dtype=float)
    if numerators.ndim == 1:
        numerators = numerators[:, None]
    units, metrics = numerators.shape
    denominators = np.asarray(denominators, dtype=float).reshape(units)
    weights = (
        np.ones(units) if expansion is None else np.asarray(expansion, dtype=float)
    )
    bias_up = np.broadcast_to(np.asarray(bias_up, dtype=float), (metrics,))

    weighted_num = weights[:, None] * numerators
    weighted_den = weights * denominators
    total_num = weighted_num.sum(axis=0)
    total_den = float(weighted_den.sum())
    if total_den <= 0:
        # A ratio with no observed denominator is unknown, not zero (the
        # same NaN convention as StackDistanceProfile.miss_ratio).
        nan = float("nan")
        return [Estimate(nan, nan, nan, confidence)] * metrics
    values = total_num / total_den

    if bootstrap > 0 and units > 1:
        rng = np.random.default_rng(seed)
        draws = rng.integers(0, units, size=(bootstrap, units))
        boot_num = weighted_num[draws].sum(axis=1)
        boot_den = weighted_den[draws].sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(boot_den[:, None] > 0, boot_num / np.maximum(boot_den[:, None], 1e-300), 0.0)
        tail = (1.0 - confidence) / 2.0
        low = np.quantile(ratios, tail, axis=0)
        high = np.quantile(ratios, 1.0 - tail, axis=0)
        # Percentile intervals under-cover with few units; widen by t/z
        # around the point estimate.
        factor = _small_sample_factor(units)
        low = values - (values - np.minimum(low, values)) * factor
        high = values + (np.maximum(high, values) - values) * factor
    else:
        low = values.copy()
        high = values.copy()

    # Deterministic widening by the warm-start bias bound (ratio units).
    low = low - bias_up / total_den

    lo_clip, hi_clip = clip
    if lo_clip is not None:
        low = np.maximum(low, lo_clip)
    if hi_clip is not None:
        high = np.minimum(high, hi_clip)
    low = np.minimum(low, values)
    high = np.maximum(high, values)

    return [
        Estimate(float(v), float(lo), float(hi), confidence)
        for v, lo, hi in zip(values, low, high)
    ]


def representative_estimates(
    medoid_numerators: np.ndarray,
    medoid_denominators: np.ndarray,
    weights: np.ndarray,
    *,
    proxy_numerators: np.ndarray | None = None,
    proxy_denominators: np.ndarray | None = None,
    labels: np.ndarray | None = None,
    bias_up: np.ndarray | float = 0.0,
    confidence: float = 0.95,
    clip: tuple[float | None, float | None] = (0.0, 1.0),
) -> list[Estimate]:
    """Weighted-medoid estimates with a deterministic proxy bracket.

    The point estimate is the population-weighted ratio of the medoid
    windows' totals, ``sum(w_c num_c) / sum(w_c den_c)`` — the SimPoint
    estimator with cluster sizes as weights.  Its interval is the union
    of two deterministic bounds (no bootstrap — a medoid per cluster
    offers no resampling distribution):

    * **Proxy bracket.**  The caller's windowed profile yields, for
      *every* candidate window, prefix-warmed totals that can only
      overcount the truth, by at most ``bias_up`` in numerator units.
      The full-profile proxy ratio therefore brackets the truth in
      ``[proxy - bias_up / total_proxy_den, proxy]`` (rigorous for LRU
      demand misses; a heuristic otherwise), and the interval is the
      convex hull of the medoid estimate and this bracket.
    * **Within-cluster spread.**  The per-window proxy ratios measure
      how behaviorally tight each cluster is; the hull is widened by
      ``sqrt(sum(share_c^2 var_c))`` — the error a medoid displaced
      from its cluster mean could contribute.

    Args:
        medoid_numerators: shape ``(clusters, metrics)`` (or 1-D for a
            single metric) — the medoid windows' measured totals.
        medoid_denominators: shape ``(clusters,)``.
        weights: cluster populations, aligned with the medoids.
        proxy_numerators / proxy_denominators: per-candidate-window
            prefix-warmed totals (``(windows, metrics)`` / ``(windows,)``);
            omit both to degenerate to the point estimate.
        labels: cluster index per candidate window (for the spread term).
        bias_up: per-metric overcount bound on the proxy totals.
        confidence: nominal confidence recorded on the estimates.
        clip: final (low, high) clamp for the interval edges.

    Returns:
        One :class:`Estimate` per metric column; NaN when the weighted
        denominator is zero (an unobserved ratio is unknown, not zero).
    """
    medoid_numerators = np.asarray(medoid_numerators, dtype=float)
    if medoid_numerators.ndim == 1:
        medoid_numerators = medoid_numerators[:, None]
    clusters, metrics = medoid_numerators.shape
    medoid_denominators = np.asarray(medoid_denominators, dtype=float).reshape(clusters)
    weights = np.asarray(weights, dtype=float).reshape(clusters)
    total_den = float((weights * medoid_denominators).sum())
    if total_den <= 0:
        nan = float("nan")
        return [Estimate(nan, nan, nan, confidence)] * metrics
    values = (weights[:, None] * medoid_numerators).sum(axis=0) / total_den

    low = values.copy()
    high = values.copy()
    if proxy_numerators is not None and proxy_denominators is not None:
        proxy_numerators = np.asarray(proxy_numerators, dtype=float)
        if proxy_numerators.ndim == 1:
            proxy_numerators = proxy_numerators[:, None]
        windows = len(proxy_numerators)
        proxy_denominators = np.asarray(proxy_denominators, dtype=float).reshape(windows)
        proxy_den = float(proxy_denominators.sum())
        if proxy_den > 0:
            proxy = proxy_numerators.sum(axis=0) / proxy_den
            up = np.broadcast_to(np.asarray(bias_up, dtype=float), (metrics,))
            low = np.minimum(values, proxy - up / proxy_den)
            high = np.maximum(values, proxy)
            if labels is not None and windows > 1:
                labels = np.asarray(labels, dtype=np.int64).reshape(windows)
                observed = proxy_denominators > 0
                with np.errstate(divide="ignore", invalid="ignore"):
                    ratios = proxy_numerators / np.maximum(
                        proxy_denominators[:, None], 1e-300
                    )
                shares = weights / weights.sum()
                spread_sq = np.zeros(metrics)
                for cluster in range(clusters):
                    members = ratios[(labels == cluster) & observed]
                    if len(members) > 1:
                        spread_sq += shares[cluster] ** 2 * members.var(axis=0)
                spread = np.sqrt(spread_sq)
                low = low - spread
                high = high + spread

    lo_clip, hi_clip = clip
    if lo_clip is not None:
        low = np.maximum(low, lo_clip)
    if hi_clip is not None:
        high = np.minimum(high, hi_clip)
    low = np.minimum(low, values)
    high = np.maximum(high, values)
    return [
        Estimate(float(v), float(lo), float(hi), confidence)
        for v, lo, hi in zip(values, low, high)
    ]
