"""Statistical trace sampling: estimate full-trace metrics from a fraction.

The subsystem has four layers (see ``docs/sampling.md``):

* :mod:`~repro.sampling.plans` — *what to sample*:
  :class:`IntervalSampling` (evenly spaced windows, each after a
  discarded warm prefix),
  :class:`SetSampling` (a hash-selected subset of cache sets, exact per
  kept set), and
  :class:`RepresentativeSampling` (one weighted medoid window per
  behavioral cluster, SimPoint-style).
* :mod:`~repro.sampling.engine` / :mod:`~repro.sampling.representative`
  — *how to run it*: exact per-window, per-set stack-distance passes
  (one sweep path for stack and associativity sweeps), exact per-class
  set-sampled passes, or windowed direct simulation, each with cold-start
  bias bounds; representative plans add a memoized whole-trace windowed
  profile that prices additional configurations at a handful of windows.
* :mod:`~repro.sampling.estimators` — *what to report*: ratio estimates
  with seeded-bootstrap confidence intervals, widened deterministically by
  the warm-start bias bounds, and weighted-medoid estimates bracketed by
  the windowed profile.
* :mod:`~repro.sampling.jobs` / :mod:`~repro.sampling.calibrate` —
  campaign integration (:class:`SampledJob`, ``run_campaign(...,
  sampling=plan)``) and the error-budget calibrator.

:func:`repro.trace.filters.sample_time_windows` is re-exported here so
the package is the one entry point for sampling, raw or estimated.
"""

from ..trace.filters import sample_time_windows
from .calibrate import calibrate
from .engine import (
    SampledReport,
    SampledStats,
    run_sampled,
    sampled_associativity_sweep,
    sampled_simulate,
    sampled_stack_sweep,
)
from .estimators import (
    Estimate,
    SampledValue,
    SamplingInfo,
    ratio_estimates,
    representative_estimates,
)
from .jobs import SampledJob
from .plans import (
    Interval,
    IntervalSampling,
    RepresentativeSampling,
    SamplingPlan,
    SelectedIntervals,
    SetSampling,
    kmeans,
    select_intervals,
    select_set_classes,
)
from .representative import (
    RepresentativeSelection,
    WindowProfile,
    representative_associativity_sweep,
    representative_simulate,
    representative_stack_sweep,
    select_representatives,
    window_profile,
    window_signatures,
)

__all__ = [
    "Estimate",
    "Interval",
    "IntervalSampling",
    "RepresentativeSampling",
    "RepresentativeSelection",
    "SampledJob",
    "SampledReport",
    "SampledStats",
    "SampledValue",
    "SamplingInfo",
    "SamplingPlan",
    "SelectedIntervals",
    "SetSampling",
    "WindowProfile",
    "calibrate",
    "kmeans",
    "ratio_estimates",
    "representative_associativity_sweep",
    "representative_estimates",
    "representative_simulate",
    "representative_stack_sweep",
    "run_sampled",
    "sample_time_windows",
    "sampled_associativity_sweep",
    "sampled_simulate",
    "sampled_stack_sweep",
    "select_intervals",
    "select_representatives",
    "select_set_classes",
    "window_profile",
    "window_signatures",
]
