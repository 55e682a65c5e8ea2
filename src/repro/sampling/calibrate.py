"""Error-budget calibration: grow the sample until the CI fits.

:func:`calibrate` answers "how much of this trace must I sample for this
configuration to get every metric's confidence interval within a relative
error budget?"  It runs the same geometric-growth loop as
:func:`repro.sampling.engine.run_sampled` and hands back the plan that
satisfied the budget, so campaigns over similar traces can reuse the
calibrated fraction without re-calibrating every cell.
"""

from __future__ import annotations

from dataclasses import replace

from ..trace.stream import Trace
from .engine import run_sampled
from .estimators import SampledValue
from .plans import IntervalSampling

__all__ = ["calibrate"]


def calibrate(
    trace: Trace,
    job,
    target_rel_err: float,
    plan: IntervalSampling | None = None,
) -> tuple[IntervalSampling, SampledValue]:
    """Find the smallest plan fraction meeting an error budget.

    Args:
        trace: the trace to calibrate against.
        job: any campaign job (``StackSweepJob``, ``AssociativitySweepJob``
            or ``SimulateJob``) describing the configuration.
        target_rel_err: the budget — every metric's CI half-width must be
            within this fraction of ``max(estimate, 1e-3)`` (the floor
            keeps near-zero miss ratios from demanding absurd precision).
        plan: the starting plan (default: a fresh
            :class:`IntervalSampling`).  Its ``fraction`` seeds the
            search; ``growth``/``max_fraction`` bound it.

    Returns:
        ``(calibrated_plan, last_value)`` — the plan whose fraction met
        the budget (or the ceiling, if the budget was unreachable; check
        ``last_value.info.target_met``), and the sampled value from the
        final round so callers do not pay for a re-run.

    Raises:
        ValueError: for a non-positive budget.
    """
    if target_rel_err <= 0:
        raise ValueError(f"target_rel_err must be positive, got {target_rel_err}")
    base = plan if plan is not None else IntervalSampling()
    budgeted = replace(base, target_rel_err=target_rel_err)
    value = run_sampled(trace, job, budgeted)
    # The info carries the final round's plan identity, grown fraction included.
    return replace(budgeted, fraction=value.info.plan["fraction"]), value
