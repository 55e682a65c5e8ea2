"""A Table-1-style miss-ratio column from a tenth of the references.

Run with::

    python examples/sampled_campaign.py

Runs the fully associative LRU capacity sweep (Table 1's configuration)
twice over a handful of catalog workloads: once exactly, once under an
interval-sampling plan that measures only ~10% of each trace.  The
sampled campaign reports every miss ratio as ``estimate ± half-width``
(a 95% confidence interval combining bootstrap noise with the LRU
cold-start bias bound), so you can see both how close the cheap run
lands and whether the full-run truth falls inside the reported interval.
"""

from repro.analysis.sweep import PAPER_LINE_SIZE
from repro.campaign import run_campaign
from repro.core.jobs import CampaignCell, StackSweepJob, TraceSpec
from repro.sampling import IntervalSampling
from repro.workloads import catalog

LENGTH = 60_000
WORKLOADS = ("ZGREP", "VCCOM", "FGO1", "LISP1")
SIZES = (1024, 4096, 16384)
PLAN = IntervalSampling(fraction=0.1, window=500, seed=0)


def main() -> None:
    job = StackSweepJob(sizes=SIZES, line_size=PAPER_LINE_SIZE)
    cells = [
        CampaignCell(name, TraceSpec.catalog(name, LENGTH), job)
        for name in WORKLOADS
    ]

    exact = run_campaign(cells, workers=1, cache=False)
    sampled = run_campaign(cells, workers=1, cache=False, sampling=PLAN)

    print(f"Table 1 column, exact vs ~{PLAN.fraction:.0%} sampled "
          f"({LENGTH} references per trace)\n")
    header = f"{'trace':8s} {'bytes':>6s} {'exact':>8s} {'sampled (95% CI)':>20s}"
    print(header)
    print("-" * len(header))
    covered = 0
    total = 0
    for full, est in zip(exact.outcomes, sampled.outcomes):
        for size, truth, estimate in zip(
            SIZES, full.value, est.sampling.estimates
        ):
            total += 1
            covered += estimate.contains(truth)
            print(f"{full.label:8s} {size:6d} {truth:8.4f} {str(estimate):>20s}")
        info = est.sampling
        print(f"{'':8s} measured {info.measured_references} of "
              f"{info.total_references} references "
              f"({info.sampled_fraction:.1%}, + warmup replays = "
              f"{info.replayed_references})\n")
    print(f"truth inside the reported interval: {covered}/{total} cells")


if __name__ == "__main__":
    main()
