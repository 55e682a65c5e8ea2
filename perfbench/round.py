"""One cold round of a batch workload, in a fresh interpreter.

Run by ``run.py``; not meant to be called by hand.  The round imports the
program, builds its cells, runs them through ``run_campaign`` as one
campaign, and prints one JSON object on its last line of output.  Times
are ``time.monotonic()`` readings, which share one clock across the
processes of a host, so the caller can measure set-up from before it
started this interpreter.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from pathlib import Path

import plan
import procs
import tracing


def _digest(outcomes) -> str:
    from repro.service.spec import summarize_value

    digest = hashlib.sha256()
    for outcome in outcomes:
        record = {"label": outcome.label, "value": summarize_value(outcome.value)}
        if outcome.sampling is not None:
            record["estimates"] = [e.value for e in outcome.sampling.estimates]
        digest.update(json.dumps(record, sort_keys=True).encode())
    return digest.hexdigest()


def _exact_values(value) -> list[float]:
    if isinstance(value, tuple):
        return list(value)
    return [value.miss_ratio, value.instruction_miss_ratio, value.data_miss_ratio]


def _gate(workload: str, seed: int, cells, outcomes) -> dict:
    """Check outputs against an independent path; run after the timed region."""
    from repro.core.jobs import run_cell

    mismatches: list[str] = []
    if workload == "sampled_sweep":
        # An exact ratio with no references behind it is NaN; an estimate
        # beside it has no error to measure, so such pairs are counted and
        # reported instead (see NOTES.md, defect (c)).
        worst, undefined = 0.0, []
        for cell, outcome in zip(cells, outcomes):
            exact = _exact_values(run_cell(cell).value)
            for truth, estimate in zip(exact, outcome.sampling.estimates):
                if math.isnan(truth) or math.isnan(estimate.value):
                    if math.isnan(truth) != math.isnan(estimate.value):
                        undefined.append(cell.label)
                    continue
                error = abs(estimate.value - truth)
                worst = max(worst, error)
                if error > plan.SAMPLE_ERROR_LIMIT:
                    mismatches.append(f"{cell.label}: sampled error {error:.4f}")
        return {"checked": len(cells), "mismatches": mismatches,
                "sample_err_max": worst, "nan_mismatches": undefined}
    picked = plan.gate_cells(workload, seed, cells)
    for index, generic in picked:
        if run_cell(generic).value != outcomes[index].value:
            mismatches.append(f"{generic.label}: kernel and generic engine differ")
    return {"checked": len(picked), "mismatches": mismatches}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--subset", type=int, default=0, help="which seeded trace subset to run")
    parser.add_argument("--spans", default=None, help="record spans into this directory")
    parser.add_argument("--gate", action="store_true")
    args = parser.parse_args()

    if args.spans:
        tracing.install(Path(args.spans))
    from repro.campaign import run_campaign
    from repro.sampling import RepresentativeSampling

    scale = plan.SCALES[args.scale][args.workload]
    workers = plan.WORKERS[args.workload]
    cells = plan.batch_cells(args.workload, args.seed, scale, args.subset)
    sampling = RepresentativeSampling() if args.workload == "sampled_sweep" else None
    runner = tracing.traced_run_cell if args.spans else None
    finished: list[float] = []
    ready = time.monotonic()

    start = time.monotonic()
    result = run_campaign(
        cells,
        workers=workers,
        cache=False,
        events=None,
        progress=lambda _outcome: finished.append(time.monotonic()),
        sampling=sampling,
        **({"runner": runner} if runner else {}),
    )
    end = time.monotonic()
    timed_peak_kb = procs.peak_kb(os.getpid())

    outcomes = result.outcomes
    report = {
        "ready": ready,
        "start": start,
        "end": end,
        "timed_peak_kb": timed_peak_kb,
        "cells": result.cells - result.failed_cells,
        "failed": result.failed_cells,
        "retried": result.retried_cells,
        "references": sum(o.references for o in outcomes if o.ok),
        "turnaround_s": [t - start for t in finished],
        "digest": _digest(outcomes),
        "errors": [str(o.error) for o in result.failures()][:3],
    }
    if sampling is not None:
        infos = [o.sampling for o in outcomes if o.sampling is not None]
        report["sampling"] = {
            "replayed": sum(i.replayed_references for i in infos),
            "total": sum(i.total_references for i in infos),
        }
    if args.spans:
        report["spans"] = tracing.layer_summary(
            tracing.layer_totals(tracing.load_spans(Path(args.spans))),
            wall=end - start,
            workers=workers,
        )
    if args.gate and not result.failed_cells:
        report["gate"] = _gate(args.workload, args.seed, cells, outcomes)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
