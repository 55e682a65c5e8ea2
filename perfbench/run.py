"""The repository benchmark: cold, layered runs of four workloads.

    python3 perfbench/run.py --workload lru_sweep --seed 1 --seconds 20 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory, in fresh interpreters with every ``REPRO_*`` variable cleared.
A run repeats cold rounds of one workload for about ``--seconds``
seconds: each batch round is a new interpreter running one campaign, and
each ``service_mixed`` round a new ``repro serve`` process with empty
caches.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced rounds and reports the per-layer metrics,
including the tracing overhead.  The last line of output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it print every metric with its unit and sample count.

See ``perfbench/NOTES.md`` for why each workload exists and which layer
metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("lru_sweep", "policy_mix", "sampled_sweep", "service_mixed")

END_TO_END = {
    "setup_s": "s",
    "cells_per_s": "cells/s",
    "mrefs_per_s": "Mrefs/s",
    "turnaround_p50_ms": "ms",
    "turnaround_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "workloads.generate.calls": "count",
    "workloads.generate.s": "s",
    "workloads.generate.mrefs_per_s": "Mrefs/s",
    "workloads.generate.redundancy": "ratio",
    "trace.compile.calls": "count",
    "trace.compile.s": "s",
    "core.stackdist.calls": "count",
    "core.stackdist.s": "s",
    "core.stackdist.mrefs_per_s": "Mrefs/s",
    "core.simulator.calls": "count",
    "core.simulator.s": "s",
    "core.simulator.mrefs_per_s": "Mrefs/s",
    "core.kernels.fast_share": "ratio",
    "sampling.signatures.share": "share",
    "sampling.profile.share": "share",
    "sampling.select.share": "share",
    "sampling.replayed_share": "ratio",
    "sampling.sample_err_max": "abs",
    "campaign.cell.calls": "count",
    "campaign.cell.s": "s",
    "campaign.dispatch.s": "s",
    "campaign.retried": "count",
    "campaign.failed": "count",
    "tracing.wall_s": "s",
    "tracing.overhead_s": "s",
    "tracing.accounted_s": "s",
}

#: Layers only ``service_mixed`` reaches; reported on that workload only.
SERVICE_LAYER = {
    "trace.store.calls": "count",
    "trace.store.s": "s",
    "trace.store.hit_ratio": "ratio",
    "campaign.result_cache.get.s": "s",
    "campaign.result_cache.put.s": "s",
    "service.queue_wait.p50_ms": "ms",
    "service.cells.run": "count",
    "service.cells.cache": "count",
    "service.cells.shared": "count",
    "service.stream_close.p90_ms": "ms",
    "service.streams_unclosed": "count",
    "service.orphaned_workers": "count",
    "service.hit_turnaround_p90_ms": "ms",
}

#: Fewest rounds in a run, however short ``--seconds`` is.
MIN_ROUNDS = 2
#: Seconds one round may take before the run is abandoned.
ROUND_TIMEOUT = 120.0


def _percentile(values: list[float], share: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(share * 100) - 1]


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _clean_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _batch_round(workload, seed, scale, env, workdir, traced, gate, subset) -> dict:
    import procs

    command = [sys.executable, str(HERE / "round.py"), "--workload", workload,
               "--seed", str(seed), "--scale", scale, "--subset", str(subset)]
    if traced:
        command += ["--spans", str(workdir / "spans")]
    if gate:
        command.append("--gate")
    workdir.mkdir(parents=True)
    spawned = time.monotonic()
    process = subprocess.Popen(command, env=env, cwd=workdir, stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE, text=True, start_new_session=True)
    rss = procs.PeakRss(process.pid)
    try:
        out, err = process.communicate(timeout=ROUND_TIMEOUT)
    except subprocess.TimeoutExpired:
        procs.kill_session(process.pid)
        process.communicate()
        raise RuntimeError(f"{workload} round exceeded {ROUND_TIMEOUT:g}s") from None
    finally:
        peaks = rss.stop()
        procs.kill_session(process.pid)
    if process.returncode != 0:
        raise RuntimeError(f"{workload} round exited {process.returncode}:\n{err[-3000:]}")
    report = json.loads(out.strip().splitlines()[-1])
    # The round's own peak is the one it read when the timed region ended,
    # so the correctness gate that runs afterwards does not count.
    peaks[process.pid] = report["timed_peak_kb"]
    report.update(setup_s=report["ready"] - spawned, peak_rss_mb=sum(peaks.values()) / 1024,
                  wall_s=report["end"] - report["start"], traced=traced, subset=subset)
    return report


def _service_round(seed, scale, env, workdir, traced, gate) -> dict:
    import plan
    import serviceload
    import tracing

    spans = workdir / "spans" if traced else None
    raw = serviceload.run_round(seed, plan.SCALES[scale]["service_mixed"], workdir, env, spans, gate)
    records = raw["records"]
    done = [r for r in records if "failure" not in r]
    finished = [r["finished"] for r in records if "finished" in r]
    wall = max(finished) - raw["origin"] if finished else 0.0
    sources = [s for r in records for s in r.get("sources", [])]
    report = {
        "setup_s": raw["setup_s"],
        "peak_rss_mb": raw["peak_rss_mb"],
        "wall_s": wall,
        "traced": traced,
        "cells": len(sources),
        "references": sum(r.get("references", 0) for r in records),
        "attempted": len(records),
        "failed": len(records) - len(done),
        "failures": sorted({r["failure"] for r in records if "failure" in r}),
        "fresh_ms": [1e3 * (r["finished"] - r["due"]) for r in done if r["repeat_of"] is None],
        "hit_ms": [1e3 * (r["finished"] - r["due"]) for r in done
                   if r["repeat_of"] is not None and set(r["sources"]) == {"cache"}],
        "queue_wait_ms": [1e3 * (r["started"] - r["queued"]) for r in records
                          if "started" in r and "queued" in r],
        "stream_close_ms": [1e3 * r["stream_close_s"] for r in records if "stream_close_s" in r],
        "unclosed": sum(r.get("failure") == "stream_unclosed" for r in records),
        "orphaned_workers": raw["orphaned_workers"],
        "sources": {name: sources.count(name) for name in ("run", "cache", "shared")},
        "late_ms": max((1e3 * r["late"] for r in records), default=0.0),
        "mismatches": raw["mismatches"],
    }
    if traced:
        report["spans"] = tracing.layer_summary(
            tracing.layer_totals(tracing.load_spans(spans)),
            wall=wall, workers=plan.WORKERS["service_mixed"],
        )
    return report


def _end_to_end(workload: str, rounds: list[dict]) -> tuple[dict, dict]:
    """Metric values and the sample count behind each."""
    timed = [r for r in rounds if not r["traced"]]
    if workload == "service_mixed":
        turnaround = [t for r in timed for t in r["fresh_ms"]]
    else:
        turnaround = [1e3 * t for r in timed for t in r["turnaround_s"]]
    values = {
        "setup_s": _median([r["setup_s"] for r in rounds]),
        "cells_per_s": _median([r["cells"] / r["wall_s"] for r in timed]),
        "mrefs_per_s": _median([r["references"] / r["wall_s"] / 1e6 for r in timed]),
        "turnaround_p50_ms": _percentile(turnaround, 0.5),
        "turnaround_p90_ms": _percentile(turnaround, 0.9),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in timed]),
    }
    counts = {
        "setup_s": f"median of {len(rounds)} set-ups",
        "cells_per_s": f"median of {len(timed)} rounds",
        "mrefs_per_s": f"median of {len(timed)} rounds",
        "turnaround_p50_ms": f"{len(turnaround)} samples",
        "turnaround_p90_ms": f"{len(turnaround)} samples",
        "peak_rss_mb": f"median of {len(timed)} rounds",
    }
    return values, counts


def _per_layer(workload: str, rounds: list[dict]) -> tuple[dict, dict]:
    timed = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    span_names = traced[0]["spans"].keys() if traced else ()
    values = {name: _median([r["spans"][name] for r in traced]) for name in span_names}
    untraced_wall = _median([r["wall_s"] for r in timed])
    values["tracing.wall_s"] = untraced_wall
    values["tracing.overhead_s"] = _median([r["wall_s"] for r in traced]) - untraced_wall
    sampled = [r["sampling"] for r in rounds if "sampling" in r]
    values["sampling.replayed_share"] = (
        sum(s["replayed"] for s in sampled) / sum(s["total"] for s in sampled) if sampled else 0.0
    )
    values["sampling.sample_err_max"] = max(
        (r["gate"].get("sample_err_max", 0.0) for r in rounds if "gate" in r), default=0.0
    )
    values["campaign.retried"] = sum(r.get("retried", 0) for r in rounds)
    values["campaign.failed"] = sum(r.get("failed", 0) for r in rounds)
    if workload == "service_mixed":
        values.update({
            "service.queue_wait.p50_ms": _percentile([t for r in timed for t in r["queue_wait_ms"]], 0.5),
            "service.stream_close.p90_ms": _percentile([t for r in timed for t in r["stream_close_ms"]], 0.9),
            "service.hit_turnaround_p90_ms": _percentile([t for r in timed for t in r["hit_ms"]], 0.9),
            "service.streams_unclosed": sum(r["unclosed"] for r in rounds),
            "service.orphaned_workers": sum(r["orphaned_workers"] for r in rounds),
            **{f"service.cells.{source}": sum(r["sources"][source] for r in timed)
               for source in ("run", "cache", "shared")},
        })
    counts = {name: f"{len(traced)} traced / {len(timed)} untraced rounds" for name in values}
    return values, counts


def _correctness(workload: str, rounds: list[dict]) -> list[str]:
    problems = []
    for r in rounds:
        gate = r.get("gate", {})
        problems += gate.get("mismatches", []) + r.get("mismatches", [])
    digests: dict[int, set] = {}
    for r in rounds:
        if "digest" in r:
            digests.setdefault(r["subset"], set()).add(r["digest"])
    if any(len(found) > 1 for found in digests.values()):
        problems.append("rounds with the same inputs gave different result digests")
    if workload != "service_mixed" and not any("gate" in r for r in rounds):
        problems.append("the correctness gate did not run")
    return problems


def run(workload: str, seed: int, seconds: float, trace: bool, scale: str) -> dict:
    """Run the rounds of one benchmark run and return the result object."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise RuntimeError(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
    sys.path.insert(0, str(ROOT / "src"))
    compileall.compile_dir(ROOT / "src", quiet=1)
    env = _clean_env()
    scratch = ROOT / ".perfbench_tmp" / f"{workload}-{seed}-{os.getpid()}"
    rounds: list[dict] = []
    durations: list[float] = []
    begin = time.monotonic()
    try:
        while True:
            index = len(rounds)
            traced = trace and index % 2 == 1
            # Traced runs pair each traced round with an untraced round over
            # the same inputs, so the pair's difference is the tracing cost.
            subset = index // 2 if trace else index
            gate = index == 0
            started = time.monotonic()
            workdir = scratch / f"round{index}"
            if workload == "service_mixed":
                rounds.append(_service_round(seed, scale, env, workdir, traced, gate))
            else:
                rounds.append(_batch_round(workload, seed, scale, env, workdir, traced, gate, subset))
            durations.append(time.monotonic() - started)
            elapsed = time.monotonic() - begin
            if len(rounds) >= MIN_ROUNDS and elapsed + _median(durations) > seconds:
                break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass

    values, counts = (_per_layer if trace else _end_to_end)(workload, rounds)
    units = END_TO_END
    if trace:
        units = PER_LAYER | (SERVICE_LAYER if workload == "service_mixed" else {})
    problems = _correctness(workload, rounds)
    attempted = sum(r.get("attempted", r["cells"] + r["failed"]) for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    print(f"{workload} seed {seed}: {len(rounds)} rounds in {time.monotonic() - begin:.1f}s, "
          f"{attempted} attempted, {failed} failed")
    for index, r in enumerate(rounds):
        print(f"  round {index}{' traced' if r['traced'] else ''}: set-up {r['setup_s']:.3f}s, "
              f"timed {r['wall_s']:.3f}s, peak RSS {r['peak_rss_mb']:.0f} MB"
              + (f", digest {r['digest'][:16]}" if "digest" in r else "")
              + (f", sends at most {r['late_ms']:.1f} ms late" if "late_ms" in r else ""))
        if r.get("failures") or r.get("errors"):
            print(f"    failures: {r.get('failures') or r.get('errors')}")
        undefined = r.get("gate", {}).get("nan_mismatches")
        if undefined:
            print(f"    {len(undefined)} sampled estimates beside an exact NaN or the reverse "
                  f"(NOTES.md defect (c)): {sorted(set(undefined))}")
    for name in units:
        print(f"  {name:32s} {values[name]:12.4f} {units[name]:8s} ({counts[name]})")
    for problem in problems:
        print(f"  INCORRECT: {problem}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input sizes; 'tiny' is for the self-test only")
    args = parser.parse_args()
    sys.path.insert(0, str(HERE))
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
