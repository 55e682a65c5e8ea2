"""Spans recorded from outside the program, around calls into each layer.

:func:`install` replaces the public entry points of each layer with
wrappers that record a span: name, start, end, the
enclosing span, the process, and a few counts.  Nothing in ``src/`` is
changed; the wrappers are installed in the benchmark's own process before
any work starts, so forked pool workers inherit them.  Each process keeps
its spans in memory and appends them to ``<directory>/<pid>.jsonl``
whenever its outermost span closes, which is how spans from pool workers
reach the benchmark.

A layer's self time is the duration of its spans minus the part covered
by their child spans; :func:`layer_totals` computes it per process.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path


class Recorder:
    """Per-process span buffer; one per traced process."""

    def __init__(self, directory: Path) -> None:
        self.directory = Path(directory)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._spans: list[dict] = []
        self._next_id = 0
        os.register_at_fork(after_in_child=self._forget)

    def _forget(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._spans = []

    def _stack(self) -> list[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def active(self, name: str) -> bool:
        """True if a span called ``name`` is open on this thread."""
        return any(span["name"] == name for span in self._stack())

    def open(self, name: str) -> dict:
        stack = self._stack()
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        span = {
            "name": name,
            "id": span_id,
            "parent": stack[-1]["id"] if stack else None,
            "pid": os.getpid(),
            "start": time.monotonic(),
        }
        stack.append(span)
        return span

    def close(self, span: dict, **counts) -> None:
        span["end"] = time.monotonic()
        span.update(counts)
        stack = self._stack()
        stack.pop()
        with self._lock:
            self._spans.append(span)
            if stack:
                return
            spans, self._spans = self._spans, []
        with open(self.directory / f"{os.getpid()}.jsonl", "a", encoding="utf-8") as out:
            out.writelines(json.dumps(s) + "\n" for s in spans)


_RECORDER: Recorder | None = None


def _span(name, counts=None, skip_nested=False):
    """Decorator factory: record a span named ``name`` around each call.

    ``counts(args, kwargs, result)`` returns extra fields for the span.
    With ``skip_nested``, a call made inside an open span of the same
    name records nothing, so a layer that calls its own entry points is
    counted once.
    """

    def decorate(function):
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            recorder = _RECORDER
            if recorder is None or (skip_nested and recorder.active(name)):
                return function(*args, **kwargs)
            span = recorder.open(name)
            extra: dict = {}
            try:
                result = function(*args, **kwargs)
                if counts is not None:
                    extra = counts(args, kwargs, result)
                return result
            finally:
                recorder.close(span, **extra)

        return wrapper

    return decorate


def _generate_counts(args, kwargs, result):
    workload, length = args[0], args[1]
    return {"refs": int(length), "key": f"{workload.params.name}/{length}"}


def _store_counts(args, kwargs, result):
    return {"hit": bool(result[1])}


def _stackdist_counts(args, kwargs, result):
    return {"refs": len(args[0])}


def _simulate_counts(args, kwargs, result):
    from repro.core import kernels

    organization = args[1]
    generic = kwargs.get("engine") == "generic"
    return {
        "refs": int(result.references),
        # can_replay reads the organization's layout only, so asking after
        # the run gives the same answer simulate() acted on.
        "fast": (not generic) and kernels.can_replay(organization),
    }


def _replace_everywhere(original, wrapper) -> None:
    """Point every ``repro`` module attribute bound to ``original`` at ``wrapper``.

    Modules import these functions by name, so patching the defining
    module alone would miss most callers.
    """
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro") or module is None:
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, wrapper)


def install(directory: Path) -> None:
    """Start recording spans of this process (and of later forks) into ``directory``."""
    global _RECORDER
    if _RECORDER is not None:
        return
    import repro.campaign  # noqa: F401  (bind every caller before patching)
    import repro.sampling  # noqa: F401
    import repro.service  # noqa: F401
    from repro.campaign import ResultCache
    from repro.core import simulator, stackdist
    from repro.sampling import representative
    from repro.trace.store import TraceStore
    from repro.trace.stream import CompiledTrace
    from repro.workloads.generator import SyntheticWorkload

    Path(directory).mkdir(parents=True, exist_ok=True)
    _RECORDER = Recorder(Path(directory))

    SyntheticWorkload.generate = _span("workloads.generate", _generate_counts)(
        SyntheticWorkload.generate
    )
    CompiledTrace.__init__ = _span("trace.compile")(CompiledTrace.__init__)
    TraceStore.get_or_create = _span("trace.store", _store_counts)(TraceStore.get_or_create)
    ResultCache.get = _span("campaign.result_cache.get")(ResultCache.get)
    ResultCache.put = _span("campaign.result_cache.put")(ResultCache.put)
    functions = [
        (stackdist._stack_distances_ordered, "core.stackdist", _stackdist_counts),
        (stackdist.set_stack_distances, "core.stackdist", _stackdist_counts),
        (stackdist.lru_stack_distances, "core.stackdist", _stackdist_counts),
        (simulator.simulate, "core.simulator", _simulate_counts),
        (representative.window_signatures, "sampling.signatures", None),
        (representative.window_profile, "sampling.profile", None),
        (representative.select_representatives, "sampling.select", None),
    ]
    for original, name, counts in functions:
        _replace_everywhere(original, _span(name, counts, skip_nested=True)(original))


def traced_run_cell(cell):
    """The campaign runner seam: ``run_cell`` inside a ``campaign.cell`` span."""
    from repro.core.jobs import run_cell

    return _span("campaign.cell")(run_cell)(cell)


def load_spans(directory: Path) -> list[dict]:
    """Every span written into ``directory`` by any process."""
    spans: list[dict] = []
    for path in sorted(Path(directory).glob("*.jsonl")):
        with open(path, encoding="utf-8") as handle:
            spans.extend(json.loads(line) for line in handle if line.strip())
    return spans


def _empty_total() -> dict:
    return {"calls": 0, "s": 0.0, "self_s": 0.0, "refs": 0, "hits": 0, "fast": 0, "keys": set()}


def layer_totals(spans: list[dict]) -> dict[str, dict]:
    """Per span name: calls, inclusive seconds, self seconds, summed counts."""
    child_time: dict[tuple[int, int], float] = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            child_time[(span["pid"], span["parent"])] += span["end"] - span["start"]
    totals: dict[str, dict] = defaultdict(_empty_total)
    for span in spans:
        total = totals[span["name"]]
        duration = span["end"] - span["start"]
        total["calls"] += 1
        total["s"] += duration
        total["self_s"] += duration - child_time[(span["pid"], span["id"])]
        total["refs"] += span.get("refs", 0)
        total["hits"] += int(span.get("hit", False))
        total["fast"] += int(span.get("fast", False))
        if "key" in span:
            total["keys"].add(span["key"])
    return totals


def _rate(refs: int, seconds: float) -> float:
    return refs / seconds / 1e6 if seconds > 0 else 0.0


def layer_summary(totals: dict[str, dict], wall: float, workers: int) -> dict[str, float]:
    """The span-derived per-layer metrics of one traced campaign.

    Layers the workload does not reach report 0.  ``*.mrefs_per_s`` divides
    the references a layer processed by its self time.  The sampling passes
    run on one workload only, so they are reported as their share of all
    span self time rather than as a time that reads 0 elsewhere.
    """
    accounted = sum(t["self_s"] for t in totals.values())

    def get(name: str) -> dict:
        return totals.get(name) or _empty_total()

    generate, compile_, store = get("workloads.generate"), get("trace.compile"), get("trace.store")
    stack, sim, cell = get("core.stackdist"), get("core.simulator"), get("campaign.cell")
    return {
        "workloads.generate.calls": generate["calls"],
        "workloads.generate.s": generate["self_s"],
        "workloads.generate.mrefs_per_s": _rate(generate["refs"], generate["self_s"]),
        "workloads.generate.redundancy": (
            generate["calls"] / len(generate["keys"]) if generate["keys"] else 0.0
        ),
        "trace.compile.calls": compile_["calls"],
        "trace.compile.s": compile_["self_s"],
        "trace.store.calls": store["calls"],
        "trace.store.s": store["self_s"],
        "trace.store.hit_ratio": store["hits"] / store["calls"] if store["calls"] else 0.0,
        "core.stackdist.calls": stack["calls"],
        "core.stackdist.s": stack["self_s"],
        "core.stackdist.mrefs_per_s": _rate(stack["refs"], stack["self_s"]),
        "core.simulator.calls": sim["calls"],
        "core.simulator.s": sim["self_s"],
        "core.simulator.mrefs_per_s": _rate(sim["refs"], sim["self_s"]),
        "core.kernels.fast_share": sim["fast"] / sim["calls"] if sim["calls"] else 0.0,
        **{
            f"{name}.share": get(name)["self_s"] / accounted if accounted else 0.0
            for name in ("sampling.signatures", "sampling.profile", "sampling.select")
        },
        "campaign.cell.calls": cell["calls"],
        "campaign.cell.s": cell["self_s"],
        "campaign.dispatch.s": max(0.0, wall - cell["s"] / workers) if cell["calls"] else 0.0,
        "campaign.result_cache.get.s": get("campaign.result_cache.get")["self_s"],
        "campaign.result_cache.put.s": get("campaign.result_cache.put")["self_s"],
        "tracing.accounted_s": accounted / workers,
    }
