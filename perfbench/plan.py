"""Seeded inputs of the four benchmark workloads.

The seed picks catalog traces, stratified over the catalog's
architecture groups, and (for ``service_mixed``) the arrival mix.  The
program under test only ever sees the generated cells.  Every choice is
made with :class:`random.Random` seeded from a string, so the same seed
gives the same inputs on every host and Python version.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from repro.core.jobs import CampaignCell, SimulateJob, StackSweepJob, TraceSpec
from repro.core.kernels import can_replay
from repro.workloads import catalog

#: Task-switch purge interval, the paper's multiprogramming quantum.
PURGE = 20_000

#: The paper's trace length.
PAPER_LENGTH = 250_000

#: Sampled estimates further than this (absolute miss ratio) from the
#: exact value fail the run: three times the worst error seen on the
#: catalog (about 0.05), so only a broken estimator trips it.
SAMPLE_ERROR_LIMIT = 0.15

#: Cells re-run on the generic engine by the correctness gate.
GATE_CELLS = 2


@dataclass(frozen=True)
class Scale:
    """Sizes of one workload; ``full`` is what the benchmark measures."""

    per_group: int
    length: int
    campaigns: int = 0
    rate: float = 0.0


SCALES = {
    "full": {
        "lru_sweep": Scale(per_group=2, length=PAPER_LENGTH),
        "policy_mix": Scale(per_group=1, length=50_000),
        "sampled_sweep": Scale(per_group=1, length=PAPER_LENGTH),
        "service_mixed": Scale(per_group=1, length=60_000, campaigns=45, rate=6.0),
    },
    "tiny": {
        "lru_sweep": Scale(per_group=1, length=5_000),
        "policy_mix": Scale(per_group=1, length=5_000),
        "sampled_sweep": Scale(per_group=1, length=20_000),
        "service_mixed": Scale(per_group=1, length=5_000, campaigns=6, rate=12.0),
    },
}

#: Worker processes per workload (1 = serial, in the round's own process).
WORKERS = {"lru_sweep": 2, "policy_mix": 1, "sampled_sweep": 2, "service_mixed": 2}

LRU_SIZES = tuple(512 * 2**i for i in range(8))
POLICY_SIZES = (1024, 8192)
POLICY_CONFIGS = {
    "fifo4": dict(associativity=4, replacement="fifo"),
    "random4": dict(associativity=4, replacement="random"),
    "write-through": dict(write="write-through"),
    "prefetch-always": dict(fetch="prefetch-always"),
    "split-purge": dict(split=True, purge_interval=PURGE),
}
SAMPLED_SIZES = (256, 512, 1024, 2048, 4096, 8192)
SERVICE_CONFIGS = tuple(
    (size, ways) for ways in (None, 1, 2, 4) for size in (1024, 2048, 4096, 8192, 16384, 32768)
)
SERVICE_CELLS = 4


def _rng(workload: str, seed: int, purpose: str) -> random.Random:
    return random.Random(f"{workload}/{seed}/{purpose}")


def pick_traces(workload: str, seed: int, per_group: int, subset: int = 0) -> list[str]:
    """``per_group`` catalog traces from every architecture group.

    Taking the same number from each group keeps the mix of trace kinds,
    and with it the cost of a round, alike for every seed.  The seed fixes
    one order of each group's traces; subset *k* takes the *k*-th run of
    ``per_group`` traces along it, wrapping around, so successive rounds
    of a run cover each group before repeating a trace.
    """
    rng = _rng(workload, seed, "traces")
    chosen = []
    for _, names in sorted(catalog.groups().items()):
        order = sorted(names)
        rng.shuffle(order)
        chosen += [order[(subset * per_group + k) % len(order)] for k in range(per_group)]
    return chosen


def batch_cells(workload: str, seed: int, scale: Scale, subset: int = 0) -> list[CampaignCell]:
    """The cells of one round of a batch workload, over trace subset ``subset``."""
    names = pick_traces(workload, seed, scale.per_group, subset)
    cells: list[CampaignCell] = []
    for name in names:
        spec = TraceSpec.catalog(name, scale.length)
        if workload == "lru_sweep":
            cells += [
                CampaignCell(f"{name}/lru/{size}", spec, SimulateJob(size=size, purge_interval=PURGE))
                for size in LRU_SIZES
            ]
        elif workload == "policy_mix":
            cells += [
                CampaignCell(f"{name}/{label}/{size}", spec, SimulateJob(size=size, **config))
                for size in POLICY_SIZES
                for label, config in POLICY_CONFIGS.items()
            ]
        elif workload == "sampled_sweep":
            cells.append(
                CampaignCell(f"{name}/sweep", spec, StackSweepJob(sizes=SAMPLED_SIZES, purge_interval=PURGE))
            )
            cells += [
                CampaignCell(
                    f"{name}/4way/{size}", spec,
                    SimulateJob(size=size, associativity=4, purge_interval=PURGE),
                )
                for size in SAMPLED_SIZES
            ]
        else:
            raise ValueError(f"{workload} is not a batch workload")
    return cells


def gate_cells(workload: str, seed: int, cells: list[CampaignCell]) -> list[tuple[int, CampaignCell]]:
    """A seeded subset of kernel-eligible cells, re-targeted at the generic engine."""
    eligible = [
        index for index, cell in enumerate(cells)
        if isinstance(cell.job, SimulateJob) and can_replay(cell.job.build_organization())
    ]
    picked = sorted(_rng(workload, seed, "gate").sample(eligible, min(GATE_CELLS, len(eligible))))
    return [
        (index, replace(cells[index], job=replace(cells[index].job, engine="generic")))
        for index in picked
    ]


@dataclass(frozen=True)
class Arrival:
    """One campaign of the service's open loop."""

    at: float
    cells: tuple[CampaignCell, ...]
    repeat_of: int | None


def service_arrivals(seed: int, scale: Scale) -> list[Arrival]:
    """The open-loop schedule: about half fresh campaigns, half repeats.

    A repeat re-sends a fresh campaign scheduled at least one second
    earlier, so that at the chosen rate its cells are already in the
    result cache.  Fresh campaigns cycle through the seeded traces with
    new configurations, so later ones find their trace in the trace store.
    """
    rng = _rng("service_mixed", seed, "arrivals")
    names = pick_traces("service_mixed", seed, scale.per_group)
    configs = list(SERVICE_CONFIGS)
    arrivals: list[Arrival] = []
    fresh: list[int] = []
    for index in range(scale.campaigns):
        at = index / scale.rate
        old = [i for i in fresh if arrivals[i].at <= at - 1.0]
        if old and rng.random() < 0.5:
            source = rng.choice(old)
            arrivals.append(Arrival(at, arrivals[source].cells, source))
            continue
        name = names[len(fresh) % len(names)]
        round_ = len(fresh) // len(names)
        chosen = configs[round_ * SERVICE_CELLS % len(configs):][:SERVICE_CELLS]
        spec = TraceSpec.catalog(name, scale.length)
        cells = tuple(
            CampaignCell(
                f"{name}/{ways or 'full'}/{size}", spec,
                SimulateJob(size=size, associativity=ways, purge_interval=PURGE),
            )
            for size, ways in chosen
        )
        fresh.append(index)
        arrivals.append(Arrival(at, cells, None))
    return arrivals
