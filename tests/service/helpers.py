"""Injectable runners for the service tests.

These must stay module-level: the pool backend pickles them by reference
into its worker processes, which import this module to run them.

Faults are marked in the cell *label* (the one field that never enters
the cache key), same convention as ``tests/test_campaign_faults.py``:
``CRASH`` kills the hosting process, ``FAIL`` raises inside the runner,
``HANG`` sleeps far past any test timeout, ``SLOW`` sleeps long enough
to create overlap windows for dedupe tests.
"""

import os
import time

from repro.core.jobs import CellResult, run_cell


def fake_run(cell):
    """Cheap deterministic stand-in for ``run_cell`` (no trace build)."""
    return CellResult(value=(0.25, 0.125), references=1_000, wall_seconds=0.001)


def crash_on_marker(cell):
    """Kill the hosting worker process for cells marked ``CRASH``."""
    if "CRASH" in cell.label:
        os._exit(13)
    return fake_run(cell)


def fail_on_marker(cell):
    """Raise inside the runner for cells marked ``FAIL``."""
    if "FAIL" in cell.label:
        raise ValueError(f"injected failure: {cell.label}")
    return fake_run(cell)


def hang_on_marker(cell):
    """Hang (far beyond any test timeout) for cells marked ``HANG``."""
    if "HANG" in cell.label:
        time.sleep(600)
    return fake_run(cell)


def linger_on_marker(cell):
    """Take two seconds for cells marked ``SLOW``: time to act on a cell
    while a pool worker is running it."""
    if "SLOW" in cell.label:
        time.sleep(2.0)
    return fake_run(cell)


def slow_fake_run(cell):
    """``fake_run`` with a delay wide enough to overlap concurrent clients."""
    time.sleep(0.15)
    return fake_run(cell)


def slow_real_run(cell):
    """Real execution, slowed — for dedupe tests that want true payloads."""
    time.sleep(0.1)
    return run_cell(cell)
