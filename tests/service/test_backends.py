"""Tests for the execution backends."""

import asyncio

import pytest

from repro.core.jobs import CampaignCell, CellResult, SimulateJob, TraceSpec
from repro.service.backends import BackendCrash, InlineBackend, PoolBackend

from .helpers import crash_on_marker, fail_on_marker, fake_run


def make_cell(label="cell"):
    return CampaignCell(
        label, TraceSpec.catalog("ZGREP", 4_000), SimulateJob(size=1024)
    )


async def with_backend(backend, body):
    await backend.start()
    try:
        return await body()
    finally:
        await backend.close()


class TestInlineBackend:
    def test_runs_a_cell(self):
        backend = InlineBackend(capacity=2, runner=fake_run)

        async def body():
            return await backend.run(make_cell())

        result = asyncio.run(with_backend(backend, body))
        assert isinstance(result, CellResult)
        assert result.references == 1_000

    def test_capacity_floor(self):
        assert InlineBackend(capacity=0).capacity == 1


class TestPoolBackend:
    def test_runs_a_real_cell(self):
        backend = PoolBackend(workers=1)

        async def body():
            return await backend.run(make_cell())

        result = asyncio.run(with_backend(backend, body))
        assert result.references == 4_000

    def test_worker_crash_is_a_backend_crash_and_the_pool_recovers(self):
        backend = PoolBackend(workers=1, runner=crash_on_marker)

        async def body():
            with pytest.raises(BackendCrash):
                await backend.run(make_cell("CRASH-me"))
            # The pool was replaced; the next cell runs normally.
            return await backend.run(make_cell("fine"))

        result = asyncio.run(with_backend(backend, body))
        assert isinstance(result, CellResult)

    def test_cell_exception_is_structured_not_a_crash(self):
        backend = PoolBackend(workers=1, runner=fail_on_marker)

        async def body():
            # The cell's own exception surfaces as itself, not BackendCrash.
            with pytest.raises(ValueError, match="injected failure"):
                await backend.run(make_cell("FAIL-me"))
            # The worker survives its own cell's exception: no rebuild.
            return await backend.run(make_cell("fine"))

        result = asyncio.run(with_backend(backend, body))
        assert isinstance(result, CellResult)
        assert backend._generation == 0
