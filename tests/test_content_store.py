"""Tests for the shared content-addressed store: key stability, the
on-disk primitive's read/write/claim policy, and the bounded memo."""

import errno
import time

import pytest

from repro.core.jobs import (
    CACHE_SCHEMA_VERSION,
    CampaignCell,
    SimulateJob,
    StackSweepJob,
    TraceSpec,
    cell_key,
)
from repro.sampling.jobs import SampledJob
from repro.sampling.plans import RepresentativeSampling
from repro.store import BoundedMemo, ContentStore, content_key
from repro.trace.store import TraceStore
from repro.workloads import catalog
from repro.workloads.generator import trace_identity


class TestGoldenKeys:
    """Existing cache directories stay valid only while these keys hold:
    a changed key silently turns every stored entry into a miss."""

    def test_schema_version(self):
        assert CACHE_SCHEMA_VERSION == 6

    def test_catalog_simulate_cell(self):
        cell = CampaignCell(
            "VCCOM",
            TraceSpec.catalog("VCCOM", 30_000),
            SimulateJob(size=4096, associativity=2),
        )
        assert cell_key(cell) == (
            "2e365246f1e23c508e72f0531b4adcf85aec6a91ac74a1ec9b1432d100443ea3"
        )

    def test_mix_stack_sweep_cell(self):
        cell = CampaignCell(
            "mix",
            TraceSpec.mix(
                "Z8000 - Assorted", ("ZVI", "ZGREP"), quantum=20_000, length=30_000
            ),
            StackSweepJob(sizes=(1024, 4096), purge_interval=20_000),
        )
        assert cell_key(cell) == (
            "cf4c1200b38f472116f8553239f0a921e8c9e85da0903ce02f726d02f9df4582"
        )

    def test_representative_sampled_cell(self):
        cell = CampaignCell(
            "VCCOM",
            TraceSpec.catalog("VCCOM", 30_000),
            SampledJob(
                SimulateJob(size=4096), RepresentativeSampling(clusters=4, window=1000)
            ),
        )
        assert cell_key(cell) == (
            "e06fd43f6fce28507291dc5d0832880f9f36ff4f86d322bfb3ab98bdedfa3258"
        )

    def test_trace_store_key(self):
        identity = trace_identity(catalog.get("VCCOM"), 30_000)
        assert TraceStore.key_for(identity) == (
            "1b9787e7c52cf4fe7c9b32608791418861681ab814a27b9795fe1404e20e1c5f"
        )


class TestContentKey:
    def test_order_insensitive_hex_digest(self):
        key = content_key({"x": 1, "y": [2, 3]})
        assert key == content_key({"y": [2, 3], "x": 1})
        assert len(key) == 64 and set(key) <= set("0123456789abcdef")


@pytest.fixture
def store(tmp_path):
    return ContentStore(tmp_path / "store", ".bin")


def read_bytes(path):
    data = path.read_bytes()
    if not data.startswith(b"ok:"):
        raise ValueError("torn entry")
    return data


class TestContentStore:
    def test_layout_shards_on_key_prefix(self, store):
        key = content_key("layout")
        path = store.write(key, lambda handle: handle.write(b"ok:1"))
        assert path == store.root / key[:2] / f"{key}.bin"
        assert store.read(key, read_bytes) == b"ok:1"
        assert len(store) == 1

    def test_absent_entry_reads_as_none(self, store):
        assert store.read(content_key("absent"), read_bytes) is None

    def test_torn_entry_is_absent_and_unlinked(self, store):
        key = content_key("torn")
        path = store.write(key, lambda handle: handle.write(b"garbage"))
        assert store.read(key, read_bytes) is None
        assert not path.exists()

    def test_failed_write_leaves_no_temp_file_and_raises(self, store):
        key = content_key("full")

        def full_disk(handle):
            handle.write(b"ok:partial")
            raise OSError(errno.ENOSPC, "No space left on device")

        with pytest.raises(OSError):
            store.write(key, full_disk)
        assert list(store.root.rglob("*")) == [store.path_for(key).parent]

    def test_claim_is_exclusive_until_released(self, store):
        key = content_key("claim")
        assert store.try_claim(key)
        assert not store.try_claim(key, stale_after=60)
        store.release(key)
        assert store.try_claim(key)

    def test_stale_claim_is_stolen(self, store):
        key = content_key("stale")
        assert store.try_claim(key)
        time.sleep(0.05)
        assert not store.try_claim(key)  # no bound: never stolen
        assert store.try_claim(key, stale_after=0.01)


class TestBoundedMemo:
    def test_builds_once_and_evicts_least_recently_used(self):
        memo = BoundedMemo(2)
        built = []

        def build(key):
            return lambda: built.append(key) or key.upper()

        assert memo.get_or_build("a", build("a")) == "A"
        memo.get_or_build("b", build("b"))
        memo.get_or_build("a", build("a"))  # hit: "a" becomes most recent
        memo.get_or_build("c", build("c"))  # evicts "b"
        memo.get_or_build("a", build("a"))
        memo.get_or_build("b", build("b"))
        assert built == ["a", "b", "c", "b"]
        memo.clear()
        memo.get_or_build("a", build("a"))
        assert built[-1] == "a"

    def test_failed_build_stores_nothing(self):
        memo = BoundedMemo(2)

        def fail():
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            memo.get_or_build("k", fail)
        assert memo.get_or_build("k", lambda: "built") == "built"
