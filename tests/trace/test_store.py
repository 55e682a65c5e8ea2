"""Tests for the content-addressed trace store."""

import errno
import json
import threading

import numpy as np
import pytest

from repro.campaign import run_campaign
from repro.core.jobs import CampaignCell, StackSweepJob, TraceSpec
from repro.store import ContentStore
from repro.trace import AccessKind
from repro.trace.store import TRACE_STORE_ENV, TraceStore
from repro.workloads import catalog
from repro.workloads.generator import SyntheticWorkload, trace_identity

from ..conftest import make_trace


IDENTITY = {"generator": 2, "length": 3, "params": {"name": "toy", "seed": 0}}


def toy_trace():
    return make_trace(
        [
            (AccessKind.IFETCH, 0x1000, 4),
            (AccessKind.READ, 0x2000, 8),
            (AccessKind.WRITE, 0x2008, 2),
        ],
        name="toy",
    )


@pytest.fixture
def store(tmp_path):
    return TraceStore(tmp_path / "store")


class TestKeying:
    def test_key_is_stable_and_order_insensitive(self):
        a = TraceStore.key_for({"x": 1, "y": [2, 3]})
        b = TraceStore.key_for({"y": [2, 3], "x": 1})
        assert a == b
        assert len(a) == 64 and all(c in "0123456789abcdef" for c in a)

    def test_different_identities_get_different_keys(self):
        base = TraceStore.key_for(IDENTITY)
        longer = TraceStore.key_for({**IDENTITY, "length": 4})
        assert base != longer

    def test_path_shards_on_key_prefix(self, store):
        key = TraceStore.key_for(IDENTITY)
        path = store.path_for(key)
        assert path.parent.name == key[:2]
        assert path.name == f"{key}.rtrc"

    def test_catalog_identity_includes_generator_version(self):
        params = catalog.get("VCCOM")
        identity = trace_identity(params, 1000)
        assert identity["generator"] >= 2
        assert identity["length"] == 1000
        assert identity["params"]["name"] == "VCCOM"


class TestGetOrCreate:
    def test_miss_builds_then_hit_serves_same_content(self, store):
        built, hit = store.get_or_create(IDENTITY, toy_trace)
        assert hit is False
        assert len(store) == 1
        again, hit = store.get_or_create(
            IDENTITY, lambda: pytest.fail("builder must not run on a hit")
        )
        assert hit is True
        assert again == toy_trace()

    def test_round_trip_matches_direct_generation(self, store):
        params = catalog.get("ZGREP")
        direct = SyntheticWorkload(params).generate(2_000)
        stored, hit = store.get_or_create(
            trace_identity(params, 2_000),
            lambda: SyntheticWorkload(params).generate(2_000),
        )
        assert hit is False
        np.testing.assert_array_equal(stored.addresses, direct.addresses)
        np.testing.assert_array_equal(stored.kinds, direct.kinds)
        np.testing.assert_array_equal(stored.sizes, direct.sizes)

    def test_hits_are_memory_mapped_views(self, store):
        store.get_or_create(IDENTITY, toy_trace)
        trace, hit = store.get_or_create(IDENTITY, toy_trace)
        assert hit is True
        base = trace.addresses.base
        while base is not None and not isinstance(base, np.memmap):
            base = getattr(base, "base", None)
        assert isinstance(base, np.memmap)

    def test_mmap_false_copies(self, store):
        store.get_or_create(IDENTITY, toy_trace)
        trace, hit = store.get_or_create(IDENTITY, toy_trace, mmap=False)
        assert hit is True
        assert trace == toy_trace()

    def test_corrupt_file_is_rebuilt_not_served(self, store):
        store.get_or_create(IDENTITY, toy_trace)
        path = store.path_for(store.key_for(IDENTITY))
        path.write_bytes(b"garbage, not an rtrc file")
        trace, hit = store.get_or_create(IDENTITY, toy_trace)
        assert hit is False  # rebuilt
        assert trace == toy_trace()
        # and the store file is healthy again
        _, hit = store.get_or_create(IDENTITY, toy_trace)
        assert hit is True

    def test_truncated_file_is_rebuilt(self, store):
        store.get_or_create(IDENTITY, toy_trace)
        path = store.path_for(store.key_for(IDENTITY))
        path.write_bytes(path.read_bytes()[:20])
        trace, hit = store.get_or_create(IDENTITY, toy_trace)
        assert hit is False
        assert trace == toy_trace()

    def test_concurrent_writers_agree(self, store):
        # Many threads race one cold key; every resolver must come back
        # with the full trace and the store must end up with one file.
        results = []
        barrier = threading.Barrier(8)

        def resolve():
            barrier.wait()
            trace, _hit = store.get_or_create(IDENTITY, toy_trace)
            results.append(trace)

        threads = [threading.Thread(target=resolve) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(results) == 8
        expected = toy_trace()
        for trace in results:
            assert trace == expected
        assert len(store) == 1


class TestEnvDiscovery:
    def test_from_env_unset_is_none(self, monkeypatch):
        monkeypatch.delenv(TRACE_STORE_ENV, raising=False)
        assert TraceStore.from_env() is None

    def test_from_env_set_points_at_directory(self, monkeypatch, tmp_path):
        monkeypatch.setenv(TRACE_STORE_ENV, str(tmp_path / "shared"))
        store = TraceStore.from_env()
        assert store is not None
        assert store.root == tmp_path / "shared"
        assert store.root.is_dir()

    def test_catalog_generate_uses_store(self, monkeypatch, tmp_path):
        monkeypatch.setenv(TRACE_STORE_ENV, str(tmp_path / "shared"))
        catalog._MEMO.clear()
        try:
            trace = catalog.generate("ZGREP", 1_500)
            assert len(trace) == 1_500
            store = TraceStore.from_env()
            assert store.contains(trace_identity(catalog.get("ZGREP"), 1_500))
        finally:
            catalog._MEMO.clear()


class TestCatalogMemo:
    def test_repeat_calls_return_identical_object(self):
        catalog._MEMO.clear()
        try:
            first = catalog.generate("ZGREP", 1_000)
            second = catalog.generate("ZGREP", 1_000)
            assert first is second
        finally:
            catalog._MEMO.clear()

    def test_default_length_normalizes_key(self):
        catalog._MEMO.clear()
        try:
            explicit = catalog.generate("ZGREP", catalog.default_length("ZGREP"))
            implicit = catalog.generate("ZGREP")
            assert explicit is implicit
        finally:
            catalog._MEMO.clear()


class TestUnwritableStore:
    def test_cells_run_on_the_built_trace(self, monkeypatch, tmp_path):
        """A full disk under the trace store costs the stored copy, not
        the cells: each trace is served from memory, and priming reports
        the failed write."""
        monkeypatch.setenv(TRACE_STORE_ENV, str(tmp_path / "shared"))

        def full_disk(self, key, dump):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(ContentStore, "write", full_disk)
        spec = TraceSpec.catalog("VCCOM", 3_000)
        cells = [
            CampaignCell(f"VCCOM/{size}", spec, StackSweepJob(sizes=(size,)))
            for size in (1024, 4096)
        ]
        events = tmp_path / "events.jsonl"
        catalog._MEMO.clear()
        try:
            result = run_campaign(
                cells, workers=1, cache=False, events=events, backoff=0
            )
        finally:
            catalog._MEMO.clear()
        assert not result.failures()
        assert [o.references for o in result.outcomes] == [3_000, 3_000]
        assert len(TraceStore.from_env()) == 0
        records = [json.loads(line) for line in events.read_text().splitlines()]
        errors = [r for r in records if r["event"] == "trace_store_error"]
        assert [(r["name"], r["error"]) for r in errors] == [("VCCOM", "OSError")]
