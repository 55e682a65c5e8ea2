"""Campaign integration: sampled cells, caching, event log, determinism."""

import json
import pickle

import pytest

from repro.campaign import run_campaign
from repro.core.jobs import (
    CampaignCell,
    SimulateJob,
    StackSweepJob,
    TraceSpec,
    cell_key,
)
from repro.sampling import (
    IntervalSampling,
    RepresentativeSampling,
    SampledJob,
    SamplingInfo,
)

LENGTH = 8_000
SIZES = (512, 2048)
PLAN = IntervalSampling(fraction=0.25, window=500, seed=0)


def sweep_cells():
    job = StackSweepJob(sizes=SIZES)
    return [
        CampaignCell("ZGREP", TraceSpec.catalog("ZGREP", LENGTH), job),
        CampaignCell("PLO", TraceSpec.catalog("PLO", LENGTH), job),
    ]


class TestSampledCampaign:
    def test_outcomes_carry_sampling_info(self):
        result = run_campaign(sweep_cells(), workers=1, cache=False, sampling=PLAN)
        for outcome in result.outcomes:
            assert outcome.ok
            info = outcome.sampling
            assert isinstance(info, SamplingInfo)
            assert outcome.value == tuple(e.value for e in info.estimates)
            assert len(info.estimates) == len(SIZES)
            assert 0 < info.measured_references < LENGTH
            assert info.replayed_references >= info.measured_references
            assert info.total_references == LENGTH
            for estimate in info.estimates:
                assert estimate.ci_low <= estimate.value <= estimate.ci_high

    def test_exact_campaign_has_no_sampling_info(self):
        result = run_campaign(sweep_cells(), workers=1, cache=False)
        assert all(outcome.sampling is None for outcome in result.outcomes)

    def test_bit_identical_across_worker_counts(self):
        serial = run_campaign(sweep_cells(), workers=1, cache=False, sampling=PLAN)
        parallel = run_campaign(sweep_cells(), workers=2, cache=False, sampling=PLAN)
        for left, right in zip(serial.outcomes, parallel.outcomes):
            assert left.value == right.value
            assert left.sampling.estimates == right.sampling.estimates
            assert left.key == right.key

    def test_sampled_key_differs_from_exact_key(self):
        exact = run_campaign(sweep_cells(), workers=1, cache=False)
        sampled = run_campaign(sweep_cells(), workers=1, cache=False, sampling=PLAN)
        for left, right in zip(exact.outcomes, sampled.outcomes):
            assert left.key != right.key
        # And two different plans key differently too.
        other_plan = IntervalSampling(fraction=0.25, window=500, seed=1)
        other = run_campaign(
            sweep_cells(), workers=1, cache=False, sampling=other_plan
        )
        for left, right in zip(sampled.outcomes, other.outcomes):
            assert left.key != right.key

    def test_cache_round_trips_sampling_info(self, tmp_path):
        first = run_campaign(
            sweep_cells(), workers=1, cache=tmp_path, sampling=PLAN
        )
        second = run_campaign(
            sweep_cells(), workers=1, cache=tmp_path, sampling=PLAN
        )
        assert second.cached_cells == len(second.outcomes)
        for fresh, cached in zip(first.outcomes, second.outcomes):
            assert cached.cached
            assert cached.value == fresh.value
            assert cached.sampling.estimates == fresh.sampling.estimates

    def test_event_log_records_sampling_block(self, tmp_path):
        events = tmp_path / "events.jsonl"
        run_campaign(
            sweep_cells(), workers=1, cache=False, events=events, sampling=PLAN
        )
        finished = [
            record
            for record in map(json.loads, events.read_text().splitlines())
            if record["event"] == "cell_finished"
        ]
        assert len(finished) == 2
        for record in finished:
            block = record["sampling"]
            assert block["plan"]["plan"] == "interval"
            assert block["unit"] == "interval"
            assert block["sampled_references"] > 0
            assert block["total_references"] == LENGTH
            assert len(block["estimates"]) == len(SIZES)
            for entry in block["estimates"]:
                low, high = entry["ci"]
                assert low <= entry["value"] <= high

    def test_event_log_is_strict_json_when_an_estimate_is_nan(self, tmp_path):
        # PLO has no instruction fetches, so its sampled instruction miss
        # ratio is NaN; the log must still hold only standard JSON.
        events = tmp_path / "events.jsonl"
        cells = [
            CampaignCell("PLO", TraceSpec.catalog("PLO", LENGTH), SimulateJob(size=1024))
        ]
        result = run_campaign(
            cells, workers=1, cache=False, events=events,
            sampling=RepresentativeSampling(),
        )
        assert any(e.value != e.value for e in result.outcomes[0].sampling.estimates)

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        records = [
            json.loads(line, parse_constant=reject)
            for line in events.read_text().splitlines()
        ]
        finished = next(r for r in records if r["event"] == "cell_finished")
        assert finished["sampling"]["estimates"][1]["value"] is None

    def test_pre_wrapped_cells_are_not_double_wrapped(self):
        job = SampledJob(StackSweepJob(sizes=SIZES), PLAN)
        cells = [CampaignCell("ZGREP", TraceSpec.catalog("ZGREP", LENGTH), job)]
        result = run_campaign(cells, workers=1, cache=False, sampling=PLAN)
        assert result.outcomes[0].ok
        assert result.outcomes[0].sampling is not None

    def test_sampled_job_is_picklable(self):
        job = SampledJob(SimulateJob(size=1024), PLAN)
        clone = pickle.loads(pickle.dumps(job))
        assert clone == job

    def test_sampled_cell_key_is_stable(self):
        job = SampledJob(StackSweepJob(sizes=SIZES), PLAN)
        cell = CampaignCell("ZGREP", TraceSpec.catalog("ZGREP", LENGTH), job)
        assert cell_key(cell) == cell_key(cell)
