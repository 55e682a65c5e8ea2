"""Tests for sampling plans: validation, window selection, set classes."""

import numpy as np
import pytest

from repro.sampling import (
    Interval,
    IntervalSampling,
    SetSampling,
    kmeans,
    select_intervals,
    select_set_classes,
)


class TestIntervalSamplingValidation:
    def test_zero_fraction_is_an_empty_plan(self):
        with pytest.raises(ValueError, match="empty sampling plan"):
            IntervalSampling(fraction=0.0)

    def test_fraction_above_one_rejected(self):
        with pytest.raises(ValueError, match="fraction"):
            IntervalSampling(fraction=1.5)

    def test_nonpositive_window_rejected(self):
        with pytest.raises(ValueError, match="window"):
            IntervalSampling(window=0)

    def test_fraction_above_ceiling_rejected(self):
        with pytest.raises(ValueError, match="max_fraction"):
            IntervalSampling(fraction=0.6, max_fraction=0.5)

    def test_growth_must_exceed_one(self):
        with pytest.raises(ValueError, match="growth"):
            IntervalSampling(growth=1.0)

    def test_warmup_references_follow_the_fraction(self):
        assert IntervalSampling(window=1000,
                                warmup_fraction=0.5).warmup_references == 500
        assert IntervalSampling(warmup_fraction=0.0).warmup_references == 0

    def test_grown_caps_at_max_fraction(self):
        plan = IntervalSampling(fraction=0.4, max_fraction=0.5, growth=2.0)
        assert plan.grown().fraction == 0.5
        assert plan.grown().window == plan.window

    def test_identity_is_json_able(self):
        import json

        identity = IntervalSampling().identity()
        assert identity["plan"] == "interval"
        json.dumps(identity)


class TestSetSamplingValidation:
    def test_zero_keep_is_an_empty_plan(self):
        with pytest.raises(ValueError, match="empty sampling plan"):
            SetSampling(keep=0)

    def test_keep_beyond_classes_rejected(self):
        with pytest.raises(ValueError, match="keep"):
            SetSampling(bits=2, keep=5)

    def test_classes_property(self):
        assert SetSampling(bits=3, keep=2).classes == 8

    def test_identity_distinct_from_interval(self):
        assert SetSampling().identity()["plan"] == "set"

    def test_class_choice_is_seeded_and_sorted(self):
        first = select_set_classes(SetSampling(bits=4, keep=3, seed=7))
        again = select_set_classes(SetSampling(bits=4, keep=3, seed=7))
        other = select_set_classes(SetSampling(bits=4, keep=3, seed=8))
        assert first == again
        assert list(first) == sorted(first)
        assert len(set(first)) == 3
        assert all(0 <= c < 16 for c in first)
        assert first != other or True  # different seeds usually differ


class TestSelectIntervals:
    def test_empty_trace_selects_nothing(self):
        selection = select_intervals(IntervalSampling(), 0)
        assert selection.intervals == ()
        assert selection.candidates == 0

    def test_window_covering_trace_degenerates_to_whole_trace(self):
        selection = select_intervals(IntervalSampling(window=5000), 3000)
        assert selection.intervals == (Interval(0, 3000),)
        assert selection.expansion.tolist() == [1.0]

    def test_systematic_windows_are_distinct_and_ordered(self):
        plan = IntervalSampling(fraction=0.25, window=100)
        selection = select_intervals(plan, 10_000)
        starts = [iv.start for iv in selection.intervals]
        assert starts == sorted(starts)
        assert len(set(starts)) == len(starts)
        assert len(selection.intervals) == 25
        assert selection.candidates == 100
        # Expansion weights stand for all candidate windows.
        assert selection.expansion.sum() == pytest.approx(100)

    def test_systematic_is_deterministic_per_seed(self):
        plan = IntervalSampling(fraction=0.2, window=100, seed=3)
        first = select_intervals(plan, 10_000)
        again = select_intervals(plan, 10_000)
        assert first.intervals == again.intervals

    def test_systematic_phase_is_seeded(self):
        # Seeds 5 and 6 draw phases 4.03 and 2.69 of the 5-window stride.
        plan = IntervalSampling(fraction=0.2, window=100, seed=5)
        first = select_intervals(plan, 10_000)
        again = select_intervals(plan, 10_000)
        other = select_intervals(
            IntervalSampling(fraction=0.2, window=100, seed=6), 10_000
        )
        assert first.intervals == again.intervals
        assert first.intervals != other.intervals
        starts = [iv.start for iv in first.intervals]
        assert starts == sorted(starts)
        assert len(set(starts)) == len(starts)

    def test_windows_never_exceed_the_trace(self):
        plan = IntervalSampling(fraction=0.9, max_fraction=1.0, window=300)
        selection = select_intervals(plan, 1000)
        for interval in selection.intervals:
            assert 0 <= interval.start < interval.stop <= 1000


class TestKmeans:
    """Edge cases of the shared seeded Lloyd clustering."""

    def test_deterministic_for_a_seed(self):
        rng = np.random.default_rng(7)
        features = np.random.default_rng(0).normal(size=(40, 3))
        labels, centers = kmeans(features, 5, np.random.default_rng(7))
        again, centers_again = kmeans(features, 5, np.random.default_rng(7))
        assert (labels == again).all()
        assert np.array_equal(centers, centers_again)
        other, _ = kmeans(features, 5, np.random.default_rng(8))
        assert labels.shape == other.shape

    def test_no_points_yields_no_labels(self):
        labels, centers = kmeans(np.empty((0, 4)), 3, np.random.default_rng(0))
        assert labels.shape == (0,)
        assert centers.shape == (0, 4)

    def test_clusters_clamped_to_point_count(self):
        features = np.arange(6, dtype=float).reshape(3, 2)
        labels, centers = kmeans(features, 10, np.random.default_rng(0))
        assert len(labels) == 3
        assert len(centers) == 3
        assert sorted(set(labels.tolist())) == [0, 1, 2]

    def test_duplicate_points_stay_in_one_cluster(self):
        features = np.array([[0.0, 0.0]] * 8 + [[10.0, 10.0]] * 8)
        labels, _ = kmeans(features, 2, np.random.default_rng(1))
        assert len(set(labels[:8].tolist())) == 1
        assert len(set(labels[8:].tolist())) == 1
        assert labels[0] != labels[8]

    def test_empty_cluster_is_reseeded(self):
        # Three tight groups but one far outlier: with enough clusters a
        # center drawn between groups goes empty mid-iteration and must
        # be reseeded onto the farthest point, not silently dropped.
        rng = np.random.default_rng(2)
        groups = [rng.normal(loc, 0.01, size=(20, 2)) for loc in (0.0, 5.0, 10.0)]
        features = np.vstack(groups + [np.array([[100.0, 100.0]])])
        labels, centers = kmeans(features, 4, np.random.default_rng(1), iterations=25)
        assert len(centers) == 4
        # Reseeding keeps every cluster populated...
        assert len(set(labels.tolist())) == 4
        # ...and this seeding isolates the outlier in its own cluster.
        outlier_label = labels[-1]
        assert (labels == outlier_label).sum() == 1
