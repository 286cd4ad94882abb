import dataclasses

import numpy as np
import pytest

import nsckit.tuning as tuning
from nsckit import (
    CvCurve,
    CvPoint,
    DeepSearchError,
    SynthSpec,
    ThresholdRule,
    ValidationError,
    cross_validate,
    deep_search,
    fit_statistics,
    fold_count,
    generate_synthetic,
    select_smallest,
    threshold_grid,
)
from nsckit.tuning import (
    _candidate_interval,
    _refine_grid,
    _switch_to_runner_up,
)

from conftest import random_dataset


def make_curve(errors, survivors, kind="soft"):
    params = (
        [float(i) for i in range(len(errors))]
        if kind != "order"
        else list(range(len(errors)))[::-1]
    )
    return CvCurve(
        tuple(
            CvPoint(ThresholdRule(kind, t), e, g)
            for t, e, g in zip(params, errors, survivors)
        )
    )


def separable_dataset(seed=0):
    return generate_synthetic(
        SynthSpec(p=20, n_classes=2, informative=6, shift=4.0,
                  n_per_class=(10, 10), noise_sd=0.5, seed=seed)
    )[0]


class TestSelectSmallest:
    def test_tie_broken_by_survivors(self):
        curve = make_curve([6, 4, 4, 7], [5000, 3000, 40, 20])
        assert select_smallest(curve) == 2

    def test_unique_minimum_at_end(self):
        curve = make_curve([9, 7, 5, 3], [40, 30, 20, 10])
        assert select_smallest(curve) == 3

    def test_all_tied_takes_largest_shrinkage(self):
        curve = make_curve([4, 4, 4], [30, 20, 10])
        assert select_smallest(curve) == 2


class TestCrossValidate:
    def test_separable_has_zero_error(self):
        ds = separable_dataset()
        curve = cross_validate(ds, [ThresholdRule("soft", 0.0)], F=5, seed=3)
        assert curve.points[0].cv_error_count == 0

    def test_deterministic(self):
        ds = separable_dataset(seed=4)
        grid = threshold_grid(fit_statistics(ds), "soft", 5)
        a = cross_validate(ds, grid, F=4, seed=11)
        b = cross_validate(ds, grid, F=4, seed=11)
        assert a == b

    def test_full_shrinkage_falls_to_prior_favored_class(self, rng):
        values = np.column_stack(
            [rng.normal(0, 1, size=(4, 12)), rng.normal(3, 1, size=(4, 4))]
        )
        ds = type(separable_dataset()).from_arrays(values, ["A"] * 12 + ["B"] * 4)
        stats = fit_statistics(ds)
        big = float(np.abs(stats.t_stats).max()) + 1
        curve = cross_validate(ds, [ThresholdRule("soft", big)], F=4, seed=0)
        pt = curve.points[0]
        assert pt.survivor_count == 0
        # every held-out B sample is misclassified as the majority class
        assert pt.cv_error_count == 4

    def test_rejects_single_fold_and_empty_grid(self):
        ds = separable_dataset()
        with pytest.raises(ValidationError):
            cross_validate(ds, [ThresholdRule("soft", 0.0)], F=1, seed=0)
        with pytest.raises(ValidationError):
            cross_validate(ds, [], F=3, seed=0)

    def test_order_count_past_statistic_count_rejected_before_any_fit(self, monkeypatch):
        ds = generate_synthetic(
            SynthSpec(p=10, n_classes=2, informative=4, shift=4.0,
                      n_per_class=(10, 10), noise_sd=0.5, seed=0)
        )[0]
        # p * K = 20 statistics: keeping all of them is a valid rule
        cross_validate(ds, [ThresholdRule("order", 20)], F=4, seed=0)
        fits = []
        monkeypatch.setattr(tuning, "fit_statistics", lambda *a, **kw: fits.append(a))
        grid = [ThresholdRule("order", 100), ThresholdRule("order", 10)]
        with pytest.raises(ValidationError) as err:
            cross_validate(ds, grid, F=4, seed=0)
        assert str(err.value) == "retained count 100 exceeds statistic count 20"
        assert fits == []

    def test_mixed_rule_kinds_rejected(self):
        ds = separable_dataset()
        grid = [ThresholdRule("soft", 0.0), ThresholdRule("hard", 0.0)]
        with pytest.raises(ValidationError):
            cross_validate(ds, grid, F=3, seed=0)


class TestSwitchDecision:
    def test_halving_with_error_gap_one(self):
        tau = CvPoint(ThresholdRule("soft", 1.0), 4, 5000)
        nu = CvPoint(ThresholdRule("soft", 6.0), 5, 30)
        assert _switch_to_runner_up(tau, nu, big_gap=2000, anchor_error=4)

    def test_leukemia_style_big_gap(self):
        # smallest error at threshold 0.418878 keeps 10283 genes; runner-up
        # at 7.539809 keeps 26 with one more CV error
        tau = CvPoint(ThresholdRule("soft", 0.418878), 5, 10283)
        nu = CvPoint(ThresholdRule("soft", 7.539809), 6, 26)
        assert _switch_to_runner_up(tau, nu, big_gap=2000, anchor_error=5)

    def test_error_gap_two_blocks_switch(self):
        tau = CvPoint(ThresholdRule("soft", 1.0), 4, 5000)
        nu = CvPoint(ThresholdRule("soft", 6.0), 6, 30)
        assert not _switch_to_runner_up(tau, nu, big_gap=2000, anchor_error=4)

    def test_small_survivor_gain_blocks_switch(self):
        tau = CvPoint(ThresholdRule("soft", 1.0), 4, 100)
        nu = CvPoint(ThresholdRule("soft", 6.0), 5, 60)
        assert not _switch_to_runner_up(tau, nu, big_gap=2000, anchor_error=4)


class TestCandidateInterval:
    def test_interior_both_sides(self):
        # left drop 20 < m and right drop 40 > 1: refine across both
        assert _candidate_interval([70, 50, 10, 5], ell=1, m=30) == (0, 2)

    def test_right_only_when_left_drop_too_big(self):
        assert _candidate_interval([100, 50, 10], ell=1, m=30) == (1, 2)

    def test_left_only_when_right_drop_is_one(self):
        assert _candidate_interval([60, 50, 49], ell=1, m=30) == (0, 1)

    def test_no_interval_terminates(self):
        # right drop of one survivor and left drop of at least m
        assert _candidate_interval([200, 50, 49], ell=1, m=30) is None

    def test_boundaries(self):
        assert _candidate_interval([100, 50], ell=0, m=30) == (0, 1)
        assert _candidate_interval([100, 80], ell=1, m=30) == (0, 1)
        assert _candidate_interval([100, 99], ell=0, m=30) is None
        assert _candidate_interval([100, 50], ell=1, m=30) is None


class TestRefineGrid:
    def test_soft_interior_points_evenly_spaced(self):
        grid = _refine_grid(ThresholdRule("soft", 1.0), ThresholdRule("soft", 2.0), 4)
        params = [r.param for r in grid]
        np.testing.assert_allclose(params, [1.2, 1.4, 1.6, 1.8])

    def test_order_rounds_to_distinct_interior_integers(self):
        grid = _refine_grid(ThresholdRule("order", 20), ThresholdRule("order", 10), 30)
        params = [r.param for r in grid]
        assert params == list(range(19, 10, -1))

    def test_order_adjacent_bounds_give_empty_grid(self):
        assert _refine_grid(ThresholdRule("order", 5), ThresholdRule("order", 4), 3) == []


class TestDeepSearch:
    def test_deterministic_trace(self):
        # an equal but distinct dataset, so that the second search fits its
        # folds afresh instead of reusing the first search's
        ds = separable_dataset(seed=9)
        a = deep_search(ds, "soft", m=8, F=4, seed=2)
        b = deep_search(dataclasses.replace(ds), "soft", m=8, F=4, seed=2)
        assert a == b

    def test_final_rule_in_last_grid(self):
        ds = separable_dataset(seed=5)
        for kind in ("soft", "hard", "order"):
            trace = deep_search(ds, kind, m=8, F=4, seed=1)
            last_rules = [pt.rule for pt in trace.iterations[-1].curve.points]
            assert trace.final_rule in last_rules

    def test_grids_nest_in_threshold_space(self):
        ds = separable_dataset(seed=6)
        trace = deep_search(ds, "soft", m=10, F=4, seed=3)
        for prev, cur in zip(trace.iterations, trace.iterations[1:]):
            lo, hi = prev.interval
            a = prev.curve.points[lo].rule.param
            b = prev.curve.points[hi].rule.param
            for pt in cur.curve.points:
                assert a < pt.rule.param < b

    def test_error_never_worse_than_initial_best_plus_one(self):
        for seed in range(15):
            ds = generate_synthetic(
                SynthSpec(p=25, n_classes=3, informative=5, shift=1.0,
                          n_per_class=(7, 7, 7), noise_sd=1.0, seed=seed)
            )[0]
            F = fold_count(ds, 5)
            trace = deep_search(ds, "soft", m=10, F=F, seed=seed)
            initial_best = min(
                pt.cv_error_count for pt in trace.iterations[0].curve.points
            )
            final_err = next(
                pt.cv_error_count
                for pt in trace.iterations[-1].curve.points
                if pt.rule == trace.final_rule
            )
            assert final_err <= initial_best + 1

    def test_iteration_cap_raises(self, monkeypatch):
        ds = separable_dataset(seed=2)
        monkeypatch.setattr(tuning, "MAX_ITERATIONS", 0)
        with pytest.raises(DeepSearchError):
            deep_search(ds, "soft", m=8, F=4, seed=0)

    def test_negative_big_gap_rejected(self):
        ds = separable_dataset(seed=2)
        with pytest.raises(ValidationError, match="big_gap"):
            deep_search(ds, "soft", m=8, F=4, seed=0, big_gap=-1)
