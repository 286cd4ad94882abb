import dataclasses
import math

import numpy as np
import pytest

from nsckit import (
    Dataset,
    DeepSearchTrace,
    RunRecord,
    SynthSpec,
    ThresholdRule,
    ValidationError,
    aggregate,
    cross_validate,
    deep_search,
    fit_statistics,
    fold_count,
    generate_synthetic,
    predict,
    run_experiment,
    select_smallest,
    shrink,
    threshold_grid,
)
from nsckit import bench, tuning
from nsckit.bench import METHODS, tune
from nsckit.tuning import DeepSearchIteration


def record(err, survivors=10, method="sth", seed=0):
    return RunRecord(method, seed, ThresholdRule("soft", 1.0), err, survivors)


def spec(**overrides):
    base = dict(
        p=30, n_classes=2, informative=6, shift=2.0,
        n_per_class=(12, 12), noise_sd=1.0, seed=7,
    )
    base.update(overrides)
    return SynthSpec(**base)


class TestSynthSpec:
    def test_validation(self):
        with pytest.raises(ValidationError):
            spec(informative=31)
        with pytest.raises(ValidationError):
            spec(n_per_class=(12,))
        with pytest.raises(ValidationError):
            spec(n_per_class=(12, 1))
        with pytest.raises(ValidationError):
            spec(noise_sd=0.0)
        with pytest.raises(ValidationError, match="seed"):
            spec(seed=-1)


class TestGenerateSynthetic:
    def test_shapes_and_labels(self):
        train, test = generate_synthetic(spec(n_per_class=(12, 8)))
        for ds in (train, test):
            assert ds.p == 30 and ds.n == 20
            assert ds.classes == ("c1", "c2")
            assert list(ds.labels).count("c1") == 12
            assert list(ds.labels).count("c2") == 8

    def test_deterministic_and_train_test_independent(self):
        a_train, a_test = generate_synthetic(spec())
        b_train, b_test = generate_synthetic(spec())
        assert np.array_equal(a_train.values, b_train.values)
        assert np.array_equal(a_test.values, b_test.values)
        assert not np.array_equal(a_train.values, a_test.values)
        c_train, _ = generate_synthetic(spec(seed=8))
        assert not np.array_equal(a_train.values, c_train.values)

    def test_informative_feature_means(self):
        train, _ = generate_synthetic(
            spec(p=40, informative=10, shift=5.0, n_per_class=(200, 200),
                 noise_sd=0.5, seed=1)
        )
        c2 = train.values[:, np.array(train.labels) == "c2"]
        assert np.all(np.abs(c2[:10].mean(axis=1) - 10.0) < 0.3)
        assert np.all(np.abs(c2[10:].mean(axis=1)) < 0.3)

    def test_zero_shift_error_matches_majority_baseline(self):
        # with no signal the classifier cannot beat guessing the larger class
        train, test = generate_synthetic(
            spec(p=10, informative=10, shift=0.0,
                 n_per_class=(60, 140), noise_sd=1.0, seed=3)
        )
        model = shrink(fit_statistics(train), ThresholdRule("soft", 0.0))
        y = np.array([0] * 60 + [1] * 140)
        err = float((predict(model, test.values.T) != y).mean())
        baseline = 1.0 - 140 / 200
        assert abs(err - baseline) < 0.12

    def test_strong_shift_is_perfectly_separable(self):
        train, test = generate_synthetic(
            spec(shift=8.0, noise_sd=0.5, n_per_class=(15, 15))
        )
        model = shrink(fit_statistics(train), ThresholdRule("soft", 0.0))
        y = np.array([0] * 15 + [1] * 15)
        assert np.array_equal(predict(model, test.values.T), y)


@pytest.fixture(scope="module")
def pair():
    return generate_synthetic(spec(shift=1.5, seed=11))


class TestTune:
    # folds=50 is more than the smallest class (12), so tune must cap it
    @pytest.mark.parametrize("kind", ["soft", "hard", "order"])
    def test_grid_only_is_cross_validate_and_select_smallest(self, pair, kind):
        train, _ = pair
        fit_kw = dict(prior_mode="uniform", s0=0.5, mk_mode="classic")
        full = fit_statistics(train, **fit_kw)
        F = fold_count(train, 50)
        curve = cross_validate(train, threshold_grid(full, kind, 8), F, 3, **fit_kw)
        tau = select_smallest(curve)
        want = DeepSearchTrace(
            (DeepSearchIteration(curve, tau, None, False, None, 0),),
            curve.points[tau].rule,
            "grid-only",
        )
        assert tune(train, full, kind, False, 3, m=8, folds=50, **fit_kw) == want

    @pytest.mark.parametrize("kind", ["soft", "hard", "order"])
    def test_deep_is_deep_search(self, pair, kind):
        train, _ = pair
        full = fit_statistics(train, s0=0.5)
        want = deep_search(
            train, kind, m=8, F=fold_count(train, 50), seed=4, big_gap=5, s0=0.5
        )
        assert tune(train, full, kind, True, 4, m=8, folds=50, big_gap=5, s0=0.5) == want

    @pytest.mark.parametrize("deep", [False, True])
    def test_big_gap_must_be_non_negative(self, pair, deep):
        train, _ = pair
        full = fit_statistics(train)
        tune(train, full, "soft", deep, 0, m=8, folds=4, big_gap=0)
        with pytest.raises(ValidationError, match="big_gap"):
            tune(train, full, "soft", deep, 0, m=8, folds=4, big_gap=-1)

    @pytest.mark.parametrize("kind", ["soft", "hard", "order"])
    def test_deep_search_with_the_callers_fit_is_unchanged(self, pair, kind):
        train, _ = pair
        fit_kw = dict(prior_mode="uniform", s0=0.5, mk_mode="classic")
        full = fit_statistics(train, **fit_kw)
        args = dict(m=8, F=4, seed=2, big_gap=5, **fit_kw)
        assert deep_search(train, kind, full=full, **args) == deep_search(train, kind, **args)

    def test_deep_run_experiment_fits_the_full_data_once(self, pair, monkeypatch):
        # a dataset no earlier search saw, so that no folds are kept for it
        train, test = dataclasses.replace(pair[0]), pair[1]
        sizes = []

        def counted(ds, **kw):
            sizes.append(ds.n)
            return fit_statistics(ds, **kw)

        monkeypatch.setattr(bench, "fit_statistics", counted)
        monkeypatch.setattr(tuning, "fit_statistics", counted)
        run_experiment(train, test, "sth2", runs=2, folds=5)
        assert sizes.count(train.n) == 1
        assert len(sizes) == 1 + 2 * 5

    def test_run_experiment_picks_the_tuned_rule(self, pair):
        train, test = pair
        full = fit_statistics(train)
        for method, (kind, deep) in METHODS.items():
            [rec] = run_experiment(train, test, method, runs=1, base_seed=6, folds=4)
            trace = tune(train, full, kind, deep, 6, folds=4)
            assert rec.chosen_rule == trace.final_rule

    def test_run_experiment_passes_the_fit_options_through(self, pair):
        train, test = pair
        fit_kw = dict(prior_mode="uniform", s0=0.5, mk_mode="classic")
        full = fit_statistics(train, **fit_kw)
        for method, (kind, deep) in METHODS.items():
            [rec] = run_experiment(train, test, method, runs=1, base_seed=6, folds=4, **fit_kw)
            rule = tune(train, full, kind, deep, 6, folds=4, **fit_kw).final_rule
            model = shrink(full, rule)
            err_pct = 100.0 * int((predict(model, test.values.T) != test.y).sum()) / test.n
            assert rec == RunRecord(method, 6, rule, err_pct, model.survivors.size)


class TestRunExperiment:

    def test_deterministic(self, pair):
        train, test = pair
        a = run_experiment(train, test, "sth", runs=3, base_seed=5, folds=4)
        b = run_experiment(train, test, "sth", runs=3, base_seed=5, folds=4)
        assert a == b

    def test_seeds_and_fields(self, pair):
        train, test = pair
        recs = run_experiment(train, test, "oth", runs=4, base_seed=9, folds=4)
        assert [rec.seed for rec in recs] == [9, 10, 11, 12]
        for rec in recs:
            assert rec.method == "oth"
            assert rec.chosen_rule.kind == "order"
            assert 0.0 <= rec.test_error_pct <= 100.0
            assert 0 <= rec.survivor_count <= train.p

    def test_order_tuning_recovers_informative_features(self):
        train, test = generate_synthetic(
            spec(p=60, informative=5, shift=3.0, n_per_class=(20, 20),
                 noise_sd=1.0, seed=21)
        )
        recs = run_experiment(train, test, "oth", runs=5, base_seed=0, folds=5)
        agg = aggregate(recs)
        assert agg.mean_error == 0.0
        assert agg.mean_survivors <= 12

    def test_deep_methods_terminate_with_competitive_error(self):
        # paired runs: the deep variant must match or beat the plain grid
        # pick within one CV-error worth of slack, across several seeds
        train, test = generate_synthetic(
            spec(p=40, informative=8, shift=1.0, n_per_class=(12, 12),
                 noise_sd=1.0, seed=31)
        )
        slack = 100.0 / test.n
        for base_seed in range(0, 20, 4):
            plain = run_experiment(
                train, test, "sth", runs=1, base_seed=base_seed, folds=4
            )[0]
            deep = run_experiment(
                train, test, "sth2", runs=1, base_seed=base_seed, folds=4
            )[0]
            assert (
                deep.test_error_pct <= plain.test_error_pct + 3 * slack
                or deep.survivor_count <= plain.survivor_count
            )

    def test_method_table_complete(self):
        assert set(METHODS) == {"sth", "hth", "oth", "sth2", "hth2", "oth2"}
        with pytest.raises(ValidationError):
            run_experiment(*generate_synthetic(spec()), "banana", runs=1)

    def test_test_features_matched_by_name(self, pair):
        train, test = pair
        reversed_values = test.values[::-1]
        permuted = Dataset.from_arrays(reversed_values, test.labels, test.feature_names[::-1])
        unnamed = Dataset.from_arrays(reversed_values, test.labels)
        for method in ("sth", "oth2"):
            want = run_experiment(train, test, method, runs=2, folds=4)
            assert run_experiment(train, permuted, method, runs=2, folds=4) == want
            # without names the columns are scored by position
            assert run_experiment(train, unnamed, method, runs=2, folds=4) != want

    def test_matching_names_score_the_test_matrix_itself(self, pair, monkeypatch):
        train, test = pair
        scored = []

        def spy(model, X):
            scored.append(X)
            return predict(model, X)

        monkeypatch.setattr(bench, "predict", spy)
        run_experiment(train, test, "sth", runs=1, folds=4)
        assert scored and all(np.shares_memory(X, test.values) for X in scored)

    def test_renamed_test_features_rejected(self, pair):
        train, test = pair
        renamed = Dataset.from_arrays(
            test.values, test.labels, ("g1", *test.feature_names[1:])
        )
        with pytest.raises(ValidationError, match=r"missing \['f1'\], extra \['g1'\]"):
            run_experiment(train, renamed, "sth", runs=1)

    def test_mismatched_test_set_rejected(self, pair):
        train, _ = pair
        other, _ = generate_synthetic(spec(p=9, informative=4))
        with pytest.raises(ValidationError):
            run_experiment(train, other, "sth", runs=1)


class TestAggregate:
    def test_equal_values(self):
        agg = aggregate([record(5.0), record(5.0), record(5.0), record(5.0)])
        assert (agg.mean_error, agg.median_error, agg.se_error) == (5.0, 5.0, 0.0)
        assert (agg.mean_survivors, agg.se_survivors) == (10.0, 0.0)

    def test_two_values(self):
        agg = aggregate([record(0.0, survivors=4), record(10.0, survivors=8)])
        assert agg.mean_error == 5.0
        assert agg.median_error == 5.0
        # sd = sqrt(((0-5)^2 + (10-5)^2) / 1) = sqrt(50); se = sd / sqrt(2)
        assert agg.se_error == pytest.approx(math.sqrt(50.0) / math.sqrt(2.0))
        assert agg.mean_survivors == 6.0
        assert agg.se_survivors == pytest.approx(math.sqrt(8.0) / math.sqrt(2.0))

    def test_odd_count_median(self):
        agg = aggregate([record(1.0), record(9.0), record(2.0)])
        assert agg.median_error == 2.0

    def test_requires_two_records(self):
        with pytest.raises(ValidationError):
            aggregate([record(5.0)])
