import math
import tracemalloc

import numpy as np
import pytest

from nsckit import (
    Dataset,
    DegenerateDesignError,
    DegenerateVarianceError,
    ParseError,
    ThresholdRule,
    ValidationError,
    discriminant_scores,
    fit_statistics,
    load_model,
    predict,
    predict_labels,
    save_model,
    shrink,
)

import oracles
from conftest import random_dataset


@pytest.fixture
def worked_example():
    # two features, two classes: class 1 holds (0,0),(2,0); class 2 holds (4,2),(6,2)
    return Dataset.from_arrays(
        np.array([[0.0, 2.0, 4.0, 6.0], [0.0, 0.0, 2.0, 2.0]]),
        ["one", "one", "two", "two"],
    )


def test_fit_statistics_worked_example(worked_example):
    st = fit_statistics(worked_example)
    assert st.overall_centroid[0] == 3.0
    np.testing.assert_array_equal(st.class_centroids[0], [1.0, 5.0])
    assert st.pooled_sd[0] == pytest.approx(math.sqrt(2), abs=1e-12)
    assert st.pooled_sd[1] == 0.0
    assert st.s0 == pytest.approx(math.sqrt(2) / 2, abs=1e-12)
    assert st.m[0] == pytest.approx(math.sqrt(0.75), abs=1e-12)
    expected_d11 = -2.0 / (math.sqrt(0.75) * (math.sqrt(2) + math.sqrt(2) / 2))
    assert st.t_stats[0, 0] == pytest.approx(expected_d11, abs=1e-12)
    assert st.t_stats[0, 0] == pytest.approx(-1.08866, abs=1e-5)


def test_fit_statistics_matches_formula_oracle(rng):
    for _ in range(20):
        ds = random_dataset(rng, max_p=8, max_n=20)
        st = fit_statistics(ds)
        ref = oracles.fit_by_formulas(ds.values.T.tolist(), list(ds.y), ds.n_classes)
        np.testing.assert_allclose(st.overall_centroid, ref["overall"], atol=1e-12)
        np.testing.assert_allclose(st.pooled_sd, ref["s"], atol=1e-12)
        assert st.s0 == pytest.approx(ref["s0"], abs=1e-12)
        np.testing.assert_allclose(st.m, ref["m"], atol=1e-12)
        np.testing.assert_allclose(st.t_stats, ref["d"], atol=1e-10)


def test_zero_statistics_when_class_means_equal_overall():
    ds = Dataset.from_arrays(
        np.array([[1.0, 3.0, 1.0, 3.0], [0.0, 2.0, 0.0, 2.0]]),
        ["A", "A", "B", "B"],
    )
    st = fit_statistics(ds)
    np.testing.assert_array_equal(st.t_stats, np.zeros((2, 2)))


def test_mk_formula_value(rng):
    sizes = [10, 10, 10, 10]
    labels = [f"c{k}" for k, nk in enumerate(sizes) for _ in range(nk)]
    ds = Dataset.from_arrays(rng.normal(size=(3, 40)), labels)
    st = fit_statistics(ds)
    assert st.m[0] == pytest.approx(math.sqrt(0.125), abs=1e-12)
    assert st.m[0] == pytest.approx(0.35355, abs=1e-5)
    classic = fit_statistics(ds, mk_mode="classic")
    assert classic.m[0] == pytest.approx(math.sqrt(1 / 10 - 1 / 40), abs=1e-12)


def test_degenerate_design_and_variance_errors(rng):
    tiny = Dataset.from_arrays(rng.normal(size=(2, 2)), ["A", "B"])
    with pytest.raises(DegenerateDesignError):
        fit_statistics(tiny)
    flat = Dataset.from_arrays(np.ones((2, 6)), ["A"] * 3 + ["B"] * 3)
    with pytest.raises(DegenerateVarianceError):
        fit_statistics(flat)


def test_explicit_s0_and_priors(worked_example):
    st = fit_statistics(worked_example, prior_mode="uniform", s0=0.25)
    assert st.s0 == 0.25
    np.testing.assert_array_equal(st.priors, [0.5, 0.5])
    with pytest.raises(ValidationError):
        fit_statistics(worked_example, s0=-1.0)


def test_shrink_soft_zero_is_identity(rng):
    ds = random_dataset(rng)
    st = fit_statistics(ds)
    model = shrink(st, ThresholdRule("soft", 0.0))
    np.testing.assert_array_equal(model.shrunken_t, st.t_stats)
    np.testing.assert_allclose(model.shrunken_centroids, st.class_centroids, atol=1e-12)
    assert set(model.survivors) == set(np.flatnonzero(np.any(st.t_stats != 0, axis=1)))


def test_shrink_full_hard_collapses_to_overall(rng):
    ds = random_dataset(rng)
    st = fit_statistics(ds)
    big = float(np.abs(st.t_stats).max()) + 1.0
    model = shrink(st, ThresholdRule("hard", big))
    assert model.survivors.size == 0
    for k in range(ds.n_classes):
        np.testing.assert_array_equal(model.shrunken_centroids[:, k], st.overall_centroid)


def test_shrink_soft_half_on_worked_example(worked_example):
    st = fit_statistics(worked_example)
    model = shrink(st, ThresholdRule("soft", 0.5))
    expected = st.t_stats[0, 0] + 0.5  # negative statistic moves toward zero
    assert model.shrunken_t[0, 0] == pytest.approx(expected, abs=1e-12)
    assert model.shrunken_t[0, 0] == pytest.approx(-0.58866, abs=1e-5)


def test_reconstruction_identity(rng):
    for _ in range(30):
        ds = random_dataset(rng, max_p=12)
        st = fit_statistics(ds)
        model = shrink(st, ThresholdRule("soft", float(rng.uniform(0, 2))))
        rebuilt = (
            st.overall_centroid[:, None]
            + st.m[None, :] * (st.pooled_sd + st.s0)[:, None] * model.shrunken_t
        )
        rel = np.abs(model.shrunken_centroids - rebuilt) / (
            1.0 + np.abs(model.shrunken_centroids)
        )
        assert rel.max() < 1e-10


def test_scores_survivor_sum_equals_full_sum(rng):
    for _ in range(25):
        ds = random_dataset(rng, max_p=15)
        st = fit_statistics(ds)
        model = shrink(st, ThresholdRule("soft", float(rng.uniform(0.2, 1.5))))
        X = rng.normal(size=(4, ds.p))
        got = discriminant_scores(model, X)
        full = np.array(
            [
                oracles.nsc_scores(
                    x, model.shrunken_centroids, st.pooled_sd, st.s0, st.priors
                )
                for x in X
            ]
        )
        assert np.max(np.abs(got - full) / (1.0 + np.abs(full))) < 1e-10


def test_predict_holds_about_one_block():
    """Under a rule that keeps about ten of 5000 features, the rest of the
    block is gathered once and its shared term built in place."""
    rng = np.random.default_rng(5)
    ds = Dataset.from_arrays(rng.normal(size=(5000, 15)), ["a", "b", "c"] * 5)
    model = shrink(fit_statistics(ds), ThresholdRule("order", 10))
    X = rng.normal(size=(100, 5000))
    tracemalloc.start()
    try:
        predict(model, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < len(model.survivors) <= 10
    assert peak < 1.5 * X.nbytes


def test_score_minimal_at_own_centroid(rng):
    ds = random_dataset(rng)
    model = shrink(
        fit_statistics(ds, prior_mode="uniform"), ThresholdRule("soft", 0.1)
    )
    for k in range(ds.n_classes):
        scores = discriminant_scores(model, model.shrunken_centroids[:, k])
        assert int(np.argmin(scores)) == k


def test_empirical_prior_penalties():
    ds = Dataset.from_arrays(
        np.array([[0.0, 1.0, 2.0, 10.0]]), ["A", "A", "A", "B"]
    )
    st = fit_statistics(ds)
    np.testing.assert_allclose(st.priors, [0.75, 0.25])
    penalties = -2.0 * np.log(st.priors)
    np.testing.assert_allclose(penalties, [0.57536, 2.77259], atol=1e-5)


def test_predict_matches_brute_force_oracle():
    rng = np.random.default_rng(5150)
    mismatches = 0
    for _ in range(200):
        ds = random_dataset(rng, max_p=50, max_n=40, max_k=4)
        st = fit_statistics(ds)
        model = shrink(st, ThresholdRule("soft", 0.0))
        X = rng.normal(size=(5, ds.p))
        got = predict(model, X)
        want = oracles.nsc_predict(
            X.tolist(), model.shrunken_centroids, st.pooled_sd, st.s0, st.priors
        )
        mismatches += int(np.sum(got != np.array(want)))
    assert mismatches == 0


def test_prediction_invariant_to_constant_score_shift(rng):
    ds = random_dataset(rng)
    model = shrink(fit_statistics(ds), ThresholdRule("hard", 0.5))
    X = rng.normal(size=(10, ds.p))
    scores = discriminant_scores(model, X)
    assert np.array_equal(
        np.argmin(scores, axis=1), np.argmin(scores + 17.5, axis=1)
    )


def test_tie_broken_toward_first_class():
    # identical feature distributions per class and equal priors
    ds = Dataset.from_arrays(
        np.array([[0.0, 1.0, 0.0, 1.0]]), ["A", "A", "B", "B"]
    )
    model = shrink(fit_statistics(ds, prior_mode="uniform"), ThresholdRule("soft", 5.0))
    assert model.survivors.size == 0
    pred = predict(model, np.array([[0.3], [0.9]]))
    assert list(pred) == [0, 0]


def test_separable_training_error_zero(rng):
    half = 12
    values = np.concatenate(
        [rng.normal(0, 0.2, size=(6, half)), rng.normal(4, 0.2, size=(6, half))],
        axis=1,
    )
    ds = Dataset.from_arrays(values, ["lo"] * half + ["hi"] * half)
    model = shrink(fit_statistics(ds), ThresholdRule("soft", 0.0))
    assert np.array_equal(predict(model, ds.values.T), ds.y)


def test_rules_coincide_at_zero_shrinkage(rng):
    ds = random_dataset(rng)
    st = fit_statistics(ds)
    X = rng.normal(size=(20, ds.p))
    preds = [
        predict(shrink(st, rule), X)
        for rule in (
            ThresholdRule("soft", 0.0),
            ThresholdRule("hard", 0.0),
            ThresholdRule("order", st.t_stats.size),
        )
    ]
    assert np.array_equal(preds[0], preds[1])
    assert np.array_equal(preds[0], preds[2])


def test_dimension_mismatch_rejected(rng):
    ds = random_dataset(rng, p=6)
    model = shrink(fit_statistics(ds), ThresholdRule("soft", 0.0))
    with pytest.raises(ValidationError):
        discriminant_scores(model, np.zeros(5))


def test_model_serialization_round_trip(tmp_path, rng):
    ds = random_dataset(rng, p=9)
    ds = Dataset.from_arrays(ds.values, ds.labels, [f"gene {i}" for i in range(9)])
    st = fit_statistics(ds)
    model = shrink(st, ThresholdRule("soft", 0.7071067811865476))
    path = tmp_path / "model.txt"
    save_model(model, path)
    back = load_model(path)
    assert back.rule == model.rule
    for field in ("overall_centroid", "class_centroids", "pooled_sd", "m",
                  "t_stats", "priors"):
        assert np.array_equal(getattr(back.stats, field), getattr(st, field))
    assert back.stats.s0 == st.s0
    assert back.classes == model.classes
    assert np.array_equal(back.shrunken_centroids, model.shrunken_centroids)
    assert np.array_equal(back.survivors, model.survivors)
    assert back.stats.feature_names == st.feature_names == ds.feature_names


@pytest.mark.parametrize("brk", list(",\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"))
@pytest.mark.parametrize("where", ["class", "feature"])
def test_names_that_would_not_read_back_are_refused(tmp_path, rng, brk, where):
    ds = random_dataset(rng, p=3, n_classes=2)
    names = ["a", "b", "c"]
    labels = list(ds.labels)
    if where == "feature":
        names[1] = f"f{brk}2"
    else:
        labels = [f"x{brk}{lab}" if lab == labels[0] else lab for lab in labels]
    ds = Dataset.from_arrays(ds.values, labels, names)
    path = tmp_path / "model.txt"
    with pytest.raises(ValidationError, match="comma or a line break"):
        save_model(shrink(fit_statistics(ds), ThresholdRule("soft", 0.0)), path)
    assert not path.exists()


def test_tabs_spaces_and_equals_signs_in_names_round_trip(tmp_path, rng):
    ds = random_dataset(rng, p=4, n_classes=2)
    names = ["a\tb", " lead", "trail ", "x=y z"]
    labels = ["class one" if k == 0 else "\tk=2 " for k in ds.y]
    ds = Dataset.from_arrays(ds.values, labels, names)
    model = shrink(fit_statistics(ds), ThresholdRule("soft", 0.0))
    path = tmp_path / "model.txt"
    save_model(model, path)
    back = load_model(path)
    assert back.stats.feature_names == tuple(names)
    assert back.classes == model.classes == ("class one", "\tk=2 ")


@pytest.mark.parametrize("field,value,message", [
    ("p=", "-1", "must be positive"),
    ("s0=", "nan", "non-finite number in s0"),
    ("priors ", "0 1", "priors must be positive"),
    ("features=", "a,b", "2 feature names for p=3"),
    ("s0=", "-0.25", "s0 must be >= 0"),
    ("pooled_sd ", "1.0 -1.0 2.0", "pooled_sd must be >= 0"),
    # feature a is constant, so its pooled SD is 0 and s0 = 0 leaves it no scale
    ("s0=", "0.0", r"pooled_sd \+ s0 must be positive"),
    ("m ", "0.5 0.0", "m must be positive"),
    ("m ", "-0.5 0.5", "m must be positive"),
])
def test_malformed_model_file_is_a_parse_error(tmp_path, rng, field, value, message):
    ds = random_dataset(rng, p=3, n_classes=2)
    values = ds.values.copy()
    values[0] = 1.0
    ds = Dataset.from_arrays(values, ds.labels, ["a", "b", "c"])
    path = tmp_path / "model.txt"
    save_model(shrink(fit_statistics(ds), ThresholdRule("soft", 0.0)), path)
    lines = [field + value if ln.startswith(field) else ln
             for ln in path.read_text().splitlines()]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=message):
        load_model(path)


def test_predict_labels_maps_class_names(worked_example):
    model = shrink(fit_statistics(worked_example), ThresholdRule("soft", 0.0))
    assert predict_labels(model, np.array([[0.2, 0.1], [5.9, 2.1]])) == ["one", "two"]
