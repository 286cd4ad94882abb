"""The fold-batched CV engine against the direct per-rule oracle."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import nsckit.tuning as tuning
from nsckit import (
    Dataset,
    ThresholdRule,
    apply_rule,
    cross_validate,
    deep_search,
    fit_statistics,
    fold_count,
    predict,
    shrink,
    threshold_grid,
)
from nsckit.thresholds import RowSurvival, apply_rules, magnitude_ranks

import oracles

KINDS = ("soft", "hard", "order")


@st.composite
def datasets(draw):
    """Small datasets with the shapes that stress the engine's tie handling.

    Equal class sizes make fold priors tie exactly, duplicated feature rows
    make statistics tie, a constant feature makes them vanish, and a common
    offset of 1e6 inflates the rounding error of the direct scores.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    K = draw(st.integers(2, 4))
    p = draw(st.integers(1, 25))
    if draw(st.booleans()):
        sizes = [draw(st.integers(3, 7))] * K
    else:
        sizes = draw(st.lists(st.integers(3, 7), min_size=K, max_size=K))
    labels = [f"c{k}" for k, nk in enumerate(sizes) for _ in range(nk)]
    shifts = rng.normal(0.0, draw(st.sampled_from([0.0, 0.5, 2.0])), size=(p, K))
    values = rng.normal(size=(p, len(labels))) + shifts[:, [int(c[1:]) for c in labels]]
    if draw(st.booleans()) and p > 1:
        values[1::2] = values[: p // 2 * 2 : 2]
    if draw(st.booleans()) and p > 2:
        values[-1] = 0.5  # a constant feature has all-zero statistics
    values += draw(st.sampled_from([0.0, 1e6]))
    return Dataset.from_arrays(values, labels)


fit_kws = st.fixed_dictionaries(
    {
        "prior_mode": st.sampled_from(["empirical", "uniform"]),
        "mk_mode": st.sampled_from(["paper", "classic"]),
        "s0": st.sampled_from(["median", 0.25]),
    }
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ds=datasets(), kind=st.sampled_from(KINDS), m=st.integers(2, 12),
       seed=st.integers(0, 1000), fit_kw=fit_kws)
def test_cross_validate_equals_direct_oracle(ds, kind, m, seed, fit_kw):
    F = fold_count(ds, 4)
    full = fit_statistics(ds, **fit_kw)
    grid = threshold_grid(full, kind, m)
    curve = cross_validate(ds, grid, F, seed, **fit_kw)
    assert [pt.rule for pt in curve.points] == grid
    assert [pt.cv_error_count for pt in curve.points] == oracles.cv_error_counts_direct(
        ds, grid, F, seed, **fit_kw
    )
    assert [pt.survivor_count for pt in curve.points] == [
        int(np.any(apply_rule(full.t_stats, rule) != 0.0, axis=1).sum()) for rule in grid
    ]


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ds=datasets(), kind=st.sampled_from(KINDS), seed=st.integers(0, 1000),
       fit_kw=fit_kws)
def test_every_deep_search_curve_equals_direct_oracle(ds, kind, seed, fit_kw):
    F = fold_count(ds, 4)
    trace = deep_search(ds, kind, m=6, F=F, seed=seed, **fit_kw)
    for it in trace.iterations:
        grid = [pt.rule for pt in it.curve.points]
        assert [pt.cv_error_count for pt in it.curve.points] == (
            oracles.cv_error_counts_direct(ds, grid, F, seed, **fit_kw)
        )


matrices = st.builds(
    lambda seed, p, K, zeros, levels: _tied_matrix(seed, p, K, zeros, levels),
    st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(1, 4),
    st.floats(0.0, 0.6), st.integers(1, 6),
)


def _tied_matrix(seed, p, K, zeros, levels):
    """Values from a few magnitudes with random signs and zeros, so ties abound."""
    rng = np.random.default_rng(seed)
    D = rng.integers(1, levels + 1, size=(p, K)) * rng.choice([-0.5, 0.5], size=(p, K))
    D[rng.random((p, K)) < zeros] = 0.0
    return D


@given(D=matrices, kind=st.sampled_from(KINDS), data=st.data())
def test_closed_forms_match_apply_rule(D, kind, data):
    if kind == "order":
        params = data.draw(st.lists(st.integers(0, D.size), min_size=1, max_size=6))
    else:
        levels = sorted({0.0, *np.abs(D).ravel().tolist()})
        params = data.draw(st.lists(
            st.one_of(st.sampled_from(levels), st.floats(0.0, 4.0)), min_size=1, max_size=6
        ))
    rules = [ThresholdRule(kind, v) for v in params]
    stacked = apply_rules(D, kind, params)
    for g, rule in enumerate(rules):
        assert np.array_equal(stacked[:, g, :], apply_rule(D, rule))
    survival = RowSurvival(D, kind)
    assert survival.counts(params).tolist() == [
        int(np.any(apply_rule(D, rule) != 0.0, axis=1).sum()) for rule in rules
    ]
    # the survivors of every rule are a prefix of survival.rows
    for rule, count in zip(rules, survival.counts(params)):
        kept = np.flatnonzero(np.any(apply_rule(D, rule) != 0.0, axis=1))
        assert sorted(survival.rows[:count].tolist()) == kept.tolist()
    if kind == "order":
        ranks = magnitude_ranks(D)
        rows = survival.rows[: max(survival.counts(params))]
        prefix = apply_rules(D[rows], kind, params, ranks[rows])
        assert np.array_equal(prefix, stacked[rows])


def test_offset_near_ties_fall_back_to_predict(monkeypatch):
    """With a 1e6 offset some rows are re-scored by predict, and still match."""
    rng = np.random.default_rng(7)
    labels = ["a"] * 6 + ["b"] * 5 + ["c"] * 7
    values = rng.normal(size=(20, len(labels))) + 1e6
    ds = Dataset.from_arrays(values, labels)
    rescored = []
    direct = tuning.predict

    def counting_predict(model, X):
        rescored.append(len(X))
        return direct(model, X)

    monkeypatch.setattr(tuning, "predict", counting_predict)
    grid = threshold_grid(fit_statistics(ds), "soft", 10)
    curve = cross_validate(ds, grid, 3, 5)
    assert sum(rescored) > 0
    assert [pt.cv_error_count for pt in curve.points] == (
        oracles.cv_error_counts_direct(ds, grid, 3, 5)
    )


def test_exact_prior_ties_need_no_fallback(monkeypatch):
    """Vanished classes with equal priors tie exactly and are resolved without predict."""
    rng = np.random.default_rng(3)
    labels = ["a"] * 6 + ["b"] * 6 + ["c"] * 6
    ds = Dataset.from_arrays(rng.normal(size=(15, 18)), labels)
    monkeypatch.setattr(tuning, "predict", None)
    big = float(np.abs(fit_statistics(ds).t_stats).max()) * 10
    grid = [ThresholdRule("hard", big), ThresholdRule("hard", big * 2)]
    curve = cross_validate(ds, grid, 3, 0)
    # every held-out sample goes to the first class, so two thirds are wrong
    assert [pt.cv_error_count for pt in curve.points] == [12, 12]
    assert oracles.cv_error_counts_direct(ds, grid, 3, 0) == [12, 12]


@pytest.mark.parametrize("offset", [0.0, 1e6])
@pytest.mark.parametrize("kind", KINDS)
def test_midpoint_rows_match_predict(kind, offset):
    """Samples halfway between two equal-prior centroids tie up to rounding."""
    rng = np.random.default_rng(11)
    labels = ["a"] * 5 + ["b"] * 5 + ["c"] * 4
    ds = Dataset.from_arrays(rng.normal(size=(12, len(labels))) + offset, labels)
    stats = fit_statistics(ds)
    grid = threshold_grid(stats, kind, 8)
    models = [shrink(stats, rule) for rule in grid]
    X = np.array([(mdl.shrunken_centroids[:, 0] + mdl.shrunken_centroids[:, 1]) / 2
                  for mdl in models])
    fold = tuning._HeldOutFold(stats, None, None, kind)
    got = fold.predict_grid(X, grid, np.array([rule.param for rule in grid]))
    for g, mdl in enumerate(models):
        assert got[:, g].tolist() == predict(mdl, X).tolist()
