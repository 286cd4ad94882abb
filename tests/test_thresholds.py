import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsckit import (
    ThresholdRule,
    ValidationError,
    apply_rule,
    fit_statistics,
    hard,
    order,
    parse_rule,
    soft,
    threshold_grid,
)

from nsckit.thresholds import KINDS, magnitude_order, magnitude_ranks

import oracles
from conftest import random_dataset, tied_matrix

finite = st.floats(-1e6, 1e6, allow_nan=False)
nonneg = st.floats(0, 1e6, allow_nan=False)


def test_soft_examples():
    assert soft(2.5, 1.0) == 1.5
    assert soft(-0.5, 1.0) == 0.0
    assert soft(-3.0, 0.0) == -3.0


def test_hard_examples():
    assert hard(2.5, 1.0) == 2.5
    assert hard(0.9, 1.0) == 0.0
    # boundary is zeroed: the keep condition is strict
    assert hard(1.0, 1.0) == 0.0


def test_negative_threshold_rejected():
    with pytest.raises(ValidationError):
        soft(1.0, -0.1)
    with pytest.raises(ValidationError):
        hard(1.0, -0.1)
    with pytest.raises(ValidationError):
        ThresholdRule("soft", -1.0)
    for delta in (math.nan, math.inf):
        with pytest.raises(ValidationError):
            soft(1.0, delta)
        with pytest.raises(ValidationError):
            hard(1.0, delta)
        with pytest.raises(ValidationError):
            order(np.ones((2, 2)), delta)


@given(d=finite, delta=nonneg)
def test_soft_hard_are_odd_functions(d, delta):
    assert soft(-d, delta) == -soft(d, delta)
    assert hard(-d, delta) == -hard(d, delta)


@given(d=finite, d1=nonneg, d2=nonneg)
def test_magnitude_nonincreasing_in_threshold(d, d1, d2):
    lo, hi = sorted([d1, d2])
    assert abs(soft(d, hi)) <= abs(soft(d, lo))
    assert abs(hard(d, hi)) <= abs(hard(d, lo))


def test_order_top_two_by_magnitude():
    D = np.array([[3.0], [-2.0], [0.5]])
    np.testing.assert_array_equal(order(D, 2), [[3.0], [-2.0], [0.0]])


def test_order_identity_and_zero():
    D = np.array([[1.0, -2.0], [0.0, 4.0]])
    np.testing.assert_array_equal(order(D, 4), D)
    np.testing.assert_array_equal(order(D, 0), np.zeros((2, 2)))


def test_order_tie_break_prefers_earlier_row_then_column():
    D = np.array([[2.0, -2.0], [2.0, 1.0]])
    out = order(D, 2)
    np.testing.assert_array_equal(out, [[2.0, -2.0], [0.0, 0.0]])


def test_order_never_counts_zeros_as_retained():
    D = np.array([[1.0, 0.0], [0.0, 0.0]])
    out = order(D, 3)
    assert np.count_nonzero(out) == 1


def test_order_rejects_too_large_count():
    with pytest.raises(ValidationError):
        order(np.ones((2, 2)), 5)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10**6), keep=st.integers(0, 12))
def test_order_count_exactness_and_scale_invariance(seed, keep):
    rng = np.random.default_rng(seed)
    D = np.round(rng.normal(size=(4, 3)), 2)
    out = order(D, keep)
    expected = min(keep, np.count_nonzero(D))
    assert np.count_nonzero(out) == expected
    scaled = order(D * 7.25, keep)
    assert np.array_equal(scaled != 0, out != 0)


@st.composite
def tie_free_matrices(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    D = rng.normal(size=(draw(st.integers(1, 40)), draw(st.integers(1, 5))))
    assert np.unique(np.abs(D)).size == D.size
    return D


@st.composite
def tied_matrices(draw):
    """A :func:`tied_matrix` with a 0.0 / -0.0 pair put in."""
    seed = draw(st.integers(0, 2**32 - 1))
    D = tied_matrix(seed, draw(st.integers(2, 12)), draw(st.integers(1, 4)),
                    draw(st.floats(0.0, 0.6)), draw(st.integers(1, 6)))
    i, j = np.random.default_rng(seed).choice(D.size, 2, replace=False)
    D.flat[i], D.flat[j] = 0.0, -0.0
    return D


@pytest.mark.parametrize("matrices", [tie_free_matrices(), tied_matrices()],
                         ids=["tie-free", "tied"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_magnitude_ranks_equal_direct_oracle(matrices, data):
    D = data.draw(matrices)
    assert magnitude_ranks(D).tolist() == oracles.magnitude_ranks_direct(D.tolist())
    ranks = magnitude_ranks(D).ravel()
    assert ranks[magnitude_order(D)].tolist() == list(range(D.size))


@st.composite
def rounded_matrices(draw):
    """Normal entries rounded to one decimal, with a 0.0 / -0.0 pair put in."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    D = np.round(rng.normal(size=(draw(st.integers(2, 30)), draw(st.integers(1, 4)))), 1)
    i, j = rng.choice(D.size, 2, replace=False)
    D.flat[i], D.flat[j] = 0.0, -0.0
    return D


@pytest.mark.parametrize("matrices", [tie_free_matrices(), rounded_matrices(), tied_matrices()],
                         ids=["tie-free", "rounded", "tied"])
@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(KINDS), data=st.data())
def test_apply_rule_equals_direct_definition(matrices, kind, data):
    """Every rule against its definition: equal on every entry, bit for bit
    where nonzero, and +0.0 wherever an entry is dropped."""
    D = data.draw(matrices)
    if kind == "order":
        param = data.draw(st.integers(0, D.size))
    else:
        levels = sorted({0.0, *np.abs(D).ravel().tolist()})
        param = data.draw(st.one_of(st.sampled_from(levels), st.floats(0.0, levels[-1] + 1.0)))
    rule = ThresholdRule(kind, param)
    got = apply_rule(D, rule)
    want = np.array(oracles.threshold_direct(D.tolist(), rule))
    assert got.tolist() == want.tolist()
    assert got[want != 0.0].tobytes() == want[want != 0.0].tobytes()
    assert not np.signbit(got[got == 0.0]).any()


@settings(max_examples=200, deadline=None)
@given(st.lists(
    st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5]), st.floats(allow_nan=False)),
    max_size=60,
))
def test_one_path_sort_is_stable_argsort(values):
    """Heavy ties, 0.0 against -0.0, infinities and sizes 0 and 1."""
    a = np.array(values, dtype=float)
    assert magnitude_order(a).tolist() == np.argsort(-np.abs(a), kind="stable").tolist()


def test_shrinkage_dominance_all_rules(rng):
    for _ in range(50):
        D = rng.normal(size=(6, 3)) * rng.uniform(0.1, 5)
        for rule in (
            ThresholdRule("soft", rng.uniform(0, 3)),
            ThresholdRule("hard", rng.uniform(0, 3)),
            ThresholdRule("order", int(rng.integers(0, 19))),
        ):
            out = apply_rule(D, rule)
            assert np.all(np.abs(out) <= np.abs(D) + 1e-15)
            nz = out != 0
            assert np.all(np.sign(out[nz]) == np.sign(D[nz]))


def test_grid_even_spacing_soft(rng):
    ds = random_dataset(rng, p=10)
    stats = fit_statistics(ds)
    grid = threshold_grid(stats, "soft", 30)
    params = [r.param for r in grid]
    top = float(np.abs(stats.t_stats).max())
    assert params[0] == 0.0
    assert params[-1] == pytest.approx(top)
    spacing = np.diff(params)
    assert np.allclose(spacing, top / 29)


def test_grid_two_points_is_endpoints(rng):
    ds = random_dataset(rng, p=5)
    stats = fit_statistics(ds)
    grid = threshold_grid(stats, "hard", 2)
    assert [r.param for r in grid] == [0.0, pytest.approx(np.abs(stats.t_stats).max())]
    with pytest.raises(ValidationError):
        threshold_grid(stats, "hard", 1)


def test_grid_order_descending_distinct_integers(rng):
    ds = random_dataset(rng, p=50, n_classes=2)
    stats = fit_statistics(ds)
    grid = threshold_grid(stats, "order", 30)
    params = [r.param for r in grid]
    assert params[0] == 100 and params[-1] == 0
    assert len(set(params)) == len(params)
    assert params == sorted(params, reverse=True)


def test_grid_survivor_counts_nonincreasing(rng):
    for kind in ("soft", "hard", "order"):
        ds = random_dataset(rng, p=20)
        stats = fit_statistics(ds)
        counts = [
            int(np.any(apply_rule(stats.t_stats, r) != 0, axis=1).sum())
            for r in threshold_grid(stats, kind, 15)
        ]
        assert counts == sorted(counts, reverse=True)


def test_parse_rule_round_trip():
    for text in ("soft:0.5", "hard:2.0", "order:17"):
        rule = parse_rule(text)
        assert parse_rule(str(rule)) == rule
    with pytest.raises(ValidationError):
        parse_rule("banana:3")
    with pytest.raises(ValidationError):
        parse_rule("order:2.5")
