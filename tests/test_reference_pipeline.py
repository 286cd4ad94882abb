"""All six methods against ``oracles.run_direct``, the pipeline written out
from the methods' description, in four settings: each method alone, deep
searches back to back on one dataset object, so that they share its kept
fold plan and sums, deep searches whose kept plan belongs to another seed,
dataset object or set of fit options, and the grid methods with their folds
split over two forked shares."""

import dataclasses
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nsckit import Dataset, bench

import oracles
from conftest import assert_no_children, split_folds

CAN_FORK = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")


@st.composite
def pairs(draw):
    """A training and a test set from the same class means: p <= 40, n <= 30
    training samples over K = 2-5 classes, each of its own size, and values
    rounded to one decimal, with every other feature a copy of the one
    before it in some draws, so that values and statistics tie.  The test
    samples come in shuffled order, so the test set's classes may be listed
    in another order than the training set's."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    K = draw(st.integers(2, 5))
    p = draw(st.integers(1, 40))
    means = rng.normal(0.0, draw(st.sampled_from([0.0, 0.5, 2.0])), size=(p, K))
    twins = draw(st.booleans())

    def draw_set(sizes):
        y = np.repeat(np.arange(K), sizes)
        values = np.round(rng.normal(size=(p, len(y))) + means[:, y], 1)
        if twins and p > 1:
            values[1::2] = values[: p // 2 * 2 : 2]
        return values, [f"c{k}" for k in y]

    train = Dataset.from_arrays(*draw_set(draw(
        st.lists(st.integers(4, 30 // K), min_size=K, max_size=K))))
    values, labels = draw_set(draw(st.lists(st.integers(1, 3), min_size=K, max_size=K)))
    order = rng.permutation(len(labels))
    return train, Dataset.from_arrays(values[:, order], [labels[j] for j in order])


run_kws = st.fixed_dictionaries({
    "m": st.integers(3, 8),
    "folds": st.integers(2, 5),
    "big_gap": st.sampled_from([0, 3, 2000]),
})
fit_kws = st.fixed_dictionaries({
    "prior_mode": st.sampled_from(["empirical", "uniform"]),
    "s0": st.sampled_from(["median", 0.25]),
})


def run(train, test, method, seed, kw):
    """``run_experiment``'s record of one run on ``seed``, and the trace
    ``bench.tune`` returned for it."""
    traces, tune = [], bench.tune
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bench, "tune", lambda *a, **k: traces.append(tune(*a, **k)) or traces[-1])
        (record,) = bench.run_experiment(train, test, method, runs=1, base_seed=seed, **kw)
    return record, *traces


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(pair=pairs(), seed=st.integers(0, 1000), kw=run_kws, fit_kw=fit_kws)
def test_six_methods_equal_the_reference_pipeline(pair, seed, kw, fit_kw):
    train, test = pair
    kw = {**kw, **fit_kw}
    want = {method: oracles.run_direct(train, test, method, seed, **kw)
            for method in oracles.METHOD_KINDS}
    for method in want:
        # a new dataset object, so no search before this one left it folds
        assert run(dataclasses.replace(train), test, method, seed, kw) == want[method], method
    shared = dataclasses.replace(train)
    for method in ("sth2", "hth2", "oth2", "hth2", "sth2", "oth2"):
        assert run(shared, test, method, seed, kw) == want[method], method
    if CAN_FORK:
        with pytest.MonkeyPatch.context() as mp:
            forks = split_folds(mp, 2)
            for method in ("sth", "hth", "oth"):
                assert run(train, test, method, seed, kw) == want[method], method
        assert len(forks) == 3
        assert_no_children()


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(pair=pairs(), seed=st.integers(0, 1000), kw=run_kws, fit_kw=fit_kws)
def test_a_kept_plan_of_another_seed_dataset_or_fit_is_replaced(pair, seed, kw, fit_kw):
    """Deep searches whose last plan is not their own: seeds s and s + 1 in
    turn on one dataset object, two copies of the training set in turn, the
    second with its samples' values in reverse order under the same labels,
    and one object tuned under two sets of fit options."""
    train, test = pair
    flipped = dataclasses.replace(train, values=train.values[:, ::-1])
    other_kw = {**fit_kw, "s0": 0.25 if fit_kw["s0"] == "median" else "median"}
    want = {}

    def check(ds, method, s, fit, base=train):
        key = (method, s, tuple(fit.items()), base is train)
        if key not in want:
            want[key] = oracles.run_direct(base, test, method, s, **kw, **fit)
        assert run(ds, test, method, s, {**kw, **fit}) == want[key], key

    one = dataclasses.replace(train)
    for method, s in (("sth2", seed), ("sth2", seed + 1), ("oth2", seed),
                      ("hth2", seed + 1), ("hth2", seed), ("oth2", seed + 1)):
        check(one, method, s, fit_kw)
    copies = ((dataclasses.replace(train), train), (dataclasses.replace(flipped), flipped))
    for method, (ds, base) in zip(("sth2", "oth2", "hth2", "oth2"), copies * 2):
        check(ds, method, seed, fit_kw, base)
    one = dataclasses.replace(train)
    for method, fit in (("sth2", fit_kw), ("sth2", other_kw), ("oth2", fit_kw),
                        ("hth2", other_kw), ("hth2", fit_kw), ("oth2", other_kw)):
        check(one, method, seed, fit)
