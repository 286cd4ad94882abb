"""The fold-batched CV engine against the direct per-rule oracle."""

import dataclasses
import os
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import nsckit.data as data
import nsckit.tuning as tuning
from nsckit import (
    Dataset,
    SynthSpec,
    ThresholdRule,
    apply_rule,
    cross_validate,
    deep_search,
    fit_statistics,
    fold_count,
    generate_synthetic,
    predict,
    shrink,
    stratified_folds,
    threshold_grid,
)
from nsckit.errors import DegenerateVarianceError
from nsckit.thresholds import kept_counts, retention_keys, retention_lists

import oracles
from conftest import assert_no_children, random_dataset, tied_matrix

KINDS = ("soft", "hard", "order")

CAN_FORK = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
needs_fork = pytest.mark.skipif(not CAN_FORK, reason="folds are split only with fork")


def split_folds(monkeypatch, cpus: int) -> list:
    """Deal the folds of any training matrix into one share per CPU of
    ``cpus`` usable ones (at most F); the list returned grows by one at
    each fork."""
    monkeypatch.setattr(data, "_SPLIT_BYTES", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


def fold_group(ds: Dataset, kind: str, F: int, seed: int) -> list:
    """The F folds of ds's plan on ``seed``, fitted and sorted for ``kind``."""
    return [fold.sorted_for(kind) for fold in tuning._fitted(ds, stratified_folds(ds, F, seed), {})]


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


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ds=datasets(), kind=st.sampled_from(KINDS), seed=st.integers(0, 1000), data=st.data())
def test_grouped_folds_equal_direct_oracle(ds, kind, seed, data):
    """Grids of full-length and short prefixes over 2 to 5 folds, each grid
    scored against all the folds in one call."""
    smallest = int(ds.class_sizes.min())
    # two folds of a class of 3 can leave one sample per class, too few to fit
    F = data.draw(st.integers(2 if smallest > 3 else 3, min(5, smallest)))
    folds = fold_group(ds, kind, F, seed)
    if kind == "order":
        params = st.integers(0, ds.p * ds.n_classes)
    else:
        levels = sorted({0.0, *np.abs([f.stats.t_stats for f in folds]).ravel().tolist()})
        params = st.one_of(st.sampled_from(levels), st.floats(0.0, 2 * levels[-1] + 1))
    grids = [threshold_grid(fit_statistics(ds), kind, 6)] + [
        [ThresholdRule(kind, v) for v in data.draw(st.lists(params, min_size=1, max_size=6))]
        for _ in range(3)
    ]
    groups = []
    scorer = tuning._predict_group

    def recording(folds, *args):
        groups.append(len(folds))
        return scorer(folds, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tuning, "_predict_group", recording)
        for grid in grids:
            assert tuning._group_errors(folds, grid).tolist() == (
                oracles.cv_error_counts_direct(ds, grid, F, seed)
            )
    assert groups == [F] * len(grids)


def test_deep_search_scores_every_grid_in_one_call(monkeypatch):
    """Sized like narrow-deep: the first grid and every refined grid are
    scored against all ten folds in one call."""
    train, _ = generate_synthetic(SynthSpec(
        p=300, n_classes=3, informative=20, shift=0.8, n_per_class=(24,) * 3,
        noise_sd=1.0, seed=2003,
    ))
    groups = []
    scorer = tuning._predict_group

    def grouping(folds, *args):
        groups.append(len(folds))
        return scorer(folds, *args)

    monkeypatch.setattr(tuning, "_predict_group", grouping)
    deep_search(train, "hard", F=10, seed=0)
    assert len(groups) > 1
    assert groups == [10] * len(groups)


def test_cross_validate_holds_one_fold_at_a_time(monkeypatch):
    """Each fold is fitted as the scoring reaches it, scored alone and
    dropped, so one fold is alive at a time, whatever the grid.  With the
    folds dealt into two shares, where the system can fork, this process
    fits and scores the five of its own share, still one at a time."""
    train, _ = generate_synthetic(SynthSpec(
        p=300, n_classes=3, informative=20, shift=0.8, n_per_class=(24,) * 3,
        noise_sd=1.0, seed=2003,
    ))
    live, most, groups = [0], [0], []

    class Counted(tuning._HeldOutFold):
        def __init__(self, *args):
            super().__init__(*args)
            live[0] += 1
            most[0] = max(most[0], live[0])

        def __del__(self):
            live[0] -= 1

    scorer = tuning._predict_group

    def grouping(folds, *args):
        groups.append(len(folds))
        return scorer(folds, *args)

    monkeypatch.setattr(tuning, "_HeldOutFold", Counted)
    monkeypatch.setattr(tuning, "_predict_group", grouping)
    top = np.abs(fit_statistics(train).t_stats).max()
    for parts in (1, 2) if CAN_FORK else (1,):
        with pytest.MonkeyPatch.context() as mp:
            forks = split_folds(mp, parts) if parts > 1 else []
            # a first grid, of full-length prefixes, and a grid of short prefixes
            for grid in [
                threshold_grid(fit_statistics(train), "hard", 30),
                [ThresholdRule("hard", v * top) for v in (0.9, 0.95)],
            ]:
                groups.clear()
                most[0] = 0
                curve = cross_validate(train, grid, 10, 0)
                assert [pt.cv_error_count for pt in curve.points] == (
                    oracles.cv_error_counts_direct(train, grid, 10, 0)
                )
                assert groups == [1] * (10 // parts)
                assert most[0] == 1 and live[0] == 0
        assert len(forks) == 2 * (parts - 1)
        assert_no_children()


def count_fold_fits(mp, ds: Dataset) -> list:
    """Patch tuning's ``fit_statistics`` to record each fit of fewer samples
    than ``ds`` holds, that is each fold fit; the list grows by one at each."""
    fits, fit = [], tuning.fit_statistics

    def counted(sub, **kw):
        if sub.n < ds.n:
            fits.append(sub.n)
        return fit(sub, **kw)

    mp.setattr(tuning, "fit_statistics", counted)
    return fits


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ds=datasets(), seed=st.integers(0, 1000), fit_kw=fit_kws)
def test_deep_searches_on_one_plan_fit_each_fold_once(ds, seed, fit_kw):
    """Soft, hard, order and soft again on one dataset, seed and set of fit
    options: the first search fits the F folds, the others reuse them and
    re-sort them for their kind, and every curve equals the direct oracle.
    A new seed, other s0 or prior mode, or an equal but distinct dataset
    fits again."""
    F = fold_count(ds, 4)
    with pytest.MonkeyPatch.context() as mp:
        fits = count_fold_fits(mp, ds)
        for kind in ("soft", "hard", "order", "soft"):
            trace = deep_search(ds, kind, m=6, F=F, seed=seed, **fit_kw)
            for it in trace.iterations:
                grid = [pt.rule for pt in it.curve.points]
                assert [pt.cv_error_count for pt in it.curve.points] == (
                    oracles.cv_error_counts_direct(ds, grid, F, seed, **fit_kw)
                )
            assert len(fits) == F
        other_s0 = 0.25 if fit_kw["s0"] == "median" else "median"
        other_prior = "uniform" if fit_kw["prior_mode"] == "empirical" else "empirical"
        for data, plan_seed, kw in [
            (ds, seed + 1, fit_kw),
            (ds, seed, {**fit_kw, "s0": other_s0}),
            (ds, seed, {**fit_kw, "prior_mode": other_prior}),
            (dataclasses.replace(ds), seed, fit_kw),
        ]:
            deep_search(ds, "hard", m=6, F=F, seed=seed, **fit_kw)
            fits.clear()
            deep_search(data, "hard", m=6, F=F, seed=plan_seed, **kw)
            assert len(fits) == F


def test_a_fold_fit_that_raises_keeps_no_folds(monkeypatch):
    """With s0 = 0, a feature constant in the training set of fold 1 alone
    fails that fold's fit after fold 0 was fitted: the search raises, and so
    does the same search again, and the plan kept before it is gone too."""
    ds = uneven(3)
    plan = stratified_folds(ds, 4, 0)
    values = ds.values.copy()
    values[0] = 1.0
    values[0, plan[1]] = np.arange(len(plan[1])) + 2.0
    ds = Dataset.from_arrays(values, ds.labels)
    deep_search(ds, "hard", m=8, F=4, seed=0, s0=0.25)
    fits = count_fold_fits(monkeypatch, ds)
    for _ in range(2):
        fits.clear()
        with pytest.raises(DegenerateVarianceError):
            deep_search(ds, "hard", m=8, F=4, seed=0, s0=0.0)
        assert len(fits) == 2
    fits.clear()
    deep_search(ds, "hard", m=8, F=4, seed=0, s0=0.25)
    assert len(fits) == 4


def test_a_search_on_a_new_seed_never_holds_two_plans(monkeypatch):
    """Sized like narrow-deep: the folds kept from the search on seed 0 are
    dropped before the search on seed 1 fits its own, so no more than F folds
    are alive at a time, and the traced peak of the second search stays below
    two plans' folds."""
    train, _ = generate_synthetic(SynthSpec(
        p=2000, n_classes=3, informative=20, shift=0.8, n_per_class=(24,) * 3,
        noise_sd=1.0, seed=2003,
    ))
    live, most = [0], [0]

    class Counted(tuning._HeldOutFold):
        def __init__(self, *args):
            super().__init__(*args)
            live[0] += 1
            most[0] = max(most[0], live[0])

        def __del__(self):
            live[0] -= 1

    monkeypatch.setattr(tuning, "_HeldOutFold", Counted)
    tracemalloc.start()
    try:
        deep_search(train, "soft", F=10, seed=0)
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        deep_search(train, "soft", F=10, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert most[0] == 10 and live[0] == 10
    assert peak < 2 * held


def last_search(ds: Dataset, kinds: list[str]):
    """Drop the kept plan, run deep searches of ``kinds`` in turn on ds's plan
    of 10 folds on seed 0, and return the last one's trace and, for each grid
    it scored, how many times ``_kept_sums`` was called."""
    tuning._last_plan.clear()
    for kind in kinds[:-1]:
        deep_search(ds, kind, F=10, seed=0)
    calls, scorer, summer = [], tuning._predict_group, tuning._kept_sums

    def scoring(folds, grid):
        calls.append(0)
        return scorer(folds, grid)

    def summing(*args):
        calls[-1] += 1
        return summer(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tuning, "_predict_group", scoring)
        mp.setattr(tuning, "_kept_sums", summing)
        return deep_search(ds, kinds[-1], F=10, seed=0), calls


@pytest.fixture(scope="module")
def narrow_deep():
    """A training set sized like the narrow-deep benchmark's."""
    return generate_synthetic(SynthSpec(
        p=2000, n_classes=3, informative=20, shift=0.8, n_per_class=(24,) * 3,
        noise_sd=1.0, seed=2003,
    ))[0]


def test_hard_reads_the_first_grid_sums_of_soft(narrow_deep):
    """Soft and hard share their first grid's parameters, so after a soft
    search the first grid of a hard search on the same plan sums nothing and
    the search traces as one on folds of its own."""
    alone, calls = last_search(narrow_deep, ["hard"])
    assert calls[0] == 10
    shared, calls = last_search(narrow_deep, ["soft", "hard"])
    assert calls[0] == 0
    assert shared == alone


def test_soft_after_hard_adds_only_its_sign_sums(narrow_deep):
    """After a hard search, soft's first grid sums only the signs of each
    fold, and the soft search traces as it does alone."""
    alone, calls = last_search(narrow_deep, ["soft"])
    assert calls[0] == 20
    shared, calls = last_search(narrow_deep, ["hard", "soft"])
    assert calls[0] == 10
    assert shared == alone


def test_an_order_search_drops_the_kept_sums(narrow_deep):
    """Re-sorting the folds for order drops the sums soft kept, so a soft
    search after the order search sums what a soft search on fresh folds
    sums, and traces alike."""
    alone, fresh = last_search(narrow_deep, ["soft"])
    again, calls = last_search(narrow_deep, ["soft", "order", "soft"])
    assert calls == fresh
    assert again == alone


@pytest.mark.parametrize("kind", KINDS)
def test_a_grid_reads_only_the_sums_of_its_own_kept_counts(narrow_deep, kind, monkeypatch):
    """Folds that scored a grid score one with the same first rule and the
    others reversed as fresh folds do, and the first grid again with no new
    sums."""
    grid = threshold_grid(fit_statistics(narrow_deep), kind, 8)
    folds = fold_group(narrow_deep, kind, 5, 0)
    calls, summer = [], tuning._kept_sums
    monkeypatch.setattr(tuning, "_kept_sums", lambda *args: calls.append(1) or summer(*args))
    for g in (grid, grid[:1] + grid[:0:-1], grid):
        want = tuning._predict_group(fold_group(narrow_deep, kind, 5, 0), g).tolist()
        calls.clear()
        assert tuning._predict_group(folds, g).tolist() == want
    assert calls == []


@needs_fork
def test_a_matrix_above_the_split_size_is_split_and_scored_as_directly(monkeypatch):
    train, _ = generate_synthetic(SynthSpec(
        p=5000, n_classes=4, informative=40, shift=0.8, n_per_class=(10,) * 4,
        noise_sd=1.0, seed=7,
    ))
    assert train.values.nbytes >= data._SPLIT_BYTES
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    full = fit_statistics(train)
    for kind in KINDS:
        grid = threshold_grid(full, kind, 6)
        curve = cross_validate(train, grid, 10, 3)
        assert [pt.cv_error_count for pt in curve.points] == (
            oracles.cv_error_counts_direct(train, grid, 10, 3)
        )
        assert_no_children()
    assert len(forks) == 3 * (min(len(os.sched_getaffinity(0)), 10) - 1)


def uneven(seed: int) -> Dataset:
    """Classes of 10, 13 and 11, so most fold plans hold folds of two sizes."""
    return generate_synthetic(SynthSpec(
        p=60, n_classes=3, informative=6, shift=1.0, n_per_class=(10, 13, 11),
        noise_sd=1.0, seed=seed,
    ))[0]


@needs_fork
@pytest.mark.parametrize("F,cpus", [(2, 2), (3, 2), (4, 3), (7, 3), (10, 4), (5, 16)])
@pytest.mark.parametrize("kind", KINDS)
def test_split_folds_equal_direct_oracle(monkeypatch, kind, F, cpus):
    ds = uneven(F)
    fit_kw = {"s0": 0.25, "prior_mode": "uniform"} if F % 2 else {}
    grid = threshold_grid(fit_statistics(ds, **fit_kw), kind, 8)
    forks = split_folds(monkeypatch, cpus)
    curve = cross_validate(ds, grid, F, F, **fit_kw)
    assert len(forks) == min(cpus, F) - 1
    assert_no_children()
    assert [pt.cv_error_count for pt in curve.points] == (
        oracles.cv_error_counts_direct(ds, grid, F, F, **fit_kw)
    )
    monkeypatch.undo()
    assert cross_validate(ds, grid, F, F, **fit_kw) == curve


@needs_fork
@pytest.mark.parametrize("refusal", ["one CPU", "no fork"])
def test_no_cpu_or_process_to_spare_scores_every_fold_here(monkeypatch, refusal):
    ds = uneven(1)
    grid = threshold_grid(fit_statistics(ds), "hard", 8)
    want = cross_validate(ds, grid, 5, 0)
    forks = split_folds(monkeypatch, 1 if refusal == "one CPU" else 3)
    if refusal == "no fork":
        def no_fork():
            forks.append(1)
            raise OSError("no process to spare")

        monkeypatch.setattr(os, "fork", no_fork)
    groups, scorer = [], tuning._predict_group
    monkeypatch.setattr(tuning, "_predict_group",
                        lambda folds, *args: groups.append(len(folds)) or scorer(folds, *args))
    assert cross_validate(ds, grid, 5, 0) == want
    assert len(forks) == (0 if refusal == "one CPU" else 2) and groups == [1] * 5
    assert_no_children()


@needs_fork
@pytest.mark.parametrize("failure", ["raises", "warns", "dies"])
def test_a_share_whose_child_fails_is_redone_here(monkeypatch, failure):
    """Every child's share is redone in this process, with the counts of the
    serial path and none of the children's warnings."""
    ds = uneven(2)
    grid = threshold_grid(fit_statistics(ds), "soft", 8)
    parent, scorer, groups = os.getpid(), tuning._predict_group, []

    def failing(folds, *args):
        if os.getpid() != parent:
            if failure == "raises":
                raise RuntimeError("a child's fold")
            if failure == "warns":
                warnings.warn("a child's fold")
            if failure == "dies":
                os.kill(os.getpid(), 9)
        groups.append(len(folds))
        return scorer(folds, *args)

    split_folds(monkeypatch, 3)
    monkeypatch.setattr(tuning, "_predict_group", failing)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        curve = cross_validate(ds, grid, 6, 4)
    assert groups == [1] * 6
    assert_no_children()
    assert [pt.cv_error_count for pt in curve.points] == (
        oracles.cv_error_counts_direct(ds, grid, 6, 4)
    )


@needs_fork
def test_the_child_is_forked_before_the_full_data_fit(monkeypatch):
    """On a two-share split the child's share overlaps this process's
    full-data fit, which comes after the fork and before its own folds."""
    ds = uneven(6)
    grid = threshold_grid(fit_statistics(ds), "hard", 8)
    split_folds(monkeypatch, 2)
    events, fork, fit = [], os.fork, tuning.fit_statistics
    monkeypatch.setattr(os, "fork", lambda: events.append("fork") or fork())
    monkeypatch.setattr(tuning, "fit_statistics", lambda sub, **kw: events.append(
        "full" if sub.n == ds.n else "fold") or fit(sub, **kw))
    curve = cross_validate(ds, grid, 4, 0)
    assert events == ["fork", "full", "fold", "fold"]
    assert_no_children()
    assert [pt.cv_error_count for pt in curve.points] == (
        oracles.cv_error_counts_direct(ds, grid, 4, 0)
    )


@needs_fork
def test_a_fold_that_fails_in_a_child_gives_the_serial_error(monkeypatch):
    """With s0 = 0, a feature constant in the training set of fold 1 alone
    fails that fold's fit, and fold 1 falls in the child's share."""
    ds = uneven(3)
    plan = stratified_folds(ds, 4, 0)
    values = ds.values.copy()
    values[0] = 1.0
    values[0, plan[1]] = np.arange(len(plan[1])) + 2.0
    ds = Dataset.from_arrays(values, ds.labels)
    grid = threshold_grid(fit_statistics(ds, s0=0.0), "hard", 8)
    with pytest.raises(DegenerateVarianceError) as serial:
        cross_validate(ds, grid, 4, 0, s0=0.0)
    forks = split_folds(monkeypatch, 2)
    with pytest.raises(DegenerateVarianceError) as split:
        cross_validate(ds, grid, 4, 0, s0=0.0)
    assert len(forks) == 1 and str(split.value) == str(serial.value)
    assert_no_children()


@needs_fork
def test_a_parent_that_raises_mid_share_leaves_no_child(monkeypatch):
    ds = uneven(4)
    grid = threshold_grid(fit_statistics(ds), "order", 8)
    parent, scorer, calls = os.getpid(), tuning._predict_group, []

    def stopping(folds, *args):
        if os.getpid() == parent:
            calls.append(1)
            if len(calls) == 2:
                raise KeyboardInterrupt
        return scorer(folds, *args)

    forks = split_folds(monkeypatch, 4)
    monkeypatch.setattr(tuning, "_predict_group", stopping)
    with pytest.raises(KeyboardInterrupt):
        cross_validate(ds, grid, 8, 0)
    assert len(forks) == 3 and len(calls) == 2
    assert_no_children()


@needs_fork
def test_children_leave_the_buffers_of_this_process_alone(monkeypatch, tmp_path):
    # a child that left through the interpreter's exit would flush the
    # buffered text it inherited, and it would be written twice
    ds = uneven(5)
    grid = threshold_grid(fit_statistics(ds), "soft", 8)
    forks = split_folds(monkeypatch, 2)
    with open(tmp_path / "out.txt", "w") as out:
        out.write("pending")
        cross_validate(ds, grid, 5, 0)
    assert (tmp_path / "out.txt").read_text() == "pending"
    assert len(forks) == 1
    assert_no_children()


@pytest.mark.parametrize("kind", KINDS)
def test_scoring_holds_one_fold_of_products_at_a_time(kind):
    """Ten folds at p = 2000 scored in one call under a first grid, whose
    kept prefixes span every feature: the scorer holds one fold's gathered
    z and its products, each n_f x K x p, not those of all ten folds."""
    train, _ = generate_synthetic(SynthSpec(
        p=2000, n_classes=3, informative=20, shift=0.8, n_per_class=(24,) * 3,
        noise_sd=1.0, seed=2003,
    ))
    folds = fold_group(train, kind, 10, 0)
    grid = threshold_grid(fit_statistics(train), kind, 30)
    tracemalloc.start()
    try:
        tuning._predict_group(folds, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    one_fold = max(len(fold.z) for fold in folds) * train.n_classes * train.p * 8
    assert peak < 3 * one_fold


@pytest.mark.parametrize("layout", ["C", "F"])
def test_fold_fits_equal_subset_fits(layout, rng):
    """Fold fits are bit for bit those of the subsets, whatever the layout of the values."""
    ds = random_dataset(rng, p=40, n_classes=3, max_n=30)
    ds = Dataset.from_arrays(np.asarray(ds.values, order=layout) * 1e3 + 7.0, ds.labels)
    assert ds.values.flags[f"{layout}_CONTIGUOUS"]
    for fold, test_idx in zip(fold_group(ds, "soft", 2, 1), stratified_folds(ds, 2, 1)):
        want = fit_statistics(ds.subset(np.setdiff1d(np.arange(ds.n), test_idx)))
        for field in dataclasses.fields(want):
            got = getattr(fold.stats, field.name)
            assert np.asarray(got).tobytes() == np.asarray(getattr(want, field.name)).tobytes()


def tie_patterns(p=400):
    """Tie-free, rounded, constant-feature and balanced two-class datasets."""
    spec = SynthSpec(p=p, n_classes=4, informative=20, shift=0.8, n_per_class=(6,) * 4,
                     noise_sd=1.0, seed=5)
    train, _ = generate_synthetic(spec)
    constant = train.values.copy()
    constant[::5] = 3.0
    two, _ = generate_synthetic(dataclasses.replace(spec, n_classes=2, n_per_class=(9, 9)))
    return {
        "tie-free": train,
        "rounded": Dataset.from_arrays(np.round(train.values, 2), train.labels),
        "constant": Dataset.from_arrays(constant, train.labels),
        "two-class": two,
    }


@pytest.mark.parametrize("pattern", ["tie-free", "rounded", "constant", "two-class"])
def test_order_fold_lists_columns_by_retention_key(pattern):
    """The retention lists of every kind, not only order's."""
    ds = tie_patterns()[pattern]
    stats = fit_statistics(ds)
    for kind in KINDS:
        rows, sorted_keys = retention_lists(stats.t_stats, kind)
        keys = retention_keys(stats.t_stats, kind)
        for k in range(ds.n_classes):
            assert sorted(rows[k].tolist()) == list(range(ds.p))
            assert sorted_keys[k].tolist() == np.sort(keys[:, k]).tolist()
            assert keys[rows[k], k].tolist() == sorted_keys[k].tolist()


matrices = st.builds(
    tied_matrix,
    st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(1, 4),
    st.floats(0.0, 0.6), st.integers(1, 6),
)


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
    keys = retention_keys(D, kind)
    for k in range(D.shape[1]):
        counts = kept_counts(np.sort(keys[:, k]), kind, params)
        for rule, count in zip(rules, counts):
            # a rule keeps the nonzero entries of a column keyed below all others
            kept = apply_rule(D, rule)[:, k] != 0.0
            assert count == kept.sum()
            if 0 < count < len(D):
                assert keys[kept, k].max() < keys[~kept, k].min()
    # a rule keeps a row exactly when it keeps the row's smallest key
    row_keys = np.sort(keys.min(axis=1))
    assert kept_counts(row_keys, kind, params).tolist() == [
        int(np.any(apply_rule(D, rule) != 0.0, axis=1).sum()) for rule in rules
    ]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ds=datasets(), kind=st.sampled_from(KINDS), data=st.data())
def test_fold_kept_counts_match_apply_rule(ds, kind, data):
    """Per-class kept counts and vanished classes equal the nonzeros of apply_rule."""
    stats = fit_statistics(ds)
    t = stats.t_stats
    if kind == "order":
        params = data.draw(st.lists(st.integers(0, t.size), min_size=1, max_size=6))
    else:
        levels = sorted({0.0, *np.abs(t).ravel().tolist()})
        params = data.draw(st.lists(
            st.one_of(st.sampled_from(levels), st.floats(0.0, 2 * levels[-1] + 1)),
            min_size=1, max_size=6,
        ))
    _, keys = retention_lists(t, kind)
    counts = np.stack([kept_counts(column, kind, np.array(params)) for column in keys], axis=1)
    for g, v in enumerate(params):
        shrunk = apply_rule(t, ThresholdRule(kind, v))
        assert counts[g].tolist() == np.count_nonzero(shrunk, axis=0).tolist()
        assert (counts[g] == 0).tolist() == (~shrunk.any(axis=0)).tolist()


def group_predict(fits, grid):
    """Scores blocks of samples as one group of folds, one (stats, X) per fold.

    Returns each block's n_f x G predictions.
    """
    folds = [tuning._HeldOutFold(stats, X.T, np.arange(len(X)), None).sorted_for(grid[0].kind)
             for stats, X in fits]
    pred = tuning._predict_group(folds, grid)
    return np.split(pred, np.cumsum([len(X) for _, X in fits])[:-1])


def leave_one_out_fits(ds, count):
    """The fit of ds, then fits without one more sample of every class."""
    drop = [np.array([ds.class_members(k)[i] for k in range(ds.n_classes)])
            for i in range(count - 1)]
    return [fit_statistics(ds)] + [
        fit_statistics(ds.subset(np.setdiff1d(np.arange(ds.n), out))) for out in drop
    ]


def midpoints(stats, grid, pairs):
    """Samples halfway between two shrunken centroids of every rule."""
    models = [shrink(stats, rule) for rule in grid]
    X = np.array([(mdl.shrunken_centroids[:, j] + mdl.shrunken_centroids[:, k]) / 2
                  for mdl in models for j, k in pairs])
    return models, X


@pytest.mark.parametrize("seed", range(6))
def test_soft_expansion_cancels_near_large_delta(seed):
    """Many |d| just above a large delta: Q - 2 delta A + delta^2 c cancels.

    Forty identical features give every class forty equal |d|; each soft
    threshold sits a few ulps to 1e-9 below one of them, so the kept
    statistics shrink to almost nothing while Q, delta A and delta^2 c stay
    large.  Samples midway between two shrunken centroids then tie up to
    rounding, and must still get predict's class, also when several folds,
    each with its own fit, are scored as one group.
    """
    rng = np.random.default_rng(seed)
    labels = ["a"] * 6 + ["b"] * 6 + ["c"] * 6
    base = rng.normal(size=len(labels)) + np.repeat([3.0, 0.0, -3.0], 6)
    ds = Dataset.from_arrays(np.tile(base, (40, 1)), labels)
    for fits in (leave_one_out_fits(ds, 1), leave_one_out_fits(ds, 3)):
        grid = [ThresholdRule("soft", float(v * (1 - eps))) for stats in fits
                for v in np.abs(stats.t_stats[0]) for eps in (1e-15, 1e-13, 1e-11, 1e-9)]
        blocks = [midpoints(stats, grid, ((0, 1), (0, 2), (1, 2))) for stats in fits]
        got = group_predict([(stats, X) for stats, (_, X) in zip(fits, blocks)], grid)
        for got_f, (models, X) in zip(got, blocks):
            for g, mdl in enumerate(models):
                assert got_f[:, g].tolist() == predict(mdl, X).tolist()
    # the same thresholds placed just below the |d| of every fold's fit
    F = 3
    grid = sorted(
        {ThresholdRule("soft", float(v * (1 - eps)))
         for test_idx in stratified_folds(ds, F, seed)
         for v in np.abs(fit_statistics(ds.subset(np.setdiff1d(np.arange(ds.n), test_idx)))
                         .t_stats[0])
         for eps in (1e-15, 1e-11)},
        key=lambda rule: rule.param,
    )
    curve = cross_validate(ds, grid, F, seed)
    assert [pt.cv_error_count for pt in curve.points] == (
        oracles.cv_error_counts_direct(ds, grid, F, seed)
    )


@pytest.mark.parametrize("kind", KINDS)
def test_narrow_deep_sized_set_needs_no_fallback(kind, monkeypatch):
    """A loose rounding bound would slow scoring silently; this set never falls back.

    It is sized like the benchmark's narrow-deep workload.  The search runs
    with every floating-point exception raised, stricter than the CLI's
    over, invalid and divide.
    """
    train, _ = generate_synthetic(SynthSpec(
        p=2000, n_classes=3, informative=20, shift=0.8, n_per_class=(24,) * 3,
        noise_sd=1.0, seed=2003,
    ))
    monkeypatch.setattr(tuning, "predict", None)
    with np.errstate(all="raise"):
        grid = threshold_grid(fit_statistics(train), kind, 30)
        cross_validate(train, grid, 10, 0)
        deep_search(train, kind, F=10, seed=0)


def test_offset_near_ties_fall_back_to_predict(monkeypatch):
    """With a 1e6 offset some rows are re-scored by predict, and still match,
    whether each fold is scored alone, as ``cross_validate`` does, or the
    three folds as one group, as ``deep_search`` does, on the full grid and
    on its short prefixes from the fifth point on."""
    rng = np.random.default_rng(7)
    labels = ["a"] * 6 + ["b"] * 5 + ["c"] * 7
    values = rng.normal(size=(20, len(labels))) + 1e6
    ds = Dataset.from_arrays(values, labels)
    rescored = []
    direct = tuning.predict
    groups = []
    scorer = tuning._predict_group

    def counting_predict(model, X):
        rescored.append(len(X))
        return direct(model, X)

    def grouping(folds, *args):
        groups.append(len(folds))
        return scorer(folds, *args)

    monkeypatch.setattr(tuning, "predict", counting_predict)
    monkeypatch.setattr(tuning, "_predict_group", grouping)
    folds = fold_group(ds, "soft", 3, 5)
    for start in (0, 4):
        grid = threshold_grid(fit_statistics(ds), "soft", 10)[start:]
        for score, sizes in (
            (lambda: [pt.cv_error_count for pt in cross_validate(ds, grid, 3, 5).points],
             [1, 1, 1]),
            (lambda: tuning._group_errors(folds, grid).tolist(), [3]),
        ):
            rescored.clear()
            groups.clear()
            errors = score()
            assert groups == sizes
            assert sum(rescored) > 0
            assert errors == oracles.cv_error_counts_direct(ds, grid, 3, 5)


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


def test_prior_ties_that_differ_between_grouped_folds(monkeypatch):
    """Classes of 4, 5 and 6 over 2 folds: which priors tie differs from fold
    to fold, and all vanish, whether each fold is scored alone or both are
    scored in one group."""
    rng = np.random.default_rng(3)
    labels = ["a"] * 4 + ["b"] * 5 + ["c"] * 6
    ds = Dataset.from_arrays(rng.normal(size=(15, 15)), labels)
    monkeypatch.setattr(tuning, "predict", None)
    big = float(np.abs(fit_statistics(ds).t_stats).max()) * 10
    grid = [ThresholdRule("hard", big), ThresholdRule("hard", big * 2)]
    want = oracles.cv_error_counts_direct(ds, grid, 2, 0)
    assert [pt.cv_error_count for pt in cross_validate(ds, grid, 2, 0).points] == want
    assert tuning._group_errors(fold_group(ds, "hard", 2, 0), grid).tolist() == want


@pytest.mark.parametrize("offset", [0.0, 1e6])
@pytest.mark.parametrize("kind", KINDS)
def test_midpoint_rows_match_predict(kind, offset):
    """Samples halfway between two equal-prior centroids tie up to rounding."""
    rng = np.random.default_rng(11)
    labels = ["a"] * 5 + ["b"] * 5 + ["c"] * 4
    ds = Dataset.from_arrays(rng.normal(size=(12, len(labels))) + offset, labels)
    for fits in (leave_one_out_fits(ds, 1), leave_one_out_fits(ds, 3)):
        grid = threshold_grid(fits[0], kind, 8)
        blocks = [midpoints(stats, grid, ((0, 1),)) for stats in fits]
        got = group_predict([(stats, X) for stats, (_, X) in zip(fits, blocks)], grid)
        for got_f, (models, X) in zip(got, blocks):
            for g, mdl in enumerate(models):
                assert got_f[:, g].tolist() == predict(mdl, X).tolist()


@st.composite
def score_arrays(draw):
    """n x G x K scores drawn from a few levels, so classes tie, with some
    entries set to inf as vanished twins are; one class of each sample and
    rule stays finite, as the first of the twins does."""
    n, G, K = draw(st.integers(1, 6)), draw(st.integers(1, 5)), draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.integers(1, 6))
    scores = rng.integers(0, levels, size=(n, G, K)) * draw(st.floats(0.1, 1e6))
    if draw(st.booleans()):
        scores = rng.normal(size=(n, G, K))
    masked = rng.random((n, G, K)) < draw(st.floats(0.0, 0.9))
    masked[np.arange(n)[:, None], np.arange(G), rng.integers(0, K, size=(n, G))] = False
    scores[masked] = np.inf
    return scores


@given(scores=score_arrays())
def test_best_two_equals_argmin_and_partition(scores):
    """The class-slice passes pick the first smallest class and its gap to
    the second smallest, as argmin and a partition along the class axis do."""
    pred, gap = tuning._best_two(scores)
    two = np.partition(scores, 1, axis=2)
    assert pred.tolist() == scores.argmin(axis=2).tolist()
    np.testing.assert_array_equal(gap, two[:, :, 1] - two[:, :, 0])
