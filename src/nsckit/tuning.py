"""Cross-validation over threshold grids and deep-search refinement.

``cross_validate`` scores every rule of a grid by misclassification counts
over stratified folds.  ``select_smallest`` picks the smallest-error point,
preferring smaller models on ties.  ``deep_search`` repeatedly narrows the
threshold interval around the selected point, optionally jumping to the
runner-up when it buys a drastically smaller model at the cost of at most
one extra misclassified sample.

Each fold is fitted once per call and its held-out samples are scored for a
whole grid at a time.  With z = (x - overall) / (s + s0) and shrunken
statistics d', the score of class k is |z|^2 - 2 m_k z.d'_k + m_k^2 |d'_k|^2
- 2 log prior_k; |z|^2 is common to all classes and is dropped, so the scores
of every rule come from one product of the held-out z with the stacked
m_k d'_k.  A row whose best and second-best scores are closer than the
rounding error either form could make is re-scored with ``predict``, so the
predictions equal those of ``predict(shrink(stats, rule), X)`` exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset, fold_count, stratified_folds
from .errors import DeepSearchError, DegenerateFoldError, ValidationError
from .model import CentroidStats, fit_statistics, predict, shrink
# apply_rule stays bound here: benchmarks/bench_workloads.py instruments it by
# name in every module that imports it.
from .thresholds import (  # noqa: F401
    RowSurvival,
    ThresholdRule,
    apply_rule,
    apply_rules,
    magnitude_ranks,
    threshold_grid,
)

# Most stacked statistics scored per product (512 kB of float64), so that
# memory stays flat whatever the grid size.
_CHUNK_VALUES = 1 << 16
_UNIT_ROUNDOFF = np.finfo(float).eps / 2


def _gamma(n: int) -> float:
    """Bound n*u / (1 - n*u) on the relative error of n floating-point roundings."""
    nu = n * _UNIT_ROUNDOFF
    return nu / (1.0 - nu)


@dataclass(frozen=True)
class CvPoint:
    """One grid point: rule, total CV misclassification count, survivors."""

    rule: ThresholdRule
    cv_error_count: int
    survivor_count: int


@dataclass(frozen=True)
class CvCurve:
    """CV results along a grid, in increasing-shrinkage order."""

    points: tuple[CvPoint, ...]
    fold_plan_seed: int

    def __post_init__(self):
        kinds = {pt.rule.kind for pt in self.points}
        if len(kinds) != 1:
            raise ValidationError("a CV curve must hold rules of a single kind")


@dataclass(frozen=True)
class DeepSearchIteration:
    """Record of one deep-search pass over a grid."""

    curve: CvCurve
    chosen: int
    runner_up: int | None
    switched: bool
    interval: tuple[int, int] | None
    next_grid_size: int


@dataclass(frozen=True)
class DeepSearchTrace:
    iterations: tuple[DeepSearchIteration, ...]
    final_rule: ThresholdRule
    stop_reason: str


class _HeldOutFold:
    """Statistics fitted without one fold, and the fold's labels.

    The statistics are kept in ``RowSurvival`` order, so that the features a
    rule keeps are a prefix and the rest, whose shrunken statistics all
    vanish, are never stacked.
    """

    def __init__(self, stats: CentroidStats, test_idx: np.ndarray, y: np.ndarray, kind: str):
        self.stats = stats
        self.test_idx = test_idx
        self.y = y
        self.kind = kind
        ranks = magnitude_ranks(stats.t_stats) if kind == "order" else None
        self.survival = RowSurvival(stats.t_stats, kind, ranks)
        self.t = stats.t_stats[self.survival.rows]
        self.ranks = None if ranks is None else ranks[self.survival.rows]
        self.prior_terms = np.array([-2.0 * math.log(pk) for pk in stats.priors])
        # [j, k]: class j < k has the same prior term as class k
        self.earlier_twin = np.triu(self.prior_terms[:, None] == self.prior_terms[None, :], 1)

    def predict_grid(
        self, X: np.ndarray, grid: list[ThresholdRule], params: np.ndarray
    ) -> np.ndarray:
        """Predicted class of every held-out sample under every rule, n_test x G."""
        stats = self.stats
        p, K = self.t.shape
        sd = stats.pooled_sd + stats.s0
        z = ((X - stats.overall_centroid) / sd)[:, self.survival.rows]
        # Scale of the rounding error of a sample's scores: |z|, plus
        # |overall / sd| because the direct form subtracts raw centroids.
        magnitude = np.sqrt((z**2).sum(axis=1)) + math.sqrt(
            ((stats.overall_centroid / sd) ** 2).sum()
        )
        gamma = _gamma(4 * p + 64)
        const = np.abs(self.prior_terms).max()
        survivors = self.survival.counts(params)
        pred = np.empty((len(X), len(grid)), dtype=np.intp)
        lo = 0
        while lo < len(grid):
            # rules lo..hi-1 keep the first s features; at least one rule
            s, hi = survivors[lo], lo + 1
            while hi < len(grid) and max(s, survivors[hi]) * (hi + 1 - lo) * K <= _CHUNK_VALUES:
                s, hi = max(s, survivors[hi]), hi + 1
            ranks = None if self.ranks is None else self.ranks[:s]
            b = apply_rules(self.t[:s], self.kind, params[lo:hi], ranks)
            # Classes whose shrunken statistics all vanish and whose priors
            # match score exactly alike in both forms, and the first of them
            # wins the tie, so the later ones are set aside.
            vanished = ~b.any(axis=0)
            twins = vanished & (vanished @ self.earlier_twin)
            b *= stats.m
            G = hi - lo
            sq = np.einsum("igk,igk->gk", b, b)
            zb = (z[:, :s] @ b.reshape(s, G * K)).reshape(-1, G, K)
            scores = self.prior_terms - 2.0 * zb + sq
            scores[:, twins] = np.inf
            pred[:, lo:hi] = scores.argmin(axis=2)
            two = np.partition(scores, 1, axis=2)
            gap = two[:, :, 1] - two[:, :, 0]
            # Each form's score of a class is within gamma_(2p+24) * size^2 +
            # gamma_4 * const of the exact score, where size bounds both
            # |z - m d'| and |overall / sd| + |m d'|.  The bound covers two
            # classes twice over; a larger gap orders the direct scores alike.
            size = magnitude[:, None] + np.sqrt(sq.max(axis=1))[None, :]
            near = gap <= 2.0 * gamma * (size**2 + const)
            # The whole batch is re-scored: numpy sums a row in an order that
            # depends on the batch shape, and an exact tie can fall either way.
            for g in np.flatnonzero(near.any(axis=0)):
                direct = predict(shrink(stats, grid[lo + g]), X)
                pred[near[:, g], lo + g] = direct[near[:, g]]
            lo = hi
        return pred


class _FoldFits:
    """The full-data fit and the F fold fits of one fold plan.

    Built once per ``cross_validate`` or ``deep_search`` call and scored
    against every grid of that call.
    """

    def __init__(self, ds: Dataset, kind: str, F: int, seed: int, fit_kw: dict):
        plan = stratified_folds(ds, F, seed)
        self.seed = seed
        self.values = ds.values
        self.full = fit_statistics(ds, **fit_kw)
        self.full_survival = RowSurvival(self.full.t_stats, kind)
        self.folds: list[_HeldOutFold] = []
        all_idx = np.arange(ds.n)
        for f, test_idx in enumerate(plan.folds):
            train_idx = np.setdiff1d(all_idx, test_idx, assume_unique=True)
            held_in_counts = np.bincount(ds.y[train_idx], minlength=ds.n_classes)
            if np.any(held_in_counts == 0):
                missing = ds.classes[int(np.flatnonzero(held_in_counts == 0)[0])]
                raise DegenerateFoldError(
                    f"fold {f} leaves class {missing!r} with no training samples"
                )
            stats = fit_statistics(ds.subset(train_idx), **fit_kw)
            self.folds.append(_HeldOutFold(stats, test_idx, ds.y[test_idx], kind))

    def curve(self, grid: list[ThresholdRule]) -> CvCurve:
        """CV error counts over the folds, survivor counts from the full fit."""
        params = np.array([rule.param for rule in grid])
        survivors = self.full_survival.counts(params)
        errors = np.zeros(len(grid), dtype=int)
        for fold in self.folds:
            pred = fold.predict_grid(self.values[:, fold.test_idx].T, grid, params)
            errors += (pred != fold.y[:, None]).sum(axis=0)
        points = tuple(
            CvPoint(rule, int(errors[g]), int(survivors[g])) for g, rule in enumerate(grid)
        )
        return CvCurve(points, self.seed)


def cross_validate(
    ds: Dataset,
    grid,
    F: int,
    seed: int,
    *,
    prior_mode: str = "empirical",
    s0: str | float = "median",
    mk_mode: str = "paper",
) -> CvCurve:
    """Accumulate per-rule misclassification counts over F stratified folds.

    Survivor counts are taken from a fit on the full training set.
    Deterministic given (ds, grid, F, seed).
    """
    grid = list(grid)
    if not grid:
        raise ValidationError("grid must be nonempty")
    if F < 2:
        raise ValidationError(f"need at least 2 folds, got {F}")
    if len({rule.kind for rule in grid}) != 1:
        raise ValidationError("a CV curve must hold rules of a single kind")
    fit_kw = dict(prior_mode=prior_mode, s0=s0, mk_mode=mk_mode)
    return _FoldFits(ds, grid[0].kind, F, seed, fit_kw).curve(grid)


def select_smallest(curve: CvCurve) -> int:
    """Index of the smallest-CV-error point (0-based).

    Ties are broken by smaller survivor count, then by larger shrinkage
    (later grid position).
    """
    pts = curve.points
    return min(
        range(len(pts)),
        key=lambda i: (pts[i].cv_error_count, pts[i].survivor_count, -i),
    )


def _runner_up(curve: CvCurve, tau: int) -> int | None:
    """Second-smallest-error index: best point excluding tau, same tie rules."""
    pts = curve.points
    rest = [i for i in range(len(pts)) if i != tau]
    if not rest:
        return None
    return min(
        rest, key=lambda i: (pts[i].cv_error_count, pts[i].survivor_count, -i)
    )


def _switch_to_runner_up(
    tau_point: CvPoint,
    nu_point: CvPoint,
    big_gap: int,
    anchor_error: int,
    error_gap: int = 1,
) -> bool:
    """Whether the runner-up replaces the smallest-error point.

    Requires the runner-up's error within ``error_gap`` of the anchor (the
    smallest error seen so far) and a drastic survivor reduction: either
    less than half the survivors, or a reduction above ``big_gap``.
    """
    if nu_point.cv_error_count - anchor_error > error_gap:
        return False
    return (
        2 * nu_point.survivor_count < tau_point.survivor_count
        or tau_point.survivor_count - nu_point.survivor_count > big_gap
    )


def _candidate_interval(
    survivors, ell: int, m: int
) -> tuple[int, int] | None:
    """Grid-index interval around ell to refine, or None if nothing qualifies.

    The right interval needs a survivor drop of more than one; the left
    interval needs a survivor drop below m (as specified, in spite of the
    unit mismatch with the right guard).  Boundary positions only consider
    their single inward side.
    """
    last = len(survivors) - 1
    right_ok = ell < last and survivors[ell] - survivors[ell + 1] > 1
    left_ok = ell > 0 and survivors[ell - 1] - survivors[ell] < m
    if right_ok and left_ok:
        return (ell - 1, ell + 1)
    if right_ok:
        return (ell, ell + 1)
    if left_ok:
        return (ell - 1, ell)
    return None


def _refine_grid(
    lo_rule: ThresholdRule, hi_rule: ThresholdRule, k: int
) -> list[ThresholdRule]:
    """k rules evenly spaced strictly inside (lo_rule, hi_rule).

    The bounds are in increasing-shrinkage order.  For order rules the
    interior values are rounded to distinct integers, which may yield fewer
    than k points (or none when the bounds are adjacent integers).
    """
    a, b = lo_rule.param, hi_rule.param
    inner = np.linspace(a, b, k + 2)[1:-1]
    if lo_rule.kind == "order":
        ints = np.rint(inner).astype(int)
        ints = ints[(ints < max(a, b)) & (ints > min(a, b))]
        vals = np.unique(ints)[::-1]  # descending count = increasing shrinkage
        return [ThresholdRule("order", int(v)) for v in vals]
    return [ThresholdRule(lo_rule.kind, float(v)) for v in inner]


def deep_search(
    ds: Dataset,
    kind: str,
    m: int = 30,
    F: int | None = None,
    seed: int = 0,
    big_gap: int = 2000,
    max_iterations: int = 50,
    *,
    prior_mode: str = "empirical",
    s0: str | float = "median",
    mk_mode: str = "paper",
) -> DeepSearchTrace:
    """Iterative grid-refinement search for the thresholding parameter.

    Starts from the standard m-point grid, picks the smallest-error point
    (possibly jumping to a drastically smaller runner-up model), then
    repeatedly re-splits the qualifying neighboring interval and re-runs
    cross-validation over the same fold fits, made once per call.  Stops
    when no interval qualifies, the refined grid is empty or cannot improve,
    or the survivor span is exhausted.  Raises ``DeepSearchError`` past ``max_iterations``.
    """
    if F is None:
        F = fold_count(ds)
    fits = _FoldFits(ds, kind, F, seed, dict(prior_mode=prior_mode, s0=s0, mk_mode=mk_mode))
    grid = threshold_grid(fits.full, kind, m)
    iterations: list[DeepSearchIteration] = []
    current: CvPoint | None = None
    anchor_error: int | None = None
    stop_reason = ""
    for _ in range(max_iterations):
        curve = fits.curve(grid)
        tau = select_smallest(curve)
        if current is not None and curve.points[tau].cv_error_count > current.cv_error_count:
            # refined grid is strictly worse than the incumbent; keep it
            stop_reason = "no-improvement"
            break
        best_here = curve.points[tau].cv_error_count
        anchor_error = best_here if anchor_error is None else min(anchor_error, best_here)
        nu = _runner_up(curve, tau)
        switched = False
        ell = tau
        if nu is not None and _switch_to_runner_up(
            curve.points[tau], curve.points[nu], big_gap, anchor_error
        ):
            ell = nu
            switched = True
        current = curve.points[ell]
        survivors = [pt.survivor_count for pt in curve.points]
        interval = _candidate_interval(survivors, ell, m)
        if interval is None:
            iterations.append(
                DeepSearchIteration(curve, tau, nu, switched, None, 0)
            )
            stop_reason = "no-qualifying-interval"
            break
        lo, hi = interval
        k = min(m, survivors[lo] - survivors[hi])
        iterations.append(DeepSearchIteration(curve, tau, nu, switched, interval, k))
        if k <= 0:
            stop_reason = "survivors-unchanged"
            break
        next_grid = _refine_grid(curve.points[lo].rule, curve.points[hi].rule, k)
        if not next_grid:
            stop_reason = "empty-refinement"
            break
        grid = next_grid
    else:
        raise DeepSearchError(
            f"deep search exceeded the iteration cap of {max_iterations}"
        )
    assert current is not None
    return DeepSearchTrace(tuple(iterations), current.rule, stop_reason)
