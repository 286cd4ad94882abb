"""Cross-validation over threshold grids and deep-search refinement.

``cross_validate`` scores every rule of a grid by misclassification counts
over stratified folds.  ``select_smallest`` picks the smallest-error point,
preferring smaller models on ties.  ``deep_search`` repeatedly narrows the
threshold interval around the selected point, optionally jumping to the
runner-up when it buys a drastically smaller model at the cost of at most
one extra misclassified sample.  Callers tune through ``bench.tune``, which
caps the fold count and runs one or the other.  ``cross_validate``, the one
place grid CV runs, sums the error counts of its fold plan by
``forked.split_sum``, which deals the folds into shares by the size of
the training matrix: one share, done here, unless the matrix is large
enough to split over forked children (``data._shares``).  ``deep_search``
runs in this process.

Each fold is fitted once per ``cross_validate`` call.  ``deep_search`` keeps
the folds of its last plan, so searches of every kind on one dataset object,
fold plan and set of fit options fit each fold once.  A fold keeps its
held-out samples as z = (x - overall) / (s + s0), and sorts each class
column of its statistics once, by descending |d|, the order the rules of
every kind keep them in (``thresholds.retention_lists``), so every rule
keeps a prefix of every column, of the length ``kept_counts`` gives.
With shrunken statistics d', class k scores |z|^2 - 2 m_k z.d'_k + m_k^2
|d'_k|^2 - 2 log prior_k, and the common |z|^2 is dropped.  A grid is scored
against a group of folds in one call: each fold's cross terms are segment
sums of z m_k d between its own kept counts, its squared terms prefix sums
of d^2 and |d|, and then the scores of all the group's samples are compared
at once.  A kept fold keeps the sums of every grid it scored, of any kind,
keyed by the grid's kept counts, so hard's first grid reads those of soft's
(the same parameters).  A row whose best and second-best scores are closer
than the rounding error either form could make is re-scored with
``predict``, so the predictions equal those of ``predict(shrink(stats,
rule), X)`` exactly.  That error scales with (|z| + |overall / sd| + max_k
R_k)^2, where R_k is m_k times the norm of |d| + delta over the entries
class k keeps.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset, _frozen, stratified_folds
from .errors import DeepSearchError, ValidationError
from .model import CentroidStats, fit_statistics, predict, shrink
# apply_rule stays bound here: benchmarks/bench_workloads.py instruments it by
# name in every module that imports it.
from .thresholds import (  # noqa: F401
    ThresholdRule,
    apply_rule,
    kept_counts,
    retention_keys,
    retention_lists,
    threshold_grid,
)

# The defaults of a tuning run's fold count, grid size m and deep-search gap big_gap.
DEFAULT_FOLDS = 10
DEFAULT_M = 30
DEFAULT_BIG_GAP = 2000
# The deep search raises DeepSearchError past this many grid passes.
MAX_ITERATIONS = 50


def _prefix_sums(a: np.ndarray) -> np.ndarray:
    """[..., c]: the sum of the first c entries along the last axis of a."""
    out = np.zeros(a.shape[:-1] + (a.shape[-1] + 1,))
    np.cumsum(a, axis=-1, out=out[..., 1:])
    return out


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
    """Statistics fitted without one fold, the fold's held-out samples, and
    the statistics' ``retention_lists``: ``order``, and ``keys`` by kind.

    The fit and the sort are the same for every rule kind.  The samples are
    kept as z; a fallback gathers them again from ``values``, the dataset's
    matrix.  ``sums`` holds the sums ``_predict_group`` made for each grid
    scored, keyed by the bytes of the grid's (G, K) kept counts: "cross"
    and "sq", and for soft also "signs" and "abs".
    """

    def __init__(self, stats: CentroidStats, values: np.ndarray, test_idx: np.ndarray,
                 y: np.ndarray):
        self.stats = stats
        self.values = values
        self.test_idx = test_idx
        self.y = y
        sd = stats.pooled_sd + stats.s0
        self.z = (values[:, test_idx].T - stats.overall_centroid) / sd
        # |z| + |overall / sd|: the grid-free part of the size in the bound
        offset = math.sqrt(((stats.overall_centroid / sd) ** 2).sum())
        self.norms = np.sqrt((self.z**2).sum(axis=1)) + offset
        self.prior_terms = np.array([-2.0 * math.log(pk) for pk in stats.priors])
        # [j, k]: class j < k has the same prior term as class k
        self.earlier_twin = np.triu(self.prior_terms[:, None] == self.prior_terms[None, :], 1)
        self.order, magnitude, rank = retention_lists(stats.t_stats)
        self.keys = {"soft": magnitude, "hard": magnitude, "order": rank}
        self.sums = {}


def _kept_sums(zs: np.ndarray, weights: np.ndarray, cuts: np.ndarray, at: np.ndarray):
    """[r, g, k]: zs[r, k] . weights[k] over the first cuts[at[g, k]] entries."""
    segments = np.add.reduceat(zs * weights, cuts[:-1], axis=2)
    return _prefix_sums(segments)[:, np.arange(len(weights)), at]


def _best_two(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The smallest-scoring class along the last axis, the first on a tie,
    and its gap to the second smallest score; K elementwise passes over the
    class slices, which numpy runs faster than one reduction along a short
    last axis."""
    best = scores[..., 0]
    second = np.full(best.shape, np.inf)
    pred = np.zeros(best.shape, dtype=np.intp)
    for k in range(1, scores.shape[-1]):
        s = scores[..., k]
        lower = s < best
        second = np.where(lower, best, np.minimum(second, s))
        best = np.where(lower, s, best)
        pred[lower] = k
    return pred, second - best


def _predict_group(folds: list[_HeldOutFold], grid: list[ThresholdRule]) -> np.ndarray:
    """Predicted class of every held-out sample of the folds under every rule,
    n x G with the folds' samples in turn."""
    kind, params = grid[0].kind, np.array([rule.param for rule in grid])
    K, p = folds[0].order.shape
    cls = np.arange(K)
    sizes = [len(fold.z) for fold in folds]
    of = np.repeat(np.arange(len(folds)), sizes)  # the fold of every row
    rows = [slice(a - n, a) for a, n in zip(np.cumsum(sizes), sizes)]
    # [f, g, k]: the nonzero statistics rule g keeps in class k of fold f
    counts = np.stack([[kept_counts(keys, kind, params) for keys in fold.keys[kind]]
                       for fold in folds]).transpose(0, 2, 1)
    soft = kind == "soft"
    # Every kept prefix of a fold ends at one of its cuts: its products are
    # summed between cuts and accumulated, one fold's at a time, so cross[r,
    # g, k] = z_r.(m_k d'_k) with the statistics of row r's fold, where d' =
    # d - delta sgn d on the kept entries for soft and d otherwise.
    # Every kind keeps a prefix of the same lists, so the sums depend on the
    # kept counts alone and a fold keeps them by those counts: hard's first
    # grid reads soft's, and soft adds its sign and |d| sums to hard's.  The
    # kept arrays are only ever read.
    kept_sums = []
    for fold, kept in zip(folds, counts):
        sums = fold.sums.setdefault(kept.tobytes(), {})
        if not sums or soft and "signs" not in sums:
            cuts = np.unique(np.append(kept, 0))
            at = np.searchsorted(cuts, kept)
            # the indices are in range, and wrap is numpy's fastest take for them
            o = fold.order[:, : cuts[-1]]
            zs = np.take(fold.z, o, axis=1, mode="wrap")
            d = np.take(fold.stats.t_stats, o * K + cls[:, None], mode="wrap")
            m = fold.stats.m[:, None]
            if not sums:
                sums.update(cross=_kept_sums(zs, m * d, cuts, at),
                            sq=_prefix_sums(d**2)[cls, kept])
            if soft:
                sums.update(signs=_kept_sums(zs, m * np.sign(d), cuts, at),
                            abs=_prefix_sums(np.abs(d))[cls, kept])
        kept_sums.append(sums)
    cross = np.concatenate([sums["cross"] for sums in kept_sums])
    sq = np.stack([sums["sq"] for sums in kept_sums])
    reach = sq
    if soft:
        delta = params[:, None]
        cross -= delta * np.concatenate([sums["signs"] for sums in kept_sums])
        # |d'|^2 = Q - 2 delta A + delta^2 c with Q = sum d^2, A = sum |d|
        a = 2.0 * delta * np.stack([sums["abs"] for sums in kept_sums])
        c = delta**2 * counts
        sq, reach = sq - a + c, sq + a + c
    m_sq = np.stack([fold.stats.m for fold in folds])[:, None] ** 2
    prior_terms = np.stack([fold.prior_terms for fold in folds])
    scores = prior_terms[of, None] - 2.0 * cross + (m_sq * sq)[of]
    # Classes whose shrunken statistics all vanish and whose priors match
    # score exactly alike in both forms, and the first of them wins the
    # tie, so the later ones are set aside.
    vanished = counts == 0
    twins = np.stack([fold.earlier_twin for fold in folds])
    scores[(vanished & (vanished @ twins))[of]] = np.inf
    pred, gap = _best_two(scores)
    # Rounding: gamma_n = n u / (1 - n u) bounds the relative error of n
    # roundings of unit roundoff u.  Let R_k = m_k sqrt(Q + 2 delta A +
    # delta^2 c), delta = 0 for hard and order: R_k >= |m_k d'_k| and, by
    # Cauchy-Schwarz, the kept sum |z| m_k (|d| + delta) <= |z| R_k.  Each of
    # a row's at most p kept products meets one addition per entry of its
    # segment and one per cut after it, at most p in all, so this form's
    # score is within gamma_(p+12) (size^2 + const) of the exact score,
    # where size = |z| + |overall / sd| + max_k R_k.  As size bounds |z - m
    # d'| and |overall / sd| + |m d'|, the direct form's is within
    # gamma_(2p+24) size^2 + gamma_4 const.  The bound covers two classes in
    # both forms; a larger gap orders the direct scores alike.
    size = np.concatenate([fold.norms for fold in folds])[:, None]
    size = size + np.sqrt(m_sq * reach).max(axis=2)[of]
    const = np.abs(prior_terms).max(axis=1)[of, None]
    nu = (4 * p + 64) * np.finfo(float).eps / 2
    near = gap <= 2.0 * nu / (1.0 - nu) * (size**2 + const)
    # The fold's whole batch is re-scored: numpy sums a row in an order that
    # depends on the batch shape, and an exact tie can fall either way.
    for f, g in np.argwhere(np.logical_or.reduceat(near, np.cumsum(sizes) - sizes)):
        fold, hit = folds[f], near[rows[f], g]
        direct = predict(shrink(fold.stats, grid[g]), fold.values[:, fold.test_idx].T)
        pred[rows[f]][hit, g] = direct[hit]
    return pred


def _group_errors(folds: list[_HeldOutFold], grid: list[ThresholdRule]) -> np.ndarray:
    """Misclassified held-out samples of the folds under each rule, G."""
    pred = _predict_group(folds, grid)
    return (pred != np.concatenate([fold.y for fold in folds])[:, None]).sum(axis=0)


def _fitted(ds: Dataset, plan, fit_kw: dict) -> Iterator[_HeldOutFold]:
    """The held-out folds ``plan`` in turn, each fitted when it is asked for."""
    # Training sets are gathered from a sample-major copy, where each sample
    # is contiguous; the subsets, and so the fits, are the same.
    src = replace(ds, values=_frozen(np.asfortranarray(ds.values)))
    for idx in plan:
        rest = np.setdiff1d(np.arange(ds.n), idx, assume_unique=True)
        # no name holds the training subset or the fit between folds
        yield _HeldOutFold(fit_statistics(src.subset(rest), **fit_kw), ds.values, idx, ds.y[idx])


def _survivor_curve(full: CentroidStats, kind: str):
    """A function from a grid of ``kind`` and its G CV error counts to their
    ``CvCurve``, with survivor counts from ``full``, the fit of all the data."""
    # a rule keeps a row exactly when it keeps the row's smallest key
    row_keys = np.sort(retention_keys(full.t_stats, kind).min(axis=1))

    def curve(grid: list[ThresholdRule], errors) -> CvCurve:
        survivors = kept_counts(row_keys, kind, [rule.param for rule in grid])
        return CvCurve(tuple(
            CvPoint(rule, int(e), int(n)) for rule, e, n in zip(grid, errors, survivors)
        ))

    return curve


def cross_validate(ds: Dataset, grid, F: int, seed: int, **fit_kw) -> CvCurve:
    """Accumulate per-rule misclassification counts over F stratified folds.

    Every fit takes ``fit_statistics``'s options ``fit_kw`` by name.  Survivor
    counts are taken from a fit on the full training set.  Each fold is
    fitted as the scoring reaches it and scored alone, so one fold is alive
    at a time.  ``forked.split_sum`` deals the folds into the shares that
    ``data._shares`` gives for the training matrix's bytes, one unless it is
    large enough to split, and forks a child for each share but the first
    while this process fits the full data, then does the first.  An order
    rule that keeps more than the p*K statistics is refused before any fit.
    Deterministic given (ds, grid, F, seed, fit_kw), split or not.
    """
    grid = list(grid)
    if not grid:
        raise ValidationError("grid must be nonempty")
    if len({rule.kind for rule in grid}) != 1:
        raise ValidationError("a CV curve must hold rules of a single kind")
    size = ds.p * ds.n_classes
    for rule in grid:
        if rule.kind == "order" and rule.param > size:
            raise ValidationError(f"retained count {rule.param} exceeds statistic count {size}")
    plan = stratified_folds(ds, F, seed)

    def errors(share):
        # no name holds a scored fold, so one is alive at a time
        return sum(map(lambda fold: _group_errors([fold], grid), _fitted(ds, share, fit_kw)))

    from .forked import split_sum  # not compiled by `import nsckit`

    with split_sum(errors, plan, len(grid), ds.values.nbytes) as total:
        # any children, forked on entering, work while this process fits the full data
        curve = _survivor_curve(fit_statistics(ds, **fit_kw), grid[0].kind)
        return curve(grid, total())


def _preference(curve: CvCurve):
    """Sort key of a grid index: smaller CV error first, then fewer
    survivors, then larger shrinkage (later grid position)."""
    pts = curve.points
    return lambda i: (pts[i].cv_error_count, pts[i].survivor_count, -i)


def select_smallest(curve: CvCurve) -> int:
    """Index of the smallest-CV-error point (0-based), ties as ``_preference``."""
    return min(range(len(curve.points)), key=_preference(curve))


def _runner_up(curve: CvCurve, tau: int) -> int | None:
    """Second-smallest-error index: best point excluding tau, same tie rules."""
    rest = (i for i in range(len(curve.points)) if i != tau)
    return min(rest, key=_preference(curve), default=None)


def _switch_to_runner_up(
    tau_point: CvPoint, nu_point: CvPoint, big_gap: int, anchor_error: int
) -> bool:
    """Whether the runner-up replaces the smallest-error point.

    Requires the runner-up's error within one of the anchor (the smallest
    error seen so far) and a drastic survivor reduction: either less than
    half the survivors, or a reduction above ``big_gap``.
    """
    if nu_point.cv_error_count - anchor_error > 1:
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


# The folds of the last deep search, as one (ds, (F, seed, fit options),
# folds) entry or none.  The entry holds ds, so no other dataset can take its
# id while the folds are kept.
_last_plan: list[tuple[Dataset, tuple, list[_HeldOutFold]]] = []


def _plan_folds(ds: Dataset, F: int, seed: int, fit_kw: dict) -> list[_HeldOutFold]:
    """The folds of ``ds``'s plan of F folds on ``seed``: those of the last
    deep search when it used the same dataset object, plan and fit options,
    otherwise planned and fitted here after the last search's are dropped."""
    key = (F, seed, sorted(fit_kw.items()))
    if not (_last_plan and _last_plan[0][0] is ds and _last_plan[0][1] == key):
        _last_plan.clear()
        _last_plan.append((ds, key, list(_fitted(ds, stratified_folds(ds, F, seed), fit_kw))))
    return _last_plan[0][2]


def deep_search(
    ds: Dataset,
    kind: str,
    F: int,
    m: int = DEFAULT_M,
    seed: int = 0,
    big_gap: int = DEFAULT_BIG_GAP,
    *,
    full: CentroidStats | None = None,
    **fit_kw,
) -> DeepSearchTrace:
    """Iterative grid-refinement search for the thresholding parameter.

    Starts from the standard m-point grid, picks the smallest-error point
    (possibly jumping to a drastically smaller runner-up model), then
    repeatedly re-splits the qualifying neighboring interval and scores each
    refined grid against all of the same F fold fits in one call.  The fits
    of the last search are kept and reused when ``ds`` is the same object
    and F, seed and ``fit_kw`` are equal, whatever the kind; any other plan
    drops them before fitting its own, so at most one plan's folds are
    alive.  Stops when no interval qualifies, the refined grid is empty or
    cannot improve, or the survivor span is exhausted.  Raises
    ``DeepSearchError`` past ``MAX_ITERATIONS``.  Every fit takes
    ``fit_statistics``'s options ``fit_kw`` by name.
    ``full``, when given, is the caller's fit of all of ``ds`` with the same
    fit options, used in place of a refit.  ``big_gap`` must be non-negative.
    """
    if big_gap < 0:
        raise ValidationError(f"big_gap must be non-negative, got {big_gap}")
    full = fit_statistics(ds, **fit_kw) if full is None else full
    folds = _plan_folds(ds, F, seed, fit_kw)
    curve_of = _survivor_curve(full, kind)
    grid = threshold_grid(full, kind, m)
    iterations: list[DeepSearchIteration] = []
    current: CvPoint | None = None
    anchor_error = math.inf
    for _ in range(MAX_ITERATIONS):
        curve = curve_of(grid, _group_errors(folds, grid))
        pts = curve.points
        tau = select_smallest(curve)
        if current is not None and pts[tau].cv_error_count > current.cv_error_count:
            # refined grid is strictly worse than the incumbent; keep it
            stop_reason = "no-improvement"
            break
        anchor_error = min(anchor_error, pts[tau].cv_error_count)
        nu = _runner_up(curve, tau)
        switched = nu is not None and _switch_to_runner_up(pts[tau], pts[nu], big_gap, anchor_error)
        ell = nu if switched else tau
        current = pts[ell]
        survivors = [pt.survivor_count for pt in pts]
        interval = _candidate_interval(survivors, ell, m)
        lo, hi = interval or (ell, ell)  # k = 0 when no interval qualifies
        k = min(m, survivors[lo] - survivors[hi])
        iterations.append(DeepSearchIteration(curve, tau, nu, switched, interval, k))
        if interval is None:
            stop_reason = "no-qualifying-interval"
            break
        if k <= 0:
            stop_reason = "survivors-unchanged"
            break
        grid = _refine_grid(pts[lo].rule, pts[hi].rule, k)
        if not grid:
            stop_reason = "empty-refinement"
            break
    else:
        raise DeepSearchError(f"deep search exceeded the iteration cap of {MAX_ITERATIONS}")
    assert current is not None
    return DeepSearchTrace(tuple(iterations), current.rule, stop_reason)
