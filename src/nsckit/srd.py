"""Sum of Ranking Differences (SRD) comparison of methods across cases.

Each method column of a performance matrix is ranked per case against the
ranks of a golden-standard column (by default the per-case best value).
The sum of absolute rank differences is judged against the null
distribution of the displacement statistic sum |pi(i) - i| over uniform
random permutations: exact (dynamic programming) for up to 13 cases,
normal approximation with exact first two moments beyond.  Each case
count's null is built once per process and every caller gets its own copy.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from itertools import compress
from statistics import NormalDist

import numpy as np

from .errors import ValidationError

EXACT_LIMIT = 13
PERCENTILES = (("xx1", 0.05), ("med", 0.50), ("xx19", 0.95))


@dataclass(frozen=True)
class PerformanceMatrix:
    """Rows are cases (datasets), columns are methods."""

    values: np.ndarray
    row_names: tuple[str, ...]
    col_names: tuple[str, ...]
    lower_is_better: bool = True

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.ndim != 2:
            raise ValidationError("performance matrix must be 2-d")
        r, c = values.shape
        if r < 2 or c < 1:
            raise ValidationError("need at least 2 rows and 1 column")
        if not np.all(np.isfinite(values)):
            raise ValidationError("performance matrix has missing or non-finite entries")
        if len(self.row_names) != r or len(self.col_names) != c:
            raise ValidationError("row/column name counts do not match the matrix")
        if len(set(self.col_names)) != c:
            repeated = next(n for i, n in enumerate(self.col_names) if n in self.col_names[:i])
            raise ValidationError(f"column name {repeated!r} is repeated")


@dataclass(frozen=True)
class SrdResult:
    gold_rank: np.ndarray
    method_ranks: dict[str, np.ndarray]
    srd_raw: dict[str, int]
    srd_scaled: dict[str, float]
    null_distribution: dict[int, float]
    percentiles: dict[str, float]  # raw-scale xx1 (5%), med (50%), xx19 (95%)
    mode: str  # "exact" | "normal"


def golden_standard(M: PerformanceMatrix, strategy: str | None = None) -> np.ndarray:
    """Per-row ideal value: row minimum, maximum, or mean; by default the
    best value of each row, its minimum when lower is better."""
    if strategy is None:
        strategy = "min" if M.lower_is_better else "max"
    if strategy == "min":
        return M.values.min(axis=1)
    if strategy == "max":
        return M.values.max(axis=1)
    if strategy == "mean":
        return M.values.mean(axis=1)
    raise ValidationError(f"unknown golden-standard strategy {strategy!r}")


def rank_vector(v, ascending: bool = True) -> np.ndarray:
    """Ranks 1..r along axis 0, every column of a 2-D input in one sort;
    ties receive consecutive ranks in row-index order."""
    v = np.asarray(v, dtype=float)
    key = v if ascending else -v
    key = key[:, None] if key.ndim == 1 else key  # a 1-D input as one column
    order = np.argsort(key, axis=0, kind="stable")
    ranks = np.empty(key.shape, dtype=int)
    ranks[order, np.arange(key.shape[1])] = np.arange(1, len(key) + 1)[:, None]
    return ranks.reshape(v.shape)


def max_srd(r: int) -> int:
    """Largest possible sum |pi(i) - i| over permutations of 1..r."""
    return r * r // 2 if r % 2 == 0 else (r * r - 1) // 2


def exact_null_counts(r: int) -> dict[int, int]:
    """Permutation counts by total displacement sum |pi(i) - i|.

    Dynamic program over boundary crossings.  Scanning positions 1..r, every
    position adds one top (its index) and one bottom (its value), each either
    matched at once, closing an open arc, or left open; every transition
    changes the open tops and the open bottoms alike, so the state is one
    index a, the number of open arcs of each kind.  Each boundary between
    consecutive positions adds the 2a crossing arcs to the displacement sum.

    Counts are exact Python integers (an object array).
    """
    if r < 1:
        raise ValidationError(f"need r >= 1, got {r}")
    # Only a <= min(b, r - b) after position b can still close, so r // 2 + 1
    # rows suffice.  A state past that bound never returns to a = 0, so what
    # it loses off the array, above row r // 2 or past max_srd(r), is moot.
    arcs = range(r // 2 + 1)
    width = max_srd(r) + 1
    stay = np.array([1 + 2 * a for a in arcs], dtype=object)[:, None]
    close = np.array([a * a for a in arcs[1:]], dtype=object)[:, None]
    counts = np.zeros((len(arcs), width), dtype=object)
    counts[0, 0] = 1
    for b in range(1, r + 1):
        # a stays: matched pair, or one closes an open arc and one opens (1 + 2a);
        # a - 1: both close one of a open arcs (a * a); a + 1: both stay open
        nxt = counts * stay
        nxt[:-1] += counts[1:] * close
        nxt[1:] += counts[:-1]
        # row a moves 2a along the cost axis at every boundary
        counts = np.zeros_like(nxt)
        for a in arcs:
            counts[a, 2 * a :] = nxt[a, : width - 2 * a]
    final = {v: c for v, c in enumerate(counts[0].tolist()) if c}
    assert sum(final.values()) == math.factorial(r)
    return final


def exact_null_distribution(r: int) -> dict[int, float]:
    """Exact null probabilities of the SRD value for r <= 13 cases, a new
    dict on every call from the one built for r."""
    if not 2 <= r <= EXACT_LIMIT:
        raise ValidationError(
            f"exact distribution supports 2 <= r <= {EXACT_LIMIT}, got {r}; "
            "use normal_approx_null beyond"
        )
    return dict(_exact_probabilities(r))


@functools.cache
def _exact_probabilities(r: int) -> tuple[tuple[int, float], ...]:
    """The exact null of r cases as (value, probability) pairs, built once."""
    total = math.factorial(r)
    return tuple((v, c / total) for v, c in exact_null_counts(r).items())


def _displacement_moments(r: int) -> tuple[float, float]:
    """Exact mean and variance of sum |pi(i) - i| under a uniform permutation."""
    i = np.arange(1, r + 1)
    A = np.abs(i[:, None] - i[None, :]).astype(float)  # A[i, v] = |v - i|
    S = A.sum(axis=1)  # sum over values v of |v - i|
    mean = S.sum() / r
    Q = (A**2).sum(axis=1)
    T = A @ A.T  # T[i, j] = sum over v of |v - i| |v - j|
    cross = (np.outer(S, S) - T)
    np.fill_diagonal(cross, 0.0)
    second = Q.sum() / r + cross.sum() / (r * (r - 1))
    return float(mean), float(second - mean**2)


def normal_approx_null(r: int) -> NormalDist:
    """Normal approximation of the SRD null for r > 13 cases.

    A ``NormalDist`` with the exact first two moments of the displacement
    statistic, computed by direct summation over value assignments once
    per r.
    """
    if r < EXACT_LIMIT + 1:
        raise ValidationError(
            f"normal approximation is for r >= {EXACT_LIMIT + 1}, got {r}"
        )
    return NormalDist(*_normal_moments(r))


@functools.cache
def _normal_moments(r: int) -> tuple[float, float]:
    """Mean and standard deviation of the normal null of r cases, built once."""
    mean, var = _displacement_moments(r)
    return mean, math.sqrt(var)


@functools.cache
def _exact_percentiles(r: int) -> tuple[tuple[str, float], ...]:
    """Each of the ``PERCENTILES`` of the exact null of r cases, found once:
    the smallest value whose cumulative probability reaches its level, or
    the largest value."""
    found = []
    for name, q in PERCENTILES:
        cum = 0.0
        for v, prob in sorted(_exact_probabilities(r)):
            cum += prob
            if cum >= q:
                break
        found.append((name, float(v)))
    return tuple(found)


def _rank_differences(M: PerformanceMatrix, strategy: str | None):
    """The (r, c + 1) ranks of the golden standard, then of every column;
    warns once per tied column at the caller of ``srd`` or ``srd_loo``."""
    gold = golden_standard(M, strategy)
    values = np.column_stack([gold, M.values])
    ranks = rank_vector(values, M.lower_is_better)
    # each column's values in sorted order: ties are adjacent equal entries
    in_order = np.empty_like(values)
    in_order[ranks - 1, np.arange(values.shape[1])] = values
    tied = (in_order[1:] == in_order[:-1]).any(axis=0).tolist()
    names = ["golden standard", *(f"column {name!r}" for name in M.col_names)]
    for name in compress(names, tied):
        warnings.warn(
            f"ties detected in {name}; ranks were broken by row order but the "
            "null distribution assumes distinct ranks",
            stacklevel=3,
        )
    return ranks


def srd(M: PerformanceMatrix, strategy: str | None = None) -> SrdResult:
    """SRD of every method column against the golden standard."""
    ranks = _rank_differences(M, strategy)
    r = M.values.shape[0]
    if r <= EXACT_LIMIT:
        dist = exact_null_distribution(r)
        percentiles = dict(_exact_percentiles(r))
        mode = "exact"
    else:
        null = normal_approx_null(r)
        dist = {}
        percentiles = {name: null.inv_cdf(q) for name, q in PERCENTILES}
        mode = "normal"
    gold_rank, *method_ranks = ranks.T.copy()
    raw = np.abs(ranks[:, 1:] - ranks[:, :1]).sum(axis=0).tolist()
    top = max_srd(r)
    return SrdResult(
        gold_rank, dict(zip(M.col_names, method_ranks)), dict(zip(M.col_names, raw)),
        {name: 100.0 * v / top for name, v in zip(M.col_names, raw)}, dist, percentiles, mode,
    )


def srd_loo(M: PerformanceMatrix, strategy: str | None = None) -> dict[str, list[float]]:
    """Leave-one-row-out SRD spread: scaled SRDs with each case removed.

    Ranks break ties in row order and each case's golden value depends on
    its own row only, so removing case d lowers by one every rank above d's,
    in every method column and in the golden standard.  The full matrix is
    ranked once and every leave-one-out SRD is read off that rank shift in
    O(r c) time and memory; tie warnings are the full matrix's, once per
    column.  Only the scaled SRDs are computed; no null distribution is
    built.

    With x_i = R_ic - R_i0 the rank difference of case i in column c, the
    shift moves each other x_i by at most one, so removing case d leaves
    sum |x_i| - |x_d| - sum_{R_ic > R_dc} sgn x_i + sum_{R_i0 > R_d0} sgn x_i
    + #{i : x_i = 0, min(R_dc, R_d0) < R_ic <= max(R_dc, R_d0)}, each term
    read off a cumulative sum in rank order.
    """
    r = M.values.shape[0]
    if r < 3:
        raise ValidationError("leave-one-out SRD needs at least 3 rows")
    ranks = _rank_differences(M, strategy)
    gold, cols = ranks[:, :1], ranks[:, 1:]
    x = cols - gold
    at = np.arange(x.shape[1])

    def through(rank, w):
        """[k, c]: the sum of w[i, c] over the cases i of rank at most k."""
        table = np.zeros((r + 1, x.shape[1]), dtype=int)
        table[rank, at] = w
        return table.cumsum(axis=0)

    # both sums over sgn x_i are the same total less a prefix sum
    by_col, by_gold, zeros = through(cols, np.sign(x)), through(gold, np.sign(x)), through(cols, x == 0)
    raw = (np.abs(x).sum(axis=0) - np.abs(x) + by_col[cols, at] - by_gold[gold, at]
           + zeros[np.maximum(cols, gold), at] - zeros[np.minimum(cols, gold), at])
    scaled = 100.0 * raw / max_srd(r - 1)
    return dict(zip(M.col_names, scaled.T.tolist()))


def srd_report(result: SrdResult) -> tuple[list[list[str]], list[list[str]]]:
    """Plot-ready tables: per-method results and the null distribution.

    The results table has one row per method: raw SRD, scaled SRD, the
    scaled XX1/Med/XX19 percentiles, and a significance verdict (scaled SRD
    strictly below scaled XX1).
    """
    scale = 100.0 / max_srd(result.gold_rank.size)
    levels = [result.percentiles[name] * scale for name, _ in PERCENTILES]
    rows = [["method", "srd_raw", "srd_scaled", *(name for name, _ in PERCENTILES), "significant"]]
    for name, raw in result.srd_raw.items():
        scaled = result.srd_scaled[name]
        verdict = "yes" if scaled < levels[0] else "no"
        rows.append([name, str(raw), repr(scaled), *map(repr, levels), verdict])
    dist_rows = [["srd_value", "probability"]]
    for v in sorted(result.null_distribution):
        dist_rows.append([str(v), repr(result.null_distribution[v])])
    return rows, dist_rows
