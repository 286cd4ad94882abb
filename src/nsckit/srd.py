"""Sum of Ranking Differences (SRD) comparison of methods across cases.

Each method column of a performance matrix is ranked per case against the
ranks of a golden-standard column (by default the per-case best value).
The sum of absolute rank differences is judged against the null
distribution of the displacement statistic sum |pi(i) - i| over uniform
random permutations: exact (dynamic programming) for up to 13 cases,
normal approximation with exact first two moments beyond.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import ValidationError

EXACT_LIMIT = 13


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


@dataclass(frozen=True)
class SrdResult:
    golden: np.ndarray
    gold_rank: np.ndarray
    method_ranks: dict[str, np.ndarray]
    srd_raw: dict[str, int]
    srd_scaled: dict[str, float]
    null_distribution: dict[int, float]
    percentiles: dict[str, float]  # raw-scale xx1 (5%), med (50%), xx19 (95%)
    mode: str  # "exact" | "normal"
    row_order: np.ndarray  # row indices sorted by golden-standard rank


def golden_standard(M: PerformanceMatrix, strategy: str = "min") -> np.ndarray:
    """Per-row ideal value: row minimum, maximum, or mean."""
    if strategy == "min":
        return M.values.min(axis=1)
    if strategy == "max":
        return M.values.max(axis=1)
    if strategy == "mean":
        return M.values.mean(axis=1)
    raise ValidationError(f"unknown golden-standard strategy {strategy!r}")


def rank_vector(v, ascending: bool = True) -> np.ndarray:
    """Ranks 1..r; ties receive consecutive ranks in row-index order."""
    v = np.asarray(v, dtype=float)
    key = v if ascending else -v
    order = np.argsort(key, kind="stable")
    ranks = np.empty(v.size, dtype=int)
    ranks[order] = np.arange(1, v.size + 1)
    return ranks


def max_srd(r: int) -> int:
    """Largest possible sum |pi(i) - i| over permutations of 1..r."""
    return r * r // 2 if r % 2 == 0 else (r * r - 1) // 2


def exact_null_counts(r: int) -> dict[int, int]:
    """Permutation counts by total displacement sum |pi(i) - i|.

    Dynamic program over boundary crossings: scanning positions 1..r, the
    state is the number of open top/bottom arcs that must match to the
    right; each boundary between consecutive positions contributes the
    number of arcs crossing it to the displacement sum.
    """
    if r < 1:
        raise ValidationError(f"need r >= 1, got {r}")
    # dp[(i, j)] -> {cost: count} with i open tops and j open bottoms
    dp: dict[tuple[int, int], dict[int, int]] = {(0, 0): {0: 1}}
    for b in range(1, r + 1):
        nxt: dict[tuple[int, int], dict[int, int]] = {}

        def add(state, cost, ways):
            if ways:
                bucket = nxt.setdefault(state, {})
                bucket[cost] = bucket.get(cost, 0) + ways

        for (i, j), costs in dp.items():
            for cost, cnt in costs.items():
                # new top and new bottom match each other
                add((i, j), cost, cnt)
                # top closes an open bottom, bottom closes an open top
                add((i - 1, j - 1), cost, cnt * i * j)
                # top closes an open bottom, bottom stays open
                add((i, j), cost, cnt * j)
                # top stays open, bottom closes an open top
                add((i, j), cost, cnt * i)
                # both stay open
                add((i + 1, j + 1), cost, cnt)
        if b < r:
            dp = {
                state: {cost + state[0] + state[1]: cnt for cost, cnt in costs.items()}
                for state, costs in nxt.items()
            }
        else:
            dp = nxt
    final = dp.get((0, 0), {})
    assert sum(final.values()) == math.factorial(r)
    return dict(sorted(final.items()))


def exact_null_distribution(r: int) -> dict[int, float]:
    """Exact null probabilities of the SRD value for r <= 13 cases."""
    if not 2 <= r <= EXACT_LIMIT:
        raise ValidationError(
            f"exact distribution supports 2 <= r <= {EXACT_LIMIT}, got {r}; "
            "use normal_approx_null beyond"
        )
    total = math.factorial(r)
    return {v: c / total for v, c in exact_null_counts(r).items()}


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


@dataclass(frozen=True)
class NormalNull:
    mean: float
    sd: float

    def percentile(self, q: float) -> float:
        if not 0 < q < 1:
            raise ValidationError(f"percentile level must be in (0,1), got {q}")
        return NormalDist(self.mean, self.sd).inv_cdf(q)


def normal_approx_null(r: int) -> NormalNull:
    """Normal approximation of the SRD null for r > 13 cases.

    Uses the exact first two moments of the displacement statistic,
    computed by direct summation over value assignments.
    """
    if r < EXACT_LIMIT + 1:
        raise ValidationError(
            f"normal approximation is for r >= {EXACT_LIMIT + 1}, got {r}"
        )
    mean, var = _displacement_moments(r)
    return NormalNull(mean, math.sqrt(var))


def _discrete_percentile(dist: dict[int, float], q: float) -> float:
    cum = 0.0
    for v in sorted(dist):
        cum += dist[v]
        if cum >= q:
            return float(v)
    return float(max(dist))


def _warn_on_ties(name: str, v: np.ndarray) -> None:
    if np.unique(v).size != v.size:
        warnings.warn(
            f"ties detected in {name}; ranks were broken by row order but the "
            "null distribution assumes distinct ranks",
            stacklevel=4,
        )


def _rank_differences(M: PerformanceMatrix, strategy: str):
    """Golden-standard ranks, method ranks, raw and scaled SRD of every column."""
    gold = golden_standard(M, strategy)
    ascending = M.lower_is_better
    _warn_on_ties("golden standard", gold)
    gold_rank = rank_vector(gold, ascending)
    method_ranks: dict[str, np.ndarray] = {}
    srd_raw: dict[str, int] = {}
    srd_scaled: dict[str, float] = {}
    top = max_srd(M.values.shape[0])
    for c, name in enumerate(M.col_names):
        col = M.values[:, c]
        _warn_on_ties(f"column {name!r}", col)
        ranks = rank_vector(col, ascending)
        method_ranks[name] = ranks
        raw = int(np.abs(ranks - gold_rank).sum())
        srd_raw[name] = raw
        srd_scaled[name] = 100.0 * raw / top
    return gold, gold_rank, method_ranks, srd_raw, srd_scaled


def srd(M: PerformanceMatrix, strategy: str = "min") -> SrdResult:
    """SRD of every method column against the golden standard."""
    gold, gold_rank, method_ranks, srd_raw, srd_scaled = _rank_differences(M, strategy)
    r = M.values.shape[0]
    if r <= EXACT_LIMIT:
        dist = exact_null_distribution(r)
        percentiles = {
            "xx1": _discrete_percentile(dist, 0.05),
            "med": _discrete_percentile(dist, 0.50),
            "xx19": _discrete_percentile(dist, 0.95),
        }
        mode = "exact"
    else:
        null = normal_approx_null(r)
        dist = {}
        percentiles = {
            "xx1": null.percentile(0.05),
            "med": null.percentile(0.50),
            "xx19": null.percentile(0.95),
        }
        mode = "normal"
    row_order = np.argsort(gold_rank, kind="stable")
    return SrdResult(
        gold, gold_rank, method_ranks, srd_raw, srd_scaled, dist,
        percentiles, mode, row_order,
    )


def srd_loo(M: PerformanceMatrix, strategy: str = "min") -> dict[str, list[float]]:
    """Leave-one-row-out SRD spread: scaled SRDs with each case removed.

    Only the scaled SRDs are computed; no null distribution is built.
    """
    r = M.values.shape[0]
    if r < 3:
        raise ValidationError("leave-one-out SRD needs at least 3 rows")
    out: dict[str, list[float]] = {name: [] for name in M.col_names}
    for drop in range(r):
        keep = [i for i in range(r) if i != drop]
        sub = PerformanceMatrix(
            M.values[keep],
            tuple(M.row_names[i] for i in keep),
            M.col_names,
            M.lower_is_better,
        )
        srd_scaled = _rank_differences(sub, strategy)[4]
        for name in M.col_names:
            out[name].append(srd_scaled[name])
    return out


def srd_report(result: SrdResult) -> tuple[list[list[str]], list[list[str]]]:
    """Plot-ready tables: per-method results and the null distribution.

    The results table has one row per method: raw SRD, scaled SRD, the
    scaled XX1/Med/XX19 percentiles, and a significance verdict (scaled SRD
    strictly below scaled XX1).
    """
    r = result.gold_rank.size
    top = max_srd(r)
    scale = 100.0 / top
    header = ["method", "srd_raw", "srd_scaled", "xx1", "med", "xx19", "significant"]
    rows = [header]
    for name, raw in result.srd_raw.items():
        scaled = result.srd_scaled[name]
        xx1 = result.percentiles["xx1"] * scale
        rows.append(
            [
                name,
                str(raw),
                repr(scaled),
                repr(xx1),
                repr(result.percentiles["med"] * scale),
                repr(result.percentiles["xx19"] * scale),
                "yes" if scaled < xx1 else "no",
            ]
        )
    dist_rows = [["srd_value", "probability"]]
    for v in sorted(result.null_distribution):
        dist_rows.append([str(v), repr(result.null_distribution[v])])
    return rows, dist_rows
