"""Independent brute-force reference implementations used only by tests.

These deliberately avoid the library's vectorized code paths: plain Python
loops over the defining formulas, and exhaustive permutation enumeration.
The CV oracle scores one shrunken model at a time with ``predict``, whose
results the other oracles pin down, in place of the grid-batched engine.
"""

import itertools
import math
from collections import Counter

import numpy as np

from nsckit import (
    PerformanceMatrix,
    fit_statistics,
    golden_standard,
    max_srd,
    predict,
    rank_vector,
    shrink,
    stratified_folds,
)


def nsc_scores(x, centroids, pooled_sd, s0, priors):
    """Discriminant scores by the defining full sum over all features."""
    p = len(x)
    K = len(priors)
    scores = []
    for k in range(K):
        total = 0.0
        for i in range(p):
            total += (x[i] - centroids[i][k]) ** 2 / (pooled_sd[i] + s0) ** 2
        scores.append(total - 2.0 * math.log(priors[k]))
    return scores


def nsc_predict(X, centroids, pooled_sd, s0, priors):
    """Argmin of the brute-force scores, smallest index on ties."""
    out = []
    for x in X:
        scores = nsc_scores(x, centroids, pooled_sd, s0, priors)
        best = 0
        for k in range(1, len(scores)):
            if scores[k] < scores[best]:
                best = k
        out.append(best)
    return out


def fit_by_formulas(X, y, K, mk_mode="paper"):
    """Centroid statistics straight from the definitions, python loops only.

    X is samples x features (list of lists); returns a dict of statistics.
    """
    n = len(X)
    p = len(X[0])
    overall = [sum(X[j][i] for j in range(n)) / n for i in range(p)]
    members = [[j for j in range(n) if y[j] == k] for k in range(K)]
    class_means = [
        [sum(X[j][i] for j in members[k]) / len(members[k]) for k in range(K)]
        for i in range(p)
    ]
    s = []
    for i in range(p):
        ss = 0.0
        for k in range(K):
            for j in members[k]:
                ss += (X[j][i] - class_means[i][k]) ** 2
        s.append(math.sqrt(ss / (n - K)))
    s0 = sorted(s)[p // 2] if p % 2 == 1 else (
        (sorted(s)[p // 2 - 1] + sorted(s)[p // 2]) / 2
    )
    sign = 1.0 if mk_mode == "paper" else -1.0
    m = [math.sqrt(1.0 / len(members[k]) + sign / n) for k in range(K)]
    d = [
        [
            (class_means[i][k] - overall[i]) / (m[k] * (s[i] + s0))
            for k in range(K)
        ]
        for i in range(p)
    ]
    return {
        "overall": overall,
        "class_means": class_means,
        "s": s,
        "s0": s0,
        "m": m,
        "d": d,
    }


def cv_error_counts_direct(ds, grid, F, seed, **fit_kw):
    """CV misclassification count of every rule by the direct path.

    A shrunken model is built and ``predict`` called for every (fold, rule)
    pair, with the fold plan of ``cross_validate``.
    """
    errors = [0] * len(grid)
    all_idx = np.arange(ds.n)
    for test_idx in stratified_folds(ds, F, seed):
        train_idx = np.setdiff1d(all_idx, test_idx, assume_unique=True)
        stats = fit_statistics(ds.subset(train_idx), **fit_kw)
        X_test = ds.values[:, test_idx].T
        for g, rule in enumerate(grid):
            pred = predict(shrink(stats, rule), X_test)
            errors[g] += int((pred != ds.y[test_idx]).sum())
    return errors


def srd_null_by_enumeration(r):
    """Counts of sum |pi(i) - i| over all r! permutations."""
    counts = Counter()
    for perm in itertools.permutations(range(1, r + 1)):
        counts[sum(abs(perm[i] - (i + 1)) for i in range(r))] += 1
    return dict(sorted(counts.items()))


def srd_null_counts_direct(r):
    """Counts of sum |pi(i) - i| from the boundary-crossing recurrence, one
    dict of (open arcs, cost) -> count per position, in Python ints, with no
    truncation.  Position by position: the new top and bottom are matched to
    each other, or one closes one of a open arcs and the other opens one
    (1 + 2a ways, a stays); both close one (a * a ways, a - 1); both stay open
    (a + 1).  Each boundary then adds the 2a arcs that cross it."""
    states = {(0, 0): 1}
    for _ in range(r):
        moved = Counter()
        for (a, cost), n in states.items():
            moved[a, cost] += n * (1 + 2 * a)
            if a:
                moved[a - 1, cost] += n * a * a
            moved[a + 1, cost] += n
        states = {(a, cost + 2 * a): n for (a, cost), n in moved.items()}
    return dict(sorted((cost, n) for (a, cost), n in states.items() if a == 0))


def max_displacement_by_enumeration(r):
    return max(srd_null_by_enumeration(r))


def rank_by_formula(v, ascending=True):
    """rank_i = 1 + #{j : v_j < v_i} + #{j < i : v_j = v_i}, on -v when
    higher is better."""
    key = [x if ascending else -x for x in v]
    return [
        1 + sum(k < ki for k in key) + sum(key[j] == ki for j in range(i))
        for i, ki in enumerate(key)
    ]


def srd_loo_direct(M, strategy="min"):
    """Leave-one-out scaled SRDs by ranking every sub-matrix anew."""
    r = M.values.shape[0]
    out = {name: [] for name in M.col_names}
    for drop in range(r):
        keep = [i for i in range(r) if i != drop]
        sub = PerformanceMatrix(
            M.values[keep],
            tuple(M.row_names[i] for i in keep),
            M.col_names,
            M.lower_is_better,
        )
        gold_rank = rank_vector(golden_standard(sub, strategy), M.lower_is_better)
        for c, name in enumerate(M.col_names):
            ranks = rank_vector(sub.values[:, c], M.lower_is_better)
            raw = int(np.abs(ranks - gold_rank).sum())
            out[name].append(100.0 * raw / max_srd(r - 1))
    return out


def read_table_direct(path, key_col=None):
    """A delimited table by splitting every line and calling ``float`` on
    every value cell: ``(names, keys, rows)`` with ``rows`` a list of lists.

    Blank lines are skipped, the delimiter is TAB if the header has one and
    comma otherwise, and names and keys are stripped.  Raises ValueError on
    a cell ``float`` refuses, a non-finite value or a row of the wrong width.
    """
    with open(path, encoding="utf-8-sig") as f:
        lines = [ln for ln in f.read().splitlines() if ln.strip()]
    delim = "\t" if "\t" in lines[0] else ","
    header = [h.strip() for h in lines[0].split(delim)]
    if isinstance(key_col, str):
        key_col = header.index(key_col)
    names = [h for c, h in enumerate(header) if c != key_col]
    keys = None if key_col is None else []
    rows = []
    for ln in lines[1:]:
        cells = ln.split(delim)
        if len(cells) != len(header):
            raise ValueError(f"row has {len(cells)} cells")
        row = []
        for c, text in enumerate(cells):
            if c == key_col:
                keys.append(text.strip())
                continue
            v = float(text)
            if not math.isfinite(v):
                raise ValueError(f"non-finite cell {text!r}")
            row.append(v)
        rows.append(row)
    return names, keys, rows


def magnitude_ranks_direct(D):
    """Rank of every entry by the sort key (-|d|, row, column), as lists."""
    p, K = len(D), len(D[0])
    ordered = sorted((-abs(float(D[i][k])), i, k) for i in range(p) for k in range(K))
    ranks = [[0] * K for _ in range(p)]
    for rank, (_, i, k) in enumerate(ordered):
        ranks[i][k] = rank
    return ranks


def threshold_direct(D, rule):
    """A thresholding rule by its definition, entry by entry, as lists; a
    dropped entry is +0.0.

    Soft is sgn(d)(|d| - delta)+, hard is d 1{|d| > delta}, and order keeps
    the nonzero entries ranked below its count by :func:`magnitude_ranks_direct`.
    """
    ranks = magnitude_ranks_direct(D) if rule.kind == "order" else None
    out = []
    for i, row in enumerate(D):
        out.append([])
        for k, d in enumerate(row):
            d = float(d)
            if rule.kind == "soft":
                shrunk = max(abs(d) - rule.param, 0.0)
                v = math.copysign(shrunk, d) if shrunk > 0.0 else 0.0
            elif rule.kind == "hard":
                v = d if abs(d) > rule.param else 0.0
            else:
                v = d if d != 0.0 and ranks[i][k] < rule.param else 0.0
            out[i].append(v)
    return out
