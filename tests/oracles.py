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

from nsckit import fit_statistics, predict, shrink, stratified_folds


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
    plan = stratified_folds(ds, F, seed)
    errors = [0] * len(grid)
    all_idx = np.arange(ds.n)
    for test_idx in plan.folds:
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


def max_displacement_by_enumeration(r):
    return max(srd_null_by_enumeration(r))
