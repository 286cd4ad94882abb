"""Thresholding rules applied to class-vs-overall centroid statistics.

Three rules are supported: soft (continuous shrinkage toward zero), hard
(keep-or-kill with a strict cutoff), and order (retain a fixed number of
largest-magnitude statistics, pooled over the whole p x K matrix).

A rule keeps the entries whose ``retention_keys`` lie below its cut.
``apply_rule``, behind ``soft``, ``hard`` and ``order``, zeroes the others;
``kept_counts`` counts the kept entries of ``retention_lists``' sorted keys.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

KINDS = ("soft", "hard", "order")


@dataclass(frozen=True)
class ThresholdRule:
    """A thresholding rule tag with its parameter.

    ``param`` is a nonnegative real threshold for soft/hard and a
    nonnegative integer count of retained statistics for order.
    """

    kind: str
    param: float

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValidationError(f"unknown thresholding kind {self.kind!r}")
        if self.kind == "order":
            if not math.isfinite(self.param) or self.param != int(self.param) or self.param < 0:
                raise ValidationError(
                    f"order threshold must be a nonnegative integer, got {self.param}"
                )
            object.__setattr__(self, "param", int(self.param))
        else:
            if not math.isfinite(self.param) or self.param < 0:
                raise ValidationError(
                    f"{self.kind} threshold must be finite and >= 0, got {self.param}"
                )
            object.__setattr__(self, "param", float(self.param))

    def __str__(self) -> str:
        return f"{self.kind}:{self.param!r}" if self.kind != "order" else f"order:{self.param}"


def parse_rule(text: str) -> ThresholdRule:
    """Parse CLI rule syntax ``soft:D``, ``hard:D``, or ``order:N``."""
    kind, sep, value = text.partition(":")
    if not sep or kind not in KINDS:
        raise ValidationError(f"bad rule syntax {text!r}, expected soft:D, hard:D, or order:N")
    try:
        param = int(value) if kind == "order" else float(value)
    except ValueError:
        raise ValidationError(f"bad rule parameter in {text!r}") from None
    return ThresholdRule(kind, param)


def soft(d, delta: float):
    """Soft thresholding: sgn(d) * (|d| - delta)+."""
    return apply_rule(d, ThresholdRule("soft", delta))


def hard(d, delta: float):
    """Hard thresholding: keep d where |d| > delta (strict), else zero."""
    return apply_rule(d, ThresholdRule("hard", delta))


def magnitude_order(D) -> np.ndarray:
    """Flat row-major indices of D's entries, largest |d| first; ties in
    magnitude go to the smaller row index, then the smaller column index.

    That is ``np.argsort(-|D|, kind="stable")``, by two plain sorts: one
    groups equal magnitudes, the other orders the groups' runs by index.
    """
    a = -np.abs(np.ravel(np.asarray(D, dtype=float)))
    first = np.argsort(a)
    ordered = a[first]
    run = np.zeros(a.size, dtype=np.int64)
    np.cumsum(ordered[1:] != ordered[:-1], out=run[1:])
    return first[np.argsort(run * a.size + first)]


def magnitude_ranks(D) -> np.ndarray:
    """Retention rank of every entry of D by magnitude, pooled over the matrix.

    Rank 0 is the largest |d|, and ties fall as in :func:`magnitude_order`.
    The order rule keeps the entries ranked below its retained count.
    """
    D = np.asarray(D, dtype=float)
    ranks = np.empty(D.size, dtype=np.intp)
    ranks[magnitude_order(D)] = np.arange(D.size)
    return ranks.reshape(D.shape)


def order(D, keep: int) -> np.ndarray:
    """Keep the ``keep`` largest-|d| entries of the whole matrix, zero the rest.

    Ranks are pooled over all p*K statistics and ties are broken as in
    :func:`magnitude_ranks`.  Zero entries are never counted as retained, so
    the output has exactly min(keep, #nonzero) nonzero entries.
    """
    return apply_rule(D, ThresholdRule("order", keep))


def apply_rule(D, rule: ThresholdRule):
    """Apply a thresholding rule to a p x K statistic matrix, or to a float:
    every entry keyed at or above the rule's cut (:func:`retention_keys`)
    becomes +0.0, and soft moves each kept entry delta toward zero."""
    D = np.asarray(D, dtype=float)
    if rule.kind == "order" and rule.param > D.size:
        raise ValidationError(f"retained count {rule.param} exceeds statistic count {D.size}")
    kept = retention_keys(D, rule.kind) < _cut(rule.kind, rule.param)
    out = np.where(kept, D - rule.param * np.sign(D) if rule.kind == "soft" else D, 0.0)
    return out if out.ndim else float(out)


def retention_keys(D, kind: str) -> np.ndarray:
    """Key of every entry of D under rules of one kind, smallest kept first.

    Soft and hard key an entry by -|d|, order by its :func:`magnitude_ranks`
    rank, and a zero entry by D.size.  A rule keeps the entries keyed below
    its cut: a prefix, of the length :func:`kept_counts` gives, of any list
    of entries sorted by key.
    """
    D = np.asarray(D, dtype=float)
    if kind == "order":
        return np.where(D != 0.0, magnitude_ranks(D), D.size)
    if kind not in KINDS:
        raise ValidationError(f"unknown thresholding kind {kind!r}")
    return -np.abs(D)


def retention_lists(D: np.ndarray, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """K x p: row k lists the rows of column k of D in the order rules of
    ``kind`` keep them, and their :func:`retention_keys`, ascending.  Soft
    and hard key alike and share one pair of lists; order has its own."""
    if kind == "order":
        # column k's entries in pooled order, zeros (keyed by the size)
        # last; column numbers in a small integer type sort by radix
        K = D.shape[1]
        flat = magnitude_order(D)
        col = (flat % K).astype(np.min_scalar_type(K))
        ranks = np.argsort(col, kind="stable").reshape(K, -1)
        entries = flat[ranks]
        return entries // K, np.where(np.take(D, entries) != 0.0, ranks, flat.size)
    # entries with equal keys are kept together, so any sort will do
    keys = retention_keys(D, kind).T
    rows = np.argsort(keys, axis=1)
    return rows, np.take_along_axis(keys, rows, axis=1)


def _cut(kind: str, param):
    """The key below which a rule of ``kind`` with ``param`` keeps an entry."""
    return param if kind == "order" else -param


def kept_counts(sorted_keys, kind: str, params) -> np.ndarray:
    """How many of the ascending ``sorted_keys`` the rule with each parameter keeps."""
    return np.searchsorted(sorted_keys, _cut(kind, np.asarray(params)), side="left")


def threshold_grid(stats, kind: str, m: int) -> list[ThresholdRule]:
    """Build the initial tuning grid, in increasing-shrinkage order.

    Soft/hard: m values evenly spaced on [0, max|d|].  Order: m distinct
    integers evenly spaced (rounded) on [0, p*K], descending, so that
    survivor counts are non-increasing along every grid.
    """
    if m < 2:
        raise ValidationError(f"grid size must be >= 2, got {m}")
    if kind == "order":
        total = stats.t_stats.size
        vals = np.unique(np.rint(np.linspace(0, total, m)).astype(int))
        return [ThresholdRule("order", int(v)) for v in vals[::-1]]
    top = float(np.abs(stats.t_stats).max())
    return [ThresholdRule(kind, float(v)) for v in np.linspace(0.0, top, m)]
