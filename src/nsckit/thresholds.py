"""Thresholding rules applied to class-vs-overall centroid statistics.

Three rules are supported: soft (continuous shrinkage toward zero), hard
(keep-or-kill with a strict cutoff), and order (retain a fixed number of
largest-magnitude statistics, pooled over the whole p x K matrix).
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
            if self.param != int(self.param) or self.param < 0:
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


def soft(d, delta):
    """Soft thresholding: sgn(d) * (|d| - delta)+; ``delta`` broadcasts against d."""
    if np.any(np.less(delta, 0)):
        raise ValidationError(f"threshold must be >= 0, got {delta}")
    d = np.asarray(d, dtype=float)
    out = np.sign(d) * np.maximum(np.abs(d) - delta, 0.0)
    return out if out.ndim else float(out)


def hard(d, delta):
    """Hard thresholding: keep d where |d| > delta (strict), else zero.

    ``delta`` broadcasts against d.
    """
    if np.any(np.less(delta, 0)):
        raise ValidationError(f"threshold must be >= 0, got {delta}")
    d = np.asarray(d, dtype=float)
    out = np.where(np.abs(d) > delta, d, 0.0)
    return out if out.ndim else float(out)


def magnitude_ranks(D) -> np.ndarray:
    """Retention rank of every entry of D by magnitude, pooled over the matrix.

    Rank 0 is the largest |d|.  Ties in magnitude are broken
    deterministically: the entry with smaller row index (then smaller column
    index) ranks first.  The order rule keeps the entries ranked below its
    retained count.
    """
    D = np.asarray(D, dtype=float)
    # stable argsort of descending magnitude: ties fall in row-major order
    ranked = np.argsort(-np.abs(D).ravel(), kind="stable")
    ranks = np.empty(D.size, dtype=np.intp)
    ranks[ranked] = np.arange(D.size)
    return ranks.reshape(D.shape)


def _check_keep(keeps, size: int) -> None:
    for keep in np.ravel(keeps):
        if keep != int(keep) or keep < 0:
            raise ValidationError(
                f"retained count must be a nonnegative integer, got {keep}"
            )
        if keep > size:
            raise ValidationError(f"retained count {keep} exceeds statistic count {size}")


def order(D, keep: int) -> np.ndarray:
    """Keep the ``keep`` largest-|d| entries of the whole matrix, zero the rest.

    Ranks are pooled over all p*K statistics and ties are broken as in
    :func:`magnitude_ranks`.  Zero entries are never counted as retained, so
    the output has exactly min(keep, #nonzero) nonzero entries.
    """
    D = np.asarray(D, dtype=float)
    _check_keep(keep, D.size)
    return np.where(magnitude_ranks(D) < keep, D, 0.0)


def apply_rule(D: np.ndarray, rule: ThresholdRule) -> np.ndarray:
    """Apply a thresholding rule to a p x K statistic matrix."""
    if rule.kind == "soft":
        return np.asarray(soft(D, rule.param))
    if rule.kind == "hard":
        return np.asarray(hard(D, rule.param))
    return order(D, rule.param)


def apply_rules(D, kind: str, params, ranks=None) -> np.ndarray:
    """Apply many rules of one kind to a p x K matrix, stacked as p x G x K.

    Slice ``[:, g, :]`` equals ``apply_rule(D, ThresholdRule(kind,
    params[g]))`` bit for bit.  For order, ``ranks`` may pass in the
    :func:`magnitude_ranks` of the matrix D's rows were taken from, so that a
    matrix shrunk many times is sorted once and some of its rows can be
    shrunk alone; the counts are then checked against that matrix by the
    caller.
    """
    D = np.asarray(D, dtype=float)[:, None, :]
    params = np.asarray(params)[None, :, None]
    if kind == "soft":
        return soft(D, params)
    if kind == "hard":
        return hard(D, params)
    if kind != "order":
        raise ValidationError(f"unknown thresholding kind {kind!r}")
    if ranks is None:
        _check_keep(params, D.size)
        ranks = magnitude_ranks(D[:, 0, :])
    return np.where(ranks[:, None, :] < params, D, 0.0)


class RowSurvival:
    """Which rows of a p x K matrix keep a nonzero entry under rules of one kind.

    Soft and hard keep a row exactly when its largest |d| exceeds the
    threshold; order keeps a row when one of its nonzero entries ranks below
    the retained count.  Either way a rule that keeps a row keeps every row
    before it in ``rows``, so the survivors of any rule are a prefix of
    ``rows`` and ``counts`` gives their number in closed form.  ``ranks`` is
    as in :func:`apply_rules`.
    """

    def __init__(self, D, kind: str, ranks=None):
        D = np.asarray(D, dtype=float)
        if kind == "order":
            ranks = magnitude_ranks(D) if ranks is None else ranks
            key = np.where(D != 0.0, ranks, D.size).min(axis=1)
        elif kind in KINDS:
            key = -np.abs(D).max(axis=1)
        else:
            raise ValidationError(f"unknown thresholding kind {kind!r}")
        self.kind = kind
        self.size = D.size
        self.rows = np.argsort(key, kind="stable")
        self._keys = key[self.rows]

    def counts(self, params) -> np.ndarray:
        """Survivor count of the rule with each parameter."""
        params = np.asarray(params)
        if self.kind == "order":
            _check_keep(params, self.size)
            return np.searchsorted(self._keys, params, side="left")
        return np.searchsorted(self._keys, -params, side="left")


def threshold_grid(stats, kind: str, m: int = 30) -> list[ThresholdRule]:
    """Build the initial tuning grid, in increasing-shrinkage order.

    Soft/hard: m values evenly spaced on [0, max|d|].  Order: m distinct
    integers evenly spaced (rounded) on [0, p*K], descending, so that
    survivor counts are non-increasing along every grid.
    """
    if kind not in KINDS:
        raise ValidationError(f"unknown thresholding kind {kind!r}")
    if m < 2:
        raise ValidationError(f"grid size must be >= 2, got {m}")
    if kind == "order":
        total = stats.t_stats.size
        vals = np.unique(np.rint(np.linspace(0, total, m)).astype(int))
        return [ThresholdRule("order", int(v)) for v in vals[::-1]]
    top = float(np.abs(stats.t_stats).max())
    return [ThresholdRule(kind, float(v)) for v in np.linspace(0.0, top, m)]


def reference_thresholds(n: int, c: float, d_exp: float) -> dict[str, float]:
    """Literature reference thresholding parameters for sample size n.

    Returns the universal threshold sqrt(2 log n), the Fan-style threshold
    sqrt(2 log(n * a_n)) with a_n = c * (log n)^(-d_exp), and the
    (log n)^(3/2) order-thresholding recommendation.  Natural logarithms.
    """
    if n < 2:
        raise ValidationError(f"need n >= 2, got {n}")
    if c <= 0 or d_exp <= 0:
        raise ValidationError("c and d_exp must be positive")
    a_n = c * math.log(n) ** (-d_exp)
    if n * a_n <= 1:
        raise ValidationError(
            f"n * a_n = {n * a_n!r} must exceed 1 for a positive log"
        )
    return {
        "universal": math.sqrt(2 * math.log(n)),
        "fan": math.sqrt(2 * math.log(n * a_n)),
        "kim_akritas": math.log(n) ** 1.5,
    }
