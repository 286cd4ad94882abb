"""Shrunken-centroid statistics, model construction, and classification.

The fitted statistics express every class centroid as the overall centroid
plus a standardized offset, class centroid = overall + m_k * (s_i + s0) * d_ik.
Thresholding shrinks the d_ik matrix; centroids are rebuilt from the shrunken
statistics and new samples are classified to the class whose shrunken
centroid gives the smallest standardized squared distance penalized by the
log class prior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import _LINE_BREAKS, Dataset, read_text
from .errors import (
    DegenerateDesignError,
    DegenerateVarianceError,
    ParseError,
    ValidationError,
)
from .thresholds import ThresholdRule, apply_rule, parse_rule


@dataclass(frozen=True)
class CentroidStats:
    """All fitted centroid statistics of a dataset.

    Shapes: ``overall_centroid`` (p,), ``class_centroids`` and ``t_stats``
    (p, K), ``pooled_sd`` (p,), ``m`` and ``priors`` (K,).  ``feature_names``
    are those of the training data, if it had any.
    """

    overall_centroid: np.ndarray
    class_centroids: np.ndarray
    pooled_sd: np.ndarray
    s0: float
    m: np.ndarray
    t_stats: np.ndarray
    priors: np.ndarray
    classes: tuple[str, ...]
    feature_names: tuple[str, ...] | None = None

    @property
    def p(self) -> int:
        return self.overall_centroid.size

    @property
    def n_classes(self) -> int:
        return self.m.size


@dataclass(frozen=True)
class ShrunkenModel:
    """A CentroidStats with a thresholding rule applied."""

    stats: CentroidStats
    rule: ThresholdRule
    shrunken_t: np.ndarray
    shrunken_centroids: np.ndarray
    survivors: np.ndarray  # sorted feature indices with any nonzero shrunken stat

    @property
    def classes(self) -> tuple[str, ...]:
        return self.stats.classes


def fit_statistics(
    ds: Dataset,
    prior_mode: str = "empirical",
    s0: str | float = "median",
    mk_mode: str = "paper",
) -> CentroidStats:
    """Fit overall/class centroids, pooled SDs, and the d_ik statistics.

    ``s0`` is the guard added to every pooled SD: the median of the pooled
    SDs by default, or an explicit nonnegative value.  ``mk_mode`` selects
    the class scale factor: "paper" gives sqrt(1/n_k + 1/n), "classic" gives
    sqrt(1/n_k - 1/n).
    """
    if prior_mode not in ("empirical", "uniform"):
        raise ValidationError(f"unknown prior mode {prior_mode!r}")
    if mk_mode not in ("paper", "classic"):
        raise ValidationError(f"unknown m_k mode {mk_mode!r}")
    n, K = ds.n, ds.n_classes
    if n <= K:
        raise DegenerateDesignError(
            f"need more samples than classes to pool variance (n={n}, K={K})"
        )
    X = ds.values
    overall = X.mean(axis=1)
    n_k = ds.class_sizes.astype(float)
    class_centroids = np.empty((ds.p, K))
    ss = np.zeros(ds.p)
    for k in range(K):
        Xk = X[:, ds.class_members(k)]  # a copy, so squared in place below
        class_centroids[:, k] = Xk.mean(axis=1)
        Xk -= class_centroids[:, k][:, None]
        Xk *= Xk
        ss += Xk.sum(axis=1)
    pooled_sd = np.sqrt(ss / (n - K))
    if s0 == "median":
        s0_val = float(np.median(pooled_sd))
    else:
        s0_val = float(s0)
        if s0_val < 0 or not math.isfinite(s0_val):
            raise ValidationError(f"s0 must be finite and >= 0, got {s0}")
    denom_sd = pooled_sd + s0_val
    if np.any(denom_sd == 0):
        raise DegenerateVarianceError(
            "some features have zero pooled standard deviation and the "
            "guard value s0 is zero"
        )
    if mk_mode == "paper":
        m = np.sqrt(1.0 / n_k + 1.0 / n)
    else:
        m = np.sqrt(1.0 / n_k - 1.0 / n)
    t_stats = (class_centroids - overall[:, None]) / (m[None, :] * denom_sd[:, None])
    if prior_mode == "empirical":
        priors = n_k / n
    else:
        priors = np.full(K, 1.0 / K)
    return CentroidStats(
        overall, class_centroids, pooled_sd, s0_val, m, t_stats, priors, ds.classes,
        ds.feature_names,
    )


def shrink(stats: CentroidStats, rule: ThresholdRule) -> ShrunkenModel:
    """Apply a thresholding rule and rebuild the shrunken centroids."""
    d_shrunk = apply_rule(stats.t_stats, rule)
    centroids = (
        stats.overall_centroid[:, None]
        + stats.m[None, :] * (stats.pooled_sd + stats.s0)[:, None] * d_shrunk
    )
    survivors = np.flatnonzero(np.any(d_shrunk != 0.0, axis=1))
    return ShrunkenModel(stats, rule, d_shrunk, centroids, survivors)


def discriminant_scores(model: ShrunkenModel, X) -> np.ndarray:
    """Discriminant scores for samples, lower is better.

    ``X`` is a single length-p vector or an (n_samples, p) matrix; the result
    has shape (K,) or (n_samples, K).  The quadratic term is summed over
    surviving features plus a class-constant contribution from the rest,
    which equals the full sum because non-survivor shrunken centroids
    coincide across classes.
    """
    X = np.asarray(X, dtype=float)
    single = X.ndim == 1
    if single:
        X = X[None, :]
    stats = model.stats
    if X.shape[1] != stats.p:
        raise ValidationError(
            f"samples have {X.shape[1]} features, model expects {stats.p}"
        )
    if not np.all(np.isfinite(X)):
        raise ValidationError("samples must be finite")
    w = (stats.pooled_sd + stats.s0) ** 2
    surv = model.survivors
    rest = np.setdiff1d(np.arange(stats.p), surv, assume_unique=True)
    # built in place on the one gathered block, which may be nearly all of X
    dev = X[:, rest]
    dev -= stats.overall_centroid[rest]
    dev *= dev
    dev /= w[rest]
    shared = dev.sum(axis=1)
    K = stats.n_classes
    scores = np.empty((X.shape[0], K))
    X_surv, w_surv = X[:, surv], w[surv]
    for k in range(K):
        quad = ((X_surv - model.shrunken_centroids[surv, k]) ** 2 / w_surv).sum(axis=1)
        scores[:, k] = quad + shared - 2.0 * math.log(stats.priors[k])
    return scores[0] if single else scores


def predict(model: ShrunkenModel, X) -> np.ndarray:
    """Predicted 0-based class indices; ties go to the smallest index."""
    scores = discriminant_scores(model, np.atleast_2d(np.asarray(X, dtype=float)))
    return np.argmin(scores, axis=1)


def predict_labels(model: ShrunkenModel, X) -> list[str]:
    """Predicted class identifiers."""
    return [model.classes[k] for k in predict(model, X)]


_MODEL_MAGIC = "nsckit-model"
_MODEL_VERSION = "1"


def _fmt_vector(v: np.ndarray) -> str:
    return " ".join(map(repr, np.asarray(v).ravel().tolist()))


def save_model(model: ShrunkenModel, path) -> None:
    """Write a model as versioned plain text with full-precision decimals.

    Only the fitted statistics and the rule are stored; the shrunken parts
    are rebuilt on load by reapplying the rule, which is exact.  A name with
    a comma or a line break would not read back, and is refused up front.
    """
    stats = model.stats
    for name in (*stats.classes, *(stats.feature_names or ())):
        if any(c in name for c in ",\n\r" + _LINE_BREAKS):
            raise ValidationError(f"name {name!r} holds a comma or a line break")
    lines = [
        f"{_MODEL_MAGIC} {_MODEL_VERSION}",
        f"p={stats.p}",
        f"K={stats.n_classes}",
        f"rule={model.rule}",
        f"s0={stats.s0!r}",
        "classes=" + ",".join(stats.classes),
    ]
    if stats.feature_names is not None:
        lines.append("features=" + ",".join(stats.feature_names))
    lines.append("overall_centroid " + _fmt_vector(stats.overall_centroid))
    lines.append("pooled_sd " + _fmt_vector(stats.pooled_sd))
    lines.append("m " + _fmt_vector(stats.m))
    lines.append("priors " + _fmt_vector(stats.priors))
    lines.append("class_centroids " + _fmt_vector(stats.class_centroids))
    lines.append("t_stats " + _fmt_vector(stats.t_stats))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_model(path) -> ShrunkenModel:
    """Read a model written by :func:`save_model`; round-trips bit-exactly."""
    lines = read_text(path).splitlines()
    if not lines or lines[0].split() != [_MODEL_MAGIC, _MODEL_VERSION]:
        raise ParseError(f"{path}: not a {_MODEL_MAGIC} v{_MODEL_VERSION} file")
    fields: dict[str, str] = {}
    for ln in lines[1:]:
        if "=" in ln and " " not in ln.split("=", 1)[0]:
            key, value = ln.split("=", 1)
        else:
            key, _, value = ln.partition(" ")
        if key in fields:
            raise ParseError(f"{path}: duplicate field {key!r}")
        fields[key] = value

    def vec(key, size):
        v = np.array([float(t) for t in fields[key].split()]).reshape(size)
        if not np.all(np.isfinite(v)):
            raise ValueError(f"non-finite number in {key}")
        return v

    try:
        p, K = int(fields["p"]), int(fields["K"])
        if min(p, K) < 1:
            raise ValueError(f"p={p} and K={K} must be positive")
        rule = parse_rule(fields["rule"])
        s0 = float(vec("s0", ()))
        classes = tuple(fields["classes"].split(","))
        features = tuple(fields["features"].split(",")) if "features" in fields else None
        stats = CentroidStats(
            vec("overall_centroid", p),
            vec("class_centroids", (p, K)),
            vec("pooled_sd", p),
            s0,
            vec("m", K),
            vec("t_stats", (p, K)),
            vec("priors", K),
            classes,
            features,
        )
    except (KeyError, ValueError) as exc:
        raise ParseError(f"{path}: malformed model file ({exc})") from None
    if len(classes) != K:
        raise ParseError(f"{path}: {len(classes)} class names for K={K}")
    if features is not None and len(features) != p:
        raise ParseError(f"{path}: {len(features)} feature names for p={p}")
    # what fit_statistics refuses to fit, or cannot give
    for message, ok in (
        (f"s0 must be >= 0, got {s0!r}", s0 >= 0),
        ("pooled_sd must be >= 0", np.all(stats.pooled_sd >= 0)),
        ("pooled_sd + s0 must be positive for every feature", np.all(stats.pooled_sd + s0 > 0)),
        ("m must be positive", np.all(stats.m > 0)),
        ("class priors must be positive", np.all(stats.priors > 0)),
    ):
        if not ok:
            raise ParseError(f"{path}: {message}")
    return shrink(stats, rule)
