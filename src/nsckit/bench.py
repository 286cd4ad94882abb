"""Threshold tuning, the seeded benchmark harness and synthetic data.

``tune`` is the one tuning entry point, shared by ``nsckit cv``/``tune``/
``bench``.  ``run_experiment`` reproduces the evaluation protocol: for each
of ``runs`` seeded repetitions the threshold is re-tuned on the training set
(fold assignment is the only re-randomized ingredient), a final model is
fitted on the full training set, and the percent test error plus the
survivor count are recorded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, column_order, fold_count
from .errors import ValidationError
from .model import CentroidStats, fit_statistics, predict, shrink
from .thresholds import ThresholdRule, threshold_grid
from .tuning import (
    DEFAULT_BIG_GAP, DEFAULT_FOLDS, DEFAULT_M, DeepSearchIteration, DeepSearchTrace,
    cross_validate, deep_search, select_smallest,
)

METHODS = {
    "sth": ("soft", False),
    "hth": ("hard", False),
    "oth": ("order", False),
    "sth2": ("soft", True),
    "hth2": ("hard", True),
    "oth2": ("order", True),
}


def tune(
    ds: Dataset, full: CentroidStats, kind: str, deep: bool, seed: int, *,
    m: int = DEFAULT_M, folds: int = DEFAULT_FOLDS, big_gap: int = DEFAULT_BIG_GAP, **fit_kw,
) -> DeepSearchTrace:
    """Tune the ``kind`` threshold on ``ds`` over at most ``folds`` folds.

    ``full`` is the caller's fit of all of ``ds`` with ``fit_kw``,
    ``fit_statistics``'s options by name, which every fold fit takes too; the
    m-point grid is built from it, and the deep search reuses it.  With
    ``deep`` this is ``deep_search``'s trace.  Without, the grid's
    smallest-error point is recorded as a single iteration with no runner-up
    and stop reason ``"grid-only"``.  ``big_gap`` is checked either way.
    """
    if big_gap < 0:
        raise ValidationError(f"big_gap must be non-negative, got {big_gap}")
    F = fold_count(ds, folds)
    if deep:
        return deep_search(ds, kind, m=m, F=F, seed=seed, big_gap=big_gap, full=full, **fit_kw)
    curve = cross_validate(ds, threshold_grid(full, kind, m), F, seed, **fit_kw)
    tau = select_smallest(curve)
    iteration = DeepSearchIteration(curve, tau, None, False, None, 0)
    return DeepSearchTrace((iteration,), curve.points[tau].rule, "grid-only")


@dataclass(frozen=True)
class RunRecord:
    method: str
    seed: int
    chosen_rule: ThresholdRule
    test_error_pct: float
    survivor_count: int


@dataclass(frozen=True)
class SynthSpec:
    """Mean-shift Gaussian generator for sparse-signal classification.

    The first ``informative`` features of class k (1-based) have mean
    k * shift; all other entries have mean 0.  Every entry gets
    ``noise_sd`` Gaussian noise.
    """

    p: int
    n_classes: int
    informative: int
    shift: float
    n_per_class: tuple[int, ...]
    noise_sd: float
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "n_per_class", tuple(int(v) for v in self.n_per_class))
        if self.informative > self.p or self.informative < 0:
            raise ValidationError("informative feature count must be in [0, p]")
        if len(self.n_per_class) != self.n_classes:
            raise ValidationError("need one class size per class")
        if any(v < 2 for v in self.n_per_class):
            raise ValidationError("need at least 2 samples per class")
        if not (np.isfinite(self.noise_sd) and self.noise_sd > 0):
            raise ValidationError("noise_sd must be finite and positive")
        if not np.isfinite(self.shift):
            raise ValidationError("shift must be finite")
        if self.seed < 0:
            raise ValidationError(f"seed must be non-negative, got {self.seed}")


def _draw(spec: SynthSpec, rng: np.random.Generator) -> Dataset:
    n = sum(spec.n_per_class)
    means = np.zeros((spec.p, n))
    labels = []
    col = 0
    for k, nk in enumerate(spec.n_per_class):
        means[: spec.informative, col : col + nk] = (k + 1) * spec.shift
        labels.extend([f"c{k + 1}"] * nk)
        col += nk
    values = means + rng.normal(0.0, spec.noise_sd, size=(spec.p, n))
    values.flags.writeable = False  # no one else holds it: no copy
    names = tuple(f"f{i + 1}" for i in range(spec.p))
    return Dataset.from_arrays(values, labels, names)


def generate_synthetic(spec: SynthSpec) -> tuple[Dataset, Dataset]:
    """Independent seeded train/test draws from the same class means."""
    rng = np.random.default_rng(spec.seed)
    return _draw(spec, rng), _draw(spec, rng)


def run_experiment(
    train: Dataset,
    test: Dataset,
    method: str,
    runs: int = 100,
    base_seed: int = 0,
    *,
    m: int = DEFAULT_M,
    folds: int = DEFAULT_FOLDS,
    big_gap: int = DEFAULT_BIG_GAP,
    **fit_kw,
) -> list[RunRecord]:
    """Tune, fit, and score ``runs`` times with seeds base_seed + run index.

    ``m``, ``folds`` and ``big_gap`` are ``tune``'s, and ``fit_kw`` are
    ``fit_statistics``'s options, by name, which every fit takes.  When both
    sets name their features, test features are matched to the training
    features by name, as ``nsckit predict`` matches a model's.
    """
    method = method.lower()
    if method not in METHODS:
        raise ValidationError(
            f"unknown method {method!r}, expected one of {sorted(METHODS)}"
        )
    if train.p != test.p:
        raise ValidationError("train and test feature counts differ")
    if set(test.classes) - set(train.classes):
        raise ValidationError("test set contains classes absent from training")
    X_test = test.values.T
    names = train.feature_names
    if names is not None and test.feature_names not in (None, names):
        X_test = X_test[:, column_order(test.feature_names, names)]
    kind, deep = METHODS[method]
    full_stats = fit_statistics(train, **fit_kw)
    # test class codes mapped through the training class order
    train_index = {cls: k for k, cls in enumerate(train.classes)}
    y_test = np.array([train_index[c] for c in test.classes])[test.y]
    records = []
    for r in range(runs):
        seed = base_seed + r
        rule = tune(
            train, full_stats, kind, deep, seed, m=m, folds=folds, big_gap=big_gap, **fit_kw
        ).final_rule
        model = shrink(full_stats, rule)
        pred = predict(model, X_test)
        err_pct = 100.0 * float((pred != y_test).sum()) / test.n
        records.append(
            RunRecord(method, seed, rule, err_pct, int(model.survivors.size))
        )
    return records


@dataclass(frozen=True)
class Aggregate:
    mean_error: float
    median_error: float
    se_error: float
    mean_survivors: float
    se_survivors: float


def aggregate(records) -> Aggregate:
    """Mean, median (midpoint for even counts), and standard errors."""
    records = list(records)
    if len(records) < 2:
        raise ValidationError("need at least 2 records to aggregate")
    errors = np.array([rec.test_error_pct for rec in records], dtype=float)
    survivors = np.array([rec.survivor_count for rec in records], dtype=float)
    n = len(records)
    return Aggregate(
        float(errors.mean()),
        float(np.median(errors)),
        float(errors.std(ddof=1) / np.sqrt(n)),
        float(survivors.mean()),
        float(survivors.std(ddof=1) / np.sqrt(n)),
    )
