"""Metamorphic relations of whole runs: changes to the input that the
method must not see, or must see only through a known map.

Scaling every value by a power of two scales every step of a fit, of the
standardized differences and of the scores exactly, so the records are
bit-identical.  Reordering the features, with their names, changes no
feature's statistics, and renaming the classes changes no class index.
"""

import os

import numpy as np
import pytest

from nsckit import (
    Dataset, SynthSpec, bench, fit_statistics, generate_synthetic, load_matrix,
    predict_labels, run_experiment, save_matrix, shrink,
)
from nsckit import data

from conftest import assert_no_children

METHODS = ("sth", "hth", "oth", "sth2", "hth2", "oth2")


def pair(seed):
    return generate_synthetic(SynthSpec(300, 3, 15, 0.7, (10, 12, 9), 1.0, seed))


def records(train, test):
    return [rec for method in METHODS for rec in run_experiment(train, test, method, runs=2, m=12, folds=5)]


def remade(ds, values=None, labels=None, names=None):
    return Dataset.from_arrays(
        ds.values if values is None else values,
        ds.labels if labels is None else labels,
        ds.feature_names if names is None else names,
    )


@pytest.mark.parametrize("seed", range(6))
def test_scaling_by_a_power_of_two_leaves_every_record_bit_identical(seed):
    train, test = pair(seed)
    want = records(train, test)
    for c in (2.0, 0.25, 1024.0):
        got = records(remade(train, train.values * c), remade(test, test.values * c))
        assert [repr(r) for r in got] == [repr(r) for r in want], c


@pytest.mark.parametrize("seed", range(6))
def test_permuting_the_features_with_their_names_leaves_the_records_equal(seed):
    train, test = pair(seed)
    rng = np.random.default_rng(seed)
    shuffled = []
    for ds in (train, test):  # each set its own order: test features are matched by name
        perm = rng.permutation(ds.p)
        shuffled.append(remade(ds, ds.values[perm], names=[ds.feature_names[i] for i in perm]))
    assert records(*shuffled) == records(train, test)


@pytest.mark.parametrize("seed", range(3))
def test_renaming_the_classes_maps_the_predictions_through(seed):
    train, test = pair(seed)
    new = {"c1": "zeta", "c2": "alpha", "c3": "c1"}
    renamed = [remade(ds, labels=[new[lab] for lab in ds.labels]) for ds in (train, test)]
    for method in METHODS:
        kind, deep = bench.METHODS[method]
        rules, predicted = [], []
        for tr, te in ((train, test), tuple(renamed)):
            full = fit_statistics(tr)
            rule = bench.tune(tr, full, kind, deep, seed, m=12, folds=5).final_rule
            rules.append(rule)
            predicted.append(predict_labels(shrink(full, rule), te.values.T))
        assert rules[1] == rules[0], method
        assert predicted[1] == [new[lab] for lab in predicted[0]], method
    got = [rec for method in METHODS for rec in run_experiment(*renamed, method, runs=2, m=12, folds=5)]
    assert got == records(train, test)


def test_a_split_table_round_trips_bit_for_bit(tmp_path, monkeypatch):
    """A table above the split size, written in row shares over forked
    children and read in ranges over forked children, has the bytes and
    the arrays of the one-share write and the one-range read."""
    rng = np.random.default_rng(3)
    p, n = 2000, 96
    values = rng.normal(size=(p, n)) * 10.0 ** rng.integers(-300, 300, size=(p, n))
    values[0, :3] = (-0.0, 5e-324, np.finfo(float).max)
    ds = Dataset.from_arrays(values, [f"c{j % 4}" for j in range(n)])
    assert ds.values.nbytes >= data._SPLIT_BYTES
    out, forks = {}, []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    for cpus in (2, 1):
        monkeypatch.setattr(data, "_cpus", lambda cpus=cpus: cpus)
        path = tmp_path / f"cpus{cpus}.csv"
        save_matrix(ds, path)
        back = load_matrix(path, label_col="label")
        assert_no_children()
        assert (len(forks) > 0) == (cpus > 1)
        forks.clear()
        assert back.values.view(np.int64).tolist() == ds.values.view(np.int64).tolist()
        assert back.labels == ds.labels
        out[cpus] = path.read_bytes()
    assert path.stat().st_size >= 2 * data._SPLIT_BYTES  # so the read splits too
    assert out[2] == out[1]
