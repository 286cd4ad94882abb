import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsckit import (
    Dataset,
    ParseError,
    ValidationError,
    fold_count,
    load_matrix,
    save_matrix,
    stratified_folds,
)

from nsckit.data import read_table

from conftest import random_dataset


def test_direct_construction_two_classes():
    ds = Dataset.from_arrays(
        np.array([[1.0, 2.0, 3.0, 4.0], [0.0, 0.0, 1.0, 1.0]]),
        ["A", "A", "B", "B"],
    )
    assert ds.n_classes == 2
    assert list(ds.class_sizes) == [2, 2]
    assert ds.p == 2 and ds.n == 4


def test_class_order_is_first_appearance():
    ds = Dataset.from_arrays(np.ones((1, 4)), ["B", "A", "B", "A"])
    assert ds.classes == ("B", "A")
    assert list(ds.y) == [0, 1, 0, 1]


def test_rejects_single_class_and_nan():
    with pytest.raises(ValidationError):
        Dataset.from_arrays(np.ones((2, 3)), ["A", "A", "A"])
    with pytest.raises(ValidationError, match="non-finite"):
        Dataset.from_arrays(np.array([[1.0, np.nan], [0.0, 1.0]]), ["A", "B"])


def test_load_matrix_non_numeric_cell_names_location(tmp_path):
    f = tmp_path / "m.csv"
    f.write_text("label,f1,f2\nA,1.0,2.0\nB,NA,3.0\n")
    with pytest.raises(ParseError, match=r"'NA' at row 2, column 1"):
        load_matrix(f, label_col="label")


def test_read_table_keys_names_and_first_bad_cell(tmp_path):
    f = tmp_path / "t.tsv"
    f.write_text(" case \tA\tB\n\nr1 \t1\t2.5\n r2\t-3\t4e0\n")
    names, keys, values = read_table(f, 0)
    assert names == ["A", "B"] and keys == ["r1", "r2"]
    assert values.tolist() == [[1.0, 2.5], [-3.0, 4.0]]
    f.write_text("case,A,B\nr1,1,nan\nr2,x,2\n")
    # the first bad cell in file order is reported, whatever its fault
    with pytest.raises(ParseError, match=r"non-finite value 'nan' at row 1, column 2"):
        read_table(f, 0)
    for text, message in [
        (b"A,B\n1,2\n3\n", "row 2 has 1 cells, expected 2"),
        (b"A,B\n", "no data rows"),
        (b"A,B\n\xff,2\n", "not UTF-8"),
    ]:
        f.write_bytes(text)
        with pytest.raises(ParseError, match=message):
            read_table(f)


def test_load_matrix_missing_label_column(tmp_path):
    f = tmp_path / "m.csv"
    f.write_text("f1,f2\n1.0,2.0\n")
    with pytest.raises(ValidationError, match="label column"):
        load_matrix(f, label_col="label")


def test_load_matrix_duplicate_feature_name(tmp_path):
    f = tmp_path / "m.csv"
    f.write_text("label,f1,f1\nA,1,2\nB,3,4\n")
    with pytest.raises(ValidationError, match="duplicate feature name"):
        load_matrix(f, label_col="label")


def test_load_matrix_tab_delimited_and_sidecar_labels(tmp_path):
    f = tmp_path / "m.tsv"
    f.write_text("f1\tf2\n1.0\t2.0\n3.0\t4.0\n")
    labels = tmp_path / "labels.txt"
    labels.write_text("x\ny\n")
    ds = load_matrix(f, labels_path=labels)
    assert ds.classes == ("x", "y")
    assert ds.values[0, 1] == 3.0


def test_load_matrix_features_in_rows(tmp_path):
    f = tmp_path / "m.csv"
    f.write_text("gene,s1,s2,s3\ng1,1,2,3\ng2,4,5,6\n")
    labels = tmp_path / "labels.txt"
    labels.write_text("A\nA\nB\n")
    ds = load_matrix(f, orientation="cols", labels_path=labels)
    assert ds.feature_names == ("g1", "g2")
    assert ds.values.shape == (2, 3)
    assert list(ds.values[1]) == [4.0, 5.0, 6.0]
    # a label column makes no sense in this orientation
    with pytest.raises(ValidationError):
        load_matrix(f, orientation="cols", label_col="s1")


def test_save_load_round_trip_bit_exact(tmp_path, rng):
    ds = random_dataset(rng, p=7)
    out = tmp_path / "ds.csv"
    save_matrix(ds, out)
    back = load_matrix(out, label_col="label")
    assert np.array_equal(back.values, ds.values)
    assert back.labels == ds.labels
    assert back.feature_names == ("f0", "f1", "f2", "f3", "f4", "f5", "f6")


@pytest.mark.parametrize(
    "sizes,requested,expected",
    [((12, 15, 11), 10, 10), ((7, 20, 9), 10, 7), ((10, 10), 10, 10)],
)
def test_fold_count_rule(sizes, requested, expected, rng):
    labels = [f"c{k}" for k, nk in enumerate(sizes) for _ in range(nk)]
    ds = Dataset.from_arrays(rng.normal(size=(3, sum(sizes))), labels)
    assert fold_count(ds, requested) == expected


def test_stratified_folds_forced_balance(rng):
    ds = Dataset.from_arrays(
        rng.normal(size=(2, 8)), ["A"] * 4 + ["B"] * 4
    )
    plan = stratified_folds(ds, 4, seed=1)
    for fold in plan.folds:
        y = ds.y[fold]
        assert (y == 0).sum() == 1 and (y == 1).sum() == 1


def test_stratified_folds_deterministic(rng):
    ds = random_dataset(rng)
    a = stratified_folds(ds, 2, seed=99)
    b = stratified_folds(ds, 2, seed=99)
    assert all(np.array_equal(x, y) for x, y in zip(a.folds, b.folds))


def test_stratified_folds_range_check(rng):
    ds = Dataset.from_arrays(rng.normal(size=(2, 6)), ["A"] * 3 + ["B"] * 3)
    with pytest.raises(ValidationError):
        stratified_folds(ds, 4, seed=0)
    with pytest.raises(ValidationError):
        stratified_folds(ds, 1, seed=0)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), F=st.integers(2, 6))
def test_fold_plan_partitions_and_balances(seed, F):
    rng = np.random.default_rng(seed)
    ds = random_dataset(rng, max_p=5, max_n=30)
    F = min(F, int(ds.class_sizes.min()))
    if F < 2:
        return
    plan = stratified_folds(ds, F, seed=seed)
    merged = np.sort(np.concatenate(plan.folds))
    assert np.array_equal(merged, np.arange(ds.n))
    for k in range(ds.n_classes):
        per_fold = [int((ds.y[f] == k).sum()) for f in plan.folds]
        assert max(per_fold) - min(per_fold) <= 1


def test_subset_preserves_class_mapping(rng):
    ds = Dataset.from_arrays(rng.normal(size=(2, 6)), ["B", "A", "B", "A", "B", "A"])
    sub = ds.subset([1, 2, 3])
    assert sub.classes == ds.classes
    assert list(sub.y) == [1, 0, 1]
    with pytest.raises(ValidationError, match="no samples"):
        ds.subset([1, 3, 5])  # all class B dropped
