import dataclasses
import os
import signal
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
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

from nsckit import data, forked
from nsckit.data import (
    _blocks, _head, _header, _row_cuts, _walk_table, parse_range, read_table,
    read_text,
)
from nsckit.forked import parse_split

import oracles
from conftest import assert_no_children, random_dataset


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


def test_dataset_arrays_are_read_only_and_not_the_callers(rng):
    values = rng.normal(size=(5, 6))
    ds = Dataset.from_arrays(values, ["a", "b"] * 3)
    values[:] = 0.0  # a write through the caller's array
    assert not np.shares_memory(ds.values, values) and np.all(ds.values != 0.0)
    for built in (ds, ds.subset([0, 1, 2, 3])):
        assert not built.values.flags.writeable and not built.y.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            built.values[:] = 1.0
    # a read-only array is kept, not copied
    assert Dataset.from_arrays(ds.values, ds.labels).values is ds.values


def test_the_constructor_and_replace_keep_read_only_copies(rng):
    values, y = rng.normal(size=(2, 4)), np.array([0, 0, 1, 1])
    ds = Dataset(values, ("a", "a", "b", "b"), ("a", "b"), y)
    other = rng.normal(size=(2, 4))
    replaced = dataclasses.replace(ds, values=other)
    for built, mine in ((ds, values), (replaced, other)):
        assert not built.values.flags.writeable and not built.y.flags.writeable
        assert not np.shares_memory(built.values, mine) and np.array_equal(built.values, mine)
    # the caller's arrays are left writeable, and writes to them reach no dataset
    for mine in (values, y, other):
        assert mine.flags.writeable
    values[:], y[:], other[:] = 0.0, 1, 0.0
    assert np.all(ds.values != 0.0) and ds.y.tolist() == [0, 0, 1, 1]
    assert np.all(replaced.values != 0.0) and replaced.y is ds.y


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


# Cells that Python's float reads, some of which numpy's C reader refuses:
# shortest-repr floats, integers, an underflow to zero, signed zeros,
# underscores and non-ASCII digits.
number_text = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["1e-400", "-1e-400", "-0.0", "0", "1_000", "-2_5.0_1", "\u0661\u0662",
                     "\U0001d7cf.\U0001d7d3", "\u0663e\u0662"]),
)


@st.composite
def value_cells(draw, delim):
    """A number cell, padded with whitespace other than the delimiter."""
    pads = st.sampled_from(["", " ", "  ", "\u00a0", "\u2003"] + ([] if delim == "\t" else ["\t"]))
    return draw(pads) + draw(number_text) + draw(pads)


@st.composite
def tables(draw, max_rows=5, max_cols=4):
    """Text of a valid table, its key column (index, name or None) and the
    cells of its value block."""
    delim = draw(st.sampled_from([",", "\t"]))
    n_rows = draw(st.integers(1, max_rows))
    n_cols = draw(st.integers(1, max_cols))
    block = draw(st.lists(st.lists(value_cells(delim), min_size=n_cols, max_size=n_cols),
                          min_size=n_rows, max_size=n_rows))
    names = [f" f{c}" if c % 2 else f"f{c}" for c in range(n_cols)]
    # absent, first, in the middle or last
    where = draw(st.sampled_from([None, 0, n_cols // 2, n_cols]))
    rows = [names] + [list(r) for r in block]
    if where is not None:
        # keys may look like numbers too, as case numbers do
        keys = draw(st.lists(st.sampled_from(["c1", " c2 ", "\u00e9", "x y", "7", " -0.5"]),
                             min_size=n_rows, max_size=n_rows))
        for row, key in zip(rows, ["label", *keys]):
            row.insert(where, key)
    lines = [delim.join(r) for r in rows]
    if draw(st.booleans()):
        lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(["", "  "])))
    key = where if where is None or draw(st.booleans()) else "label"
    return "\n".join(lines) + "\n", key


@pytest.fixture(scope="module")
def table_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("tables")


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


@settings(max_examples=200, deadline=None)
@given(table=tables())
def test_read_table_equals_direct_oracle(table_dir, table):
    text, key = table
    f = table_dir / "t.txt"
    f.write_text(text, encoding="utf-8")
    names, keys, values = read_table(f, key)
    want_names, want_keys, want_rows = oracles.read_table_direct(f, key)
    assert names == want_names and keys == want_keys
    assert values.flags.c_contiguous
    assert np.array_equal(bits(values), bits(want_rows))


@settings(max_examples=60, deadline=None)
@given(delim=st.sampled_from([",", "\t"]), n=st.integers(2, 5), p=st.integers(1, 4),
       where=st.integers(0, 4), data=st.data())
def test_load_matrix_both_orientations_equal_direct_oracle(table_dir, delim, n, p, where, data):
    block = data.draw(st.lists(st.lists(value_cells(delim), min_size=p, max_size=p),
                               min_size=n, max_size=n))
    labels = ["a", "b"] * n
    features = [f"g{i}" for i in range(p)]
    # samples in rows, the label column at any position
    where = min(where, p)
    rows = [features[:where] + ["label"] + features[where:]]
    rows += [r[:where] + [lab] + r[where:] for r, lab in zip(block, labels)]
    by_rows = table_dir / "rows.txt"
    by_rows.write_text("\n".join(delim.join(r) for r in rows), encoding="utf-8")
    # features in rows, their names in column 0, labels from a file
    cols = [["gene"] + [f"s{j}" for j in range(n)]]
    cols += [[features[i]] + [block[j][i] for j in range(n)] for i in range(p)]
    by_cols = table_dir / "cols.txt"
    by_cols.write_text("\n".join(delim.join(r) for r in cols), encoding="utf-8")
    label_file = table_dir / "labels.txt"
    label_file.write_text("\n".join(labels[:n]))

    _, _, want = oracles.read_table_direct(by_rows, "label")
    ds = load_matrix(by_rows, label_col="label")
    assert ds.feature_names == tuple(features) and ds.labels == tuple(labels[:n])
    assert np.array_equal(bits(ds.values), bits(want).T)
    ds = load_matrix(by_cols, orientation="cols", labels_path=label_file)
    assert ds.feature_names == tuple(features) and ds.labels == tuple(labels[:n])
    assert np.array_equal(bits(ds.values), bits(want).T)


@pytest.mark.parametrize("rows,message", [
    (["r1,NA,2"], "malformed numeric cell 'NA' at row 1, column 1"),
    (["r1,1,nan"], "non-finite value 'nan' at row 1, column 2"),
    (["r1,2,3", "r2,inf,1"], "non-finite value 'inf' at row 2, column 1"),
    (["r1,1e500,2"], "non-finite value '1e500' at row 1, column 1"),
    (["r1,1,"], "malformed numeric cell '' at row 1, column 2"),
    (["r1,0x10,2"], "malformed numeric cell '0x10' at row 1, column 1"),
    (["r1,1#2,2"], "malformed numeric cell '1#2' at row 1, column 1"),
    # numpy's reader strips U+001F as whitespace; float does not
    (["r1,\x1f1,2"], "malformed numeric cell '\\x1f1' at row 1, column 1"),
    (["r1,1,2", "r2,1"], "{path}: row 2 has 2 cells, expected 3"),
    (["r1,1,2", "r2,3,4", "r3,5,x", "r4,7,8", "r5,NA,1"],
     "malformed numeric cell 'x' at row 3, column 2"),
    (["r1,1,2", "r2,3,4", "r3,inf,6", "r4,7,8", "r5,1"],
     "non-finite value 'inf' at row 3, column 1"),
])
def test_read_table_error_names_first_bad_cell(tmp_path, rows, message):
    f = tmp_path / "t.csv"
    f.write_text("case,A,B\n" + "\n".join(rows) + "\n")
    with pytest.raises(ParseError) as exc:
        read_table(f, 0)
    assert str(exc.value) == message.format(path=f)


@pytest.mark.parametrize("delim", [",", "\t"])
@pytest.mark.parametrize("key_col", [None, 0, 3])
def test_plain_table_takes_the_block_reader(delim, key_col):
    # the walk gives the same result, so only this shows that the C reader ran
    cells = [[" 1.5", "7", "-2e3"], ["0", "8 ", "4"]]
    keys = None if key_col is None else ["r1", "r2"]
    if keys is not None:
        for row, key in zip(cells, keys):
            row.insert(key_col, key)
    block = "\r".join(delim.join(r) for r in cells).encode()  # one block, as _blocks cuts it
    parsed = parse_range([block], delim, len(cells[0]), key_col)
    assert parsed is not None
    assert parsed[0] == keys
    assert parsed[1].tolist() == [[1.5, 7.0, -2e3], [0.0, 8.0, 4.0]]


def test_read_table_negative_key_index(tmp_path):
    f = tmp_path / "t.csv"
    f.write_text("A,B,case\n1,2,7\n3,4,8\n")
    names, keys, values = read_table(f, -1)
    assert names == ["A", "B"] and keys == ["7", "8"]
    assert values.tolist() == [[1.0, 2.0], [3.0, 4.0]]


@pytest.mark.parametrize("key_col", [2, -3])
def test_read_table_key_index_out_of_range(tmp_path, key_col):
    f = tmp_path / "t.csv"
    f.write_text("A,B\n1,2\n")
    message = f"key column index {key_col} is out of range for 2 columns"
    for read in (read_table, _walk_table):
        with pytest.raises(ValidationError, match=message):
            read(f, key_col)


def test_byte_order_mark_is_not_part_of_the_header(tmp_path):
    f = tmp_path / "m.csv"
    f.write_bytes(b"\xef\xbb\xbfa,b\n1,2\n")
    names, _, values = read_table(f)
    assert names == ["a", "b"] and values.tolist() == [[1.0, 2.0]]
    f.write_bytes(b"\xef\xbb\xbflabel,a,b\nx,1,2\ny,3,4\n")
    assert load_matrix(f, label_col="label").feature_names == ("a", "b")
    # only the first character of the file is a byte-order mark
    f.write_bytes(b"\xef\xbb\xbf\xef\xbb\xbfa,b\n1,2\n")
    assert read_table(f)[0] == ["\ufeffa", "b"]
    # a decoding error counts bytes from the start of the file, mark included
    f.write_bytes(b"\xef\xbb\xbfa,b\n\xff,2\n")
    with pytest.raises(ParseError, match=r"not UTF-8 text \(byte 7\)"):
        read_text(f)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
@pytest.mark.parametrize("raw", [
    b"\xef\xbb\xbflabel,a\r\nx,1\r\n\r\ny,2\r\n",
    b"label,a\rx,1\ry,2\r",  # lone CR line ends
    b"label,a\nx,NA\n",
    b"label,a\n\n",
])
def test_a_pipe_is_read_as_one_range(tmp_path, raw):
    """A piped table is read as the same table in a regular file, or, where
    that table is walked, which would read the pipe again, refused in one line."""
    regular = tmp_path / "t.csv"
    regular.write_bytes(raw)
    want = outcome(read_table, regular, "label")
    r, w = os.pipe()
    os.write(w, raw)
    os.close(w)
    try:
        got = outcome(read_table, f"/dev/fd/{r}", "label")
    finally:
        os.close(r)
    if want[0] is ParseError:
        assert got == (ParseError, f"/dev/fd/{r}: a pipe cannot be read again to walk this table")
    else:
        assert got == want and want[0] == ["a"] and want[1] == ["x", "y"]


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


def test_a_loaded_matrix_is_read_only(tmp_path):
    f = tmp_path / "m.csv"
    f.write_text("label,f1,f2\nA,1.0,2.0\nB,3.0,4.0\n")
    ds = load_matrix(f, label_col="label")
    assert not ds.values.flags.writeable and not ds.y.flags.writeable


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


@pytest.mark.parametrize("names,labels", [
    (["f,1", "f2"], ["A", "B"]),
    (["f1", "f2"], ["a,b", "c"]),
    (["f\n1", "f2"], ["A", "B"]),
    (["f1", "f2"], ["A", "b\r\nc"]),
    (["f1", "f2"], [" y", "z"]),
    ([" f", "f2"], ["A", "B"]),
    (["f1 ", "f2"], ["A", "B"]),
    (["f\t1", "f2"], ["A", "B"]),
    (["f1", "f2"], ["A", "B\u2028C"]),
    (["f1", "f2"], ["A", "B\x0cC"]),
])
def test_save_matrix_refuses_names_that_do_not_read_back(tmp_path, names, labels):
    ds = Dataset.from_arrays(np.ones((2, 2)), labels, names)
    out = tmp_path / "ds.csv"
    with pytest.raises(ValidationError, match="would not read back"):
        save_matrix(ds, out)
    assert not out.exists()


# Values a CSV must carry bit for bit: signed zeros, subnormals and the ends
# of the float range.
edge_values = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
                     1.7976931348623157e308, -1.7976931348623157e308]),
)


@settings(max_examples=150, deadline=None)
@given(names=st.lists(st.text(max_size=4), min_size=1, max_size=3, unique=True),
       labels=st.lists(st.text(max_size=3), min_size=2, max_size=4), data=st.data())
def test_save_matrix_refuses_or_round_trips_bit_for_bit(table_dir, names, labels, data):
    if len(set(labels)) < 2:
        labels = [*labels, labels[0] + "x"]
    values = np.array(data.draw(st.lists(
        st.lists(edge_values, min_size=len(labels), max_size=len(labels)),
        min_size=len(names), max_size=len(names))))
    ds = Dataset.from_arrays(values, labels, names)
    out = table_dir / "round-trip.csv"
    out.unlink(missing_ok=True)
    try:
        save_matrix(ds, out)
    except ValidationError:
        assert not out.exists()
        return
    back = load_matrix(out, label_col="label")
    assert back.feature_names == ds.feature_names and back.labels == ds.labels
    assert np.array_equal(bits(back.values), bits(ds.values))


# Any text a cell may hold, numbers of either reader most often: numbers
# only float takes, non-finite and bad cells.
cell_text = st.one_of(*[number_text] * 8, st.sampled_from(
    ["1_000", "inf", "-inf", "nan", "1e500", "x", "", " 2.5 ", "\x1f3", "4\x0c"]))
# Every character on which str.splitlines breaks a line, U+001F and NUL.
odd_chars = ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
             "\u2029", "\x1f", "\x00"]


def rarely(draw, weight=4):
    """True about once in ``weight + 1`` draws; shrinks to False."""
    return draw(st.sampled_from([False] * weight + [True]))


@st.composite
def raw_tables(draw):
    """Bytes of a table, well-formed or not, and a key column to ask for."""
    delim = draw(st.sampled_from([",", "\t"]))
    width = draw(st.integers(1, 4))
    rows = [[" label "] + [f"h{c}" for c in range(1, width)]]
    for _ in range(draw(st.integers(1, 4))):
        w = draw(st.sampled_from([width] * 8 + [width - 1, width + 1]))
        rows.append(draw(st.lists(cell_text, min_size=w, max_size=w)))
    lines = [delim.join(r) for r in rows]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "  ", "\t"])))
    if rarely(draw, 2):
        i = draw(st.integers(0, len(lines) - 1))
        at = draw(st.integers(0, len(lines[i])))
        lines[i] = lines[i][:at] + draw(st.sampled_from(odd_chars)) + lines[i][at:]
    if rarely(draw, 9):
        lines = lines[: draw(st.integers(0, 1))]  # no rows, or not even a header
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    raw = (eol.join(lines) + draw(st.sampled_from(["", eol, eol * 2]))).encode("utf-8")
    if draw(st.booleans()):
        raw = b"\xef\xbb\xbf" + raw
    if rarely(draw, 9):
        at = draw(st.integers(0, len(raw)))
        raw = raw[:at] + b"\xff" + raw[at:]
    key = draw(st.sampled_from([None, 0, "label", 1, -1, "h1", width, "absent"]))
    return raw, key


def outcome(read, path, key):
    try:
        names, keys, values = read(path, key)
    except Exception as exc:  # the error is part of the outcome
        return type(exc), str(exc)
    return names, keys, values.shape, values.flags.c_contiguous, bits(values).tolist()


@settings(max_examples=400, deadline=None)
@given(table=raw_tables())
# a line break inside the header, and inside a row, that a text file does not break at
@example(table=(b"case,A\xe2\x80\xa8B\n1,2\n", None))
@example(table=(b"case,A,B\nr1,1\x0c,2\n", 0))
# a header without the label column above a byte that is not UTF-8: the
# walk's byte error comes first, however far below the header the byte is
@example(table=(b"a,b\n" + b"1,2\n" * 5000 + b"\xff1,2\n", "label"))
def test_streamed_reader_equals_the_walk(table_dir, table):
    """Whatever the table, read_table gives the result or the error of the
    whole-text walk."""
    raw, key = table
    f = table_dir / "raw.txt"
    f.write_bytes(raw)
    assert outcome(read_table, f, key) == outcome(_walk_table, f, key)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_a_pipe_read_in_blocks_ends_a_line_at_each_line_end(monkeypatch):
    """Read 4 bytes at a time, a piped table whose header's line ends at a
    lone \\r and whose rows end at \\n, \\r\\n and \\r gives its rows, not
    a refusal to walk it."""
    monkeypatch.setattr(data, "_BLOCK", 4)
    r, w = os.pipe()
    os.write(w, b"label,a\rx,1\ny,2\r\nz,3\r")
    os.close(w)
    try:
        names, keys, values = read_table(f"/dev/fd/{r}", "label")
    finally:
        os.close(r)
    assert names == ["a"] and keys == ["x", "y", "z"] and values.tolist() == [[1.0], [2.0], [3.0]]


@settings(max_examples=200, deadline=None)
@given(table=raw_tables(), block=st.integers(1, 9))
@example(table=(b"\xef\xbb\xbf\r\n \rlabel,a\rx,1\r\ny,2\nz,3", "label"), block=4)
# a byte-order mark that starts a later read is part of the header
@example(table=(b"\r\n\xef\xbb\xbfa,b\n1,2\n", None), block=1)
def test_reads_of_a_few_bytes_give_the_walks_table(table_dir, table, block):
    """With reads of a few bytes, the header and the rows that reads cut
    still give the result or the error of the whole-text walk."""
    raw, key = table
    f = table_dir / "raw.txt"
    f.write_bytes(raw)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data, "_BLOCK", block)
        assert outcome(read_table, f, key) == outcome(_walk_table, f, key)


needs_split = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="a file is split only with fork and two usable CPUs",
)


@st.composite
def split_tables(draw):
    """Bytes of a table, its key column and byte offsets to cut it at: a
    byte-order mark or none, LF, CRLF or lone CR line ends, blank lines
    anywhere, non-ASCII names and keys, and any cell, bad ones included."""
    delim = draw(st.sampled_from([",", "\t"]))
    width = draw(st.integers(1, 4))
    words = st.sampled_from(["c1", " \u00e9 ", "\u540d\u524d", "e\u0301", "\U0001f600"])
    rows = [["label"] + draw(st.lists(words, min_size=width - 1, max_size=width - 1))]
    for _ in range(draw(st.integers(1, 8))):
        w = draw(st.sampled_from([width] * 12 + [width + 1]))
        rows.append([draw(words)] + draw(st.lists(cell_text, min_size=w - 1, max_size=w - 1)))
    lines = [delim.join(r) for r in rows]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "  ", "\t"])))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    raw = (eol.join(lines) + draw(st.sampled_from(["", eol, eol * 2]))).encode("utf-8")
    if draw(st.booleans()):
        raw = b"\xef\xbb\xbf" + raw
    at = sorted(draw(st.lists(st.integers(0, len(raw)), max_size=4)))
    return raw, draw(st.sampled_from([None, 0, "label", -1])), at


@settings(max_examples=200, deadline=None)
@given(table=split_tables())
@example(table=(b"\xef\xbb\xbflabel,a\r\n\r\nx,1\r\n\xc3\xa9,2\r\n\r\n", 0, [0, 12, 21, 24]))
def test_ranges_cut_anywhere_join_to_the_stream(table_dir, table):
    """The ranges between cuts at any offsets below the header, each
    parsed in a forked child and joined in order, give the one-range read
    of the rows, which is read_table's result; the join is refused exactly
    when the one range is, and exactly when some range is."""
    raw, key, at = table
    f = table_dir / "split.txt"
    f.write_bytes(raw)

    def part(a, b):
        rows.seek(a)
        return parse_range(_blocks(rows, b - a), *fmt)

    with open(f, "rb") as rows:
        head, lines, start = _head(rows)
        delim, header, width, key_at = _header(head, key)
        fmt = (delim, width, key_at)
        cuts = _row_cuts(rows, start, at)
        one = data._parse_rows(f, rows, lines, start, *fmt)  # below the split size: one range
        parts = [part(a, b) for a, b in zip(cuts, cuts[1:])]
    assert cuts == sorted(set(cuts)) and cuts[-1] == len(raw)
    joined = parse_split(f, cuts, *fmt)
    assert_no_children()
    assert (one is None) == (joined is None) == (None in parts)
    if one is None:
        return
    keys, values = joined
    assert keys == one[0] and values.shape == one[1].shape
    assert np.array_equal(bits(values), bits(one[1]))
    names, want_keys, want = read_table(f, key)
    assert names == header and keys == want_keys
    assert values.shape == want.shape and np.array_equal(bits(values), bits(want))


@pytest.mark.parametrize("raw", [
    b"\xef\xbb\xbflabel,a,b\r\nx,1,2\r\n\r\ny,3,4\r\n",
    b"label,a,b\rx,1,2\r\ry,3,4\r",  # lone CR line ends, read by the C reader too
])
def test_a_file_below_the_split_size_is_one_range_read_here(tmp_path, monkeypatch, raw):
    f = tmp_path / "t.csv"
    f.write_bytes(raw)
    calls, forks = [], []
    one_range = data.parse_range

    def no_fork():
        forks.append(1)
        raise OSError("no process to spare")

    monkeypatch.setattr(data, "parse_range", lambda *a: calls.append(1) or one_range(*a))
    monkeypatch.setattr(data, "_walk_table", None)
    monkeypatch.setattr(os, "fork", no_fork)
    names, keys, values = read_table(f, "label")
    assert calls == [1] and forks == []
    assert names == ["a", "b"] and keys == ["x", "y"]
    assert values.tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_lone_cr_rows_are_read_in_blocks_not_whole(tmp_path):
    """A table whose rows end at a lone \\r, below a header line that ends
    there too or at a \\n, or below a header and a first row that end at
    a \\n, peaks no higher than 1.5 times the same table with \\n ends:
    whatever the line ends, the rows are read a block at a time, not held
    whole."""
    rng = np.random.default_rng(5)
    values = rng.normal(size=(70, 2000))
    head = ",".join(["label", *(f"g{i}" for i in range(2000))])
    rows = [",".join([f"c{j % 3}", *map(repr, row.tolist())]) for j, row in enumerate(values)]
    peaks = []
    texts = (
        head + "\n" + "\n".join(rows),
        head + "\r" + "\r".join(rows),
        head + "\n" + "\r".join(rows),
        head + "\n" + rows[0] + "\n" + "\r".join(rows[1:]),
    )
    for text in texts:
        f = tmp_path / f"t{len(peaks)}.csv"
        f.write_bytes(text.encode())
        tracemalloc.start()
        try:
            got = read_table(f, "label")[2]
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert np.array_equal(bits(got), bits(values))
    assert max(peaks[1:]) < 1.5 * peaks[0]


@pytest.fixture(scope="module")
def big_table(tmp_path_factory):
    """A rows-are-samples CSV above the size that read_table splits, a copy
    with NA in the last cell of its last row and a copy whose lines end at a
    lone \\r."""
    rng = np.random.default_rng(11)
    values = rng.normal(size=(60, 1 + 2 * data._SPLIT_BYTES // (60 * 18)))
    lines = [",".join(["label", *(f"g{i}" for i in range(values.shape[1]))])]
    lines += [",".join([f"c{j % 3}", *map(repr, row.tolist())]) for j, row in enumerate(values)]
    good = tmp_path_factory.mktemp("big") / "big.csv"
    good.write_text("\n".join(lines) + "\n")
    assert good.stat().st_size >= 2 * data._SPLIT_BYTES
    bad = good.with_name("big-na.csv")
    bad.write_text("\n".join(lines[:-1] + [lines[-1].rsplit(",", 1)[0] + ",NA"]) + "\n")
    lone_cr = good.with_name("big-cr.csv")
    lone_cr.write_bytes(good.read_bytes().replace(b"\n", b"\r"))
    return good, bad, lone_cr


def test_a_large_file_is_split_and_read_as_walked(big_table):
    """A large file is split over two usable CPUs, whatever this host's,
    and read as walked, whether its lines end at \\n or at a lone \\r."""
    for path in (big_table[0], big_table[2]):
        forks = []
        fork = os.fork
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
            mp.setattr(os, "fork", lambda: forks.append(1) or fork())
            tracemalloc.start()
            try:
                values = read_table(path, "label")[2]
                reading = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert_no_children()
        assert outcome(read_table, path, "label") == outcome(_walk_table, path, "label")
        assert len(forks) == 2
        # the children's rows land in the one result array: no second copy,
        # and a few lines of text (the header, the first row, a read buffer)
        assert reading < values.nbytes + 8 * path.stat().st_size // len(values)


def test_a_bad_cell_in_the_last_row_of_a_split_file_gives_the_walks_error(big_table):
    with pytest.raises(ParseError) as exc:
        read_table(big_table[1], "label")
    assert_no_children()
    with pytest.raises(ParseError) as walked:
        _walk_table(big_table[1], "label")
    assert str(exc.value) == str(walked.value)
    assert str(exc.value).startswith("malformed numeric cell 'NA' at row 60, column ")


def test_the_package_import_leaves_the_split_reader_unloaded():
    # every command and workload pays for the import; only a split read
    # pays for the split reader
    code = "import sys, nsckit; print(sorted({'nsckit.forked', 'multiprocessing'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


@needs_split
def test_children_blocked_on_a_full_pipe_are_ended(big_table, monkeypatch):
    receive = forked._receive

    def fail_on_rows(fd, buf):
        if len(buf) > 16:  # each child now waits to send rows that fill its pipe
            raise RuntimeError("stop")
        return receive(fd, buf)

    def hung(*_):
        raise TimeoutError("read_table is still waiting for its children")

    monkeypatch.setattr(forked, "_receive", fail_on_rows)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        with pytest.raises(RuntimeError, match="stop"):
            read_table(big_table[0], "label")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert_no_children()


@needs_split
def test_children_leave_the_buffers_of_this_process_alone(big_table, tmp_path):
    # a child that left through the interpreter's exit would flush the
    # buffered text it inherited, and it would be written twice
    with open(tmp_path / "out.txt", "w") as out:
        out.write("pending")
        read_table(big_table[0], "label")
    assert (tmp_path / "out.txt").read_text() == "pending"
    assert_no_children()


@needs_split
def test_no_process_to_spare_reads_the_stream(big_table, monkeypatch):
    def no_fork():
        raise OSError("no process to spare")

    want = outcome(read_table, big_table[0], "label")
    monkeypatch.setattr(os, "fork", no_fork)
    assert outcome(read_table, big_table[0], "label") == want
    assert_no_children()


@pytest.mark.parametrize("spare", [0, 1])
def test_no_pipe_to_spare_reads_the_file_as_one_range(big_table, monkeypatch, spare):
    """A split read that finds no pipe for its first or its second range
    gives the one-range result, with the range forked before ended."""
    want = outcome(read_table, big_table[0], "label")
    pipes, forks, pipe, fork = [], [], os.pipe, os.fork

    def some_pipes():
        if len(pipes) == spare:
            raise OSError("no pipe to spare")
        pipes.append(1)
        return pipe()

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "pipe", some_pipes)
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    assert outcome(read_table, big_table[0], "label") == want
    assert len(forks) == spare
    assert_no_children()


def test_save_and_read_hold_about_one_row(tmp_path):
    """save_matrix holds one row's text at a time, and read_table on a
    well-formed file little more than the array it returns."""
    rng = np.random.default_rng(7)
    names = [f"g{i}" for i in range(1000)]
    ds = Dataset.from_arrays(rng.normal(size=(1000, 100)), ["a", "b"] * 50, names)
    out = tmp_path / "wide.csv"
    # a save imports forked on first use; that import is no part of the save
    import nsckit.forked  # noqa: F401
    tracemalloc.start()
    try:
        save_matrix(ds, out)
        saving = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        _, _, values = read_table(out, "label")
        reading = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    row = max(len(ln) for ln in out.read_text().splitlines())
    assert saving < 8 * row
    assert reading < 2 * values.nbytes


@pytest.fixture
def split_save(monkeypatch, tmp_path):
    """A dataset, the bytes of its one-share save and a function that saves
    it in three shares, each but the first formatted in a forked child
    whatever this host's CPUs, and returns the bytes and the forks made."""
    rng = np.random.default_rng(9)
    ds = Dataset.from_arrays(rng.normal(size=(300, 40)) * 1e3, [f"c{j % 3}" for j in range(40)])
    monkeypatch.setattr(data, "_SPLIT_BYTES", ds.values.nbytes)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    save_matrix(ds, tmp_path / "one.csv")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())

    def save():
        save_matrix(ds, tmp_path / "split.csv")
        assert_no_children()
        return (tmp_path / "split.csv").read_bytes(), len(forks)

    return ds, (tmp_path / "one.csv").read_bytes(), save


def test_a_split_save_gives_the_one_share_bytes(split_save, tmp_path):
    ds, one, save = split_save
    assert save() == (one, 2)
    back = load_matrix(tmp_path / "split.csv", label_col="label")
    assert np.array_equal(bits(back.values), bits(ds.values)) and back.labels == ds.labels


class _Overstated(bytes):
    def __len__(self):  # so the count sent comes before a stream that ends short
        return super().__len__() + 1


@pytest.mark.parametrize("failure", ["raises", "exits", "short"])
def test_a_failed_child_has_its_share_written_here(split_save, monkeypatch, failure):
    """The last share's child raises, exits before it sends, or sends a
    stream shorter than its count: that share is cut and written here."""
    ds, one, save = split_save
    parent, write_split = os.getpid(), forked.write_split

    def failing(f, rows, n, nbytes):
        def share(a, b):
            if os.getpid() != parent and b == ds.n:
                if failure == "raises":
                    raise RuntimeError("the child fails")
                if failure == "exits":
                    os._exit(1)
                yield from map(_Overstated, rows(a, b))
            else:
                yield from rows(a, b)

        write_split(f, share, n, nbytes)

    monkeypatch.setattr(forked, "write_split", failing)
    assert save() == (one, 2)


@pytest.mark.parametrize("call", ["fork", "pipe"])
def test_no_process_or_pipe_to_spare_writes_the_one_share_bytes(split_save, monkeypatch, call):
    def none_to_spare():
        raise OSError(f"no {call} to spare")

    _, one, save = split_save
    monkeypatch.setattr(os, call, none_to_spare)
    assert save()[0] == one


def test_a_refused_name_starts_no_child_and_makes_no_file(split_save, tmp_path):
    ds, _, save = split_save
    bad = Dataset.from_arrays(ds.values, [*ds.labels[:-1], "a,b"])
    with pytest.raises(ValidationError, match="would not read back"):
        save_matrix(bad, tmp_path / "bad.csv")
    assert not (tmp_path / "bad.csv").exists()
    assert save()[1] == 2  # the forks made: those of this save alone


def test_a_pipe_is_saved_in_one_share(split_save, tmp_path):
    # a child's share that fails is cut from the file, which a pipe cannot do
    ds, one, save = split_save
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()))
    reader.start()
    save_matrix(ds, fifo)
    reader.join(timeout=60)
    assert not reader.is_alive() and got == [one]
    assert save()[1] == 2


def test_a_split_save_holds_about_one_row_here(monkeypatch, tmp_path):
    """Each child's share, 20 rows, is copied here a block at a time, never
    held whole: this process peaks no more than a row above the one-share
    save, which holds one row's text at a time."""
    rng = np.random.default_rng(7)
    ds = Dataset.from_arrays(rng.normal(size=(4000, 40)), ["a", "b"] * 20)
    monkeypatch.setattr(data, "_SPLIT_BYTES", ds.values.nbytes)
    out = tmp_path / "wide.csv"
    peaks = {}
    for cpus in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)))
        tracemalloc.start()
        try:
            save_matrix(ds, out)
            peaks[cpus] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert_no_children()
    row = max(len(ln) for ln in out.read_text().splitlines())
    assert peaks[2] < peaks[1] + row


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
    for fold in plan:
        y = ds.y[fold]
        assert (y == 0).sum() == 1 and (y == 1).sum() == 1


def test_stratified_folds_deterministic(rng):
    ds = random_dataset(rng)
    a = stratified_folds(ds, 2, seed=99)
    b = stratified_folds(ds, 2, seed=99)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_stratified_folds_range_check(rng):
    ds = Dataset.from_arrays(rng.normal(size=(2, 6)), ["A"] * 3 + ["B"] * 3)
    with pytest.raises(ValidationError):
        stratified_folds(ds, 4, seed=0)
    with pytest.raises(ValidationError):
        stratified_folds(ds, 1, seed=0)
    with pytest.raises(ValidationError, match="seed"):
        stratified_folds(ds, 2, seed=-1)


@pytest.mark.parametrize("sizes", [(2, 2), (2, 5, 8), (3, 3, 3), (4, 7), (5, 8, 6, 7)])
def test_every_class_keeps_a_sample_outside_every_fold(sizes, rng):
    labels = rng.permutation([f"c{k}" for k, nk in enumerate(sizes) for _ in range(nk)])
    ds = Dataset.from_arrays(rng.normal(size=(2, sum(sizes))), labels)
    all_idx = np.arange(ds.n)
    for F in range(2, min(sizes) + 1):
        for seed in range(3):
            for fold in stratified_folds(ds, F, seed):
                held_in = np.bincount(ds.y[np.setdiff1d(all_idx, fold)], minlength=ds.n_classes)
                # at most ceil(n_k / F) of class k's n_k samples are held out
                assert np.all(held_in >= ds.class_sizes - -(-ds.class_sizes // F))
                assert np.all(held_in >= 1)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), F=st.integers(2, 6))
def test_fold_plan_partitions_and_balances(seed, F):
    rng = np.random.default_rng(seed)
    ds = random_dataset(rng, max_p=5, max_n=30)
    F = min(F, int(ds.class_sizes.min()))
    if F < 2:
        return
    plan = stratified_folds(ds, F, seed=seed)
    merged = np.sort(np.concatenate(plan))
    assert np.array_equal(merged, np.arange(ds.n))
    for k in range(ds.n_classes):
        per_fold = [int((ds.y[f] == k).sum()) for f in plan]
        assert max(per_fold) - min(per_fold) <= 1


def test_subset_preserves_class_mapping(rng):
    ds = Dataset.from_arrays(rng.normal(size=(2, 6)), ["B", "A", "B", "A", "B", "A"])
    sub = ds.subset([1, 2, 3])
    assert sub.classes == ds.classes
    assert list(sub.y) == [1, 0, 1]
    with pytest.raises(ValidationError, match="no samples"):
        ds.subset([1, 3, 5])  # all class B dropped
