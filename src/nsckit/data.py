"""Labeled sample-by-feature datasets and stratified cross-validation folds.

Datasets are stored feature-major (p x n). Class identifiers are mapped to
contiguous indices in first-appearance order so labels never need to be
sortable. Datasets are immutable after construction.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from itertools import chain
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ParseError, ValidationError


@dataclass(frozen=True)
class Dataset:
    """A validated p x n expression matrix with class structure.

    ``values[i, j]`` is the value of feature i on sample j.  ``y[j]`` is the
    0-based class index of sample j; ``classes`` lists the class identifiers
    in first-appearance order.
    """

    values: np.ndarray
    labels: tuple[str, ...]
    classes: tuple[str, ...]
    y: np.ndarray
    feature_names: tuple[str, ...] | None = None

    @property
    def p(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    @property
    def class_sizes(self) -> np.ndarray:
        return np.bincount(self.y, minlength=self.n_classes)

    def class_members(self, k: int) -> np.ndarray:
        """Sample indices belonging to class ``k`` (0-based)."""
        return np.flatnonzero(self.y == k)

    @classmethod
    def from_arrays(
        cls,
        values: np.ndarray,
        labels,
        feature_names=None,
    ) -> "Dataset":
        """Build a Dataset from a p x n array and per-sample labels."""
        values = np.asarray(values, dtype=float)
        if values.ndim != 2:
            raise ValidationError("values must be a 2-d matrix (features x samples)")
        p, n = values.shape
        labels = tuple(str(v) for v in labels)
        if len(labels) != n:
            raise ValidationError(
                f"got {len(labels)} labels for {n} samples"
            )
        if p < 1:
            raise ValidationError("need at least one feature")
        if not np.all(np.isfinite(values)):
            i, j = np.argwhere(~np.isfinite(values))[0]
            raise ValidationError(
                f"non-finite value at feature {i}, sample {j}"
            )
        classes: list[str] = []
        index = {}
        for lab in labels:
            if lab not in index:
                index[lab] = len(classes)
                classes.append(lab)
        y = np.array([index[lab] for lab in labels], dtype=int)
        if len(classes) < 2:
            raise ValidationError("need at least two classes")
        if n < len(classes):
            raise ValidationError("need at least one sample per class")
        if feature_names is not None:
            feature_names = tuple(str(f) for f in feature_names)
            if len(feature_names) != p:
                raise ValidationError(
                    f"got {len(feature_names)} feature names for {p} features"
                )
            if len(set(feature_names)) != p:
                dup = next(f for f, c in Counter(feature_names).items() if c > 1)
                raise ValidationError(f"duplicate feature name {dup!r}")
        return cls(values, labels, tuple(classes), y, feature_names)

    def subset(self, sample_indices) -> "Dataset":
        """Restrict to the given samples, keeping the parent class mapping.

        Raises if any class of the parent would become empty.
        """
        idx = np.asarray(sample_indices, dtype=int)
        y = self.y[idx]
        counts = np.bincount(y, minlength=self.n_classes)
        if np.any(counts == 0):
            missing = self.classes[int(np.flatnonzero(counts == 0)[0])]
            raise ValidationError(f"class {missing!r} has no samples in subset")
        return Dataset(
            self.values[:, idx],
            tuple(self.labels[i] for i in idx),
            self.classes,
            y,
            self.feature_names,
        )


def _parse_cell(text: str, row: int, col: int) -> float:
    try:
        v = float(text)
    except ValueError:
        raise ParseError(
            f"malformed numeric cell {text!r} at row {row}, column {col}"
        ) from None
    if not math.isfinite(v):
        raise ParseError(f"non-finite value {text!r} at row {row}, column {col}")
    return v


def column_order(names, expected: tuple[str, ...]) -> list[int]:
    """Input column of each expected feature; a missing, extra or repeated name is an error."""
    index = {f: i for i, f in enumerate(names)}
    known = set(expected)
    missing = [f for f in expected if f not in index]
    extra = [f for f in index if f not in known]
    if missing or extra or len(index) != len(names):
        raise ValidationError(
            f"input features differ from the model's {len(expected)}: missing "
            f"{missing[:3]}, extra {extra[:3]}, {len(names) - len(index)} repeated"
        )
    return [index[f] for f in expected]


def read_text(path) -> str:
    """The contents of a UTF-8 text file; any other bytes are a ParseError.

    A leading byte-order mark is dropped, as the ``utf-8-sig`` codec drops
    it; the byte offset of a decoding error counts from the start of the file.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    return text.removeprefix("\ufeff")


# Every character but \n and \r on which str.splitlines breaks a line (a text
# file's lines end at those two already), and U+001F, which numpy's reader
# takes as whitespace and float does not.
_LINE_BREAKS = "\v\f\x1c\x1d\x1e\x85\u2028\u2029"
_WALKED = _LINE_BREAKS + "\x1f"


def _header(line: str, key_col: int | str | None):
    """Delimiter, value-column names, width and key index of a header line."""
    delim = "\t" if "\t" in line else ","
    header = [h.strip() for h in line.split(delim)]
    width = len(header)
    if isinstance(key_col, str):
        if key_col not in header:
            raise ValidationError(f"label column {key_col!r} not in header")
        key_col = header.index(key_col)
    if key_col is not None:
        key_col = range(width)[key_col]  # a negative index counts from the end
        del header[key_col]
    return delim, header, width, key_col


def _parse_block(rows, delim: str, width: int, key_col: int | None):
    """Keys and values of the nonblank data rows ``rows`` by numpy's C
    reader, or None to walk the table.

    ``rows`` is read once, row by row, so a file's rows are never all held
    as text.  None when a row has the wrong width or holds a character of
    ``_WALKED``, a cell is one the reader refuses, a value is not finite or
    the rows are not UTF-8: the walk then gives the error or, for a cell
    only ``float`` reads, the value.
    """
    keys = None if key_col is None else []

    def checked():
        for ln in rows:
            if ln.count(delim) != width - 1 or any(c in ln for c in _WALKED):
                raise ValueError("row for the walk")
            if keys is not None:
                keys.append(ln.split(delim, key_col + 1)[key_col].strip())
            yield ln

    try:
        values = np.loadtxt(
            checked(), delimiter=delim, comments=None, dtype=float, ndmin=2,
            usecols=[c for c in range(width) if c != key_col],
        )
    except ValueError:  # a UnicodeDecodeError too
        return None
    if not np.isfinite(values).all():
        return None
    return keys, values


def read_table(path, key_col: int | str | None = None):
    """Read a delimited table: TAB if the header has one, else comma.

    Blank lines are skipped.  ``key_col``, a column index or the header name
    of a label column, is taken out as text; every other cell must be a
    finite number as Python's ``float`` reads it.  Returns the names of the
    value columns, the key cell of each row (``None`` without ``key_col``)
    and the rows x columns float array.  Names are stripped of outer
    whitespace.

    A well-formed table goes to numpy's C reader, which parses the numeric
    cells in one call.  A file of at least ``2 * _RANGE_BYTES`` bytes, on a
    system with fork and at least two usable CPUs, is cut below its header
    into one range of whole lines per usable CPU (each at least
    ``_RANGE_BYTES``), and a forked child parses each range into its part
    of the result; any other table is streamed here, one row at a time.  A
    table the C reader refuses, in any range, or that holds a non-finite
    value, a line break other than \\n and \\r or bytes that are not UTF-8,
    is read whole and walked cell by cell instead, with the same result or
    error: the walk reports the first bad cell, and accepts the cells that
    ``float`` reads but the C reader does not (``1_000``, non-ASCII digits).
    The result and every error are the same whichever way a file is read.
    """
    try:
        with open(path, encoding="utf-8-sig") as f:
            lines = (ln for ln in f if not ln.isspace())  # a line read holds its \n
            head, first = next(lines, None), next(lines, None)
            if first is not None and not any(c in head for c in _LINE_BREAKS):
                delim, header, width, key_col_at = _header(head, key_col)
                fmt, rows = (delim, width, key_col_at), chain([first], lines)
                if (parts := _range_count(path)) > 1:
                    from .ranges import parse_rows  # compiled only where a file is split

                    parsed = parse_rows(path, parts, head, rows, *fmt)
                else:
                    parsed = _parse_block(rows, *fmt)
                if parsed is not None:
                    return header, *parsed
    except UnicodeDecodeError:
        pass
    return _walk_table(path, key_col)


# The smallest range worth a forked child.  A split read pays about 10 ms
# for its forks, the children's exits and the transfer of their rows.
# Timed by read_table from a 110 MB process on a 2-core host (median of 41
# interleaved reads of 72-row CSVs), split over serial time was 1.34 at
# 1.0 MB, 1.10 at 2.0 MB, 0.91 at 3.0 MB and 0.61 at 31.6 MB (wide-grid's
# training file): two ranges of 1.5 MB break even.
_RANGE_BYTES = 1_500_000


def _range_count(path) -> int:
    """How many ranges to parse a file in: one per usable CPU, each of at
    least ``_RANGE_BYTES``, where the system can fork."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return min(len(os.sched_getaffinity(0)), os.path.getsize(path) // _RANGE_BYTES)


def _walk_table(path, key_col):
    """``read_table`` of the whole text, cell by cell."""
    lines = [ln for ln in read_text(path).splitlines() if ln.strip() != ""]
    if not lines:
        raise ParseError(f"{path}: empty file")
    if len(lines) == 1:
        raise ParseError(f"{path}: no data rows")
    delim, header, width, key_col = _header(lines[0], key_col)
    keys = None if key_col is None else []
    values = np.empty((len(lines) - 1, len(header)))
    for r in range(1, len(lines)):
        cells = lines[r].split(delim)
        if len(cells) != width:
            raise ParseError(f"{path}: row {r} has {len(cells)} cells, expected {width}")
        if keys is not None:
            keys.append(cells[key_col].strip())
        values[r - 1] = [_parse_cell(text, r, c) for c, text in enumerate(cells) if c != key_col]
    return header, keys, values


def read_samples(path, orientation: str = "rows", label_col: str | None = None):
    """Read a sample matrix as ``(feature_names, labels, values)``, values p x n.

    With ``orientation="rows"`` rows are samples, the header holds feature
    names and ``label_col`` may name a label column; with ``"cols"`` rows are
    features, the header holds sample identifiers and the first column holds
    feature names.  ``labels`` is ``None`` without a label column.
    """
    if orientation == "rows":
        names, labels, values = read_table(path, label_col)
        return names, labels, values.T
    if orientation != "cols":
        raise ValidationError(f"unknown orientation {orientation!r}")
    if label_col is not None:
        raise ValidationError("label_col needs rows-are-samples input; use a labels file")
    _, names, values = read_table(path, 0)
    return names, None, values


def load_matrix(
    path,
    orientation: str = "rows",
    label_col: str | None = None,
    labels_path=None,
) -> Dataset:
    """Load a delimited (comma or TAB) text matrix into a Dataset.

    The layout is that of :func:`read_samples`.  Labels come either from a
    designated column (``label_col``, rows orientation only) or from a
    sidecar file with one label per line.
    """
    if (label_col is None) == (labels_path is None):
        raise ValidationError("exactly one of label_col and labels_path is required")
    feature_names, labels, values = read_samples(path, orientation, label_col)
    if labels is None:
        labels = _read_label_file(labels_path, values.shape[1])
    return Dataset.from_arrays(values, labels, feature_names)


def _read_label_file(labels_path, n: int) -> list[str]:
    lines = [ln.strip() for ln in read_text(labels_path).splitlines()]
    labels = [ln for ln in lines if ln != ""]
    if len(labels) != n:
        raise ValidationError(
            f"labels file has {len(labels)} labels for {n} samples"
        )
    return labels


def save_matrix(ds: Dataset, path) -> None:
    """Write a Dataset as rows-are-samples comma-separated text whose first
    column, ``label``, holds the labels.

    Values are written in shortest round-trip decimal form, so a subsequent
    ``load_matrix(path, label_col="label")`` recovers them bit-exactly, and
    so are the names and labels: a feature named ``label``, and a name or
    label that holds a comma, a TAB or a line break (any on which
    ``str.splitlines`` breaks) or that starts or ends with whitespace, is
    refused before the file is opened.  The file is written row by row.
    """
    names = ds.feature_names or tuple(f"f{i}" for i in range(ds.p))
    if "label" in names:
        raise ValidationError("label column name 'label' collides with a feature")
    for name in (*ds.classes, *names):
        if name != name.strip() or any(c in name for c in ",\t\n\r" + _LINE_BREAKS):
            raise ValidationError(
                f"name {name!r} would not read back: it holds a comma, a TAB or a "
                "line break, or outer whitespace"
            )
    with open(path, "w", encoding="utf-8") as f:
        f.write(",".join(("label", *names)) + "\n")
        for j in range(ds.n):
            f.write(",".join((ds.labels[j], *map(repr, ds.values[:, j].tolist()))) + "\n")


def fold_count(ds: Dataset, requested: int) -> int:
    """Requested fold count, capped at the smallest class size."""
    if requested < 1:
        raise ValidationError("requested fold count must be positive")
    return min(requested, int(ds.class_sizes.min()))


def stratified_folds(ds: Dataset, F: int, seed: int) -> tuple[np.ndarray, ...]:
    """The F held-out index blocks of a seeded per-class shuffle followed by
    round-robin fold assignment.

    Per-fold counts of every class differ by at most one, so with F at most
    the smallest class size every class keeps a sample outside every fold.
    The result is a deterministic function of (ds, F, seed), with seed >= 0.
    """
    if not 2 <= F <= int(ds.class_sizes.min()):
        raise ValidationError(
            f"fold count {F} must be in [2, min class size {int(ds.class_sizes.min())}]"
        )
    if seed < 0:
        raise ValidationError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    assign = np.empty(ds.n, dtype=int)
    for k in range(ds.n_classes):
        idx = ds.class_members(k)
        rng.shuffle(idx)
        assign[idx] = np.arange(idx.size) % F
    return tuple(np.flatnonzero(assign == f) for f in range(F))
