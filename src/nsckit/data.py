"""Labeled sample-by-feature datasets and stratified cross-validation folds.

Datasets are stored feature-major (p x n). Class identifiers are mapped to
contiguous indices in first-appearance order so labels never need to be
sortable. Datasets are immutable after construction. ``read_table`` reads
every table: ``parse_range`` parses its rows, here or in forked children.
"""

from __future__ import annotations

import codecs
import contextlib
import math
import os
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import ParseError, ValidationError


@dataclass(frozen=True)
class Dataset:
    """A validated p x n expression matrix with class structure.

    ``values[i, j]`` is the value of feature i on sample j.  ``y[j]`` is the
    0-based class index of sample j; ``classes`` lists the class identifiers
    in first-appearance order.  ``values`` and ``y`` are read-only, since
    ``tuning.deep_search`` keeps its fold fits keyed by the dataset object:
    ``from_arrays`` copies a writeable array and keeps a read-only one.
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
        if values.flags.writeable:
            values = _frozen(values.copy(order="K"))
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
        y = _frozen(np.array([index[lab] for lab in labels], dtype=int))
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
            _frozen(self.values[:, idx]),
            tuple(self.labels[i] for i in idx),
            self.classes,
            _frozen(y),
            self.feature_names,
        )


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a``, an array no one else holds, made read-only."""
    a.flags.writeable = False
    return a


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


# Every character but \n and \r on which str.splitlines breaks a line (a
# text file's lines, and those ``parse_range`` reads, end at those two), and
# U+001F, which numpy's reader takes as whitespace and float does not.
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
        if not -width <= key_col < width:
            raise ValidationError(f"key column index {key_col} is out of range for {width} columns")
        key_col %= width  # a negative index counts from the end
        del header[key_col]
    return delim, header, width, key_col


def _head(f) -> tuple[str, bytes]:
    """The first nonblank line of the binary file ``f``, past a byte-order
    mark, decoded and without its line end, and the bytes read after that
    end (where a lone \\r ends it) and by one more ``_line``, which end at a
    \\n only where ``f`` goes on by whole lines.  A ValueError, for the
    walk, if there is none or it is not UTF-8 or holds a character of
    ``_LINE_BREAKS``."""
    raw = _line(f).removeprefix(codecs.BOM_UTF8)
    while raw:
        if b"\r" not in raw and raw[-1:] != b"\n":
            raw += _line(f)  # the rest of a line a read cut, or nothing at the end
        line, _, raw = raw.partition(b"\r")  # a text file's line ends there too
        if (line := line.decode().removesuffix("\n")) and not line.isspace():
            if any(c in line for c in _LINE_BREAKS):
                raise ValueError("header for the walk")
            return line, raw + _line(f)
        raw = raw or _line(f)
    raise ValueError("no header")


# The most bytes read at once past a line end where lines end at a lone \r.
_BLOCK = 1 << 16


def _line(f) -> bytes:
    """The bytes of the binary file ``f`` to the next \\n, or, read
    ``_BLOCK`` bytes at a time, to the end of the first read that holds a \\r."""
    parts = [f.readline(_BLOCK)]
    while parts[-1] and parts[-1][-1:] != b"\n" and b"\r" not in parts[-1]:
        parts.append(f.readline(_BLOCK))
    return b"".join(parts)


def _blocks(f, rest: bytes):
    """``rest``, then the rest of the binary file ``f`` read ``_BLOCK`` bytes
    at a time, each cut after its last line end, every \\n made a \\r."""
    held = []
    for block in chain([rest], iter(lambda: f.read(_BLOCK), b"")):
        block = block.replace(b"\n", b"\r")
        if end := block.rfind(b"\r") + 1:
            yield b"".join([*held, block[:end]])
            held = []
        held.append(block[end:])
    yield b"".join(held)


def _row_cuts(f, start: int, at) -> list[int]:
    """``start``, the start of the first line at or after each offset of
    ``at`` (ascending) above it, and the end of the binary file ``f``, which
    is left where it was.  A cut after ``start`` follows a \\n or ends the
    file, so it splits no line, \\r\\n or UTF-8 character."""
    here, cuts = f.tell(), [start]
    for offset in (*at, f.seek(0, os.SEEK_END)):
        if offset > cuts[-1]:
            f.seek(offset - 1)
            f.readline()
            cuts.append(f.tell())
    f.seek(here)
    return cuts


def byte_range(f, start: int, end: int):
    """The lines, each read to a \\n, of bytes ``start`` to ``end`` of the binary file ``f``."""
    f.seek(start)
    while f.tell() < end:
        yield f.readline()


def _parse_block(rows, delim: str, width: int, key_col: int | None):
    """Keys and values of the nonblank data rows ``rows`` by numpy's C
    reader, or None to walk the table.

    ``rows`` is read once, row by row, so a file's rows are never all held
    as text.  None when a row has the wrong width or holds a character of
    ``_WALKED``, a cell is one the reader refuses, a value is not finite or
    the rows are not UTF-8: the walk gives the error or a value only ``float`` reads.
    """
    keys = None if key_col is None else []
    rows = iter(rows)

    def checked(ln):
        while ln is not None:
            if ln.count(delim) != width - 1 or any(c in ln for c in _WALKED):
                raise ValueError("row for the walk")
            if keys is not None:
                keys.append(ln.split(delim, key_col + 1)[key_col].strip())
            yield ln
            ln = next(rows, None)

    try:
        if (first := next(rows, None)) is None:  # no rows, on which numpy warns
            return keys, np.empty((0, width - (key_col is not None)))
        values = np.loadtxt(
            checked(first), delimiter=delim, comments=None, dtype=float, ndmin=2,
            usecols=[c for c in range(width) if c != key_col],
        )
    except ValueError:  # a UnicodeDecodeError too
        return None
    if not np.isfinite(values).all():
        return None
    return keys, values


def parse_range(lines, delim: str, width: int, key_col: int | None):
    """``_parse_block`` of the nonblank lines in ``lines``, byte strings read
    to a \\n or by ``_blocks``, decoded one at a time; a lone \\r ends a line too."""
    rows = (ln for raw in lines for ln in raw.decode().split("\r"))
    return _parse_block((ln for ln in rows if ln and not ln.isspace()), delim, width, key_col)


def read_table(path, key_col: int | str | None = None):
    """Read a delimited table: TAB if the header has one, else comma.

    Blank lines are skipped.  ``key_col``, a column index or the header name
    of a label column, is taken out as text; every other cell must be a
    finite number as Python's ``float`` reads it.  Returns the names of the
    value columns, the key cell of each row (``None`` without ``key_col``)
    and the rows x columns float array.  Names are stripped of outer
    whitespace.

    The file is opened once, in binary, and ``parse_range`` streams the rows
    below its header to numpy's C reader, which parses the numeric cells in
    one call.  A file of at least ``2 * _SPLIT_BYTES`` bytes, on a system
    with fork and at least two usable CPUs, is cut into one range of whole
    lines per usable CPU (each at least ``_SPLIT_BYTES``), each parsed in a
    forked child; any other file, a pipe too, is one range, parsed here,
    and one whose rows end at a lone \\r is read ``_BLOCK`` bytes at a time.
    A table with no rows, or that the C reader refuses in any range, is
    walked cell by cell instead, with the same result or error (README,
    "Input files"); a pipe cannot be read again for the walk, so such a
    table in a pipe is a ParseError that says so.
    """
    with open(path, "rb") as f:
        try:
            head, rest = _head(f)
            delim, header, width, key_at = _header(head, key_col)
            parsed = _parse_rows(path, f, rest, delim, width, key_at)
        except ValueError:  # the walk reports a bad byte before a bad header
            parsed = None
        if parsed is not None and len(parsed[1]):
            return header, *parsed
        if not f.seekable():
            raise ParseError(f"{path}: a pipe cannot be read again to walk this table")
    return _walk_table(path, key_col)


def _parse_rows(path, f, rest: bytes, delim: str, width: int, key_col: int | None):
    """The rows of the binary file ``f``, read past ``_head``'s ``rest``: in
    ``_blocks`` unless ``rest`` ends at a \\n, else by lines in one range or,
    in a large regular file, in ranges over forked children."""
    if rest[-1:] != b"\n":
        return parse_range(_blocks(f, rest), delim, width, key_col)
    size = os.fstat(f.fileno()).st_size if f.seekable() else 0
    if (parts := min(_cpus(), size // _SPLIT_BYTES)) > 1:
        cuts = _row_cuts(f, f.tell() - len(rest), [size * k // parts for k in range(1, parts)])
        if len(cuts) > 2:
            from .forked import parse_split  # compiled only where a file is split

            with contextlib.suppress(OSError):  # no process or pipe to spare: one range, here
                return parse_split(path, cuts, delim, width, key_col)
    return parse_range(chain([rest.replace(b"\n", b"\r")], f), delim, width, key_col)


# The least work worth a forked child: a range of a file, or a matrix whose
# CV folds are dealt out or whose rows are written.  Split over serial time,
# from a 110 MB process on a 2-core host: read_table (72-row CSVs, medians
# of 41 reads) 1.34 at 1.0 MB, 1.10 at 2.0, 0.91 at 3.0 and 0.61 at 31.6, so
# two ranges of 1.5 MB break even; cross_validate (10 folds in two shares,
# 30-point grids, n = 72, K = 4, medians of 21 and 31 calls) 1.16-1.33 at
# 0.29 MB of matrix, 0.86-1.29 at 0.58, 0.89-1.21 at 1.15, 0.74-0.75 at 1.50
# and 0.64-0.76 at 12.8; save_matrix (two shares of 72 rows, medians of 21)
# 1.28 at 0.29 MB of matrix, 1.12 at 0.58, 0.74 at 1.15, 0.62 at 1.50 and
# 0.58 at 12.8, so it breaks even near 1 MB; split and serial runs
# interleaved.
_SPLIT_BYTES = 1_500_000


def _cpus() -> int:
    """The usable CPUs where the system can fork, else 1."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


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
    return Dataset.from_arrays(_frozen(values), labels, feature_names)


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
    refused before the file is opened.  The file is written row by row,
    except that a seekable file of at least ``_SPLIT_BYTES`` of values, on a
    system with fork and at least two usable CPUs, is written in one share
    of rows per usable CPU, each but the first formatted in a forked child
    (``forked.write_split``), with the same bytes.
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

    def rows(a, b):
        for j in range(a, b):
            yield (",".join((ds.labels[j], *map(repr, ds.values[:, j].tolist()))) + "\n").encode()

    parts = min(_cpus(), ds.n) if ds.values.nbytes >= _SPLIT_BYTES else 1
    with open(path, "wb") as f:
        f.write((",".join(("label", *names)) + "\n").encode())
        if parts > 1 and f.seekable():
            from .forked import write_split  # compiled only where a write is split

            write_split(f, rows, [ds.n * k // parts for k in range(parts + 1)])
        else:
            f.writelines(rows(0, ds.n))


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
