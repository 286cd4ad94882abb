"""Parse the rows of a large table in forked children, one range of whole
lines each, into one array.

``data.read_table`` imports this module only for a file it splits, so
``import nsckit`` does not compile it.  Each child runs ``_parse_block`` on
its range, with every check of the serial stream, and leaves through
``os._exit``: it only parses, and runs none of the exit handlers or stdio
flushes of the process it was forked from.
"""

from __future__ import annotations

import contextlib
import io
import os
import signal
import warnings

import numpy as np

from .data import _parse_block


def parse_rows(path, parts: int, head: str, rows, delim: str, width: int, key_col: int | None):
    """``_parse_block`` of the rows below the header line ``head``, cut into
    ``parts`` ranges of about equal size and joined in file order.

    ``rows``, the same rows as text, is parsed here instead where the file
    cannot be cut at line ends below ``head`` or there is no process or
    pipe to spare.
    """
    size = os.path.getsize(path)
    cuts = row_cuts(path, head, [size * k // parts for k in range(1, parts)])
    if cuts is not None and len(cuts) > 2:
        try:
            return parse_split(path, cuts, delim, width, key_col)
        except OSError:  # no process or pipe to spare
            pass
    return _parse_block(rows, delim, width, key_col)


def row_cuts(path, head: str, at) -> list[int] | None:
    """Where the rows below the header line ``head`` start, then the start
    of the first line at or after each byte offset of ``at`` (ascending)
    that lies below it, then the end of the file.

    None unless the first nonblank line of the file, read in binary and
    split at \\n, is ``head`` once its \\r\\n is read as \\n: the header
    then ends at the same byte as in the text stream.  Each cut follows a
    \\n, so no range splits a \\r\\n or a UTF-8 character, and the lines
    of the ranges, read one after another, are the lines of the stream.
    """
    with open(path, "rb") as f:
        for n, raw in enumerate(f):
            try:
                line = raw.decode("utf-8-sig" if n == 0 else "utf-8")
            except UnicodeDecodeError:
                return None
            if not line.isspace():
                break
        else:
            return None
        if line.replace("\r\n", "\n") != head:
            return None
        cuts = [f.tell()]
        for offset in (*at, f.seek(0, os.SEEK_END)):
            if offset > cuts[-1]:
                f.seek(offset - 1)
                while (part := f.readline(1 << 16)) and not part.endswith(b"\n"):
                    pass
                cuts.append(f.tell())
    return cuts


def parse_range(path, start: int, end: int, delim: str, width: int, key_col: int | None):
    """``_parse_block`` of the lines in bytes ``start`` to ``end`` of a file,
    two offsets of ``row_cuts``."""
    with open(path, "rb") as f:
        f.seek(start)
        text = io.TextIOWrapper(io.BytesIO(f.read(end - start)), encoding="utf-8")
    with warnings.catch_warnings():  # numpy warns on a range of blank lines only
        warnings.simplefilter("ignore")
        return _parse_block((ln for ln in text if not ln.isspace()), delim, width, key_col)


def parse_split(path, cuts, delim: str, width: int, key_col: int | None):
    """``parse_range`` of each pair of consecutive ``cuts``, each in a
    forked child, joined in file order, or None if a range is refused.

    All the children's counts are read first, so their rows go straight
    from the pipes into the one result array.  Every child is waited for
    before this returns or raises; one that has not sent all its rows is
    killed first, as it may be blocked on a full pipe.  Where SIGCHLD is
    ignored the system reaps the children itself.
    """
    children, parsed = [], None
    try:
        for start, end in zip(cuts, cuts[1:]):
            children.append(_fork_range(path, start, end, delim, width, key_col))
        heads = [np.zeros(2, np.int64) for _ in children]
        if not all(_receive(fd, head.view(np.uint8)) for (_, fd), head in zip(children, heads)):
            return None
        rows = np.cumsum([0, *(int(head[0]) for head in heads)])
        values = np.empty((rows[-1], width - (key_col is not None)))
        keys = []
        for (_, fd), head, a, b in zip(children, heads, rows, rows[1:]):
            names = bytearray(int(head[1]))
            if not (_receive(fd, values[a:b].reshape(-1).view(np.uint8)) and _receive(fd, names)):
                return None
            keys += names.decode().split("\n") if a < b else []
        parsed = (None if key_col is None else keys), values
        return parsed
    finally:
        for pid, fd in children:
            os.close(fd)
            if parsed is None:
                os.kill(pid, signal.SIGKILL)
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)


def _fork_range(path, start: int, end: int, delim: str, width: int, key_col: int | None):
    """Fork a child that writes ``parse_range`` of bytes ``start`` to
    ``end`` to a new pipe, as its row and key byte counts, its rows and its
    keys, or writes nothing if the range is refused, then exits; the
    child's pid and the pipe's read end."""
    r, w = os.pipe()
    try:
        with warnings.catch_warnings():  # Python 3.12+ warns on forking a threaded process
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid:
        os.close(w)
        return pid, r
    try:
        os.close(r)
        parsed = parse_range(path, start, end, delim, width, key_col)
        if parsed is not None:
            keys, values = parsed
            names = "\n".join(keys or ()).encode()  # a key holds no line break
            with open(w, "wb") as pipe:
                pipe.write(np.array([len(values), len(names)], np.int64).tobytes())
                pipe.write(values.reshape(-1).view(np.uint8))
                pipe.write(names)
    finally:
        os._exit(0)


def _receive(fd, buf) -> bool:
    """Fill the writable bytes ``buf`` from the pipe ``fd``; False if it
    ends first."""
    view = memoryview(buf)
    while view:
        n = os.readv(fd, [view])
        if n == 0:
            return False
        view = view[n:]
    return True
