"""Work split over forked children, and nothing else, of three kinds: the
rows of a large table read, one range of whole lines each, read in bounded
blocks as the one-range read is (``data._blocks``); a sum of count
vectors, one share of a plan each, as ``tuning.cross_validate`` sums the
error counts of its folds; and the text of a large table written, one
share of its rows each.  ``split_sum`` and ``write_split`` take a whole
job and its size in bytes and cut it themselves, into the shares that
``data._shares`` gives; ``parse_split`` takes the cuts ``data.read_table``
found.  Work that no child does is done in the caller: the first share of
a sum or a write, a job of one share, and any share or read that finds no
process or pipe to spare.

``tuning.cross_validate`` and ``data.save_matrix`` import this module on
each call, ``data.read_table`` for a file it splits, so ``import nsckit``
does not compile it.  Each child, forked by ``_fork``, writes its part of
the result to its own pipe, or nothing if its part is refused or fails,
and leaves through ``os._exit``: it runs none of the exit handlers or
stdio flushes of the process it was forked from.
"""

from __future__ import annotations

import contextlib
import os
import signal
import warnings

import numpy as np

from .data import _BLOCK, _blocks, _shares, parse_range


@contextlib.contextmanager
def _children():
    """A list for ``_fork`` to add children to.  On leaving, every pipe is
    closed and every child killed (it may be blocked on a full pipe, or
    working for a result that will not be read) and waited for."""
    children: list[tuple[int, int]] = []
    try:
        yield children
    finally:
        for pid, fd in children:
            os.close(fd)
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _fork(children: list, send) -> int | None:
    """Fork a child that calls ``send`` with the write end of a new pipe, as
    a binary file, then exits; add it to ``children`` and return the read
    end, or None where there is no process or pipe to spare."""
    try:
        r, w = os.pipe()
    except OSError:
        return None
    try:
        with warnings.catch_warnings():  # Python 3.12+ warns on forking a threaded process
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return None
    if pid:
        os.close(w)
        children.append((pid, r))
        return r
    try:
        os.close(r)
        with open(w, "wb") as pipe:
            send(pipe)
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


@contextlib.contextmanager
def split_sum(work, plan, G: int, nbytes: int):
    """Deal ``plan`` into the shares plan[i::parts] that ``_shares`` gives
    for a job of ``nbytes`` (at most one per item), fork a child for each
    share but the first that sends back the G integer counts ``work(share)``
    returns, and yield a function that returns the sum of every share's
    counts; it does the first share itself, so call it once this process
    has done its own part of the job.  A share whose child sends nothing
    (it raised, warned or died), or that found no process or pipe to spare,
    is redone here by that function, with the errors and warnings of
    ``work`` in this process.  No child outlives the ``with`` block.
    """
    parts = _shares(nbytes, len(plan))
    first, *shares = (plan[i::parts] for i in range(parts))

    def send(pipe, share):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            counts = work(share)
        if not caught:
            pipe.write(np.asarray(counts, np.int64).tobytes())

    def receive(fd, share):
        counts = np.empty(G, np.int64)
        return counts if fd is not None and _receive(fd, counts.view(np.uint8)) else work(share)

    with _children() as children:
        pipes = [_fork(children, lambda pipe, share=share: send(pipe, share)) for share in shares]
        yield lambda: work(first) + sum(map(receive, pipes, shares))


def write_split(f, rows, n: int, nbytes: int):
    """Write ``rows(a, b)``, the encoded lines of rows a to b, for rows 0 to
    n to the binary file ``f``, in order, cut into the shares that
    ``_shares`` gives for ``nbytes`` of values (at most one per row), or
    into one share where ``f`` cannot seek.

    The first share is formatted here, row by row, while a forked child
    formats each other share whole and sends its byte count, then its
    bytes; this process copies them into ``f`` ``_BLOCK`` bytes at a time,
    so it holds about one row's text and each child about its own share's
    (16 MB of wide-size text, 72 rows of 22283 values, over two CPUs).
    A share whose child sends nothing or a short stream (it raised or
    died), or that found no process or pipe to spare, is cut from ``f`` and
    written here.  No child outlives the call.
    """
    parts = _shares(nbytes, n) if f.seekable() else 1
    cuts = [n * k // parts for k in range(parts + 1)]

    def send(pipe, a, b):
        text = list(rows(a, b))
        pipe.write(np.int64(sum(map(len, text))).tobytes())
        pipe.writelines(text)

    def copied(fd) -> bool:
        size = np.zeros(1, np.int64)
        if not _receive(fd, size.view(np.uint8)):
            return False
        left = int(size[0])
        while left and (got := os.readv(fd, [block[: min(left, _BLOCK)]])):
            left -= f.write(block[:got])
        return not left

    with _children() as children:
        first, *shares = zip(cuts, cuts[1:])
        pipes = [_fork(children, lambda pipe, s=s: send(pipe, *s)) for s in shares]
        f.writelines(rows(*first))
        if children:
            # one buffer for every block: a new bytes object per block (os.read)
            # left about 20 MB of free heap this process kept after a wide write
            block = memoryview(bytearray(_BLOCK))
        for fd, (a, b) in zip(pipes, shares):
            start = f.tell()
            if fd is None or not copied(fd):
                f.seek(start)
                f.truncate()
                f.writelines(rows(a, b))


def parse_split(path, cuts, delim: str, width: int, key_col: int | None):
    """``parse_range`` of each pair of consecutive ``cuts`` of the file
    ``path``, each in a forked child that opens the file and reads its
    range by ``_blocks``, joined in file order, or None if a range is
    refused.  Where a child cannot be forked, the whole is one range,
    parsed here the same way.

    Each child sends its row and key byte counts, its rows and its keys, or
    nothing if its range is refused.  All the counts are read first, so the
    rows go straight from the pipes into the one result array.
    """

    def parsed(start, end):
        with open(path, "rb") as f:
            f.seek(start)
            return parse_range(_blocks(f, end - start), delim, width, key_col)

    def send(pipe, start, end):
        if (got := parsed(start, end)) is not None:
            keys, values = got
            names = "\n".join(keys or ()).encode()  # a key holds no line break
            pipe.write(np.array([len(values), len(names)], np.int64).tobytes())
            pipe.write(values.reshape(-1).view(np.uint8))
            pipe.write(names)

    with _children() as children:
        ranges = zip(cuts, cuts[1:])
        if all(_fork(children, lambda pipe, s=s: send(pipe, *s)) is not None for s in ranges):
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
                keys += names.decode().split("\n")[: b - a]  # none in a range of blank lines
            return (None if key_col is None else keys), values
    return parsed(cuts[0], cuts[-1])  # no process or pipe to spare: one range, here
