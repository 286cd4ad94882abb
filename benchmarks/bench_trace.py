"""Call tracer that instruments nsckit from outside the package.

nsckit modules import the functions they call by name (``bench.py`` does
``from .model import fit_statistics``), so a call is routed through the
caller's own module namespace.  The tracer therefore replaces the name in
each *caller* module, and one function bound in two callers (``tuning`` and
``bench`` both bind ``fit_statistics``) gets two wrappers that report under
one span name.  ``restore`` puts every original function back.

Every wrapper counts its calls and runs its ``after`` hook.  Only while
``timed`` is true does it also time the call: a span's self time is its
duration minus the time covered by spans opened inside it.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.timed = False
        self.clock = clock
        self.counts: Counter = Counter()  # "<span>.calls" plus hook counters
        self.self_s: defaultdict = defaultdict(float)  # span name -> self seconds
        self.seen: defaultdict = defaultdict(set)  # hook keys, for distinct counts
        self.captured: defaultdict = defaultdict(list)  # results kept by hooks
        self._open: list[float] = []  # child seconds of each open span
        self._patched: list = []

    def wrap(self, module, attr: str, span: str, label=None, after=None) -> None:
        """Replace ``module.attr`` with a wrapper reporting under ``span``.

        ``label(args, kwargs)`` suffixes the timed span name (the call count
        stays under ``span``); ``after(tracer, args, kwargs, result)`` runs
        once the call returns.
        """
        fn = getattr(module, attr)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[span + ".calls"] += 1
            if tracer.timed:
                name = span if label is None else f"{span}.{label(args, kwargs)}"
                out = tracer._timed_call(name, fn, args, kwargs)
            else:
                out = fn(*args, **kwargs)
            if after is not None:
                after(tracer, args, kwargs, out)
            return out

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, fn))

    def _timed_call(self, name, fn, args, kwargs):
        self._open.append(0.0)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            took = self.clock() - start
            child = self._open.pop()
            self.self_s[name] += took - child
            if self._open:
                self._open[-1] += took

    def reset_times(self) -> None:
        self.self_s.clear()

    def restore(self) -> None:
        while self._patched:
            module, attr, fn = self._patched.pop()
            setattr(module, attr, fn)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
