"""Seeded workloads of the nsckit benchmark.

A workload makes its inputs from an input index (``--seed`` modulo ``POOL``),
and a pass runs one cycle for each of the index's keys.  A cycle yields one
``Op`` per timed call into nsckit.  Each Op carries a SHA-256 of that call's
results, which the harness compares with ``reference.json``, and the counts
that must repeat exactly whenever the same key runs again.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import statistics
import sys
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

POOL = 16  # distinct inputs per workload, so that every input has a stored reference
HELD_OUT = 15  # input index kept out of development, for validating claims
LAYERS = ("data", "thresholds", "model", "tuning", "srd", "bench")
STOP_REASONS = (
    "no-improvement",
    "no-qualifying-interval",
    "survivors-unchanged",
    "empty-refinement",
)


def import_nsckit() -> SimpleNamespace:
    """Import nsckit afresh (numpy stays loaded) and return its layer modules."""
    for name in [m for m in sys.modules if m == "nsckit" or m.startswith("nsckit.")]:
        del sys.modules[name]
    importlib.import_module("nsckit")
    return SimpleNamespace(**{m: sys.modules["nsckit." + m] for m in LAYERS})


@dataclass
class Op:
    name: str
    seconds: float  # wall time of the call
    digest: str
    counts: dict
    scale: float = 1.0  # host-speed correction; see calibrate()

    @property
    def calibrated_s(self) -> float:
        return self.seconds * self.scale


# Co-tenants on a shared host slow this process for minutes at a time, and
# Python-heavy code by up to 2x.  A fixed kernel timed just before and after
# each operation slows alike, so dividing the operation's seconds by the
# kernel's slowdown estimates its time on an uncontended host.  Each kernel
# resembles the work of the workloads that use it; its reference seconds, on
# an uncontended 2-core Intel Xeon host, only set the units.
_CAL_DATA = np.random.default_rng(0).normal(size=8192)


def _dict_loop(n: int) -> None:
    counts: dict = {}
    for i in range(n):
        counts[i % 257] = counts.get(i % 257, 0) + i


KERNELS = {  # name -> (kernel, reference seconds)
    "mixed": (lambda: (_dict_loop(3000), np.argsort(_CAL_DATA, kind="stable")), 0.001),
    "python": (lambda: _dict_loop(9000), 0.001),
}


def calibrate(kernel: str) -> float:
    """Host slowdown: median of three kernel runs over its reference time."""
    run, reference_s = KERNELS[kernel]
    times = []
    for _ in range(3):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return statistics.median(times) / reference_s


def scale(before: float, after: float) -> float:
    """Correction for a span timed between two calibrate() readings."""
    return 2.0 / (before + after)


def digest(material) -> str:
    """SHA-256 of a JSON rendering; floats are written exactly, as repr does."""
    text = json.dumps(material, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# Hooks run after a wrapped call returns; see Tracer.wrap.


def _predict_hook(slot=None):
    def hook(tracer, args, kwargs, out):
        stats = args[0].stats
        # bytes of the p x n_test x K score work, computed from the shapes
        tracer.counts["model.predict.bytes"] += stats.p * len(out) * stats.n_classes * 8
        if slot is not None:
            tracer.captured[slot].append(out)

    return hook


def _keep(slot):
    def hook(tracer, args, kwargs, out):
        tracer.captured[slot].append(out)

    return hook


def _fit_seen(tracer, args, kwargs, out):
    values = args[0].values
    # the first rows of the training matrix identify its sample subset
    key = (values.shape, values[:4].tobytes(), args[1:], tuple(sorted(kwargs.items())))
    tracer.seen["fit"].add(key)


def _file_bytes(tracer, args, kwargs, out):
    tracer.counts["data.load_matrix.bytes"] += Path(args[0]).stat().st_size


def _null_seen(tracer, args, kwargs, out):
    tracer.counts[f"srd.null_computations.r{args[0]}"] += 1
    tracer.seen["null_r"].add(args[0])


def _rule_kind(args, kwargs):
    return (args[1] if len(args) > 1 else kwargs["rule"]).kind


def instrument(tracer, nsc: SimpleNamespace) -> None:
    """Wrap, in every caller module, the nsckit functions the layers measure."""
    w = tracer.wrap
    w(nsc.data, "load_matrix", "data.load_matrix", after=_file_bytes)
    w(nsc.bench, "run_experiment", "bench.run_experiment")
    w(nsc.bench, "deep_search", "tuning.deep_search", after=_keep("search"))
    w(nsc.bench, "cross_validate", "tuning.cross_validate", after=_keep("curve"))
    w(nsc.tuning, "cross_validate", "tuning.cross_validate")
    for mod in (nsc.bench, nsc.tuning):
        w(mod, "fit_statistics", "model.fit_statistics", after=_fit_seen)
        w(mod, "shrink", "model.shrink")
    w(nsc.bench, "predict", "model.predict", after=_predict_hook("pred"))
    w(nsc.tuning, "predict", "model.predict", after=_predict_hook())
    for mod in (nsc.model, nsc.tuning):
        w(mod, "apply_rule", "thresholds.apply_rule", label=_rule_kind)
    w(nsc.srd, "srd", "srd.srd")
    w(nsc.srd, "srd_loo", "srd.srd_loo")
    w(nsc.srd, "exact_null_distribution", "srd.exact_null_distribution", after=_null_seen)
    w(nsc.srd, "normal_approx_null", "srd.normal_approx_null", after=_null_seen)


def _measure(tracer, call):
    """Time one call into nsckit; return its result, seconds and counts."""
    tracer.captured.clear()
    tracer.seen.clear()
    before = tracer.counts.copy()
    start = time.perf_counter()
    result = call()
    seconds = time.perf_counter() - start
    return result, seconds, tracer.counts - before


def _one(captured, slot):
    found = captured[slot]
    if len(found) != 1:
        raise RuntimeError(
            f"expected one captured {slot!r} result per run, got {len(found)}; "
            "run_experiment no longer calls the wrapped bench-level function"
        )
    return found[0]


def _dataset_material(ds):
    return {
        "shape": list(ds.values.shape),
        "values": hashlib.sha256(ds.values.tobytes()).hexdigest(),
        "labels": list(ds.labels),
        "features": hashlib.sha256("\n".join(ds.feature_names).encode()).hexdigest(),
    }


def _curve_material(curve):
    return [[str(pt.rule), pt.cv_error_count, pt.survivor_count] for pt in curve.points]


@dataclass(frozen=True)
class ModelWorkload:
    """A seeded synthetic train/test pair run through ``run_experiment``.

    Each key is one fold-plan seed; a cycle runs every method once with it.
    With ``from_csv`` the pair is written as CSV during set-up and every
    cycle first loads it back with ``load_matrix``.
    """

    p: int
    n_classes: int
    informative: int
    shift: float
    n_per_class: int
    methods: tuple[str, ...]
    keys_per_input: int
    from_csv: bool
    setup_repeats: int
    tag: int
    kernel = "mixed"  # numpy sorts and scoring, plus Python parsing and loops

    @property
    def op_names(self) -> tuple[str, ...]:
        return (("load",) if self.from_csv else ()) + self.methods

    @property
    def run_ops(self) -> tuple[str, ...]:
        return self.methods

    def op_metric(self, name: str) -> str:
        return "load_s" if name == "load" else f"run_s.{name}"

    def setup(self, nsc, index: int, workdir: Path):
        spec = nsc.bench.SynthSpec(
            p=self.p,
            n_classes=self.n_classes,
            informative=self.informative,
            shift=self.shift,
            n_per_class=(self.n_per_class,) * self.n_classes,
            noise_sd=1.0,
            seed=1000 * self.tag + index,
        )
        pair = nsc.bench.generate_synthetic(spec)
        if not self.from_csv:
            return pair
        paths = (workdir / "train.csv", workdir / "test.csv")
        for ds, path in zip(pair, paths):
            nsc.data.save_matrix(ds, path)
        return paths

    def keys(self, index: int) -> list[int]:
        return [index * self.keys_per_input + j for j in range(self.keys_per_input)]

    def cycle(self, nsc, tracer, state, key):
        if self.from_csv:
            pair, seconds, counts = _measure(
                tracer, lambda: [nsc.data.load_matrix(p, label_col="label") for p in state]
            )
            yield Op("load", seconds, digest([_dataset_material(ds) for ds in pair]), dict(counts))
        else:
            pair = state
        for method in self.methods:
            yield self._run(nsc, tracer, *pair, method, key)

    def _run(self, nsc, tracer, train, test, method, seed):
        [rec], seconds, counts = _measure(
            tracer,
            lambda: nsc.bench.run_experiment(train, test, method, runs=1, base_seed=seed),
        )
        captured = tracer.captured
        search = None
        if nsc.bench.METHODS[method][1]:
            trace = _one(captured, "search")
            curves = [it.curve for it in trace.iterations]
            search = {
                "stop": trace.stop_reason,
                "steps": [
                    [it.chosen, it.runner_up, it.switched, it.interval, it.next_grid_size]
                    for it in trace.iterations
                ],
            }
            counts["tuning.deep_search.iterations"] = len(trace.iterations)
            counts["tuning.deep_search.stop." + trace.stop_reason] = 1
        else:
            curves = [_one(captured, "curve")]
        pred = _one(captured, "pred")
        counts["tuning.grid_points"] = sum(len(c.points) for c in curves)
        counts["model.fit_statistics.distinct"] = len(tracer.seen["fit"])
        material = {
            "rule": str(rec.chosen_rule),
            "error_pct": rec.test_error_pct,
            "survivors": rec.survivor_count,
            "curves": [_curve_material(c) for c in curves],
            "search": search,
            "pred": np.asarray(pred).tolist(),
        }
        return Op(method, seconds, digest(material), dict(counts))


@dataclass(frozen=True)
class SrdWorkload:
    """Seeded 6-method test-error matrices compared by ``srd`` and ``srd_loo``.

    Entries are error percentages over ``n_test`` samples, so they are
    multiples of 100 / n_test and tie as real comparisons do.  Each key holds
    one matrix per entry of ``sizes``.
    """

    sizes: tuple[tuple[str, int], ...]
    keys_per_input: int
    n_test: int
    setup_repeats: int
    tag: int
    kernel = "python"  # the SRD null is a dict-heavy dynamic program

    @property
    def op_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.sizes)

    run_ops = op_names

    def op_metric(self, name: str) -> str:
        return f"srd_s.{name}"

    def setup(self, nsc, index: int, workdir: Path):
        rng = np.random.default_rng([self.tag, index])
        methods = tuple(nsc.bench.METHODS)
        return [
            [self._matrix(nsc, rng, r, methods) for _, r in self.sizes]
            for _ in range(self.keys_per_input)
        ]

    def _matrix(self, nsc, rng, r, methods):
        case_rate = rng.uniform(0.02, 0.3, size=(r, 1))
        method_effect = rng.normal(0.0, 0.03, size=(1, len(methods)))
        noise = rng.normal(0.0, 0.02, size=(r, len(methods)))
        rate = np.clip(case_rate + method_effect + noise, 0.0, 1.0)
        errors = rng.binomial(self.n_test, rate)
        names = tuple(f"case{i + 1}" for i in range(r))
        return nsc.srd.PerformanceMatrix(100.0 * errors / self.n_test, names, methods)

    def keys(self, index: int) -> list[int]:
        return list(range(self.keys_per_input))

    def cycle(self, nsc, tracer, state, key):
        for name, M in zip(self.op_names, state[key]):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                (res, loo), seconds, counts = _measure(
                    tracer, lambda: (nsc.srd.srd(M), nsc.srd.srd_loo(M))
                )
            counts["srd.tie_warnings"] = sum("ties detected" in str(w.message) for w in caught)
            counts["srd.null_distinct_r"] = len(tracer.seen["null_r"])
            material = {
                "raw": res.srd_raw,
                "scaled": res.srd_scaled,
                "percentiles": res.percentiles,
                "mode": res.mode,
                "gold_rank": res.gold_rank.tolist(),
                "null": sorted(res.null_distribution.items()),
                "loo": loo,
            }
            yield Op(name, seconds, digest(material), dict(+counts))


WORKLOADS = {
    # The paper's largest p with one CV pass per run: memory-bound predict and
    # the order-rule sort dominate; fold fits are few, so fit reuse saves little.
    "wide-grid": ModelWorkload(
        p=22283, n_classes=4, informative=40, shift=0.8, n_per_class=18,
        methods=("sth", "hth", "oth"), keys_per_input=1, from_csv=True,
        setup_repeats=3, tag=1,
    ),
    # The smallest p with deep search: many small refined grids and repeated
    # fold fits, so per-call overhead and fit reuse show here.
    "narrow-deep": ModelWorkload(
        p=2000, n_classes=3, informative=20, shift=0.8, n_per_class=24,
        methods=("sth2", "hth2", "oth2"), keys_per_input=8, from_csv=False,
        setup_repeats=5, tag=2,
    ),
    # The only workload of the srd layer: exact null (r = 13, leave-one-out at
    # r = 12) against the normal approximation (r = 40).
    "srd-compare": SrdWorkload(
        sizes=(("exact", 13), ("normal", 40)), keys_per_input=16, n_test=72,
        setup_repeats=5, tag=3,
    ),
}


@dataclass
class Pass:
    traced: bool
    ops: list  # (key, Op) in run order
    failures: list  # (key, op name, error text) for ops that did not complete
    seconds: float  # wall time of the pass
    self_s: dict  # span name -> self seconds; filled in traced passes only


def run_pass(workload, nsc, tracer, state, keys, traced: bool) -> Pass:
    """One cycle per key; an op that raises fails the rest of its cycle."""
    tracer.timed = traced
    tracer.reset_times()
    ops, failures = [], []
    start = time.perf_counter()
    before = calibrate(workload.kernel)
    for key in keys:
        done = 0
        try:
            for op in workload.cycle(nsc, tracer, state, key):
                after = calibrate(workload.kernel)
                op.scale = scale(before, after)
                before = after
                ops.append((key, op))
                done += 1
        except Exception as exc:  # recorded and counted as failed ops; the run goes on
            error = f"{type(exc).__name__}: {exc}"
            failures += [(key, name, error) for name in workload.op_names[done:]]
    seconds = time.perf_counter() - start
    tracer.timed = False
    return Pass(traced, ops, failures, seconds, dict(tracer.self_s))

