"""Command-line interface.

Subcommands: train, predict, cv, tune, bench, srd, synth.  Option values are
resolved with the precedence CLI flag > SC_-prefixed environment variable >
config file (key=value lines) > built-in default.  All randomness is seeded,
so repeated invocations with the same inputs produce byte-identical output.
Exit status: 0 on success, 1 on validation/usage errors, 2 on I/O errors.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from . import bench as bench_mod
from .srd import PerformanceMatrix, srd as compute_srd, srd_loo, srd_report
from .data import (
    Dataset, column_order, load_matrix, read_samples, read_table, read_text, save_matrix,
)
from .errors import ValidationError
from .model import (
    fit_statistics,
    load_model,
    predict_labels,
    save_model,
    shrink,
)
from .thresholds import KINDS, parse_rule


def _read_config(path: str | None) -> dict[str, str]:
    if path is None:
        return {}
    cfg = {}
    for ln in read_text(path).splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        if "=" not in ln:
            raise ValidationError(f"bad config line {ln!r}, expected key=value")
        key, value = ln.split("=", 1)
        cfg[key.strip()] = value.strip()
    return cfg


def _flag_value(text: str) -> bool:
    value = text.strip().lower()
    if value not in ("1", "true", "yes", "on", "0", "false", "no", "off"):
        raise ValueError("expected 1/0, true/false, yes/no or on/off")
    return value in ("1", "true", "yes", "on")


class Options:
    """Resolved option lookup: CLI > environment (SC_*) > config > default.

    Every value given as text, wherever it comes from, goes through the same
    ``cast``; a value the cast rejects is a ValidationError naming the key.
    """

    def __init__(self, args: argparse.Namespace, config: dict[str, str]):
        self._args = vars(args)
        self._config = config

    def get(self, key: str, default=None, cast=str):
        name = key.replace("-", "_")
        sources = (
            self._args.get(name),
            os.environ.get("SC_" + name.upper()),
            self._config.get(key),
        )
        value = next((v for v in sources if v is not None), None)
        if value is None:
            return default
        try:
            return cast(value)
        except ValueError as exc:
            raise ValidationError(f"--{key} {value!r}: {exc}") from None

    def require(self, key: str):
        value = self.get(key)
        if value is None:
            raise ValidationError(f"--{key} is required")
        return value

    def flag(self, key: str, default: bool = False) -> bool:
        """A boolean option: 1/0, true/false, yes/no or on/off, in any case."""
        return self.get(key, default, _flag_value)


def _non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError("must be non-negative")
    return value


# Options passed to the library only when set, so that its defaults apply:
# option key -> (keyword argument, cast).
_PASSED = {
    "priors": ("prior_mode", str),
    "s0": ("s0", lambda v: v if v == "median" else float(v)),
    "mk": ("mk_mode", str),
    "m": ("m", int),
    "folds": ("folds", int),
    "big-gap": ("big_gap", _non_negative),
    "runs": ("runs", int),
    "seed": ("base_seed", _non_negative),
    "samples-in": ("orientation", str),
    "label-col": ("label_col", str),
    "labels": ("labels_path", str),
    "gold": ("strategy", str),
}
_FIT = ("priors", "s0", "mk")


def _given(opts: Options, *keys: str) -> dict:
    """Keyword arguments for the options among ``keys`` that are set."""
    kw = {_PASSED[key][0]: opts.get(key, None, _PASSED[key][1]) for key in keys}
    return {name: value for name, value in kw.items() if value is not None}


def _load_dataset(opts: Options) -> Dataset:
    return load_matrix(opts.require("data"), **_given(opts, "samples-in", "label-col", "labels"))


def _emit(rows, out_path=None):
    text = "\n".join("\t".join(str(c) for c in row) for row in rows) + "\n"
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cmd_train(opts: Options) -> int:
    out = opts.require("out")
    ds = _load_dataset(opts)
    rule = parse_rule(opts.get("rule", "soft:0.0"))
    model = shrink(fit_statistics(ds, **_given(opts, *_FIT)), rule)
    save_model(model, out)
    print(f"model written to {out} ({model.survivors.size} surviving features)")
    return 0


def _cmd_predict(opts: Options) -> int:
    model_path, data = opts.require("model"), opts.require("data")
    model = load_model(model_path)
    names, _, values = read_samples(data, **_given(opts, "samples-in"))
    X = values.T
    if model.stats.feature_names is not None:
        X = X[:, column_order(names, model.stats.feature_names)]
    _emit([[lab] for lab in predict_labels(model, X)], opts.get("out"))
    return 0


def _tune(opts: Options, deep: bool, *keys: str):
    """The trace of ``bench.tune`` on --data, as cv and tune run it; ``keys``
    names the tuning options read besides --m and --folds."""
    kind = opts.require("method")
    if kind not in KINDS:
        raise ValidationError("--method must be soft, hard, or order")
    fit_kw, tuning_kw = _given(opts, *_FIT), _given(opts, "m", "folds", *keys)
    seed = opts.get("seed", 0, _non_negative)
    ds = _load_dataset(opts)
    full = fit_statistics(ds, **fit_kw)
    return bench_mod.tune(ds, full, kind, deep, seed, **tuning_kw, **fit_kw)


def _cmd_cv(opts: Options) -> int:
    rows = [["threshold", "cv_error_count", "survivor_count"]]
    for pt in _tune(opts, False).iterations[0].curve.points:
        rows.append([pt.rule.param, pt.cv_error_count, pt.survivor_count])
    _emit(rows, opts.get("out"))
    return 0


def _trace_rows(trace) -> list[list]:
    rows = [
        [
            "iteration", "threshold", "cv_error_count", "survivor_count",
            "chosen", "runner_up", "switch_taken", "interval", "stop_reason",
        ]
    ]
    for it_num, it in enumerate(trace.iterations):
        stop = trace.stop_reason if it_num == len(trace.iterations) - 1 else ""
        for i, pt in enumerate(it.curve.points):
            rows.append(
                [
                    it_num,
                    pt.rule.param,
                    pt.cv_error_count,
                    pt.survivor_count,
                    int(i == it.chosen),
                    int(it.runner_up is not None and i == it.runner_up),
                    int(it.switched and i == it.runner_up),
                    int(i in (it.interval or ())),
                    stop,
                ]
            )
    return rows


def _cmd_tune(opts: Options) -> int:
    trace = _tune(opts, opts.flag("deep-search", True), "big-gap")
    trace_path = opts.get("trace")
    if trace_path:
        _emit(_trace_rows(trace), trace_path)
    print(f"selected rule: {trace.final_rule}")
    return 0


def _cmd_bench(opts: Options) -> int:
    runs_kw = _given(opts, "runs", "seed")
    runs = runs_kw.get("runs")
    if runs is not None and runs < 2:
        raise ValidationError(f"--runs must be at least 2 to aggregate, got {runs}")
    fit_kw, tuning_kw = _given(opts, *_FIT), _given(opts, "m", "folds", "big-gap")
    label_col = opts.get("label-col", "label")
    paths = [opts.require("train"), opts.require("test")]
    method = opts.require("method")
    train, test = (load_matrix(path, label_col=label_col) for path in paths)
    records = bench_mod.run_experiment(train, test, method, **runs_kw, **tuning_kw, **fit_kw)
    rows = [["method", "seed", "chosen_rule", "test_error_pct", "survivor_count"]]
    rows += [[rec.method, rec.seed, rec.chosen_rule, repr(rec.test_error_pct),
              rec.survivor_count] for rec in records]
    agg = bench_mod.aggregate(records)
    rows += [
        ["# aggregate", "", "", "", ""],
        ["# mean/median/se error", repr(agg.mean_error), repr(agg.median_error),
         repr(agg.se_error), ""],
        ["# mean/se survivors", repr(agg.mean_survivors), repr(agg.se_survivors), "", ""],
    ]
    _emit(rows, opts.get("out"))
    return 0


def _cmd_srd(opts: Options) -> int:
    lower_is_better, loo = not opts.flag("higher-is-better"), opts.flag("loo")
    methods, cases, values = read_table(opts.require("input"), 0)
    M = PerformanceMatrix(values, tuple(cases), tuple(methods), lower_is_better)
    gold = _given(opts, "gold")
    result = compute_srd(M, **gold)
    # leave-one-out before any output, so that too few rows write nothing
    loo_values = srd_loo(M, **gold) if loo else None
    rows, dist_rows = srd_report(result)
    _emit(rows, opts.get("out"))
    _emit(dist_rows, opts.get("dist-out"))
    if loo_values is not None:
        loo_rows = [["method", "loo_min", "loo_mean", "loo_max"]]
        for name, vals in loo_values.items():
            loo_rows.append(
                [name, repr(min(vals)), repr(sum(vals) / len(vals)), repr(max(vals))]
            )
        _emit(loo_rows, opts.get("loo-out"))
    return 0


def _cmd_synth(opts: Options) -> int:
    n_classes = opts.get("k", 2, int)
    sizes = opts.get("n-per-class", (20,), lambda v: tuple(map(int, v.split(","))))
    if len(sizes) == 1:
        sizes = sizes * n_classes
    spec = bench_mod.SynthSpec(
        p=opts.get("p", 100, int),
        n_classes=n_classes,
        informative=opts.get("q", 10, int),
        shift=opts.get("shift", 1.0, float),
        n_per_class=sizes,
        noise_sd=opts.get("noise-sd", 1.0, float),
        seed=opts.get("seed", 0, _non_negative),
    )
    train, test = bench_mod.generate_synthetic(spec)
    out_dir = Path(opts.get("out", "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    save_matrix(train, out_dir / "train.csv")
    save_matrix(test, out_dir / "test.csv")
    print(f"wrote {out_dir / 'train.csv'} and {out_dir / 'test.csv'}")
    return 0


# Each subcommand's function and the option keys of its flags and of its
# switches.  Every value is kept as text and typed and checked by Options and
# the code it reaches, so a flag, its SC_ variable and its config key agree;
# a switch given bare means on.
_COMMANDS = {
    "train": (_cmd_train, ("data", "samples-in", "label-col", "labels", *_FIT, "rule", "out"), ()),
    "predict": (_cmd_predict, ("model", "data", "samples-in", "out"), ()),
    "cv": (_cmd_cv, ("data", "samples-in", "label-col", "labels", *_FIT,
                     "method", "m", "folds", "seed", "out"), ()),
    "tune": (_cmd_tune, ("data", "samples-in", "label-col", "labels", *_FIT,
                         "method", "m", "folds", "seed", "big-gap", "trace"), ("deep-search",)),
    "bench": (_cmd_bench, ("train", "test", "label-col", *_FIT,
                           "method", "m", "folds", "seed", "big-gap", "runs", "out"), ()),
    "srd": (_cmd_srd, ("input", "gold", "out", "dist-out", "loo-out"), ("higher-is-better", "loo")),
    "synth": (_cmd_synth, ("p", "q", "k", "shift", "n-per-class", "noise-sd", "seed", "out"), ()),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nsckit",
        description="Shrunken-centroid classification, threshold tuning, and SRD comparison",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags, switches) in _COMMANDS.items():
        sp = sub.add_parser(name)
        for key in ("config", *flags):
            sp.add_argument("--" + key)
        for key in switches:
            sp.add_argument("--" + key, nargs="?", const="on")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        opts = Options(args, _read_config(Options(args, {}).get("config")))
        shown = set()

        def show(msg, *_):
            if str(msg) not in shown:
                shown.add(str(msg))
                print(f"warning: {msg}", file=sys.stderr)

        # overflow is an error, not a nan result; each distinct warning is
        # one stderr line, however often the command gives it
        with np.errstate(over="raise", invalid="raise", divide="raise"), \
                warnings.catch_warnings():
            warnings.showwarning = show
            return _COMMANDS[args.command][0](opts)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FloatingPointError as exc:
        print(f"error: values out of floating-point range ({exc})", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
