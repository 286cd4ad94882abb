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
from pathlib import Path

import numpy as np

from . import bench as bench_mod
from .srd import PerformanceMatrix, srd as compute_srd, srd_loo, srd_report
from .data import Dataset, fold_count, load_matrix, save_matrix
from .errors import ValidationError
from .model import (
    fit_statistics,
    load_model,
    predict_labels,
    save_model,
    shrink,
)
from .thresholds import parse_rule, threshold_grid
from .tuning import cross_validate, deep_search, select_smallest


def _read_config(path: str | None) -> dict[str, str]:
    if path is None:
        return {}
    cfg = {}
    for ln in Path(path).read_text().splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        if "=" not in ln:
            raise ValidationError(f"bad config line {ln!r}, expected key=value")
        key, value = ln.split("=", 1)
        cfg[key.strip()] = value.strip()
    return cfg


_FLAG_VALUES = {
    "1": True, "true": True, "yes": True, "on": True,
    "0": False, "false": False, "no": False, "off": False,
}


class Options:
    """Resolved option lookup: CLI > environment (SC_*) > config > default."""

    def __init__(self, args: argparse.Namespace, config: dict[str, str]):
        self._args = vars(args)
        self._config = config

    def get(self, key: str, default=None, cast=str):
        cli = self._args.get(key.replace("-", "_"))
        if cli is not None:
            return cli
        env = os.environ.get("SC_" + key.replace("-", "_").upper())
        if env is not None:
            return cast(env)
        if key in self._config:
            return cast(self._config[key])
        return default

    def flag(self, key: str, default: bool | None = False) -> bool | None:
        """A boolean option: 1/0, true/false, yes/no or on/off, in any case."""
        value = self.get(key, default)
        if value is None or isinstance(value, bool):
            return value
        try:
            return _FLAG_VALUES[value.strip().lower()]
        except KeyError:
            raise ValidationError(
                f"{key} must be one of 1/0, true/false, yes/no, on/off; got {value!r}"
            ) from None


def _load_dataset(opts: Options) -> Dataset:
    data = opts.get("data")
    if data is None:
        raise ValidationError("--data is required")
    orientation = {"rows": "rows", "cols": "cols"}[opts.get("samples-in", "rows")]
    return load_matrix(
        data,
        orientation=orientation,
        label_col=opts.get("label-col"),
        labels_path=opts.get("labels"),
    )


def _fit_kw(opts: Options) -> dict:
    s0 = opts.get("s0", "median")
    if s0 != "median":
        s0 = float(s0)
    return dict(
        prior_mode=opts.get("priors", "empirical"),
        s0=s0,
        mk_mode=opts.get("mk", "paper"),
    )


def _emit(rows, out_path=None):
    text = "\n".join("\t".join(str(c) for c in row) for row in rows) + "\n"
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_train(opts: Options) -> int:
    ds = _load_dataset(opts)
    rule = parse_rule(opts.get("rule", "soft:0.0"))
    model = shrink(fit_statistics(ds, **_fit_kw(opts)), rule)
    out = opts.get("out")
    if out is None:
        raise ValidationError("--out is required")
    save_model(model, out, feature_names=ds.feature_names)
    print(f"model written to {out} ({model.survivors.size} surviving features)")
    return 0


def _cmd_predict(opts: Options) -> int:
    model = load_model(opts.get("model"))
    data = opts.get("data")
    if data is None:
        raise ValidationError("--data is required")
    orientation = opts.get("samples-in", "rows")
    # prediction input needs no labels; parse the matrix with a dummy reader
    lines = [ln for ln in Path(data).read_text().splitlines() if ln.strip()]
    delim = "\t" if "\t" in lines[0] else ","
    rows = [ln.split(delim) for ln in lines[1:]]
    if orientation == "rows":
        X = np.array([[float(c) for c in cells] for cells in rows])
    else:
        X = np.array([[float(c) for c in cells[1:]] for cells in rows]).T
    labels = predict_labels(model, X)
    _emit([[lab] for lab in labels], opts.get("out"))
    return 0


def _cmd_cv(opts: Options) -> int:
    ds = _load_dataset(opts)
    kind = opts.get("method")
    if kind not in ("soft", "hard", "order"):
        raise ValidationError("--method must be soft, hard, or order")
    fit_kw = _fit_kw(opts)
    m = opts.get("m", 30, int)
    F = fold_count(ds, opts.get("folds", 10, int))
    seed = opts.get("seed", 0, int)
    grid = threshold_grid(fit_statistics(ds, **fit_kw), kind, m)
    curve = cross_validate(ds, grid, F, seed, **fit_kw)
    rows = [["threshold", "cv_error_count", "survivor_count"]]
    for pt in curve.points:
        rows.append([pt.rule.param, pt.cv_error_count, pt.survivor_count])
    _emit(rows, opts.get("out"))
    return 0


def _trace_rows(trace) -> list[list]:
    rows = [
        [
            "iteration", "threshold", "cv_error_count", "survivor_count",
            "chosen", "runner_up", "switch_taken",
        ]
    ]
    for it_num, it in enumerate(trace.iterations):
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
                ]
            )
    return rows


def _cmd_tune(opts: Options) -> int:
    ds = _load_dataset(opts)
    kind = opts.get("method")
    if kind not in ("soft", "hard", "order"):
        raise ValidationError("--method must be soft, hard, or order")
    fit_kw = _fit_kw(opts)
    m = opts.get("m", 30, int)
    F = fold_count(ds, opts.get("folds", 10, int))
    seed = opts.get("seed", 0, int)
    deep = opts.flag("deep-search", True)
    if deep:
        trace = deep_search(
            ds, kind, m=m, F=F, seed=seed,
            big_gap=opts.get("big-gap", 2000, int), **fit_kw,
        )
        rule = trace.final_rule
        trace_path = opts.get("trace")
        if trace_path:
            _emit(_trace_rows(trace), trace_path)
    else:
        grid = threshold_grid(fit_statistics(ds, **fit_kw), kind, m)
        curve = cross_validate(ds, grid, F, seed, **fit_kw)
        rule = curve.points[select_smallest(curve)].rule
    print(f"selected rule: {rule}")
    return 0


def _cmd_bench(opts: Options) -> int:
    fit_kw = _fit_kw(opts)
    load_kw = dict(
        orientation=opts.get("samples-in", "rows"),
        label_col=opts.get("label-col", "label"),
    )
    train = load_matrix(opts.get("train"), **load_kw)
    test = load_matrix(opts.get("test"), **load_kw)
    method = opts.get("method")
    if method is None:
        raise ValidationError("--method is required")
    records = bench_mod.run_experiment(
        train,
        test,
        method,
        runs=opts.get("runs", 100, int),
        base_seed=opts.get("seed", 0, int),
        m=opts.get("m", 30, int),
        folds=opts.get("folds", 10, int),
        big_gap=opts.get("big-gap", 2000, int),
        **fit_kw,
    )
    rows = [["method", "seed", "chosen_rule", "test_error_pct", "survivor_count"]]
    for rec in records:
        rows.append(
            [rec.method, rec.seed, rec.chosen_rule, repr(rec.test_error_pct),
             rec.survivor_count]
        )
    agg = bench_mod.aggregate(records)
    rows.append(
        ["# aggregate", "", "", "", ""]
    )
    rows.append(
        ["# mean/median/se error", repr(agg.mean_error), repr(agg.median_error),
         repr(agg.se_error), ""]
    )
    rows.append(
        ["# mean/se survivors", repr(agg.mean_survivors), repr(agg.se_survivors),
         "", ""]
    )
    _emit(rows, opts.get("out"))
    return 0


def _read_performance_matrix(path, lower_is_better: bool) -> PerformanceMatrix:
    lines = [ln for ln in Path(path).read_text().splitlines() if ln.strip()]
    if len(lines) < 3:
        raise ValidationError(f"{path}: need a header and at least two rows")
    delim = "\t" if "\t" in lines[0] else ","
    header = lines[0].split(delim)
    col_names = tuple(h.strip() for h in header[1:])
    row_names = []
    values = []
    for ln in lines[1:]:
        cells = ln.split(delim)
        if len(cells) != len(header):
            raise ValidationError(f"{path}: ragged row {ln!r}")
        row_names.append(cells[0].strip())
        values.append([float(c) for c in cells[1:]])
    return PerformanceMatrix(
        np.array(values), tuple(row_names), col_names, lower_is_better
    )


def _cmd_srd(opts: Options) -> int:
    higher = opts.flag("higher-is-better", None)
    lower = opts.flag("lower-is-better", None)
    if higher is not None and higher == lower:
        raise ValidationError("--higher-is-better and --lower-is-better contradict each other")
    M = _read_performance_matrix(
        opts.get("input"), lower if lower is not None else not higher
    )
    strategy = opts.get("gold", "min")
    result = compute_srd(M, strategy)
    rows, dist_rows = srd_report(result)
    _emit(rows, opts.get("out"))
    _emit(dist_rows, opts.get("dist-out"))
    if opts.flag("loo"):
        loo = srd_loo(M, strategy)
        loo_rows = [["method", "loo_min", "loo_mean", "loo_max"]]
        for name, vals in loo.items():
            loo_rows.append(
                [name, repr(min(vals)), repr(sum(vals) / len(vals)), repr(max(vals))]
            )
        _emit(loo_rows, opts.get("loo-out"))
    return 0


def _cmd_synth(opts: Options) -> int:
    n_classes = opts.get("k", 2, int)
    sizes = tuple(int(v) for v in str(opts.get("n-per-class", "20")).split(","))
    if len(sizes) == 1:
        sizes = sizes * n_classes
    spec = bench_mod.SynthSpec(
        p=opts.get("p", 100, int),
        n_classes=n_classes,
        informative=opts.get("q", 10, int),
        shift=opts.get("shift", 1.0, float),
        n_per_class=sizes,
        noise_sd=opts.get("noise-sd", 1.0, float),
        seed=opts.get("seed", 0, int),
    )
    train, test = bench_mod.generate_synthetic(spec)
    out_dir = Path(opts.get("out", "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    save_matrix(train, out_dir / "train.csv")
    save_matrix(test, out_dir / "test.csv")
    print(f"wrote {out_dir / 'train.csv'} and {out_dir / 'test.csv'}")
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "predict": _cmd_predict,
    "cv": _cmd_cv,
    "tune": _cmd_tune,
    "bench": _cmd_bench,
    "srd": _cmd_srd,
    "synth": _cmd_synth,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nsckit",
        description="Shrunken-centroid classification, threshold tuning, and SRD comparison",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, *specs):
        sp = sub.add_parser(name)
        sp.add_argument("--config")
        for flag, kwargs in specs:
            sp.add_argument(flag, **kwargs)
        return sp

    data_flags = [
        ("--data", {}),
        ("--samples-in", {"choices": ["rows", "cols"]}),
        ("--label-col", {}),
        ("--labels", {}),
    ]
    fit_flags = [
        ("--priors", {"choices": ["empirical", "uniform"]}),
        ("--s0", {}),
        ("--mk", {"choices": ["paper", "classic"]}),
    ]
    tune_flags = [
        ("--method", {}),
        ("--m", {"type": int}),
        ("--folds", {"type": int}),
        ("--seed", {"type": int}),
        ("--big-gap", {"type": int}),
    ]
    add("train", *data_flags, *fit_flags, ("--rule", {}), ("--out", {}))
    add("predict", ("--model", {}), ("--data", {}),
        ("--samples-in", {"choices": ["rows", "cols"]}), ("--out", {}))
    add("cv", *data_flags, *fit_flags, *tune_flags, ("--out", {}))
    add("tune", *data_flags, *fit_flags, *tune_flags,
        ("--deep-search", {"nargs": "?", "const": "on"}), ("--trace", {}))
    add("bench", ("--train", {}), ("--test", {}),
        ("--samples-in", {"choices": ["rows", "cols"]}), ("--label-col", {}),
        *fit_flags, *tune_flags, ("--runs", {"type": int}), ("--out", {}))
    add("srd", ("--input", {}), ("--gold", {"choices": ["min", "max", "mean"]}),
        ("--lower-is-better", {"action": "store_true", "default": None}),
        ("--higher-is-better", {"action": "store_true", "default": None}),
        ("--loo", {"action": "store_true", "default": None}),
        ("--out", {}), ("--dist-out", {}), ("--loo-out", {}))
    add("synth", ("--p", {"type": int}), ("--q", {"type": int}),
        ("--k", {"type": int}), ("--shift", {"type": float}),
        ("--n-per-class", {}), ("--noise-sd", {"type": float}),
        ("--seed", {"type": int}), ("--out", {}))
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        config = _read_config(args.config)
        opts = Options(args, config)
        return _COMMANDS[args.command](opts)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
