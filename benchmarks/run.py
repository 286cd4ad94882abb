#!/usr/bin/env python3
"""Seeded benchmark of nsckit tuning, scoring and SRD at small and large p.

    python3 benchmarks/run.py --workload wide-grid --seed 0 --seconds 30 --trace 0

Run from the repository root.  It imports nsckit from ``src/``, makes the
workload's inputs from the seed, sets them up several times (timing each),
then runs passes over the seed's cycles for ``--seconds`` (at least two
passes).  Every timed operation's result hash must match ``reference.json``
and repeat with its counts on every pass.  With ``--trace 1`` every other pass
is traced and the per-layer metrics are reported instead of the end-to-end
ones.  ``--workload all`` runs each workload in turn, each in its own process.

A metric table goes to stdout, followed by one JSON line with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record is
written to ``<out>/BENCH_<workload>_seed<seed>_trace<t>.json``.  Exit status:
0 when every operation matched, 1 when one failed or mismatched, 2 when the
nsckit sources are missing.
"""

import os


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


NPROC = _nproc()
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# Cap the BLAS/OpenMP pools at the usable cores; this must precede the numpy import.
for _var in THREAD_VARS:
    _cur = os.environ.get(_var, "")
    os.environ[_var] = str(min(int(_cur), NPROC)) if _cur.isdigit() and int(_cur) > 0 else str(NPROC)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import bench_workloads as bw  # noqa: E402
from bench_trace import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "nsckit"
REFERENCE = HERE / "reference.json"
MIN_PASSES = 2  # the same keys twice: repeats are checked, and traced runs need an untraced pass
QUEUE_NOTE = (
    "single process, closed loop: each operation starts when the previous one "
    "returns, so no operation waits in a queue and there is no waiting time to report"
)
# The metrics BENCHMARK.json gates; every workload reports all of them.
END_TO_END = ("setup_s", "cycle_s", "runs_per_min", "peak_rss_mb")


def summary(values, unit):
    """Median with its sample count, plus the highest tail percentile that
    has at least ten samples beyond it."""
    out = {"value": statistics.median(values), "unit": unit, "n": len(values)}
    for q in (99, 95, 90, 75):
        if len(values) * (100 - q) >= 1000:
            out[f"p{q}"] = statistics.quantiles(values, n=100)[q - 1]
            break
    return out


def end_to_end(workload, passes, setup_times):
    """Named end-to-end metrics from the untraced passes, in calibrated
    seconds (see bench_workloads.calibrate)."""
    plain = [p for p in passes if not p.traced]
    seconds: dict = {}
    cycles: dict = {}
    wall: dict = {}
    for i, p in enumerate(plain):
        for key, op in p.ops:
            seconds.setdefault(workload.op_metric(op.name), []).append(op.calibrated_s)
            cycles.setdefault((i, key), []).append(op.calibrated_s)
            wall.setdefault((i, key), []).append(op.seconds)
    # cycles cut short by a failed op count only when no cycle completed
    complete = [k for k, s in cycles.items() if len(s) == len(workload.op_names)] or list(cycles)
    runs = sum(op.name in workload.run_ops for p in plain for _, op in p.ops)
    metrics = {"setup_s": summary(setup_times, "s")}
    metrics.update((name, summary(v, "s")) for name, v in sorted(seconds.items()))
    metrics["cycle_s"] = summary([sum(cycles[k]) for k in complete] or [0.0], "s")
    metrics["cycle_wall_s"] = summary([sum(wall[k]) for k in complete] or [0.0], "s")
    metrics["host_slowdown"] = summary([1.0 / op.scale for p in plain for _, op in p.ops] or [1.0], "x")
    metrics["runs_per_min"] = {
        "value": 60.0 * runs / (sum(map(sum, cycles.values())) or 1.0),
        "unit": "1/min",
        "n": runs,
    }
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = {"value": peak_kb / 1024.0, "unit": "MB"}
    return metrics


def pass_counts(passes) -> Counter:
    total: Counter = Counter()
    for p in passes:
        for _, op in p.ops:
            total.update(op.counts)
    return total


def _ratio(part, whole):
    return part / whole if whole else 0.0


def per_layer(passes):
    """Per-pass layer metrics from the traced passes; self time is a span's
    time minus the time of the spans opened inside it."""
    traced = [p for p in passes if p.traced]
    n = len(traced)
    c = pass_counts(traced)
    self_s: Counter = Counter()
    for p in traced:
        self_s.update(p.self_s)

    def work(ps):
        return statistics.fmean(sum(op.calibrated_s for _, op in p.ops) for p in ps)

    nulls = c["srd.exact_null_distribution.calls"] + c["srd.normal_approx_null.calls"]
    m = {
        "data.load_matrix.s": (self_s["data.load_matrix"] / n, "s"),
        "data.load_matrix.mb": (c["data.load_matrix.bytes"] / n / 1e6, "MB"),
        "model.fit_statistics.calls": (c["model.fit_statistics.calls"] / n, "count"),
        "model.fit_statistics.self_s": (self_s["model.fit_statistics"] / n, "s"),
        "tuning.fit_useful_ratio": (
            _ratio(c["model.fit_statistics.distinct"], c["model.fit_statistics.calls"]),
            "ratio",
        ),
        "model.predict.calls": (c["model.predict.calls"] / n, "count"),
        "model.predict.self_s": (self_s["model.predict"] / n, "s"),
        "model.predict.mb_computed": (c["model.predict.bytes"] / n / 1e6, "MB"),
        "model.shrink.self_s": (self_s["model.shrink"] / n, "s"),
    }
    for kind in ("soft", "hard", "order"):
        m[f"thresholds.apply_rule.self_s.{kind}"] = (
            self_s[f"thresholds.apply_rule.{kind}"] / n,
            "s",
        )
    m["thresholds.apply_rule.calls"] = (c["thresholds.apply_rule.calls"] / n, "count")
    m["tuning.cross_validate.calls"] = (c["tuning.cross_validate.calls"] / n, "count")
    m["tuning.cross_validate.self_s"] = (self_s["tuning.cross_validate"] / n, "s")
    m["tuning.grid_points"] = (c["tuning.grid_points"] / n, "count")
    m["tuning.deep_search.iterations"] = (c["tuning.deep_search.iterations"] / n, "count")
    m["tuning.deep_search.self_s"] = (self_s["tuning.deep_search"] / n, "s")
    for reason in bw.STOP_REASONS:
        key = "tuning.deep_search.stop." + reason
        m[key] = (c[key] / n, "count")
    m["bench.run_experiment.self_s"] = (self_s["bench.run_experiment"] / n, "s")
    m["srd.exact_null_distribution.calls"] = (c["srd.exact_null_distribution.calls"] / n, "count")
    m["srd.exact_null_distribution.self_s"] = (self_s["srd.exact_null_distribution"] / n, "s")
    m["srd.normal_approx_null.self_s"] = (self_s["srd.normal_approx_null"] / n, "s")
    m["srd.null_useful_ratio"] = (_ratio(c["srd.null_distinct_r"], nulls), "ratio")
    m["srd.srd.self_s"] = (self_s["srd.srd"] / n, "s")
    m["srd.srd_loo.self_s"] = (self_s["srd.srd_loo"] / n, "s")
    m["srd.tie_warnings"] = (c["srd.tie_warnings"] / n, "count")
    m["trace.overhead_s"] = (work(traced) - work([p for p in passes if not p.traced]), "s")
    return {name: {"value": v, "unit": unit} for name, (v, unit) in m.items()}


def verify(passes, expected):
    """Failed op count and problems: ops that raised, missed their reference
    hash, or gave another hash or other counts than the same key before."""
    failed, problems, first = 0, [], {}
    for p in passes:
        for key, name, error in p.failures:
            failed += 1
            problems.append(f"key {key} {name}: raised {error}")
        for key, op in p.ops:
            want = expected.get(str(key), {}).get(op.name)
            seen = first.setdefault((key, op.name), (op.digest, op.counts))
            if op.digest != want:
                problems.append(f"key {key} {op.name}: hash {op.digest[:16]} != reference {str(want)[:16]}")
            elif seen != (op.digest, op.counts):
                problems.append(f"key {key} {op.name}: counts differ between passes")
            else:
                continue
            failed += 1
    return failed, problems


def environment():
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": NPROC,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "worker_processes": 0,
        "cpu": _cpu_model(),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout; see src_sha256)"


def _src_digest():
    h = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_workload(args):
    workload = bw.WORKLOADS[args.workload]
    index = args.seed % bw.POOL
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    expected = reference.get("digests", {}).get(args.workload, {}).get(str(index), {})
    with tempfile.TemporaryDirectory(dir=out) as workdir:
        setup_times = []
        for _ in range(workload.setup_repeats):
            before = bw.calibrate(workload.kernel)
            start = time.perf_counter()
            nsc = bw.import_nsckit()
            state = workload.setup(nsc, index, Path(workdir))
            took = time.perf_counter() - start
            setup_times.append(took * bw.scale(before, bw.calibrate(workload.kernel)))
        if not Path(nsc.bench.__file__).resolve().is_relative_to(PACKAGE):
            print(f"error: imported nsckit from {nsc.bench.__file__}", file=sys.stderr)
            return 2
        keys = workload.keys(index)
        passes = []
        with Tracer() as tracer:
            bw.instrument(tracer, nsc)
            start = time.perf_counter()
            # whole passes only, so that every run times the same work; stop
            # at the pass boundary nearest to --seconds
            while len(passes) < MIN_PASSES or (
                time.perf_counter() - start + statistics.fmean(p.seconds for p in passes) / 2
                < args.seconds
            ):
                traced = bool(args.trace) and len(passes) % 2 == 1
                passes.append(bw.run_pass(workload, nsc, tracer, state, keys, traced))
        del state

    attempted = sum(len(p.ops) + len(p.failures) for p in passes)
    failed, problems = verify(passes, expected)
    metrics = end_to_end(workload, passes, setup_times)
    metrics["failed_ops_frac"] = {"value": failed / attempted, "unit": "1", "n": attempted}
    layers = per_layer(passes) if args.trace else {}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "input_index": index,
        "held_out_index": bw.HELD_OUT,
        "trace": args.trace,
        "seconds": args.seconds,
        "passes": len(passes),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "queue": QUEUE_NOTE,
        "calibration_kernel": workload.kernel,
        "end_to_end": metrics,
        "per_layer": layers,
        "environment": environment(),
        "ops": [
            {"pass": i, "traced": p.traced, "key": key, "name": op.name,
             "seconds": op.seconds, "scale": op.scale, "digest": op.digest,
             "counts": op.counts}
            for i, p in enumerate(passes)
            for key, op in p.ops
        ],
    }
    path = out / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"{args.workload}  seed {args.seed} (input {index} of {bw.POOL})  trace {args.trace}  "
          f"passes {len(passes)}  ops {attempted}  failed {failed}")
    for problem in problems[:20]:
        print(f"  FAILED {problem}")
    print(f"  {'metric':46} {'value':>14} {'unit':6} {'n':>6}  tail")
    for name, m in {**metrics, **layers}.items():
        tail = " ".join(f"{k}={v:.6g}" for k, v in m.items() if k[0] == "p" and k[1:].isdigit())
        print(f"  {name:46} {m['value']:14.6g} {m['unit']:6} {m.get('n', ''):>6}  {tail}")
    print(f"  queue wait: not applicable ({QUEUE_NOTE})")
    print(f"  record: {path}")
    reported = layers if args.trace else {k: metrics[k] for k in END_TO_END}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in reported.items()},
    }))
    return 0 if failed == 0 else 1


def run_all(args):
    """Each workload in its own process, one after another."""
    status, summary_line = 0, {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in bw.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", args.out],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        print(proc.stdout, end="")
        status = max(status, proc.returncode)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            summary_line["correct"] = False
            continue
        result = json.loads(lines[-1])
        summary_line["correct"] &= result["correct"]
        summary_line["attempted"] += result["attempted"]
        summary_line["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            summary_line["metrics"][f"{name}:{metric}"] = m
    print(json.dumps(summary_line))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*bw.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(HERE / "out"), help="directory for records")
    args = parser.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: nsckit sources not found at {PACKAGE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(PACKAGE.parent))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
