"""Tests of the benchmark's tracer and of its result hashes."""

import json
import types
from pathlib import Path

import pytest

import bench_workloads as bw
from bench_trace import Tracer

BENCH = Path(__file__).resolve().parent.parent


def _module(name, **attrs):
    mod = types.ModuleType(name)
    mod.__dict__.update(attrs)
    return mod


def test_self_time_excludes_nested_spans():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 7.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    mod = _module("m", inner=lambda: None)
    mod.outer = lambda: (mod.inner(), mod.inner())
    tracer.wrap(mod, "inner", "layer.inner")
    tracer.wrap(mod, "outer", "layer.outer")
    tracer.timed = True
    mod.outer()
    # outer spans 0..10 and holds inner spans 1..3 and 4..7
    assert tracer.self_s == {"layer.outer": 5.0, "layer.inner": 5.0}
    assert tracer.counts == {"layer.outer.calls": 1, "layer.inner.calls": 2}


def test_untimed_wrappers_count_but_record_no_time():
    mod = _module("m", f=lambda x: x + 1)
    with Tracer() as tracer:
        tracer.wrap(mod, "f", "layer.f", after=lambda t, a, kw, out: t.captured["f"].append(out))
        assert mod.f(1) == 2
    assert tracer.counts["layer.f.calls"] == 1
    assert tracer.captured["f"] == [2]
    assert not tracer.self_s


def test_one_function_bound_in_two_callers_reports_under_one_span():
    def f(x):
        return 2 * x

    a, b = _module("a", f=f), _module("b", f=f)
    with Tracer() as tracer:
        tracer.wrap(a, "f", "layer.f", label=lambda args, kw: "even" if args[0] % 2 == 0 else "odd")
        tracer.wrap(b, "f", "layer.f", label=lambda args, kw: "even" if args[0] % 2 == 0 else "odd")
        tracer.timed = True
        assert (a.f(2), b.f(3), b.f(4)) == (4, 6, 8)
    assert tracer.counts["layer.f.calls"] == 3
    assert set(tracer.self_s) == {"layer.f.even", "layer.f.odd"}
    assert a.f is f and b.f is f


def test_nsckit_fit_statistics_traced_in_tuning_and_bench_then_restored():
    nsc = bw.import_nsckit()
    original = nsc.model.fit_statistics
    spec = nsc.bench.SynthSpec(p=30, n_classes=2, informative=5, shift=1.0,
                               n_per_class=(6, 6), noise_sd=1.0, seed=1)
    train, test = nsc.bench.generate_synthetic(spec)
    with Tracer() as tracer:
        bw.instrument(tracer, nsc)
        assert nsc.bench.fit_statistics is not original
        assert nsc.tuning.fit_statistics is not original
        tracer.timed = True
        nsc.bench.run_experiment(train, test, "sth", runs=1, folds=3)
    # one full fit in run_experiment, one in cross_validate, one per fold
    assert tracer.counts["model.fit_statistics.calls"] == 5
    assert tracer.self_s["model.fit_statistics"] > 0
    assert tracer.self_s["bench.run_experiment"] > 0
    for name in ("fit_statistics", "predict", "shrink", "cross_validate"):
        assert getattr(nsc.bench, name) is getattr(nsc.tuning, name)
    assert nsc.bench.fit_statistics is original
    assert nsc.model.apply_rule is nsc.thresholds.apply_rule
    assert nsc.srd.srd.__module__ == "nsckit.srd" and not hasattr(nsc.srd.srd, "__wrapped__")


def test_restore_after_a_call_raises():
    def boom():
        raise ValueError("boom")

    mod = _module("m", boom=boom)
    with pytest.raises(ValueError):
        with Tracer() as tracer:
            tracer.wrap(mod, "boom", "layer.boom")
            tracer.timed = True
            mod.boom()
    assert mod.boom is boom
    assert tracer.counts["layer.boom.calls"] == 1 and not tracer._open


TINY = {
    "model": bw.ModelWorkload(p=40, n_classes=3, informative=6, shift=1.0, n_per_class=8,
                              methods=("sth2", "oth2", "hth"), keys_per_input=2,
                              from_csv=True, setup_repeats=1, tag=9),
    "srd": bw.SrdWorkload(sizes=(("exact", 6), ("normal", 15)), keys_per_input=2,
                          n_test=20, setup_repeats=1, tag=9),
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_and_untraced_passes_give_identical_hashes_and_counts(name, tmp_path):
    workload = TINY[name]
    nsc = bw.import_nsckit()
    state = workload.setup(nsc, 0, tmp_path)
    with Tracer() as tracer:
        bw.instrument(tracer, nsc)
        runs = [bw.run_pass(workload, nsc, tracer, state, workload.keys(0), traced)
                for traced in (False, True, False)]
    assert [p.failures for p in runs] == [[], [], []]
    seen = [[(key, op.name, op.digest, op.counts) for key, op in p.ops] for p in runs]
    assert seen[0] == seen[1] == seen[2]
    assert len(seen[0]) == 2 * len(workload.op_names)
    assert not runs[0].self_s and runs[1].self_s


def test_reference_covers_every_input_key_and_operation():
    reference = json.loads((BENCH / "reference.json").read_text())
    assert reference["pool"] == bw.POOL and reference["held_out"] == bw.HELD_OUT
    for name, workload in bw.WORKLOADS.items():
        by_input = reference["digests"][name]
        assert sorted(by_input, key=int) == [str(i) for i in range(bw.POOL)]
        for index, by_key in by_input.items():
            assert sorted(by_key, key=int) == [str(k) for k in workload.keys(int(index))]
            assert all(sorted(ops) == sorted(workload.op_names) for ops in by_key.values())
