import contextlib
import io
import os
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nsckit import (
    Dataset, SynthSpec, ThresholdRule, bench, fit_statistics, generate_synthetic, load_matrix,
    save_matrix, save_model, shrink,
)
from nsckit.cli import main

import table3


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def synth_dir(tmp_path, capsys):
    out = tmp_path / "synth"
    code, _, _ = run(
        capsys, "synth", "--p", "40", "--q", "6", "--k", "2",
        "--shift", "2.5", "--n-per-class", "15", "--noise-sd", "1.0",
        "--seed", "42", "--out", str(out),
    )
    assert code == 0
    return out


class TestSynth:
    def test_writes_train_and_test(self, synth_dir):
        assert (synth_dir / "train.csv").exists()
        assert (synth_dir / "test.csv").exists()
        header = (synth_dir / "train.csv").read_text().splitlines()[0]
        assert header.split(",")[0] == "label"

    def test_deterministic_files(self, tmp_path, capsys, synth_dir):
        again = tmp_path / "again"
        code, _, _ = run(
            capsys, "synth", "--p", "40", "--q", "6", "--k", "2",
            "--shift", "2.5", "--n-per-class", "15", "--noise-sd", "1.0",
            "--seed", "42", "--out", str(again),
        )
        assert code == 0
        assert (again / "train.csv").read_bytes() == (synth_dir / "train.csv").read_bytes()


class TestTrainPredict:
    def test_round_trip(self, synth_dir, tmp_path, capsys):
        model = tmp_path / "model.txt"
        code, out, _ = run(
            capsys, "train", "--data", str(synth_dir / "train.csv"),
            "--label-col", "label", "--rule", "soft:0.5", "--out", str(model),
        )
        assert code == 0 and "model written" in out
        # strip the label column from the test matrix for prediction
        lines = (synth_dir / "test.csv").read_text().splitlines()
        bare = tmp_path / "bare.csv"
        truth = [ln.split(",", 1)[0] for ln in lines[1:]]
        bare.write_text(
            "\n".join(ln.split(",", 1)[1] for ln in lines) + "\n"
        )
        pred = tmp_path / "pred.txt"
        code, _, _ = run(
            capsys, "predict", "--model", str(model), "--data", str(bare),
            "--out", str(pred),
        )
        assert code == 0
        got = pred.read_text().split()
        assert len(got) == len(truth)
        # the synthetic classes are well separated at shift 2.5
        agreement = np.mean([g == t for g, t in zip(got, truth)])
        assert agreement >= 0.9

    def test_byte_order_mark_is_ignored(self, tmp_path, capsys):
        # spreadsheet "CSV UTF-8" exports start with the bytes EF BB BF
        train = tmp_path / "train.csv"
        train.write_bytes(b"\xef\xbb\xbflabel,a,b\nx,0,1\nx,1,0\ny,5,4\ny,4,5\n")
        model = tmp_path / "model.txt"
        code, _, err = run(capsys, "train", "--data", str(train), "--label-col", "label",
                           "--out", str(model))
        assert code == 0 and err == ""
        assert "features=a,b" in model.read_text()
        bare = tmp_path / "bare.csv"
        bare.write_bytes(b"\xef\xbb\xbfb,a\n1,0\n4,5\n")
        pred = tmp_path / "pred.txt"
        code, _, err = run(capsys, "predict", "--model", str(model), "--data", str(bare),
                           "--out", str(pred))
        assert code == 0 and err == ""
        assert pred.read_text().split() == ["x", "y"]


class TestCvAndTune:
    def test_cv_table_shape(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "cv.tsv"
        code, _, _ = run(
            capsys, "cv", "--data", str(synth_dir / "train.csv"),
            "--label-col", "label", "--method", "soft", "--m", "10",
            "--folds", "5", "--seed", "1", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "threshold\tcv_error_count\tsurvivor_count"
        assert len(lines) == 11

    def test_tune_deep_writes_trace(self, synth_dir, tmp_path, capsys):
        trace = tmp_path / "trace.tsv"
        code, out, _ = run(
            capsys, "tune", "--data", str(synth_dir / "train.csv"),
            "--label-col", "label", "--method", "soft", "--m", "10",
            "--folds", "5", "--seed", "1", "--trace", str(trace),
        )
        assert code == 0 and out.startswith("selected rule: soft:")
        lines = trace.read_text().splitlines()
        assert lines[0].split("\t") == [
            "iteration", "threshold", "cv_error_count", "survivor_count", "chosen",
            "runner_up", "switch_taken", "interval", "stop_reason",
        ]
        chosen_flags = [ln.split("\t")[4] for ln in lines[1:]]
        assert "1" in chosen_flags
        # the first seven columns keep their places; interval flags the two
        # grid points each iteration refines between, and stop_reason is on
        # the rows of the last iteration only
        ds = load_matrix(synth_dir / "train.csv", label_col="label")
        want = bench.tune(ds, fit_statistics(ds), "soft", True, 1, m=10, folds=5)
        last = len(want.iterations) - 1
        assert [ln.split("\t") for ln in lines[1:]] == [
            [str(v) for v in (
                n, pt.rule.param, pt.cv_error_count, pt.survivor_count, int(i == it.chosen),
                int(i == it.runner_up), int(it.switched and i == it.runner_up),
                int(i in (it.interval or ())), want.stop_reason if n == last else "",
            )]
            for n, it in enumerate(want.iterations) for i, pt in enumerate(it.curve.points)
        ]
        assert len(want.iterations) > 1 and want.stop_reason

    def test_tune_grid_only(self, synth_dir, capsys):
        code, out, _ = run(
            capsys, "tune", "--data", str(synth_dir / "train.csv"),
            "--label-col", "label", "--method", "order", "--m", "10",
            "--folds", "5", "--seed", "1", "--deep-search", "off",
        )
        assert code == 0 and out.startswith("selected rule: order:")

    @pytest.mark.parametrize("kind", ["soft", "hard", "order"])
    def test_plain_trace_is_the_cv_curve(self, synth_dir, tmp_path, capsys, kind):
        args = ("--data", str(synth_dir / "train.csv"), "--label-col", "label",
                "--method", kind, "--m", "10", "--folds", "5", "--seed", "1")
        cv, trace = tmp_path / "cv.tsv", tmp_path / "trace.tsv"
        assert run(capsys, "cv", *args, "--out", str(cv))[0] == 0
        code, out, _ = run(capsys, "tune", *args, "--deep-search", "off",
                           "--trace", str(trace))
        assert code == 0
        rows = [ln.split("\t") for ln in trace.read_text().splitlines()[1:]]
        assert {row[0] for row in rows} == {"0"}
        assert [row[1:4] for row in rows] == [
            ln.split("\t") for ln in cv.read_text().splitlines()[1:]
        ]
        # one chosen row, no runner-up, switch or interval, and it is the
        # printed rule; the one grid stops as grid-only
        chosen = [row for row in rows if row[4] == "1"]
        assert len(chosen) == 1 and all(row[5:] == ["0", "0", "0", "grid-only"] for row in rows)
        assert out == f"selected rule: {kind}:{chosen[0][1]}\n"


    def test_library_defaults_apply(self, tmp_path, capsys):
        # unequal classes, so that the prior mode matters as well
        path = tmp_path / "train.csv"
        save_matrix(generate_synthetic(SynthSpec(40, 2, 6, 1.5, (12, 18), 1.0, 3))[0], path)
        ds = load_matrix(path, label_col="label")
        full = fit_statistics(ds)
        args = ("--data", str(path), "--label-col", "label", "--method", "hard")
        cv = tmp_path / "cv.tsv"
        assert run(capsys, "cv", *args, "--out", str(cv))[0] == 0
        curve = bench.tune(ds, full, "hard", False, 0).iterations[0].curve
        assert cv.read_text().splitlines()[1:] == [
            f"{pt.rule.param}\t{pt.cv_error_count}\t{pt.survivor_count}" for pt in curve.points
        ]
        code, out, _ = run(capsys, "tune", *args)
        assert code == 0
        assert out == f"selected rule: {bench.tune(ds, full, 'hard', True, 0).final_rule}\n"


class TestBench:
    def test_pipeline_and_byte_identical_repeats(self, synth_dir, tmp_path, capsys):
        args = (
            "bench", "--train", str(synth_dir / "train.csv"),
            "--test", str(synth_dir / "test.csv"), "--label-col", "label",
            "--method", "sth", "--runs", "3", "--m", "8", "--folds", "5",
            "--seed", "0",
        )
        out1, out2 = tmp_path / "b1.tsv", tmp_path / "b2.tsv"
        assert run(capsys, *args, "--out", str(out1))[0] == 0
        assert run(capsys, *args, "--out", str(out2))[0] == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().splitlines()
        assert lines[0].split("\t")[0] == "method"
        assert sum(ln.startswith("# ") for ln in lines) == 3

    @pytest.mark.parametrize("runs", ["1", "0", "-2"])
    def test_too_few_runs_fail_before_any_work(self, synth_dir, capsys, monkeypatch, runs):
        import nsckit.cli as cli

        calls = []
        monkeypatch.setattr(cli.bench_mod, "run_experiment", lambda *a, **k: calls.append(a))
        monkeypatch.setattr(cli, "load_matrix", lambda *a, **k: calls.append(a))
        code, _, err = run(
            capsys, "bench", "--train", str(synth_dir / "train.csv"),
            "--test", str(synth_dir / "test.csv"), "--method", "sth", "--runs", runs,
        )
        assert code == 1 and calls == []
        assert err.splitlines() == [f"error: --runs must be at least 2 to aggregate, got {runs}"]

    @pytest.mark.parametrize("option", ["--seed", "--big-gap"])
    def test_negative_value_fails_before_any_file_is_read(self, tmp_path, capsys, option):
        missing = str(tmp_path / "missing.csv")
        code, _, err = run(capsys, "bench", "--train", missing, "--test", missing,
                           "--method", "sth", option, "-1")
        assert err == f"error: {option} '-1': must be non-negative\n" and code == 1

    def test_unset_runs_and_seed_take_the_library_defaults(self, synth_dir, capsys,
                                                          monkeypatch):
        import nsckit.cli as cli

        passed = []
        record = bench.RunRecord("sth", 0, ThresholdRule("soft", 0.0), 0.0, 1)

        def fake(*args, **kwargs):
            passed.append(kwargs)
            return [record, record]

        monkeypatch.setattr(cli.bench_mod, "run_experiment", fake)
        args = ("bench", "--train", str(synth_dir / "train.csv"),
                "--test", str(synth_dir / "test.csv"), "--method", "sth")
        assert run(capsys, *args)[0] == 0
        assert run(capsys, *args, "--runs", "7", "--seed", "3")[0] == 0
        assert passed == [{}, {"runs": 7, "base_seed": 3}]


@pytest.fixture
def table_csv(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text(table3.csv_text())
    return path


class TestSrd:
    def test_report_values(self, table_csv, capsys):
        code, out, _ = run(capsys, "srd", "--input", str(table_csv))
        assert code == 0
        lines = out.splitlines()
        rows = {ln.split("\t")[0]: ln.split("\t") for ln in lines}
        assert rows["STh"][1] == "12" and rows["OTh"][1] == "4" and rows["HTh"][1] == "8"
        assert all(rows[m][-1] == "yes" for m in ("STh", "OTh", "HTh"))
        assert lines[0].startswith("method\t")
        # the null distribution table follows the results table
        assert "srd_value\tprobability" in lines

    def test_loo_output(self, table_csv, tmp_path, capsys):
        loo = tmp_path / "loo.tsv"
        code, _, _ = run(
            capsys, "srd", "--input", str(table_csv), "--loo",
            "--out", str(tmp_path / "r.tsv"), "--dist-out", str(tmp_path / "d.tsv"),
            "--loo-out", str(loo),
        )
        assert code == 0
        lines = loo.read_text().splitlines()
        assert lines[0] == "method\tloo_min\tloo_mean\tloo_max"
        assert len(lines) == 4

    def test_higher_is_better_takes_the_row_maximum_as_gold(self, tmp_path, capsys):
        # no column has a tie, so the direction acts through the golden standard
        path = tmp_path / "tie-free.csv"
        path.write_text(
            "case,A,B,C\nr1,1,12,23\nr2,2,14,21\nr3,3,11,25\nr4,4,15,22\nr5,5,13,24\n"
        )
        lower, higher, gold_max = (
            run(capsys, "srd", "--input", str(path), *flags)[1]
            for flags in ((), ("--higher-is-better",), ("--higher-is-better", "--gold", "max"))
        )
        assert higher == gold_max != lower

    def test_tie_warnings_are_one_line_each(self, tmp_path, capsys):
        path = tmp_path / "tied.csv"
        path.write_text("case,A,B\nr1,1,1\nr2,1,2\nr3,2,3\nr4,3,3\n")
        want = [
            f"warning: ties detected in {name}; ranks were broken by row order but "
            "the null distribution assumes distinct ranks"
            for name in ("golden standard", "column 'A'", "column 'B'")
        ]
        code, _, err = run(capsys, "srd", "--input", str(path))
        assert code == 0 and err.splitlines() == want
        # the leave-one-out tables show the same ties again: still one line each
        code, _, err = run(capsys, "srd", "--input", str(path), "--loo")
        assert code == 0 and err.splitlines() == want

    def test_repeated_method_name_is_one_error(self, tmp_path, capsys):
        path = tmp_path / "dup.csv"
        path.write_text("case,A,A,B\nr1,1,5,9\nr2,2,4,8\nr3,3,6,7\n")
        code, out, err = run(capsys, "srd", "--input", str(path))
        assert code == 1 and out == ""
        assert err == "error: column name 'A' is repeated\n"

    def test_loo_on_two_rows_fails_before_any_output(self, tmp_path, capsys):
        path = tmp_path / "two.csv"
        path.write_text("case,A,B\nr1,1,2\nr2,3,4\n")
        outs = [tmp_path / name for name in ("r.tsv", "d.tsv", "l.tsv")]
        code, out, err = run(
            capsys, "srd", "--input", str(path), "--loo", "--out", str(outs[0]),
            "--dist-out", str(outs[1]), "--loo-out", str(outs[2]),
        )
        assert code == 1 and out == ""
        assert err == "error: leave-one-out SRD needs at least 3 rows\n"
        assert not any(p.exists() for p in outs)


class TestOptionResolution:
    def test_env_overrides_config_and_cli_overrides_env(
        self, synth_dir, tmp_path, capsys, monkeypatch
    ):
        cfg = tmp_path / "nsckit.cfg"
        cfg.write_text("m=4\nfolds=5\nseed=1\n")
        data = ("cv", "--data", str(synth_dir / "train.csv"),
                "--label-col", "label", "--method", "soft",
                "--config", str(cfg))
        out_cfg = tmp_path / "from_cfg.tsv"
        assert run(capsys, *data, "--out", str(out_cfg))[0] == 0
        assert len(out_cfg.read_text().splitlines()) == 5  # header + m=4

        monkeypatch.setenv("SC_M", "6")
        out_env = tmp_path / "from_env.tsv"
        assert run(capsys, *data, "--out", str(out_env))[0] == 0
        assert len(out_env.read_text().splitlines()) == 7

        out_cli = tmp_path / "from_cli.tsv"
        assert run(capsys, *data, "--m", "3", "--out", str(out_cli))[0] == 0
        assert len(out_cli.read_text().splitlines()) == 4


    def test_config_file_from_env_and_flag_over_env(
        self, synth_dir, tmp_path, capsys, monkeypatch
    ):
        env_cfg, flag_cfg = tmp_path / "env.cfg", tmp_path / "flag.cfg"
        env_cfg.write_text("method=soft\nm=4\nfolds=5\n")
        flag_cfg.write_text("method=soft\nm=6\nfolds=5\n")
        data = ("cv", "--data", str(synth_dir / "train.csv"), "--label-col", "label")
        monkeypatch.setenv("SC_CONFIG", str(env_cfg))
        out_env = tmp_path / "from_env.tsv"
        assert run(capsys, *data, "--out", str(out_env))[0] == 0
        assert len(out_env.read_text().splitlines()) == 5  # header + m=4

        out_flag = tmp_path / "from_flag.tsv"
        assert run(capsys, *data, "--config", str(flag_cfg), "--out", str(out_flag))[0] == 0
        assert len(out_flag.read_text().splitlines()) == 7

        monkeypatch.setenv("SC_CONFIG", str(tmp_path / "missing.cfg"))
        code, out, err = run(capsys, *data, "--out", str(out_env))
        assert code == 2 and "missing.cfg" in err


@pytest.mark.filterwarnings("ignore:ties detected")
class TestBooleanOptions:
    @pytest.fixture
    def table_csv(self, tmp_path):
        # the ties make the SRD depend on the ranking direction
        path = tmp_path / "tied.csv"
        path.write_text("case,A,B\nr1,1,1\nr2,1,2\nr3,2,3\nr4,3,3\n")
        return path

    def srd(self, capsys, table_csv, *flags):
        code, out, err = run(capsys, "srd", "--input", str(table_csv), *flags)
        return code, out.split("srd_value")[0], err

    def test_env_zero_is_false_and_one_is_true(self, capsys, table_csv, monkeypatch):
        _, lower, _ = self.srd(capsys, table_csv)
        _, higher, _ = self.srd(capsys, table_csv, "--higher-is-better")
        assert lower != higher
        for value, want in (("0", lower), ("off", lower), ("1", higher), ("Yes", higher),
                            ("on", higher)):
            monkeypatch.setenv("SC_HIGHER_IS_BETTER", value)
            code, out, _ = self.srd(capsys, table_csv)
            assert code == 0 and out == want
            monkeypatch.delenv("SC_HIGHER_IS_BETTER")
            # the same value on the command line
            assert self.srd(capsys, table_csv, "--higher-is-better", value)[:2] == (0, want)

    def test_higher_is_better_is_the_one_direction_switch(self, capsys, table_csv,
                                                          tmp_path, monkeypatch):
        _, lower, _ = self.srd(capsys, table_csv)
        _, higher, _ = self.srd(capsys, table_csv, "--higher-is-better")
        cfg = tmp_path / "nsckit.cfg"
        for value, want in (("on", higher), ("off", lower)):
            cfg.write_text(f"higher-is-better={value}\n")
            assert self.srd(capsys, table_csv, "--config", str(cfg))[:2] == (0, want)
        code, _, err = self.srd(capsys, table_csv, "--lower-is-better")
        assert code == 1 and "unrecognized arguments: --lower-is-better" in err
        # an unknown SC_ variable is not read
        monkeypatch.setenv("SC_LOWER_IS_BETTER", "false")
        assert self.srd(capsys, table_csv)[:2] == (0, lower)

    def test_loo_from_env_and_config(self, capsys, table_csv, tmp_path, monkeypatch):
        loo = tmp_path / "loo.tsv"
        args = ("--out", str(tmp_path / "r.tsv"), "--dist-out", str(tmp_path / "d.tsv"),
                "--loo-out", str(loo))
        monkeypatch.setenv("SC_LOO", "0")
        assert self.srd(capsys, table_csv, *args)[0] == 0 and not loo.exists()
        monkeypatch.delenv("SC_LOO")
        for value in ("0", "off"):
            assert self.srd(capsys, table_csv, *args, "--loo", value)[0] == 0
            assert not loo.exists()
        cfg = tmp_path / "nsckit.cfg"
        cfg.write_text("loo=on\n")
        assert self.srd(capsys, table_csv, *args, "--config", str(cfg))[0] == 0
        assert loo.exists()
        loo.unlink()
        assert self.srd(capsys, table_csv, *args, "--loo")[0] == 0 and loo.exists()

    def test_bad_boolean_value_is_one(self, capsys, table_csv, monkeypatch):
        monkeypatch.setenv("SC_LOO", "maybe")
        code, _, err = self.srd(capsys, table_csv)
        assert code == 1 and err.startswith("error:") and "loo" in err

    def test_deep_search_off_from_env(self, synth_dir, tmp_path, capsys, monkeypatch):
        trace = tmp_path / "trace.tsv"
        args = ("tune", "--data", str(synth_dir / "train.csv"), "--label-col", "label",
                "--method", "soft", "--m", "6", "--folds", "3", "--trace", str(trace))
        monkeypatch.setenv("SC_DEEP_SEARCH", "0")
        assert run(capsys, *args)[0] == 0
        # plain tuning writes its grid as iteration 0 and nothing more
        iterations = {ln.split("\t")[0] for ln in trace.read_text().splitlines()[1:]}
        assert iterations == {"0"}
        trace.unlink()
        assert run(capsys, *args, "--deep-search", "banana")[0] == 1
        assert run(capsys, *args, "--deep-search")[0] == 0 and trace.exists()


class TestExitCodes:
    def test_validation_error_is_one(self, synth_dir, capsys):
        code, _, err = run(
            capsys, "cv", "--data", str(synth_dir / "train.csv"),
            "--label-col", "label", "--method", "banana",
        )
        assert code == 1 and "error:" in err

    def test_missing_file_is_two(self, capsys):
        code, _, err = run(capsys, "srd", "--input", "/nonexistent/t.csv")
        assert code == 2 and "i/o error:" in err

    def test_bad_flag_is_one(self, capsys):
        code, _, _ = run(capsys, "cv", "--no-such-flag")
        assert code == 1

    def test_threads_flag_is_gone(self, capsys, table_csv):
        assert run(capsys, "srd", "--input", str(table_csv))[0] == 0
        assert run(capsys, "srd", "--input", str(table_csv), "--threads", "2")[0] == 1

    def test_cv_takes_no_big_gap(self, synth_dir, capsys):
        args = ("cv", "--data", str(synth_dir / "train.csv"), "--label-col", "label",
                "--method", "soft", "--m", "4", "--folds", "3")
        assert run(capsys, *args)[0] == 0
        assert run(capsys, *args, "--big-gap", "5")[0] == 1

    def test_big_gap_is_checked_with_or_without_deep_search(self, synth_dir, capsys,
                                                            monkeypatch):
        train = str(synth_dir / "train.csv")
        tune = ("tune", "--data", train, "--label-col", "label", "--method", "soft",
                "--m", "4", "--folds", "3")
        bench = ("bench", "--train", train, "--test", str(synth_dir / "test.csv"),
                 "--method", "sth", "--runs", "2", "--m", "4", "--folds", "3")
        for argv in ((*tune, "--deep-search", "off"), tune, bench):
            code, _, err = run(capsys, *argv, "--big-gap", "abc")
            assert code == 1 and one_error_line(err) and "--big-gap" in err
            code, _, err = run(capsys, *argv, "--big-gap", "-1")
            assert err == "error: --big-gap '-1': must be non-negative\n" and code == 1
        # cv never reads it
        monkeypatch.setenv("SC_BIG_GAP", "abc")
        assert run(capsys, "cv", *tune[1:])[0] == 0

    def test_bench_reads_rows_are_samples_files_only(self, synth_dir, capsys):
        code, _, err = run(
            capsys, "bench", "--train", str(synth_dir / "train.csv"),
            "--test", str(synth_dir / "test.csv"), "--method", "sth", "--samples-in", "cols",
        )
        assert code == 1 and "unrecognized arguments: --samples-in" in err


class TestPredictInput:
    @pytest.fixture
    def model(self, synth_dir, tmp_path, capsys):
        path = tmp_path / "model.txt"
        code, _, _ = run(
            capsys, "train", "--data", str(synth_dir / "train.csv"),
            "--label-col", "label", "--rule", "soft:0.5", "--out", str(path),
        )
        assert code == 0
        return path

    @pytest.fixture
    def rows(self, synth_dir):
        """The test matrix without its label column, as rows of cells."""
        lines = (synth_dir / "test.csv").read_text().splitlines()
        return [ln.split(",")[1:] for ln in lines]

    def predict(self, capsys, model, tmp_path, rows, *flags):
        data = tmp_path / "in.csv"
        data.write_text("\n".join(",".join(r) for r in rows) + "\n")
        return run(capsys, "predict", "--model", str(model), "--data", str(data), *flags)

    def test_columns_are_aligned_by_name(self, capsys, model, tmp_path, rows):
        code, want, _ = self.predict(capsys, model, tmp_path, rows)
        assert code == 0 and len(set(want.split())) == 2
        reversed_rows = [r[::-1] for r in rows]
        assert self.predict(capsys, model, tmp_path, reversed_rows) == (0, want, "")
        transposed = [["gene", *(f"s{j}" for j in range(len(rows) - 1))]]
        transposed += [list(col) for col in zip(*rows)]
        got = self.predict(capsys, model, tmp_path, transposed, "--samples-in", "cols")
        assert got == (0, want, "")

    def test_label_column_is_an_error(self, capsys, model, synth_dir, tmp_path):
        code, _, err = run(
            capsys, "predict", "--model", str(model),
            "--data", str(synth_dir / "test.csv"),
        )
        assert code == 1 and err.startswith("error:") and err.count("\n") == 1
        # numeric class names parse as numbers, so the name check catches them
        numeric = tmp_path / "numeric.csv"
        text = (synth_dir / "test.csv").read_text()
        numeric.write_text(text.replace("\nc1,", "\n1,").replace("\nc2,", "\n2,"))
        code, _, err = run(capsys, "predict", "--model", str(model), "--data", str(numeric))
        assert code == 1 and "'label'" in err and err.count("\n") == 1

    def test_missing_and_repeated_features_are_errors(self, capsys, model, tmp_path, rows):
        code, _, err = self.predict(capsys, model, tmp_path, [r[1:] for r in rows])
        assert code == 1 and f"{rows[0][0]!r}" in err
        repeated = [r[:-1] + [r[0]] for r in rows]
        code, _, err = self.predict(capsys, model, tmp_path, repeated)
        assert code == 1 and "1 repeated" in err

    def test_model_without_names_checks_width(self, capsys, tmp_path, rows, rng):
        p = len(rows[0])
        ds = Dataset.from_arrays(rng.normal(size=(p, 6)), ["a", "b"] * 3)
        path = tmp_path / "unnamed.txt"
        save_model(shrink(fit_statistics(ds), ThresholdRule("soft", 0.0)), path)
        assert "features=" not in path.read_text()
        assert self.predict(capsys, path, tmp_path, rows)[0] == 0
        code, _, err = self.predict(capsys, path, tmp_path, [r[1:] for r in rows])
        assert code == 1 and "expects" in err

    def test_orientation_is_checked(self, capsys, model, tmp_path, rows, monkeypatch):
        monkeypatch.setenv("SC_SAMPLES_IN", "foo")
        code, _, err = self.predict(capsys, model, tmp_path, rows)
        assert code == 1 and err == "error: unknown orientation 'foo'\n"


def one_error_line(err):
    return err.count("\n") == 1 and err.startswith("error: ")


class TestOneLineErrors:
    @pytest.mark.parametrize("text", ["f0,f1\n1,NA\n", "", "\n \n", "f0,f1\n"])
    def test_bad_predict_file(self, capsys, synth_dir, tmp_path, text):
        model = tmp_path / "model.txt"
        run(capsys, "train", "--data", str(synth_dir / "train.csv"),
            "--label-col", "label", "--out", str(model))
        data = tmp_path / "x.csv"
        data.write_text(text)
        code, _, err = run(capsys, "predict", "--model", str(model), "--data", str(data))
        assert code == 1 and one_error_line(err)

    @pytest.mark.parametrize("text", ["case,A,B\nr1,1,x\nr2,2,3\n", "case,A\nr1,1,2\n"])
    def test_bad_srd_file(self, capsys, tmp_path, text):
        data = tmp_path / "t.csv"
        data.write_text(text)
        code, _, err = run(capsys, "srd", "--input", str(data))
        assert code == 1 and one_error_line(err)

    @pytest.mark.parametrize("flag", ["--input", "--config"])
    def test_not_utf8(self, capsys, tmp_path, flag):
        data = tmp_path / "t.csv"
        data.write_bytes(b"case,A\n\xff\xfe,1\n")
        code, _, err = run(capsys, "srd", "--input", str(data), flag, str(data))
        assert code == 1 and one_error_line(err) and "UTF-8" in err

    def test_bad_option_values(self, capsys, synth_dir, monkeypatch):
        args = ("cv", "--data", str(synth_dir / "train.csv"), "--label-col", "label",
                "--method", "soft")
        code, _, err = run(capsys, *args, "--s0", "abc")
        assert code == 1 and one_error_line(err) and "--s0" in err
        code, _, err = run(capsys, "synth", "--n-per-class", "3,x")
        assert code == 1 and one_error_line(err) and "--n-per-class" in err
        monkeypatch.setenv("SC_M", "abc")
        code, _, err = run(capsys, *args)
        assert code == 1 and one_error_line(err) and "--m" in err
        monkeypatch.setenv("SC_SAMPLES_IN", "foo")
        code, _, err = run(capsys, *args, "--m", "4")
        assert code == 1 and err == "error: unknown orientation 'foo'\n"

    @pytest.mark.parametrize("source", ["flag", "env", "config"])
    @pytest.mark.parametrize("command", ["cv", "tune", "bench", "synth"])
    def test_negative_seed(self, capsys, synth_dir, tmp_path, monkeypatch, command, source):
        train, test = str(synth_dir / "train.csv"), str(synth_dir / "test.csv")
        tuning = ("--m", "4", "--folds", "3")
        argv = {
            "cv": ("cv", "--data", train, "--label-col", "label", "--method", "soft", *tuning),
            "tune": ("tune", "--data", train, "--label-col", "label", "--method", "soft",
                     *tuning),
            "bench": ("bench", "--train", train, "--test", test, "--method", "sth",
                      "--runs", "2", *tuning),
            "synth": ("synth", "--p", "10", "--q", "2", "--out", str(tmp_path / "s")),
        }[command]
        if source == "flag":
            argv += ("--seed", "-1")
        elif source == "env":
            monkeypatch.setenv("SC_SEED", "-1")
        else:
            cfg = tmp_path / "nsckit.cfg"
            cfg.write_text("seed=-1\n")
            argv += ("--config", str(cfg))
        code, _, err = run(capsys, *argv)
        assert err == "error: --seed '-1': must be non-negative\n" and code == 1

    def test_overflow(self, capsys, tmp_path):
        data = tmp_path / "huge.csv"
        data.write_text("label,f0\na,1e308\na,-1e308\nb,1\nb,2\n")
        code, _, err = run(capsys, "train", "--data", str(data), "--label-col", "label",
                           "--out", str(tmp_path / "m.txt"))
        assert code == 1 and one_error_line(err) and "floating-point" in err
        assert not (tmp_path / "m.txt").exists()

    def test_value_beyond_float_range(self, capsys, tmp_path):
        data = tmp_path / "huge.csv"
        data.write_text("label,f0\na,1e500\na,1\nb,1\nb,2\n")
        code, _, err = run(capsys, "train", "--data", str(data), "--label-col", "label",
                           "--out", str(tmp_path / "m.txt"))
        assert code == 1 and err == "error: non-finite value '1e500' at row 1, column 1\n"

    @pytest.mark.parametrize("argv,missing", [
        (("train", "--label-col", "label", "--out", "m.txt"), "--data"),
        (("train", "--data", "TRAIN", "--label-col", "label"), "--out"),
        (("predict", "--data", "TRAIN"), "--model"),
        (("predict", "--model", "m.txt"), "--data"),
        (("srd",), "--input"),
        (("bench", "--test", "TRAIN", "--method", "sth"), "--train"),
        (("bench", "--train", "TRAIN", "--method", "sth"), "--test"),
        (("bench", "--train", "TRAIN", "--test", "TRAIN"), "--method"),
        (("cv", "--data", "TRAIN", "--label-col", "label"), "--method"),
        (("tune", "--data", "TRAIN", "--label-col", "label"), "--method"),
    ])
    def test_missing_required_option(self, capsys, synth_dir, argv, missing):
        argv = [str(synth_dir / "train.csv") if a == "TRAIN" else a for a in argv]
        code, _, err = run(capsys, *argv)
        assert code == 1 and err == f"error: {missing} is required\n"


# Besides raw bytes, the fuzz input draws from text that gets past decoding:
# lines of tokens, numeric tables with and without a label column, config
# assignments and model-file fields, so that the parsers, the option casts,
# fitting, prediction and SRD all see odd but well-formed input.
TOKENS = [
    "label", "f0", "f1", "f2", "c1", "c2", "0", "1", "-2.5", "1e308", "-1e308",
    "nan", "inf", "NA", "", " ", "\u00e9", "\t", "m=3", "s0=abc", "median",
    "cols", "foo", "uniform", "classic", "order:2", "order:-1", "soft:1e308",
    "hard:nan", "order:99999999999999999999", "nsckit-model 1", "p=2", "p=-1",
    "K=1", "K=2", "classes=c1", "classes=c1,c1", "features=f0", "features=f0,f0",
    "features=f1,f0", "rule=order:1e300", "rule=soft:-1", "s0=nan", "s0=-1",
    "t_stats 1 2", "t_stats 1e308 -1e308 0 0", "pooled_sd 0 0", "pooled_sd nan 1",
    "priors 0 1", "priors 1 1", "m 0 0", "m 0.5",
]
CONFIG_KEYS = ["m", "s0", "rule", "samples-in", "priors", "mk", "label-col",
               "labels", "out", "seed", "folds", "data"]
numbers = st.one_of(st.floats().map(repr), st.integers(-3, 3).map(str))
cells = st.one_of(st.sampled_from(TOKENS), numbers)


def _lines(rows, delim=","):
    return "\n".join(delim.join(r) for r in rows).encode()


token_lines = st.tuples(
    st.lists(st.lists(cells, min_size=1, max_size=4), max_size=8),
    st.sampled_from([",", "\t", "="]),
).map(lambda t: _lines(*t))
numeric_tables = st.integers(1, 3).flatmap(lambda w: st.tuples(
    st.booleans(),
    st.lists(st.sampled_from(["label", "f0", "f1", "f2", "case"]), min_size=w, max_size=w),
    st.lists(st.tuples(st.sampled_from(["c1", "c2", "c3"]),
                       st.lists(numbers, min_size=w, max_size=w)), max_size=8),
)).map(lambda t: _lines(
    [(["label"] if t[0] else []) + t[1]]
    + [([lab] if t[0] else []) + row for lab, row in t[2]]
))
config_lines = st.lists(
    st.tuples(st.sampled_from(CONFIG_KEYS), cells), max_size=4
).map(lambda kv: _lines(kv, "="))
vectors = st.lists(numbers, max_size=5).map(lambda v: " ".join(v).encode())
fuzz_bytes = st.one_of(
    st.binary(max_size=200), token_lines, numeric_tables, config_lines, vectors
)


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """A valid train file, the same samples without labels, and a model."""
    root = tmp_path_factory.mktemp("fuzz")
    train = root / "train.csv"
    train.write_text("label,f0,f1\nc1,0,1\nc1,1,0\nc1,0,0\nc2,5,4\nc2,4,5\nc2,5,5\n")
    bare = root / "bare.csv"
    bare.write_text("f1,f0\n1,0\n4,5\n")
    model = root / "model.txt"
    assert main(["train", "--data", str(train), "--label-col", "label",
                 "--out", str(model)]) == 0
    return root, train, bare, model


@settings(max_examples=300, deadline=None)
@given(
    target=st.sampled_from(["predict", "train", "srd", "config", "cv-config", "model"]),
    blob=fuzz_bytes,
    edits=st.lists(st.tuples(st.integers(0, 12), st.integers(0, 9), cells), max_size=3),
)
@example(target="cv-config", blob=b"seed=-1", edits=[])
def test_cli_fuzz_fails_with_one_error_line(fuzz_inputs, target, blob, edits):
    root, train, bare, model = fuzz_inputs
    fuzz = root / "fuzz.bin"
    if target == "model" and edits:
        # edit a valid model file instead: each edit puts a cell in place of
        # one name or number of one line
        lines = model.read_bytes().splitlines()
        for line, item, text in edits:
            parts = re.split(rb"([ =,])", lines[line])
            parts[2 * (item % ((len(parts) + 1) // 2))] = text.encode()
            lines[line] = b"".join(parts)
        blob = b"\n".join(lines)
    fuzz.write_bytes(blob)
    out = str(root / "out.txt")
    argv = {
        "predict": ["predict", "--model", str(model), "--data", str(fuzz)],
        "train": ["train", "--data", str(fuzz), "--label-col", "label", "--out", out],
        "srd": ["srd", "--input", str(fuzz)],
        "config": ["train", "--data", str(train), "--label-col", "label",
                   "--out", out, "--config", str(fuzz)],
        # cv reads the tuning options train never reads: seed, folds and m
        "cv-config": ["cv", "--data", str(train), "--label-col", "label", "--method", "soft",
                      "--out", out, "--config", str(fuzz)],
        "model": ["predict", "--model", str(fuzz), "--data", str(bare)],
    }[target]
    err = io.StringIO()
    cwd = os.getcwd()
    os.chdir(root)  # a config may name relative output paths
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    assert code in (0, 1, 2)
    # valid input may also warn, one "warning:" line per warning
    lines = [ln for ln in err.getvalue().splitlines() if not ln.startswith("warning: ")]
    assert len(lines) <= 1, lines
    assert not lines or lines[0].startswith(("error:", "i/o error:")), lines
