import numpy as np
import pytest

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
        assert lines[0].startswith("iteration\tthreshold")
        chosen_flags = [ln.split("\t")[4] for ln in lines[1:]]
        assert "1" in chosen_flags

    def test_tune_grid_only(self, synth_dir, capsys):
        code, out, _ = run(
            capsys, "tune", "--data", str(synth_dir / "train.csv"),
            "--label-col", "label", "--method", "order", "--m", "10",
            "--folds", "5", "--seed", "1", "--deep-search", "off",
        )
        assert code == 0 and out.startswith("selected rule: order:")


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
        for value, want in (("0", lower), ("off", lower), ("1", higher), ("Yes", higher)):
            monkeypatch.setenv("SC_HIGHER_IS_BETTER", value)
            code, out, _ = self.srd(capsys, table_csv)
            assert code == 0 and out == want

    def test_lower_is_better_sets_the_direction(self, capsys, table_csv, monkeypatch):
        _, lower, _ = self.srd(capsys, table_csv)
        _, higher, _ = self.srd(capsys, table_csv, "--higher-is-better")
        assert self.srd(capsys, table_csv, "--lower-is-better")[1] == lower
        monkeypatch.setenv("SC_LOWER_IS_BETTER", "false")
        assert self.srd(capsys, table_csv)[1] == higher

    def test_both_directions_rejected(self, capsys, table_csv, monkeypatch):
        code, _, err = self.srd(capsys, table_csv, "--lower-is-better", "--higher-is-better")
        assert code == 1 and err.startswith("error:")
        monkeypatch.setenv("SC_HIGHER_IS_BETTER", "1")
        code, _, err = self.srd(capsys, table_csv, "--lower-is-better")
        assert code == 1 and err.startswith("error:")

    def test_loo_from_env_and_config(self, capsys, table_csv, tmp_path, monkeypatch):
        loo = tmp_path / "loo.tsv"
        args = ("--out", str(tmp_path / "r.tsv"), "--dist-out", str(tmp_path / "d.tsv"),
                "--loo-out", str(loo))
        monkeypatch.setenv("SC_LOO", "0")
        assert self.srd(capsys, table_csv, *args)[0] == 0 and not loo.exists()
        monkeypatch.delenv("SC_LOO")
        cfg = tmp_path / "nsckit.cfg"
        cfg.write_text("loo=on\n")
        assert self.srd(capsys, table_csv, *args, "--config", str(cfg))[0] == 0
        assert loo.exists()

    def test_bad_boolean_value_is_one(self, capsys, table_csv, monkeypatch):
        monkeypatch.setenv("SC_LOO", "maybe")
        code, _, err = self.srd(capsys, table_csv)
        assert code == 1 and err.startswith("error:") and "loo" in err

    def test_deep_search_off_from_env(self, synth_dir, tmp_path, capsys, monkeypatch):
        trace = tmp_path / "trace.tsv"
        args = ("tune", "--data", str(synth_dir / "train.csv"), "--label-col", "label",
                "--method", "soft", "--m", "6", "--folds", "3", "--trace", str(trace))
        monkeypatch.setenv("SC_DEEP_SEARCH", "0")
        assert run(capsys, *args)[0] == 0 and not trace.exists()
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
