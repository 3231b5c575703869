"""Command-line surface: subcommands, CSV schemas, and exit codes."""

import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from kqreg.cli import main
from kqreg.kernels import spec_to_dict, Gaussian, Additive, BlockLayout
from kqreg.solver import DataSet, Model


def run_cli(*argv):
    return main(list(argv))


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestRates:
    def test_alpha_prints_value_and_active_term(self, capsys):
        assert run_cli("rates", "alpha", "--r", "0.5", "--beta", "1",
                       "--theta", "1", "--zeta", "1") == 0
        out = capsys.readouterr().out
        assert "alpha = 0.333 (term 3)" in out

    def test_alpha_rejects_bad_params(self, capsys):
        assert run_cli("rates", "alpha", "--r", "0.9", "--beta", "1",
                       "--theta", "1", "--zeta", "1") == 2

    def test_table2_schema_and_content(self, tmp_path):
        out = tmp_path / "t2.csv"
        assert run_cli("rates", "table", "--which", "2", "--out", str(out)) == 0
        rows = read_csv(out)
        assert rows[0] == ["r", "theta", "zeta", "alpha"]
        assert len(rows) == 28
        assert rows[1] == ["0.5", "1", "0.1", "0.500"]
        assert rows[2] == ["0.5", "1", "1", "0.333"]

    def test_table1_schema(self, tmp_path):
        out = tmp_path / "t1.csv"
        assert run_cli("rates", "table", "--which", "1", "--out", str(out)) == 0
        rows = read_csv(out)
        assert rows[0] == ["theta", "zeta", "r", "kind", "alpha"]
        kinds = {r[3] for r in rows[1:]}
        assert kinds == {"positive", "value", "zero"}

    def test_curve_schema(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert run_cli("rates", "curve", "--r", "0.5", "--theta", "0.5",
                       "--zeta", "1", "--alpha-smooth", "1", "--d-max", "5",
                       "--out", str(out)) == 0
        rows = read_csv(out)
        assert rows[0] == ["d", "ours", "theirs"]
        assert len(rows) == 6
        assert rows[1][0] == "1"


class TestFitPredict:
    @pytest.fixture()
    def artifacts(self, tmp_path):
        rng = np.random.default_rng(0)
        X = rng.random((25, 2))
        y = np.sin(2 * np.pi * X[:, 0]) + rng.uniform(-0.2, 0.2, 25)
        data_path = tmp_path / "train.csv"
        DataSet(inputs=X, responses=y).to_csv(data_path)
        kernel_path = tmp_path / "kernel.json"
        spec = Additive(BlockLayout([1, 1]), [Gaussian(1.0), Gaussian(1.0)])
        kernel_path.write_text(json.dumps(spec_to_dict(spec)))
        return data_path, kernel_path, tmp_path

    def test_fit_then_predict(self, artifacts):
        data_path, kernel_path, tmp = artifacts
        model_path = tmp / "model.json"
        assert run_cli("fit", "--data", str(data_path), "--kernel", str(kernel_path),
                       "--lambda", "0.05", "--tau", "0.5", "--out", str(model_path)) == 0
        blob = json.loads(model_path.read_text())
        assert set(blob) == {"kernel", "support", "alpha", "dual", "lambda", "tau", "gap"}
        pred_path = tmp / "preds.csv"
        assert run_cli("predict", "--model", str(model_path), "--data", str(data_path),
                       "--out", str(pred_path)) == 0
        rows = read_csv(pred_path)
        assert rows[0] == ["prediction"]
        assert len(rows) == 26

    @pytest.fixture()
    def model3(self, tmp_path):
        rng = np.random.default_rng(1)
        X = rng.random((15, 3))
        data_path = tmp_path / "train3.csv"
        DataSet(inputs=X, responses=X.sum(axis=1)).to_csv(data_path)
        kernel_path = tmp_path / "kernel3.json"
        kernel_path.write_text(json.dumps(spec_to_dict(Gaussian(1.0))))
        model_path = tmp_path / "model3.json"
        assert run_cli("fit", "--data", str(data_path), "--kernel", str(kernel_path),
                       "--lambda", "0.1", "--tau", "0.5", "--out", str(model_path)) == 0
        return model_path, rng.random((4, 3)), tmp_path

    def test_predict_reads_inputs_only(self, model3):
        model_path, X, tmp = model3
        expected = Model.load(model_path).predict(X)
        # trailing y and w columns are read past and ignored
        for header, tail in (("x1,x2,x3", ""), ("x1,x2,x3,y", ",0.0"), ("x1,x2,x3,y,w", ",0.0,0.25")):
            data_path = tmp / "inputs.csv"
            rows = [",".join(repr(float(v)) for v in x) + tail for x in X]
            data_path.write_text("\n".join([header] + rows) + "\n")
            pred_path = tmp / "preds.csv"
            assert run_cli("predict", "--model", str(model_path), "--data", str(data_path),
                           "--out", str(pred_path)) == 0, header
            got = [float(r[0]) for r in read_csv(pred_path)[1:]]
            np.testing.assert_array_equal(got, expected)

    def test_predict_bad_header_is_input_error(self, model3):
        model_path, _, tmp = model3
        for header in ("x1,x2", "x1,x2,y", "x1,x3,x2", "x1,x2,x3,w", "x1,x2,x3,x4"):
            fields = len(header.split(","))
            data_path = tmp / "inputs.csv"
            data_path.write_text(header + "\n" + ",".join(["0.5"] * fields) + "\n")
            assert run_cli("predict", "--model", str(model_path), "--data", str(data_path),
                           "--out", str(tmp / "preds.csv")) == 2, header

    def test_fit_nonconvergence_exit_code(self, artifacts):
        data_path, kernel_path, tmp = artifacts
        code = run_cli("fit", "--data", str(data_path), "--kernel", str(kernel_path),
                       "--lambda", "1e-9", "--tau", "0.5", "--max-epochs", "1",
                       "--out", str(tmp / "m.json"))
        assert code == 3

    def test_default_options_fit_acceptance_data(self, tmp_path):
        # the acceptance experiment's largest additive fit, through the CLI
        # with its default --gap-tol and --max-epochs
        from kqreg.experiments import BlockTarget, ExperimentSpec, generate

        lay = BlockLayout([1, 1, 1, 1])
        spec = ExperimentSpec(
            layout=lay,
            targets=tuple(BlockTarget(kind="kernel_bump", center=c, sigma=1.0)
                          for c in (0.2, 0.4, 0.6, 0.8)),
            noise_halfwidth=0.5, tau=0.5,
            kernel_a=Additive(lay, [Gaussian(1.0)] * 4), kernel_b=None,
            n_grid=(1600,), beta=4.0 / 3.0, seeds=(0,),
        )
        data_path = tmp_path / "train.csv"
        generate(spec, 1600, seed=[0, 1600, 0]).to_csv(data_path)
        kernel_path = tmp_path / "kernel.json"
        kernel_path.write_text(json.dumps(spec_to_dict(spec.kernel_a)))
        assert run_cli("fit", "--data", str(data_path), "--kernel", str(kernel_path),
                       "--lambda", repr(1600.0 ** (-4.0 / 3.0)), "--tau", "0.5",
                       "--out", str(tmp_path / "m.json")) == 0

    def test_missing_data_file_is_input_error(self, artifacts):
        _, kernel_path, tmp = artifacts
        code = run_cli("fit", "--data", str(tmp / "nope.csv"), "--kernel", str(kernel_path),
                       "--lambda", "0.1", "--tau", "0.5", "--out", str(tmp / "m.json"))
        assert code == 2

    def test_bad_kernel_json_is_input_error(self, artifacts):
        data_path, _, tmp = artifacts
        bad = tmp / "bad.json"
        bad.write_text(json.dumps({"type": "mystery"}))
        code = run_cli("fit", "--data", str(data_path), "--kernel", str(bad),
                       "--lambda", "0.1", "--tau", "0.5", "--out", str(tmp / "m.json"))
        assert code == 2


class TestVerify:
    def test_series_suite_passes(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        assert run_cli("verify", "example1", "--out", str(out)) == 0
        rows = read_csv(out)
        assert rows[0] == ["case", "lhs", "rhs", "pass"]
        assert all(r[3] == "True" for r in rows[1:])

    def test_capacity_suite_schema(self, tmp_path):
        out = tmp_path / "cap.csv"
        assert run_cli("verify", "capacity", "--out", str(out)) == 0
        rows = read_csv(out)
        assert rows[0] == ["eps", "block_id", "log_count", "bound", "pass"]

    def test_unknown_suite_rejected(self):
        with pytest.raises(SystemExit) as err:
            run_cli("verify", "everything")
        assert err.value.code == 2

    def test_failing_suite_exits_one(self, monkeypatch, tmp_path):
        import kqreg.verification as verification

        def broken(seed=0):
            return [{"case": "broken", "lhs": 1.0, "rhs": 0.0, "pass": False}], False

        monkeypatch.setitem(verification.SUITES, "example1", broken)
        assert run_cli("verify", "example1", "--out", str(tmp_path / "r.csv")) == 1


class TestExperimentCommand:
    @staticmethod
    def tiny_spec(**kw):
        from kqreg.experiments import ExperimentSpec, BlockTarget
        from kqreg.kernels import Additive, BlockLayout, Gaussian, Product

        lay = BlockLayout([1, 1])
        return ExperimentSpec(
            layout=lay,
            targets=(BlockTarget(kind="kernel_bump", center=0.3),
                     BlockTarget(kind="kernel_bump", center=0.7)),
            noise_halfwidth=0.5, tau=0.5,
            kernel_a=Additive(lay, [Gaussian(1.0), Gaussian(1.0)]),
            kernel_b=Product(lay, [Gaussian(1.0), Gaussian(1.0)]),
            n_grid=(20, 40, 80), beta=1.0, seeds=(0,), risk_eval=500, **kw,
        )

    def test_tiny_experiment(self, tmp_path):
        spec = self.tiny_spec()
        config = tmp_path / "config.json"
        config.write_text(json.dumps(spec.to_dict()))
        out_dir = tmp_path / "results"
        assert run_cli("experiment", "--config", str(config),
                       "--out-dir", str(out_dir)) == 0
        results = read_csv(out_dir / "results.csv")
        assert results[0] == ["kernel", "n", "seed", "excess", "lambda", "gap"]
        assert len(results) == 7
        summary = read_csv(out_dir / "summary.csv")
        assert summary[0] == ["kernel", "slope", "intercept", "r2"]
        assert read_csv(out_dir / "results_raw.csv")[0] == results[0]

    def test_missing_slope_keeps_finished_jobs(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(self.tiny_spec(max_epochs=1).to_dict()))
        out_dir = tmp_path / "results"
        assert run_cli("experiment", "--config", str(config),
                       "--out-dir", str(out_dir)) == 3
        results = read_csv(out_dir / "results.csv")
        assert sorted((r[0], r[1]) for r in results[1:]) == sorted(
            (k, n) for k in ("additive", "product") for n in ("20", "40", "80"))
        assert len(read_csv(out_dir / "results_raw.csv")) == 7
        assert read_csv(out_dir / "summary.csv") == [["kernel", "slope", "intercept", "r2"]]
        assert "no slope fitted" in capsys.readouterr().err


class TestShell:
    def test_console_module_and_unknown_flag(self):
        proc = subprocess.run(
            [sys.executable, "-m", "kqreg.cli", "rates", "alpha", "--r", "0.5",
             "--beta", "1", "--theta", "1", "--zeta", "1", "--bogus", "1"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert "unrecognized arguments" in proc.stderr

    def test_config_echo(self, capsys):
        run_cli("rates", "alpha", "--r", "0.5", "--beta", "1",
                "--theta", "1", "--zeta", "1")
        out = capsys.readouterr().out
        assert out.startswith("config: ")
        assert '"r": 0.5' in out.splitlines()[0]
