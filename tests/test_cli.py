"""Command-line surface: every subcommand, config-file mirroring, exit
codes, and output determinism."""

import json
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from click.testing import CliRunner

from fhawkes import ModelParams, simulate_thinning
from fhawkes.cli import cli, main
from fhawkes.io import (
    read_curves_csv,
    read_dist_csv,
    read_events_csv,
    write_events_csv,
)

MODEL = ["--lambda0", "1.0", "--alpha", "0.1", "--beta", "0.5", "--gamma", "0.8"]


@pytest.fixture
def runner():
    return CliRunner()


def _exit_code(monkeypatch, capsys, *args):
    """Exit code and stderr of ``fhawkes ARGS`` run in-process through
    ``main``, for a command that is expected to fail."""
    monkeypatch.setattr(sys, "argv", ["fhawkes", *args])
    with pytest.raises(SystemExit) as exc:
        main()
    return exc.value.code, capsys.readouterr().err


class TestCountFlags:
    def test_negative_grid_is_usage_error(self, monkeypatch, capsys, tmp_path):
        code, err = _exit_code(
            monkeypatch, capsys, "lambda", *MODEL, "--grid", "-5",
            "--out", str(tmp_path / "lam.csv"),
        )
        assert code == 1
        assert "--grid" in err

    def test_negative_replicas_is_usage_error(self, monkeypatch, capsys, tmp_path):
        code, err = _exit_code(
            monkeypatch, capsys, "simulate", *MODEL, "--replicas", "-3",
            "--out", str(tmp_path / "ev.csv"),
        )
        assert code == 1
        assert "--replicas" in err
        assert not (tmp_path / "ev.csv").exists()

    def test_one_replica_has_no_standard_error(self, monkeypatch, capsys, tmp_path):
        code, err = _exit_code(
            monkeypatch, capsys, "expected-n", *MODEL, "--method", "mc",
            "--replicas", "1", "--out", str(tmp_path / "en.csv"),
        )
        assert code == 2
        assert "numerical failure" in err and "2 replicas" in err


class TestLambdaCmd:
    def test_exact_curve(self, runner, tmp_path):
        out = tmp_path / "lam.csv"
        res = runner.invoke(
            cli, ["lambda", *MODEL, "--t-max", "5", "--grid", "20", "--out", str(out)]
        )
        assert res.exit_code == 0, res.output
        table = read_curves_csv(out)
        assert table["t"].size == 20
        assert np.all(np.isfinite(table["exact"]))
        assert np.all(np.isnan(table["ilt"]))

    def test_both_methods_agree(self, runner, tmp_path):
        out = tmp_path / "lam.csv"
        res = runner.invoke(
            cli,
            ["lambda", *MODEL, "--t-max", "5", "--grid", "25", "--method", "both",
             "--out", str(out)],
        )
        assert res.exit_code == 0, res.output
        table = read_curves_csv(out)
        np.testing.assert_allclose(table["ilt"], table["exact"], rtol=1e-4)

    @pytest.mark.parametrize("method", ["ilt", "both"])
    def test_ilt_reports_node_doubling_estimate(self, runner, tmp_path, method):
        out = tmp_path / "lam.csv"
        res = runner.invoke(
            cli, ["lambda", *MODEL, "--method", method, "--out", str(out)]
        )
        assert res.exit_code == 0, res.output
        found = re.search(r"\(max ilt estimate/\|ilt\| = (\S+)\)", res.output)
        assert found, res.output
        assert 0.0 <= float(found.group(1)) < 1e-6

    @pytest.mark.parametrize("message, line", [
        ("Unable to allocate 20.0 GiB\nfor an array", "Unable to allocate 20.0 GiB"),
        ("", "allocation failed"),
    ])
    def test_allocation_failure_is_numerical_failure(
        self, monkeypatch, capsys, tmp_path, message, line
    ):
        # a stand-in command: the test must not allocate for real
        def exhausted(t, p):
            raise MemoryError(message)

        monkeypatch.setattr("fhawkes.cli.lambda_exact", exhausted)
        code, err = _exit_code(
            monkeypatch, capsys, "lambda", *MODEL, "--out", str(tmp_path / "lam.csv"),
        )
        assert code == 2
        assert err == f"numerical failure: out of memory: {line}\n"
        assert not (tmp_path / "lam.csv").exists()


class TestExpectedNCmd:
    def test_exact(self, runner, tmp_path):
        out = tmp_path / "en.csv"
        res = runner.invoke(
            cli, ["expected-n", *MODEL, "--t-max", "10", "--grid", "5",
                  "--out", str(out)]
        )
        assert res.exit_code == 0, res.output
        assert read_curves_csv(out)["exact"].size == 5

    def test_monte_carlo(self, runner, tmp_path):
        out = tmp_path / "en.csv"
        res = runner.invoke(
            cli,
            ["expected-n", *MODEL, "--t-max", "10", "--grid", "5", "--method", "mc",
             "--replicas", "300", "--seed", "5", "--out", str(out)],
        )
        assert res.exit_code == 0, res.output
        table = read_curves_csv(out)
        dev = np.abs(table["mc_mean"] - table["exact"]) / table["mc_se"]
        assert np.max(dev) < 5.0

    def test_zero_standard_error_is_not_a_deviation(self, monkeypatch, capsys,
                                                    tmp_path):
        # by t = 1e-6 no replica has an event, so every standard error is 0
        out = tmp_path / "en.csv"
        monkeypatch.setattr(sys, "argv", [
            "fhawkes", "expected-n", "--lambda0", "1", "--alpha", "0.1",
            "--beta", "0.5", "--gamma", "1", "--t-max", "1e-6", "--grid", "2",
            "--method", "mc", "--replicas", "20", "--out", str(out),
        ])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            main()
        assert "(max |mc-exact|/se = n/a)" in capsys.readouterr().out
        assert np.all(read_curves_csv(out)["mc_se"] == 0.0)

    def test_all_methods(self, runner, tmp_path):
        out = tmp_path / "en.csv"
        res = runner.invoke(
            cli,
            ["expected-n", *MODEL, "--t-max", "6", "--grid", "3", "--method", "all",
             "--replicas", "200", "--seed", "5", "--out", str(out)],
        )
        assert res.exit_code == 0, res.output
        table = read_curves_csv(out)
        np.testing.assert_allclose(table["ilt"], table["exact"], atol=5e-3)

    def test_ilt_method(self, runner, tmp_path):
        out = tmp_path / "en.csv"
        res = runner.invoke(
            cli,
            ["expected-n", *MODEL, "--t-max", "6", "--grid", "3",
             "--method", "ilt", "--out", str(out)],
        )
        assert res.exit_code == 0, res.output
        table = read_curves_csv(out)
        np.testing.assert_allclose(table["ilt"], table["exact"], atol=5e-3)
        assert np.all(np.isnan(table["mc_mean"]))


class TestSimulateCmd:
    def test_events_written(self, runner, tmp_path):
        out = tmp_path / "ev.csv"
        res = runner.invoke(
            cli,
            ["simulate", *MODEL, "--horizon", "10", "--replicas", "3",
             "--seed", "7", "--out", str(out)],
        )
        assert res.exit_code == 0, res.output
        events = read_events_csv(out)
        assert set(events) <= {0, 1, 2}
        for epochs in events.values():
            assert np.all(np.diff(epochs) > 0)

    def test_engines_deterministic(self, runner, tmp_path):
        files = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            res = runner.invoke(
                cli,
                ["simulate", *MODEL, "--horizon", "10", "--replicas", "2",
                 "--seed", "9", "--engine", "cluster", "--out", str(out)],
            )
            assert res.exit_code == 0, res.output
            files.append(out.read_text())
        assert files[0] == files[1]

    def test_replicas_are_the_one_path_draws(self, runner, tmp_path):
        # 33 replicas run in lockstep; each path is the one simulate_thinning
        # draws for its replica
        out = tmp_path / "ev.csv"
        res = runner.invoke(
            cli,
            ["simulate", *MODEL, "--horizon", "10", "--replicas", "33",
             "--seed", "9", "--out", str(out)],
        )
        assert res.exit_code == 0, res.output
        p = ModelParams(1.0, 0.1, 0.5, 0.8)
        ref = tmp_path / "ref.csv"
        write_events_csv(ref, [simulate_thinning(p, 10.0, 9, r) for r in range(33)])
        assert out.read_bytes() == ref.read_bytes()

    def test_infinite_horizon_is_numerical_failure(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "fhawkes.cli", "simulate", *MODEL,
             "--horizon", "inf", "--out", str(tmp_path / "ev.csv")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert "numerical failure" in proc.stderr

    def test_negative_seed_is_numerical_failure(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "fhawkes.cli", "simulate", *MODEL,
             "--horizon", "10", "--seed", "-1", "--out", str(tmp_path / "ev.csv")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert "numerical failure" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_huge_poisson_mean_is_numerical_failure(self, monkeypatch, capsys,
                                                    tmp_path):
        code, err = _exit_code(
            monkeypatch, capsys, "simulate", "--lambda0", "1e19", "--alpha",
            "0.1", "--beta", "0.5", "--gamma", "0.8", "--engine", "cluster",
            "--out", str(tmp_path / "ev.csv"),
        )
        assert code == 2
        assert "numerical failure" in err and "Poisson mean" in err


class TestDistCmd:
    def test_poisson_compare(self, runner, tmp_path):
        out = tmp_path / "dist.csv"
        res = runner.invoke(
            cli,
            ["dist", "--lambda0", "1.0", "--alpha", "0.01", "--beta", "0.5",
             "--gamma", "1.0", "--t", "1,5", "--replicas", "400", "--seed", "3",
             "--compare", "poisson", "--out", str(out)],
        )
        assert res.exit_code == 0, res.output
        assert "TV vs poisson" in res.output
        rows = read_dist_csv(out)
        assert {r[0] for r in rows} == {1.0, 5.0}

    def test_exp_hawkes_compare(self, runner, tmp_path):
        out = tmp_path / "dist.csv"
        res = runner.invoke(
            cli,
            ["dist", "--lambda0", "1.0", "--alpha", "0.1", "--beta", "0.99",
             "--gamma", "1.0", "--t", "5", "--replicas", "400", "--seed", "4",
             "--compare", "exp-hawkes", "--out", str(out)],
        )
        assert res.exit_code == 0, res.output
        assert "TV vs exp_hawkes_empirical" in res.output

    @pytest.mark.parametrize("times", ["-1", "-1,2"])
    def test_negative_time_is_numerical_failure(self, monkeypatch, capsys,
                                                tmp_path, times):
        out = tmp_path / "dist.csv"
        code, err = _exit_code(monkeypatch, capsys, "dist", *MODEL, f"--t={times}",
                               "--replicas", "10", "--out", str(out))
        assert code == 2
        assert "numerical failure" in err
        assert not out.exists()

    def test_bad_times_usage_error(self, runner, tmp_path):
        res = runner.invoke(
            cli,
            ["dist", *MODEL, "--t", "1,zebra", "--out", str(tmp_path / "x.csv")],
        )
        assert res.exit_code != 0


class TestConfigFile:
    def test_config_supplies_model(self, runner, tmp_path):
        cfgfile = tmp_path / "model.json"
        cfgfile.write_text(
            json.dumps({"lambda0": 1.0, "alpha": 0.1, "beta": 0.5, "gamma": 0.8})
        )
        out = tmp_path / "lam.csv"
        res = runner.invoke(
            cli,
            ["lambda", "--config", str(cfgfile), "--t-max", "2", "--grid", "4",
             "--out", str(out)],
        )
        assert res.exit_code == 0, res.output

    def test_flags_override_config(self, runner, tmp_path):
        cfgfile = tmp_path / "model.json"
        cfgfile.write_text(
            json.dumps({"lambda0": 1.0, "alpha": 0.1, "beta": 0.5, "gamma": 0.8})
        )
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        runner.invoke(
            cli, ["lambda", "--config", str(cfgfile), "--t-max", "2", "--grid", "4",
                  "--out", str(out1)]
        )
        runner.invoke(
            cli, ["lambda", "--config", str(cfgfile), "--alpha", "0.5",
                  "--t-max", "2", "--grid", "4", "--out", str(out2)]
        )
        a = read_curves_csv(out1)["exact"]
        b = read_curves_csv(out2)["exact"]
        assert np.all(b > a)  # stronger excitation raises the curve

    @pytest.mark.parametrize(
        "text,message",
        [
            ("[1.0, 0.1, 0.5, 0.8]", "JSON object"),
            ('{"lambda0": 1, "alpha": "strong", "beta": 0.5, "gamma": 0.8}',
             "alpha must be a number"),
            ('{"lambda0": 1, "alpha": ', "cannot parse"),
            ('{"lambda0": true, "alpha": 0.1, "beta": 0.5, "gamma": 1}',
             "lambda0 must be a number, got True"),
            ('{"lambda0": 1, "alpha": 0.1, "beta": 0.5, "gamma": 1, "lamda0": 5}',
             "unknown keys: lamda0"),
        ],
        ids=["array", "non-numeric", "unparsable", "boolean", "unknown-key"],
    )
    def test_malformed_config_is_usage_error(self, monkeypatch, capsys, tmp_path,
                                             text, message):
        cfgfile = tmp_path / "model.json"
        cfgfile.write_text(text)
        code, err = _exit_code(
            monkeypatch, capsys, "lambda", "--config", str(cfgfile),
            "--out", str(tmp_path / "lam.csv"),
        )
        assert code == 1
        assert err.startswith("usage error: ") and message in err
        assert "Traceback" not in err
        assert not (tmp_path / "lam.csv").exists()

    def test_missing_model_is_usage_error(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "fhawkes.cli", "lambda", "--out",
             str(tmp_path / "x.csv")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert "missing model parameters" in proc.stderr


class TestValidateCmd:
    def test_smoke_run_passes_and_writes_report(self, tmp_path):
        out = tmp_path / "report.json"
        proc = subprocess.run(
            [sys.executable, "-m", "fhawkes.cli", "validate", "--smoke",
             "--out", str(out)],
            capture_output=True,
            text=True,
            timeout=1200,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        report = json.loads(out.read_text())
        assert report["mode"] == "smoke"
        assert report["all_passed"] is True
        assert len(report["criteria"]) == 12

    def test_numerical_failure_exit_code(self, tmp_path):
        # beta outside (0, 1] is a domain failure -> exit 2
        proc = subprocess.run(
            [sys.executable, "-m", "fhawkes.cli", "lambda", "--lambda0", "1",
             "--alpha", "0.1", "--beta", "1.5", "--gamma", "1",
             "--out", str(tmp_path / "x.csv")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert "numerical failure" in proc.stderr

    def test_negative_seed_is_numerical_failure(self, monkeypatch, capsys):
        code, err = _exit_code(
            monkeypatch, capsys, "validate", "--smoke", "--seed", "-100"
        )
        assert code == 2
        assert "numerical failure" in err and "seed" in err

    def test_criteria_failure_exit_code(self, runner, monkeypatch):
        import fhawkes.cli as climod

        def fake(smoke, seed):
            return {
                "mode": "smoke",
                "criteria": [
                    {"name": "x", "passed": False, "measured": 1.0,
                     "bound": 0.5, "seconds": 0.0}
                ],
                "all_passed": False,
            }

        monkeypatch.setattr(climod, "run_validation", fake)
        res = runner.invoke(cli, ["validate", "--smoke"])
        assert res.exit_code == 3
        assert "FAIL" in res.output

    def test_failed_rules_are_printed(self, runner, monkeypatch):
        import fhawkes.cli as climod

        def fake(smoke, seed):
            return {
                "mode": "smoke",
                "criteria": [
                    {"name": "x", "passed": False, "measured": 1e-13,
                     "bound": 1e-10, "seconds": 0.0,
                     "details": {"failed": ["at_zero", "exponential"]}}
                ],
                "all_passed": False,
            }

        monkeypatch.setattr(climod, "run_validation", fake)
        res = runner.invoke(cli, ["validate", "--smoke"])
        assert res.exit_code == 3
        assert "[FAIL] x:" in res.output
        assert res.output.rstrip().endswith("; failed: at_zero, exponential")
