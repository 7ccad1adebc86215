"""Experiment harness and command-line interface."""

import json

import numpy as np
import pytest

from superres.circle import hausdorff, separation
from superres.cli import main
from superres.experiments import (
    ConfigError,
    ExperimentConfig,
    gradcheck,
    run_monte_carlo,
    run_trial,
    sample_instance,
    trial_seed_for,
)
from superres.spectral import SpikeTrain, save_spectrum_csv, spike_fourier

TAU_EXAMPLE = np.array([0.2995, 0.3663, 0.4332, 0.5000, 0.5668, 0.6337, 0.7005])
ALPHA_EXAMPLE = np.array([10.0, -1.0, 1.0, -3.0, 2.0, -5.0, 2.0])

EASY = ExperimentConfig(k=5, sep_min=0.08, trials=5, nu_grid=(0.0,))


class TestConfig:
    def test_overfull_circle_rejected(self):
        with pytest.raises(ValueError, match="fit"):
            ExperimentConfig(k=30, sep_min=0.05)

    def test_trials_floor(self):
        with pytest.raises(ValueError, match="trials"):
            ExperimentConfig(trials=0)

    @pytest.mark.parametrize("field,value", [("k", 0), ("oversample", 2)])
    def test_out_of_range_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            ExperimentConfig(**{field: value})


class TestSampling:
    def test_separation_enforced(self):
        cfg = ExperimentConfig(k=14, sep_min=0.04)
        for seed in range(5):
            x = sample_instance(cfg, seed)
            assert separation(x.positions) >= cfg.sep_min
            assert len(x) == 14

    def test_deterministic(self):
        a = sample_instance(EASY, 123)
        b = sample_instance(EASY, 123)
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.amplitudes, b.amplitudes)

    def test_fixed_amplitudes(self):
        cfg = ExperimentConfig(k=3, sep_min=0.1, amp_law=[1.0, -2.0, 3.0])
        x = sample_instance(cfg, 0)
        assert np.array_equal(x.amplitudes, [1.0, -2.0, 3.0])

    def test_fixed_amplitudes_length_checked(self):
        cfg = ExperimentConfig(k=3, sep_min=0.1, amp_law=[1.0])
        with pytest.raises(ValueError, match="length"):
            sample_instance(cfg, 0)

    def test_unknown_law(self):
        cfg = ExperimentConfig(amp_law="cauchy")
        with pytest.raises(ValueError, match="amplitude law"):
            sample_instance(cfg, 0)

    def test_trial_seeds_distinct(self):
        cfg = ExperimentConfig()
        seeds = {
            trial_seed_for(cfg, i, j) for i in range(3) for j in range(10)
        }
        assert len(seeds) == 30


class TestRunTrial:
    def test_noiseless_exact_recovery(self):
        record = run_trial(EASY, trial_seed_for(EASY, 0, 0), 0.0)
        assert record.status == "converged"
        assert record.hausdorff_err < 1e-9
        assert record.k_tilde == 5

    def test_record_error_consistent_with_positions(self):
        record = run_trial(EASY, trial_seed_for(EASY, 0, 1), 0.0)
        assert record.hausdorff_err == pytest.approx(
            hausdorff(record.tau_estimate, record.tau_true)
        )

    def test_noisy_trial_reports_finite_error(self):
        record = run_trial(EASY, trial_seed_for(EASY, 0, 0), 0.05)
        assert 0.0 <= record.hausdorff_err <= 0.5
        assert record.runtime_ms > 0


class TestMonteCarlo:
    @staticmethod
    def _strip_runtime(path):
        # every column except the wall-clock one must be byte-identical
        return [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]

    def test_deterministic_csv(self, tmp_path):
        cfg = ExperimentConfig(k=5, sep_min=0.08, trials=3, nu_grid=(0.0, 0.1))
        run_monte_carlo(cfg, out_dir=tmp_path / "a")
        run_monte_carlo(cfg, out_dir=tmp_path / "b")
        a = self._strip_runtime(tmp_path / "a" / "trials.csv")
        b = self._strip_runtime(tmp_path / "b" / "trials.csv")
        assert a == b
        assert (tmp_path / "a" / "summary.csv").read_bytes() == (
            tmp_path / "b" / "summary.csv").read_bytes()

    def test_summary_and_metadata(self, tmp_path):
        cfg = ExperimentConfig(k=5, sep_min=0.08, trials=3, nu_grid=(0.0,))
        records = run_monte_carlo(cfg, out_dir=tmp_path)
        assert len(records) == 3
        summary = (tmp_path / "summary.csv").read_text().splitlines()
        assert summary[0] == "nu,median_err,mean_err,success_rate"
        assert len(summary) == 2
        meta = json.loads((tmp_path / "metadata.json").read_text())
        assert meta["config"]["k"] == 5


class TestGradcheck:
    def test_small_run_passes(self):
        report = gradcheck(n_points=6, seed=0, hess_points=3)
        assert report.passed
        assert report.max_grad_rel_err <= 1e-5
        assert report.max_hess_rel_err <= 1e-4

    def test_zero_points_rejected(self):
        with pytest.raises(ConfigError, match="n_points"):
            gradcheck(n_points=0)

    def test_gradient_only(self):
        report = gradcheck(n_points=3, seed=1, check_hessian=False)
        assert report.max_hess_rel_err == 0.0


class TestCli:
    @pytest.fixture()
    def example_csv(self, tmp_path):
        y = spike_fourier(SpikeTrain(TAU_EXAMPLE, ALPHA_EXAMPLE), 50)
        path = tmp_path / "y.csv"
        save_spectrum_csv(y, path)
        return str(path)

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["phase1"])  # missing required arguments
        assert exc.value.code == 1
        capsys.readouterr()

    def test_unknown_command_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1
        capsys.readouterr()

    def test_kernel_stdout(self, capsys):
        assert main(["kernel", "--fc", "10", "--c", "1.5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "l,ghat"
        assert len(lines) == 22

    def test_kernel_dump(self, tmp_path, capsys):
        out = tmp_path / "g.csv"
        assert main(["kernel", "--fc", "10", "--c", "1.5", "--dump", str(out)]) == 0
        assert out.read_text().startswith("l,ghat\n")
        capsys.readouterr()

    def test_kernel_bad_sigma_numerical_exit(self, capsys):
        assert main(["kernel", "--fc", "1", "--c", "2.0"]) == 2
        capsys.readouterr()

    def test_phase1_json(self, example_csv, capsys):
        assert main(["phase1", "--input", example_csv, "--fc", "50",
                     "--c1", "1.5", "--eta", "5.0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["k_tilde"] == 7
        got = np.sort(payload["tau0"])
        assert np.abs(got - TAU_EXAMPLE).max() <= 0.001

    def test_phase1_fc_mismatch(self, example_csv, capsys):
        assert main(["phase1", "--input", example_csv, "--fc", "20",
                     "--c1", "1.5"]) == 1
        capsys.readouterr()

    def test_solve_json(self, example_csv, capsys):
        assert main(["solve", "--input", example_csv, "--fc", "50",
                     "--c1", "1.5", "--eta", "5.0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "converged"
        got = np.sort(payload["positions"])
        assert np.abs(got - TAU_EXAMPLE).max() < 1e-9

    def test_solve_config_file_overrides(self, example_csv, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        # a value is converted as the option's command-line text would be
        for eta in (5.0, "5"):
            config.write_text(json.dumps({"eta": eta}))
            assert main(["solve", "--input", example_csv, "--fc", "50",
                         "--c1", "1.5", "--eta", "0.0", "--config", str(config)]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["k_tilde"] == 7

    @pytest.mark.parametrize("config,message", [
        ({"func": 0}, "keys must be options"),
        ({"fcc": 20}, "keys must be options"),
        (["eta"], "keys must be options"),
        ({"c1": None}, "c1: null is not a valid float"),
        ({"eta": "five"}, 'eta: "five" is not a valid float'),
        ({"fc": 50.5}, "fc: 50.5 is not a valid int"),
        ({"eta": [5.0]}, "eta: [5.0] is not a valid float"),
    ], ids=["internal_name", "typo", "not_an_object", "null", "non_numeric_string",
            "fractional_int", "list"])
    def test_config_file_rejects_non_options(self, example_csv, tmp_path, capsys,
                                             config, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--input", example_csv, "--fc", "50", "--c1", "1.5",
                  "--config", str(path)])
        assert exc.value.code == 1
        assert f"error: {path}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [None, '{"eta": 5,}'], ids=["missing", "malformed"])
    def test_unreadable_config_is_usage_error(self, example_csv, tmp_path, capsys, text):
        path = tmp_path / "cfg.json"
        if text is not None:
            path.write_text(text)
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--input", example_csv, "--fc", "50", "--c1", "1.5",
                  "--config", str(path)])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["phase1", "solve"])
    @pytest.mark.parametrize("text", [
        None,
        "l,re,im\n0,1,x\n",
        "l,re\n0,1\n",
        pytest.param("l,re,im\n", marks=pytest.mark.filterwarnings("ignore:loadtxt")),
    ], ids=["missing", "non_numeric", "two_columns", "no_rows"])
    def test_unreadable_input_is_usage_error(self, tmp_path, capsys, command, text):
        path = tmp_path / "y.csv"
        if text is not None:
            path.write_text(text)
        assert main([command, "--input", str(path), "--fc", "50", "--c1", "1.5"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["mc", "--oversample", "2"],
        ["mc", "--k", "0"],
        ["mc", "--trials", "0"],
        ["mc", "--k", "30", "--sep-min", "0.05"],
        ["gradcheck", "--n-points", "0"],
    ], ids=["oversample", "k", "trials", "overfull", "n_points"])
    def test_out_of_range_setting_is_usage_error(self, argv, capsys):
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_mc_gate(self, tmp_path, capsys):
        base = ["mc", "--fc", "50", "--c1", "1.5", "--c2", "2.25", "--k", "5",
                "--sep-min", "0.08", "--nu", "0.0", "--trials", "3",
                "--out", str(tmp_path / "mc")]
        assert main(base + ["--min-success-rate", "0.5"]) == 0
        capsys.readouterr()
        assert main(base + ["--min-success-rate", "1.1"]) == 3
        capsys.readouterr()
        assert (tmp_path / "mc" / "trials.csv").exists()

    def test_gradcheck_exit(self, capsys):
        assert main(["gradcheck", "--n-points", "3"]) == 0
        out = capsys.readouterr().out
        assert "gradient relative error" in out
