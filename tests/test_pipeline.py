"""Experiment harness and command-line interface."""

import hashlib
import json

import numpy as np
import pytest

import superres.cli
from superres.circle import hausdorff, separation
from superres.cli import main
from superres.experiments import (
    SCREEN_BINS,
    ConfigError,
    ExperimentConfig,
    _bin_screen,
    _rejection_sample_positions,
    gradcheck,
    run_monte_carlo,
    run_trial,
    sample_instance,
    trial_seed_for,
)
from superres.refine import SolveReport
from superres.spectral import SpikeTrain, save_spectrum_csv, spike_fourier

TAU_EXAMPLE = np.array([0.2995, 0.3663, 0.4332, 0.5000, 0.5668, 0.6337, 0.7005])
ALPHA_EXAMPLE = np.array([10.0, -1.0, 1.0, -3.0, 2.0, -5.0, 2.0])

EASY = ExperimentConfig(k=5, sep_min=0.08, trials=5, nu_grid=(0.0,))

SIGMA1 = 1.5 / 101  # phase-1 kernel width at f_c = 50, c1 = 1.5
# 0.003 and 0.01 leave points beyond the 52 weighted bins; 4 sigma1 is gradcheck's
SAMPLER_SEP = (0.0, 0.003, 0.01, 0.04, 4.0 * SIGMA1)
# 14 points at 4 sigma1 clear once in about 1e10 draws: tested as infeasible below
SAMPLER_CASES = [(k, sep) for k in (1, 2, 3, 7, 14) for sep in SAMPLER_SEP
                 if (k, sep) != (14, 4.0 * SIGMA1)]
SAMPLER_SEEDS_PER_CASE = 20  # 480 seeds over the 24 cases


def exactly_separated(rows, sep_min):
    """The sampler's exact test: every wraparound gap of the row is >= sep_min."""
    srt = np.sort(rows, axis=1)
    gaps = np.diff(srt, axis=1, append=srt[:, :1] + 1.0)
    return gaps.min(axis=1) >= sep_min


def sort_based_sample_positions(rng, k, sep_min, batch=4096, max_batches=2000):
    """The sampler without the bin screen: every candidate row gets the exact test."""
    if k < 2:
        return rng.random(k)
    for _ in range(max_batches):
        cand = rng.random((batch, k))
        ok = np.flatnonzero(exactly_separated(cand, sep_min))
        if ok.size:
            return cand[ok[0]]
    raise RuntimeError("separation infeasible")


def _up(x):
    return np.nextafter(x, np.inf)


def _down(x):
    return np.nextafter(x, -np.inf)


def _next_at_least(prev, sep):
    """The smallest float x with fl(x - prev) >= sep."""
    x = prev + sep
    while x - prev < sep:
        x = _up(x)
    while _down(x) - prev >= sep:
        x = _down(x)
    return x


def _wrap_last(first, sep):
    """The largest float x with fl(fl(first + 1) - x) >= sep."""
    x = (first + 1.0) - sep
    while (first + 1.0) - x < sep:
        x = _down(x)
    while (first + 1.0) - _up(x) >= sep:
        x = _up(x)
    return x


def _crafted_rows(k, sep):
    """Rows at the exact test's acceptance edge, in random column order.

    Chains of k points whose consecutive gaps are the smallest that pass
    (fl(gap) >= sep), started on and around the screen's bin edges b * w for
    bin widths w within a few 1e-9 of sep; and rows whose wrap gap
    (srt[0] + 1) - srt[-1] is the smallest that passes, with k - 2 chained
    points between.
    """
    starts = set()
    for b in range(SCREEN_BINS + 2):
        for margin in (-2e-9, -1e-9, 0.0, 1e-9, 2e-9):
            edge = b * sep * (1.0 + margin)
            starts |= {_down(edge), edge, _up(edge)}
    starts = sorted(x for x in starts if 0.0 <= x < 1.0 - k * sep)
    rows = []
    for start in starts:
        chain = [start]
        for _ in range(k - 1):
            chain.append(_next_at_least(chain[-1], sep))
        rows.append(chain)
        last = _wrap_last(start, sep)
        if last < 1.0:
            rows.append(chain[:-1] + [last])
    rows = np.array(rows)
    return np.random.default_rng(k).permuted(rows, axis=1)


class TestConfig:
    def test_overfull_circle_rejected(self):
        with pytest.raises(ValueError, match="fit"):
            ExperimentConfig(k=30, sep_min=0.05)

    def test_trials_floor(self):
        with pytest.raises(ValueError, match="trials"):
            ExperimentConfig(trials=0)

    @pytest.mark.parametrize("field,value", [("k", 0), ("oversample", 2), ("sep_min", -0.5)])
    def test_out_of_range_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            ExperimentConfig(**{field: value})

    def test_negative_noise_level_rejected(self):
        with pytest.raises(ConfigError, match="nu must be >= 0"):
            ExperimentConfig(nu_grid=(0.0, -0.1))


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

    def test_zero_separation_accepts_first_draw(self):
        cfg = ExperimentConfig(k=14, sep_min=0.0)
        rng = np.random.Generator(np.random.Philox(7))
        assert np.array_equal(sample_instance(cfg, 7).positions, rng.random((4096, 14))[0])

    @pytest.mark.parametrize("seed,digest", [
        (0, "51a6e2b8101f2118545bb04cd8d03bb0b5bf015ebfa736776574207925fbecaf"),
        (1, "9a9a00668183383015245ec7975c15c47924047b09b6a4be6740d49ca9969bb4"),
        (2, "25b5776473b9281c8b7abffb3e7cdfe8e4ce85fe0fa0090375d7c6355cfa0e26"),
    ])
    def test_instances_pinned(self, seed, digest):
        # sha256 of positions and amplitudes as drawn by the sort-based sampler
        x = sample_instance(ExperimentConfig(), seed)
        assert hashlib.sha256(x.positions.tobytes() + x.amplitudes.tobytes()).hexdigest() == digest

    def test_trial_seeds_distinct(self):
        cfg = ExperimentConfig()
        seeds = {
            trial_seed_for(cfg, i, j) for i in range(3) for j in range(10)
        }
        assert len(seeds) == 30


class TestRejectionSampler:
    @pytest.mark.parametrize("k,sep", SAMPLER_CASES, ids=lambda v: f"{v:.4g}")
    def test_matches_sort_based_sampler(self, k, sep):
        for i in range(SAMPLER_SEEDS_PER_CASE):
            seed = 1000 * k + 100 * SAMPLER_SEP.index(sep) + i
            a = np.random.Generator(np.random.Philox(seed))
            b = np.random.Generator(np.random.Philox(seed))
            got = _rejection_sample_positions(a, k, sep)
            assert np.array_equal(got, sort_based_sample_positions(b, k, sep))
            assert np.array_equal(a.random(2), b.random(2))

    @pytest.mark.parametrize("sep", SAMPLER_SEP[1:], ids=lambda v: f"{v:.4g}")
    @pytest.mark.parametrize("k", (2, 3, 7, 14))
    def test_screen_keeps_every_separated_row(self, k, sep):
        rows = _crafted_rows(k, sep)
        assert exactly_separated(rows, sep).all()
        assert _bin_screen(rows.shape, sep)(rows).tolist() == list(range(len(rows)))

    def test_screen_is_necessary_not_sufficient(self):
        # two points 0.5 * sep apart: beyond the weighted bins the screen passes
        # the row; in weighted bin 33 it drops it
        rows = np.array([[0.1, 0.9, 0.9015], [0.1, 0.1005, 0.5]])
        assert _bin_screen(rows.shape, 0.003)(rows).tolist() == [0]
        assert not exactly_separated(rows, 0.003).any()

    def test_infeasible_separation_is_value_error(self):
        a = np.random.Generator(np.random.Philox(3))
        b = np.random.Generator(np.random.Philox(3))
        with pytest.raises(ValueError, match=r"k=14.*sep_min=0\.0594.*1 batches"):
            _rejection_sample_positions(a, 14, 4.0 * SIGMA1, max_batches=1)
        with pytest.raises(RuntimeError):
            sort_based_sample_positions(b, 14, 4.0 * SIGMA1, max_batches=1)
        assert np.array_equal(a.random(2), b.random(2))


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
        assert 0.0 < record.sample_ms <= record.runtime_ms


class TestMonteCarlo:
    @staticmethod
    def _strip_runtime(path):
        # every column except the two wall-clock ones must be byte-identical
        return [line.rsplit(",", 2)[0] for line in path.read_text().splitlines()]

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
        trials = (tmp_path / "trials.csv").read_text().splitlines()
        assert trials[0] == "nu,seed,err,status,runtime_ms,sample_ms"
        summary = (tmp_path / "summary.csv").read_text().splitlines()
        assert summary[0] == "nu,median_err,mean_err,success_rate"
        assert len(summary) == 2
        meta = json.loads((tmp_path / "metadata.json").read_text())
        assert meta["config"]["k"] == 5


class TestGradcheck:
    def test_small_run_passes(self):
        report = gradcheck(n_points=6, seed=0)
        assert report.passed
        assert report.max_grad_rel_err <= 1e-5
        assert report.max_hess_rel_err <= 1e-4

    def test_zero_points_rejected(self):
        with pytest.raises(ConfigError, match="n_points"):
            gradcheck(n_points=0)


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
        assert capsys.readouterr().out == ""
        assert main(["kernel", "--fc", "10", "--c", "1.5"]) == 0
        assert out.read_text() == capsys.readouterr().out

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

    @pytest.mark.parametrize("status,code", [
        ("converged", 0), ("stalled", 2), ("max_iter", 2), ("hessian_not_pd", 2),
    ])
    def test_solve_exit_code_follows_status(self, example_csv, monkeypatch, capsys,
                                            status, code):
        def fixed_status(tau0, *args):
            return SolveReport(tau_tilde=tau0, beta=np.zeros(tau0.size),
                               f_trace=np.array([0.0]), grad_norm_final=0.0,
                               status=status, iterations=1)

        monkeypatch.setattr(superres.cli, "run_newton", fixed_status)
        assert main(["solve", "--input", example_csv, "--fc", "50", "--c1", "1.5"]) == code
        assert json.loads(capsys.readouterr().out)["status"] == status

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
        ["mc", "--nu", "0.0", "-0.1"],
        ["mc", "--sep-min", "-0.5"],
        ["gradcheck", "--n-points", "0"],
    ], ids=["oversample", "k", "trials", "overfull", "nu", "sep_min", "n_points"])
    def test_out_of_range_setting_is_usage_error(self, argv, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv,message", [
        (["phase1", "--oversample", "2"], "oversample must be >= 4"),
        (["solve", "--eta", "-1"], "eta must be >= 0"),
    ], ids=["phase1_oversample", "solve_eta"])
    def test_out_of_range_peak_setting_is_usage_error(self, example_csv, capsys, argv,
                                                      message):
        assert main(argv + ["--input", example_csv, "--fc", "50", "--c1", "1.5"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_mc_gate(self, tmp_path, capsys):
        base = ["mc", "--fc", "50", "--c1", "1.5", "--c2", "2.25", "--k", "5",
                "--sep-min", "0.08", "--nu", "0.0", "--trials", "3",
                "--out", str(tmp_path / "mc")]
        assert main(base + ["--min-success-rate", "0.5"]) == 0
        capsys.readouterr()
        assert main(base + ["--min-success-rate", "1.1"]) == 3
        capsys.readouterr()
        assert (tmp_path / "mc" / "trials.csv").exists()

    def test_mc_infeasible_separation_is_numerical_error(self, capsys):
        # three points at 0.33333 fit, but a uniform draw clears that about once in 1e10
        assert main(["mc", "--k", "3", "--sep-min", "0.33333", "--nu", "0.0",
                     "--trials", "1"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: separation infeasible: ")
        assert "k=3" in err and "sep_min=0.33333" in err and "2000 batches" in err

    def test_gradcheck_exit(self, capsys):
        assert main(["gradcheck", "--n-points", "3"]) == 0
        out = capsys.readouterr().out
        assert "gradient relative error" in out
