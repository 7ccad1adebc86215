"""Experiment harness and command-line interface."""

import hashlib
import json
import re
from dataclasses import fields, is_dataclass

import numpy as np
import pytest
from scipy import stats

import superres.refine
from superres.circle import hausdorff, separation, wrap_dist
from superres.cli import build_parser, main
from superres.experiments import (
    EXACT_RECOVERY_ERR,
    ConfigError,
    ExperimentConfig,
    cached_kernel,
    gradcheck,
    run_monte_carlo,
    run_trial,
    sample_instance,
    sample_positions,
    trial_seed_for,
)
from superres.peaks import PeakConfig, find_peaks
from superres.refine import (BoxConstraint, DegenerateDictionaryError, SolveReport,
                             run_newton, solve)
from superres.spectral import (
    Spectrum,
    SpikeTrain,
    add,
    load_spectrum_csv,
    pointwise_mul,
    save_spectrum_csv,
    spike_fourier,
    synth_noise,
)

TAU_EXAMPLE = np.array([0.2995, 0.3663, 0.4332, 0.5000, 0.5668, 0.6337, 0.7005])
ALPHA_EXAMPLE = np.array([10.0, -1.0, 1.0, -3.0, 2.0, -5.0, 2.0])

EASY = ExperimentConfig(k=5, sep_min=0.08, trials=5, nu_grid=(0.0,))
CRITERION_3 = ExperimentConfig(k=14, sep_min=0.04, trials=200, nu_grid=(0.0,))

SIGMA1 = 1.5 / 101  # phase-1 kernel width at f_c = 50, c1 = 1.5
SAMPLER_SEP = (0.0, 0.003, 0.01, 0.04, 4.0 * SIGMA1)  # 4 sigma1 is gradcheck's
# (1, 0) and (3, 0.33333) are the extremes: no gap to keep, and all but 1e-5 of the circle fixed
SEPARATED_CASES = [(k, sep) for k in (1, 2, 3, 7, 14) for sep in SAMPLER_SEP] + [
    (3, 0.33333), (14, 1.0 / 14 - 1e-9)]
# 14 points at 4 sigma1 clear once in 1e10 uniform draws: too rare for a rejection
# reference sample
KS_CASES = [(k, sep) for k in (1, 2, 3, 7, 14) for sep in SAMPLER_SEP
            if (k, sep) != (14, 4.0 * SIGMA1)] + [(3, 0.1), (7, 0.05)]
KS_DRAWS = 2000
# at 14 points and 0.04 a reference draw takes about 4e4 uniform rows, so that case
# takes 200 reference draws from 8192-row batches
RARE_CASE, RARE_DRAWS, RARE_BATCH = (14, 0.04), 200, 8192


def usage_error(argv, capsys) -> str:
    """The stderr of a main(argv) that exits 1 with nothing on stdout, without
    argparse's usage lines.

    A bad value makes main return 1; an option that the command does not take
    exits 1 from inside argparse, which prints the usage first.
    """
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 1
    out, err = capsys.readouterr()
    assert out == ""
    return re.sub(r"\Ausage: .*?\n(?! )", "", err, flags=re.S)


def assert_fields_equal(a, b, skip=(), path="record"):
    """Every field of two records, nested dataclasses and NamedTuples included, equal by
    np.array_equal, but for the field names in skip."""
    assert type(a) is type(b), path
    if is_dataclass(a) or hasattr(a, "_fields"):
        for name in (f.name for f in fields(a)) if is_dataclass(a) else a._fields:
            if name not in skip:
                assert_fields_equal(getattr(a, name), getattr(b, name), skip, f"{path}.{name}")
    else:
        assert np.array_equal(a, b), path


def same_bits(a, b) -> bool:
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


def min_gaps(rows):
    """The smallest wraparound gap of each row."""
    srt = np.sort(rows, axis=1)
    return np.diff(srt, axis=1, append=srt[:, :1] + 1.0).min(axis=1)


def sort_based_sample_positions(rng, k, sep_min, batch=64):
    """The reference law: the first of uniform draws whose every gap is >= sep_min."""
    if k < 2:
        return rng.random(k)
    while True:
        cand = rng.random((batch, k))
        ok = np.flatnonzero(min_gaps(cand) >= sep_min)
        if ok.size:
            return cand[ok[0]]


def draw_statistics(sampler, seed, k, sep, draws=KS_DRAWS):
    """Minimum gap, position 0 and the gap from position 0 to the last of the draws."""
    rng = np.random.Generator(np.random.Philox(seed))
    rows = np.array([sampler(rng, k, sep) for _ in range(draws)])
    return {"min_gap": min_gaps(rows), "position_0": rows[:, 0],
            "label_gap": np.mod(rows[:, -1] - rows[:, 0], 1.0)}


class TestConfig:
    def test_overfull_circle_rejected(self):
        with pytest.raises(ValueError, match="fit"):
            ExperimentConfig(k=30, sep_min=0.05)

    def test_trials_floor(self):
        with pytest.raises(ValueError, match="trials"):
            ExperimentConfig(trials=0)

    # c1 = 30 builds a kernel, but its sigma1 = 30 / 101 is too wide for phase 2's boxes
    @pytest.mark.parametrize("field,value", [("k", 0), ("sep_min", -0.5), ("c1", 60), ("c1", 30),
                                             ("c2", -1), ("f_c", 0), ("seed", -1)])
    def test_out_of_range_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            ExperimentConfig(**{field: value})

    def test_negative_noise_level_rejected(self):
        with pytest.raises(ConfigError, match="nu must be >= 0"):
            ExperimentConfig(nu_grid=(0.0, -0.1))

    @pytest.mark.parametrize("nu", [np.nan, np.inf, -np.inf])
    def test_non_finite_noise_level_rejected(self, nu):
        with pytest.raises(ConfigError, match="nu must be finite"):
            ExperimentConfig(nu_grid=(0.0, nu))

    def test_repeated_noise_level_rejected(self):
        with pytest.raises(ConfigError, match="nu values must differ"):
            ExperimentConfig(nu_grid=(0.0, 0.2, -0.0))


class TestSampling:
    def test_separation_enforced(self):
        cfg = ExperimentConfig(k=14, sep_min=0.04)
        for seed in range(5):
            x = sample_instance(cfg, seed)
            assert separation(x.positions) >= cfg.sep_min
            assert x.positions.size == 14

    def test_deterministic(self):
        a = sample_instance(EASY, 123)
        b = sample_instance(EASY, 123)
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.amplitudes, b.amplitudes)

    @pytest.mark.parametrize("seed,digest", [
        (0, "dff3fca6c109ad211aeea2de58e68571acdfd63b988234e9b73678ec3ffd5d32"),
        (1, "cb79b4da9cf4434aee35ba28754be3cd87e699873af4eb3434d8ada342799366"),
        (2, "cd26c485b017382a361a9c52afbe956de2ad8607e0819763e12ba21385050b57"),
    ], ids=lambda v: f"{v}"[:8])
    def test_instances_pinned(self, seed, digest):
        # sha256 of positions and amplitudes as drawn by the spacing sampler
        x = sample_instance(ExperimentConfig(), seed)
        assert hashlib.sha256(x.positions.tobytes() + x.amplitudes.tobytes()).hexdigest() == digest

    def test_trial_seeds_distinct(self):
        cfg = ExperimentConfig()
        seeds = {
            trial_seed_for(cfg, i, j) for i in range(3) for j in range(10)
        }
        assert len(seeds) == 30


class TestSpacingSampler:
    @pytest.mark.parametrize("k,sep", SEPARATED_CASES, ids=lambda v: f"{v:.4g}")
    def test_every_draw_separated(self, k, sep):
        rng = np.random.Generator(np.random.Philox(k))
        rows = np.array([sample_positions(rng, k, sep) for _ in range(500)])
        assert rows.shape == (500, k)
        assert ((rows >= 0.0) & (rows < 1.0)).all()
        assert (min_gaps(rows) >= sep).all()


class TestRejectionSampler:
    """The spacing sampler against the rejection sampler it replaced, kept as the reference law."""

    @pytest.mark.parametrize("k,sep", KS_CASES, ids=lambda v: f"{v:.4g}")
    def test_matches_sort_based_sampler(self, k, sep):
        # two-sample KS against the rejection draws; the label gap checks the shuffle
        got = draw_statistics(sample_positions, 1, k, sep)
        if (k, sep) == RARE_CASE:
            ref = draw_statistics(lambda rng, k, sep: sort_based_sample_positions(
                rng, k, sep, batch=RARE_BATCH), 2, k, sep, draws=RARE_DRAWS)
        else:
            ref = draw_statistics(sort_based_sample_positions, 2, k, sep)
        for name in got:
            assert stats.ks_2samp(got[name], ref[name]).pvalue > 1e-4, name


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

    def test_reseed_recovers_a_missed_spike(self):
        # phase 1 misses a weak spike, so Newton from its picks alone ends hessian_not_pd
        seed = trial_seed_for(CRITERION_3, 0, 5)
        y = spike_fourier(sample_instance(CRITERION_3, seed), 50)
        kernel1, kernel2 = cached_kernel(50, 1.5), cached_kernel(50, 2.25)
        tau0 = find_peaks(y, kernel1, PeakConfig(max_peaks=14)).tau0
        alone = run_newton(tau0, kernel2, pointwise_mul(y, kernel2.spectrum()),
                           BoxConstraint(tau0, kernel1.sigma))
        assert alone.status == "hessian_not_pd"
        record = run_trial(CRITERION_3, seed, 0.0)
        assert record.reseeds >= 1 and record.status == "converged"
        assert record.hausdorff_err < EXACT_RECOVERY_ERR
        assert not np.array_equal(record.tau_init, tau0)

    def test_reseed_scan_on_phase2_residual_repairs_trial_77(self):
        # Phase 1 misses a weak spike, and the c1-filtered residual's largest
        # value lies on leakage: the re-seed must scan phase 2's own residual.
        record = run_trial(CRITERION_3, trial_seed_for(CRITERION_3, 0, 77), 0.0)
        assert record.status == "converged" and record.reseeds >= 1
        assert record.hausdorff_err < EXACT_RECOVERY_ERR

    def test_tau_init_is_the_final_box_centres(self):
        # every estimate lies in the box around the tau_init entry of its index
        records = [run_trial(CRITERION_3, trial_seed_for(CRITERION_3, 0, i), 0.0)
                   for i in range(20)]
        assert sum(r.reseeds > 0 for r in records) >= 3
        for r in records:
            assert r.tau_init.shape == r.tau_estimate.shape == (r.k_tilde,)
            assert np.all(wrap_dist(r.tau_estimate, r.tau_init) <= SIGMA1 + 1e-12)

    def test_solution_keeps_the_phase1_picks(self):
        # trial 5 re-seeds: tau_init holds the final box centres, solution.peaks the picks
        seed = trial_seed_for(CRITERION_3, 0, 5)
        y = spike_fourier(sample_instance(CRITERION_3, seed), 50)
        picks = find_peaks(y, cached_kernel(50, 1.5), PeakConfig(max_peaks=14))
        record = run_trial(CRITERION_3, seed, 0.0)
        assert record.reseeds >= 1
        assert same_bits(record.solution.peaks.tau0, picks.tau0)
        assert same_bits(record.solution.peaks.peak_values, picks.peak_values)
        assert record.solution.peaks.k_tilde == record.k_tilde == 14
        assert same_bits(record.tau_init, record.solution.report.centres)
        assert not np.array_equal(record.tau_init, picks.tau0)

    def test_phase2_error_is_an_error_record(self, monkeypatch):
        def degenerate(*args):
            raise DegenerateDictionaryError("degenerate dictionary")

        monkeypatch.setattr(superres.refine, "solve_phase2", degenerate)
        record = run_trial(EASY, trial_seed_for(EASY, 0, 0), 0.0)
        assert (record.status, record.hausdorff_err, record.solution) == ("error", 0.5, None)
        # phase 1 ran, but an error record keeps none of its picks
        assert record.k_tilde == record.reseeds == record.tau_init.size == 0

    def test_no_pick_is_a_no_peaks_record(self, monkeypatch):
        # phase 2 reports the empty pick list; the trial scores it as a failure
        empty = find_peaks(Spectrum(50, np.zeros(101)), cached_kernel(50, 1.5), PeakConfig())
        assert empty.k_tilde == 0
        monkeypatch.setattr(superres.refine, "find_peaks", lambda *args: empty)
        record = run_trial(EASY, trial_seed_for(EASY, 0, 0), 0.0)
        assert (record.status, record.hausdorff_err, record.reseeds) == ("no_peaks", 0.5, 0)
        assert record.k_tilde == record.tau_estimate.size == record.tau_init.size == 0

    def test_noiseless_trial_is_the_zero_noise_sum(self, monkeypatch):
        # nu = 0 measures xhat itself: the record is that of add(xhat, synth_noise(f_c, 0, s)),
        # whose noise is zero for any seed s, but for the clocks; trials 5 and 77 re-seed
        seeds = [trial_seed_for(CRITERION_3, 0, i) for i in (0, 1, 5, 77)]
        direct = [run_trial(CRITERION_3, seed, 0.0) for seed in seeds]
        with monkeypatch.context() as m:
            m.setattr(superres.experiments, "spike_fourier",
                      lambda x, f_c: add(spike_fourier(x, f_c), synth_noise(f_c, 0.0, 0)))
            summed = [run_trial(CRITERION_3, seed, 0.0) for seed in seeds]
        assert all(r.solution is not None for r in direct)
        for a, b in zip(direct, summed):
            assert_fields_equal(a, b, skip={"runtime_ms", "sample_ms"})

    def test_noiseless_trial_draws_no_noise(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("noise drawn for nu = 0")

        monkeypatch.setattr(superres.experiments, "synth_noise", refuse)
        record = run_trial(EASY, trial_seed_for(EASY, 0, 0), 0.0)
        assert record.status == "converged" and record.hausdorff_err < 1e-9

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
        assert trials[0] == "nu,seed,err,status,reseeds,runtime_ms,sample_ms"
        summary = (tmp_path / "summary.csv").read_text().splitlines()
        assert summary[0] == "nu,median_err,mean_err,success_rate"
        assert len(summary) == 2
        meta = json.loads((tmp_path / "metadata.json").read_text())
        assert meta["config"]["k"] == 5


class TestGradcheck:
    def test_small_run_passes(self):
        report = gradcheck(n_points=6, seed=0)
        assert report.passed
        assert report.max_grad_rel_err <= 1e-9
        assert report.max_hess_rel_err <= 2e-8

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed must be >= 0, not -1"):
            gradcheck(n_points=1, seed=-1)

    def test_zero_points_rejected(self):
        with pytest.raises(ConfigError, match="n_points"):
            gradcheck(n_points=0)

    @pytest.mark.parametrize("c1", [10.0, 1.0 / 28 * 101], ids=["c1_10", "exactly_full"])
    def test_spikes_that_do_not_fit_rejected(self, c1):
        # gradcheck draws up to max(GRADCHECK_K) = 7 spikes 4 sigma1 apart:
        # at 7 * 4 sigma1 >= 1 the sampler's gaps would be negative.
        with pytest.raises(ConfigError, match="do not fit"):
            gradcheck(c1=c1, n_points=3)


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

    def test_phase1_json(self, example_csv, capsys):
        assert main(["phase1", "--input", example_csv, "--fc", "50",
                     "--c1", "1.5", "--eta", "5.0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["k_tilde"] == 7
        got = np.sort(payload["tau0"])
        assert np.abs(got - TAU_EXAMPLE).max() <= 0.001

    def test_phase1_takes_a_c1_too_wide_for_phase_2(self, example_csv, capsys):
        assert main(["phase1", "--input", example_csv, "--fc", "50", "--c1", "30"]) == 0
        assert json.loads(capsys.readouterr().out)["k_tilde"] == 1

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

    def test_solve_prints_the_pipeline_function(self, example_csv, capsys):
        assert main(["solve", "--input", example_csv, "--fc", "50",
                     "--c1", "1.5", "--eta", "5.0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        peaks, report = solve(load_spectrum_csv(example_csv), cached_kernel(50, 1.5),
                              cached_kernel(50, 2.25), PeakConfig(eta=5.0))
        assert payload["k_tilde"] == peaks.k_tilde == 7
        assert same_bits(payload["positions"], report.tau_tilde)
        assert same_bits(payload["amplitudes"], report.beta)
        assert same_bits(payload["f_trace"], report.f_trace)

    @pytest.mark.parametrize("status,code", [
        ("converged", 0), ("stalled", 2), ("max_iter", 2), ("hessian_not_pd", 2),
    ])
    def test_solve_exit_code_follows_status(self, example_csv, monkeypatch, capsys,
                                            status, code):
        def fixed_status(prob, tau0, *args):
            # zero amplitudes: the final point's residual is zhat itself
            report = SolveReport(tau_tilde=tau0, beta=np.zeros(tau0.size),
                                 f_trace=np.array([0.0]), grad_norm_final=0.0,
                                 status=status, iterations=1, centres=tau0)
            return report, superres.refine._Point(d=None, beta=report.beta, r=prob.z,
                                                  f=float(prob.z @ prob.z))

        monkeypatch.setattr(superres.refine, "_newton", fixed_status)
        assert main(["solve", "--input", example_csv, "--fc", "50", "--c1", "1.5"]) == code
        assert json.loads(capsys.readouterr().out)["status"] == status

    def test_solve_no_peaks_is_numerical_exit(self, example_csv, tmp_path, capsys):
        # the full JSON of a converged solve, with an empty result
        assert main(["solve", "--input", example_csv, "--fc", "50",
                     "--c1", "1.5", "--eta", "5.0"]) == 0
        converged = json.loads(capsys.readouterr().out)
        path = tmp_path / "zero.csv"
        save_spectrum_csv(Spectrum(50, np.zeros(101)), path)
        assert main(["solve", "--input", str(path), "--fc", "50", "--c1", "1.5"]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert list(payload) == list(converged)
        assert payload == {"k_tilde": 0, "positions": [], "amplitudes": [],
                           "status": "no_peaks", "reseeds": 0, "iterations": 0,
                           "grad_norm_final": 0.0, "f_trace": []}

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
        ({"oversample": 8}, "keys must be options"),  # the scan grid is not a setting
    ], ids=["internal_name", "typo", "not_an_object", "null", "non_numeric_string",
            "fractional_int", "list", "oversample"])
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
        "l,re,im\n" + "".join(f"{l},{'nan' if l == 0 else 0},0\n" for l in range(-50, 51)),
        # truncated, the last l would read as 50: a band of f_C = 50
        "l,re,im\n" + "".join(f"{l},{int(l == 0)},0\n" for l in range(-50, 50)) + "50.7,0,0\n",
    ], ids=["missing", "non_numeric", "two_columns", "no_rows", "non_finite", "non_integer_l"])
    def test_unreadable_input_is_usage_error(self, tmp_path, capsys, command, text):
        path = tmp_path / "y.csv"
        if text is not None:
            path.write_text(text)
        assert main([command, "--input", str(path), "--fc", "50", "--c1", "1.5"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["mc", "--oversample", "32"],  # the scan grid is not a setting
        ["mc", "--k", "0"],
        ["mc", "--trials", "0"],
        ["mc", "--k", "30", "--sep-min", "0.05"],
        ["mc", "--nu", "0.0", "-0.1"],
        ["mc", "--nu", "nan"],
        ["mc", "--nu", "0.0", "inf"],
        ["mc", "--trials", "4", "--nu", "0", "0.2", "0"],  # summary rows are per nu value
        ["mc", "--sep-min", "-0.5"],
        ["gradcheck", "--n-points", "0"],
        # kernel widths and cut-offs: build_kernel's range rule, as a usage error
        ["mc", "--c1", "60"],
        ["mc", "--c2", "-1"],
        ["mc", "--fc", "0"],
        ["kernel", "--fc", "50", "--c", "80"],
        ["kernel", "--fc", "1", "--c", "2.0"],
        ["kernel", "--fc", "0", "--c", "1.5"],
        ["kernel", "--fc", "50", "--c", "1.5", "--grid", "10"],
        ["kernel", "--fc", "50", "--c", "1.5", "--grid", "0"],
        ["phase1", "--input", "EXAMPLE", "--fc", "50", "--c1", "60"],
        ["solve", "--input", "EXAMPLE", "--fc", "50", "--c1", "60"],
        ["solve", "--input", "EXAMPLE", "--fc", "50", "--c1", "1.5", "--c2", "90"],
        ["gradcheck", "--c1", "60"],
        ["gradcheck", "--c2", "80"],
        ["gradcheck", "--c1", "10", "--n-points", "3"],  # 7 spikes 4 sigma1 apart overfill
        ["mc", "--seed", "-1", "--trials", "1"],
        ["gradcheck", "--seed", "-1", "--n-points", "1"],
        # sigma1 = 30 / 101 is a phase-1 kernel but too wide for phase 2's boxes
        ["solve", "--input", "EXAMPLE", "--fc", "50", "--c1", "30"],
        ["mc", "--c1", "30", "--trials", "3", "--nu", "0"],
        ["gradcheck", "--c1", "30", "--n-points", "1"],
    ], ids=["oversample", "k", "trials", "overfull", "nu", "nu_nan", "nu_inf", "nu_repeated",
            "sep_min", "n_points",
            "mc_c1", "mc_c2", "mc_fc", "kernel_c", "kernel_sigma", "kernel_fc", "kernel_grid",
            "kernel_grid_zero",
            "phase1_c1", "solve_c1", "solve_c2", "gradcheck_c1", "gradcheck_c2",
            "gradcheck_overfull", "mc_seed", "gradcheck_seed", "solve_box_c1", "mc_box_c1",
            "gradcheck_box_c1"])
    def test_out_of_range_setting_is_usage_error(self, argv, example_csv, capsys):
        err = usage_error([example_csv if a == "EXAMPLE" else a for a in argv], capsys)
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv,message", [
        # the scan grid is not a setting
        (["phase1", "--oversample", "32"], "unrecognized arguments: --oversample 32"),
        (["solve", "--oversample", "8"], "unrecognized arguments: --oversample 8"),
        (["solve", "--eta", "-1"], "eta must be >= 0"),
        (["solve", "--eta", "nan"], "eta must be >= 0"),
        (["phase1", "--eta", "nan"], "eta must be >= 0"),
    ], ids=["phase1_oversample", "solve_oversample", "solve_eta", "solve_eta_nan",
            "phase1_eta_nan"])
    def test_out_of_range_peak_setting_is_usage_error(self, example_csv, capsys, argv,
                                                      message):
        argv = argv + ["--input", example_csv, "--fc", "50", "--c1", "1.5"]
        assert usage_error(argv, capsys) == f"error: {message}\n"

    def test_mc_gate(self, tmp_path, capsys):
        base = ["mc", "--fc", "50", "--c1", "1.5", "--c2", "2.25", "--k", "5",
                "--sep-min", "0.08", "--nu", "0.0", "--trials", "3",
                "--out", str(tmp_path / "mc")]
        assert main(base + ["--min-success-rate", "0.5"]) == 0
        capsys.readouterr()
        assert main(base + ["--min-success-rate", "1.1"]) == 3
        capsys.readouterr()
        assert (tmp_path / "mc" / "trials.csv").exists()

    def test_mc_defaults_are_the_experiment_config(self):
        # One per field of ExperimentConfig, in field order: a new field fails here.
        args = build_parser().parse_args(["mc"])
        given = (args.fc, args.c1, args.c2, args.k, args.sep_min, tuple(args.nu),
                 args.trials, args.seed)
        cfg = ExperimentConfig()
        assert given == tuple(getattr(cfg, f.name) for f in fields(cfg))

    def test_mc_tightest_separation_draws_separated_spikes(self, capsys):
        # three points at 0.33333 fit with 1e-5 to spare: a uniform draw would
        # clear that about once in 1e10, the spacing sampler every time
        assert main(["mc", "--k", "3", "--sep-min", "0.33333", "--nu", "0.0",
                     "--trials", "1"]) == 0
        assert "success_rate=1.000" in capsys.readouterr().out
        cfg = ExperimentConfig(k=3, sep_min=0.33333, nu_grid=(0.0,), trials=1)
        assert separation(sample_instance(cfg, trial_seed_for(cfg, 0, 0)).positions) >= 0.33333

    def test_gradcheck_exit(self, capsys):
        assert main(["gradcheck", "--n-points", "3"]) == 0
        out = capsys.readouterr().out
        assert "gradient relative error" in out
