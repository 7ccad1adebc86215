"""Greedy peak initialization: worked example, invariances, erasure soundness."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len

import superres.peaks as peaks
from superres.circle import wrap, wrap_dist
from superres.peaks import (
    NEWTON_STEPS,
    OVERSAMPLE,
    PeakConfig,
    PeakResult,
    _derivative_blocks,
    _polish,
    find_peaks,
    greedy_scan,
)
from superres.refine import BoxConstraint
from superres.slepian import build_kernel
from superres.spectral import (
    SpikeTrain,
    Spectrum,
    add,
    block_sum,
    eval_grid,
    eval_point,
    half_band,
    pointwise_mul,
    spike_fourier,
    synth_noise,
)

TAU_EXAMPLE = np.array([0.2995, 0.3663, 0.4332, 0.5000, 0.5668, 0.6337, 0.7005])
ALPHA_EXAMPLE = np.array([10.0, -1.0, 1.0, -3.0, 2.0, -5.0, 2.0])


@pytest.fixture(scope="module")
def kernel50():
    return build_kernel(50, 1.5)


class TestConfig:
    def test_oversample_floor(self):
        with pytest.raises(ValueError, match="oversample"):
            PeakConfig(oversample=2)

    def test_negative_eta(self):
        with pytest.raises(ValueError, match="eta"):
            PeakConfig(eta=-0.1)


class TestWorkedExample:
    def test_seven_spikes_recovered(self, kernel50):
        y = spike_fourier(SpikeTrain(TAU_EXAMPLE, ALPHA_EXAMPLE), 50)
        result = find_peaks(y, kernel50, PeakConfig(max_peaks=7))
        assert result.k_tilde == 7
        assert np.abs(np.sort(result.tau0) - TAU_EXAMPLE).max() <= 0.001

    def test_peak_values_positive_and_sorted(self, kernel50):
        y = spike_fourier(SpikeTrain(TAU_EXAMPLE, ALPHA_EXAMPLE), 50)
        result = find_peaks(y, kernel50, PeakConfig(max_peaks=7))
        assert np.all(result.peak_values > 0)
        # greedy picks in decreasing magnitude order
        assert np.all(np.diff(result.peak_values) <= 1e-9)


class TestBasicCases:
    def test_single_spike_matched_filter(self, kernel50):
        y = spike_fourier(SpikeTrain([0.5], [1.0]), 50)
        result = find_peaks(y, kernel50, PeakConfig(max_peaks=1))
        assert result.k_tilde == 1
        assert wrap_dist(result.tau0[0], 0.5) <= kernel50.sigma

    def test_single_negative_spike(self, kernel50):
        y = spike_fourier(SpikeTrain([0.25], [-2.0]), 50)
        result = find_peaks(y, kernel50, PeakConfig(max_peaks=1))
        assert wrap_dist(result.tau0[0], 0.25) <= kernel50.sigma

    def test_zero_measurement(self, kernel50):
        y = Spectrum(50, np.zeros(101, dtype=complex), real_signal=True)
        result = find_peaks(y, kernel50, PeakConfig(eta=0.1))
        assert result.k_tilde == 0
        assert result.tau0.size == 0

    def test_threshold_suppresses_weak_spike(self, kernel50):
        y = spike_fourier(SpikeTrain([0.2, 0.8], [10.0, 0.01]), 50)
        strong_only = find_peaks(y, kernel50, PeakConfig(eta=1.0, max_peaks=2))
        assert strong_only.k_tilde == 1
        assert wrap_dist(strong_only.tau0[0], 0.2) <= kernel50.sigma

    def test_mismatched_cutoff_raises(self, kernel50):
        y = spike_fourier(SpikeTrain([0.5], [1.0]), 20)
        with pytest.raises(ValueError, match="cut-off"):
            find_peaks(y, kernel50, PeakConfig())

    def test_iteration_cap_without_max_peaks(self, kernel50):
        # eta = 0 never triggers the threshold stop, but the pick count is
        # still bounded because erasure disks of radius 2 sigma cannot overlap
        y = spike_fourier(SpikeTrain([0.5], [1.0]), 50)
        result = find_peaks(y, kernel50, PeakConfig(eta=0.0))
        assert result.k_tilde <= int(np.ceil(1.0 / (2.0 * kernel50.sigma)))


class TestInvariances:
    def test_amplitude_scaling_leaves_selection_unchanged(self, kernel50):
        y = spike_fourier(SpikeTrain(TAU_EXAMPLE, ALPHA_EXAMPLE), 50)
        scaled = Spectrum(50, 3.7 * y.coeffs, real_signal=True)
        a = find_peaks(y, kernel50, PeakConfig(max_peaks=7))
        b = find_peaks(scaled, kernel50, PeakConfig(max_peaks=7))
        assert np.array_equal(a.tau0, b.tau0)
        assert np.allclose(b.peak_values, 3.7 * a.peak_values, rtol=1e-9)

    def test_shift_covariance(self, kernel50):
        shift = 0.123
        y = spike_fourier(SpikeTrain(TAU_EXAMPLE, ALPHA_EXAMPLE), 50)
        y_shift = spike_fourier(
            SpikeTrain(wrap(TAU_EXAMPLE + shift), ALPHA_EXAMPLE), 50
        )
        a = find_peaks(y, kernel50, PeakConfig(max_peaks=7))
        b = find_peaks(y_shift, kernel50, PeakConfig(max_peaks=7))
        moved = np.sort(wrap(a.tau0 + shift))
        assert np.abs(moved - np.sort(b.tau0)).max() < 1e-6

    def test_erasure_soundness(self, kernel50):
        # returned peaks are pairwise separated by more than 2 sigma, polish
        # included, so they are valid box centers
        y = spike_fourier(SpikeTrain(TAU_EXAMPLE, ALPHA_EXAMPLE), 50)
        result = find_peaks(y, kernel50, PeakConfig(max_peaks=7))
        d = wrap_dist(result.tau0[:, None], result.tau0[None, :])
        iu = np.triu_indices(result.k_tilde, k=1)
        assert d[iu].min() > 2.0 * kernel50.sigma

    @pytest.mark.parametrize("max_peaks", [9, None])
    def test_polish_onto_earlier_lobe_is_dropped(self, kernel50, max_peaks):
        # A sidelobe's grid maximum lies just beyond 2 sigma of an earlier
        # pick, and the polish slides it back to 1.99 sigma; keeping it made
        # BoxConstraint raise.
        y = spike_fourier(SpikeTrain([0.0574, 0.2912], [10.6, 0.2]), 50)
        result = find_peaks(y, kernel50, PeakConfig(max_peaks=max_peaks))
        d = wrap_dist(result.tau0[:, None], result.tau0[None, :])
        iu = np.triu_indices(result.k_tilde, k=1)
        assert d[iu].min() > 2.0 * kernel50.sigma
        BoxConstraint(result.tau0, kernel50.sigma)

    @pytest.mark.parametrize("oversample", [4, 8, 32])
    def test_polish_locates_single_spike(self, kernel50, oversample):
        y = spike_fourier(SpikeTrain([0.123456], [1.0]), 50)
        result = find_peaks(y, kernel50, PeakConfig(max_peaks=1, oversample=oversample))
        assert wrap_dist(result.tau0[0], 0.123456) <= 1e-12

    def test_concavity_guard_returns_grid_point(self, kernel50):
        # One sigma from a positive spike the filtered signal is positive and
        # convex, so a Newton step on z' would head away from any maximum.
        z = pointwise_mul(spike_fourier(SpikeTrain([0.5], [1.0]), 50), kernel50.spectrum())
        t0, h = 0.5 + kernel50.sigma, 1e-4
        assert eval_point(z, t0) > 0
        assert eval_point(z, t0 + h) + eval_point(z, t0 - h) - 2 * eval_point(z, t0) > 0
        t, value = _polish(_derivative_blocks(z), t0, 1.0 / (32 * 101))
        assert t == t0
        assert value == pytest.approx(eval_point(z, t0), rel=1e-12)

    def test_result_is_frozen(self, kernel50):
        y = spike_fourier(SpikeTrain([0.5], [1.0]), 50)
        result = find_peaks(y, kernel50, PeakConfig(max_peaks=1))
        assert isinstance(result, PeakResult)
        with pytest.raises(AttributeError):
            result.k_tilde = 3


class TestSeededRecovery:
    def test_separated_spikes_all_found(self, kernel50):
        # spikes separated by >= 4 sigma and moderate dynamic range: the
        # initial estimate lands within sigma of every true position
        rng = np.random.default_rng(2024)
        sigma = kernel50.sigma
        for trial in range(100):
            k = int(rng.integers(1, 8))
            while True:
                tau = np.sort(rng.random(k))
                gaps = np.diff(np.append(tau, tau[0] + 1.0))
                if k == 1 or gaps.min() >= 4 * sigma:
                    break
            alpha = rng.uniform(1.0, 10.0, k) * rng.choice([-1.0, 1.0], k)
            y = spike_fourier(SpikeTrain(tau, alpha), 50)
            result = find_peaks(y, kernel50, PeakConfig(max_peaks=k))
            assert result.k_tilde == k
            match = wrap_dist(np.sort(result.tau0), tau)
            assert match.max() <= sigma, f"trial {trial}"


def direct_polish(z, t, half_width):
    """Reference polish: one complex exp per frequency per Newton step."""
    ls, weights = half_band(z.f_c)
    w = 2j * np.pi * ls
    c0 = weights * z.coeffs[z.f_c:]
    c1 = w * c0
    c2 = w * c1
    lo, hi = t - half_width, t + half_width
    for step in range(NEWTON_STEPS + 1):
        e = np.exp(w * t)
        f0, f1, f2 = (np.dot(c, e).real for c in (c0, c1, c2))
        if step == NEWTON_STEPS or np.sign(f0) * f2 >= 0.0:
            break
        t = min(max(t - f1 / f2, lo), hi)
    return wrap(t), abs(f0)


def grid_len(oversample, y):
    return next_fast_len(oversample * y.n, real=True)


def masked_scan(y, kernel, cfg, direct=False, taken=()):
    """Reference greedy scan: re-mask all M grid points and take the argmax per pick.

    M is scipy's fast real FFT length at or above oversample * N. direct=True
    polishes with `direct_polish` instead of the library's `_polish`. The grid
    within 2 sigma of a taken position is masked from the start, and a polish
    that lands there is dropped.
    """
    sigma = kernel.sigma
    z = pointwise_mul(y, kernel.spectrum())
    zb = _derivative_blocks(z)
    m = grid_len(cfg.oversample, y)
    az = np.abs(eval_grid(z, m))
    grid = np.arange(m) / m
    cap = math.ceil(1.0 / (2.0 * sigma))
    if cfg.max_peaks is not None:
        cap = min(cap, cfg.max_peaks)
    alive = (az >= np.roll(az, 1)) & (az >= np.roll(az, -1))
    for t in taken:
        alive &= wrap_dist(grid, t) > 2.0 * sigma
    tau0, values, iterations = [], [], 0
    while len(tau0) < cap and alive.any():
        iterations += 1
        masked = np.where(alive, az, -np.inf)
        idx = int(np.argmax(masked))  # ties resolve to the smallest index
        if masked[idx] <= cfg.eta:
            break
        if direct:
            t, value = direct_polish(z, grid[idx], 1.0 / m)
        else:
            t, value = _polish(zb, grid[idx], 1.0 / m)
        alive[idx] = False
        if wrap_dist(t, np.concatenate([taken, tau0])).min(initial=1.0) <= 2.0 * sigma:
            continue
        tau0.append(float(t))
        values.append(float(value))
        alive &= wrap_dist(grid, t) > 2.0 * sigma
    return np.asarray(tau0), np.asarray(values), iterations


class TestCandidateScan:
    @pytest.mark.parametrize("nu", [0.0, 0.1])
    @pytest.mark.parametrize("cfg", [
        PeakConfig(max_peaks=14),
        PeakConfig(),
        PeakConfig(eta=0.05, oversample=8),
    ], ids=["max_peaks", "eta0_uncapped", "eta_positive"])
    def test_matches_masked_scan(self, kernel50, nu, cfg):
        rng = np.random.default_rng(7)
        for trial in range(10):
            positions = rng.random(14)
            amplitudes = rng.standard_normal(14) / np.sqrt(101)
            y = add(spike_fourier(SpikeTrain(positions, amplitudes), 50),
                    synth_noise(50, nu, trial))
            tau0, values, iterations = masked_scan(y, kernel50, cfg)
            result = find_peaks(y, kernel50, cfg)
            assert np.array_equal(result.tau0, tau0), f"trial {trial}"
            assert np.array_equal(result.peak_values, values), f"trial {trial}"
            assert result.iterations == iterations, f"trial {trial}"


    @pytest.mark.parametrize("f_c, max_peaks", [
        pytest.param(2, 14, id="2"),
        pytest.param(1000, 14, id="1000"),
        pytest.param(1500, 14, id="1500"),
        pytest.param(1000, None, id="1000-uncapped"),
    ])
    def test_matches_masked_scan_at_other_bands(self, f_c, max_peaks):
        # f_c = 2: 2 sigma = 0.6, so an erased arc is wider than half the circle;
        # N = 2001 = 3 * 23 * 29 and N = 3001 (prime): 32 N is not 5-smooth.
        # Uncapped at f_c = 1000 (cap 667): polish batches of POLISH_BATCH points,
        # many of which are erased before the scan reaches them.
        kernel = build_kernel(f_c, 1.5)
        cfg = PeakConfig(max_peaks=max_peaks)
        for trial in range(2):
            y, _ = scan_input(kernel, trial, 0.1 * trial)
            tau0, values, iterations = masked_scan(y, kernel, cfg)
            result = find_peaks(y, kernel, cfg)
            assert np.array_equal(result.tau0, tau0), f"trial {trial}"
            assert np.array_equal(result.peak_values, values), f"trial {trial}"
            assert result.iterations == iterations, f"trial {trial}"

    @pytest.mark.parametrize("taken", [(), (0.004,), (0.5, 0.996)])
    def test_erased_arc_wraps_past_zero(self, kernel50, taken):
        y = add(spike_fourier(SpikeTrain([0.006, 0.982, 0.3, 0.62], [1.0, -0.8, 0.5, 0.3]), 50),
                synth_noise(50, 0.05, 4))
        z = pointwise_mul(y, kernel50.spectrum())
        taken = np.asarray(taken)
        tau0, values, iterations = masked_scan(y, kernel50, PeakConfig(), taken=taken)
        cap = math.ceil(1.0 / (2.0 * kernel50.sigma))
        result = greedy_scan(z, kernel50.sigma, OVERSAMPLE * z.n, cap, taken=taken)
        # a pick or a taken position erases an arc across 0
        assert wrap_dist(np.concatenate([taken, tau0]), 0.0).min() < 2.0 * kernel50.sigma
        assert np.array_equal(result.tau0, tau0)
        assert np.array_equal(result.peak_values, values)
        assert result.iterations == iterations


def scan_input(kernel, seed, nu):
    """The c1-filtered measurement of 14 random spikes plus noise."""
    rng = np.random.default_rng(seed)
    y = add(spike_fourier(SpikeTrain(rng.random(14), rng.standard_normal(14)), kernel.f_c),
            synth_noise(kernel.f_c, nu, seed))
    return y, pointwise_mul(y, kernel.spectrum())


class TestGreedyScan:
    @given(st.integers(0, 2**16), st.sampled_from([0.0, 0.1]), st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_no_pick_within_two_sigma_of_a_taken_position(self, kernel50, seed, nu, n_taken):
        _, z = scan_input(kernel50, seed, nu)
        taken = np.random.default_rng(seed + 1).random(n_taken)
        result = greedy_scan(z, kernel50.sigma, OVERSAMPLE * z.n, 14, taken=taken)
        assert result.k_tilde >= 1
        assert wrap_dist(result.tau0[:, None], taken[None, :]).min() > 2.0 * kernel50.sigma

    @given(st.integers(0, 2**16), st.sampled_from([0.0, 0.1]))
    @settings(max_examples=20, deadline=None)
    def test_without_taken_it_is_find_peaks(self, kernel50, seed, nu):
        y, z = scan_input(kernel50, seed, nu)
        result = find_peaks(y, kernel50, PeakConfig())
        cap = math.ceil(1.0 / (2.0 * kernel50.sigma))
        scan = greedy_scan(z, kernel50.sigma, OVERSAMPLE * z.n, cap)
        assert np.array_equal(scan.tau0, result.tau0)
        assert np.array_equal(scan.peak_values, result.peak_values)
        assert scan.iterations == result.iterations

    @pytest.mark.parametrize("n_taken", [1, 4, 13])
    def test_taken_matches_masked_scan(self, kernel50, n_taken):
        cfg = PeakConfig(max_peaks=14)
        for trial in range(5):
            y, z = scan_input(kernel50, trial, 0.1 * (trial % 2))
            # taken positions both on and off the grid
            taken = np.random.default_rng(trial).random(n_taken)
            m = grid_len(OVERSAMPLE, z)
            taken[0] = np.round(taken[0] * m) / m
            tau0, values, iterations = masked_scan(y, kernel50, cfg, taken=taken)
            result = greedy_scan(z, kernel50.sigma, OVERSAMPLE * z.n, 14, taken=taken)
            assert np.array_equal(result.tau0, tau0), f"trial {trial}"
            assert np.array_equal(result.peak_values, values), f"trial {trial}"
            assert result.iterations == iterations, f"trial {trial}"


class TestDirectPolishOracle:
    @pytest.mark.parametrize("f_c, trials", [(50, 20), (1000, 4)])
    def test_picks_match_direct_exp_polish(self, f_c, trials):
        kernel = build_kernel(f_c, 1.5)
        cfg = PeakConfig(max_peaks=14)
        rng = np.random.default_rng(f_c)
        for trial in range(trials):
            positions = rng.random(14)
            amplitudes = rng.standard_normal(14) / np.sqrt(2 * f_c + 1)
            y = add(spike_fourier(SpikeTrain(positions, amplitudes), f_c),
                    synth_noise(f_c, 0.1 * (trial % 2), trial))
            tau0, values, iterations = masked_scan(y, kernel, cfg, direct=True)
            result = find_peaks(y, kernel, cfg)
            assert result.iterations == iterations, f"trial {trial}"
            assert result.k_tilde == tau0.size, f"trial {trial}"
            assert wrap_dist(result.tau0, tau0).max() <= 1e-12, f"trial {trial}"
            assert np.abs(result.peak_values - values).max() <= 1e-12 * values.max()


def count_polish_work(monkeypatch):
    """Patch `peaks` to record the points of each `block_sum` call, and the number
    of `block_sum` calls made by each `_polish` call."""
    evals: list[int] = []
    polishes: list[int] = []

    def counted_block_sum(cb, t):
        evals.append(np.size(t))
        return block_sum(cb, t)

    def counted_polish(zb, t, half_width):
        before = len(evals)
        out = _polish(zb, t, half_width)
        polishes.append(len(evals) - before)
        return out

    monkeypatch.setattr(peaks, "block_sum", counted_block_sum)
    monkeypatch.setattr(peaks, "_polish", counted_polish)
    return evals, polishes


class TestBatchPolish:
    @pytest.mark.parametrize("f_c", [2, 50, 1000, 1500])
    def test_batch_equals_one_point_calls(self, f_c, monkeypatch):
        # Random points with a clip of half a coefficient spacing: some start or
        # land where |z| is convex, so points stop at the guard after different
        # numbers of steps.
        kernel = build_kernel(f_c, 1.5)
        _, z = scan_input(kernel, f_c, 0.1)
        zb = _derivative_blocks(z)
        t = np.random.default_rng(f_c).random(600)
        half_width = 0.5 / z.n
        evals, polishes = count_polish_work(monkeypatch)
        one = [peaks._polish(zb, ti, half_width) for ti in t.tolist()]
        assert all(isinstance(ti, float) and isinstance(v, float) for ti, v in one)
        stops = Counter(n - 1 for n in polishes)  # the step a point stopped at
        assert {0, 1, NEWTON_STEPS} <= set(stops), stops
        evals.clear()
        ts, values = peaks._polish(zb, t, half_width)
        assert np.array_equal(ts, [ti for ti, _ in one])
        assert np.array_equal(values, [v for _, v in one])
        assert len(evals) == NEWTON_STEPS + 1 and evals[0] == t.size

    def test_find_peaks_polishes_in_batches(self, kernel50, monkeypatch):
        evals, polishes = count_polish_work(monkeypatch)
        for seed in range(20):
            y, _ = scan_input(kernel50, seed, 0.1 * (seed % 2))
            evals.clear()
            polishes.clear()
            result = find_peaks(y, kernel50, PeakConfig(max_peaks=14))
            assert result.k_tilde == 14
            assert max(polishes) <= NEWTON_STEPS + 1, f"seed {seed}"
            assert len(evals) < 4 * result.k_tilde, f"seed {seed}"
