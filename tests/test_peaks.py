"""Greedy peak initialization: worked example, invariances, erasure soundness."""

from collections import Counter
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len

import superres.peaks as peaks
from superres.circle import wrap, wrap_dist
from superres.peaks import OVERSAMPLE, PeakConfig, PeakResult, find_peaks, greedy_scan
from superres.refine import BoxConstraint, solve_phase2
from superres.slepian import build_kernel
from superres.spectral import (
    SpikeTrain,
    Spectrum,
    add,
    eval_grid,
    load_spectrum_csv,
    pointwise_mul,
    smooth_len,
    spike_fourier,
    synth_noise,
)

TAU_EXAMPLE = np.array([0.2995, 0.3663, 0.4332, 0.5000, 0.5668, 0.6337, 0.7005])
ALPHA_EXAMPLE = np.array([10.0, -1.0, 1.0, -3.0, 2.0, -5.0, 2.0])


@pytest.fixture(scope="module")
def kernel50():
    return build_kernel(50, 1.5)


class TestConfig:
    def test_grid_is_not_a_setting(self):
        assert [f.name for f in fields(PeakConfig)] == ["eta", "max_peaks"]
        with pytest.raises(TypeError):
            PeakConfig(oversample=8)

    def test_negative_eta(self):
        with pytest.raises(ValueError, match="eta"):
            PeakConfig(eta=-0.1)

    def test_nan_eta(self):
        # NaN fails every comparison, so a scan would never stop at it
        with pytest.raises(ValueError, match="eta must be >= 0"):
            PeakConfig(eta=float("nan"))

    @pytest.mark.parametrize("max_peaks", [0, -3])
    def test_max_peaks_floor(self, max_peaks):
        with pytest.raises(ValueError, match="max_peaks must be >= 1"):
            PeakConfig(max_peaks=max_peaks)


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
        y = Spectrum(50, np.zeros(101, dtype=complex))
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

    @pytest.mark.parametrize("max_peaks", [1, None], ids=["capped", "uncapped"])
    def test_spike_at_zero_is_picked_at_zero(self, kernel50, max_peaks):
        # |z| one grid point before 0 exceeds |z| one after by rounding, so the vertex
        # lies a hair below 0, and t % 1.0 rounds it to 1.0. Which side wins turns with
        # the kernel's last bits; the first assert keeps the case the one meant.
        y = spike_fourier(SpikeTrain([0.0], [1.0]), 50)
        z = np.fft.irfft(y.coeffs[50:] * kernel50.ghat[50:], smooth_len(OVERSAMPLE * 101))
        assert abs(z[-1]) > abs(z[1])
        tau0 = find_peaks(y, kernel50, PeakConfig(max_peaks=max_peaks)).tau0
        assert np.all((tau0 >= 0.0) & (tau0 < 1.0))
        assert tau0[0] == 0.0

    @pytest.mark.parametrize("cells", [-1.0, -0.3], ids=["last_grid_point", "before_zero"])
    def test_spike_next_to_the_grid_end_is_picked_there(self, cells):
        # Grid point m - 1 and grid point 0 are each other's circular neighbours,
        # held at the two ends of the padded grid.
        m = smooth_len(OVERSAMPLE * 81)
        t = wrap(cells / m)
        y = spike_fourier(SpikeTrain([t], [1.0]), 40)
        tau0 = find_peaks(y, build_kernel(40, 1.5), PeakConfig(max_peaks=1)).tau0
        assert tau0.size == 1 and 0.0 <= tau0[0] < 1.0
        assert wrap_dist(tau0[0], t) * m < 0.01

    def test_iteration_cap_without_max_peaks(self, kernel50):
        # eta = 0 never triggers the threshold stop and no cap is set, but picks
        # are more than 2 sigma apart on a circle of length 1, so there are fewer
        # than 1 / (2 sigma) of them
        y = spike_fourier(SpikeTrain([0.5], [1.0]), 50)
        result = find_peaks(y, kernel50, PeakConfig(eta=0.0))
        assert result.k_tilde < 1.0 / (2.0 * kernel50.sigma)


class TestInvariances:
    def test_amplitude_scaling_leaves_selection_unchanged(self, kernel50):
        # Scaling by a power of two is exact in every operation of the scan, so
        # the picks keep their bits. Another scale rounds the vertex offset
        # differently, so a pick may move by an ulp.
        y = spike_fourier(SpikeTrain(TAU_EXAMPLE, ALPHA_EXAMPLE), 50)

        def scan(scale):
            scaled = Spectrum(50, scale * y.coeffs)
            return find_peaks(scaled, kernel50, PeakConfig(max_peaks=7))

        a, exact, inexact = scan(1.0), scan(4.0), scan(3.7)
        assert np.array_equal(exact.tau0, a.tau0)
        assert np.array_equal(exact.peak_values, 4.0 * a.peak_values)
        assert inexact.iterations == a.iterations
        assert np.all(np.abs(inexact.tau0 - a.tau0) <= 2 * np.spacing(a.tau0))
        assert np.allclose(inexact.peak_values, 3.7 * a.peak_values, rtol=1e-9)

    def test_shift_covariance(self, kernel50):
        shift = 0.123
        y = spike_fourier(SpikeTrain(TAU_EXAMPLE, ALPHA_EXAMPLE), 50)
        y_shift = spike_fourier(
            SpikeTrain(wrap(TAU_EXAMPLE + shift), ALPHA_EXAMPLE), 50
        )
        a = find_peaks(y, kernel50, PeakConfig(max_peaks=7))
        b = find_peaks(y_shift, kernel50, PeakConfig(max_peaks=7))
        # The shift moves the spikes against the grid, so the vertices move by a
        # small fraction of a cell (0.008 here); phase 2's positions shift exactly.
        moved = np.sort(wrap(a.tau0 + shift))
        assert np.abs(moved - np.sort(b.tau0)).max() < 0.05 / grid_len(y)
        kernel2 = build_kernel(50, 2.25)
        ra = solve_phase2(y, a.tau0, kernel50, kernel2)
        rb = solve_phase2(y_shift, b.tau0, kernel50, kernel2)
        moved = np.sort(wrap(ra.tau_tilde + shift))
        assert np.abs(moved - np.sort(rb.tau_tilde)).max() < 1e-6

    def test_erasure_soundness(self, kernel50):
        # returned peaks, at their vertices, are pairwise separated by more
        # than 2 sigma, so they are valid box centers
        y = spike_fourier(SpikeTrain(TAU_EXAMPLE, ALPHA_EXAMPLE), 50)
        result = find_peaks(y, kernel50, PeakConfig(max_peaks=7))
        d = wrap_dist(result.tau0[:, None], result.tau0[None, :])
        iu = np.triu_indices(result.k_tilde, k=1)
        assert d[iu].min() > 2.0 * kernel50.sigma

    @pytest.mark.parametrize("max_peaks", [9, None])
    def test_vertex_on_earlier_lobe_is_dropped(self, kernel50, max_peaks):
        # The strong spike's sidelobes have grid maxima and vertices just
        # inside 2 sigma of its pick (1.96 to 2.0 sigma). The scan tests the
        # vertex, the position it would keep: a pick within 2 sigma of an
        # earlier one made BoxConstraint raise.
        y = spike_fourier(SpikeTrain([0.0574, 0.2912], [10.6, 0.2]), 50)
        result = find_peaks(y, kernel50, PeakConfig(max_peaks=max_peaks))
        d = wrap_dist(result.tau0[:, None], result.tau0[None, :])
        iu = np.triu_indices(result.k_tilde, k=1)
        assert d[iu].min() > 2.0 * kernel50.sigma
        BoxConstraint(result.tau0, kernel50.sigma)

    @pytest.mark.parametrize("oversample", [4, 8, 32])
    def test_polish_locates_single_spike(self, kernel50, oversample, monkeypatch):
        # Phase 1 picks the grid parabola's vertex, a small fraction of a cell
        # from the spike, and phase 2 polishes it to rounding.
        monkeypatch.setattr(peaks, "OVERSAMPLE", oversample)
        y = spike_fourier(SpikeTrain([0.123456], [1.0]), 50)
        result = find_peaks(y, kernel50, PeakConfig(max_peaks=1))
        assert wrap_dist(result.tau0[0], 0.123456) <= 0.01 / grid_len(y)
        report = solve_phase2(y, result.tau0, kernel50, build_kernel(50, 2.25))
        assert report.status == "converged"
        assert wrap_dist(report.tau_tilde[0], 0.123456) <= 1e-12

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


def grid_len(y):
    return next_fast_len(peaks.OVERSAMPLE * y.n, real=True)


def grid_vertices(z):
    """|z| on the grid of `grid_len` points M: its local maxima and, for every grid
    point, the vertex of the parabola through it and its two neighbours, as a
    position in [0, 1) and a value. A flat top keeps its grid point."""
    m = grid_len(z)
    az = np.abs(eval_grid(z, m))
    am, ap = np.roll(az, 1), np.roll(az, -1)
    den = am - 2.0 * az + ap  # <= 0 at a maximum
    x = np.divide(am - ap, 2.0 * den, out=np.zeros_like(az), where=den < 0.0)
    return (az >= am) & (az >= ap), wrap((np.arange(m) + x) / m), az + (ap - am) * x / 4.0


def masked_scan(y, kernel, cfg, taken=()):
    """Reference greedy scan: re-mask all M grid points and take the argmax per pick.

    M is scipy's fast real FFT length at or above OVERSAMPLE * N. A grid maximum is
    ranked, and compared with eta, by the value at the vertex of the parabola
    through it and its two neighbours, and picked at that vertex. A grid maximum
    whose vertex lies within 2 sigma of a taken position is masked from the start,
    and one whose vertex lies within 2 sigma of a pick is masked by the pick.
    """
    sigma = kernel.sigma
    z = pointwise_mul(y, kernel.spectrum())
    cap = np.inf if cfg.max_peaks is None else cfg.max_peaks
    alive, start, vertex = grid_vertices(z)
    for t in taken:
        alive &= wrap_dist(start, t) > 2.0 * sigma
    tau0, values, iterations = [], [], 0
    while len(tau0) < cap and alive.any():
        iterations += 1
        masked = np.where(alive, vertex, -np.inf)
        idx = int(np.argmax(masked))  # ties resolve to the smallest index
        if masked[idx] <= cfg.eta:
            break
        tau0.append(start[idx])
        values.append(vertex[idx])
        alive &= wrap_dist(start, start[idx]) > 2.0 * sigma
    return np.asarray(tau0), np.asarray(values), iterations


class TestCandidateScan:
    @pytest.mark.parametrize("nu", [0.0, 0.1])
    @pytest.mark.parametrize("cfg, oversample", [
        (PeakConfig(max_peaks=14), OVERSAMPLE),
        (PeakConfig(), OVERSAMPLE),
        (PeakConfig(eta=0.05), 8),
    ], ids=["max_peaks", "eta0_uncapped", "eta_positive"])
    def test_matches_masked_scan(self, kernel50, nu, cfg, oversample, monkeypatch):
        monkeypatch.setattr(peaks, "OVERSAMPLE", oversample)
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
        # N = 2001 = 3 * 23 * 29 and N = 3001 (prime): 8 N is not 5-smooth.
        # Uncapped at f_c = 1000 (cap 667): hundreds of picks, and most grid
        # maxima are sidelobes that an earlier pick rules out.
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
        result = greedy_scan(z.coeffs[z.f_c:], kernel50.sigma, taken=taken)
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
        result = greedy_scan(z.coeffs[z.f_c:], kernel50.sigma, 14, taken=taken)
        assert result.k_tilde >= 1
        assert wrap_dist(result.tau0[:, None], taken[None, :]).min() > 2.0 * kernel50.sigma

    @given(st.integers(0, 2**16), st.sampled_from([0.0, 0.1]))
    @settings(max_examples=20, deadline=None)
    def test_without_taken_it_is_find_peaks(self, kernel50, seed, nu):
        y, z = scan_input(kernel50, seed, nu)
        result = find_peaks(y, kernel50, PeakConfig())
        scan = greedy_scan(z.coeffs[z.f_c:], kernel50.sigma)
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
            m = grid_len(z)
            taken[0] = np.round(taken[0] * m) / m
            tau0, values, iterations = masked_scan(y, kernel50, cfg, taken=taken)
            result = greedy_scan(z.coeffs[z.f_c:], kernel50.sigma, 14, taken=taken)
            assert np.array_equal(result.tau0, tau0), f"trial {trial}"
            assert np.array_equal(result.peak_values, values), f"trial {trial}"
            assert result.iterations == iterations, f"trial {trial}"


class TestBatchedWalk:
    """The scan makes floats of its ranked candidates in batches: 2 (cap + taken) first,
    then twice the previous batch; uncapped, all of them at once. A walk past a batch
    boundary must pick as the `masked_scan` oracle does, bit for bit."""

    @pytest.fixture(scope="class")
    def wideband(self):
        kernel = build_kernel(1000, 1.5)
        y, z = scan_input(kernel, 0, 0.0)
        return kernel, y, greedy_scan(z.coeffs[z.f_c:], kernel.sigma)

    @staticmethod
    def walk(monkeypatch, y, kernel, cfg, taken=()):
        """find_peaks' scan, the batch sizes it converted and the candidates it reached."""
        batches, reached = [], []
        doubling, near = peaks._doubling, peaks._near

        def recorded(order, size):
            for b in doubling(order, size):
                batches.append(b.size)
                yield b

        def counted(points, t, radius):
            reached.append(t)
            return near(points, t, radius)

        monkeypatch.setattr(peaks, "_doubling", recorded)
        monkeypatch.setattr(peaks, "_near", counted)
        c = y.coeffs[y.f_c:] * kernel.ghat[y.f_c:]
        result = greedy_scan(c, kernel.sigma, cfg.max_peaks, cfg.eta, taken)
        tau0, values, iterations = masked_scan(y, kernel, cfg, taken=taken)
        assert np.array_equal(result.tau0, tau0)
        assert np.array_equal(result.peak_values, values)
        assert result.iterations == iterations
        return result, batches, len(reached)

    def test_one_pick_beside_26_taken_positions(self, wideband, monkeypatch):
        # the re-seed's shape: taken holds 2 (K - 1) positions, here the first 26 picks
        kernel, y, uncapped = wideband
        result, batches, reached = self.walk(monkeypatch, y, kernel, PeakConfig(max_peaks=1),
                                             taken=uncapped.tau0[:26])
        assert result.k_tilde == 1 and result.tau0[0] == uncapped.tau0[26]
        assert batches[:2] == [54, 108] and reached > 54

    def test_cap_k_past_the_first_batch(self, kernel50, monkeypatch):
        y, _ = scan_input(kernel50, 0, 0.0)
        result, batches, reached = self.walk(monkeypatch, y, kernel50, PeakConfig(max_peaks=14))
        assert result.k_tilde == 14
        assert batches[0] == 28 < reached  # 82 candidates: the second batch holds 54

    def test_eta_stop_in_a_later_batch(self, wideband, monkeypatch):
        kernel, y, uncapped = wideband
        eta = 0.5 * (uncapped.peak_values[44] + uncapped.peak_values[45])
        result, batches, reached = self.walk(monkeypatch, y, kernel,
                                             PeakConfig(eta=eta, max_peaks=50))
        assert result.k_tilde == 45
        assert batches[:2] == [100, 200] and 100 < reached <= 300

    def test_uncapped_is_one_batch(self, wideband, monkeypatch):
        kernel, y, uncapped = wideband
        result, batches, reached = self.walk(monkeypatch, y, kernel, PeakConfig())
        assert result.k_tilde == uncapped.k_tilde > 500
        assert len(batches) == 1 and reached <= batches[0]


def padded(grid):
    """A grid with its circular neighbours at both ends, as `greedy_scan` holds |z|."""
    return np.concatenate([grid[-1:], grid, grid[:1]])


class TestPrunedRanking:
    """A capped scan gives vertices and a sort only to the grid maxima whose a0 is at
    least half the `first`-th largest a0: a vertex value lies in [a0, 9/8 a0]."""

    @staticmethod
    def recorded(monkeypatch):
        """The number of grid maxima each `_vertices` call receives."""
        sizes = []
        vertices = peaks._vertices

        def counted(az, cand):
            sizes.append(cand.size)
            return vertices(az, cand)

        monkeypatch.setattr(peaks, "_vertices", counted)
        return sizes

    @staticmethod
    def assert_masked_scan(y, kernel, cfg, taken=()):
        c = y.coeffs[y.f_c:] * kernel.ghat[y.f_c:]
        result = greedy_scan(c, kernel.sigma, cfg.max_peaks, cfg.eta, taken)
        tau0, values, iterations = masked_scan(y, kernel, cfg, taken=taken)
        assert np.array_equal(result.tau0, tau0)
        assert np.array_equal(result.peak_values, values)
        assert result.iterations == iterations
        return result

    @pytest.fixture(scope="class")
    def wideband(self):
        kernel = build_kernel(1000, 1.5)
        y, z = scan_input(kernel, 0, 0.0)
        return kernel, y, np.count_nonzero(grid_vertices(z)[0])

    @staticmethod
    def assert_whole_sort(grid, first):
        """A `_Ranking`, read in the walk's batches, ranks as the stable sort of every
        vertex value does, and gives each batch's vertices bit for bit. Whether it
        ruled maxima out is returned."""
        az = padded(np.asarray(grid, dtype=float))
        inner = az[1:-1]
        cand = np.flatnonzero((inner >= az[:-2]) & (inner >= az[2:]))
        vertex, peak = peaks._vertices(az, cand)
        whole = np.argsort(-peak, kind="stable")
        ranking = peaks._Ranking(az, cand, first)
        pruned = ranking.peak.size < cand.size
        assert ranking.size == cand.size
        start = 0
        for b in peaks._doubling(ranking, first):
            ranked = whole[start:start + b.size]
            assert np.array_equal(ranking.vertex[b], vertex[ranked])
            assert np.array_equal(ranking.peak[b], peak[ranked])
            start += b.size
        assert start == cand.size
        return pruned

    def test_ranks_as_the_whole_sort(self):
        # small integers: ties at the `first`-th largest a0 and at exactly half of
        # it, which is kept, and vertex values above a0 up to 9/8 a0
        rng = np.random.default_rng(3)
        pruned = sum(self.assert_whole_sort(rng.integers(0, 65, rng.integers(3, 200)),
                                            int(rng.integers(1, 41))) for _ in range(500))
        assert pruned > 250

    @pytest.mark.parametrize("grid", [
        # a0 = 7 below kth = 7.5, but its vertex value 7.875 ranks first
        [0, 7.5, 0, 0, 7, 7, 0, 0],
        # 3.9 < kth / 2 is ruled out; its vertex value 4.3875 outranks the kept 4
        [0, 8, 0, 0, 5, 0, 0, 4, 0, 0, 3.9, 3.9, 0, 0],
    ], ids=["vertex_above_kth", "ruled_out_above_kept"])
    def test_vertex_values_above_a0(self, grid):
        self.assert_whole_sort(grid, 1)

    @given(st.floats(1e-300, 1e300), st.floats(0.0, 1.0), st.floats(0.0, 1.0),
           st.integers(0, 4), st.integers(0, 4))
    @settings(max_examples=300, deadline=None)
    def test_vertex_value_lies_in_a0_to_9_8_a0(self, a0, fm, fp, um, up):
        # neighbours a fraction of a0 below it, or a few units in the last place
        am = np.nextafter(a0 * (1.0 - fm), 0.0) if um == 0 else a0 - um * np.spacing(a0)
        ap = np.nextafter(a0 * (1.0 - fp), 0.0) if up == 0 else a0 - up * np.spacing(a0)
        _, (v,) = peaks._vertices(np.array([am, a0, ap]), np.array([0]))
        assert a0 <= v <= 1.125 * a0

    def test_capped_wideband_scan_makes_few_vertices(self, wideband, monkeypatch):
        # about 2,000 grid maxima, of which the 14 picks need 28 ranked
        kernel, y, n_maxima = wideband
        sizes = self.recorded(monkeypatch)
        result = self.assert_masked_scan(y, kernel, PeakConfig(max_peaks=14))
        assert result.k_tilde == 14 and n_maxima > 1900
        assert len(sizes) == 1 and 28 <= sizes[0] < n_maxima / 10

    @pytest.mark.parametrize("n_taken,cap", [(12, 3), (12, 8), (26, 1)])
    def test_walk_past_the_first_batch_stays_pruned(self, wideband, monkeypatch, n_taken, cap):
        # The taken positions rule out enough of the first 2 (cap + taken) ranks that the
        # picks need the next batch: it ranks only the maxima that can reach its end, up
        # to 3 times the first batch. 26 taken and cap 1 is a re-seed's shape.
        kernel, y, n_maxima = wideband
        c = y.coeffs[y.f_c:] * kernel.ghat[y.f_c:]
        taken = greedy_scan(c, kernel.sigma, n_taken).tau0
        sizes = self.recorded(monkeypatch)
        result = self.assert_masked_scan(y, kernel, PeakConfig(max_peaks=cap), taken=taken)
        first = 2 * (cap + n_taken)
        assert result.k_tilde == cap
        assert len(sizes) == 2 and first <= sizes[0] < sizes[1] < n_maxima / 5
        assert sizes[1] >= 3 * first

    def test_all_zero_spectrum_prunes_nothing(self, kernel50, monkeypatch):
        # every grid point is a maximum of value 0, so the threshold is 0 too
        y = Spectrum(50, np.zeros(101, dtype=complex))
        sizes = self.recorded(monkeypatch)
        result = self.assert_masked_scan(y, kernel50, PeakConfig(max_peaks=14))
        assert result.k_tilde == 0 and result.iterations == 1
        assert sizes == [grid_len(y)]

    def test_flat_grid_ties_resolve_by_grid_index(self, kernel50, monkeypatch):
        # one coefficient at l = 0: every grid point is a maximum of the same value
        y = Spectrum(50, np.eye(1, 101, 50, dtype=complex)[0])
        sizes = self.recorded(monkeypatch)
        result = self.assert_masked_scan(y, kernel50, PeakConfig(max_peaks=3))
        assert result.k_tilde == 3 and result.tau0[0] == 0.0
        assert sizes == [grid_len(y)]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("scale", [5e307, 1e308, 1.7e308])
    def test_overflowing_grid_ranks_everything(self, kernel50, scale, monkeypatch):
        # |c| near 1e308: |z| is infinite at some grid points, where a vertex value
        # is NaN and ranks last, so the capped scan ranks every maximum
        y = spike_fourier(SpikeTrain(TAU_EXAMPLE, ALPHA_EXAMPLE), 50)
        y = Spectrum(50, y.coeffs * (scale / np.abs(y.coeffs).max()))
        z = pointwise_mul(y, kernel50.spectrum())
        assert np.isinf(eval_grid(z, grid_len(y))).any()
        c = z.coeffs[50:]
        uncapped = greedy_scan(c, kernel50.sigma)
        sizes = self.recorded(monkeypatch)
        result = greedy_scan(c, kernel50.sigma, 7)
        assert result.k_tilde == 7 and np.isfinite(result.peak_values).all()
        assert np.array_equal(result.tau0, uncapped.tau0[:7])
        assert np.array_equal(result.peak_values, uncapped.peak_values[:7])
        assert result.iterations == 7
        assert sizes == [np.count_nonzero(grid_vertices(z)[0])]


class TestNear:
    @given(st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=40),
           st.one_of(st.floats(0.0, 1e-3), st.floats(1.0 - 1e-3, 1.0, exclude_max=True),
                     st.floats(0.0, 1.0, exclude_max=True)),
           st.sampled_from([2, 50, 1000]), st.floats(0.5, 2.4))
    @settings(max_examples=300, deadline=None)
    def test_matches_wrap_dist(self, points, t, f_c, c):
        two_sigma = 2.0 * c / (2 * f_c + 1)
        # points on the boundary of t's 2 sigma arc too, on both sides of the wrap
        points = sorted(points + [(t + two_sigma) % 1.0, (t - two_sigma) % 1.0])
        expected = bool((wrap_dist(np.array(points), t) <= two_sigma).any())
        assert peaks._near(points, t, two_sigma) is expected

    @pytest.mark.parametrize("points, t, expected", [
        ([], 0.5, False),
        ([0.3], 0.5, False),
        ([0.3], 0.35, True),
        ([0.98], 0.01, True),  # across the wrap, t before every point
        ([0.01], 0.98, True),  # across the wrap, t after every point
        ([0.1, 0.4, 0.9], 0.4, True),  # t is a point
        ([0.0], 0.0, True),
        ([0.1, 0.4, 0.9], 0.65, False),
    ])
    def test_examples(self, points, t, expected):
        assert peaks._near(points, t, 0.06) is expected

    def test_one_call_per_visited_candidate(self, monkeypatch):
        # Uncapped at f_c = 1000: about 540 picks among thousands of grid maxima.
        # The scan tests each candidate it reaches once, and never a candidate twice.
        kernel = build_kernel(1000, 1.5)
        y, z = scan_input(kernel, 0, 0.0)
        calls = []
        near = peaks._near

        def counted(points, t, radius):
            calls.append(t)
            return near(points, t, radius)

        monkeypatch.setattr(peaks, "_near", counted)
        result = find_peaks(y, kernel, PeakConfig())
        is_max, start, _ = grid_vertices(z)
        assert result.k_tilde > 500
        assert max(Counter(calls).values()) == 1
        assert set(calls) <= set(start[is_max].tolist())
        assert result.iterations <= len(calls) <= np.count_nonzero(is_max)


class TestGridRule:
    def test_phase1_and_reseed_scan_one_grid(self, kernel50, monkeypatch):
        # make_pool("noisy", 2, 600) #520 of the benchmark: the first Newton run
        # ends hessian_not_pd, so solve_phase2 scans its residual again.
        y = load_spectrum_csv(Path(__file__).parent / "data" / "close_pair_after_newton.csv")
        kernel2 = build_kernel(50, 2.25)
        grids = []
        irfft = np.fft.irfft

        def recorded(c, m):  # the scan's grid is the only inverse FFT of a solve
            grids.append(m)
            return irfft(c, m)

        monkeypatch.setattr(np.fft, "irfft", recorded)
        tau0 = find_peaks(y, kernel50, PeakConfig(max_peaks=14)).tau0
        assert len(grids) == 1
        report = solve_phase2(y, tau0, kernel50, kernel2)
        assert report.reseeds >= 1 and len(grids) > 1
        assert set(grids) == {smooth_len(OVERSAMPLE * y.n)}
