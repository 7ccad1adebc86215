"""Spike spectra, synthesized noise, grid evaluation, CSV round trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len

from superres.spectral import (
    SpikeTrain,
    Spectrum,
    add,
    block_sum,
    blocks,
    ells,
    eval_grid,
    eval_point,
    load_spectrum_csv,
    phasors,
    pointwise_mul,
    save_spectrum_csv,
    smooth_len,
    spike_fourier,
    synth_noise,
)

unit = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)


def naive_eval(coeffs, f_c, t):
    """Independent O(N) direct summation oracle."""
    return sum(
        c * np.exp(2j * np.pi * l * t) for l, c in zip(range(-f_c, f_c + 1), coeffs)
    )


def full_band_grid(s, m):
    """Reference grid values: complex inverse FFT of the whole band, zero-padded to M."""
    padded = np.zeros(m, dtype=complex)
    padded[np.mod(ells(s.f_c), m)] = s.coeffs
    return m * np.fft.ifft(padded)


def full_band_point(s, t):
    """Reference point value: complex direct sum over the whole band."""
    return np.sum(s.coeffs * np.exp(2j * np.pi * ells(s.f_c) * t))


def seeded_real_spectrum(f_c, seed):
    """Spikes plus noise: a Hermitian spectrum whose signal has a generic shape."""
    rng = np.random.Generator(np.random.Philox(seed))
    spikes = spike_fourier(SpikeTrain(rng.random(5), rng.standard_normal(5)), f_c)
    return add(spikes, synth_noise(f_c, 0.1, seed))


class TestSpikeTrain:
    def test_wraps_positions(self):
        x = SpikeTrain([1.25, -0.25], [1.0, 2.0])
        assert np.allclose(x.positions, [0.25, 0.75])

    def test_duplicate_positions_raise(self):
        with pytest.raises(ValueError, match="distinct"):
            SpikeTrain([0.5, 0.5], [1.0, 2.0])

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="equal length"):
            SpikeTrain([0.5], [1.0, 2.0])

    @pytest.mark.filterwarnings("error")  # inf must not reach np.mod, which warns
    @pytest.mark.parametrize("positions", [[np.nan], [np.inf, 0.3], [0.1, -np.inf], []],
                             ids=["nan", "inf", "-inf", "empty"])
    def test_non_finite_or_empty_positions_raise(self, positions):
        with pytest.raises(ValueError, match="positions must be a non-empty array of finite"):
            SpikeTrain(positions, np.ones(len(positions)))

    @pytest.mark.parametrize("amplitudes", [[np.inf], [np.nan], [1.0, -np.inf]],
                             ids=["inf", "nan", "-inf"])
    def test_non_finite_amplitudes_raise(self, amplitudes):
        with pytest.raises(ValueError, match="amplitudes must be finite"):
            SpikeTrain([0.2, 0.7][: len(amplitudes)], amplitudes)


class TestSpectrum:
    def test_length_check(self):
        with pytest.raises(ValueError, match="length"):
            Spectrum(2, np.zeros(4))

    def test_hermitian_check(self):
        bad = np.array([1.0 + 1j, 0.0, 1.0 + 1j])
        with pytest.raises(ValueError, match="Hermitian"):
            Spectrum(1, bad, real_signal=True)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_non_finite_coefficients_raise(self, bad):
        # NaN compares false, so it would pass the Hermitian test
        coeffs = spike_fourier(SpikeTrain([0.3], [1.0]), 50).coeffs.copy()
        coeffs[50] = bad
        for real_signal in (True, False):
            with pytest.raises(ValueError, match="finite"):
                Spectrum(50, coeffs, real_signal=real_signal)

    def test_coeffs_read_only(self):
        s = Spectrum(1, np.zeros(3))
        with pytest.raises(ValueError):
            s.coeffs[0] = 1.0

    def test_mismatched_bands_raise(self):
        a = Spectrum(1, np.zeros(3))
        b = Spectrum(2, np.zeros(5))
        with pytest.raises(ValueError, match="cut-off"):
            add(a, b)
        with pytest.raises(ValueError, match="cut-off"):
            pointwise_mul(a, b)


class TestSpikeFourier:
    def test_single_spike_at_origin(self):
        s = spike_fourier(SpikeTrain([0.0], [2.0]), 3)
        assert np.allclose(s.coeffs, 2.0)

    def test_spot_values_against_direct_sum(self):
        tau = [0.2995, 0.7005]
        alpha = [10.0, -5.0]
        s = spike_fourier(SpikeTrain(tau, alpha), 5)
        for l in (-5, -1, 0, 3):
            expected = sum(
                a * np.exp(-2j * np.pi * l * t) for t, a in zip(tau, alpha)
            )
            assert s.coeffs[l + s.f_c] == pytest.approx(expected, abs=1e-12)

    def test_zero_frequency_is_total_mass(self):
        s = spike_fourier(SpikeTrain([0.1, 0.6], [3.0, -1.0]), 4)
        assert s.coeffs[s.f_c] == pytest.approx(2.0)

    def test_evaluation_recovers_dirichlet_peak(self):
        # The band-limited image of a unit spike is the Dirichlet kernel:
        # value N at the spike position.
        f_c = 10
        s = spike_fourier(SpikeTrain([0.37], [1.0]), f_c)
        assert eval_point(s, 0.37) == pytest.approx(2 * f_c + 1)

    @given(unit, unit)
    @settings(max_examples=20)
    def test_shift_covariance(self, t, shift):
        # Shifting the spike multiplies coefficient l by e^{-i 2 pi l shift}.
        f_c = 6
        base = spike_fourier(SpikeTrain([t], [1.0]), f_c)
        moved = spike_fourier(SpikeTrain([(t + shift) % 1.0], [1.0]), f_c)
        phase = np.exp(-2j * np.pi * ells(f_c) * shift)
        assert np.allclose(moved.coeffs, base.coeffs * phase, atol=1e-9)


class TestSynthNoise:
    def test_exact_energy(self):
        for nu in (0.025, 0.1, 1.0):
            s = synth_noise(50, nu, seed=42)
            assert s.energy() == pytest.approx(101 * nu**2, rel=1e-12)

    def test_zero_level(self):
        s = synth_noise(50, 0.0, seed=1)
        assert s.energy() == 0.0

    def test_negative_level_raises(self):
        with pytest.raises(ValueError, match="nu"):
            synth_noise(50, -0.1, seed=1)

    def test_deterministic_in_seed(self):
        a = synth_noise(20, 0.1, seed=7)
        b = synth_noise(20, 0.1, seed=7)
        c = synth_noise(20, 0.1, seed=8)
        assert np.array_equal(a.coeffs, b.coeffs)
        assert not np.array_equal(a.coeffs, c.coeffs)

    def test_hermitian_symmetry(self):
        s = synth_noise(30, 0.5, seed=3)
        assert np.allclose(s.coeffs, np.conj(s.coeffs[::-1]))

    def test_time_domain_real(self):
        s = synth_noise(10, 0.3, seed=9)
        values = eval_grid(s, 64)
        assert values.dtype == float


class TestEvalGrid:
    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(0)
        f_c = 7
        pos = rng.standard_normal(f_c) + 1j * rng.standard_normal(f_c)
        coeffs = np.concatenate([np.conj(pos[::-1]), [rng.standard_normal()], pos])
        s = Spectrum(f_c, coeffs, real_signal=True)
        m = 40
        values = eval_grid(s, m)
        for k in range(m):
            expected = naive_eval(coeffs, f_c, k / m)
            assert values[k] == pytest.approx(expected.real, abs=1e-10)
            assert abs(expected.imag) < 1e-10

    def test_grid_too_coarse_raises(self):
        s = spike_fourier(SpikeTrain([0.5], [1.0]), 5)
        with pytest.raises(ValueError, match="coarse"):
            eval_grid(s, 10)

    def test_minimum_grid_allowed(self):
        s = spike_fourier(SpikeTrain([0.5], [1.0]), 5)
        assert eval_grid(s, s.n).shape == (s.n,)

    def test_eval_point_cross_check(self):
        s = spike_fourier(SpikeTrain([0.123, 0.777], [2.0, -3.0]), 12)
        values = eval_grid(s, 100)
        for k in (0, 17, 50, 99):
            assert values[k] == pytest.approx(eval_point(s, k / 100), abs=1e-9)

    def test_parseval(self):
        # mean square of the time samples equals the coefficient energy
        s = synth_noise(15, 0.7, seed=11)
        m = 8 * s.n
        values = eval_grid(s, m)
        assert np.mean(values**2) == pytest.approx(s.energy(), rel=1e-10)

    @pytest.mark.parametrize("f_c", [50, 1000])
    def test_half_band_matches_full_band_oracle(self, f_c):
        # The half-band sums equal the complex whole-band sums, whose
        # imaginary part vanishes because the spectrum is Hermitian.
        s = seeded_real_spectrum(f_c, seed=f_c)
        ref = full_band_grid(s, 32 * s.n)
        scale = np.abs(ref).max()
        assert np.abs(ref.imag).max() <= 1e-12 * scale
        assert np.abs(eval_grid(s, 32 * s.n) - ref.real).max() <= 1e-12 * scale
        for t in np.random.Generator(np.random.Philox(f_c)).random(20):
            ref = full_band_point(s, t)
            assert abs(ref.imag) <= 1e-12 * scale
            assert abs(eval_point(s, t) - ref.real) <= 1e-12 * scale

    def test_scaled_in_place_bit_for_bit(self):
        s = seeded_real_spectrum(1000, seed=3)
        m = 32 * s.n
        assert np.array_equal(eval_grid(s, m), m * np.fft.irfft(s.coeffs[s.f_c:], m))

    def test_requires_real_signal_flag(self):
        s = Spectrum(2, np.arange(5, dtype=complex))
        with pytest.raises(ValueError, match="real_signal"):
            eval_grid(s, 16)
        with pytest.raises(ValueError, match="real_signal"):
            eval_point(s, 0.3)


class TestSmoothLen:
    def test_matches_scipy_next_fast_len(self):
        got = [smooth_len(n) for n in range(1, 20001)]
        assert got == [next_fast_len(n, real=True) for n in range(1, 20001)]

    @pytest.mark.parametrize("f_c", [1000, 1500, 2000, 2500, 4000])
    def test_phase1_grids(self, f_c):
        m = 32 * (2 * f_c + 1)
        assert smooth_len(m) == next_fast_len(m, real=True)


class TestPhasors:
    # f_c = 2 and 50 leave padding in the J x B blocks; f_c = 3 and 8 are B^2 - 1.
    F_CS = [1, 2, 3, 8, 50, 1000, 4000]
    TS = np.array([-0.731, -1e-3, 0.0, 0.25, 0.5, 0.3183, 1.0 - 1e-9, np.nextafter(1.0, 0.0)])

    @pytest.mark.parametrize("f_c", F_CS)
    def test_matches_direct_exp(self, f_c):
        ref = np.exp(2j * np.pi * np.outer(np.arange(f_c + 1), self.TS))
        e = phasors(f_c, self.TS)
        assert e.shape == ref.shape
        assert np.abs(e - ref).max() <= 16 * (f_c + 1) * np.finfo(float).eps

    @pytest.mark.parametrize("f_c", F_CS)
    def test_block_sum_matches_weighted_dot(self, f_c):
        rng = np.random.Generator(np.random.Philox(f_c))
        c = rng.standard_normal((3, f_c + 1)) + 1j * rng.standard_normal((3, f_c + 1))
        cb = blocks(c)
        for t in self.TS:
            ref = (c @ np.exp(2j * np.pi * np.arange(f_c + 1) * t)).real
            got = block_sum(cb, t)
            assert got.shape == (3,)
            assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(c).sum(axis=1))
            assert abs(block_sum(cb[1], t) - ref[1]) <= 1e-12 * np.abs(c[1]).sum()


class TestCsvRoundTrip:
    def test_bit_exact(self, tmp_path):
        s = synth_noise(25, 0.3, seed=5)
        path = tmp_path / "spec.csv"
        save_spectrum_csv(s, path)
        t = load_spectrum_csv(path)
        assert t.f_c == s.f_c
        assert np.array_equal(t.coeffs, s.coeffs)

    def test_header_format(self, tmp_path):
        s = spike_fourier(SpikeTrain([0.5], [1.0]), 2)
        path = tmp_path / "spec.csv"
        save_spectrum_csv(s, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "l,re,im"
        assert len(lines) == 1 + s.n

    def test_non_finite_value_raises(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("l,re,im\n-1,1,0\n0,nan,0\n1,1,0\n")
        with pytest.raises(ValueError, match="finite"):
            load_spectrum_csv(path)

    def test_bad_band_raises(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("l,re,im\n0,1,0\n1,1,0\n")
        with pytest.raises(ValueError, match="contiguous"):
            load_spectrum_csv(path)
