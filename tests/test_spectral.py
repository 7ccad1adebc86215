"""Spike spectra, synthesized noise, grid evaluation, CSV round trips."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len

import superres
from superres.spectral import (
    HERMITIAN_RTOL,
    SpikeTrain,
    Spectrum,
    add,
    ells,
    eval_grid,
    eval_point,
    load_spectrum_csv,
    _factors,
    phasor_rows,
    phasor_width,
    pointwise_mul,
    save_spectrum_csv,
    smooth_len,
    spike_fourier,
    synth_noise,
    write_phasors,
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


def phasors(f_c, t):
    """Reference phasors, row l = 0 .. f_C and column i: the J x B products
    e^{2 pi i j B t} e^{2 pi i k t} of `_factors`, formed whole and cut to f_C + 1 rows.

    `phasor_rows`, `spike_fourier` and `eval_point` equal it bit for bit.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    b, w = _factors(f_c)
    e = np.exp(np.multiply.outer(w, t))
    return (e[b:, None, :] * e[None, :b, :]).reshape(-1, t.size)[: f_c + 1]


def full_band_point(s, t):
    """Reference point value: complex direct sum over the whole band."""
    return np.sum(s.coeffs * np.exp(2j * np.pi * ells(s.f_c) * t))


def energy(s):
    """Sum of |c_l|^2 over the band."""
    return float(np.sum(np.abs(s.coeffs) ** 2))


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
            Spectrum(1, bad)
        # only a real signal's spectrum can be made
        with pytest.raises(ValueError, match="real_signal must be True"):
            Spectrum(1, np.zeros(3), real_signal=False)

    def test_half_band_residue_is_the_full_band_one(self):
        # |c[l] - conj(c[-l])| and |c[-l] - conj(c[l])| are equal bit for bit, so the
        # check reads l >= 0 only: the same spectra pass and fail
        rng = np.random.default_rng(3)
        for f_c in (1, 2, 50, 1000):
            for _ in range(50):
                c = seeded_real_spectrum(f_c, int(rng.integers(2**31))).coeffs.copy()
                noise = rng.standard_normal(c.size) + 1j * rng.standard_normal(c.size)
                c += noise * 10.0 ** rng.uniform(-16, -8)
                full = np.abs(c - np.conj(c[::-1]))
                half = np.abs(c[f_c:] - np.conj(c[f_c::-1]))
                assert half.max() == full.max()
                assert np.array_equal(half, full[f_c:]) and np.array_equal(half, full[f_c::-1])

    @pytest.mark.parametrize("factor, ok", [(0.9, True), (1.1, False)])
    @pytest.mark.parametrize("i", [50, 51, 100, 0, 30], ids=["l0", "l1", "l50", "l-50", "l-20"])
    def test_residue_at_the_tolerance(self, factor, ok, i):
        # The scale is max |c| over the full band, 2 here (at l = +-50). Moving one
        # coefficient by delta makes the residue delta (2 Im c[0] = delta at l = 0).
        c = seeded_real_spectrum(50, 1).coeffs.copy()
        c /= np.abs(c).max()
        c[0] = c[100] = 2.0
        delta = factor * HERMITIAN_RTOL * 2.0
        c[i] += 0.5j * delta if i == 50 else delta
        if ok:
            Spectrum(50, c)
        else:
            with pytest.raises(ValueError, match="Hermitian"):
                Spectrum(50, c)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan), -np.inf,
                                     complex(np.nan, np.inf), complex(np.inf, np.nan),
                                     complex(0.0, -np.inf)])
    def test_non_finite_coefficients_raise(self, bad):
        # NaN compares false, so it would pass the Hermitian test. One max of |c| is
        # the finiteness test and the Hermitian test's scale: |c| is C99 hypot, inf
        # when either part is, even beside a NaN.
        coeffs = spike_fourier(SpikeTrain([0.3], [1.0]), 50).coeffs.copy()
        coeffs[50] = bad
        with pytest.raises(ValueError, match="^coefficients must be finite$"):
            Spectrum(50, coeffs)

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

    @pytest.mark.parametrize("f_c", [1, 50, 1000, 4000])
    def test_hermitian_and_matches_full_band_exp(self, f_c):
        # The half band comes from `phasor_rows` and is mirrored, so the spectrum is
        # Hermitian bit for bit; its error is the direct exp's, from rounding 2 pi l tau.
        rng = np.random.default_rng(f_c)
        x = SpikeTrain(rng.random(14), rng.standard_normal(14))
        coeffs = spike_fourier(x, f_c).coeffs
        assert np.array_equal(coeffs, np.conj(coeffs[::-1]))
        direct = np.exp(-2j * np.pi * np.outer(ells(f_c), x.positions)) @ x.amplitudes
        assert np.abs(coeffs - direct).max() <= 1e-11 * np.abs(x.amplitudes).sum()

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
            assert energy(s) == pytest.approx(101 * nu**2, rel=1e-12)

    def test_zero_level(self):
        s = synth_noise(50, 0.0, seed=1)
        assert energy(s) == 0.0

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
        s = Spectrum(f_c, coeffs)
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
        assert np.mean(values**2) == pytest.approx(energy(s), rel=1e-10)

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


class TestSmoothLen:
    def test_matches_scipy_next_fast_len(self):
        got = [smooth_len(n) for n in range(1, 20001)]
        assert got == [next_fast_len(n, real=True) for n in range(1, 20001)]

    @pytest.mark.parametrize("f_c", [1000, 1500, 2000, 2500, 4000])
    def test_phase1_grids(self, f_c):
        m = 32 * (2 * f_c + 1)
        assert smooth_len(m) == next_fast_len(m, real=True)

    def test_import_leaves_scipy_fft_out(self):
        # next_fast_len is the oracle above, not the library's: importing
        # scipy.fft would land in every cold process's set-up time.
        code = "import sys, superres; print('scipy.fft' in sys.modules)"
        src = str(Path(superres.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.strip() == "False"


class TestPhasors:
    # f_c = 2 and 50 leave padding in the J x B factor products; f_c = 3 and 8 are B^2 - 1.
    F_CS = [1, 2, 3, 8, 50, 1000, 4000]
    TS = np.array([-0.731, -1e-3, 0.0, 0.25, 0.5, 0.3183, 1.0 - 1e-9, np.nextafter(1.0, 0.0)])

    @pytest.mark.parametrize("f_c", F_CS)
    def test_matches_direct_exp(self, f_c):
        ref = np.exp(2j * np.pi * np.outer(self.TS, np.arange(f_c + 1)))
        e = phasor_rows(f_c, self.TS, np.empty((self.TS.size, phasor_width(f_c)), dtype=complex))
        assert np.abs(e - ref).max() <= 16 * (f_c + 1) * np.finfo(float).eps

    @pytest.mark.parametrize("f_c", F_CS)
    def test_rows_are_the_transposed_phasors_bit_for_bit(self, f_c):
        # Written into the top rows of a taller array, as build_G does, leaving the rest;
        # the result is the view on the first f_C + 1 columns, whole blocks past them.
        width = phasor_width(f_c)
        assert f_c + 1 <= width < f_c + 1 + _factors(f_c)[0]
        out = np.full((self.TS.size + 2, width), 7.0 + 0j)
        rows = phasor_rows(f_c, self.TS, out[: self.TS.size])
        assert rows.base is out and rows.shape == (self.TS.size, f_c + 1)
        assert np.array_equal(rows, phasors(f_c, self.TS).T)
        assert (out[self.TS.size:] == 7.0).all()

    @pytest.mark.parametrize("f_c", F_CS)
    def test_write_phasors_is_phasor_rows_bit_for_bit(self, f_c):
        # The dictionary's path: the same rows, written from a float array as given.
        out, core = (np.empty((self.TS.size, phasor_width(f_c)), dtype=complex)
                     for _ in range(2))
        phasor_rows(f_c, list(self.TS), out)
        assert write_phasors(f_c, self.TS, core) is None
        assert np.array_equal(core, out)

    @pytest.mark.parametrize("f_c", F_CS)
    def test_spike_fourier_half_band_is_the_phasor_product_bit_for_bit(self, f_c):
        # Columns times amplitudes, as the reference is laid out: amplitudes @ rows
        # sums in another order and moves the rounding.
        for k in (1, 3, 14, 29):
            rng = np.random.default_rng([f_c, k])
            x = SpikeTrain(rng.random(k), rng.standard_normal(k))
            half = spike_fourier(x, f_c).coeffs[f_c:]
            assert np.array_equal(half, phasors(f_c, -x.positions) @ x.amplitudes)

    @pytest.mark.parametrize("f_c", F_CS)
    def test_eval_point_matches_full_band_dot(self, f_c):
        rng = np.random.Generator(np.random.Philox(f_c))
        half = rng.standard_normal(f_c + 1) + 1j * rng.standard_normal(f_c + 1)
        half[0] = half[0].real
        s = Spectrum(f_c, np.concatenate([np.conj(half[:0:-1]), half]))
        w = np.where(np.arange(f_c + 1) == 0, 1.0, 2.0)
        for t in self.TS:
            ref = full_band_point(s, t)
            assert abs(ref.imag) <= 1e-12 * np.abs(s.coeffs).sum()
            assert abs(eval_point(s, t) - ref.real) <= 1e-12 * np.abs(s.coeffs).sum()
            assert eval_point(s, t) == (w * half @ phasors(f_c, t)).real[0]  # bit for bit


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

    # truncated, l = -1, 0, 1.7 would read as the band of f_C = 1; nan and 1e300
    # would make an integer cast warn
    @pytest.mark.parametrize("first, last", [(-1, 1.7), ("nan", 1), (-1e300, 1e300)],
                             ids=["fractional", "nan", "huge"])
    def test_non_integer_l_raises(self, tmp_path, first, last):
        path = tmp_path / "bad_l.csv"
        path.write_text(f"l,re,im\n{first},1,0\n0,1,0\n{last},1,0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="contiguous"):
                load_spectrum_csv(path)
