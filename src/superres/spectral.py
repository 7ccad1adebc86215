"""Measurement model: spike trains, band-limited spectra, and evaluation.

A Spectrum holds the complex Fourier coefficients of a signal band-limited
to l in [-f_C : f_C]; coeffs[i] corresponds to frequency l = i - f_C.
Spike trains produce such spectra; band-limited noise is synthesized with
exact total energy; trigonometric polynomials are evaluated on grids via
zero-padded inverse real FFT or pointwise by direct summation, both over
l >= 0 only (see `half_band`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .circle import wrap, wrap_dist

HERMITIAN_RTOL = 1e-12


def ells(f_c: int) -> np.ndarray:
    """Frequency indices -f_C .. f_C."""
    return np.arange(-f_c, f_c + 1)


def half_band(f_c: int) -> tuple[np.ndarray, np.ndarray]:
    """l = 0 .. f_C and weights w with sum_{|l| <= f_C} a[l] = Re sum_{l >= 0} w[l] a[l].

    It holds for Hermitian a: real signals' spectra and their products with even
    real kernels or powers of 2 pi i l. Symmetry is checked where a real_signal
    Spectrum is made, so the folded sums need no imaginary-residue check.
    """
    ls = np.arange(f_c + 1)
    return ls, np.where(ls == 0, 1.0, 2.0)


@dataclass(frozen=True)
class SpikeTrain:
    """Atomic measure: positions on the circle plus real amplitudes."""

    positions: np.ndarray
    amplitudes: np.ndarray

    def __post_init__(self):
        pos = wrap(np.atleast_1d(np.asarray(self.positions, dtype=float)))
        amp = np.atleast_1d(np.asarray(self.amplitudes, dtype=float))
        if pos.size != amp.size or pos.size < 1:
            raise ValueError("positions and amplitudes must have equal length >= 1")
        if pos.size > 1:
            d = wrap_dist(pos[:, None], pos[None, :])
            iu = np.triu_indices(pos.size, k=1)
            if np.any(d[iu] == 0.0):
                raise ValueError("positions must be distinct")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "amplitudes", amp)

    def __len__(self) -> int:
        return self.positions.size


@dataclass(frozen=True)
class Spectrum:
    """Complex Fourier coefficients on the band [-f_C : f_C]."""

    f_c: int
    coeffs: np.ndarray
    real_signal: bool = field(default=False)

    def __post_init__(self):
        if self.f_c < 1:
            raise ValueError("f_c must be >= 1")
        coeffs = np.asarray(self.coeffs, dtype=complex)
        if coeffs.shape != (2 * self.f_c + 1,):
            raise ValueError("coeffs must have length 2*f_c + 1")
        coeffs = coeffs.copy()
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)
        if self.real_signal:
            mirrored = np.conj(coeffs[::-1])
            scale = max(np.abs(coeffs).max(), 1e-300)
            if np.abs(coeffs - mirrored).max() > HERMITIAN_RTOL * scale:
                raise ValueError("coefficients are not Hermitian-symmetric")

    @property
    def n(self) -> int:
        return 2 * self.f_c + 1

    def __getitem__(self, l: int) -> complex:
        """Coefficient at frequency l (signed index)."""
        return complex(self.coeffs[l + self.f_c])

    def energy(self) -> float:
        return float(np.sum(np.abs(self.coeffs) ** 2))


def spike_fourier(x: SpikeTrain, f_c: int) -> Spectrum:
    """Fourier coefficients of a spike train: sum_i alpha_i e^{-i 2 pi l tau_i}."""
    if f_c < 1:
        raise ValueError("f_c must be >= 1")
    phases = np.exp(-2j * np.pi * np.outer(ells(f_c), x.positions))
    return Spectrum(f_c, phases @ x.amplitudes, real_signal=True)


def synth_noise(f_c: int, nu: float, seed: int) -> Spectrum:
    """Hermitian-symmetric Gaussian noise, rescaled to exact energy (2 f_C + 1) nu^2.

    Draws i.i.d. standard complex Gaussians for l = 1..f_C, a real Gaussian
    at l = 0, mirrors conjugates for l < 0, then rescales. Philox is a
    counter-based generator, so output is stable across platforms.
    """
    if nu < 0:
        raise ValueError("nu must be >= 0")
    n = 2 * f_c + 1
    if nu == 0.0:
        return Spectrum(f_c, np.zeros(n, dtype=complex), real_signal=True)
    rng = np.random.Generator(np.random.Philox(seed))
    pos = rng.standard_normal(f_c) + 1j * rng.standard_normal(f_c)
    dc = rng.standard_normal()
    coeffs = np.concatenate([np.conj(pos[::-1]), [dc], pos])
    energy = np.sum(np.abs(coeffs) ** 2)
    coeffs *= np.sqrt(n * nu**2 / energy)
    return Spectrum(f_c, coeffs, real_signal=True)


def add(a: Spectrum, b: Spectrum) -> Spectrum:
    """Entrywise sum of two spectra with matching bands."""
    if a.f_c != b.f_c:
        raise ValueError("mismatched cut-off frequencies")
    return Spectrum(a.f_c, a.coeffs + b.coeffs, real_signal=a.real_signal and b.real_signal)


def pointwise_mul(a: Spectrum, b: Spectrum) -> Spectrum:
    """Entrywise product; implements circular convolution in time."""
    if a.f_c != b.f_c:
        raise ValueError("mismatched cut-off frequencies")
    return Spectrum(a.f_c, a.coeffs * b.coeffs, real_signal=a.real_signal and b.real_signal)


def eval_grid(s: Spectrum, m: int) -> np.ndarray:
    """Evaluate the real signal on the uniform grid t = k/M via zero-padded inverse real FFT."""
    if not s.real_signal:
        raise ValueError("eval_grid requires a real_signal spectrum")
    if m < s.n:
        raise ValueError("grid too coarse")
    return m * np.fft.irfft(s.coeffs[s.f_c:], m)


def eval_point(s: Spectrum, t: float) -> float:
    """Evaluate the real signal at a single position by direct summation."""
    if not s.real_signal:
        raise ValueError("eval_point requires a real_signal spectrum")
    ls, weights = half_band(s.f_c)
    return float(np.dot(weights * s.coeffs[s.f_c:], np.exp(2j * np.pi * ls * t)).real)


def save_spectrum_csv(s: Spectrum, path) -> None:
    """Write `l,re,im` rows with 17 significant digits (bit-exact round trip)."""
    with open(path, "w") as fh:
        fh.write("l,re,im\n")
        for l, c in zip(ells(s.f_c), s.coeffs):
            fh.write(f"{l},{c.real:.17g},{c.imag:.17g}\n")


def load_spectrum_csv(path, real_signal: bool = True) -> Spectrum:
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, usecols=(0, 1, 2))
    ls = rows[:, 0].astype(int)
    if ls.size == 0 or ls[0] != -ls[-1] or np.any(np.diff(ls) != 1):
        raise ValueError("spectrum CSV must cover l = -f_C .. f_C contiguously")
    return Spectrum(int(ls[-1]), rows[:, 1] + 1j * rows[:, 2], real_signal=real_signal)
