"""Measurement model: spike trains, band-limited spectra, and evaluation.

A Spectrum holds the complex Fourier coefficients of a signal band-limited
to l in [-f_C : f_C]; coeffs[i] corresponds to frequency l = i - f_C.
Spike trains produce such spectra; band-limited noise is synthesized with
exact total energy; trigonometric polynomials are evaluated on grids via
zero-padded inverse real FFT or pointwise by a direct block sum, both over
l >= 0 only (see `half_band`).

Phasors e^{2 pi i l t}, l = 0 .. f_C, are built from about 2 sqrt(N)
exponentials: with l = j B + k, B = isqrt(f_C) + 1, each is the product of
e^{2 pi i j B t} and e^{2 pi i k t} (see `phasors` and `block_sum`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .circle import positions, separation

HERMITIAN_RTOL = 1e-12


def ells(f_c: int) -> np.ndarray:
    """Frequency indices -f_C .. f_C."""
    return np.arange(-f_c, f_c + 1)


@lru_cache(maxsize=16)
def half_band(f_c: int) -> tuple[np.ndarray, np.ndarray]:
    """l = 0 .. f_C and weights w with sum_{|l| <= f_C} a[l] = Re sum_{l >= 0} w[l] a[l].

    It holds for Hermitian a: real signals' spectra and their products with even
    real kernels or powers of 2 pi i l. Symmetry is checked where a real_signal
    Spectrum is made, so the folded sums need no imaginary-residue check.
    Both arrays are cached per f_C and read-only.
    """
    ls = np.arange(f_c + 1)
    weights = np.where(ls == 0, 1.0, 2.0)
    ls.setflags(write=False)
    weights.setflags(write=False)
    return ls, weights


def _split(f_c: int) -> tuple[int, int]:
    """(J, B): l = 0 .. f_C as l = j B + k, B = isqrt(f_C) + 1, J = ceil((f_C + 1) / B)."""
    b = math.isqrt(f_c) + 1
    return -(-(f_c + 1) // b), b


@lru_cache(maxsize=16)
def _factor_freqs(j: int, b: int) -> np.ndarray:
    """2 pi i [0, 1, .., B - 1, 0, B, .., (J - 1) B]: the lo factors' frequencies, then the hi ones'."""
    w = 2j * np.pi * np.concatenate([np.arange(b), b * np.arange(j)])
    w.setflags(write=False)
    return w


def phasors(f_c: int, t) -> np.ndarray:
    """e^{2 pi i l t[i]} at row l = 0 .. f_C, column i, as e^{2 pi i j B t} e^{2 pi i k t}
    (see `_split`): J + B exponentials and N complex products per position.

    The error is that of the direct exp: both are set by the rounding of the
    argument 2 pi l t.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    j, b = _split(f_c)
    e = np.exp(np.multiply.outer(_factor_freqs(j, b), t))
    return (e[b:, None, :] * e[None, :b, :]).reshape(-1, t.size)[: f_c + 1]


def blocks(c: np.ndarray) -> np.ndarray:
    """Rows c[..., l], l = 0 .. f_C, zero-padded and reshaped to J x B blocks,
    with l = j B + k at [..., j, k] (see `_split`), for `block_sum`."""
    j, b = _split(c.shape[-1] - 1)
    padded = np.zeros(c.shape[:-1] + (j * b,), dtype=c.dtype)
    padded[..., : c.shape[-1]] = c
    return padded.reshape(c.shape[:-1] + (j, b))


def block_sum(cb: np.ndarray, t) -> np.ndarray:
    """Re sum_l c[..., l] e^{2 pi i l t} for c in `blocks` form, as Re(hi^T C lo),
    with shape t.shape + cb.shape[:-2] for a scalar or 1-D t.

    Each point is its own matrix-vector product in one stacked `np.matmul`, never
    one matrix product across the points, so a point's bits do not depend on how
    many points share the call.
    """
    j, b = cb.shape[-2:]
    t = np.asarray(t, dtype=float)
    e = np.exp(t.reshape(-1, 1) * _factor_freqs(j, b))[..., None]  # W x (B + J) x 1
    rows = np.matmul(cb.reshape(-1, b), e[:, :b])  # W x (lead * J) x 1
    return np.matmul(rows.reshape(t.size, -1, j), e[:, b:]).real.reshape(t.shape + cb.shape[:-2])


@dataclass(frozen=True)
class SpikeTrain:
    """Atomic measure: positions on the circle plus real amplitudes."""

    positions: np.ndarray
    amplitudes: np.ndarray

    def __post_init__(self):
        pos = positions(self.positions)
        amp = np.atleast_1d(np.asarray(self.amplitudes, dtype=float))
        if pos.size != amp.size:
            raise ValueError("positions and amplitudes must have equal length")
        if not np.isfinite(amp).all():
            raise ValueError("amplitudes must be finite")
        if pos.size > 1 and separation(pos) == 0.0:
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
        if not np.isfinite(coeffs).all():  # NaN would pass the Hermitian test below
            raise ValueError("coefficients must be finite")
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


@lru_cache(maxsize=16)
def smooth_len(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n: an FFT length with only small prime factors.

    A real FFT of prime length can be 20x slower than one at the next such length.
    """
    best = 1 << max(n - 1, 0).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:  # p35 = 3^b 5^c; times the least power of 2 that reaches n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def eval_grid(s: Spectrum, m: int) -> np.ndarray:
    """Evaluate the real signal on the uniform grid t = k/M via zero-padded inverse real FFT."""
    if not s.real_signal:
        raise ValueError("eval_grid requires a real_signal spectrum")
    if m < s.n:
        raise ValueError("grid too coarse")
    grid = np.fft.irfft(s.coeffs[s.f_c:], m)
    grid *= m
    return grid


def eval_point(s: Spectrum, t: float) -> float:
    """Evaluate the real signal at a single position by direct summation (`block_sum`)."""
    if not s.real_signal:
        raise ValueError("eval_point requires a real_signal spectrum")
    return float(block_sum(blocks(half_band(s.f_c)[1] * s.coeffs[s.f_c:]), t))


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
