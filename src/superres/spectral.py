"""Measurement model: spike trains, band-limited spectra, and evaluation.

A Spectrum holds the complex Fourier coefficients of a signal band-limited
to l in [-f_C : f_C]; coeffs[i] corresponds to frequency l = i - f_C.
Spike trains produce such spectra; band-limited noise is synthesized with
exact total energy; trigonometric polynomials are evaluated on grids via
zero-padded inverse real FFT or pointwise by a direct sum over phasors,
both over l >= 0 only (see `half_band`).

Phasors e^{2 pi i l t}, l = 0 .. f_C, are built from about 2 sqrt(N)
exponentials: with l = j B + k, B = isqrt(f_C) + 1, each is the product of
e^{2 pi i j B t} and e^{2 pi i k t}. `phasor_rows` is the one builder:
`spike_fourier` and `eval_point` each hand it their own buffer, and the
dictionary, whose positions are already a float array, hands its buffer to the
core, `write_phasors`, which skips the conversion.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from functools import lru_cache

import numpy as np

from .circle import positions, sorted_separation

HERMITIAN_RTOL = 1e-12


def ells(f_c: int) -> np.ndarray:
    """Frequency indices -f_C .. f_C."""
    return np.arange(-f_c, f_c + 1)


@lru_cache(maxsize=16)
def half_band(f_c: int) -> tuple[np.ndarray, np.ndarray]:
    """l = 0 .. f_C and weights w with sum_{|l| <= f_C} a[l] = Re sum_{l >= 0} w[l] a[l].

    It holds for Hermitian a: real signals' spectra and their products with even
    real kernels or powers of 2 pi i l. Symmetry is checked where a Spectrum
    is made, so the folded sums need no imaginary-residue check.
    Both arrays are cached per f_C and read-only.
    """
    ls = np.arange(f_c + 1)
    weights = np.where(ls == 0, 1.0, 2.0)
    ls.setflags(write=False)
    weights.setflags(write=False)
    return ls, weights


@lru_cache(maxsize=16)
def _factors(f_c: int) -> tuple[int, np.ndarray]:
    """B = isqrt(f_C) + 1 and 2 pi i [0, 1, .., B - 1, 0, B, .., (J - 1) B] with
    J = ceil((f_C + 1) / B): the lo factors' frequencies, then the hi ones' (see `phasor_rows`)."""
    b = math.isqrt(f_c) + 1
    w = 2j * np.pi * np.concatenate([np.arange(b), b * np.arange(-(-(f_c + 1) // b))])
    w.setflags(write=False)
    return b, w


def phasor_width(f_c: int) -> int:
    """J B, the columns that `phasor_rows` writes: f_C + 1 rounded up to whole blocks of B."""
    b, w = _factors(f_c)
    return (w.size - b) * b


def phasor_rows(f_c: int, t, out: np.ndarray) -> np.ndarray:
    """e^{2 pi i l t[i]} at row i, column l = 0 .. f_C: written into out, of len(t) x
    `phasor_width(f_c)` entries, and returned as out's view on its first f_C + 1 columns.

    Each is e^{2 pi i j B t} e^{2 pi i k t} for l = j B + k (see `_factors`), so J + B
    exponentials and J B complex products per position, all in one multiply with no
    J x B temporary; the columns past f_C are the last block's padding. The error is
    that of the direct exp: both are set by the rounding of the argument 2 pi l t.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    write_phasors(f_c, t, out)
    return out[:, :f_c + 1]


def write_phasors(f_c: int, t: np.ndarray, out: np.ndarray) -> None:
    """`phasor_rows` at a 1-D float array t, taken as it is: no conversion, no return."""
    b, w = _factors(f_c)
    e = np.exp(np.multiply.outer(t, w))
    np.multiply(e[:, b:, None], e[:, None, :b], out=out.reshape(t.size, -1, b))


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
        if pos.size > 1 and sorted_separation(np.sort(pos)) == 0.0:  # pos is wrapped
            raise ValueError("positions must be distinct")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "amplitudes", amp)


@dataclass(frozen=True)
class Spectrum:
    """Complex Fourier coefficients on the band [-f_C : f_C] of a real signal, so
    Hermitian-symmetric: checked on construction."""

    f_c: int
    coeffs: np.ndarray
    real_signal: InitVar[bool] = True  # init-only: a complex signal's spectrum raises

    def __post_init__(self, real_signal):
        if not real_signal:
            raise ValueError("a Spectrum is a real signal's: real_signal must be True")
        if self.f_c < 1:
            raise ValueError("f_c must be >= 1")
        coeffs = np.asarray(self.coeffs, dtype=complex)
        if coeffs.shape != (2 * self.f_c + 1,):
            raise ValueError("coeffs must have length 2*f_c + 1")
        # |c| is C99 hypot: inf if either part is, else NaN if either part is, so every
        # non-finite entry fails here (NaN would pass the Hermitian test below)
        top = np.abs(coeffs).max()
        if not top < np.inf:
            raise ValueError("coefficients must be finite")
        coeffs = coeffs.copy()
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)
        scale = max(top, 1e-300)
        # |c[l] - conj(c[-l])| is |c[-l] - conj(c[l])| bit for bit, so l >= 0 suffices
        if np.abs(coeffs[self.f_c:] - coeffs[self.f_c::-1].conj()).max() > HERMITIAN_RTOL * scale:
            raise ValueError("coefficients are not Hermitian-symmetric")

    @property
    def n(self) -> int:
        return 2 * self.f_c + 1


def spike_fourier(x: SpikeTrain, f_c: int) -> Spectrum:
    """Fourier coefficients of a spike train: sum_i alpha_i e^{-i 2 pi l tau_i}.

    The half band l >= 0 is the phasors, written by `phasor_rows` into a column
    per spike, times alpha; l < 0 is its conjugate mirror, so the spectrum is
    Hermitian by construction.
    """
    if f_c < 1:
        raise ValueError("f_c must be >= 1")
    cols = np.empty((phasor_width(f_c), x.positions.size), dtype=complex)
    half = phasor_rows(f_c, -x.positions, cols.T).T @ x.amplitudes
    return Spectrum(f_c, np.concatenate([np.conj(half[:0:-1]), half]))


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
        return Spectrum(f_c, np.zeros(n, dtype=complex))
    rng = np.random.Generator(np.random.Philox(seed))
    pos = rng.standard_normal(f_c) + 1j * rng.standard_normal(f_c)
    dc = rng.standard_normal()
    coeffs = np.concatenate([np.conj(pos[::-1]), [dc], pos])
    energy = np.sum(np.abs(coeffs) ** 2)
    coeffs *= np.sqrt(n * nu**2 / energy)
    return Spectrum(f_c, coeffs)


def add(a: Spectrum, b: Spectrum) -> Spectrum:
    """Entrywise sum of two spectra with matching bands."""
    if a.f_c != b.f_c:
        raise ValueError("mismatched cut-off frequencies")
    return Spectrum(a.f_c, a.coeffs + b.coeffs)


def pointwise_mul(a: Spectrum, b: Spectrum) -> Spectrum:
    """Entrywise product; implements circular convolution in time."""
    if a.f_c != b.f_c:
        raise ValueError("mismatched cut-off frequencies")
    return Spectrum(a.f_c, a.coeffs * b.coeffs)


@lru_cache(maxsize=16)
def smooth_len(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n: an FFT length with only small prime factors.

    A real FFT of prime length can be 20x slower than one at the next such length.
    """
    # scipy.fft.next_fast_len(n, real=True) agrees, but importing scipy.fft slows import.
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
    if m < s.n:
        raise ValueError("grid too coarse")
    grid = np.fft.irfft(s.coeffs[s.f_c:], m)
    grid *= m
    return grid


def eval_point(s: Spectrum, t: float) -> float:
    """Evaluate the real signal at one position: the weighted half band dotted with a phasor row."""
    row = phasor_rows(s.f_c, t, np.empty((1, phasor_width(s.f_c)), dtype=complex))[0]
    return float((half_band(s.f_c)[1] * s.coeffs[s.f_c:] @ row).real)


def save_spectrum_csv(s: Spectrum, path) -> None:
    """Write `l,re,im` rows with 17 significant digits (bit-exact round trip)."""
    with open(path, "w") as fh:
        fh.write("l,re,im\n")
        for l, c in zip(ells(s.f_c), s.coeffs):
            fh.write(f"{l},{c.real:.17g},{c.imag:.17g}\n")


def load_spectrum_csv(path) -> Spectrum:
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, usecols=(0, 1, 2))
    f_c = (len(rows) - 1) // 2  # l is compared as read: 1.7 is not truncated to 1
    if len(rows) % 2 == 0 or not np.array_equal(rows[:, 0], ells(f_c)):
        raise ValueError("spectrum CSV must cover l = -f_C .. f_C contiguously")
    return Spectrum(f_c, rows[:, 1] + 1j * rows[:, 2])
