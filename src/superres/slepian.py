"""Construction of the maximally time-concentrated band-limited kernel.

The kernel is the top discrete prolate spheroidal wave function: among unit
energy signals band-limited to [-f_C : f_C], it maximizes the energy inside
the short time window of half-width sigma around the origin. Its Fourier
coefficients are the top Slepian sequence, the top eigenvector of the sinc
Gram matrix. The symmetric tridiagonal matrix that commutes with that Gram
matrix has the same eigenvectors in the same order (Slepian, Bell Syst.
Tech. J. 57, 1978) and is far better conditioned, so only its top eigenpair
is computed. The concentration is that vector's Gram quadratic form, read
from its autocorrelation with one FFT pair of size 2N: a build costs
O(N log N) plus the one-eigenpair tridiagonal solve, never an N x N matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .spectral import Spectrum, half_band


@dataclass(frozen=True)
class SlepianKernel:
    """Top concentrated kernel: unit energy, even coefficients, peak at 0."""

    f_c: int
    c: float
    ghat: np.ndarray  # real Fourier coefficients, index l = -f_C .. f_C
    concentration: float  # fraction of energy inside wrap_dist(t, 0) <= sigma

    def __post_init__(self):
        ghat = np.asarray(self.ghat, dtype=float).copy()
        ghat.setflags(write=False)
        object.__setattr__(self, "ghat", ghat)

    @property
    def n(self) -> int:
        return 2 * self.f_c + 1

    @property
    def sigma(self) -> float:
        return self.c / self.n

    def spectrum(self) -> Spectrum:
        """The coefficients as a Spectrum, built and checked once per kernel."""
        return self._spectrum

    @cached_property
    def _spectrum(self) -> Spectrum:
        return Spectrum(self.f_c, self.ghat.astype(complex))

    @cached_property
    def weighted_half_band(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """sqrt(w), sqrt(w) ghat as complex and 2 pi i l on l = 0 .. f_C, read-only."""
        ls, weights = half_band(self.f_c)
        sqrt_w = np.sqrt(weights)
        arrays = sqrt_w, (sqrt_w * self.ghat[self.f_c:]).astype(complex), 2j * np.pi * ls
        for a in arrays:
            a.setflags(write=False)
        return arrays


def _concentration(ghat: np.ndarray, sigma: float) -> float:
    """ghat^T A ghat for the sinc Toeplitz matrix A[l,m] = sin(2 pi sigma (l-m)) / (pi (l-m)),
    A[l,l] = 2 sigma, from ghat's autocorrelation r[d] = sum_l ghat[l] ghat[l+d]."""
    n = ghat.size
    spec = np.fft.rfft(ghat, 2 * n)
    r = np.fft.irfft(spec.real**2 + spec.imag**2, 2 * n)[:n]
    d = np.arange(1, n, dtype=float)
    sinc = np.sin(2.0 * np.pi * sigma * d) / (np.pi * d)
    return float(r[0] * 2.0 * sigma + 2.0 * (r[1:] @ sinc))


def build_kernel(f_c: int, c: float) -> SlepianKernel:
    """Build the top concentrated kernel for half-width sigma = c / (2 f_C + 1)."""
    if f_c < 1:
        raise ValueError("f_c must be >= 1")
    n = 2 * f_c + 1
    sigma = c / n
    if not 0.0 < sigma < 0.5:
        raise ValueError("sigma out of range")

    k = np.arange(n, dtype=float)
    diag = ((n - 1) / 2.0 - k) ** 2 * np.cos(2.0 * np.pi * sigma)
    off = k[1:] * (n - k[1:]) / 2.0
    _, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(n - 1, n - 1))

    ghat = 0.5 * (vecs[:, 0] + vecs[::-1, 0])  # make evenness exact
    ghat /= np.linalg.norm(ghat)
    # The top eigenvector is one-signed (the off-diagonals are positive), so
    # its sum fixes the sign.
    if ghat.sum() < 0.0:
        ghat = -ghat
    return SlepianKernel(f_c=f_c, c=c, ghat=ghat, concentration=_concentration(ghat, sigma))
