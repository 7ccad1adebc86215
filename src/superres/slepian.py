"""Construction of the maximally time-concentrated band-limited kernel.

The kernel is the top discrete prolate spheroidal wave function: among unit
energy signals band-limited to [-f_C : f_C], it maximizes the energy inside
the short time window of half-width sigma around the origin. Its Fourier
coefficients are the top Slepian sequence, computed from the symmetric
tridiagonal matrix that commutes with the time-concentration operator
(numerically far better conditioned than the sinc Gram matrix itself).

Only the top TOP_EIGENPAIRS eigenpairs of that tridiagonal matrix are
computed. Their concentrations (Rayleigh quotients of the sinc Gram matrix)
decide the winner, and each Gram product is a Toeplitz matrix-vector product
done as a circulant of size 2N with numpy.fft, so a build costs
O(N log N) plus the selected tridiagonal solve, never an N x N matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .spectral import Spectrum

# Eigenpairs of the commuting matrix whose concentrations are compared. In
# every case measured the most concentrated is the top one; the others guard
# against the two orders disagreeing.
TOP_EIGENPAIRS = 4


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


def _sinc_circulant_spectrum(n: int, sigma: float) -> np.ndarray:
    """rfft of the 2N circulant that embeds the sinc Toeplitz matrix

    A[l,m] = sin(2 pi sigma (l-m)) / (pi (l-m)), A[l,l] = 2 sigma, in its top-left block.
    """
    k = np.arange(1, n, dtype=float)
    col = np.zeros(2 * n)
    col[0] = 2.0 * sigma
    col[1:n] = np.sin(2.0 * np.pi * sigma * k) / (np.pi * k)
    col[n + 1:] = col[n - 1:0:-1]
    return np.fft.rfft(col)


def _gram_quotients(spec: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Rayleigh quotients x^T A x of the columns of vecs, A @ x as a circulant product."""
    n = vecs.shape[0]
    gram_vecs = np.fft.irfft(spec[:, None] * np.fft.rfft(vecs, 2 * n, axis=0), 2 * n, axis=0)[:n]
    return np.einsum("ij,ij->j", vecs, gram_vecs)


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
    _, vecs = eigh_tridiagonal(
        diag, off, select="i", select_range=(max(n - TOP_EIGENPAIRS, 0), n - 1)
    )

    # The commuting matrix's eigenvalue order need not match concentration
    # order, so pick the eigenvector with the largest Gram Rayleigh quotient.
    spec = _sinc_circulant_spectrum(n, sigma)
    ghat = vecs[:, int(np.argmax(_gram_quotients(spec, vecs)))]

    ghat = 0.5 * (ghat + ghat[::-1])  # make evenness exact
    ghat /= np.linalg.norm(ghat)
    if ghat.sum() < 0.0:
        ghat = -ghat
    concentration = float(_gram_quotients(spec, ghat[:, None])[0])
    return SlepianKernel(f_c=f_c, c=c, ghat=ghat, concentration=concentration)
