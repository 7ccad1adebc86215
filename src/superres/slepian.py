"""Construction of the maximally time-concentrated band-limited kernel.

The kernel is the top discrete prolate spheroidal wave function: among unit
energy signals band-limited to [-f_C : f_C], it maximizes the energy inside
the short time window of half-width sigma around the origin. Its Fourier
coefficients are the top Slepian sequence, the top eigenvector of the sinc
Gram matrix. The symmetric tridiagonal matrix T that commutes with that Gram
matrix has the same eigenvectors in the same order (Slepian, Bell Syst.
Tech. J. 57, 1978) and is far better conditioned, so only its top eigenvector
is computed, by inverse iteration (`_top_eigenvector`). The concentration is
that vector's Gram quadratic form, read from its autocorrelation with one FFT
pair of size 2N: a build costs O(N log N) plus a few O(N) tridiagonal solves,
never an N x N matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .spectral import Spectrum, half_band, phasor_width


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
        """sqrt(w), sqrt(w) ghat as complex and 2 pi i l on l = 0 .. f_C, read-only. The
        last two run on with zeros to `phasor_width(f_c)` entries, the width of the rows
        that `spectral.phasor_rows` writes, so that products with those rows are whole."""
        ls, weights = half_band(self.f_c)
        sqrt_w = np.sqrt(weights)
        ghat, two_pi_il = np.zeros((2, phasor_width(self.f_c)), dtype=complex)
        ghat[:ls.size] = sqrt_w * self.ghat[self.f_c:]
        two_pi_il[:ls.size] = 2j * np.pi * ls
        arrays = sqrt_w, ghat, two_pi_il
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


def _shifted_solve(a: list, off: list, off2: list, b: list) -> list | None:
    """x = (mu I - T)^-1 b, a = mu - diag(T), by LDL^T without pivoting, or None when a
    pivot is not positive: then mu I - T is not positive definite, so mu < lambda_max.

    The off-diagonals of T are positive, so where every pivot is, each step adds
    positive terms: x is positive for positive b, and no step cancels."""
    d, y = a[0], b[0]
    if not d > 0.0:
        return None
    mults, z = [], [y / d]
    for ak, e, e2, bk in zip(a[1:], off, off2, b[1:]):
        m = e / d
        d = ak - e2 / d
        if not d > 0.0:
            return None
        y = bk + m * y
        mults.append(m)
        z.append(y / d)
    x = z[-1]
    xs = [x]
    for zk, m in zip(z[-2::-1], mults[::-1]):
        x = zk + m * x
        xs.append(x)
    return xs[::-1]


def _top_eigenvector(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """The unit top eigenvector of the symmetric tridiagonal T with positive off-diagonals,
    by inverse iteration (Parlett, The Symmetric Eigenvalue Problem, 1980).

    The shift mu starts at T's Gershgorin bound and then is the Rayleigh quotient plus
    the residual norm, so it stays at or above lambda_max and mu I - T positive
    definite: `_shifted_solve` needs no pivoting, and a pivot that is not positive ends
    the loop with the last vector. The loop also ends, keeping the new vector, when the
    residual stops falling. The result must be an eigenvector, its residual norm at most
    64 eps (max |diag| + 2 max off), a small multiple of the rounding in T x; and T's top
    eigenvector is its only one-signed one (T is irreducible and its off-diagonals are
    positive), so a positive result certifies that the eigenvector is the top one.
    """
    bound = diag.copy()
    bound[1:] += off
    bound[:-1] += off
    mu = float(bound.max())
    off_list, off2 = off.tolist(), (off * off).tolist()
    b = [1.0] * diag.size
    x, res = None, math.inf
    while (v := _shifted_solve((mu - diag).tolist(), off_list, off2, b)) is not None:
        x = np.array(v)
        x /= math.sqrt(x @ x)
        tx = diag * x
        tx[1:] += off * x[:-1]
        tx[:-1] += off * x[1:]
        rho = float(x @ tx)
        tx -= rho * x
        r = math.sqrt(tx @ tx)
        if not r < res:
            break
        res, mu, b = r, rho + r, x.tolist()
    tol = 64.0 * np.finfo(float).eps * (np.abs(diag).max() + 2.0 * off.max())
    if x is None or not r <= tol:
        raise ArithmeticError("inverse iteration did not converge to an eigenvector")
    if not x.min() > 0.0:
        raise ArithmeticError("inverse iteration did not give a one-signed eigenvector")
    return x


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
    vec = _top_eigenvector(diag, off)

    ghat = 0.5 * (vec + vec[::-1])  # make evenness exact
    ghat /= np.linalg.norm(ghat)
    return SlepianKernel(f_c=f_c, c=c, ghat=ghat, concentration=_concentration(ghat, sigma))
