"""Greedy initialization: iterative peak picking on the filtered measurement.

The measurement spectrum is multiplied by the kernel coefficients (circular
convolution in time), the magnitude of the result is scanned on a fine grid,
and peaks are selected greedily and polished by Newton steps on its derivative.
The polish reads z, z' and z'' from their coefficient rows in `spectral.blocks`
form, built once per scan, so a step costs J + B exponentials (about 2 sqrt(N)).
After each selection the neighborhood of radius 2 sigma around the peak is
erased so nearby lobes of the same spike cannot be picked again. Phase 2's
re-seed runs the same scan (`greedy_scan`) on its residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .circle import wrap, wrap_dist
from .slepian import SlepianKernel
from .spectral import Spectrum, block_sum, blocks, eval_grid, half_band, pointwise_mul

NEWTON_STEPS = 3  # quadratic convergence: from one grid cell (1/M) to below 1e-12
OVERSAMPLE = 32  # grid points per coefficient, for phase 1 and the phase-2 re-seed
MIN_OVERSAMPLE = 4


@dataclass(frozen=True)
class PeakConfig:
    """Knobs for the greedy scan."""

    eta: float = 0.0  # stop once the residual maximum falls to <= eta
    oversample: int = OVERSAMPLE  # grid size M = oversample * N
    max_peaks: Optional[int] = None

    def __post_init__(self):
        if self.oversample < MIN_OVERSAMPLE:
            raise ValueError(f"oversample must be >= {MIN_OVERSAMPLE}")
        if self.eta < 0:
            raise ValueError("eta must be >= 0")


@dataclass(frozen=True)
class PeakResult:
    """Estimated spike count and initial positions."""

    k_tilde: int
    tau0: np.ndarray
    peak_values: np.ndarray
    iterations: int


def _derivative_blocks(z: Spectrum) -> np.ndarray:
    """The half-band coefficient rows of z, z' and z'' in `blocks` form, 3 x J x B."""
    ls, weights = half_band(z.f_c)
    w = 2j * np.pi * ls
    c0 = weights * z.coeffs[z.f_c:]
    c1 = w * c0  # z'
    return blocks(np.stack([c0, c1, w * c1]))


def _polish(zb: np.ndarray, t: float, half_width: float) -> tuple[float, float]:
    """Newton steps on z' from grid point t, clipped to t -/+ half_width; returns (t, |z(t)|).

    zb is `_derivative_blocks(z)`. Stops where sign(z) z'' >= 0, since |z| is
    not concave there.
    """
    lo, hi = t - half_width, t + half_width
    for step in range(NEWTON_STEPS + 1):
        f0, f1, f2 = block_sum(zb, t)
        if step == NEWTON_STEPS or np.sign(f0) * f2 >= 0.0:
            break
        t = min(max(t - f1 / f2, lo), hi)
    return wrap(t), abs(f0)


def find_peaks(y: Spectrum, kernel: SlepianKernel, cfg: PeakConfig) -> PeakResult:
    """Greedy peak selection with neighborhood erasure on the filtered signal."""
    if y.f_c != kernel.f_c:
        raise ValueError("measurement and kernel cut-off frequencies differ")
    cap = math.ceil(1.0 / (2.0 * kernel.sigma))
    if cfg.max_peaks is not None:
        cap = min(cap, cfg.max_peaks)
    return greedy_scan(pointwise_mul(y, kernel.spectrum()), kernel.sigma,
                       cfg.oversample * y.n, cap, cfg.eta)


def greedy_scan(z: Spectrum, sigma: float, m: int, cap: int, eta: float = 0.0,
                taken=()) -> PeakResult:
    """At most cap greedy picks of |z| on the M-point grid, each polished off-grid.

    Positions in taken are erased before the first pick and, like the picks,
    reject a polish that slides back to within 2 sigma of them.
    """
    az = np.abs(eval_grid(z, m))
    zb = _derivative_blocks(z)
    # Candidates are the grid's local maxima only: a point on the monotone skirt
    # of an erased neighborhood must not be picked ahead of a weak real spike.
    # Erasure only removes candidates, so one sort orders every later choice.
    cand = np.flatnonzero((az >= np.roll(az, 1)) & (az >= np.roll(az, -1)))
    cand = cand[np.argsort(-az[cand], kind="stable")]  # ties: smallest index first
    occupied = [float(t) for t in np.atleast_1d(taken)]
    for t in occupied:
        cand = cand[wrap_dist(cand / m, t) > 2.0 * sigma]
    tau0: list[float] = []
    values: list[float] = []
    iterations = 0
    while len(tau0) < cap and cand.size:
        idx, cand = cand[0], cand[1:]
        iterations += 1
        if az[idx] <= eta:
            break
        t, value = _polish(zb, idx / m, 1.0 / m)
        if occupied and wrap_dist(t, np.asarray(occupied)).min() <= 2.0 * sigma:
            continue  # the polish slid back onto an earlier pick's (or a taken) lobe
        tau0.append(float(t))
        values.append(float(value))
        occupied.append(float(t))
        cand = cand[wrap_dist(cand / m, t) > 2.0 * sigma]

    return PeakResult(k_tilde=len(tau0), tau0=np.asarray(tau0), peak_values=np.asarray(values),
                      iterations=iterations)
