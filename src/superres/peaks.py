"""Greedy initialization: iterative peak picking on the filtered measurement.

The measurement spectrum is multiplied by the kernel coefficients (circular
convolution in time), the magnitude of the result is scanned on a fine grid,
and peaks are selected greedily and polished by Newton steps on its derivative.
After each selection the neighborhood of radius 2 sigma around the peak is
erased so nearby lobes of the same spike cannot be picked again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .circle import wrap, wrap_dist
from .slepian import SlepianKernel
from .spectral import Spectrum, eval_grid, half_band, pointwise_mul

NEWTON_STEPS = 3  # quadratic convergence: from one grid cell (1/M) to below 1e-12
MIN_OVERSAMPLE = 4


@dataclass(frozen=True)
class PeakConfig:
    """Knobs for the greedy scan."""

    eta: float = 0.0  # stop once the residual maximum falls to <= eta
    oversample: int = 32  # grid size M = oversample * N
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


def _polish(z: Spectrum, t: float, half_width: float) -> tuple[float, float]:
    """Newton steps on z' from grid point t, clipped to t -/+ half_width; returns (t, |z(t)|).

    Stops where sign(z) z'' >= 0, since |z| is not concave there.
    """
    ls, weights = half_band(z.f_c)
    w = 2j * np.pi * ls
    c0 = weights * z.coeffs[z.f_c:]
    c1 = w * c0  # z'
    c2 = w * c1  # z''
    lo, hi = t - half_width, t + half_width
    for step in range(NEWTON_STEPS + 1):
        e = np.exp(w * t)
        f0, f1, f2 = (np.dot(c, e).real for c in (c0, c1, c2))
        if step == NEWTON_STEPS or np.sign(f0) * f2 >= 0.0:
            break
        t = min(max(t - f1 / f2, lo), hi)
    return wrap(t), abs(f0)


def find_peaks(y: Spectrum, kernel: SlepianKernel, cfg: PeakConfig) -> PeakResult:
    """Greedy peak selection with neighborhood erasure on the filtered signal."""
    if y.f_c != kernel.f_c:
        raise ValueError("measurement and kernel cut-off frequencies differ")
    sigma = kernel.sigma
    z = pointwise_mul(y, kernel.spectrum())
    m = cfg.oversample * y.n
    az = np.abs(eval_grid(z, m))

    cap = math.ceil(1.0 / (2.0 * sigma))
    if cfg.max_peaks is not None:
        cap = min(cap, cfg.max_peaks)

    # Candidates are the grid's local maxima only: a point on the monotone skirt
    # of an erased neighborhood must not be picked ahead of a weak real spike.
    # Erasure only removes candidates, so one sort orders every later choice.
    cand = np.flatnonzero((az >= np.roll(az, 1)) & (az >= np.roll(az, -1)))
    cand = cand[np.argsort(-az[cand], kind="stable")]  # ties: smallest index first
    tau0: list[float] = []
    values: list[float] = []
    iterations = 0
    while len(tau0) < cap and cand.size:
        idx, cand = cand[0], cand[1:]
        iterations += 1
        if az[idx] <= cfg.eta:
            break
        t, value = _polish(z, idx / m, 1.0 / m)
        if tau0 and wrap_dist(t, np.asarray(tau0)).min() <= 2.0 * sigma:
            continue  # the polish slid back onto an earlier pick's lobe
        tau0.append(float(t))
        values.append(float(value))
        cand = cand[wrap_dist(cand / m, t) > 2.0 * sigma]

    return PeakResult(
        k_tilde=len(tau0),
        tau0=np.asarray(tau0),
        peak_values=np.asarray(values),
        iterations=iterations,
    )
