"""Greedy initialization: iterative peak picking on the filtered measurement.

The measurement spectrum is multiplied by the kernel coefficients (circular
convolution in time), the magnitude of the result is scanned on a fine grid,
and peaks are selected greedily. After each selection the neighborhood of
radius 2 sigma around the peak is erased so nearby lobes of the same spike
cannot be picked again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .circle import wrap, wrap_dist
from .slepian import SlepianKernel
from .spectral import Spectrum, eval_grid, eval_point, pointwise_mul

GOLDEN_ITERS = 40
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class PeakConfig:
    """Knobs for the greedy scan."""

    eta: float = 0.0  # stop once the residual maximum falls to <= eta
    oversample: int = 32  # grid size M = oversample * N
    refine: bool = True  # polish each peak off-grid by golden-section search
    max_peaks: Optional[int] = None

    def __post_init__(self):
        if self.oversample < 4:
            raise ValueError("oversample must be >= 4")
        if self.eta < 0:
            raise ValueError("eta must be >= 0")


@dataclass(frozen=True)
class PeakResult:
    """Estimated spike count and initial positions."""

    k_tilde: int
    tau0: np.ndarray
    peak_values: np.ndarray
    iterations: int


def _golden_max(fn, lo: float, hi: float, iters: int = GOLDEN_ITERS) -> float:
    """Golden-section maximization of a unimodal function on [lo, hi]."""
    a, b = lo, hi
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1, f2 = fn(x1), fn(x2)
    for _ in range(iters):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INVPHI * (b - a)
            f2 = fn(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INVPHI * (b - a)
            f1 = fn(x1)
    return 0.5 * (a + b)


def find_peaks(y: Spectrum, kernel: SlepianKernel, cfg: PeakConfig) -> PeakResult:
    """Greedy peak selection with neighborhood erasure on the filtered signal."""
    if y.f_c != kernel.f_c:
        raise ValueError("measurement and kernel cut-off frequencies differ")
    sigma = kernel.sigma
    z = pointwise_mul(y, kernel.spectrum())
    m = cfg.oversample * y.n
    az = np.abs(eval_grid(z, m))
    grid = np.arange(m) / m

    cap = math.ceil(1.0 / (2.0 * sigma))
    if cfg.max_peaks is not None:
        cap = min(cap, cfg.max_peaks)

    # Only genuine peaks are candidates: a grid point on the monotone skirt
    # just outside an erased neighborhood is not a local maximum and must not
    # be selected ahead of a weak but real spike.
    alive = (az >= np.roll(az, 1)) & (az >= np.roll(az, -1))
    tau0: list[float] = []
    values: list[float] = []
    iterations = 0
    while len(tau0) < cap and alive.any():
        iterations += 1
        masked = np.where(alive, az, -np.inf)
        idx = int(np.argmax(masked))  # ties resolve to the smallest index
        if masked[idx] <= cfg.eta:
            break
        t = grid[idx]
        value = az[idx]
        if cfg.refine:
            t = wrap(_golden_max(lambda s: abs(eval_point(z, s)), t - 1.0 / m, t + 1.0 / m))
            value = abs(eval_point(z, t))
        tau0.append(float(t))
        values.append(float(value))
        alive &= wrap_dist(grid, t) > 2.0 * sigma

    return PeakResult(
        k_tilde=len(tau0),
        tau0=np.asarray(tau0),
        peak_values=np.asarray(values),
        iterations=iterations,
    )
