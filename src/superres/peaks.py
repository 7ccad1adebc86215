"""Greedy initialization: iterative peak picking on the filtered measurement.

The measurement's half band l = 0 .. f_C is multiplied by the kernel coefficients
(circular convolution in time), the magnitude of the result is scanned on a grid
(OVERSAMPLE * N points rounded up to a 5-smooth FFT length, set by N alone), and
its local maxima are selected greedily. Each local maximum stands for the vertex of
the parabola through it and its two neighbours: the vertex value ranks it and is
compared with eta, and the vertex position is the pick. Phase 1 only estimates the
positions roughly; phase 2's Newton refines them. A candidate whose vertex lies
within 2 sigma of a pick is passed over, so other lobes of the same spike are not
picked. Candidates carry no flags: `_near` tests only a position's two cyclic
neighbours among the sorted picks, found by one bisection. One stable sort ranks
the candidates, which become floats in doubling batches from 2 (cap + taken): a
capped scan converts only those it reaches. Phase 2's re-seed runs the same scan
(`greedy_scan`) on its residual's half band.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from itertools import chain
from typing import Optional

import numpy as np

from .circle import wrap
from .slepian import SlepianKernel
from .spectral import Spectrum, smooth_len

OVERSAMPLE = 8  # grid points per coefficient, for phase 1 and the phase-2 re-seed


@dataclass(frozen=True)
class PeakConfig:
    """Knobs for the greedy scan."""

    eta: float = 0.0  # stop once the best candidate's vertex value falls to <= eta
    max_peaks: Optional[int] = None
    oversample = OVERSAMPLE  # not a field: read by bench/workloads.py, whose grid probe
    # takes OVERSAMPLE * N points where the scan takes smooth_len(OVERSAMPLE * N)

    def __post_init__(self):
        if self.eta < 0:
            raise ValueError("eta must be >= 0")
        if self.max_peaks is not None and self.max_peaks < 1:
            raise ValueError("max_peaks must be >= 1")


@dataclass(frozen=True)
class PeakResult:
    """Estimated spike count and initial positions."""

    k_tilde: int
    tau0: np.ndarray
    peak_values: np.ndarray  # the vertex values of |z| at the picks
    iterations: int


def _near(points: list[float], t: float, radius: float) -> bool:
    """Whether some point of the sorted points in [0, 1) lies within radius of t in
    [0, 1), in `wrap_dist`'s arithmetic. The nearest point on the circle is one of t's
    two cyclic neighbours, found by one bisection, so only those two are tested."""
    if not points:
        return False
    k = bisect_left(points, t)
    for p in (points[k - 1], points[k % len(points)]):
        d = abs(p - t) % 1.0
        if min(d, 1.0 - d) <= radius:
            return True
    return False


def _vertices(az: np.ndarray, cand: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The vertex (c + x, a0 + (a+ - a-) x / 4), in grid cells, of the parabola through
    each grid maximum a0 and its neighbours a- and a+ on the circular grid, with
    x = (a- - a+) / (2 (a- - 2 a0 + a+)), or x = 0 where that denominator is not negative.
    az is the grid padded with its circular neighbours (grid point c is az[c + 1]), so
    a-, a0 and a+ are az[c], az[c + 1] and az[c + 2]."""
    am, a0, ap = az[cand], az[1:][cand], az[2:][cand]
    den = am - 2.0 * a0 + ap
    x = np.divide(am - ap, 2.0 * den, out=np.zeros_like(a0), where=den < 0.0)
    return cand + x, a0 + (ap - am) * x / 4.0


def _doubling(order: np.ndarray, size: int):
    """order in consecutive batches of size, 2 size, 4 size, ... entries."""
    start = 0
    while start < order.size:
        yield order[start:start + size]
        start, size = start + size, 2 * size


def find_peaks(y: Spectrum, kernel: SlepianKernel, cfg: PeakConfig) -> PeakResult:
    """`greedy_scan` of the filtered signal's half band, with at most cfg.max_peaks picks."""
    if y.f_c != kernel.f_c:
        raise ValueError("measurement and kernel cut-off frequencies differ")
    return greedy_scan(y.coeffs[y.f_c:] * kernel.ghat[y.f_c:], kernel.sigma, cfg.max_peaks,
                       cfg.eta)


def greedy_scan(c: np.ndarray, sigma: float, cap: Optional[int] = None, eta: float = 0.0,
                taken=()) -> PeakResult:
    """At most cap picks (any number if cap is None) of |z| on the grid from z's half
    band c, each at a grid maximum's vertex.

    The grid has `smooth_len(OVERSAMPLE * N)` points, a fast FFT length; its local
    maxima are ranked, and compared with eta, by the value at their `_vertices`, and
    picked at the vertex position. A candidate is kept while both cyclic neighbours of
    its vertex among the picks and taken positions are more than 2 sigma away. |z| is
    held in m + 2 values whose ends repeat the grid's far ends, so every grid point has
    both circular neighbours in place: a local maximum is two comparisons and
    `_vertices` three gathers, with no special case at the grid's ends.
    """
    m = smooth_len(OVERSAMPLE * (2 * c.size - 1))
    az = np.empty(m + 2)  # |z| on the grid, with its circular neighbours at both ends
    inner = az[1:-1]
    np.multiply(np.fft.irfft(c, m), m, out=inner)  # z as `spectral.eval_grid` computes it
    np.abs(inner, out=inner)
    az[0], az[-1] = az[-2], az[1]
    # Candidates are the grid's local maxima only: a point on the monotone skirt
    # of a pick's neighborhood must not be picked ahead of a weak real spike.
    vertex, peak = _vertices(az, np.flatnonzero((inner >= az[:-2]) & (inner >= az[2:])))
    # Picks only rule candidates out, so one sort orders every later choice.
    order = np.argsort(-peak, kind="stable")  # ties: smallest index first
    two_sigma = 2.0 * sigma
    # taken and picks, sorted (no sort when nothing is taken)
    occupied = np.sort(wrap(np.atleast_1d(taken))).tolist() if np.size(taken) else []
    # Candidates become floats in batches, none empty: a capped scan reaches only a few.
    first = order.size if cap is None else max(1, 2 * (cap + len(occupied)))
    tau0: list[float] = []
    values: list[float] = []
    iterations = 0
    for t, value in chain.from_iterable(zip(wrap(vertex[b] / m).tolist(), peak[b].tolist())
                                        for b in _doubling(order, first)):
        if len(tau0) == cap:
            break
        if _near(occupied, t, two_sigma):
            continue
        iterations += 1
        if value <= eta:
            break
        tau0.append(t)
        values.append(value)
        insort(occupied, t)

    return PeakResult(k_tilde=len(tau0), tau0=np.asarray(tau0), peak_values=np.asarray(values),
                      iterations=iterations)
