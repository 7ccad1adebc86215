"""Greedy initialization: iterative peak picking on the filtered measurement.

The measurement's half band l = 0 .. f_C is multiplied by the kernel coefficients
(circular convolution in time), the magnitude of the result is scanned on a grid
(OVERSAMPLE * N points rounded up to a 5-smooth FFT length, set by N alone), and
its local maxima are selected greedily and polished by Newton steps on its
derivative. The grid only finds the local maxima and ranks them, by the vertex
value of the parabola through each and its two neighbours; the polish, which
starts at that vertex, supplies the off-grid accuracy. It reads z, z' and z''
from their coefficient rows in `spectral.blocks` form, built once per scan, at
J + B exponentials (about 2 sqrt(N)) per point and step. It runs in batches: the
first candidate reached without a polish is polished together with the free
candidates that follow it in value order, up to the picks still open, with one
`block_sum` call per Newton step. A local maximum or a polished point within 2
sigma of a pick is passed over, so other lobes of the same spike are not picked.
Candidates carry no flags: `_near` tests only a position's two cyclic neighbours
among the sorted picks, found by one bisection. Phase 2's re-seed runs the same
scan (`greedy_scan`) on its residual's half band.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass
from itertools import islice
from typing import Optional

import numpy as np

from .circle import wrap
from .slepian import SlepianKernel
from .spectral import Spectrum, block_sum, blocks, half_band, smooth_len

NEWTON_STEPS = 4  # at most; quadratic convergence: from a parabola vertex (< 0.1 cell
# off) to below 1e-12
OVERSAMPLE = 8  # grid points per coefficient, for phase 1 and the phase-2 re-seed; the
# grid only finds and ranks the local maxima, and the polish supplies the accuracy
POLISH_BATCH = 64  # at most this many points per `_polish` call (see `greedy_scan`)
POLISH_TOL = 1e-14  # a Newton step this short ends a point's polish: its error is ~the step


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
    peak_values: np.ndarray
    iterations: int


def _derivative_blocks(c: np.ndarray) -> np.ndarray:
    """From z's half band c, the coefficient rows of z, z' and z'' in `blocks` form, 3 x J x B."""
    ls, weights = half_band(c.size - 1)
    w = 2j * np.pi * ls
    c0 = weights * c
    c1 = w * c0  # z'
    return blocks(np.stack([c0, c1, w * c1]))


def _polish(zb: np.ndarray, t: np.ndarray, half_width: float) -> tuple[np.ndarray, np.ndarray]:
    """Newton steps on z' from the points t, each clipped to its t -/+ half_width;
    returns (t, |z(t)|).

    zb is `_derivative_blocks(z)`. A point stops where sign(z) z'' >= 0, since |z|
    is not concave there, or once its step is at most POLISH_TOL. Each step
    evaluates every point in one `block_sum` call, whose per-point bits do not
    depend on the batch: a stopped point takes a zero step, so it is evaluated at
    the same t again, stays stopped and keeps its value. The steps end when every
    point has stopped.
    """
    t = np.array(t, dtype=float)
    lo, hi = t - half_width, t + half_width
    for step in range(NEWTON_STEPS + 1):
        f0, f1, f2 = block_sum(zb, t).T
        if step == NEWTON_STEPS:
            break
        go = np.sign(f0) * f2 < 0.0
        newton = f1 / np.where(go, f2, np.inf)  # 0 where |z| is not concave
        newton[np.abs(newton) <= POLISH_TOL] = 0.0
        if not newton.any():
            break
        t = np.minimum(np.maximum(t - newton, lo), hi)
    return wrap(t), np.abs(f0)


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
    each grid maximum a0 = az[c] and its neighbours a- and a+ on the circular grid, with
    x = (a- - a+) / (2 (a- - 2 a0 + a+)), or x = 0 where that denominator is not negative."""
    a0 = az[cand]
    am, ap = az[cand - 1], az[(cand + 1) % az.size]
    den = am - 2.0 * a0 + ap
    x = np.divide(am - ap, 2.0 * den, out=np.zeros_like(a0), where=den < 0.0)
    return cand + x, a0 + (ap - am) * x / 4.0


def find_peaks(y: Spectrum, kernel: SlepianKernel, cfg: PeakConfig) -> PeakResult:
    """Greedy peak selection with neighborhood erasure on the filtered signal."""
    if y.f_c != kernel.f_c:
        raise ValueError("measurement and kernel cut-off frequencies differ")
    cap = math.ceil(1.0 / (2.0 * kernel.sigma))
    if cfg.max_peaks is not None:
        cap = min(cap, cfg.max_peaks)
    return greedy_scan(y.coeffs[y.f_c:] * kernel.ghat[y.f_c:], kernel.sigma, cap, cfg.eta)


def greedy_scan(c: np.ndarray, sigma: float, cap: int, eta: float = 0.0, taken=()) -> PeakResult:
    """At most cap picks of |z| on the grid from z's half band c, each polished off-grid.

    The grid has `smooth_len(OVERSAMPLE * N)` points, a fast FFT length; its local
    maxima are ranked, and compared with eta, by the value at their `_vertices`,
    and polished from there. A candidate, and a polished point, is kept while both its
    cyclic neighbours among the picks and taken positions are more than 2 sigma away.
    """
    m = smooth_len(OVERSAMPLE * (2 * c.size - 1))
    az = np.fft.irfft(c, m)  # z on the grid, as `spectral.eval_grid` computes it
    az *= m
    np.abs(az, out=az)
    zb = _derivative_blocks(c)
    # Candidates are the grid's local maxima only: a point on the monotone skirt
    # of a pick's neighborhood must not be picked ahead of a weak real spike.
    inner = az[1:-1]
    is_max = np.empty(m, dtype=bool)
    np.greater_equal(inner, az[:-2], out=is_max[1:-1])
    is_max[1:-1] &= inner >= az[2:]
    is_max[0] = az[0] >= az[-1] and az[0] >= az[1]
    is_max[-1] = az[-1] >= az[-2] and az[-1] >= az[0]
    cand = np.flatnonzero(is_max)
    pos = (cand / m).tolist()
    vertex, peak = _vertices(az, cand)
    start = vertex / m
    # Picks only rule candidates out, so one sort orders every later choice.
    order = np.argsort(-peak, kind="stable").tolist()  # ties: smallest index first
    above = int(np.count_nonzero(peak > eta))  # order[:above] may still be picked
    peak = peak.tolist()
    two_sigma = 2.0 * sigma
    occupied = np.sort(wrap(np.atleast_1d(taken))).tolist()  # taken and picks, sorted
    tau0: list[float] = []
    values: list[float] = []
    polished: dict[int, tuple[float, float]] = {}
    iterations = 0
    for n, i in enumerate(order):
        if len(tau0) >= cap:
            break
        if _near(occupied, pos[i], two_sigma):
            continue
        iterations += 1
        if peak[i] <= eta:
            break
        if i not in polished:
            # i and the next free candidates that could still be picked, in one call;
            # all lie after i in order, so none is polished twice. Uncapped scans
            # rule many of them out before they are reached, hence POLISH_BATCH.
            width = min(cap - len(tau0), POLISH_BATCH)
            batch = list(islice((k for k in order[n:above]
                                 if not _near(occupied, pos[k], two_sigma)), width))
            ts, vals = _polish(zb, start[batch], 1.0 / m)
            polished.update(zip(batch, zip(ts.tolist(), vals.tolist())))
        t, value = polished[i]
        if _near(occupied, t, two_sigma):
            continue  # the polish slid back onto an earlier pick's (or a taken) lobe
        tau0.append(t)
        values.append(value)
        insort(occupied, t)

    return PeakResult(k_tilde=len(tau0), tau0=np.asarray(tau0), peak_values=np.asarray(values),
                      iterations=iterations)
