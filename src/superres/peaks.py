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
neighbours among the sorted picks, found by one bisection. A stable sort ranks
the candidates, which become floats in doubling batches from 2 (cap + taken): a
capped scan converts only those it reaches. As a vertex value lies between a0, the
grid maximum's value, and 9/8 a0, a capped scan computes the vertices of, and
sorts, only the grid maxima whose a0 is at least half the 2 (cap + taken)-th
largest a0 (about 60 of 2,000 at f_C = 1000 and cap 14). A walk past the first
batch ranks again, the maxima that can reach the end of the batch it walks into.
Phase 2's re-seed runs the same scan (`greedy_scan`) on its residual's half band.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple, Optional

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
        if not self.eta >= 0:  # a NaN eta too
            raise ValueError("eta must be >= 0")
        if self.max_peaks is not None and self.max_peaks < 1:
            raise ValueError("max_peaks must be >= 1")


class PeakResult(NamedTuple):
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
    d = am - ap
    den = am - 2.0 * a0 + ap
    x = np.divide(d, 2.0 * den, out=np.zeros(cand.size), where=den < 0.0)
    return cand + x, a0 - d * x / 4.0  # (a+ - a-) x rounds to exactly -(d x)


def _contenders(az: np.ndarray, cand: np.ndarray, first: int) -> Optional[np.ndarray]:
    """The indices into cand, ascending, of the grid maxima that can rank among the
    first `first` by vertex value, or None when that may be every one.

    A vertex value v lies in [a0, 9/8 a0]: with d- = a0 - a- and d+ = a0 - a+ in
    [0, a0], v = a0 + (d+ - d-)^2 / (8 (d+ + d-)). So a maximum with a0 < kth / 2,
    kth the `first`-th largest a0, ranks below at least `first` others. The factor 2
    is the 9/8 bound plus a margin for rounding. An infinite a0 is among the `first`
    largest; its vertex value may be NaN, which ranks last, so it rules nothing out."""
    n = cand.size
    if first >= n:
        return None
    a0 = az[1:][cand]
    top = np.partition(a0, n - first)[n - first:]  # kth, then the larger ones
    if not top.max() < np.inf:
        return None
    keep = (a0 >= 0.5 * top[0]).nonzero()[0]
    return keep if keep.size < n else None


class _Ranking:
    """The grid maxima cand in rank order, vertex value descending and ties by grid
    index (a stable sort), for a walk that reads the first `first` ranks before any
    other. A slice gives indices into `vertex` and `peak`, the `_vertices` of the
    maxima ranked so far. Where `_contenders` rules maxima out, only the others are
    ranked, which orders the first `first` as ranking every maximum does; a slice that
    reaches past them ranks again, the contenders for the first ranks up to its end,
    replacing vertex and peak."""

    def __init__(self, az: np.ndarray, cand: np.ndarray, first: int):
        self.size = cand.size
        self._az, self._cand = az, cand
        self._rank(first)

    def _rank(self, first: int):
        keep = _contenders(self._az, self._cand, first)
        cand = self._cand if keep is None else self._cand[keep]
        self.vertex, self.peak = _vertices(self._az, cand)
        order = (-self.peak).argsort(kind="stable")
        self._order = order if keep is None else order[:first]

    def __getitem__(self, s: slice) -> np.ndarray:
        if s.stop > self._order.size < self.size:
            self._rank(s.stop)
        return self._order[s]


def _doubling(order: _Ranking, size: int):
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
    `_vertices` three gathers, with no special case at the grid's ends. As a vertex
    value lies in [a0, 9/8 a0], a capped scan ranks only the maxima that can reach
    its first batch (`_contenders`), and past it only those that can reach the end of
    the batch it walks into.
    """
    m = smooth_len(OVERSAMPLE * (2 * c.size - 1))
    az = np.empty(m + 2)  # |z| on the grid, with its circular neighbours at both ends
    inner = az[1:-1]
    np.multiply(np.fft.irfft(c, m), m, out=inner)  # z as `spectral.eval_grid` computes it
    np.abs(inner, out=inner)
    az[0], az[-1] = az[-2], az[1]
    # Candidates are the grid's local maxima only: a point on the monotone skirt
    # of a pick's neighborhood must not be picked ahead of a weak real spike.
    cand = np.flatnonzero((inner >= az[:-2]) & (inner >= az[2:]))
    two_sigma = 2.0 * sigma
    # taken and picks, sorted (no sort when nothing is taken)
    occupied = np.sort(wrap(np.atleast_1d(taken))).tolist() if np.size(taken) else []
    # Candidates become floats in batches, none empty: a capped scan reaches only a few.
    first = cand.size if cap is None else max(1, 2 * (cap + len(occupied)))
    # Picks only rule candidates out, so one ranking orders every later choice.
    ranking = _Ranking(az, cand, first)
    tau0: list[float] = []
    values: list[float] = []
    iterations = 0
    # Each batch is taken before its vertices are read: one past the first batch
    # replaces ranking.vertex and ranking.peak.
    for t, value in chain.from_iterable(
            zip(wrap(ranking.vertex[b] / m).tolist(), ranking.peak[b].tolist())
            for b in _doubling(ranking, first)):
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
