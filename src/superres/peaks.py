"""Greedy initialization: iterative peak picking on the filtered measurement.

The measurement spectrum is multiplied by the kernel coefficients (circular
convolution in time), the magnitude of the result is scanned on a fine grid
(at least oversample * N points, rounded up to a 5-smooth FFT length), and
its local maxima are selected greedily and polished by Newton steps on its
derivative. The polish reads z, z' and z'' from their coefficient rows in
`spectral.blocks` form, built once per scan, at J + B exponentials (about
2 sqrt(N)) per point and step. It runs in batches: the first candidate
reached without a polish is polished together with the alive candidates that
follow it in value order, up to the picks still open, with one `block_sum`
call per Newton step. After each selection the local maxima within 2 sigma
of the peak are erased so nearby lobes of the same spike cannot be picked
again; they are kept in position order, so the erased arc is found by binary
search. Phase 2's re-seed runs the same scan (`greedy_scan`) on its residual.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import islice
from typing import Optional

import numpy as np

from .slepian import SlepianKernel
from .spectral import (Spectrum, block_sum, blocks, eval_grid, half_band, pointwise_mul,
                       smooth_len)

NEWTON_STEPS = 3  # quadratic convergence: from one grid cell (1/M) to below 1e-12
OVERSAMPLE = 32  # grid points per coefficient, for phase 1 and the phase-2 re-seed
MIN_OVERSAMPLE = 4
POLISH_BATCH = 64  # at most this many points per `_polish` call (see `greedy_scan`)


@dataclass(frozen=True)
class PeakConfig:
    """Knobs for the greedy scan."""

    eta: float = 0.0  # stop once the residual maximum falls to <= eta
    oversample: int = OVERSAMPLE  # grid size M >= oversample * N, a 5-smooth FFT length
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


def _polish(zb: np.ndarray, t, half_width: float):
    """Newton steps on z' from grid points t, each clipped to its t -/+ half_width;
    returns (t, |z(t)|), as floats for a scalar t and as arrays for a 1-D t.

    zb is `_derivative_blocks(z)`. A point stops where sign(z) z'' >= 0, since |z|
    is not concave there. Each step evaluates every point in one `block_sum` call,
    whose per-point bits do not depend on the batch: a stopped point is evaluated
    at the same t again, so it stays stopped and keeps its value.
    """
    scalar = np.ndim(t) == 0
    t = np.array(t, dtype=float, ndmin=1)
    lo, hi = t - half_width, t + half_width
    for step in range(NEWTON_STEPS + 1):
        f0, f1, f2 = block_sum(zb, t).T
        if step == NEWTON_STEPS:
            break
        go = np.sign(f0) * f2 < 0.0
        if not go.any():
            break
        t[go] = np.clip(t[go] - f1[go] / f2[go], lo[go], hi[go])
    t %= 1.0
    value = np.abs(f0)
    return (float(t[0]), float(value[0])) if scalar else (t, value)


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
    """At most cap greedy picks of |z| on a grid of at least m points, each polished off-grid.

    The grid has `smooth_len(m)` points, a fast FFT length. Positions in taken
    are erased before the first pick and, like the picks, reject a polish that
    slides back to within 2 sigma of them.
    """
    m = smooth_len(m)
    az = eval_grid(z, m)
    np.abs(az, out=az)
    zb = _derivative_blocks(z)
    # Candidates are the grid's local maxima only: a point on the monotone skirt
    # of an erased neighborhood must not be picked ahead of a weak real spike.
    inner = az[1:-1]
    is_max = np.empty(m, dtype=bool)
    np.greater_equal(inner, az[:-2], out=is_max[1:-1])
    is_max[1:-1] &= inner >= az[2:]
    is_max[0] = az[0] >= az[-1] and az[0] >= az[1]
    is_max[-1] = az[-1] >= az[-2] and az[-1] >= az[0]
    cand = np.flatnonzero(is_max)  # in position order, so an erased arc is found by bisection
    grid_pos = cand / m
    pos = grid_pos.tolist()
    peak = az[cand]
    # Erasure only removes candidates, so one sort orders every later choice.
    order = np.argsort(-peak, kind="stable").tolist()  # ties: smallest index first
    above = int(np.count_nonzero(peak > eta))  # order[:above] may still be picked
    peak = peak.tolist()
    alive = [True] * len(pos)
    two_sigma = 2.0 * sigma
    reach = two_sigma + 1.0 / m  # past any rounding of the exact tests below
    arcs = ((-1.0 - reach, -1.0 + reach), (-reach, reach), (1.0 - reach, 1.0 + reach))
    # Occupied positions by bucket of width >= reach: whatever lies within reach of t
    # sits in t's bucket or a neighbour.
    n_buckets = max(1, int(1.0 / reach))
    buckets: list[list[float]] = [[] for _ in range(n_buckets)]

    # Both distance tests use `wrap_dist`'s arithmetic in Python floats:
    # |a - b| mod 1, then min(d, 1 - d).
    def bucket(t: float) -> int:
        return int(t % 1.0 * n_buckets) % n_buckets

    def occupy(t: float) -> None:
        """Kill the candidates within 2 sigma of t: the exact test, inside t's arc only."""
        buckets[bucket(t)].append(t)
        c = t % 1.0
        for a0, a1 in arcs:
            for k in range(bisect_left(pos, c + a0), bisect_left(pos, c + a1)):
                d = abs(pos[k] - t) % 1.0
                if min(d, 1.0 - d) <= two_sigma:
                    alive[k] = False

    def slid_back(t: float) -> bool:
        """Whether t is within 2 sigma of an occupied position."""
        b = bucket(t)
        near = (o for k in (b - 1, b, b + 1) for o in buckets[k % n_buckets])
        return any(min(d, 1.0 - d) <= two_sigma for d in (abs(t - o) % 1.0 for o in near))

    for t in np.atleast_1d(taken).tolist():
        occupy(float(t))
    tau0: list[float] = []
    values: list[float] = []
    polished: dict[int, tuple[float, float]] = {}
    iterations = 0
    for n, i in enumerate(order):
        if len(tau0) >= cap:
            break
        if not alive[i]:
            continue
        iterations += 1
        if peak[i] <= eta:
            break
        if i not in polished:
            # i and the next alive candidates that could still be picked, in one call;
            # all lie after i in order, so none is polished twice. Uncapped scans
            # erase many of them before they are reached, hence POLISH_BATCH.
            width = min(cap - len(tau0), POLISH_BATCH)
            batch = list(islice((k for k in order[n:above] if alive[k]), width))
            ts, vals = _polish(zb, grid_pos[batch], 1.0 / m)
            polished.update(zip(batch, zip(ts.tolist(), vals.tolist())))
        t, value = polished[i]
        if slid_back(t):
            continue  # the polish slid back onto an earlier pick's (or a taken) lobe
        tau0.append(t)
        values.append(value)
        occupy(t)

    return PeakResult(k_tilde=len(tau0), tau0=np.asarray(tau0), peak_values=np.asarray(values),
                      iterations=iterations)
