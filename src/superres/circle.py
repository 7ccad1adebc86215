"""Arithmetic and distances on the unit circle [0, 1).

Positions live on the circle: every function reduces its inputs modulo 1,
so optimization iterates that step outside [0, 1) are handled transparently.
All functions are pure and accept scalars or numpy arrays.
"""

from __future__ import annotations

import numpy as np


def wrap(t):
    """Reduce a position (or array of positions) modulo 1 into [0, 1)."""
    r = np.mod(t, 1.0)
    return r - (r == 1.0)  # a tiny negative t rounds to 1.0, which is 0.0 on the circle


def wrap_signed(a, b):
    """Signed displacement from b to a, wrapped into (-1/2, 1/2].

    The antipodal case maps to +1/2, which breaks projection ties toward
    the positive side.
    """
    return 0.5 - np.mod(0.5 - (np.asarray(a, dtype=float) - b), 1.0)


def wrap_dist(a, b):
    """Wraparound distance min(d, 1 - d), d = |a - b| mod 1, in [0, 1/2]. As a - b
    rounds to exactly -(b - a), wrap_dist(a, b) == wrap_dist(b, a) bit for bit."""
    d = np.mod(np.abs(np.asarray(a, dtype=float) - b), 1.0)
    return np.minimum(d, 1.0 - d)


def positions(t) -> np.ndarray:
    """A non-empty array of finite positions, reduced modulo 1 into [0, 1)."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if t.size == 0 or not np.isfinite(t).all():
        raise ValueError("positions must be a non-empty array of finite numbers")
    return wrap(t)


def hausdorff(a, b) -> float:
    """Hausdorff distance between two finite point sets on the circle."""
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise ValueError("empty point set")
    d = wrap_dist(a[:, None], b[None, :])
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def separation(tau) -> float:
    """Minimum pairwise wraparound distance, in O(K log K): the closest pair are
    neighbours in sorted order (the last and the first too), in rounding as well.
    The gaps d of sorted positions in [0, 1) need no reduction mod 1, and rounding
    is monotone, so min(d.min(), 1 - d.max()) equals wrap_dist over neighbouring
    pairs bit for bit."""
    tau = np.sort(wrap(np.atleast_1d(np.asarray(tau, dtype=float))))
    if tau.size < 2:
        raise ValueError("separation undefined")
    d, last = tau[1:] - tau[:-1], tau[-1] - tau[0]
    return float(min(d.min(), 1.0 - d.max(), last, 1.0 - last))
