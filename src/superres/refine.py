"""Local refinement: box-constrained projected Newton on candidate positions.

The objective F(rho) = ||(I - P_rho) zhat||^2 measures how much of the
filtered measurement cannot be explained by kernels placed at rho, with
amplitudes eliminated by least squares (a variable-projection objective).
One evaluation at rho builds the dictionary and the inverse of its Gram
matrix, which gives the amplitudes beta as a product, and forms the residual
r = zhat - G beta.
That record is all that F, its gradient and its Hessian read, so the Newton
loop evaluates each point it visits once, and an accepted line-search
candidate's record becomes the next iterate's state.

The derivatives are evaluated in the frequency domain. Every inner product
there is a Hermitian sum, so only the rows l >= 0 are kept, each weighted by
the square root of its `spectral.half_band` weight w_l, and each product is a
real one over the interleaved real and imaginary parts. Kernel 2 fixes sqrt(w)
ghat2 and 2 pi i l (`SlepianKernel.weighted_half_band`), a solve sqrt(w) zhat
(`_Problem`). At each point `build_G` writes the atoms sqrt(w) G^T and their
derivatives sqrt(w) (2 pi i l) G^T, with `spectral.write_phasors`, straight
into one 2K x (f_C + 1) matrix Y. With V its real view, one product Q = V V^T holds
the Gram matrix, G* (2 pi i l) G and -G* (2 pi i l)^2 G as its blocks, and one
product of V's lower half with the residual and its derivative gives the two
vectors the gradient and the Hessian read. The amplitudes' right-hand side,
r and F are direct sums over the band.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.linalg import LinAlgError, cholesky, inv
from numpy.linalg import solve as solve_linear

from .circle import positions, sorted_separation, wrap, wrap_signed
from .peaks import PeakConfig, PeakResult, find_peaks, greedy_scan
from .slepian import SlepianKernel
from .spectral import Spectrum, half_band, write_phasors

HESS_ASYM_RTOL = 1e-8
FEAS_TOL = 1e-12
ARMIJO_CONST = 1e-4
MAX_BACKTRACKS = 40
# Below this fraction of F a predicted decrease is rounding: F cannot resolve it.
PRED_RTOL = 1024 * np.finfo(float).eps
MAX_RESEEDS = 5

STATUS_CONVERGED = "converged"
STATUS_STALLED = "stalled"
STATUS_MAX_ITER = "max_iter"
STATUS_HESSIAN_NOT_PD = "hessian_not_pd"
STATUS_NO_PEAKS = "no_peaks"  # phase 1 found no peak, so Newton did not run


class DegenerateDictionaryError(ValueError):
    """Candidate positions too close for a well-posed least-squares system."""


class _Problem(NamedTuple):
    """A phase-2 solve's fixed data on the half band l = 0 .. f_C. Rows are weighted by
    sqrt(w_l) (`spectral.half_band`), so Re sum_{l >= 0} of the product of two rows,
    one of them conjugated, is their full-band sum. sqrt_w, ghat and ls are kernel 2's
    read-only `weighted_half_band`, made once per kernel; only z is the solve's own."""

    f_c: int
    sqrt_w: np.ndarray  # sqrt(w_l)
    ghat: np.ndarray  # sqrt(w_l) ghat2[l], complex so that products with phasors need no cast
    ls: np.ndarray  # 2 pi i l; both run on with zeros over the last phasor block
    ls_band: np.ndarray  # ls[:f_C + 1], the residual's length
    z: np.ndarray  # sqrt(w_l) zhat[l] as interleaved real and imaginary parts, or empty


def _problem(kernel: SlepianKernel, zhat: np.ndarray | None = None) -> _Problem:
    """The problem at kernel 2 and, if given, the filtered measurement's half band zhat."""
    if zhat is not None and len(zhat) != kernel.f_c + 1:
        raise ValueError("measurement and kernel cut-off frequencies differ")
    sqrt_w, ghat, ls = kernel.weighted_half_band
    return _Problem(f_c=kernel.f_c, sqrt_w=sqrt_w, ghat=ghat, ls=ls, ls_band=ls[:sqrt_w.size],
                    z=np.empty(0) if zhat is None else (sqrt_w * zhat).view(float))


class DictionaryMatrix(NamedTuple):
    """Kernel coefficients modulated to candidate positions, their derivatives, the
    products of all of them and the Gram inverse."""

    V: np.ndarray  # 2K x 2(f_C + 1): real view of Y = [sqrt(w) G^T; sqrt(w) (2 pi i l) G^T]
    Q: np.ndarray  # V V^T: the Gram matrix, G* (2 pi i l) G and -G* (2 pi i l)^2 G as blocks
    gram_inv: np.ndarray  # inverse of the Gram matrix Q[:K, :K]


@dataclass(frozen=True)
class BoxConstraint:
    """Per-coordinate interval of radius `radius` around each center position."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        center = positions(self.center)
        object.__setattr__(self, "center", center)
        if not 0.0 < self.radius < 0.25:
            raise ValueError("radius must lie in (0, 1/4)")
        if center.size > 1 and sorted_separation(np.sort(center)) <= 2.0 * self.radius:
            raise ValueError("box centers must be separated by more than twice the radius")


class NewtonConfig(NamedTuple):
    max_iter: int = 100


class SolveReport(NamedTuple):
    tau_tilde: np.ndarray
    beta: np.ndarray
    f_trace: np.ndarray
    grad_norm_final: float
    status: str
    iterations: int
    centres: np.ndarray  # the box centres, in the order of tau_tilde
    reseeds: int = 0  # re-seed rounds before this run (`solve_phase2`)


def build_G(rho, kernel: SlepianKernel | _Problem) -> DictionaryMatrix:
    """Modulated dictionary G[l, i] = ghat[l] e^{-i 2 pi l rho[i]} (l >= 0), stacked
    with its derivatives and weighted as Y, with the products Q = V V^T of its real
    view V and the Gram inverse. kernel is kernel 2 or a solve's `_Problem` at it. The
    phasors are written straight into Y's rows (`spectral.write_phasors`).

    The dictionary is degenerate unless every diagonal entry of the Gram inverse lies
    in (0, 1e6]. 1 / (G^-1)_ii is atom i's squared distance from the span of the
    others, at most the square of the i-th diagonal entry of the Gram's Cholesky
    factor, so this refuses every dictionary that a factor entry below 1e-3 would.
    The lower end catches an inverse that rounding has made indefinite."""
    return _dictionary(kernel if isinstance(kernel, _Problem) else _problem(kernel),
                       positions(rho))


def _dictionary(prob: _Problem, rho: np.ndarray) -> DictionaryMatrix:
    """`build_G` at finite positions rho, not reduced mod 1: the phasors are 1-periodic."""
    k = rho.size
    rows = np.empty((2 * k, prob.ghat.size), dtype=complex)  # whole blocks past f_C
    top = rows[:k]
    write_phasors(prob.f_c, -rho, top)
    top *= prob.ghat
    np.multiply(top, prob.ls, out=rows[k:])
    v = rows[:, :prob.f_c + 1].view(float)  # strided: the product reads it in place
    q = v @ v.T
    # Exact duplicates make the Gram singular; near-duplicates leave it numerically
    # PD but useless.
    try:
        gram_inv = inv(q[:k, :k])
    except LinAlgError:
        raise DegenerateDictionaryError("degenerate dictionary") from None
    if not all(0.0 < g <= 1e6 for g in gram_inv.diagonal().tolist()):  # NaN fails too
        raise DegenerateDictionaryError("degenerate dictionary")
    return DictionaryMatrix(V=v, Q=q, gram_inv=gram_inv)


def _beta(d: DictionaryMatrix, z: np.ndarray) -> np.ndarray:
    return d.gram_inv @ (d.V[: d.gram_inv.shape[0]] @ z)


def least_squares_beta(d: DictionaryMatrix, zhat: Spectrum) -> np.ndarray:
    """Amplitudes minimizing ||G beta - zhat||^2, via the Gram inverse."""
    return _beta(d, (np.sqrt(half_band(zhat.f_c)[1]) * zhat.coeffs[zhat.f_c:]).view(float))


class _Point(NamedTuple):
    """The least-squares state at one position vector: F and its derivatives read it."""

    d: DictionaryMatrix
    beta: np.ndarray
    # row 0: r = sqrt(w) (zhat - G beta), l >= 0, as interleaved real and imaginary parts;
    # row 1: 2 pi i l r, written by `_gradient`
    rr: np.ndarray
    f: float


def _evaluate(prob: _Problem, rho: np.ndarray) -> _Point:
    d = _dictionary(prob, rho)
    beta = _beta(d, prob.z)
    rr = np.empty((2, prob.z.size))
    r = rr[0]
    np.subtract(prob.z, beta @ d.V[: beta.size], out=r)
    return _Point(d, beta, rr, float(r @ r))


def _gradient(prob: _Problem, p: _Point) -> tuple[np.ndarray, np.ndarray]:
    """The gradient and w, the product of V's lower half with r and with 2 pi i l r: its
    rows are -Re G* (2 pi i l) r and -Re G* (2 pi i l)^2 r, which the Hessian reuses."""
    rr = p.rr
    np.multiply(prob.ls_band, rr[0].view(complex), out=rr[1].view(complex))
    w = rr @ p.d.V[p.beta.size:].T
    return 2.0 * p.beta * w[0], w


def _hessian(p: _Point, w: np.ndarray) -> np.ndarray:
    """Four-term analytic Hessian of the reduced objective, symmetrized: h holds half
    of each term, so the symmetrized Hessian is h + h^T."""
    b, q = p.beta, p.d.Q
    k = b.size
    column = b[:, None]
    h = column * q[k:, k:] * b
    h.reshape(-1)[:: k + 1] += b * w[1]  # the diagonals, as strided views
    bracket = column * q[:k, k:]
    bracket.reshape(-1)[:: k + 1] += w[0]
    h -= bracket @ p.d.gram_inv @ bracket.T

    # h - h^T rounds to an antisymmetric matrix (x - y is -(y - x) bit for bit), so its
    # max is its largest |entry|, NaN included
    asym = (h - h.T).max()
    scale = max(np.abs(h).max(), 1e-300)
    if asym > HESS_ASYM_RTOL * scale:
        raise ValueError("Hessian asymmetry residue exceeds tolerance")
    return h + h.T


def objective_F(rho, kernel: SlepianKernel, zhat: Spectrum) -> float:
    """Residual energy after least-squares elimination of the amplitudes."""
    return _evaluate(_problem(kernel, zhat.coeffs[zhat.f_c:]), positions(rho)).f


def gradient_F(rho, kernel: SlepianKernel, zhat: Spectrum) -> np.ndarray:
    prob = _problem(kernel, zhat.coeffs[zhat.f_c:])
    return _gradient(prob, _evaluate(prob, positions(rho)))[0]


def hessian_F(rho, kernel: SlepianKernel, zhat: Spectrum) -> np.ndarray:
    prob = _problem(kernel, zhat.coeffs[zhat.f_c:])
    p = _evaluate(prob, positions(rho))
    return _hessian(p, _gradient(prob, p)[1])


def run_newton(tau0, kernel: SlepianKernel, zhat: Spectrum, box: BoxConstraint,
               cfg: NewtonConfig = NewtonConfig()) -> SolveReport:
    """`_newton` on the problem at kernel 2 and zhat, which must be filtered by it."""
    return _newton(_problem(kernel, zhat.coeffs[zhat.f_c:]), tau0, box, cfg)[0]


def _newton(prob: _Problem, tau0, box: BoxConstraint,
            cfg: NewtonConfig) -> tuple[SolveReport, _Point]:
    """Projected Newton refinement of tau0 within the box (Bertsekas, SIAM J.
    Control Optim. 20, 1982). Returns the report and the final point.

    The iterate is the offset u = tau - box.center in [-r, r]^K: the boxes are
    disjoint intervals of radius r < 1/4, so the projection is Euclidean
    clipping and step lengths are plain norms. F is 1-periodic in each
    position, so it is evaluated at box.center + u without wrapping.

    Step: on the free coordinates, |u_i| < r - eps with eps the last projected
    step length, v solves H v = g; elsewhere v_i = g_i / H_ii, or
    g_i where H_ii <= 0. The first of c = clip(u - lambda v, -r, r), lambda =
    1, 1/2, ..., 2^-MAX_BACKTRACKS, whose positions differ from the iterate's
    and which lowers F by ARMIJO_CONST times the predicted decrease
    lambda g_free . v_free + g_active . (u - c)_active (Bertsekas' Armijo rule)
    is taken.
    Stop: converged when the projected full step is at most 1e-12 sqrt(K), or
    when the predicted decrease g . (u - clip(u - v, -r, r)) is at most
    PRED_RTOL * F; stalled when no trial point is taken; hessian_not_pd when
    the free block has no Cholesky factor (`numpy.linalg.cholesky`, which is the
    positive-definiteness test); max_iter when cfg.max_iter ran out.
    """
    r, center = box.radius, box.center
    u = wrap_signed(np.atleast_1d(np.asarray(tau0, dtype=float)), center)
    if np.abs(u).max() > r + FEAS_TOL:  # False for NaN, as np.any of the comparison
        raise ValueError("infeasible point")
    eta_stop = 1e-12 * math.sqrt(u.size)
    eps = r / 2.0

    p = _evaluate(prob, center + u)
    f_trace = [p.f]
    status = STATUS_MAX_ITER
    iterations = 0
    for _ in range(cfg.max_iter):
        iterations += 1
        grad, w = _gradient(prob, p)
        hess = _hessian(p, w)
        every = np.abs(u).max() < r - eps  # all free, the usual case: v is the Newton step
        if not every:
            free = np.abs(u) < r - eps
            v = grad / np.where(hess.diagonal() > 0.0, hess.diagonal(), 1.0)
        if every or free.any():  # with no free coordinate, v is the diagonal step
            block = hess if every else hess[np.ix_(free, free)]
            try:
                cholesky(block)
            except LinAlgError:
                status = STATUS_HESSIAN_NOT_PD
                break
            if every:
                v = solve_linear(block, grad)
            else:
                v[free] = solve_linear(block, grad[free])

        cand = (u - v).clip(-r, r)  # the projected full step
        step = u - cand
        step_norm = math.sqrt(step @ step)
        if step_norm <= eta_stop or grad @ step <= PRED_RTOL * p.f:
            status = STATUS_CONVERGED
            break
        eps = min(step_norm, r)

        rho_u = center + u
        for m in range(MAX_BACKTRACKS + 1):
            lam = 2.0**-m
            if m:
                cand = (u - lam * v).clip(-r, r)
            rho = center + cand
            if (rho == rho_u).all():  # rounds to the iterate: F is unchanged
                continue
            q = _evaluate(prob, rho)
            pred = lam * v if every else np.where(free, lam * v, u - cand)
            if q.f - p.f <= -ARMIJO_CONST * grad @ pred:
                break
        else:
            status = STATUS_STALLED
            break
        u, p = cand, q
        f_trace.append(p.f)
    else:  # max_iter: the last step moved p, so grad is stale
        grad = _gradient(prob, p)[0]

    return SolveReport(
        tau_tilde=wrap(center + u),
        beta=p.beta,
        f_trace=np.asarray(f_trace),
        grad_norm_final=math.sqrt(grad @ grad),  # as np.linalg.norm computes it
        status=status,
        iterations=iterations,
        centres=center,
    ), p


def solve_phase2(y: Spectrum, tau0, kernel1: SlepianKernel,
                 kernel2: SlepianKernel) -> SolveReport:
    """Phase 2 from the phase-1 picks tau0: Newton (`_newton`) in boxes of radius
    sigma1 around tau0, then re-seed rounds, all on one `_Problem` made from
    zhat[l] = y[l] ghat2[l], l = 0 .. f_C (y filtered by kernel2).

    hessian_not_pd in practice means that phase 1 missed a weak spike and an
    atom has nothing to fit. While that is the status and fewer than
    MAX_RESEEDS rounds ran, a round drops the atom with the smallest |beta|
    and runs Newton again, each kept atom from its final position in its own
    box, plus a new box around one pick of phase 1's greedy scan
    (`peaks.greedy_scan`) on Newton's residual zhat - G beta (its r / sqrt(w)),
    more than 2 sigma1 from every kept centre and atom. So every box centre is
    a phase-1 or a re-seed pick, and no two boxes overlap. Returns the final
    round's report, with its reseeds count set. This is the local-improvement
    step of ADCG (Boyd, Schiebinger and Recht, SIAM J. Optim. 27, 2017) and of
    sliding Frank-Wolfe (Denoyelle, Duval, Peyre and Soubies, Inverse Problems 36, 2019).

    Empty tau0 (phase 1 found no peak) gives a no_peaks report with no atoms.
    """
    if kernel1.f_c != y.f_c or kernel2.f_c != y.f_c:
        raise ValueError("measurement and kernel cut-off frequencies differ")
    if np.size(tau0) == 0:
        empty = np.empty(0)
        return SolveReport(tau_tilde=empty, beta=empty, f_trace=empty, grad_norm_final=0.0,
                           status=STATUS_NO_PEAKS, iterations=0, centres=empty)
    prob = _problem(kernel2, y.coeffs[y.f_c:] * kernel2.ghat[y.f_c:])
    radius = kernel1.sigma
    centres = tau = tau0
    for reseeds in range(MAX_RESEEDS + 1):
        report, p = _newton(prob, tau, BoxConstraint(centres, radius), NewtonConfig())
        if report.status != STATUS_HESSIAN_NOT_PD or reseeds == MAX_RESEEDS:
            break
        keep = np.arange(report.beta.size) != np.argmin(np.abs(report.beta))
        centres, tau = report.centres[keep], report.tau_tilde[keep]
        pick = greedy_scan(p.rr[0].view(complex) / prob.sqrt_w, radius, 1,
                           taken=np.append(centres, tau)).tau0
        if not pick.size:
            break
        centres, tau = np.append(centres, pick), np.append(tau, pick)
    return report._replace(reseeds=reseeds)


class Solution(NamedTuple):
    peaks: PeakResult  # phase 1's picks
    report: SolveReport  # phase 2 from them; its centres are the final box centres


def solve(y: Spectrum, kernel1: SlepianKernel, kernel2: SlepianKernel,
          cfg: PeakConfig) -> Solution:
    """The pipeline: `find_peaks` at kernel1 and cfg, then `solve_phase2` from its picks.
    A ValueError of either phase, DegenerateDictionaryError included, reaches the caller."""
    peaks = find_peaks(y, kernel1, cfg)
    return Solution(peaks, solve_phase2(y, peaks.tau0, kernel1, kernel2))
