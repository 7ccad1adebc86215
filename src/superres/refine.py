"""Local refinement: box-constrained projected Newton on candidate positions.

The objective F(rho) = ||(I - P_rho) zhat||^2 measures how much of the
filtered measurement cannot be explained by kernels placed at rho, with
amplitudes eliminated by least squares (a variable-projection objective).
One evaluation at rho builds the dictionary G and its Gram Cholesky factor,
solves for the amplitudes beta and forms the residual r = zhat - G beta.
That record is all that F, its gradient and its Hessian read, so the Newton
loop evaluates each point it visits once, and an accepted line-search
candidate's record becomes the next iterate's state.

The derivatives are evaluated in the frequency domain. Every inner product
there is a Hermitian sum, so G holds only the rows l >= 0 and each product is
the real part of a sum weighted by `spectral.half_band`. Its phasors come from
`spectral.phasors`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .circle import positions, separation, wrap, wrap_dist, wrap_signed
from .peaks import greedy_scan
from .slepian import SlepianKernel
from .spectral import Spectrum, SpikeTrain, half_band, phasors, pointwise_mul, spike_fourier

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


class DegenerateDictionaryError(ValueError):
    """Candidate positions too close for a well-posed least-squares system."""


@dataclass(frozen=True)
class DictionaryMatrix:
    """Kernel coefficients modulated to candidate positions, with Gram factor."""

    G: np.ndarray  # (f_C + 1) x K complex, rows l = 0 .. f_C
    gh: np.ndarray  # K x (f_C + 1), the weighted adjoint: Re(gh @ x) is G* x over the full band
    gram_chol: np.ndarray  # lower-triangular Cholesky factor of the Gram matrix Re(gh @ G) = G* G


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
        if center.size > 1 and separation(center) <= 2.0 * self.radius:
            raise ValueError("box centers must be separated by more than twice the radius")


@dataclass(frozen=True)
class NewtonConfig:
    max_iter: int = 100


@dataclass(frozen=True)
class SolveReport:
    tau_tilde: np.ndarray
    beta: np.ndarray
    f_trace: np.ndarray
    grad_norm_final: float
    status: str
    iterations: int
    centres: np.ndarray  # the box centres, in the order of tau_tilde
    reseeds: int = 0  # prune-and-re-seed rounds before this run (`solve_phase2`)


def build_G(rho, kernel: SlepianKernel) -> DictionaryMatrix:
    """Modulated dictionary G[l, i] = ghat[l] e^{-i 2 pi l rho[i]} (l >= 0) and its Gram factor."""
    G = kernel.ghat[kernel.f_c:, None] * phasors(kernel.f_c, -positions(rho))
    gh = (half_band(kernel.f_c)[1][:, None] * G).conj().T
    chol, info = dpotrf((gh @ G).real, lower=1, clean=1)
    # Exact duplicates make the Gram singular; near-duplicates leave it numerically
    # PD but useless.
    if info > 0 or np.diag(chol).min() < 1e-3:
        raise DegenerateDictionaryError("degenerate dictionary")
    return DictionaryMatrix(G=G, gh=gh, gram_chol=chol)


def least_squares_beta(d: DictionaryMatrix, zhat: Spectrum) -> np.ndarray:
    """Amplitudes minimizing ||G beta - zhat||^2, via the Gram Cholesky factor."""
    if not zhat.real_signal:
        raise ValueError("least_squares_beta requires a real_signal spectrum")
    return dpotrs(d.gram_chol, (d.gh @ zhat.coeffs[zhat.f_c:]).real, lower=1)[0]


@dataclass(frozen=True)
class _Point:
    """The least-squares state at one position vector: F and its derivatives read it."""

    d: DictionaryMatrix
    beta: np.ndarray
    r: np.ndarray  # residual zhat - G beta, l >= 0
    f: float


def _evaluate(rho, kernel: SlepianKernel, zhat: Spectrum) -> _Point:
    d = build_G(rho, kernel)
    beta = least_squares_beta(d, zhat)
    r = zhat.coeffs[zhat.f_c:] - d.G @ beta
    _, weights = half_band(kernel.f_c)
    return _Point(d=d, beta=beta, r=r, f=float(weights @ (r.real**2 + r.imag**2)))


def _ls(kernel: SlepianKernel) -> np.ndarray:
    """Weights 2 pi i l: d/drho_i of column i of G is -2 pi i l times that column."""
    return 2j * np.pi * half_band(kernel.f_c)[0]


def _gradient(p: _Point, ls: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The gradient and w = Re G^H (2 pi i l r), which the Hessian reuses."""
    w = (p.d.gh @ (ls * p.r)).real
    return -2.0 * p.beta * w, w


def _hessian(p: _Point, ls: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Four-term analytic Hessian of the reduced objective, symmetrized."""
    d = p.d
    glg = (d.gh @ (ls[:, None] * d.G)).real
    gl2g = (d.gh @ (ls[:, None] ** 2 * d.G)).real
    w2 = (d.gh @ (ls**2 * p.r)).real

    b = p.beta
    h = -2.0 * b[:, None] * gl2g * b
    h.flat[:: b.size + 1] += -2.0 * b * w2
    bracket = b[:, None] * glg
    bracket.flat[:: b.size + 1] -= w
    h += -2.0 * bracket @ dpotrs(d.gram_chol, bracket.T, lower=1)[0]

    asym = np.abs(h - h.T).max()
    scale = max(np.abs(h).max(), 1e-300)
    if asym > HESS_ASYM_RTOL * scale:
        raise ValueError("Hessian asymmetry residue exceeds tolerance")
    return 0.5 * (h + h.T)


def objective_F(rho, kernel: SlepianKernel, zhat: Spectrum) -> float:
    """Residual energy after least-squares elimination of the amplitudes."""
    return _evaluate(rho, kernel, zhat).f


def gradient_F(rho, kernel: SlepianKernel, zhat: Spectrum) -> np.ndarray:
    return _gradient(_evaluate(rho, kernel, zhat), _ls(kernel))[0]


def hessian_F(rho, kernel: SlepianKernel, zhat: Spectrum) -> np.ndarray:
    p = _evaluate(rho, kernel, zhat)
    ls = _ls(kernel)
    return _hessian(p, ls, _gradient(p, ls)[1])


def run_newton(tau0, kernel: SlepianKernel, zhat: Spectrum, box: BoxConstraint,
               cfg: NewtonConfig = NewtonConfig()) -> SolveReport:
    """Projected Newton refinement of tau0 within the box (Bertsekas, SIAM J.
    Control Optim. 20, 1982).

    The iterate is the offset u = tau - box.center in [-r, r]^K: the boxes are
    disjoint intervals of radius r < 1/4, so the projection is Euclidean
    clipping and step lengths are plain norms. F is 1-periodic in each
    position, so it is evaluated at box.center + u without wrapping.
    zhat must already be filtered by the kernel used to build the dictionary.

    Step: on the free coordinates, |u_i| < r - eps with eps the last projected
    step length, v solves H v = g by Cholesky; elsewhere v_i = g_i / H_ii, or
    g_i where H_ii <= 0. The first of c = clip(u - lambda v, -r, r), lambda =
    1, 1/2, ..., 2^-MAX_BACKTRACKS, whose positions differ from the iterate's
    and which lowers F by ARMIJO_CONST times the predicted decrease
    lambda g_free . v_free + g_active . (u - c)_active (Bertsekas' Armijo rule)
    is taken.
    Stop: converged when the projected full step is at most 1e-12 sqrt(K), or
    when the predicted decrease g . (u - clip(u - v, -r, r)) is at most
    PRED_RTOL * F; stalled when no trial point is taken; hessian_not_pd when
    the free block has no Cholesky factor; max_iter when cfg.max_iter ran out.
    """
    r = box.radius
    u = wrap_signed(np.atleast_1d(np.asarray(tau0, dtype=float)), box.center)
    if np.any(np.abs(u) > r + FEAS_TOL):
        raise ValueError("infeasible point")
    eta_stop = 1e-12 * np.sqrt(u.size)
    eps = r / 2.0
    ls = _ls(kernel)

    p = _evaluate(box.center + u, kernel, zhat)
    f_trace = [p.f]
    status = STATUS_MAX_ITER
    iterations = 0
    for _ in range(cfg.max_iter):
        iterations += 1
        grad, w = _gradient(p, ls)
        hess = _hessian(p, ls, w)
        diag = hess.diagonal()
        v = grad / np.where(diag > 0.0, diag, 1.0)
        free = np.abs(u) < r - eps
        if free.any():  # LAPACK rejects the empty block; then v is the diagonal step
            chol, info = dpotrf(hess[free][:, free], lower=1, clean=1)
            if info > 0:
                status = STATUS_HESSIAN_NOT_PD
                break
            v[free] = dpotrs(chol, grad[free], lower=1)[0]

        u_full = np.clip(u - v, -r, r)
        step_norm = float(np.linalg.norm(u_full - u))
        if step_norm <= eta_stop or grad @ (u - u_full) <= PRED_RTOL * p.f:
            status = STATUS_CONVERGED
            break
        eps = min(step_norm, r)

        for m in range(MAX_BACKTRACKS + 1):
            lam = 2.0**-m
            cand = np.clip(u - lam * v, -r, r)
            rho = box.center + cand
            if np.array_equal(rho, box.center + u):  # rounds to the iterate: F is unchanged
                continue
            q = _evaluate(rho, kernel, zhat)
            if q.f - p.f <= -ARMIJO_CONST * grad @ np.where(free, lam * v, u - cand):
                break
        else:
            status = STATUS_STALLED
            break
        u, p = cand, q
        f_trace.append(p.f)

    return SolveReport(
        tau_tilde=wrap(box.center + u),
        beta=p.beta,
        f_trace=np.asarray(f_trace),
        grad_norm_final=float(np.linalg.norm(_gradient(p, ls)[0])),
        status=status,
        iterations=iterations,
        centres=box.center,
    )


def _prune(tau: np.ndarray, beta: np.ndarray, radius: float) -> np.ndarray:
    """tau without its smallest-|beta| atom, then without the smaller-|beta| atom
    of every pair within 2 radius: the rest, in their order, are valid box centres.

    A hessian_not_pd run can end with two atoms that close.
    """
    keep = np.zeros(tau.size, dtype=bool)
    weakest = np.argmin(np.abs(beta))
    for i in np.argsort(-np.abs(beta), kind="stable"):
        if i != weakest and not np.any(wrap_dist(tau[i], tau[keep]) <= 2.0 * radius):
            keep[i] = True
    return tau[keep]


def solve_phase2(y: Spectrum, tau0, kernel1: SlepianKernel,
                 kernel2: SlepianKernel) -> SolveReport:
    """Phase 2 from the phase-1 picks tau0: run_newton on y filtered by kernel2,
    in boxes of radius sigma1 around tau0, then prune-and-re-seed rounds.

    hessian_not_pd in practice means that phase 1 missed a weak spike and an
    atom has nothing to fit. While that is the status and fewer than
    MAX_RESEEDS rounds ran, a round drops the atom with the smallest |beta|
    and the weaker atom of any pair within 2 sigma1 (`_prune`), adds one pick
    per dropped atom from phase 1's greedy scan (`peaks.greedy_scan`, erasure
    radius 2 sigma1) on phase 2's own residual
    zhat - ghat2 sum_i beta_i e^{-2 pi i l tau_i}, with the kept atoms taken,
    and runs Newton again in boxes around the new atoms. Returns the final
    round's report, with its reseeds count set. This is the
    local-improvement step of ADCG (Boyd, Schiebinger and Recht, SIAM J.
    Optim. 27, 2017) and of sliding Frank-Wolfe (Denoyelle, Duval, Peyre and
    Soubies, Inverse Problems 36, 2019).
    """
    zhat = pointwise_mul(y, kernel2.spectrum())
    radius = kernel1.sigma
    centres = tau0
    for reseeds in range(MAX_RESEEDS + 1):
        report = run_newton(centres, kernel2, zhat, BoxConstraint(centres, radius))
        if report.status != STATUS_HESSIAN_NOT_PD or reseeds == MAX_RESEEDS:
            break
        model = spike_fourier(SpikeTrain(report.tau_tilde, report.beta), y.f_c)
        resid = Spectrum(y.f_c, zhat.coeffs - kernel2.ghat * model.coeffs, real_signal=True)
        kept = _prune(report.tau_tilde, report.beta, radius)
        dropped = report.tau_tilde.size - kept.size
        pick = greedy_scan(resid, radius, dropped, taken=kept).tau0
        if not pick.size:
            break
        centres = np.append(kept, pick)
    return replace(report, reseeds=reseeds)
