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
the real part of a sum weighted by `spectral.half_band`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_solve

from .circle import wrap, wrap_dist, wrap_signed
from .slepian import SlepianKernel
from .spectral import Spectrum, half_band

HESS_ASYM_RTOL = 1e-8
FEAS_TOL = 1e-12
ARMIJO_CONST = 1e-4
MAX_BACKTRACKS = 40

STATUS_CONVERGED = "converged"
STATUS_MAX_ITER = "max_iter"
STATUS_HESSIAN_NOT_PD = "hessian_not_pd"


class DegenerateDictionaryError(ValueError):
    """Candidate positions too close for a well-posed least-squares system."""


@dataclass(frozen=True)
class DictionaryMatrix:
    """Kernel coefficients modulated to candidate positions, with Gram factor."""

    rho: np.ndarray
    G: np.ndarray  # (f_C + 1) x K complex, rows l = 0 .. f_C
    gh: np.ndarray  # K x (f_C + 1), the weighted adjoint: Re(gh @ x) is G* x over the full band
    gram: np.ndarray  # K x K real SPD, G* G
    gram_chol: np.ndarray  # lower-triangular Cholesky factor of gram


@dataclass(frozen=True)
class BoxConstraint:
    """Per-coordinate interval of radius `radius` around each center position."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        center = wrap(np.atleast_1d(np.asarray(self.center, dtype=float)))
        object.__setattr__(self, "center", center)
        if not 0.0 < self.radius < 0.25:
            raise ValueError("radius must lie in (0, 1/4)")
        if center.size > 1:
            d = wrap_dist(center[:, None], center[None, :])
            iu = np.triu_indices(center.size, k=1)
            if np.any(d[iu] <= 2.0 * self.radius):
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
    active_set_final: np.ndarray = field(default_factory=lambda: np.array([], dtype=int))


def build_G(rho, kernel: SlepianKernel) -> DictionaryMatrix:
    """Modulated dictionary G[l, i] = ghat[l] e^{-i 2 pi l rho[i]} (l >= 0) and its Gram factor."""
    rho = wrap(np.atleast_1d(np.asarray(rho, dtype=float)))
    if rho.size > 1:
        d = wrap_dist(rho[:, None], rho[None, :])
        iu = np.triu_indices(rho.size, k=1)
        if np.any(d[iu] == 0.0):
            raise DegenerateDictionaryError("degenerate dictionary")
    ls, weights = half_band(kernel.f_c)
    G = kernel.ghat[kernel.f_c:, None] * np.exp(-2j * np.pi * np.outer(ls, rho))
    gh = (weights[:, None] * G).conj().T
    gram = (gh @ G).real
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise DegenerateDictionaryError("degenerate dictionary") from exc
    # Near-duplicate positions leave the Gram numerically PD but useless.
    if np.diag(chol).min() < 1e-3:
        raise DegenerateDictionaryError("degenerate dictionary")
    return DictionaryMatrix(rho=rho, G=G, gh=gh, gram=gram, gram_chol=chol)


def least_squares_beta(d: DictionaryMatrix, zhat: Spectrum) -> np.ndarray:
    """Amplitudes minimizing ||G beta - zhat||^2, via the Gram Cholesky factor."""
    if not zhat.real_signal:
        raise ValueError("least_squares_beta requires a real_signal spectrum")
    return cho_solve((d.gram_chol, True), (d.gh @ zhat.coeffs[zhat.f_c:]).real)


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

    db = np.diag(p.beta)
    term1 = -2.0 * db @ gl2g @ db
    term2 = -2.0 * db @ np.diag(w2)
    bracket = db @ glg - np.diag(w)
    term3 = -2.0 * bracket @ cho_solve((d.gram_chol, True), bracket.T)
    h = term1 + term2 + term3

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


def eps_active_set(rho, box: BoxConstraint, eps: float) -> np.ndarray:
    """Indices within eps of the box boundary (eps = 0: exactly active)."""
    rho = wrap(np.atleast_1d(np.asarray(rho, dtype=float)))
    d = wrap_dist(rho, box.center)
    if np.any(d > box.radius + FEAS_TOL):
        raise ValueError("infeasible point")
    return np.flatnonzero(d >= box.radius - eps)


def reduced_hessian(h: np.ndarray, active: np.ndarray) -> np.ndarray:
    """Replace active rows and columns with identity rows and columns."""
    r = h.copy()
    active = np.asarray(active, dtype=int)
    r[active, :] = 0.0
    r[:, active] = 0.0
    r[active, active] = 1.0
    return r


def project_box(rho, box: BoxConstraint) -> np.ndarray:
    """Clamp each coordinate to the box, along the shorter arc; antipodal
    points tie-break toward center + radius."""
    u = wrap_signed(rho, box.center)
    return wrap(box.center + np.clip(u, -box.radius, box.radius))


def _displacement_norm(a, b) -> float:
    return float(np.linalg.norm(wrap_signed(a, b)))


def run_newton(tau0, kernel: SlepianKernel, zhat: Spectrum, box: BoxConstraint,
               cfg: NewtonConfig = NewtonConfig()) -> SolveReport:
    """Projected Newton refinement of tau0 within the box.

    zhat must already be filtered by the kernel used to build the dictionary.
    """
    tau = wrap(np.atleast_1d(np.asarray(tau0, dtype=float)))
    eta_stop = 1e-12 * np.sqrt(tau.size)
    eps = box.radius / 2.0
    ls = _ls(kernel)

    p = _evaluate(tau, kernel, zhat)
    f_trace = [p.f]
    status = STATUS_MAX_ITER
    iterations = 0
    for _ in range(cfg.max_iter):
        iterations += 1
        grad, w = _gradient(p, ls)
        hess = _hessian(p, ls, w)
        active = eps_active_set(tau, box, eps)
        reduced = reduced_hessian(hess, active)
        try:
            rchol = np.linalg.cholesky(reduced)
        except np.linalg.LinAlgError:
            status = STATUS_HESSIAN_NOT_PD
            break
        v = cho_solve((rchol, True), grad)

        tau_full = project_box(wrap(tau - v), box)
        step_norm = _displacement_norm(tau_full, tau)
        if step_norm <= eta_stop:
            status = STATUS_CONVERGED
            break
        eps = min(step_norm, box.radius)

        for m in range(MAX_BACKTRACKS + 1):
            lam = 2.0**-m
            cand = tau_full if m == 0 else project_box(wrap(tau - lam * v), box)
            disp2 = float(np.sum(wrap_signed(cand, tau) ** 2))
            q = _evaluate(cand, kernel, zhat)
            if q.f - p.f <= -ARMIJO_CONST / lam * disp2:
                break
        else:
            break  # no acceptable step: stalled at numerical floor
        tau, p = cand, q
        f_trace.append(p.f)

    return SolveReport(
        tau_tilde=tau,
        beta=p.beta,
        f_trace=np.asarray(f_trace),
        grad_norm_final=float(np.linalg.norm(_gradient(p, ls)[0])),
        status=status,
        iterations=iterations,
        active_set_final=eps_active_set(tau, box, 0.0),
    )


def stationarity_residual(rho, kernel: SlepianKernel, zhat: Spectrum,
                          box: BoxConstraint) -> float:
    """Norm of the gradient components that still point into the feasible box.

    Inactive coordinates contribute their full gradient entry; coordinates on
    the boundary contribute only if the descent direction points inward.
    """
    rho = wrap(np.atleast_1d(np.asarray(rho, dtype=float)))
    grad = gradient_F(rho, kernel, zhat)
    u = wrap_signed(rho, box.center)
    if np.any(np.abs(u) > box.radius + FEAS_TOL):
        raise ValueError("infeasible point")
    res = grad.copy()
    upper = u >= box.radius - FEAS_TOL
    lower = u <= -box.radius + FEAS_TOL
    res[upper] = np.maximum(grad[upper], 0.0)
    res[lower] = np.minimum(grad[lower], 0.0)
    return float(np.linalg.norm(res))
