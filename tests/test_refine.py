"""Projected Newton refinement: dictionary, derivatives, projection, solver."""

import tracemalloc
from pathlib import Path
from typing import Optional

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import fixed_quad

import superres.refine
from superres.circle import hausdorff, separation, wrap, wrap_dist, wrap_signed
from superres.peaks import OVERSAMPLE, PeakConfig, find_peaks
from superres.refine import (
    FEAS_TOL,
    MAX_RESEEDS,
    STATUS_CONVERGED,
    STATUS_HESSIAN_NOT_PD,
    STATUS_MAX_ITER,
    STATUS_NO_PEAKS,
    STATUS_STALLED,
    BoxConstraint,
    DegenerateDictionaryError,
    NewtonConfig,
    SolveReport,
    build_G,
    gradient_F,
    hessian_F,
    least_squares_beta,
    objective_F,
    run_newton,
    solve_phase2,
)
from superres.experiments import sample_positions
from superres.slepian import SlepianKernel, build_kernel
from superres.spectral import (
    Spectrum,
    SpikeTrain,
    add,
    ells,
    eval_grid,
    eval_point,
    half_band,
    load_spectrum_csv,
    pointwise_mul,
    smooth_len,
    spike_fourier,
    synth_noise,
)
from test_spectral import phasors

TAU_EXAMPLE = np.array([0.2995, 0.3663, 0.4332, 0.5000, 0.5668, 0.6337, 0.7005])
ALPHA_EXAMPLE = np.array([10.0, -1.0, 1.0, -3.0, 2.0, -5.0, 2.0])
F_C = 50
SIGMA1 = 1.5 / 101

KERNELS2 = {f_c: build_kernel(f_c, 2.25) for f_c in (2, 50, 1000)}


@pytest.fixture(scope="module")
def kernel2():
    return build_kernel(F_C, 2.25)


@pytest.fixture(scope="module")
def zhat_example(kernel2):
    y = spike_fourier(SpikeTrain(TAU_EXAMPLE, ALPHA_EXAMPLE), F_C)
    return pointwise_mul(y, kernel2.spectrum())


def filtered_spikes(kernel, tau, alpha):
    return pointwise_mul(spike_fourier(SpikeTrain(tau, alpha), F_C), kernel.spectrum())


def full_band_G(rho, kernel: SlepianKernel) -> np.ndarray:
    """Reference dictionary: N x K complex, rows l = -f_C .. f_C."""
    rho = wrap(np.atleast_1d(np.asarray(rho, dtype=float)))
    return kernel.ghat[:, None] * np.exp(-2j * np.pi * np.outer(ells(kernel.f_c), rho))


def full_band_reference(rho, kernel: SlepianKernel, zhat: Spectrum) -> dict:
    """Gram, beta, F, gradient and Hessian in complex arithmetic over the whole band.

    Each is mathematically real; the imaginary part left over is the check
    that the spectra are Hermitian and the half-band fold is valid.
    """
    G = full_band_G(rho, kernel)
    gh = G.conj().T
    ls = 2j * np.pi * ells(kernel.f_c)
    z = zhat.coeffs
    gram = gh @ G
    glg = gh @ (ls[:, None] * G)
    gl2g = gh @ (ls[:, None] ** 2 * G)
    beta = np.linalg.solve(gram, gh @ z)
    r = z - G @ beta
    w = gh @ (ls * r)
    w2 = gh @ (ls**2 * r)
    db = np.diag(beta)
    bracket = db @ glg - np.diag(w)
    hess = (-2.0 * db @ gl2g @ db
            - 2.0 * db @ np.diag(w2)
            - 2.0 * bracket @ np.linalg.solve(gram, bracket.T))
    return {"gram": gram, "glg": glg, "gl2g": gl2g, "w": w, "w2": w2, "beta": beta,
            "F": np.vdot(r, r), "grad": -2.0 * beta * w, "hess": 0.5 * (hess + hess.T),
            "r": r, "lr": ls * r}


def gram(d) -> np.ndarray:
    k = d.gram_inv.shape[0]
    return d.Q[:k, :k]


def eps_active_set(rho, box: BoxConstraint, eps: float) -> np.ndarray:
    """Indices within eps of the box boundary (eps = 0: exactly active)."""
    rho = wrap(np.atleast_1d(np.asarray(rho, dtype=float)))
    d = wrap_dist(rho, box.center)
    if np.any(d > box.radius + FEAS_TOL):
        raise ValueError("infeasible point")
    return np.flatnonzero(d >= box.radius - eps)


def project_box(rho, box: BoxConstraint) -> np.ndarray:
    """Clamp each coordinate to the box, along the shorter arc; antipodal
    points tie-break toward center + radius."""
    u = wrap_signed(rho, box.center)
    return wrap(box.center + np.clip(u, -box.radius, box.radius))


def _displacement_norm(a, b) -> float:
    return float(np.linalg.norm(wrap_signed(a, b)))


def run_gradient_projection(tau0, kernel: SlepianKernel, zhat: Spectrum,
                            box: BoxConstraint, step_init: float = 1.0,
                            max_iter: int = 5000,
                            eta_stop: Optional[float] = None,
                            armijo_const: float = 1e-4,
                            max_backtracks: int = 60) -> SolveReport:
    """First-order alternative: projected gradient steps with Armijo backtracking."""
    tau = wrap(np.atleast_1d(np.asarray(tau0, dtype=float)))
    if eta_stop is None:
        eta_stop = 1e-12 * np.sqrt(tau.size)

    f_trace = [objective_F(tau, kernel, zhat)]
    status = STATUS_MAX_ITER
    iterations = 0
    step = step_init
    for _ in range(max_iter):
        iterations += 1
        grad = gradient_F(tau, kernel, zhat)
        trial = project_box(wrap(tau - step * grad), box)
        if _displacement_norm(trial, tau) <= eta_stop:
            status = STATUS_CONVERGED
            break

        accepted = None
        f_cur = f_trace[-1]
        delta = step
        for _ in range(max_backtracks + 1):
            cand = project_box(wrap(tau - delta * grad), box)
            disp2 = float(np.sum(wrap_signed(cand, tau) ** 2))
            f_new = objective_F(cand, kernel, zhat)
            if disp2 > 0 and f_new - f_cur <= -armijo_const / max(delta / step, 1e-300) * disp2:
                accepted = (cand, f_new, delta)
                break
            delta *= 0.5
        if accepted is None:
            break
        tau, f_new, used = accepted
        f_trace.append(f_new)
        step = 2.0 * used  # let the step grow back after cautious iterations

    d = build_G(tau, kernel)
    beta = least_squares_beta(d, zhat)
    return SolveReport(
        tau_tilde=tau,
        beta=beta,
        f_trace=np.asarray(f_trace),
        grad_norm_final=float(np.linalg.norm(gradient_F(tau, kernel, zhat))),
        status=status,
        iterations=iterations,
        centres=box.center,
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


class TestBuildG:
    def test_gram_identity_at_origin(self, kernel2):
        d = build_G(np.array([0.3]), kernel2)
        assert gram(d).shape == (1, 1)
        assert gram(d)[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_gram_entries_by_quadrature(self, kernel2):
        # Gram entry (i, j) equals the time-domain inner product of the
        # kernel shifted to rho_i and rho_j
        rho = np.array([0.2, 0.31])
        d = build_G(rho, kernel2)
        spec = kernel2.spectrum()

        def product(ts):
            ts = np.atleast_1d(ts)
            return np.array(
                [eval_point(spec, t - rho[0]) * eval_point(spec, t - rho[1]) for t in ts]
            )

        expected, _ = fixed_quad(product, 0.0, 1.0, n=400)
        assert gram(d)[0, 1] == pytest.approx(expected, abs=1e-9)

    def test_gram_nearly_orthonormal_when_separated(self, kernel2):
        rho = np.array([0.1, 0.3, 0.52, 0.78])
        d = build_G(rho, kernel2)
        assert np.linalg.norm(np.eye(4) - gram(d), 2) < 1e-3

    @pytest.mark.parametrize("shift", [0.0, 1.0], ids=["same", "plus_one"])
    @pytest.mark.parametrize("k", [2, 3, 7, 14])
    @pytest.mark.parametrize("f_c", [2, 50, 1000])
    def test_duplicate_positions_degenerate(self, f_c, k, shift):
        # The Gram's Cholesky test alone raises: an exact duplicate makes it
        # singular, and so does one given as x + 1, which wraps to x or to
        # within rounding of it.
        rng = np.random.default_rng([f_c, k])
        rho = rng.random(k)
        i, j = rng.choice(k, 2, replace=False)
        rho[j] = rho[i] + shift
        with pytest.raises(DegenerateDictionaryError):
            build_G(rho, build_kernel(f_c, 2.25))

    @settings(max_examples=300, deadline=None)
    @given(f_c=st.sampled_from([2, 50, 1000]), k=st.integers(2, 14),
           seed=st.integers(0, 2**32 - 1), log_gap=st.floats(-12.0, -1.0),
           turn=st.sampled_from([-1.0, 0.0, 1.0]))
    @example(f_c=50, k=2, seed=0, log_gap=-np.inf, turn=1.0)
    @example(f_c=50, k=7, seed=1, log_gap=-5.0, turn=0.0)
    def test_at_least_as_strict_as_the_cholesky_test(self, f_c, k, seed, log_gap, turn):
        # Oracle: LAPACK's Cholesky factor of the same Gram matrix, degenerate when
        # it fails or a diagonal entry is below 1e-3. Two of the k positions are
        # 10^log_gap apart, one of them given turn whole turns away.
        rng = np.random.default_rng(seed)
        rho = rng.random(k)
        i, j = rng.choice(k, 2, replace=False)
        rho[j] = rho[i] + 10.0**log_gap + turn
        grams = []

        def recorded(a):
            grams.append(a.copy())
            return np.linalg.inv(a)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(superres.refine, "inv", recorded)
            try:
                build_G(rho, KERNELS2[f_c])
                refused = False
            except DegenerateDictionaryError:
                refused = True
        chol, info = scipy.linalg.lapack.dpotrf(grams[0], lower=1, clean=1)
        if info > 0 or chol.diagonal().min() < 1e-3:
            assert refused

    def test_near_duplicate_positions_degenerate(self, kernel2):
        with pytest.raises(DegenerateDictionaryError):
            build_G(np.array([0.5, 0.5 + 1e-6]), kernel2)

    @pytest.mark.parametrize("rho", [[0.1, np.nan], [np.inf], []])
    def test_non_finite_or_empty_positions_raise(self, kernel2, rho):
        with pytest.raises(ValueError, match="non-empty array of finite"):
            build_G(rho, kernel2)

    def test_wraps_positions(self, kernel2):
        a = build_G(np.array([0.25, 1.75]), kernel2)
        b = build_G(np.array([0.25, 0.75]), kernel2)
        assert np.allclose(a.V, b.V)

    @pytest.mark.parametrize("k", [1, 3, 14])
    @pytest.mark.parametrize("f_c", [1, 2, 3, 8, 15, 50, 1000])
    def test_rows_are_weighted_phasors_bit_for_bit(self, f_c, k, monkeypatch):
        # B = isqrt(f_c) + 1 and J = ceil((f_c + 1) / B): J B = f_c + 1 at f_c = 3, 8
        # and 15, and the last block is partial elsewhere. Y's rows are written in
        # place, block by block; they equal test_spectral's reference `phasors`, bit for bit.
        # The Gram test is beside the point (14 atoms at f_c = 1 are degenerate).
        monkeypatch.setattr(superres.refine, "inv", lambda a: np.eye(len(a)))
        kernel = build_kernel(f_c, min(2.25, 0.4 * (2 * f_c + 1)))
        rho = np.random.default_rng([f_c, k]).random(k) * 3.0 - 1.0
        g = np.sqrt(half_band(f_c)[1]) * kernel.ghat[f_c:]
        y = np.ascontiguousarray(g.astype(complex) * phasors(f_c, -wrap(rho)).T)
        expected = np.concatenate([y, y * (2j * np.pi * np.arange(f_c + 1))]).view(float)
        assert np.array_equal(build_G(rho, kernel).V, expected)

    def test_peak_memory_is_about_one_dictionary(self):
        # At (f_c, K) = (4000, 40), Y is 2K x (f_c + 1) complex, 5.1 MB. Its products
        # go straight into it: a J x B x K phasor temporary would add half as much.
        kernel = build_kernel(4000, 2.25)
        rho = (np.arange(40) + 0.5) / 40
        build_G(rho, kernel)  # the kernel's half-band arrays are made once, untraced
        tracemalloc.start()
        try:
            d = build_G(rho, kernel)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * d.V.nbytes


class TestLeastSquares:
    def test_beta_matches_svd_pinv_oracle(self, kernel2, zhat_example):
        rho = wrap(TAU_EXAMPLE + 0.002)
        d = build_G(rho, kernel2)
        beta = least_squares_beta(d, zhat_example)
        oracle = np.linalg.pinv(full_band_G(rho, kernel2)) @ zhat_example.coeffs
        assert np.abs(oracle.imag).max() < 1e-9
        assert np.abs(beta - oracle.real).max() < 1e-9

    def test_exact_positions_recover_amplitudes(self, kernel2, zhat_example):
        d = build_G(TAU_EXAMPLE, kernel2)
        beta = least_squares_beta(d, zhat_example)
        assert np.abs(beta - ALPHA_EXAMPLE).max() < 1e-10


class TestObjective:
    def test_zero_at_true_positions(self, kernel2, zhat_example):
        assert objective_F(TAU_EXAMPLE, kernel2, zhat_example) < 1e-20

    def test_positive_off_positions(self, kernel2, zhat_example):
        assert objective_F(wrap(TAU_EXAMPLE + 0.003), kernel2, zhat_example) > 0

    def test_matches_dense_projector_oracle(self, kernel2, zhat_example):
        rho = wrap(TAU_EXAMPLE + 0.004)
        G = full_band_G(rho, kernel2)
        proj = G @ np.linalg.pinv(G)
        resid = (np.eye(101) - proj) @ zhat_example.coeffs
        expected = float(np.vdot(resid, resid).real)
        assert objective_F(rho, kernel2, zhat_example) == pytest.approx(expected, rel=1e-9)

    def test_bounded_by_measurement_energy(self, kernel2, zhat_example):
        value = objective_F(np.array([0.05]), kernel2, zhat_example)
        assert 0 <= value <= np.sum(np.abs(zhat_example.coeffs) ** 2) + 1e-12


class TestDerivatives:
    def setup_method(self):
        rng = np.random.default_rng(321)
        self.tau = np.array([0.15, 0.42, 0.73])
        self.alpha = np.array([3.0, -7.0, 2.0])
        self.rho = wrap(self.tau + rng.uniform(-0.5, 0.5, 3) * SIGMA1)

    def test_gradient_fd(self, kernel2):
        zhat = filtered_spikes(kernel2, self.tau, self.alpha)
        grad = gradient_F(self.rho, kernel2, zhat)
        h = 1e-7 * kernel2.sigma
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            fd = (
                objective_F(self.rho + e, kernel2, zhat)
                - objective_F(self.rho - e, kernel2, zhat)
            ) / (2 * h)
            assert abs(grad[i] - fd) <= 1e-5 * max(np.abs(grad).max(), 1.0)

    def test_gradient_zero_at_optimum(self, kernel2):
        zhat = filtered_spikes(kernel2, self.tau, self.alpha)
        grad = gradient_F(self.tau, kernel2, zhat)
        assert np.abs(grad).max() < 1e-6

    def test_hessian_fd(self, kernel2):
        zhat = filtered_spikes(kernel2, self.tau, self.alpha)
        hess = hessian_F(self.rho, kernel2, zhat)
        h = 1e-7 * kernel2.sigma
        fd = np.empty((3, 3))
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            fd[:, i] = (
                gradient_F(self.rho + e, kernel2, zhat)
                - gradient_F(self.rho - e, kernel2, zhat)
            ) / (2 * h)
        fd = 0.5 * (fd + fd.T)
        assert np.linalg.norm(hess - fd) <= 1e-4 * np.linalg.norm(hess)

    def test_hessian_symmetric(self, kernel2):
        zhat = filtered_spikes(kernel2, self.tau, self.alpha)
        hess = hessian_F(self.rho, kernel2, zhat)
        assert np.array_equal(hess, hess.T)

    def test_hessian_pd_near_optimum(self, kernel2):
        zhat = filtered_spikes(kernel2, self.tau, self.alpha)
        hess = hessian_F(self.rho, kernel2, zhat)
        assert np.linalg.eigvalsh(hess).min() > 0

    @settings(max_examples=200, deadline=None)
    @given(k=st.integers(1, 14), seed=st.integers(0, 2**32 - 1), bad=st.integers(0, 3))
    @example(k=2, seed=0, bad=0)
    @example(k=3, seed=1, bad=3)
    def test_asymmetry_residue_is_the_largest_entry(self, k, seed, bad):
        # `_hessian` reads its residue as (h - h^T).max(): h - h^T rounds to an
        # antisymmetric matrix, so that is np.abs(h - h^T).max(), with NaN and inf
        # entries of h too. Magnitudes span 1e-300 .. 1e300.
        rng = np.random.default_rng(seed)
        h = rng.standard_normal((k, k)) * 10.0 ** rng.integers(-300, 301, (k, k))
        h.flat[rng.choice(k * k, min(bad, k * k), replace=False)] = rng.choice(
            [np.nan, np.inf, -np.inf], min(bad, k * k))
        with np.errstate(invalid="ignore"):  # inf - inf
            a = h - h.T
        assert np.array_equal(a.max(), np.abs(a).max(), equal_nan=True)

    def test_asymmetric_hessian_raises(self, kernel2):
        zhat = filtered_spikes(kernel2, self.tau, self.alpha)
        prob = superres.refine._problem(kernel2, zhat.coeffs[F_C:])
        p = superres.refine._evaluate(prob, self.rho)
        w = superres.refine._gradient(prob, p)[1]
        superres.refine._hessian(p, w)
        q = p.d.Q.copy()
        q[3, 4] += 1e-4 * np.abs(q).max()  # Q[k:, k:][0, 1]: h[0, 1] moves, h[1, 0] not
        with pytest.raises(ValueError, match="asymmetry"):
            superres.refine._hessian(p._replace(d=p.d._replace(Q=q)), w)


class TestFullBandOracle:
    @pytest.fixture(params=[50, 1000], scope="class")
    def cases(self, request):
        """(kernel, zhat, rho) at K = 1, 3, 7: noisy spikes, positions off by up to sigma1 / 2."""
        f_c = request.param
        kernel = build_kernel(f_c, 2.25)
        sigma1 = 1.5 / (2 * f_c + 1)
        rng = np.random.Generator(np.random.Philox(f_c))
        out = []
        for k in (1, 3, 7):
            tau = sample_positions(rng, k, 4.0 * sigma1)
            alpha = rng.uniform(1.0, 10.0, k) * rng.choice([-1.0, 1.0], k)
            y = add(spike_fourier(SpikeTrain(tau, alpha), f_c), synth_noise(f_c, 0.1, k))
            zhat = pointwise_mul(y, kernel.spectrum())
            out.append((kernel, zhat, wrap(tau + rng.uniform(-0.5, 0.5, k) * sigma1)))
        return out

    def test_half_band_matches_complex_full_band(self, cases):
        for kernel, zhat, rho in cases:
            d = build_G(rho, kernel)
            got = {"gram": gram(d), "beta": least_squares_beta(d, zhat),
                   "F": objective_F(rho, kernel, zhat), "grad": gradient_F(rho, kernel, zhat),
                   "hess": hessian_F(rho, kernel, zhat)}
            ref = full_band_reference(rho, kernel, zhat)
            for name in got:
                scale = np.abs(ref[name]).max()
                assert np.abs(np.imag(ref[name])).max() <= 1e-12 * scale, name
                assert np.abs(got[name] - np.real(ref[name])).max() <= 1e-12 * scale, name

    def test_stacked_blocks_match_complex_full_band(self, cases):
        # The blocks of Q = V V^T and the product w of V's lower half with
        # [r, 2 pi i l r], each against its own full-band sum. An entry of a
        # product of two stacks is bounded by the product of their norms
        # (Cauchy-Schwarz), so that bound is the scale: glg's diagonal is 0.
        for kernel, zhat, rho in cases:
            prob = superres.refine._problem(kernel, zhat.coeffs[kernel.f_c:])
            point = superres.refine._evaluate(prob, rho)
            w = superres.refine._gradient(prob, point)[1]
            q, k = point.d.Q, rho.size
            got = {"gram": q[:k, :k], "glg": q[:k, k:], "gl2g": -q[k:, k:],
                   "w": -w[0], "w2": -w[1]}
            ref = full_band_reference(rho, kernel, zhat)
            norm0 = np.sqrt(np.diag(ref["gram"]).real)  # ||G_i||
            norm1 = np.sqrt(-np.diag(ref["gl2g"]).real)  # ||2 pi l G_i||
            scales = {"gram": np.outer(norm0, norm0), "glg": np.outer(norm0, norm1),
                      "gl2g": np.outer(norm1, norm1), "w": norm1 * np.linalg.norm(ref["r"]),
                      "w2": norm1 * np.linalg.norm(ref["lr"])}
            for name, value in got.items():
                tol = 1e-12 * scales[name]
                assert value.shape == ref[name].shape, name
                assert np.all(np.abs(np.imag(ref[name])) <= tol), name
                assert np.all(np.abs(value - np.real(ref[name])) <= tol), name


class TestActiveSet:
    def test_brute_force_agreement(self):
        box = BoxConstraint(np.array([0.2, 0.5, 0.8]), 0.01)
        rho = np.array([0.2095, 0.5, 0.795])
        eps = 0.002
        got = eps_active_set(rho, box, eps)
        brute = [
            i
            for i in range(3)
            if box.radius - eps <= wrap_dist(rho[i], box.center[i]) <= box.radius
        ]
        assert list(got) == brute

    def test_zero_eps_only_boundary(self):
        box = BoxConstraint(np.array([0.5]), 0.01)
        assert list(eps_active_set(np.array([0.51]), box, 0.0)) == [0]
        assert list(eps_active_set(np.array([0.505]), box, 0.0)) == []

    def test_infeasible_raises(self):
        box = BoxConstraint(np.array([0.5]), 0.01)
        with pytest.raises(ValueError, match="infeasible"):
            eps_active_set(np.array([0.55]), box, 0.0)


class TestProjectBox:
    def test_interior_unchanged(self):
        box = BoxConstraint(np.array([0.5]), 0.01)
        assert project_box(np.array([0.505]), box)[0] == pytest.approx(0.505)

    def test_clamps_to_boundary(self):
        box = BoxConstraint(np.array([0.5]), 0.01)
        assert project_box(np.array([0.53]), box)[0] == pytest.approx(0.51)
        assert project_box(np.array([0.46]), box)[0] == pytest.approx(0.49)

    def test_wraparound_center(self):
        box = BoxConstraint(np.array([0.995]), 0.01)
        assert project_box(np.array([0.002]), box)[0] == pytest.approx(0.002)
        assert project_box(np.array([0.05]), box)[0] == pytest.approx(0.005)

    def test_antipodal_tie_toward_positive_side(self):
        box = BoxConstraint(np.array([0.25]), 0.01)
        assert project_box(np.array([0.75]), box)[0] == pytest.approx(0.26)

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        box = BoxConstraint(np.array([0.3, 0.7]), 0.02)
        for _ in range(20):
            p = project_box(rng.random(2), box)
            assert np.allclose(project_box(p, box), p, atol=1e-15)


class TestBoxConstraint:
    def test_radius_range(self):
        with pytest.raises(ValueError, match="radius"):
            BoxConstraint(np.array([0.5]), 0.3)
        with pytest.raises(ValueError, match="radius"):
            BoxConstraint(np.array([0.5]), 0.0)

    def test_overlapping_boxes_rejected(self):
        with pytest.raises(ValueError, match="separated"):
            BoxConstraint(np.array([0.5, 0.51]), 0.01)

    @pytest.mark.parametrize("center", [[0.1, np.nan], [-np.inf], []])
    def test_non_finite_or_empty_centers_raise(self, center):
        with pytest.raises(ValueError, match="non-empty array of finite"):
            BoxConstraint(center, 0.01)


class TestRunNewton:
    def test_worked_example_machine_precision(self, kernel2, zhat_example):
        kernel1 = build_kernel(F_C, 1.5)
        tau0 = wrap(TAU_EXAMPLE + np.array([4e-4, -6e-4, 3e-4, -2e-4, 5e-4, -4e-4, 2e-4]))
        box = BoxConstraint(tau0, kernel1.sigma)
        report = run_newton(tau0, kernel2, zhat_example, box)
        assert report.status == "converged"
        assert np.abs(np.sort(report.tau_tilde) - TAU_EXAMPLE).max() < 1e-12
        assert np.abs(np.sort(report.beta)[::-1].max() - 10.0) < 1e-10

    def test_start_at_solution(self, kernel2, zhat_example):
        box = BoxConstraint(TAU_EXAMPLE, SIGMA1)
        report = run_newton(TAU_EXAMPLE, kernel2, zhat_example, box)
        assert report.status == "converged"
        assert report.iterations == 1
        assert np.abs(report.tau_tilde - TAU_EXAMPLE).max() < 1e-12

    def test_descent_trace_monotone(self, kernel2, zhat_example):
        tau0 = wrap(TAU_EXAMPLE + 5e-4)
        box = BoxConstraint(tau0, SIGMA1)
        report = run_newton(tau0, kernel2, zhat_example, box)
        assert np.all(np.diff(report.f_trace) <= 0)

    def test_iterates_stay_feasible(self, kernel2, zhat_example):
        tau0 = wrap(TAU_EXAMPLE + 5e-4)
        box = BoxConstraint(tau0, SIGMA1)
        report = run_newton(tau0, kernel2, zhat_example, box)
        assert np.all(wrap_dist(report.tau_tilde, box.center) <= box.radius + 1e-12)

    def test_single_spike_grid_scan_oracle(self, kernel2):
        # 1-D problem: the Newton minimizer must beat a dense grid scan of F
        zhat = filtered_spikes(kernel2, [0.4321], [2.0])
        tau0 = np.array([0.43])
        box = BoxConstraint(tau0, SIGMA1)
        report = run_newton(tau0, kernel2, zhat, box)
        grid = np.linspace(0.43 - SIGMA1, 0.43 + SIGMA1, 2001)
        grid_best = min(objective_F(np.array([t]), kernel2, zhat) for t in grid)
        assert report.f_trace[-1] <= grid_best + 1e-15
        assert abs(report.tau_tilde[0] - 0.4321) < 1e-10

    def test_active_constraint_pins_coordinate(self, kernel2):
        # true spike just outside the box: the solution rides the boundary
        zhat = filtered_spikes(kernel2, [0.415], [1.0])
        tau0 = np.array([0.407])
        box = BoxConstraint(tau0, 0.005)
        report = run_newton(tau0, kernel2, zhat, box)
        assert report.tau_tilde[0] == pytest.approx(0.412, abs=1e-9)
        assert list(eps_active_set(report.tau_tilde, box, 0.0)) == [0]

    def test_max_iter_respected(self, kernel2, zhat_example):
        tau0 = wrap(TAU_EXAMPLE + 5e-4)
        box = BoxConstraint(tau0, SIGMA1)
        report = run_newton(tau0, kernel2, zhat_example, box, NewtonConfig(max_iter=1))
        assert report.iterations == 1

    @pytest.mark.parametrize("offset", [0.02, -0.02])
    def test_rejects_start_outside_box(self, kernel2, zhat_example, offset):
        box = BoxConstraint(TAU_EXAMPLE, 0.01)
        with pytest.raises(ValueError, match="infeasible"):
            run_newton(wrap(TAU_EXAMPLE + offset), kernel2, zhat_example, box)

    def test_step_past_antipode_clips_to_its_own_face(self, kernel2, monkeypatch):
        # F is barely convex at the start, so the first Newton step is about
        # 0.71 long and passes the antipode of the box centre. The full step
        # must clip to the face it points to, be accepted, and the solve must
        # go on to the spike inside the box. Leaving that face takes a scaled
        # step, not a raw gradient step that clips to the far face, so each
        # iteration costs about one evaluation.
        zhat = filtered_spikes(kernel2, [0.5], [1.0])
        tau0 = np.array([0.50838])
        box = BoxConstraint(tau0, 0.01)
        step = np.linalg.solve(hessian_F(tau0, kernel2, zhat), gradient_F(tau0, kernel2, zhat))
        assert 0.5 < step[0] < 1.0
        evaluate = superres.refine._evaluate
        points = []

        def recorded(prob, rho):
            p = evaluate(prob, rho)
            points.append((wrap_signed(rho, box.center)[0], p.f))
            return p

        monkeypatch.setattr(superres.refine, "_evaluate", recorded)
        report = run_newton(tau0, kernel2, zhat, box)
        assert points[1][0] == pytest.approx(-box.radius, abs=1e-15)
        assert points[1][1] == report.f_trace[1]
        assert report.status == STATUS_CONVERGED
        assert abs(report.tau_tilde[0] - 0.5) < 1e-10
        assert report.iterations <= 10
        assert len(points) <= 10

    def test_invariant_to_measurement_scale(self, kernel2):
        # F, its gradient and its Hessian all scale with the measurement's
        # energy, so the iterates must not depend on it. The start is on a
        # face, where the step is the diagonally scaled gradient; at 1e-5 its
        # curvature is far below ARMIJO_CONST.
        box = BoxConstraint(np.array([0.497]), 0.008)
        reports = [run_newton(np.array([0.505]), kernel2,
                              filtered_spikes(kernel2, [0.5], [scale]), box)
                   for scale in (1.0, 1e-5)]
        for report in reports:
            assert report.status == STATUS_CONVERGED
            assert abs(report.tau_tilde[0] - 0.5) < 1e-12
        assert reports[0].iterations == reports[1].iterations

    def test_noisy_stationary_start_converges(self, kernel2):
        # The worked example plus synth_noise(50, 0.1, seed=1), refined from
        # phase 1's picks. A few steps reach a point where F cannot resolve
        # Newton's predicted decrease; the solve must stop there as converged
        # instead of running to max_iter on zero steps.
        kernel1 = build_kernel(F_C, 1.5)
        y = add(spike_fourier(SpikeTrain(TAU_EXAMPLE, ALPHA_EXAMPLE), F_C),
                synth_noise(F_C, 0.1, 1))
        tau0 = find_peaks(y, kernel1, PeakConfig(max_peaks=7)).tau0
        box = BoxConstraint(tau0, kernel1.sigma)
        zhat = pointwise_mul(y, kernel2.spectrum())
        report = run_newton(tau0, kernel2, zhat, box)
        assert report.status == STATUS_CONVERGED
        assert report.iterations <= 20
        start = stationarity_residual(tau0, kernel2, zhat, box)
        assert stationarity_residual(report.tau_tilde, kernel2, zhat, box) <= 1e-5 * start

    def test_no_descent_is_stalled(self, kernel2, monkeypatch):
        # Every candidate is made no better than the start, so no step passes
        # Armijo. The Newton step is about 1e-8, so halving it soon gives
        # offsets that round to the start's positions; none of them may be
        # evaluated or accepted.
        zhat = filtered_spikes(kernel2, [0.5 + 1e-8], [1.0])
        tau0 = np.array([0.5])
        box = BoxConstraint(tau0, SIGMA1)
        evaluate = superres.refine._evaluate
        f0 = objective_F(tau0, kernel2, zhat)
        points = []

        def flat(prob, rho):
            points.append(np.array(rho))
            p = evaluate(prob, rho)
            return p._replace(f=max(p.f, f0))

        monkeypatch.setattr(superres.refine, "_evaluate", flat)
        report = run_newton(tau0, kernel2, zhat, box)
        assert report.status == STATUS_STALLED
        assert len(report.f_trace) == 1
        assert len(points) > 1
        assert not any(np.array_equal(rho, points[0]) for rho in points[1:])

    def test_all_active_takes_the_diagonal_step(self, kernel2, monkeypatch):
        # Both starts sit on a box face, so at eps = r / 2 the free block is
        # empty: there is nothing to factor, and the first trial point is the
        # full diagonally scaled step clipped to the box.
        zhat = filtered_spikes(kernel2, [0.3, 0.6], [2.0, -1.0])
        box = BoxConstraint(np.array([0.297, 0.603]), 0.008)
        tau0 = box.center + np.array([0.008, -0.008])
        evaluate = superres.refine._evaluate
        points = []

        def recorded(prob, rho):
            points.append(np.array(rho))
            return evaluate(prob, rho)

        monkeypatch.setattr(superres.refine, "_evaluate", recorded)
        report = run_newton(tau0, kernel2, zhat, box)
        u = wrap_signed(tau0, box.center)
        hess = hessian_F(box.center + u, kernel2, zhat)
        assert np.all(hess.diagonal() > 0.0)
        step = gradient_F(box.center + u, kernel2, zhat) / hess.diagonal()
        expected = box.center + np.clip(u - step, -box.radius, box.radius)
        assert np.abs(points[1] - expected).max() < 1e-15
        assert report.status == STATUS_CONVERGED
        assert np.abs(report.tau_tilde - [0.3, 0.6]).max() < 1e-10

    @pytest.mark.parametrize("centre,u", [(0.6015, -0.001), (0.6075, -0.008)],
                             ids=["all_free", "mixed"])
    def test_free_block_step(self, kernel2, monkeypatch, centre, u):
        # All free at eps = r / 2: the step is the Cholesky solve of the whole
        # Hessian. One start on a face: the free coordinates take the Cholesky
        # solve of their block, the other the diagonally scaled gradient. The
        # first trial point is that full step clipped to the box, bit for bit.
        zhat = filtered_spikes(kernel2, [0.3, 0.6], [2.0, -1.0])
        box = BoxConstraint(np.array([0.2985, centre]), 0.008)
        tau0 = box.center + np.array([0.001, u])
        u = wrap_signed(tau0, box.center)
        evaluate = superres.refine._evaluate
        points = []

        def recorded(prob, rho):
            points.append(np.array(rho))
            return evaluate(prob, rho)

        monkeypatch.setattr(superres.refine, "_evaluate", recorded)
        report = run_newton(tau0, kernel2, zhat, box)
        hess = hessian_F(box.center + u, kernel2, zhat)
        grad = gradient_F(box.center + u, kernel2, zhat)
        free = np.abs(u) < box.radius / 2
        v = grad / hess.diagonal()
        np.linalg.cholesky(hess[np.ix_(free, free)])  # positive definite, or it raises
        assert np.all(hess.diagonal() > 0.0)
        v[free] = np.linalg.solve(hess[np.ix_(free, free)], grad[free])
        assert np.array_equal(points[1], box.center + np.clip(u - v, -box.radius, box.radius))
        assert report.status == STATUS_CONVERGED
        assert np.abs(report.tau_tilde - [0.3, 0.6]).max() < 1e-10

    def test_indefinite_free_block_is_hessian_not_pd(self, kernel2, zhat_example, monkeypatch):
        # 2 J - I has a positive diagonal and the eigenvalue -1: only the
        # factor of the free block can tell that it is not positive definite.
        tau0 = wrap(TAU_EXAMPLE + 5e-4)
        monkeypatch.setattr(superres.refine, "_hessian",
                            lambda p, w: 2.0 * np.ones((p.beta.size,) * 2) - np.eye(p.beta.size))
        report = run_newton(tau0, kernel2, zhat_example, BoxConstraint(tau0, SIGMA1))
        assert report.status == STATUS_HESSIAN_NOT_PD
        assert report.iterations == 1 and report.f_trace.size == 1
        assert np.array_equal(report.tau_tilde, tau0)

    def test_indefinite_free_block_at_a_face_is_hessian_not_pd(self, kernel2, zhat_example,
                                                               monkeypatch):
        # The first coordinate starts near its face, so the free block is the
        # other six: 2 J - I of size 6, again with the eigenvalue -1.
        centre = wrap(TAU_EXAMPLE + 5e-4)
        tau0 = centre.copy()
        tau0[0] = wrap(centre[0] + 0.9 * SIGMA1)
        monkeypatch.setattr(superres.refine, "_hessian",
                            lambda p, w: 2.0 * np.ones((p.beta.size,) * 2) - np.eye(p.beta.size))
        factored = []

        def recorded(a):
            factored.append(a.shape)
            return np.linalg.cholesky(a)

        monkeypatch.setattr(superres.refine, "cholesky", recorded)
        report = run_newton(tau0, kernel2, zhat_example, BoxConstraint(centre, SIGMA1))
        assert report.status == STATUS_HESSIAN_NOT_PD
        assert factored[-1] == (6, 6)
        assert report.iterations == 1 and report.f_trace.size == 1
        assert np.array_equal(report.tau_tilde, tau0)

    @pytest.mark.parametrize("start", ["greedy", "offset"])
    def test_one_dictionary_per_point(self, kernel2, zhat_example, monkeypatch, start):
        # Every iterate and line-search candidate is evaluated once; neither
        # start backtracks, so each evaluation is one entry of the trace.
        if start == "greedy":
            kernel1 = build_kernel(F_C, 1.5)
            y = spike_fourier(SpikeTrain(TAU_EXAMPLE, ALPHA_EXAMPLE), F_C)
            tau0 = find_peaks(y, kernel1, PeakConfig(max_peaks=7)).tau0
            box = BoxConstraint(tau0, kernel1.sigma)
        else:
            tau0 = wrap(TAU_EXAMPLE + 5e-4)
            box = BoxConstraint(tau0, SIGMA1)
        calls = []
        dictionary = superres.refine._dictionary

        def counted(prob, rho):
            calls.append(rho)
            return dictionary(prob, rho)

        monkeypatch.setattr(superres.refine, "_dictionary", counted)
        report = run_newton(tau0, kernel2, zhat_example, box)
        assert len(calls) == len(report.f_trace)

    @pytest.mark.parametrize("exit_", [STATUS_CONVERGED, STATUS_HESSIAN_NOT_PD, STATUS_STALLED,
                                       STATUS_MAX_ITER])
    def test_one_gradient_per_iteration(self, kernel2, zhat_example, monkeypatch, exit_):
        # The loop's gradient at the final point gives grad_norm_final; only the
        # max_iter exit, whose last step moved the point, computes one more.
        tau0, zhat, cfg = wrap(TAU_EXAMPLE + 5e-4), zhat_example, NewtonConfig()
        if exit_ == STATUS_HESSIAN_NOT_PD:
            monkeypatch.setattr(superres.refine, "_hessian",
                                lambda p, w: 2.0 * np.ones((p.beta.size,) * 2) - np.eye(p.beta.size))
        elif exit_ == STATUS_STALLED:  # as in test_no_descent_is_stalled
            zhat, tau0 = filtered_spikes(kernel2, [0.5 + 1e-8], [1.0]), np.array([0.5])
            evaluate, f0 = superres.refine._evaluate, objective_F(tau0, kernel2, zhat)

            def flat(prob, rho):
                p = evaluate(prob, rho)
                return p._replace(f=max(p.f, f0))

            monkeypatch.setattr(superres.refine, "_evaluate", flat)
        elif exit_ == STATUS_MAX_ITER:
            cfg = NewtonConfig(max_iter=2)
        gradient = superres.refine._gradient
        calls = []

        def counted(prob, p):
            calls.append((prob, p))
            return gradient(prob, p)

        monkeypatch.setattr(superres.refine, "_gradient", counted)
        report = run_newton(tau0, kernel2, zhat, BoxConstraint(tau0, SIGMA1), cfg)
        assert report.status == exit_
        assert len(calls) == report.iterations + (exit_ == STATUS_MAX_ITER)
        prob, last = calls[-1]
        assert np.array_equal(last.beta, report.beta)
        assert report.grad_norm_final == float(np.linalg.norm(gradient(prob, last)[0]))


def newton_stub(report_of):
    """A stand-in for `refine._newton` from report_of(tau) -> SolveReport. The report's
    centres are the box's, as `_newton` reports them, and its final point holds the
    report's amplitudes and their residual, as `_evaluate` forms it."""
    def stub(prob, tau, box, cfg):
        report = report_of(tau)._replace(centres=box.center)
        d = build_G(report.tau_tilde, prob)
        r = prob.z - report.beta @ d.V[: report.beta.size]
        rr = np.stack([r, np.zeros_like(r)])  # row 1 is `_gradient`'s
        return report, superres.refine._Point(d=d, beta=report.beta, rr=rr, f=float(r @ r))
    return stub


class TestSolvePhase2:
    @pytest.fixture()
    def example(self):
        kernel1 = build_kernel(F_C, 1.5)
        y = spike_fourier(SpikeTrain(TAU_EXAMPLE, ALPHA_EXAMPLE), F_C)
        return y, find_peaks(y, kernel1, PeakConfig(max_peaks=7)).tau0, kernel1

    def test_without_reseed_it_is_run_newton(self, kernel2, example):
        y, tau0, kernel1 = example
        result = solve_phase2(y, tau0, kernel1, kernel2)
        direct = run_newton(tau0, kernel2, pointwise_mul(y, kernel2.spectrum()),
                            BoxConstraint(tau0, kernel1.sigma), NewtonConfig())
        assert result.reseeds == 0 and np.array_equal(result.centres, tau0)
        for name in SolveReport._fields:
            assert np.array_equal(getattr(result, name), getattr(direct, name)), name

    def test_linalg_call_budget(self, kernel2, example, monkeypatch):
        # numpy's checked wrappers cost several microseconds a call at K = 14, so
        # each evaluated point makes one inverse of its Gram matrix, which serves the
        # amplitudes and the Hessian, and each Newton step one factor, the
        # positive-definiteness test, and one solve.
        calls = {"inv": 0, "cholesky": 0, "solve_linear": 0}

        def counted(name):
            wrapped = getattr(superres.refine, name)

            def call(*args):
                calls[name] += 1
                return wrapped(*args)
            return call

        for name in calls:
            monkeypatch.setattr(superres.refine, name, counted(name))
        points = []
        evaluate = superres.refine._evaluate

        def recorded(prob, rho):
            points.append(rho)
            return evaluate(prob, rho)

        monkeypatch.setattr(superres.refine, "_evaluate", recorded)
        y, tau0, kernel1 = example
        result = solve_phase2(y, tau0, kernel1, kernel2)
        assert result.status == STATUS_CONVERGED and result.iterations > 1
        assert np.abs(np.sort(result.tau_tilde) - TAU_EXAMPLE).max() < 1e-12
        assert calls == {"inv": len(points), "cholesky": result.iterations,
                         "solve_linear": result.iterations}

    def test_empty_picks_give_a_no_peaks_report(self, kernel2, example):
        y, _, kernel1 = example
        report = solve_phase2(y, [], kernel1, kernel2)
        assert report.status == STATUS_NO_PEAKS == "no_peaks"
        for name in ("tau_tilde", "beta", "f_trace", "centres"):
            assert getattr(report, name).shape == (0,), name
        assert report.iterations == report.reseeds == 0
        assert report.grad_norm_final == 0.0
        with pytest.raises(ValueError, match="non-empty array of finite"):
            solve_phase2(y, [np.nan], kernel1, kernel2)

    def test_reseed_next_to_an_atom_on_a_grid_point(self, monkeypatch):
        # A round keeps an atom on a grid point k and meets the residual's strongest
        # grid maximum j exactly 24 cells away. At f_c = 40 the grid is 8 N = 648
        # points (already 5-smooth) and 2 sigma1 = 3/81 is exactly 24 cells. j
        # survives the erasure by rounding and polishes to 0.012 cells beyond
        # 2 sigma1: the scan's distance tests and BoxConstraint's must round that
        # gap alike, or the new boxes overlap and it raises. Polished picks almost
        # never sit on a grid point, so Newton is stubbed to keep the atoms where
        # they are, with amplitudes too small to change the residual's maxima.
        f_c, m = 40, 648
        kernel1, kernel2 = build_kernel(f_c, 1.5), build_kernel(f_c, 2.25)
        assert smooth_len(OVERSAMPLE * (2 * f_c + 1)) == m and 2 * kernel1.sigma * m == 24
        y = spike_fourier(SpikeTrain(wrap(TAU_EXAMPLE + 0.2653), ALPHA_EXAMPLE), f_c)
        j = int(np.argmax(np.abs(eval_grid(pointwise_mul(y, kernel2.spectrum()), m))))
        on_grid = (j + 24) / m
        assert wrap_dist(j / m, on_grid) > 2 * kernel1.sigma
        calls = []

        def keep_in_place(tau):
            calls.append(tau)
            return SolveReport(tau_tilde=tau, beta=np.where(tau == on_grid, 2e-12, 1e-12),
                               f_trace=np.array([0.0]), grad_norm_final=0.0,
                               status="hessian_not_pd", iterations=1, centres=tau)

        monkeypatch.setattr(superres.refine, "_newton", newton_stub(keep_in_place))
        result = solve_phase2(y, np.array([on_grid, wrap(on_grid + 0.5)]), kernel1, kernel2)
        assert result.reseeds == MAX_RESEEDS
        gap = (wrap_dist(calls[1][1], on_grid) - 2 * kernel1.sigma) * m
        assert calls[1][0] == on_grid and 0 < gap < 0.05
        BoxConstraint(result.centres, kernel1.sigma)

    def test_reseed_keeps_both_atoms_of_a_close_pair(self, kernel2, example, monkeypatch):
        # Boxes 0 and 1 are 2.5 sigma1 apart, and Newton ends their atoms 1.5 sigma1
        # apart, each inside its own box. Only the weakest atom (2) is replaced:
        # the pair keeps its phase-1 boxes and round 2 starts from where it ended.
        y, _, kernel1 = example
        sigma1 = kernel1.sigma
        tau0 = np.array([0.1, 0.1 + 2.5 * sigma1, 0.5, 0.8])
        first = tau0 + np.array([0.5, -0.5, 0.0, 0.0]) * sigma1
        calls = []

        def close_pair(tau):
            calls.append(tau)
            return SolveReport(tau_tilde=first if len(calls) == 1 else tau,
                               beta=np.array([3.0, 2.0, 1.0, 4.0]), f_trace=np.array([0.0]),
                               grad_norm_final=0.0,
                               status="hessian_not_pd" if len(calls) == 1 else "converged",
                               iterations=1, centres=tau)

        monkeypatch.setattr(superres.refine, "_newton", newton_stub(close_pair))
        result = solve_phase2(y, tau0, kernel1, kernel2)
        assert result.reseeds == 1 and len(calls) == 2
        assert np.array_equal(calls[1][:3], first[[0, 1, 3]])
        assert np.array_equal(result.centres[:3], tau0[[0, 1, 3]])
        pick = result.centres[3]
        assert calls[1][3] == pick
        kept = np.append(tau0[[0, 1, 3]], first[[0, 1, 3]])
        assert np.all(wrap_dist(kept, pick) > 2.0 * sigma1)
        BoxConstraint(result.centres, sigma1)

    def test_close_pair_after_newton_does_not_raise(self):
        # make_pool("noisy", 2, 600) #520 of the benchmark (f_c = 50, K = 14, nu = 0.1):
        # the first Newton run ends hessian_not_pd with two atoms 0.83 * 2 sigma1
        # apart, and the next round's BoxConstraint raised.
        y = load_spectrum_csv(Path(__file__).parent / "data" / "close_pair_after_newton.csv")
        kernel1, kernel2 = build_kernel(F_C, 1.5), build_kernel(F_C, 2.25)
        tau0 = find_peaks(y, kernel1, PeakConfig(max_peaks=14)).tau0
        first = run_newton(tau0, kernel2, pointwise_mul(y, kernel2.spectrum()),
                           BoxConstraint(tau0, kernel1.sigma))
        assert first.status == "hessian_not_pd"
        assert separation(first.tau_tilde) <= 2 * kernel1.sigma
        result = solve_phase2(y, tau0, kernel1, kernel2)
        assert result.reseeds >= 1
        BoxConstraint(result.centres, kernel1.sigma)

    def test_every_box_centre_is_a_phase1_or_reseed_pick(self, monkeypatch):
        # The input of the test above: its close pair keeps both boxes, and the
        # solve ends converged after one round.
        y = load_spectrum_csv(Path(__file__).parent / "data" / "close_pair_after_newton.csv")
        kernel1, kernel2 = build_kernel(F_C, 1.5), build_kernel(F_C, 2.25)
        tau0 = find_peaks(y, kernel1, PeakConfig(max_peaks=14)).tau0
        newton, scan = superres.refine._newton, superres.refine.greedy_scan
        boxes, picks = [], [tau0]

        def recorded_newton(prob, tau, box, cfg):
            boxes.append(box.center)
            return newton(prob, tau, box, cfg)

        def recorded_scan(*args, **kwargs):
            result = scan(*args, **kwargs)
            picks.append(result.tau0)
            return result

        monkeypatch.setattr(superres.refine, "_newton", recorded_newton)
        monkeypatch.setattr(superres.refine, "greedy_scan", recorded_scan)
        report = solve_phase2(y, tau0, kernel1, kernel2)
        assert report.reseeds >= 1 and len(boxes) == report.reseeds + 1
        assert np.array_equal(report.centres, boxes[-1])
        for centres in boxes:
            assert np.isin(centres, np.concatenate(picks)).all()
        assert report.status == STATUS_CONVERGED

    def test_reseed_beside_kept_atoms_recovers_exactly(self):
        # make_pool("clean", 4, 3000, 50, 14, 0.04, 0.0) #1610 of the benchmark: it
        # re-seeds 4 times, and ends hessian_not_pd when a round's scan takes only
        # the kept box centres and not the kept atoms as well.
        y = load_spectrum_csv(Path(__file__).parent / "data" / "reseed_beside_kept_atoms.csv")
        truth = [0.32378377375465706, 0.3875489373191346, 0.4486192478215176,
                 0.49118812446494464, 0.5700379187579592, 0.6461006438318461,
                 0.7039271289203824, 0.8067116254017977, 0.9284553932611724,
                 0.0388669074263257, 0.11445782294280549, 0.1833083497197845,
                 0.22456809922679666, 0.2711058381683005]
        kernel1, kernel2 = build_kernel(F_C, 1.5), build_kernel(F_C, 2.25)
        tau0 = find_peaks(y, kernel1, PeakConfig(max_peaks=14)).tau0
        report = solve_phase2(y, tau0, kernel1, kernel2)
        assert report.status == STATUS_CONVERGED and report.reseeds >= 1
        assert hausdorff(report.tau_tilde, truth) < 1e-12

    @pytest.mark.parametrize("which", ["kernel1", "kernel2"])
    def test_kernel_from_another_band_raises(self, kernel2, example, which):
        # A kernel1 at f_c = 40 sized the boxes by its sigma, 1.5 / 81, and the
        # solve still reported converged.
        y, tau0, kernel1 = example
        kernels = {"kernel1": kernel1, "kernel2": kernel2}
        kernels[which] = build_kernel(40, kernels[which].c)
        with pytest.raises(ValueError, match="cut-off frequencies differ"):
            solve_phase2(y, tau0, kernels["kernel1"], kernels["kernel2"])

    @pytest.mark.parametrize("entry", [objective_F, gradient_F, hessian_F, run_newton])
    def test_zhat_from_another_band_raises(self, kernel2, example, entry):
        # zhat's half band has 51 coefficients, a kernel at f_c = 40 has 41
        y, tau0, kernel1 = example
        zhat = pointwise_mul(y, kernel2.spectrum())
        args = (BoxConstraint(tau0, kernel1.sigma),) if entry is run_newton else ()
        with pytest.raises(ValueError, match="cut-off frequencies differ"):
            entry(tau0, build_kernel(40, kernel2.c), zhat, *args)

    def test_reseed_rounds_build_no_spectrum(self, monkeypatch):
        # This input re-seeds. Phase 1 filters y's half band as an array, phase 2
        # does the same for its one problem, and each round scans Newton's residual.
        y = load_spectrum_csv(Path(__file__).parent / "data" / "close_pair_after_newton.csv")
        kernel1, kernel2 = build_kernel(F_C, 1.5), build_kernel(F_C, 2.25)
        for kernel in (kernel1, kernel2):
            kernel.spectrum()  # built once per kernel and cached: outside the count
        built = []
        post_init = Spectrum.__post_init__

        def counted(self, real_signal):
            built.append(self)
            post_init(self, real_signal)

        monkeypatch.setattr(Spectrum, "__post_init__", counted)
        tau0 = find_peaks(y, kernel1, PeakConfig(max_peaks=14)).tau0
        report = solve_phase2(y, tau0, kernel1, kernel2)
        assert report.reseeds >= 1
        assert built == []

    def test_reseed_scans_newtons_residual_of_one_problem(self, monkeypatch):
        y = load_spectrum_csv(Path(__file__).parent / "data" / "close_pair_after_newton.csv")
        kernel1, kernel2 = build_kernel(F_C, 1.5), build_kernel(F_C, 2.25)
        tau0 = find_peaks(y, kernel1, PeakConfig(max_peaks=14)).tau0
        problem, newton, scan = (superres.refine._problem, superres.refine._newton,
                                 superres.refine.greedy_scan)
        problems, reports, scanned = [], [], []

        def counted_problem(*args):
            problems.append(problem(*args))
            return problems[-1]

        def recorded_newton(*args):
            out = newton(*args)
            reports.append(out[0])
            return out

        def recorded_scan(c, *args, **kwargs):
            scanned.append(c)
            return scan(c, *args, **kwargs)

        monkeypatch.setattr(superres.refine, "_problem", counted_problem)
        monkeypatch.setattr(superres.refine, "_newton", recorded_newton)
        monkeypatch.setattr(superres.refine, "greedy_scan", recorded_scan)
        report = solve_phase2(y, tau0, kernel1, kernel2)
        assert report.reseeds >= 1 and len(problems) == 1
        assert len(scanned) >= report.reseeds
        zhat = pointwise_mul(y, kernel2.spectrum()).coeffs[F_C:]
        for round_report, c in zip(reports, scanned):
            model = spike_fourier(SpikeTrain(round_report.tau_tilde, round_report.beta), F_C)
            oracle = zhat - kernel2.ghat[F_C:] * model.coeffs[F_C:]
            assert np.abs(c - oracle).max() <= 1e-12 * np.abs(zhat).max()

    def test_reseed_rounds_are_bounded(self, kernel2, example, monkeypatch):
        y, tau0, kernel1 = example
        calls = []

        def never_pd(tau):
            calls.append(tau)
            return SolveReport(tau_tilde=tau, beta=np.arange(1.0, tau.size + 1),
                               f_trace=np.array([0.0]), grad_norm_final=0.0,
                               status="hessian_not_pd", iterations=1, centres=tau)

        monkeypatch.setattr(superres.refine, "_newton", newton_stub(never_pd))
        result = solve_phase2(y, tau0, kernel1, kernel2)
        assert result.reseeds == MAX_RESEEDS and len(calls) == MAX_RESEEDS + 1
        # each round drops the smallest |beta|, which sits first, and appends one centre
        assert np.array_equal(calls[1][:-1], tau0[1:])
        assert np.array_equal(result.centres, calls[-1])
        for tau in calls:
            assert tau.size == 7 and np.all(wrap_dist(tau[:-1], tau[-1]) > 2.0 * kernel1.sigma)


class TestGradientProjection:
    def test_agrees_with_newton(self, kernel2):
        zhat = filtered_spikes(kernel2, [0.3, 0.6], [2.0, -1.0])
        tau0 = np.array([0.301, 0.598])
        box = BoxConstraint(tau0, SIGMA1)
        newton = run_newton(tau0, kernel2, zhat, box)
        first_order = run_gradient_projection(tau0, kernel2, zhat, box,
                                              eta_stop=1e-13)
        assert np.abs(newton.tau_tilde - first_order.tau_tilde).max() < 1e-6

    def test_trace_monotone(self, kernel2):
        zhat = filtered_spikes(kernel2, [0.3, 0.6], [2.0, -1.0])
        tau0 = np.array([0.301, 0.598])
        box = BoxConstraint(tau0, SIGMA1)
        report = run_gradient_projection(tau0, kernel2, zhat, box)
        assert np.all(np.diff(report.f_trace) <= 0)

    def test_boundary_coordinate_stays_active(self, kernel2):
        zhat = filtered_spikes(kernel2, [0.415], [1.0])
        tau0 = np.array([0.407])
        box = BoxConstraint(tau0, 0.005)
        report = run_gradient_projection(tau0, kernel2, zhat, box)
        assert report.tau_tilde[0] == pytest.approx(0.412, abs=1e-8)


class TestStationarity:
    def test_zero_at_unconstrained_optimum(self, kernel2, zhat_example):
        box = BoxConstraint(TAU_EXAMPLE, SIGMA1)
        assert stationarity_residual(TAU_EXAMPLE, kernel2, zhat_example, box) < 1e-6

    def test_zero_at_pinned_boundary_solution(self, kernel2):
        zhat = filtered_spikes(kernel2, [0.415], [1.0])
        box = BoxConstraint(np.array([0.407]), 0.005)
        report = run_newton(np.array([0.407]), kernel2, zhat, box)
        assert stationarity_residual(report.tau_tilde, kernel2, zhat, box) < 1e-6

    def test_positive_away_from_solutions(self, kernel2, zhat_example):
        box = BoxConstraint(TAU_EXAMPLE, SIGMA1)
        rho = wrap(TAU_EXAMPLE + 3e-4)
        assert stationarity_residual(rho, kernel2, zhat_example, box) > 1e-3
