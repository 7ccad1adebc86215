"""Projected Newton refinement: dictionary, derivatives, projection, solver."""

from typing import Optional

import numpy as np
import pytest
from scipy.integrate import fixed_quad

import superres.refine
from superres.circle import wrap, wrap_dist, wrap_signed
from superres.peaks import PeakConfig, find_peaks
from superres.refine import (
    STATUS_CONVERGED,
    STATUS_MAX_ITER,
    BoxConstraint,
    DegenerateDictionaryError,
    NewtonConfig,
    SolveReport,
    _displacement_norm,
    build_G,
    eps_active_set,
    gradient_F,
    hessian_F,
    least_squares_beta,
    objective_F,
    project_box,
    reduced_hessian,
    run_newton,
    stationarity_residual,
)
from superres.experiments import _rejection_sample_positions
from superres.slepian import SlepianKernel, build_kernel
from superres.spectral import (
    Spectrum,
    SpikeTrain,
    add,
    ells,
    eval_point,
    pointwise_mul,
    spike_fourier,
    synth_noise,
)

TAU_EXAMPLE = np.array([0.2995, 0.3663, 0.4332, 0.5000, 0.5668, 0.6337, 0.7005])
ALPHA_EXAMPLE = np.array([10.0, -1.0, 1.0, -3.0, 2.0, -5.0, 2.0])
F_C = 50
SIGMA1 = 1.5 / 101


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
    beta = np.linalg.solve(gram, gh @ z)
    r = z - G @ beta
    w = gh @ (ls * r)
    db = np.diag(beta)
    bracket = db @ (gh @ (ls[:, None] * G)) - np.diag(w)
    hess = (-2.0 * db @ (gh @ (ls[:, None] ** 2 * G)) @ db
            - 2.0 * db @ np.diag(gh @ (ls**2 * r))
            - 2.0 * bracket @ np.linalg.solve(gram, bracket.T))
    return {"gram": gram, "beta": beta, "F": np.vdot(r, r), "grad": -2.0 * beta * w,
            "hess": 0.5 * (hess + hess.T)}


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
        active_set_final=eps_active_set(tau, box, 0.0),
    )


class TestBuildG:
    def test_gram_identity_at_origin(self, kernel2):
        d = build_G(np.array([0.3]), kernel2)
        assert d.gram.shape == (1, 1)
        assert d.gram[0, 0] == pytest.approx(1.0, abs=1e-12)

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
        assert d.gram[0, 1] == pytest.approx(expected, abs=1e-9)

    def test_gram_nearly_orthonormal_when_separated(self, kernel2):
        rho = np.array([0.1, 0.3, 0.52, 0.78])
        d = build_G(rho, kernel2)
        assert np.linalg.norm(np.eye(4) - d.gram, 2) < 1e-3

    def test_duplicate_positions_degenerate(self, kernel2):
        with pytest.raises(DegenerateDictionaryError):
            build_G(np.array([0.5, 0.5]), kernel2)

    def test_near_duplicate_positions_degenerate(self, kernel2):
        with pytest.raises(DegenerateDictionaryError):
            build_G(np.array([0.5, 0.5 + 1e-6]), kernel2)

    def test_wraps_positions(self, kernel2):
        a = build_G(np.array([0.25, 1.75]), kernel2)
        b = build_G(np.array([0.25, 0.75]), kernel2)
        assert np.allclose(a.G, b.G)


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

    def test_rejects_spectrum_not_real_signal(self, kernel2, zhat_example):
        z = Spectrum(F_C, zhat_example.coeffs)  # same coefficients, real_signal=False
        with pytest.raises(ValueError, match="real_signal"):
            least_squares_beta(build_G(TAU_EXAMPLE, kernel2), z)
        with pytest.raises(ValueError, match="real_signal"):
            run_newton(TAU_EXAMPLE, kernel2, z, BoxConstraint(TAU_EXAMPLE, SIGMA1))


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
        assert 0 <= value <= zhat_example.energy() + 1e-12


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


class TestFullBandOracle:
    @pytest.mark.parametrize("f_c", [50, 1000])
    def test_half_band_matches_complex_full_band(self, f_c):
        kernel = build_kernel(f_c, 2.25)
        sigma1 = 1.5 / (2 * f_c + 1)
        rng = np.random.Generator(np.random.Philox(f_c))
        for k in (1, 3, 7):
            tau = _rejection_sample_positions(rng, k, 4.0 * sigma1)
            alpha = rng.uniform(1.0, 10.0, k) * rng.choice([-1.0, 1.0], k)
            y = add(spike_fourier(SpikeTrain(tau, alpha), f_c), synth_noise(f_c, 0.1, k))
            zhat = pointwise_mul(y, kernel.spectrum())
            rho = wrap(tau + rng.uniform(-0.5, 0.5, k) * sigma1)
            d = build_G(rho, kernel)
            got = {"gram": d.gram, "beta": least_squares_beta(d, zhat),
                   "F": objective_F(rho, kernel, zhat), "grad": gradient_F(rho, kernel, zhat),
                   "hess": hessian_F(rho, kernel, zhat)}
            for name, ref in full_band_reference(rho, kernel, zhat).items():
                scale = np.abs(ref).max()
                assert np.abs(np.imag(ref)).max() <= 1e-12 * scale, name
                assert np.abs(got[name] - np.real(ref)).max() <= 1e-12 * scale, name


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


class TestReducedHessian:
    def test_elementwise_definition(self):
        h = np.arange(16, dtype=float).reshape(4, 4)
        h = h + h.T
        active = np.array([1, 3])
        r = reduced_hessian(h, active)
        for i in range(4):
            for j in range(4):
                if i in (1, 3) or j in (1, 3):
                    expected = 1.0 if i == j and i in (1, 3) else 0.0
                    assert r[i, j] == expected
                else:
                    assert r[i, j] == h[i, j]

    def test_empty_active_set_is_identity_map(self):
        h = np.eye(3) * 5.0
        assert np.array_equal(reduced_hessian(h, np.array([], dtype=int)), h)


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
        assert list(report.active_set_final) == [0]

    def test_max_iter_respected(self, kernel2, zhat_example):
        tau0 = wrap(TAU_EXAMPLE + 5e-4)
        box = BoxConstraint(tau0, SIGMA1)
        report = run_newton(tau0, kernel2, zhat_example, box, NewtonConfig(max_iter=1))
        assert report.iterations == 1

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

        def counted(rho, kernel):
            calls.append(rho)
            return build_G(rho, kernel)

        monkeypatch.setattr(superres.refine, "build_G", counted)
        report = run_newton(tau0, kernel2, zhat_example, box)
        assert len(calls) == len(report.f_trace)


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
