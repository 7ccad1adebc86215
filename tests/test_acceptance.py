"""Acceptance gate: nine end-to-end criteria, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines
as they complete (pytest hides captured output for passing tests otherwise).
"""

import numpy as np
import pytest
from scipy.integrate import fixed_quad

from superres.circle import hausdorff, wrap, wrap_dist
from superres.experiments import (
    EXACT_RECOVERY_ERR,
    GRAD_CHECK_RTOL,
    HESS_CHECK_RTOL,
    ExperimentConfig,
    _rejection_sample_positions,
    gradcheck,
    run_monte_carlo,
)
from superres.peaks import PeakConfig, find_peaks
from superres.refine import BoxConstraint, NewtonConfig, build_G, hessian_F, run_newton
from superres.slepian import build_kernel
from superres.spectral import SpikeTrain, Spectrum, eval_grid, spike_fourier

TAU_EXAMPLE = np.array([0.2995, 0.3663, 0.4332, 0.5000, 0.5668, 0.6337, 0.7005])
ALPHA_EXAMPLE = np.array([10.0, -1.0, 1.0, -3.0, 2.0, -5.0, 2.0])

F_C = 50
C1 = 1.5
C2 = 2.25

# Gram near-orthonormality bound committed for well-separated dictionaries
# (f_c = 50, c = 2.25, 7 spikes separated by >= 4 sigma); measured max over
# the seeded draws below is 1.12e-5.
GRAM_ORTHO_BOUND = 2e-5


def _report(criterion: int, name: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"criterion {criterion} ({name}): {tag}{suffix}")
    assert ok, f"criterion {criterion} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def kernel1():
    return build_kernel(F_C, C1)


@pytest.fixture(scope="module")
def kernel2():
    return build_kernel(F_C, C2)


@pytest.fixture(scope="module")
def example_spectrum():
    return spike_fourier(SpikeTrain(TAU_EXAMPLE, ALPHA_EXAMPLE), F_C)


@pytest.fixture(scope="module")
def example_peaks(example_spectrum, kernel1):
    return find_peaks(example_spectrum, kernel1, PeakConfig(max_peaks=7))


def test_criterion_1_greedy_initialization(example_peaks):
    """Greedy scan on the seven-spike example: every peak within 0.001."""
    err = np.abs(np.sort(example_peaks.tau0) - TAU_EXAMPLE).max()
    ok = example_peaks.k_tilde == 7 and err <= 1e-3
    _report(1, "greedy initialization", ok,
            f"k_tilde={example_peaks.k_tilde}, max position error={err:.2e}")


def test_criterion_2_newton_refinement(example_spectrum, example_peaks,
                                        kernel1, kernel2):
    """Projected Newton from the greedy start: machine-precision recovery."""
    from superres.spectral import pointwise_mul

    zhat = pointwise_mul(example_spectrum, kernel2.spectrum())
    box = BoxConstraint(example_peaks.tau0, kernel1.sigma)
    sol = run_newton(example_peaks.tau0, kernel2, zhat, box, NewtonConfig())
    pos_err = hausdorff(sol.tau_tilde, TAU_EXAMPLE)
    order = np.argsort(sol.tau_tilde)
    amp_err = np.abs(sol.beta[order] - ALPHA_EXAMPLE).max()
    ok = sol.status == "converged" and pos_err <= 1e-9 and amp_err <= 1e-8
    _report(2, "Newton refinement", ok,
            f"status={sol.status}, position error={pos_err:.2e}, "
            f"amplitude error={amp_err:.2e}")


def test_criterion_3_noiseless_success_rate():
    """200 random 14-spike instances, no noise: >= 85% exact recoveries."""
    cfg = ExperimentConfig(k=14, sep_min=0.04, trials=200, nu_grid=(0.0,))
    records = run_monte_carlo(cfg)
    errs = np.array([r.hausdorff_err for r in records])
    rate = float(np.mean(errs < EXACT_RECOVERY_ERR))
    ok = rate >= 0.85
    _report(3, "noiseless success rate", ok, f"success rate={rate:.3f} (gate 0.85)")


def test_criterion_4_noise_degradation(kernel1):
    """Error grows gracefully with the noise level, and every converged trial
    that started within sigma of the truth ends within the 2*sigma box bound."""
    nu_grid = (0.0, 0.05, 0.1, 0.2)
    cfg = ExperimentConfig(k=14, sep_min=0.04, trials=100, nu_grid=nu_grid)
    records = run_monte_carlo(cfg)
    sigma = kernel1.sigma

    medians = [float(np.median([r.hausdorff_err for r in records if r.nu == nu]))
               for nu in nu_grid]
    ordered = all(a <= b + 1e-12 for a, b in zip(medians, medians[1:]))

    clamp_violations = 0
    clamp_eligible = 0
    for r in records:
        if r.status != "converged" or r.k_tilde != cfg.k:
            continue
        init_err = hausdorff(r.tau_init, r.tau_true)
        if init_err > sigma:
            continue
        clamp_eligible += 1
        if r.hausdorff_err >= 2.0 * sigma:
            clamp_violations += 1

    ok = ordered and clamp_violations == 0 and clamp_eligible > 0
    med_str = ", ".join(f"{m:.2e}" for m in medians)
    _report(4, "graceful noise degradation", ok,
            f"medians nu={nu_grid}: {med_str}; "
            f"{clamp_violations}/{clamp_eligible} box-bound violations")


def test_criterion_5_gradient_check():
    """Analytic gradient matches central differences at 100 random points."""
    report = gradcheck(f_c=F_C, c1=C1, c2=C2, n_points=100, seed=0,
                       check_hessian=False)
    ok = report.max_grad_rel_err <= GRAD_CHECK_RTOL and report.degenerate_count == 0
    _report(5, "gradient finite-difference check", ok,
            f"max relative error={report.max_grad_rel_err:.2e} "
            f"(threshold {GRAD_CHECK_RTOL:g})")


def test_criterion_6_hessian_check(kernel1, kernel2):
    """Analytic Hessian matches central differences at 50 random points and
    is positive definite at noise-free points near well-separated truths."""
    report = gradcheck(f_c=F_C, c1=C1, c2=C2, n_points=50, seed=0,
                       check_hessian=True)
    fd_ok = report.max_hess_rel_err <= HESS_CHECK_RTOL

    from superres.spectral import pointwise_mul

    rng = np.random.Generator(np.random.Philox(7))
    sigma1 = kernel1.sigma
    min_eig = np.inf
    for trial in range(50):
        k = int(rng.integers(1, 8))
        positions = _rejection_sample_positions(rng, k, 4.0 * kernel2.sigma)
        amplitudes = rng.uniform(1.0, 10.0, k) * rng.choice([-1.0, 1.0], k)
        zhat = pointwise_mul(spike_fourier(SpikeTrain(positions, amplitudes), F_C),
                             kernel2.spectrum())
        rho = wrap(positions + rng.uniform(-sigma1 / 2, sigma1 / 2, k))
        eigs = np.linalg.eigvalsh(hessian_F(rho, kernel2, zhat))
        min_eig = min(min_eig, float(eigs.min()))
    pd_ok = min_eig > 0.0

    ok = fd_ok and pd_ok
    _report(6, "Hessian check", ok,
            f"max FD relative error={report.max_hess_rel_err:.2e} "
            f"(threshold {HESS_CHECK_RTOL:g}); min eigenvalue near truth={min_eig:.3e}")


def test_criterion_7_kernel_family():
    """Kernel construction across cut-offs and widths: unit energy, exact
    evenness, global peak at the origin, concentration verified by quadrature."""
    worst_energy = 0.0
    worst_conc = 0.0
    all_even = True
    all_peaked = True
    for f_c in (20, 50, 100):
        for c in (1.0, 1.5, 2.0):
            kernel = build_kernel(f_c, c)
            worst_energy = max(worst_energy, abs(np.sum(kernel.ghat**2) - 1.0))
            all_even &= bool(np.array_equal(kernel.ghat, kernel.ghat[::-1]))
            values = eval_grid(kernel.spectrum(), 32 * kernel.n)
            all_peaked &= bool(values[0] >= values.max() - 1e-9)

            def g_squared(ts):
                return np.array(
                    [np.real(np.sum(
                        kernel.ghat * np.exp(
                            2j * np.pi * np.arange(-f_c, f_c + 1) * t))) ** 2
                     for t in np.atleast_1d(ts)]
                )

            quad, _ = fixed_quad(g_squared, -kernel.sigma, kernel.sigma, n=200)
            worst_conc = max(worst_conc,
                             abs(quad - kernel.concentration) / kernel.concentration)
    ok = worst_energy < 1e-12 and all_even and all_peaked and worst_conc < 1e-8
    _report(7, "kernel family", ok,
            f"max energy defect={worst_energy:.1e}, even={all_even}, "
            f"peak global={all_peaked}, max concentration error={worst_conc:.1e}")


def test_criterion_8_gram_near_orthonormality(kernel2):
    """Dictionaries at well-separated positions are nearly orthonormal:
    ||I - G*G|| stays below the committed bound over seeded draws."""
    rng = np.random.Generator(np.random.Philox(1234))
    k = 7
    worst = 0.0
    for draw in range(20):
        positions = _rejection_sample_positions(rng, k, 4.0 * kernel2.sigma)
        gram = build_G(positions, kernel2).gram  # the G*G the solver factors
        worst = max(worst, float(np.linalg.norm(np.eye(k) - gram, 2)))
    ok = worst <= GRAM_ORTHO_BOUND
    _report(8, "Gram near-orthonormality", ok,
            f"max ||I - G*G||={worst:.3e} (bound {GRAM_ORTHO_BOUND:g})")


def test_criterion_9_metric_and_transform_invariants(kernel1):
    """Spot-check of the structural invariants exercised exhaustively by the
    per-module property suites (tests/test_metrics.py, tests/test_spectral.py,
    tests/test_peaks.py, tests/test_refine.py)."""
    rng = np.random.Generator(np.random.Philox(99))
    ok = True
    # wraparound metric: symmetry, triangle inequality, bounded by 1/2
    a, b, c = rng.random(3)
    ok &= wrap_dist(a, b) == wrap_dist(b, a)
    ok &= wrap_dist(a, c) <= wrap_dist(a, b) + wrap_dist(b, c) + 1e-15
    ok &= wrap_dist(a, b) <= 0.5

    # Hausdorff: zero iff equal sets, shift invariant
    x = np.sort(rng.random(5))
    shift = rng.random()
    ok &= hausdorff(x, x) == 0.0
    ok &= abs(hausdorff(wrap(x + shift), wrap(x[::-1] + shift)) - 0.0) < 1e-15

    # Parseval: grid mean square equals coefficient energy
    coeffs = rng.standard_normal(2 * F_C + 1) + 1j * rng.standard_normal(2 * F_C + 1)
    coeffs = 0.5 * (coeffs + coeffs[::-1].conj())
    spec = Spectrum(F_C, coeffs, real_signal=True)
    values = eval_grid(spec, 8 * spec.n)
    ok &= abs(np.mean(values**2) - spec.energy()) < 1e-9 * spec.energy()

    # measurement model: spike spectra are shift-covariant
    tau = np.array([0.2, 0.7])
    alpha = np.array([1.0, -2.0])
    y0 = spike_fourier(SpikeTrain(tau, alpha), F_C)
    y1 = spike_fourier(SpikeTrain(wrap(tau + 0.3), alpha), F_C)
    ls = np.arange(-F_C, F_C + 1)
    ok &= bool(np.allclose(y1.coeffs, y0.coeffs * np.exp(-2j * np.pi * ls * 0.3)))

    _report(9, "metric and transform invariants", bool(ok))
