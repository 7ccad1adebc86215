"""Concentrated kernel construction, verified against dense eigensolvers
and time-domain quadrature."""

import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import fixed_quad
from scipy.linalg import eigh_tridiagonal, toeplitz

import superres
from superres.slepian import SlepianKernel, build_kernel
from superres.spectral import ells, eval_grid, eval_point

GRIDS = [(20, 1.0), (20, 1.5), (20, 2.0), (50, 1.0), (50, 1.5), (50, 2.0),
         (100, 1.0), (100, 1.5), (100, 2.0)]


def concentration_gram(f_c, sigma):
    """Sinc Gram matrix A[l,m] = sin(2 pi sigma (l-m)) / (pi (l-m)), A[l,l] = 2 sigma."""
    n = 2 * f_c + 1
    k = np.arange(n, dtype=float)
    col = np.empty(n)
    col[0] = 2.0 * sigma
    col[1:] = np.sin(2.0 * np.pi * sigma * k[1:]) / (np.pi * k[1:])
    return toeplitz(col)


def kernel_peak(kernel: SlepianKernel) -> float:
    """Kernel value at the origin: the sum of its coefficients."""
    return float(kernel.ghat.sum())


def kernel_derivative_coeffs(kernel):
    """Fourier coefficients of the kernel derivative: (i 2 pi l) ghat[l]."""
    return 2j * np.pi * ells(kernel.f_c) * kernel.ghat


def corr_gg(kernel: SlepianKernel, delta) -> np.ndarray:
    """<g(. - rho1), g(. - rho2)> as a function of delta = rho1 - rho2."""
    delta = np.asarray(delta, dtype=float)
    ls = ells(kernel.f_c)
    return np.cos(2.0 * np.pi * np.multiply.outer(delta, ls)) @ kernel.ghat**2


def corr_gdg(kernel: SlepianKernel, delta) -> np.ndarray:
    """<g(. - rho1), g'(. - rho2)> as a function of delta = rho1 - rho2."""
    delta = np.asarray(delta, dtype=float)
    ls = ells(kernel.f_c)
    return -np.sin(2.0 * np.pi * np.multiply.outer(delta, ls)) @ (2.0 * np.pi * ls * kernel.ghat**2)


def corr_dgdg(kernel: SlepianKernel, delta) -> np.ndarray:
    """<g'(. - rho1), g'(. - rho2)> as a function of delta = rho1 - rho2."""
    delta = np.asarray(delta, dtype=float)
    ls = ells(kernel.f_c)
    return np.cos(2.0 * np.pi * np.multiply.outer(delta, ls)) @ ((2.0 * np.pi * ls) ** 2 * kernel.ghat**2)


@dataclass(frozen=True)
class CriteriaReport:
    """Empirically measured kernel constants at fixed N.

    The underlying bounds are asymptotic, so this reports constants rather
    than asserting pass/fail.
    """

    f_c: int
    c: float
    peak: float
    concentration: float
    decay_envelope_max: float  # max |g(t)| sin(pi t) sqrt(N) over t in [sigma, 1/2]
    far_corr_gg: float  # max |<g, g shifted>| N sin(pi d) over d >= 2 sigma
    far_corr_gdg: float  # max |<g, g' shifted>| sin(pi d) over d >= 2 sigma
    far_corr_dgdg: float  # max |<g', g' shifted>| sin(pi d) / N over d >= 2 sigma
    deriv_energy: float  # ||g'||_L2^2
    near_autocorr_curvature: float  # max (1 - <g, g shifted>) / d^2 for small d
    near_deriv_slope: float  # min |<g, g' shifted>| / (N^2 d) for small d
    sign_convention_holds: bool  # sign <g(.-r1), g'(.-r2)> == sign(r1 - r2 wrapped)


def check_criteria(kernel: SlepianKernel, sink=None, oversample: int = 32) -> CriteriaReport:
    """Measure decay, far-shift correlation, and near-origin flatness constants."""
    n = kernel.n
    sigma = kernel.sigma
    m = oversample * n
    g = eval_grid(kernel.spectrum(), m)
    t = np.arange(m) / m

    tail = (t >= sigma) & (t <= 0.5)
    decay_env = np.abs(g[tail]) * np.sin(np.pi * t[tail]) * np.sqrt(n)

    far = np.linspace(2.0 * sigma, 0.5, 512)
    sin_far = np.sin(np.pi * far)
    far_gg = np.abs(corr_gg(kernel, far)) * n * sin_far
    far_gdg = np.abs(corr_gdg(kernel, far)) * sin_far
    far_dgdg = np.abs(corr_dgdg(kernel, far)) * sin_far / n

    near = np.linspace(sigma / 256.0, sigma / 4.0, 64)
    near_curv = (1.0 - corr_gg(kernel, near)) / near**2
    near_slope = np.abs(corr_gdg(kernel, near)) / (n**2 * near)

    # Moving rho1 past rho2 flips the correlation sign; wrapped negative
    # offsets (rho1 - rho2 mod 1 close to 1) carry the opposite sign.
    sign_ok = bool(
        np.all(np.sign(corr_gdg(kernel, near)) == -1.0)
        and np.all(np.sign(corr_gdg(kernel, -near)) == 1.0)
    )

    report = CriteriaReport(
        f_c=kernel.f_c,
        c=kernel.c,
        peak=kernel_peak(kernel),
        concentration=kernel.concentration,
        decay_envelope_max=float(decay_env.max()),
        far_corr_gg=float(far_gg.max()),
        far_corr_gdg=float(far_gdg.max()),
        far_corr_dgdg=float(far_dgdg.max()),
        deriv_energy=float(np.sum((2.0 * np.pi * ells(kernel.f_c)) ** 2 * kernel.ghat**2)),
        near_autocorr_curvature=float(near_curv.max()),
        near_deriv_slope=float(near_slope.min()),
        sign_convention_holds=sign_ok,
    )
    if sink is not None:
        out = sink if hasattr(sink, "write") else sys.stdout
        for name, value in report.__dict__.items():
            out.write(f"{name}: {value}\n")
    return report


def full_spectrum_kernel(f_c, c):
    """Reference O(N^3) build: every eigenvector of the commuting matrix,
    ranked by its dense sinc Gram Rayleigh quotient. Returns the coefficients,
    their concentration and the winner's index in ascending eigenvalue order."""
    n = 2 * f_c + 1
    sigma = c / n
    k = np.arange(n, dtype=float)
    diag = ((n - 1) / 2.0 - k) ** 2 * np.cos(2.0 * np.pi * sigma)
    off = k[1:] * (n - k[1:]) / 2.0
    _, vecs = eigh_tridiagonal(diag, off)
    gram = concentration_gram(f_c, sigma)
    top = int(np.argmax(np.einsum("ij,ij->j", vecs, gram @ vecs)))
    ghat = vecs[:, top]
    ghat = 0.5 * (ghat + ghat[::-1])
    ghat /= np.linalg.norm(ghat)
    if ghat.sum() < 0.0:
        ghat = -ghat
    return ghat, float(ghat @ gram @ ghat), top


def dense_top_eigvec(f_c, sigma):
    """Oracle: top eigenvector of the dense sinc Gram matrix, symmetrized
    and sign-fixed the same way as the production path."""
    gram = concentration_gram(f_c, sigma)
    w, v = np.linalg.eigh(gram)
    vec = v[:, -1]
    vec = 0.5 * (vec + vec[::-1])
    vec /= np.linalg.norm(vec)
    if vec.sum() < 0:
        vec = -vec
    return w[-1], vec


class TestBuildKernel:
    @pytest.mark.parametrize("f_c,c", GRIDS)
    def test_matches_dense_eigensolver(self, f_c, c):
        kernel = build_kernel(f_c, c)
        lam, vec = dense_top_eigvec(f_c, kernel.sigma)
        assert np.abs(kernel.ghat - vec).max() < 1e-10
        assert kernel.concentration == pytest.approx(lam, abs=1e-12)

    @pytest.mark.parametrize("f_c,c", GRIDS)
    def test_unit_energy(self, f_c, c):
        kernel = build_kernel(f_c, c)
        assert abs(np.sum(kernel.ghat**2) - 1.0) < 1e-12

    @pytest.mark.parametrize("f_c,c", GRIDS)
    def test_exactly_even(self, f_c, c):
        kernel = build_kernel(f_c, c)
        assert np.array_equal(kernel.ghat, kernel.ghat[::-1])

    @pytest.mark.parametrize("f_c,c", GRIDS)
    def test_peak_at_origin_positive_and_global(self, f_c, c):
        kernel = build_kernel(f_c, c)
        values = eval_grid(kernel.spectrum(), 32 * kernel.n)
        assert kernel_peak(kernel) > 0
        assert kernel_peak(kernel) == pytest.approx(values[0], rel=1e-12)
        assert values[0] >= values.max() - 1e-9

    @pytest.mark.parametrize("f_c", [300, 1000])
    @pytest.mark.parametrize("c", [1.5, 2.25])
    def test_matches_full_spectrum_build(self, f_c, c):
        kernel = build_kernel(f_c, c)
        ghat, concentration, top = full_spectrum_kernel(f_c, c)
        assert np.abs(kernel.ghat - ghat).max() < 1e-10
        assert kernel.concentration == pytest.approx(concentration, abs=1e-12)
        assert np.array_equal(kernel.ghat, kernel.ghat[::-1])
        assert top == kernel.n - 1

    @pytest.mark.parametrize("f_c", [20, 50])
    @pytest.mark.parametrize("c", range(4, 21))
    def test_top_eigenvector_at_large_c(self, f_c, c):
        # Once several concentrations round to 1, only the commuting matrix's
        # eigenvalue order still tells the top sequence from the others.
        kernel = build_kernel(f_c, c)
        lam = np.linalg.eigvalsh(concentration_gram(f_c, kernel.sigma))[-1]
        values = eval_grid(kernel.spectrum(), 32 * kernel.n)
        assert kernel.ghat.min() >= -1e-14 * kernel.ghat.max()
        assert kernel.concentration >= lam - 1e-12
        assert int(np.argmax(values)) == 0

    def test_spectrum_is_built_once(self):
        kernel = build_kernel(50, 1.5)
        spectrum = kernel.spectrum()
        assert kernel.spectrum() is spectrum
        assert not spectrum.coeffs.flags.writeable
        assert np.array_equal(spectrum.coeffs, kernel.ghat.astype(complex))

    def test_build_imports_no_module(self):
        # A module first imported by a kernel build (scipy.fft, say) would
        # land in every cold process's set-up time.
        code = (
            "import sys, superres; before = set(sys.modules); "
            "superres.build_kernel(50, 1.5); superres.build_kernel(1000, 2.25); "
            "print(sorted(set(sys.modules) - before))"
        )
        src = str(Path(superres.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.strip() == "[]"

    def test_concentration_close_to_one(self):
        # the whole point of the kernel: most energy inside [-sigma, sigma]
        kernel = build_kernel(50, 1.5)
        assert 0.99 < kernel.concentration < 1.0

    def test_concentration_increases_with_c(self):
        lo = build_kernel(50, 1.0).concentration
        hi = build_kernel(50, 2.0).concentration
        assert hi > lo

    def test_sigma_out_of_range(self):
        with pytest.raises(ValueError, match="sigma"):
            build_kernel(1, 2.0)  # sigma = 2/3 >= 1/2
        with pytest.raises(ValueError, match="sigma"):
            build_kernel(50, 0.0)

    def test_decay_regression_far_from_origin(self):
        # fixed-N regression: the tail a quarter period away is tiny
        kernel = build_kernel(50, 1.5)
        far = eval_point(kernel.spectrum(), 0.25)
        assert abs(far) < 0.05 * kernel_peak(kernel)

    def test_concentration_vs_quadrature(self):
        # independent oracle: Gauss-Legendre integral of g^2 on [-sigma, sigma]
        for f_c, c in [(20, 1.0), (50, 1.5), (100, 2.0)]:
            kernel = build_kernel(f_c, c)

            def g_squared(ts):
                return np.array(
                    [eval_point(kernel.spectrum(), t) ** 2 for t in np.atleast_1d(ts)]
                )

            val, _ = fixed_quad(g_squared, -kernel.sigma, kernel.sigma, n=200)
            assert val == pytest.approx(kernel.concentration, rel=1e-8)


class TestDerivative:
    def test_coefficients(self):
        kernel = build_kernel(20, 1.5)
        dg = kernel_derivative_coeffs(kernel)
        assert np.allclose(dg, 2j * np.pi * ells(20) * kernel.ghat)
        assert dg[20] == 0.0  # derivative kills the DC coefficient

    def test_derivative_by_finite_difference(self):
        kernel = build_kernel(20, 1.5)
        h = 1e-7

        def g(t):
            return eval_point(kernel.spectrum(), t)

        for t in (0.01, 0.3, 0.77):
            fd = (g(t + h) - g(t - h)) / (2 * h)
            analytic = np.real(
                np.sum(kernel_derivative_coeffs(kernel) * np.exp(2j * np.pi * ells(20) * t))
            )
            assert analytic == pytest.approx(fd, rel=1e-5, abs=1e-3)

    def test_derivative_energy_parseval(self):
        kernel = build_kernel(30, 1.5)
        energy = np.sum(np.abs(kernel_derivative_coeffs(kernel)) ** 2)
        report = check_criteria(kernel)
        assert report.deriv_energy == pytest.approx(energy, rel=1e-12)


class TestCorrelations:
    """Closed-form shifted inner products against numerical quadrature."""

    @pytest.fixture()
    def kernel(self):
        return build_kernel(20, 1.5)

    def quad_inner(self, f, g, n=400):
        val, _ = fixed_quad(lambda t: f(t) * g(t), 0.0, 1.0, n=n)
        return val

    def test_corr_gg_oracle(self, kernel):
        spec = kernel.spectrum()

        def shifted(delta):
            return lambda ts: np.array(
                [eval_point(spec, t - delta) for t in np.atleast_1d(ts)]
            )

        for delta in (0.0, 0.01, 0.1, 0.37):
            expected = self.quad_inner(shifted(0.0), shifted(delta))
            assert corr_gg(kernel, delta) == pytest.approx(expected, abs=1e-9)

    def test_corr_gg_at_zero_is_energy(self, kernel):
        assert corr_gg(kernel, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_corr_gdg_fd_oracle(self, kernel):
        # d/d(delta) <g, g(. - delta)> = <g, g'(. - delta)> up to sign convention
        h = 1e-7
        for delta in (0.003, 0.02, 0.2):
            fd = (corr_gg(kernel, delta + h) - corr_gg(kernel, delta - h)) / (2 * h)
            assert corr_gdg(kernel, delta) == pytest.approx(fd, rel=1e-5, abs=1e-4)

    def test_corr_dgdg_fd_oracle(self, kernel):
        h = 1e-6
        for delta in (0.003, 0.02, 0.2):
            fd = -(corr_gdg(kernel, delta + h) - corr_gdg(kernel, delta - h)) / (2 * h)
            rel = abs(corr_dgdg(kernel, delta) - fd) / np.abs(corr_dgdg(kernel, 0.0))
            assert rel < 1e-6

    def test_corr_gdg_odd_and_gg_even(self, kernel):
        deltas = np.array([0.01, 0.05, 0.3])
        assert np.allclose(corr_gg(kernel, -deltas), corr_gg(kernel, deltas))
        assert np.allclose(corr_gdg(kernel, -deltas), -corr_gdg(kernel, deltas))


class TestCriteriaReport:
    def test_reports_constants(self):
        report = check_criteria(build_kernel(50, 1.5))
        assert report.peak > 0
        assert 0.99 < report.concentration < 1.0
        assert report.decay_envelope_max > 0
        assert report.sign_convention_holds

    def test_sink_output(self, tmp_path):
        path = tmp_path / "report.txt"
        with open(path, "w") as fh:
            check_criteria(build_kernel(20, 1.5), sink=fh)
        text = path.read_text()
        assert "concentration" in text
        assert "decay_envelope_max" in text
