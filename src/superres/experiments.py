"""End-to-end orchestration: seeded trials, Monte-Carlo sweeps, derivative checks.

Per-trial seeds are derived as SeedSequence([seed, nu_index, trial_index]),
a stable documented hash, so runs are reproducible regardless of execution
order. All floats are written with 17 significant digits so CSV output is
byte-identical across runs.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .circle import hausdorff, wrap
from .peaks import PeakConfig, find_peaks
from .refine import (BoxConstraint, DegenerateDictionaryError, _evaluate, _gradient, _hessian,
                     _problem, solve_phase2)
from .slepian import SlepianKernel, build_kernel
from .spectral import SpikeTrain, add, spike_fourier, synth_noise

GRAD_CHECK_RTOL = 1e-5
HESS_CHECK_RTOL = 1e-4
EXACT_RECOVERY_ERR = 1e-6
FAILED_TRIAL_ERR = 0.5  # maximum possible wraparound distance
GRADCHECK_K = (1, 3, 7)  # spike counts gradcheck cycles through


class ConfigError(ValueError):
    """A setting or input the run cannot use, found before any computation."""


@dataclass(frozen=True)
class ExperimentConfig:
    f_c: int = 50
    c1: float = 1.5
    c2: float = 2.25
    k: int = 14
    sep_min: float = 0.04
    nu_grid: Sequence[float] = (0.0, 0.025, 0.05, 0.1, 0.2)
    trials: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ConfigError("k must be >= 1")
        if self.sep_min < 0:
            raise ConfigError("sep_min must be >= 0")
        check_fit(self.k, self.sep_min)
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if not np.isfinite(self.nu_grid).all():
            raise ConfigError("nu must be finite")
        if any(nu < 0 for nu in self.nu_grid):
            raise ConfigError("nu must be >= 0")
        if len(set(self.nu_grid)) < len(self.nu_grid):
            raise ConfigError("nu values must differ")
        check_seed(self.seed)
        checked_kernel1(self.f_c, self.c1, "c1")
        checked_kernel(self.f_c, self.c2, "c2")


@dataclass(frozen=True)
class TrialRecord:
    seed: int
    nu: float
    hausdorff_err: float
    k_tilde: int
    status: str
    reseeds: int  # re-seed rounds in phase 2
    runtime_ms: float  # the whole trial, sampling included
    sample_ms: float  # instance, its spectrum and the noise when nu > 0
    tau_estimate: np.ndarray = field(default_factory=lambda: np.array([]))
    tau_true: np.ndarray = field(default_factory=lambda: np.array([]))
    # phase 2's final box centres: phase-1 and re-seed picks (the phase-1 picks if it did not run)
    tau_init: np.ndarray = field(default_factory=lambda: np.array([]))


@functools.lru_cache(maxsize=16)
def cached_kernel(f_c: int, c: float) -> SlepianKernel:
    return build_kernel(f_c, c)


def checked_kernel(f_c: int, c: float, name: str) -> SlepianKernel:
    """`cached_kernel`, with build_kernel's range errors as ConfigErrors naming c."""
    try:
        return cached_kernel(f_c, c)
    except ValueError as exc:
        raise ConfigError(f"{name} = {c:g} at f_c = {f_c}: {exc}") from exc


def checked_kernel1(f_c: int, c1: float, name: str) -> SlepianKernel:
    """`checked_kernel`, whose sigma1 must also pass `BoxConstraint`'s radius rule."""
    kernel1 = checked_kernel(f_c, c1, name)
    try:
        BoxConstraint(np.zeros(1), kernel1.sigma)
    except ValueError as exc:
        raise ConfigError(f"{name} = {c1:g} at f_c = {f_c}, sigma1 = {kernel1.sigma:.3g}: "
                          f"phase 2's box {exc}") from exc
    return kernel1


def check_fit(k: int, sep_min: float) -> None:
    """The rule `sample_positions` relies on: k gaps of at least sep_min fit on the
    circle only if k sep_min < 1."""
    if k * sep_min >= 1.0:
        raise ConfigError(f"{k} spikes {sep_min:g} apart do not fit on the circle")


def check_seed(seed: int) -> None:
    """Philox and SeedSequence take only non-negative seeds."""
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, not {seed}")


def sample_positions(rng: np.random.Generator, k: int, sep_min: float) -> np.ndarray:
    """k positions uniform on the circle conditioned on every wraparound gap >= sep_min.

    Seen from one of k uniform points, the gaps are Dirichlet(1, ..., 1) and
    independent of it, and a flat Dirichlet conditioned on every part being
    >= sep_min is sep_min + (1 - k sep_min) Dirichlet(1, ..., 1). So the gaps
    are drawn that way and laid out from a uniform start, and the labels are
    shuffled: an exact draw in O(k).
    """
    if k < 2:
        return rng.random(k)
    gaps = sep_min + (1.0 - k * sep_min) * rng.dirichlet(np.ones(k))
    offsets = np.concatenate(([0.0], np.cumsum(gaps[:-1])))
    return rng.permutation(wrap(rng.random() + offsets))


def sample_instance(cfg: ExperimentConfig, trial_seed: int) -> SpikeTrain:
    """Draw separated positions, then amplitudes from N(0, 1/N)."""
    rng = np.random.Generator(np.random.Philox(trial_seed))
    positions = sample_positions(rng, cfg.k, cfg.sep_min)
    amplitudes = rng.standard_normal(cfg.k) / np.sqrt(2 * cfg.f_c + 1)
    return SpikeTrain(positions, amplitudes)


def _noise_seed(trial_seed: int) -> int:
    return int(np.random.SeedSequence([trial_seed, 1]).generate_state(1)[0])


def run_trial(cfg: ExperimentConfig, trial_seed: int, nu: float) -> TrialRecord:
    """One simulated recovery: sample, measure, initialize, refine, score."""
    start = time.perf_counter()
    truth = sample_instance(cfg, trial_seed)
    xhat = spike_fourier(truth, cfg.f_c)
    noise = synth_noise(cfg.f_c, nu, _noise_seed(trial_seed)) if nu else None
    sample_ms = 1000.0 * (time.perf_counter() - start)
    y = xhat if noise is None else add(xhat, noise)  # a noiseless trial measures xhat

    k_tilde = reseeds = 0
    estimate = np.array([])
    tau_init = np.array([])
    try:
        kernel1 = cached_kernel(cfg.f_c, cfg.c1)
        # The spike count is known, so the scan keeps the k largest peaks (eta = 0).
        peaks = find_peaks(y, kernel1, PeakConfig(max_peaks=cfg.k))
        k_tilde = peaks.k_tilde
        tau_init = peaks.tau0
        report = solve_phase2(y, peaks.tau0, kernel1, cached_kernel(cfg.f_c, cfg.c2))
        tau_init, reseeds = report.centres, report.reseeds
        estimate, status = report.tau_tilde, report.status
        err = hausdorff(estimate, truth.positions) if estimate.size else FAILED_TRIAL_ERR
    except ValueError:  # DegenerateDictionaryError is a ValueError
        status, err = "error", FAILED_TRIAL_ERR

    runtime_ms = 1000.0 * (time.perf_counter() - start)
    return TrialRecord(seed=trial_seed, nu=nu, hausdorff_err=err, k_tilde=k_tilde,
                       status=status, reseeds=reseeds, runtime_ms=runtime_ms,
                       sample_ms=sample_ms,
                       tau_estimate=estimate, tau_true=truth.positions,
                       tau_init=tau_init)


def trial_seed_for(cfg: ExperimentConfig, nu_index: int, trial_index: int) -> int:
    return int(np.random.SeedSequence([cfg.seed, nu_index, trial_index]).generate_state(1)[0])


def run_monte_carlo(cfg: ExperimentConfig, out_dir=None) -> list[TrialRecord]:
    """Full sweep over the noise grid; optionally write per-trial and summary CSVs."""
    records = []
    for nu_index, nu in enumerate(cfg.nu_grid):
        for trial_index in range(cfg.trials):
            records.append(run_trial(cfg, trial_seed_for(cfg, nu_index, trial_index), nu))

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "trials.csv", "w") as fh:
            fh.write("nu,seed,err,status,reseeds,runtime_ms,sample_ms\n")
            for r in records:
                fh.write(f"{r.nu:.17g},{r.seed},{r.hausdorff_err:.17g},{r.status},"
                         f"{r.reseeds},{r.runtime_ms:.3f},{r.sample_ms:.3f}\n")
        with open(out / "summary.csv", "w") as fh:
            fh.write("nu,median_err,mean_err,success_rate\n")
            for nu, median, mean, rate in summarize(cfg, records):
                fh.write(f"{nu:.17g},{median:.17g},{mean:.17g},{rate:.17g}\n")
        meta = {
            "config": {k: (list(v) if isinstance(v, (tuple, list)) else v)
                       for k, v in cfg.__dict__.items()},
            "notes": "nu_grid is a harness choice, not prescribed by the protocol",
        }
        with open(out / "metadata.json", "w") as fh:
            json.dump(meta, fh, indent=2)
    return records


def summarize(cfg: ExperimentConfig, records: Sequence[TrialRecord]) -> list[tuple]:
    """(nu, median error, mean error, success rate) for each nu of cfg.nu_grid, in order;
    a trial succeeds when its error is below EXACT_RECOVERY_ERR."""
    rows = []
    for nu in cfg.nu_grid:
        errs = np.array([r.hausdorff_err for r in records if r.nu == nu])
        rows.append((nu, np.median(errs), errs.mean(), float(np.mean(errs < EXACT_RECOVERY_ERR))))
    return rows


@dataclass(frozen=True)
class GradCheckReport:
    n_points: int
    max_grad_rel_err: float
    max_hess_rel_err: float
    degenerate_count: int
    passed: bool


def _central_differences(f, rho, h):
    """(f(rho + h e_i) - f(rho - h e_i)) / 2h for each i, as the last axis."""
    return np.array([(f(rho + e) - f(rho - e)) / (2.0 * h) for e in h * np.eye(len(rho))]).T


def gradcheck(f_c: int = 50, c1: float = 1.5, c2: float = 2.25,
              n_points: int = 100, seed: int = 0) -> GradCheckReport:
    """Compare analytic gradient and Hessian against central finite differences
    at random feasible configurations."""
    if n_points < 1:
        raise ConfigError("n_points must be >= 1")
    check_seed(seed)
    sigma1 = checked_kernel1(f_c, c1, "c1").sigma
    kernel2 = checked_kernel(f_c, c2, "c2")
    sep = 4.0 * sigma1
    check_fit(max(GRADCHECK_K), sep)
    rng = np.random.Generator(np.random.Philox(seed))
    h = np.finfo(float).eps ** (1 / 3) * kernel2.sigma  # balances truncation and rounding

    max_grad = 0.0
    max_hess = 0.0
    degenerate = 0
    for point in range(n_points):
        k = GRADCHECK_K[point % len(GRADCHECK_K)]
        positions = sample_positions(rng, k, sep)
        amplitudes = rng.uniform(1.0, 10.0, k) * rng.choice([-1.0, 1.0], k)
        tau0 = wrap(positions + rng.uniform(-sigma1 / 2, sigma1 / 2, k))
        rho = wrap(tau0 + rng.uniform(-0.9 * sigma1, 0.9 * sigma1, k))
        y = spike_fourier(SpikeTrain(positions, amplitudes), f_c)
        prob = _problem(kernel2, y.coeffs[f_c:] * kernel2.ghat[f_c:])  # read by every evaluation
        try:
            p = _evaluate(prob, rho)
            grad, w = _gradient(prob, p)
            grad_fd = _central_differences(lambda r: _evaluate(prob, r).f, rho, h)
            max_grad = max(max_grad,
                           float(np.abs(grad - grad_fd).max() / np.abs(grad).max()))
            hess = _hessian(p, w)
            hess_fd = _central_differences(lambda r: _gradient(prob, _evaluate(prob, r))[0],
                                           rho, h)
            hess_fd = 0.5 * (hess_fd + hess_fd.T)
            max_hess = max(max_hess,
                           float(np.linalg.norm(hess - hess_fd) / np.linalg.norm(hess)))
        except DegenerateDictionaryError:
            degenerate += 1

    passed = max_grad <= GRAD_CHECK_RTOL and max_hess <= HESS_CHECK_RTOL
    return GradCheckReport(n_points=n_points, max_grad_rel_err=max_grad,
                           max_hess_rel_err=max_hess, degenerate_count=degenerate,
                           passed=passed)
