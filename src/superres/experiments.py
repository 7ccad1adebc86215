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
from typing import Optional, Sequence, Union

import numpy as np

from .circle import hausdorff, wrap
from .peaks import MIN_OVERSAMPLE, PeakConfig, find_peaks
from .refine import (
    BoxConstraint,
    DegenerateDictionaryError,
    NewtonConfig,
    gradient_F,
    hessian_F,
    objective_F,
    run_newton,
)
from .slepian import SlepianKernel, build_kernel
from .spectral import SpikeTrain, add, pointwise_mul, spike_fourier, synth_noise

GRAD_CHECK_RTOL = 1e-5
HESS_CHECK_RTOL = 1e-4
EXACT_RECOVERY_ERR = 1e-6
FAILED_TRIAL_ERR = 0.5  # maximum possible wraparound distance

AmpLaw = Union[str, Sequence[float]]  # "gaussian" (variance 1/N) or fixed amplitudes


class ConfigError(ValueError):
    """A setting or input the run cannot use, found before any computation."""


@dataclass(frozen=True)
class ExperimentConfig:
    f_c: int = 50
    c1: float = 1.5
    c2: float = 2.25
    k: int = 14
    sep_min: float = 0.04
    amp_law: AmpLaw = "gaussian"
    nu_grid: Sequence[float] = (0.0, 0.025, 0.05, 0.1, 0.2)
    trials: int = 100
    seed: int = 0
    oversample: int = 32

    def __post_init__(self):
        if self.k < 1:
            raise ConfigError("k must be >= 1")
        if self.sep_min * self.k >= 1.0:
            raise ConfigError("spikes do not fit on the circle at this separation")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.oversample < MIN_OVERSAMPLE:
            raise ConfigError(f"oversample must be >= {MIN_OVERSAMPLE}")


@dataclass(frozen=True)
class TrialRecord:
    seed: int
    nu: float
    hausdorff_err: float
    k_tilde: int
    status: str
    runtime_ms: float
    tau_estimate: np.ndarray = field(default_factory=lambda: np.array([]))
    tau_true: np.ndarray = field(default_factory=lambda: np.array([]))
    tau_init: np.ndarray = field(default_factory=lambda: np.array([]))


@functools.lru_cache(maxsize=16)
def cached_kernel(f_c: int, c: float) -> SlepianKernel:
    return build_kernel(f_c, c)


def _rejection_sample_positions(rng: np.random.Generator, k: int, sep_min: float,
                                batch: int = 4096, max_batches: int = 2000) -> np.ndarray:
    """First uniform draw (in a fixed scan order) whose separation clears sep_min.

    Acceptance can be rare -- around 2e-5 for 14 points at separation 0.04 --
    so candidates are drawn and tested in vectorized batches.
    """
    if k < 2:
        return rng.random(k)
    for _ in range(max_batches):
        cand = rng.random((batch, k))
        srt = np.sort(cand, axis=1)
        gaps = np.diff(srt, axis=1, append=srt[:, :1] + 1.0)
        ok = np.flatnonzero(gaps.min(axis=1) >= sep_min)
        if ok.size:
            return cand[ok[0]]
    raise RuntimeError("separation infeasible")


def sample_instance(cfg: ExperimentConfig, trial_seed: int) -> SpikeTrain:
    """Rejection-sample well-separated positions; draw amplitudes per the law."""
    rng = np.random.Generator(np.random.Philox(trial_seed))
    positions = _rejection_sample_positions(rng, cfg.k, cfg.sep_min)
    if isinstance(cfg.amp_law, str):
        if cfg.amp_law != "gaussian":
            raise ValueError(f"unknown amplitude law: {cfg.amp_law}")
        amplitudes = rng.standard_normal(cfg.k) / np.sqrt(2 * cfg.f_c + 1)
    else:
        amplitudes = np.asarray(cfg.amp_law, dtype=float)
        if amplitudes.size != cfg.k:
            raise ValueError("fixed amplitude list length must equal k")
    return SpikeTrain(positions, amplitudes)


def _noise_seed(trial_seed: int) -> int:
    return int(np.random.SeedSequence([trial_seed, 1]).generate_state(1)[0])


def run_trial(cfg: ExperimentConfig, trial_seed: int, nu: float) -> TrialRecord:
    """One simulated recovery: sample, measure, initialize, refine, score."""
    start = time.perf_counter()
    truth = sample_instance(cfg, trial_seed)
    xhat = spike_fourier(truth, cfg.f_c)
    noise = synth_noise(cfg.f_c, nu, _noise_seed(trial_seed))
    y = add(xhat, noise)

    k_tilde = 0
    estimate = np.array([])
    tau_init = np.array([])
    try:
        kernel1 = cached_kernel(cfg.f_c, cfg.c1)
        # The spike count is known, so the scan keeps the k largest peaks (eta = 0).
        peaks = find_peaks(y, kernel1, PeakConfig(oversample=cfg.oversample, max_peaks=cfg.k))
        k_tilde = peaks.k_tilde
        tau_init = peaks.tau0
        if k_tilde == 0:
            status, err = "no_peaks", FAILED_TRIAL_ERR
        else:
            kernel2 = cached_kernel(cfg.f_c, cfg.c2)
            zhat = pointwise_mul(y, kernel2.spectrum())
            box = BoxConstraint(peaks.tau0, kernel1.sigma)
            report = run_newton(peaks.tau0, kernel2, zhat, box, NewtonConfig())
            estimate = report.tau_tilde
            status = report.status
            err = hausdorff(estimate, truth.positions)
    except ValueError:  # DegenerateDictionaryError is a ValueError
        status, err = "error", FAILED_TRIAL_ERR

    runtime_ms = 1000.0 * (time.perf_counter() - start)
    return TrialRecord(seed=trial_seed, nu=nu, hausdorff_err=err, k_tilde=k_tilde,
                       status=status, runtime_ms=runtime_ms,
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
            fh.write("nu,seed,err,status,runtime_ms\n")
            for r in records:
                fh.write(f"{r.nu:.17g},{r.seed},{r.hausdorff_err:.17g},"
                         f"{r.status},{r.runtime_ms:.3f}\n")
        with open(out / "summary.csv", "w") as fh:
            fh.write("nu,median_err,mean_err,success_rate\n")
            for nu in cfg.nu_grid:
                errs = np.array([r.hausdorff_err for r in records if r.nu == nu])
                rate = float(np.mean(errs < EXACT_RECOVERY_ERR))
                fh.write(f"{nu:.17g},{np.median(errs):.17g},{errs.mean():.17g},{rate:.17g}\n")
        meta = {
            "config": {k: (list(v) if isinstance(v, (tuple, list)) else v)
                       for k, v in cfg.__dict__.items()},
            "notes": "nu_grid is a harness choice, not prescribed by the protocol",
        }
        with open(out / "metadata.json", "w") as fh:
            json.dump(meta, fh, indent=2)
    return records


@dataclass(frozen=True)
class GradCheckReport:
    n_points: int
    max_grad_rel_err: float
    max_hess_rel_err: float
    degenerate_count: int
    passed: bool


def _fd_gradient(rho, kernel, zhat, h):
    grad = np.empty(len(rho))
    for i in range(len(rho)):
        e = np.zeros(len(rho))
        e[i] = h
        grad[i] = (objective_F(rho + e, kernel, zhat)
                   - objective_F(rho - e, kernel, zhat)) / (2.0 * h)
    return grad


def _fd_hessian(rho, kernel, zhat, h):
    hess = np.empty((len(rho), len(rho)))
    for i in range(len(rho)):
        e = np.zeros(len(rho))
        e[i] = h
        hess[:, i] = (gradient_F(rho + e, kernel, zhat)
                      - gradient_F(rho - e, kernel, zhat)) / (2.0 * h)
    return 0.5 * (hess + hess.T)


def gradcheck(f_c: int = 50, c1: float = 1.5, c2: float = 2.25,
              n_points: int = 100, seed: int = 0,
              k_choices: Sequence[int] = (1, 3, 7),
              check_hessian: bool = True,
              hess_points: Optional[int] = None) -> GradCheckReport:
    """Compare analytic gradient and Hessian against central finite differences
    at random feasible configurations."""
    if n_points < 1:
        raise ConfigError("n_points must be >= 1")
    n = 2 * f_c + 1
    sigma1 = c1 / n
    sigma2 = c2 / n
    kernel2 = cached_kernel(f_c, c2)
    rng = np.random.Generator(np.random.Philox(seed))
    h = 1e-7 * sigma2
    if hess_points is None:
        hess_points = n_points

    max_grad = 0.0
    max_hess = 0.0
    degenerate = 0
    for point in range(n_points):
        k = k_choices[point % len(k_choices)]
        positions = _rejection_sample_positions(rng, k, 4.0 * sigma1)
        amplitudes = rng.uniform(1.0, 10.0, k) * rng.choice([-1.0, 1.0], k)
        tau0 = wrap(positions + rng.uniform(-sigma1 / 2, sigma1 / 2, k))
        rho = wrap(tau0 + rng.uniform(-0.9 * sigma1, 0.9 * sigma1, k))
        zhat = pointwise_mul(spike_fourier(SpikeTrain(positions, amplitudes), f_c),
                             kernel2.spectrum())
        try:
            grad = gradient_F(rho, kernel2, zhat)
            grad_fd = _fd_gradient(rho, kernel2, zhat, h)
            max_grad = max(max_grad,
                           float(np.abs(grad - grad_fd).max() / np.abs(grad).max()))
            if check_hessian and point < hess_points:
                hess = hessian_F(rho, kernel2, zhat)
                hess_fd = _fd_hessian(rho, kernel2, zhat, h)
                max_hess = max(max_hess,
                               float(np.linalg.norm(hess - hess_fd)
                                     / np.linalg.norm(hess)))
        except DegenerateDictionaryError:
            degenerate += 1

    passed = max_grad <= GRAD_CHECK_RTOL and max_hess <= HESS_CHECK_RTOL
    return GradCheckReport(n_points=n_points, max_grad_rel_err=max_grad,
                           max_hess_rel_err=max_hess, degenerate_count=degenerate,
                           passed=passed)
