"""The measured loops and the metrics they report.

Solve workloads (clean, noisy, wideband) run one closed loop: a single caller
solves the pool's instances back to back until the time is up, cycling
through the pool if it runs out. A solve is the `superres solve` /
`run_trial` path: find_peaks(max_peaks=K) -> pointwise_mul(y, kernel2) ->
BoxConstraint(tau0, sigma1) -> run_newton. Scoring and the output check run
outside the timed call. The sweep workload times `run_monte_carlo` itself.
A reference task timed next to every solve turns wall times into the
machine-independent ratios the bounded metrics report (see make_reference).

With tracing on, every iteration solves its instance twice, once bare and
once inside spans (alternating which goes first), then times one direct call
into each layer on that solve's own data. The bare solves give the outcome
counts and the tracing overhead; the spans give the per-layer times.
"""

from __future__ import annotations

import contextlib
import os
import platform
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import scipy

from inputs import digest, make_pool, pool_digest
from spans import Tracer
from superres import (
    BoxConstraint,
    ExperimentConfig,
    NewtonConfig,
    PeakConfig,
    build_G,
    eval_grid,
    eval_point,
    find_peaks,
    gradient_F,
    hausdorff,
    hessian_F,
    least_squares_beta,
    objective_F,
    pointwise_mul,
    run_monte_carlo,
    run_newton,
    run_trial,
    sample_instance,
)
from superres.experiments import EXACT_RECOVERY_ERR, FAILED_TRIAL_ERR, cached_kernel, trial_seed_for

OUT = Path(__file__).resolve().parent / "out"
# Solver outcomes counted in fail_share. The result line's `failed` counts only
# solves whose output fails the check: these statuses are the library's own
# trial outcomes (run_trial reports them too), measured as accuracy.
FAILED_STATUSES = ("error", "hessian_not_pd", "no_peaks")
REFINE_STATUSES = ("converged", "max_iter", "hessian_not_pd", "error")
TAIL_PCT = 90  # leaves at least 18 solves beyond it on every workload at 30 s
SWEEP_CHUNK = 4  # trials per run_monte_carlo call; about 0.15 s at f_c = 50
POSITION_SLACK = 1e-12

REF_HALF_WINDOW = 4  # a solve is divided by the median of the 9 nearest reference timings

END_TO_END_UNITS = {"solve_ref_p50": "ref", "solve_ref_tail": "ref", "setup_s": "s"}

PER_LAYER_UNITS = {
    "solve_ms_p50": "ms",
    "solve_ms_tail": "ms",
    "import_s": "s",
    "slepian.build_kernel_ms.c1": "ms",
    "slepian.build_kernel_ms.c2": "ms",
    "spectral.eval_point_us": "us",
    "spectral.eval_grid_ms": "ms",
    "spectral.filter_ms": "ms",
    "peaks.find_peaks_ms.p50": "ms",
    "peaks.find_peaks_ms.tail": "ms",
    "peaks.share": "share",
    "peaks.picks": "count",
    "peaks.scan_iterations": "count",
    "peaks.grid_points": "count",
    "peaks.init_hit_rate": "share",
    "refine.run_newton_ms.p50": "ms",
    "refine.run_newton_ms.tail": "ms",
    "refine.iterations.sum": "count",
    "refine.iterations.p50": "count",
    "refine.iterations.max": "count",
    "refine.ms_per_iter": "ms",
    "refine.accept_ratio": "share",
    "refine.max_iter_share": "share",
    **{f"refine.status.{s}": "count" for s in REFINE_STATUSES},
    "refine.build_G_ms": "ms",
    "refine.least_squares_beta_ms": "ms",
    "refine.objective_F_ms": "ms",
    "refine.gradient_F_ms": "ms",
    "refine.hessian_F_ms": "ms",
    "experiments.sample_instance_ms.p50": "ms",
    "experiments.sample_instance_ms.tail": "ms",
    "experiments.run_trial_ms": "ms",
    "experiments.sample_share": "share",
    "blame.phase1": "share",
    "blame.phase2": "share",
    "trace.overhead": "share",
    "solves_per_s": "1/s",
    "trials_per_s": "1/s",
    "success_rate": "share",
    "err_p50_sigma": "sigma",
    "fail_share": "share",
}


def _no_span(name):
    return contextlib.nullcontext()


def make_reference(f_c: int):
    """A fixed task shaped like a solve at band f_c, in the benchmark's own code.

    A shared 2-core virtual machine changes speed by up to 1.6x within
    seconds as other tenants load it, which moves every wall time alike.
    Timing this task next to each solve and dividing gives a solve time that
    hardly depends on that: over ten seeds on `clean` the median ratio spread
    3% (interquartile range over median) where the raw median spread 32%.
    No library change can move the task, so a faster library lowers the ratio.
    Like a solve it mixes direct sums over the N coefficients, a grid FFT of
    32 N points and small Cholesky factorisations.
    """
    n = 2 * f_c + 1
    ls = np.arange(-f_c, f_c + 1)
    coeffs = np.cos(np.arange(n, dtype=float)) + 0j
    grid = np.zeros(32 * n, dtype=complex)
    grid[:n] = coeffs
    a = np.random.default_rng(0).standard_normal((14, 14))
    gram = a @ a.T + 14.0 * np.eye(14)
    points = np.linspace(0.0, 1.0, 40)

    def task() -> float:
        t0 = time.perf_counter()
        for t in points:
            np.sum(coeffs * np.exp(2j * np.pi * ls * t))
        np.fft.ifft(grid)
        for _ in range(10):
            np.linalg.cholesky(gram)
        return time.perf_counter() - t0

    return task


def in_reference_units(seconds, ref_seconds) -> np.ndarray:
    """Each time divided by the median reference timing around it."""
    ref = np.asarray(ref_seconds)
    return np.array([
        t / np.median(ref[max(0, i - REF_HALF_WINDOW):i + REF_HALF_WINDOW + 1])
        for i, t in enumerate(seconds)])


@dataclass
class Solved:
    """One solve (or one library trial) as the benchmark saw it."""

    seconds: float
    status: str
    err: float  # Hausdorff error against the truth
    hit: bool  # every greedy pick within sigma1 of a distinct true spike
    ok: bool  # output check passed
    first: bool  # first time this input was solved in the run
    picks: int = 0  # PeakResult.k_tilde
    scan_iterations: int = 0  # PeakResult.iterations
    iterations: int = 0  # SolveReport.iterations
    accepted: int = 0  # accepted Newton steps, len(SolveReport.f_trace) - 1

    @property
    def failed(self) -> bool:
        return self.status in FAILED_STATUSES or not self.ok


def circ_dist(a, b):
    d = np.mod(np.asarray(a) - b, 1.0)
    return np.minimum(d, 1.0 - d)


def output_ok(positions, amplitudes, centres, k_tilde: int, sigma1: float) -> bool:
    """Finite positions and amplitudes, k_tilde of each, each position in its box."""
    arrays = [positions] if amplitudes is None else [positions, amplitudes]
    return all(a.shape == (k_tilde,) and bool(np.isfinite(a).all()) for a in arrays) and bool(
        np.all(circ_dist(positions, centres) <= sigma1 + POSITION_SLACK))


def init_hit(picks, truth, sigma1: float) -> bool:
    if len(picks) == 0:
        return False
    d = circ_dist(np.asarray(picks)[:, None], np.asarray(truth)[None, :])
    nearest = d.argmin(axis=1)
    return bool(d.min(axis=1).max() <= sigma1) and len(set(nearest.tolist())) == len(picks)


def solve(y, kernel1, kernel2, k: int, span=_no_span):
    """The timed path. Returns (PeakResult or None, SolveReport or None, status)."""
    peaks = None
    try:
        with span("peaks.find_peaks"):
            peaks = find_peaks(y, kernel1, PeakConfig(max_peaks=k))
        if peaks.k_tilde == 0:
            return peaks, None, "no_peaks"
        with span("spectral.pointwise_mul"):
            zhat = pointwise_mul(y, kernel2.spectrum())
        with span("refine.BoxConstraint"):
            box = BoxConstraint(peaks.tau0, kernel1.sigma)
        with span("refine.run_newton"):
            report = run_newton(peaks.tau0, kernel2, zhat, box, NewtonConfig())
    except ValueError:  # includes DegenerateDictionaryError, as in run_trial
        return peaks, None, "error"
    return peaks, report, report.status


def score(inst, peaks, report, status, seconds, sigma1, first) -> Solved:
    hit = peaks is not None and init_hit(peaks.tau0, inst.positions, sigma1)
    counts = (peaks.k_tilde, peaks.iterations) if peaks is not None else (0, 0)
    if report is None:
        return Solved(seconds, status, FAILED_TRIAL_ERR, hit, True, first, *counts)
    return Solved(seconds, status, hausdorff(report.tau_tilde, inst.positions), hit,
                  output_ok(report.tau_tilde, report.beta, peaks.tau0, peaks.k_tilde, sigma1),
                  first, *counts, report.iterations, len(report.f_trace) - 1)


def score_record(rec, sigma1: float) -> Solved:
    """A library TrialRecord; it carries positions but no amplitudes."""
    ok = bool(np.isfinite(rec.hausdorff_err))
    if rec.status not in ("error", "no_peaks"):
        ok = ok and output_ok(rec.tau_estimate, None, rec.tau_init, rec.k_tilde, sigma1)
    return Solved(rec.runtime_ms / 1e3, rec.status, rec.hausdorff_err,
                  init_hit(rec.tau_init, rec.tau_true, sigma1), ok, True)


def tail(values) -> float:
    return float(np.percentile(values, TAIL_PCT))


def outcome_metrics(solved: list[Solved], sigma1: float) -> dict:
    """Accuracy and failure shares over the distinct inputs solved."""
    first = [s for s in solved if s.first]
    n = len(first)
    err = np.array([s.err for s in first])
    return {
        "success_rate": float(np.mean(err < EXACT_RECOVERY_ERR)),
        "err_p50_sigma": float(np.median(err)) / sigma1,
        "fail_share": sum(s.failed for s in first) / n,
        "peaks.init_hit_rate": sum(s.hit for s in first) / n,
        "blame.phase1": sum(s.failed and not s.hit for s in first) / n,
        "blame.phase2": sum(s.failed and s.hit for s in first) / n,
        "distinct_inputs": n,
    }


def environment(thread_vars) -> dict:
    def blas(show_config):
        try:
            info = show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{info['name']} {info['version']}"
        except (KeyError, TypeError):
            return "unknown"

    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"numpy": blas(np.show_config), "scipy": blas(scipy.show_config)},
        "threads": {v: os.environ.get(v) for v in thread_vars},
    }


def experiment_config(w, seed: int) -> ExperimentConfig:
    return ExperimentConfig(f_c=w.f_c, c1=w.c1, c2=w.c2, k=w.k, sep_min=w.sep,
                            nu_grid=(w.nu,), trials=SWEEP_CHUNK, seed=seed)


def chunk_seed(seed: int, chunk: int) -> int:
    if chunk == 0:
        return seed
    return int(np.random.SeedSequence([seed, chunk]).generate_state(1)[0])


def run_sweep(w, seed: int, seconds: float):
    """Closed loop of run_monte_carlo calls, SWEEP_CHUNK trials each, with the
    reference task timed before each call."""
    cfg0 = experiment_config(w, seed)
    sigma1 = w.c1 / (2 * w.f_c + 1)
    reference = make_reference(w.f_c)
    cached_kernel(w.f_c, w.c1)
    cached_kernel(w.f_c, w.c2)
    records, ref, wall = [], [], 0.0
    deadline = time.perf_counter() + seconds
    chunk = 0
    while time.perf_counter() < deadline:
        cfg = replace(cfg0, seed=chunk_seed(seed, chunk))
        ref_s = reference()
        t0 = time.perf_counter()
        chunk_records = run_monte_carlo(cfg)
        wall += time.perf_counter() - t0
        records += chunk_records
        ref += [ref_s] * len(chunk_records)
        chunk += 1
    solved = [score_record(r, sigma1) for r in records]
    extra = {
        "ref_seconds": ref,
        "trials_per_s": len(records) / wall,
        "inputs_digest": digest(a for r in records[:64] for a in (np.int64(r.seed), r.tau_true)),
        "chunks": chunk,
    }
    return solved, extra


def run_solves(w, pool, kernel1, kernel2, seconds: float):
    """Closed loop of solves, each followed by one timing of the reference task."""
    sigma1 = kernel1.sigma
    reference = make_reference(w.f_c)
    solved, ref = [], []
    deadline = time.perf_counter() + seconds
    j = 0
    while time.perf_counter() < deadline:
        inst = pool[j % len(pool)]
        t0 = time.perf_counter()
        peaks, report, status = solve(inst.y, kernel1, kernel2, w.k)
        dt = time.perf_counter() - t0
        ref.append(reference())
        solved.append(score(inst, peaks, report, status, dt, sigma1, j < len(pool)))
        j += 1
    return solved, {"ref_seconds": ref}


def _probe_layers(tracer: Tracer, y, peaks, kernel1, kernel2) -> None:
    """One direct call into each spectral and refine function on this solve's data."""
    span = tracer.span
    with span("probe"):
        with span("spectral.filter"):
            z = pointwise_mul(y, kernel1.spectrum())
        with span("spectral.eval_grid"):
            eval_grid(z, PeakConfig().oversample * y.n)
        has_picks = peaks is not None and peaks.k_tilde > 0
        with span("spectral.eval_point"):
            eval_point(z, float(peaks.tau0[0]) if has_picks else 0.0)
        if not has_picks:
            return
        zhat = pointwise_mul(y, kernel2.spectrum())
        tau0 = peaks.tau0
        try:
            with span("refine.build_G"):
                d = build_G(tau0, kernel2)
            with span("refine.least_squares_beta"):
                least_squares_beta(d, zhat)
            with span("refine.objective_F"):
                objective_F(tau0, kernel2, zhat)
            with span("refine.gradient_F"):
                gradient_F(tau0, kernel2, zhat)
            with span("refine.hessian_F"):
                hessian_F(tau0, kernel2, zhat)
        except ValueError:  # greedy picks too close for a dictionary
            pass


def run_traced(w, seed: int, pool, kernel1, kernel2, seconds: float, tracer: Tracer):
    sigma1 = kernel1.sigma
    cfg = experiment_config(w, seed)
    cached_kernel(w.f_c, w.c1)
    cached_kernel(w.f_c, w.c2)
    bare, trials, ratios = [], [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline:
        inst = pool[i % len(pool)]
        tracer.solve = i
        times = {}
        for with_spans in ((False, True) if i % 2 == 0 else (True, False)):
            t0 = time.perf_counter()
            if with_spans:
                with tracer.span("solve"):
                    peaks, report, status = solve(inst.y, kernel1, kernel2, w.k, tracer.span)
            else:
                peaks, report, status = solve(inst.y, kernel1, kernel2, w.k)
            times[with_spans] = time.perf_counter() - t0
            if not with_spans:
                bare.append(score(inst, peaks, report, status, times[False], sigma1,
                                  i < len(pool)))
        ratios.append(times[True] / times[False])
        _probe_layers(tracer, inst.y, peaks, kernel1, kernel2)
        trial_seed = trial_seed_for(cfg, 0, i)
        with tracer.span("experiments.sample_instance"):
            sample_instance(cfg, trial_seed)
        with tracer.span("experiments.run_trial"):
            record = run_trial(cfg, trial_seed, w.nu)
        trials.append(score_record(record, sigma1))
        i += 1
    return bare, trials, ratios


def layer_metrics(w, tracer: Tracer, bare, ratios, setup) -> dict:
    def ms(name):
        return 1e3 * np.asarray(tracer.durations(name))

    def med(name, scale=1e3):
        values = tracer.durations(name)
        return scale * float(np.median(values)) if values else 0.0

    sigma1 = w.c1 / (2 * w.f_c + 1)
    find_peaks_ms, newton_ms = ms("peaks.find_peaks"), ms("refine.run_newton")
    iterations = np.array([s.iterations for s in bare])
    bare_ms = 1e3 * np.array([s.seconds for s in bare])
    sample_s, trial_s = tracer.durations("experiments.sample_instance"), tracer.durations(
        "experiments.run_trial")
    m = {
        "import_s": float(np.median([s["import_s"] for s in setup])),
        "slepian.build_kernel_ms.c1": float(np.median([s["build_kernel_ms.c1"] for s in setup])),
        "slepian.build_kernel_ms.c2": float(np.median([s["build_kernel_ms.c2"] for s in setup])),
        "spectral.eval_point_us": med("spectral.eval_point", 1e6),
        "spectral.eval_grid_ms": med("spectral.eval_grid"),
        "spectral.filter_ms": med("spectral.filter"),
        "peaks.find_peaks_ms.p50": float(np.median(find_peaks_ms)),
        "peaks.find_peaks_ms.tail": tail(find_peaks_ms),
        "peaks.share": float(find_peaks_ms.sum() / ms("solve").sum()),
        "peaks.grid_points": PeakConfig().oversample * (2 * w.f_c + 1),
        "refine.run_newton_ms.p50": float(np.median(newton_ms)) if newton_ms.size else 0.0,
        "refine.run_newton_ms.tail": tail(newton_ms) if newton_ms.size else 0.0,
        "refine.iterations.sum": int(iterations.sum()),
        "refine.iterations.p50": float(np.median(iterations)),
        "refine.iterations.max": int(iterations.max()),
        "refine.ms_per_iter": float(newton_ms.sum()) / max(int(iterations.sum()), 1),
        "refine.accept_ratio": sum(s.accepted for s in bare) / max(int(iterations.sum()), 1),
        "refine.max_iter_share": sum(s.status == "max_iter" for s in bare) / len(bare),
        **{f"refine.status.{st}": sum(s.status == st for s in bare) for st in REFINE_STATUSES},
        "refine.build_G_ms": med("refine.build_G"),
        "refine.least_squares_beta_ms": med("refine.least_squares_beta"),
        "refine.objective_F_ms": med("refine.objective_F"),
        "refine.gradient_F_ms": med("refine.gradient_F"),
        "refine.hessian_F_ms": med("refine.hessian_F"),
        "experiments.sample_instance_ms.p50": 1e3 * float(np.median(sample_s)),
        "experiments.sample_instance_ms.tail": 1e3 * tail(sample_s),
        "experiments.run_trial_ms": 1e3 * float(np.median(trial_s)),
        "experiments.sample_share": float(np.sum(sample_s) / np.sum(trial_s)),
        "trace.overhead": float(np.median(ratios)) - 1.0,
        "solve_ms_p50": float(np.median(bare_ms)),
        "solve_ms_tail": tail(bare_ms),
        "solves_per_s": len(bare) / sum(s.seconds for s in bare),
        "trials_per_s": len(trial_s) / float(np.sum(trial_s)),
        "peaks.picks": float(np.mean([s.picks for s in bare])),
        "peaks.scan_iterations": float(np.mean([s.scan_iterations for s in bare])),
    }
    m.update({k: v for k, v in outcome_metrics(bare, sigma1).items() if k in PER_LAYER_UNITS})
    return m


def run_workload(w, seed: int, seconds: float, trace: bool, setup: list[dict],
                 kernel1, kernel2, thread_vars) -> tuple[dict, dict]:
    """Run one workload; return the details line and the result line."""
    sigma1 = kernel1.sigma
    details = {
        "workload": w.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": environment(thread_vars),
        "setup_samples": [{k: v for k, v in s.items() if k != "stamps"} for s in setup],
    }
    pool = None
    if trace or not w.sweep:
        pool = make_pool(w.name, seed, w.pool, w.f_c, w.k, w.sep, w.nu)
        details["inputs_digest"] = pool_digest(pool)

    if trace:
        tracer = Tracer()
        t0, t1, t2, t3 = setup[0]["stamps"]
        tracer.record("slepian.build_kernel", t1, t2)
        tracer.record("slepian.build_kernel", t2, t3)
        bare, trials, ratios = run_traced(w, seed, pool, kernel1, kernel2, seconds, tracer)
        metrics, units = layer_metrics(w, tracer, bare, ratios, setup), PER_LAYER_UNITS
        checked = bare + trials
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{w.name}-s{seed}.jsonl"
        tracer.write(spans_path)
        details["spans"] = f"{OUT.parent.name}/{OUT.name}/{spans_path.name}"
        details["traced_solves"] = len(bare)
    else:
        if w.sweep:
            checked, extra = run_sweep(w, seed, seconds)
        else:
            checked, extra = run_solves(w, pool, kernel1, kernel2, seconds)
        solve_s = np.array([s.seconds for s in checked])
        ref_s = extra.pop("ref_seconds")
        in_ref = in_reference_units(solve_s, ref_s)
        metrics, units = {
            "solve_ref_p50": float(np.median(in_ref)),
            "solve_ref_tail": tail(in_ref),
            "setup_s": float(np.median([s["setup_s"] for s in setup])),
        }, END_TO_END_UNITS
        details.update(extra)
        details.update(outcome_metrics(checked, sigma1))
        details.update({
            "solves": len(checked),
            "tail_pct": TAIL_PCT,
            "solve_ms_p50": 1e3 * float(np.median(solve_s)),
            "solve_ms_tail": 1e3 * tail(solve_s),
            "ref_ms_p50": 1e3 * float(np.median(ref_s)),
            "solves_per_s": len(checked) / float(solve_s.sum()),
        })
    statuses = [s.status for s in checked]
    details["statuses"] = {st: statuses.count(st) for st in sorted(set(statuses))}
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics and unit table disagree: {sorted(set(metrics) ^ set(units))}")
    result = {
        "correct": all(s.ok for s in checked),
        "attempted": len(checked),
        "failed": sum(not s.ok for s in checked),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return details, result
