"""Command-line interface: kernel | phase1 | solve | mc | gradcheck.

Exit codes: 0 success, 1 usage error, 2 numerical failure (for solve: every
status but converged, no_peaks included), 3 threshold gate failure
(gradcheck / mc). A JSON config file given via --config overrides the
corresponding command-line flags.
"""

from __future__ import annotations

import argparse
import json
import sys

from .experiments import (
    GRAD_CHECK_RTOL,
    HESS_CHECK_RTOL,
    ConfigError,
    ExperimentConfig,
    checked_kernel,
    checked_kernel1,
    gradcheck,
    run_monte_carlo,
    summarize,
)
from .peaks import PeakConfig, find_peaks
from .refine import STATUS_CONVERGED, solve
from .spectral import Spectrum, ells, eval_grid, load_spectrum_csv

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_THRESHOLD = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        _exit_usage(message)


def _exit_usage(message: str):
    sys.stderr.write(f"error: {message}\n")
    raise SystemExit(EXIT_USAGE)


def _config_value(action: argparse.Action, value):
    """Convert a --config value with the option's type, as if typed on the command line."""
    items = value if action.nargs == "+" and isinstance(value, list) else [value]
    if not items or not all(isinstance(v, (str, int, float)) and not isinstance(v, bool)
                            for v in items):
        raise ValueError(value)
    converted = [action.type(str(v)) for v in items]
    return converted if action.nargs == "+" else converted[0]


def _apply_config(parser: argparse.ArgumentParser, args: argparse.Namespace) -> argparse.Namespace:
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                config = json.load(fh)
        except (OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
            _exit_usage(f"{args.config}: {exc}")
        commands = next(a for a in parser._actions if a.dest == "command")
        options = {a.dest: a for a in commands.choices[args.command]._actions
                   if a.dest not in ("help", "config")}
        if not isinstance(config, dict) or not set(config) <= set(options):
            _exit_usage(f"{args.config}: keys must be options of {args.command}")
        for key, value in config.items():
            try:
                setattr(args, key, _config_value(options[key], value))
            except ValueError:
                _exit_usage(f"{args.config}: {key}: {json.dumps(value)} is not "
                            f"a valid {options[key].type.__name__}")
    return args


def _load_input(args) -> Spectrum:
    try:
        y = load_spectrum_csv(args.input)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{args.input}: {exc}") from exc
    if y.f_c != args.fc:
        raise ConfigError("--fc does not match the input spectrum")
    return y


def _peak_config(args) -> PeakConfig:
    try:
        return PeakConfig(eta=args.eta)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _cmd_kernel(args) -> int:
    kernel = checked_kernel(args.fc, args.c, "--c")
    try:  # before any output, so a grid too coarse writes nothing
        values = eval_grid(kernel.spectrum(), args.grid) if args.grid is not None else ()
    except ValueError as exc:
        raise ConfigError(f"--grid {args.grid}: {exc}") from exc
    csv = "l,ghat\n" + "".join(f"{l},{g:.17g}\n" for l, g in zip(ells(kernel.f_c), kernel.ghat))
    if args.dump:
        with open(args.dump, "w") as fh:
            fh.write(csv)
    else:
        sys.stdout.write(csv)
    if args.grid is not None:
        print("t,g")
        for k, v in enumerate(values):
            print(f"{k / args.grid:.17g},{v:.17g}")
    return EXIT_OK


def _cmd_phase1(args) -> int:
    y = _load_input(args)
    cfg = _peak_config(args)
    result = find_peaks(y, checked_kernel(args.fc, args.c1, "--c1"), cfg)
    print(json.dumps({
        "k_tilde": result.k_tilde,
        "tau0": list(result.tau0),
        "peak_values": list(result.peak_values),
    }))
    return EXIT_OK


def _cmd_solve(args) -> int:
    y = _load_input(args)
    cfg = _peak_config(args)
    c2 = args.c2 if args.c2 is not None else 1.5 * args.c1
    peaks, report = solve(y, checked_kernel1(args.fc, args.c1, "--c1"),
                          checked_kernel(args.fc, c2, "--c2"), cfg)
    print(json.dumps({
        "k_tilde": peaks.k_tilde,
        "positions": list(report.tau_tilde),
        "amplitudes": list(report.beta),
        "status": report.status,
        "reseeds": report.reseeds,
        "iterations": report.iterations,
        "grad_norm_final": report.grad_norm_final,
        "f_trace": list(report.f_trace),
    }))
    return EXIT_OK if report.status == STATUS_CONVERGED else EXIT_NUMERICAL


def _cmd_mc(args) -> int:
    cfg = ExperimentConfig(
        f_c=args.fc, c1=args.c1, c2=args.c2, k=args.k, sep_min=args.sep_min,
        nu_grid=tuple(args.nu), trials=args.trials, seed=args.seed,
    )
    summary = summarize(cfg, run_monte_carlo(cfg, out_dir=args.out))
    for nu, median, _, rate in summary:
        print(f"nu={nu:g} median_err={median:.3e} success_rate={rate:.3f}")
    if args.min_success_rate is not None and summary[0][3] < args.min_success_rate:
        return EXIT_THRESHOLD
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    report = gradcheck(f_c=args.fc, c1=args.c1, c2=args.c2,
                       n_points=args.n_points, seed=args.seed)
    print(f"points checked: {report.n_points}")
    print(f"max gradient relative error: {report.max_grad_rel_err:.3e} "
          f"(threshold {GRAD_CHECK_RTOL:g})")
    print(f"max Hessian relative error:  {report.max_hess_rel_err:.3e} "
          f"(threshold {HESS_CHECK_RTOL:g})")
    if report.degenerate_count:
        print(f"degenerate dictionary at {report.degenerate_count} points")
    return EXIT_OK if report.passed else EXIT_THRESHOLD


def build_parser() -> _Parser:
    parser = _Parser(prog="superres")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kernel", help="emit kernel Fourier coefficients as CSV")
    p.add_argument("--fc", type=int, required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--dump", type=str, default=None)
    p.add_argument("--grid", type=int, default=None)
    p.add_argument("--config", type=str, default=None)
    p.set_defaults(func=_cmd_kernel)

    p = sub.add_parser("phase1", help="greedy peak initialization")
    p.add_argument("--input", type=str, required=True)
    p.add_argument("--fc", type=int, required=True)
    p.add_argument("--c1", type=float, required=True)
    p.add_argument("--eta", type=float, default=0.0)
    p.add_argument("--config", type=str, default=None)
    p.set_defaults(func=_cmd_phase1)

    p = sub.add_parser("solve", help="full two-phase recovery")
    p.add_argument("--input", type=str, required=True)
    p.add_argument("--fc", type=int, required=True)
    p.add_argument("--c1", type=float, required=True)
    p.add_argument("--c2", type=float, default=None)
    p.add_argument("--eta", type=float, default=0.0)
    p.add_argument("--config", type=str, default=None)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("mc", help="Monte-Carlo sweep over noise levels")
    p.add_argument("--fc", type=int, default=ExperimentConfig.f_c)
    p.add_argument("--c1", type=float, default=ExperimentConfig.c1)
    p.add_argument("--c2", type=float, default=ExperimentConfig.c2)
    p.add_argument("--k", type=int, default=ExperimentConfig.k)
    p.add_argument("--sep-min", dest="sep_min", type=float, default=ExperimentConfig.sep_min)
    p.add_argument("--nu", type=float, nargs="+", default=list(ExperimentConfig.nu_grid))
    p.add_argument("--trials", type=int, default=ExperimentConfig.trials)
    p.add_argument("--seed", type=int, default=ExperimentConfig.seed)
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--min-success-rate", dest="min_success_rate", type=float, default=None)
    p.add_argument("--config", type=str, default=None)
    p.set_defaults(func=_cmd_mc)

    p = sub.add_parser("gradcheck", help="finite-difference derivative verification")
    p.add_argument("--fc", type=int, default=50)
    p.add_argument("--c1", type=float, default=1.5)
    p.add_argument("--c2", type=float, default=2.25)
    p.add_argument("--n-points", dest="n_points", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", type=str, default=None)
    p.set_defaults(func=_cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = _apply_config(parser, parser.parse_args(argv))
    try:
        return args.func(args)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE if isinstance(exc, ConfigError) else EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
