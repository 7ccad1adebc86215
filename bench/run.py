"""Benchmark of the superres two-phase solver, one seeded workload per run.

    python3 bench/run.py --workload clean --seed 1 --seconds 30 --trace 0

Workloads (see bench/README.md for why each exists):

    clean     f_c=50,   K=14, sep 0.04, nu=0    the paper's noiseless regime
    noisy     f_c=50,   K=14, sep 0.04, nu=0.1  the Newton stall path
    wideband  f_c=1000, K=14, sep 0.04, nu=0    the O(N^3) kernel build, 20x longer columns
    sweep     run_monte_carlo at the clean settings, the `superres mc` path

The run first sets up several times (import superres, build both kernels
cold), then measures a closed loop for --seconds. The last line of standard
output is the result: {"correct", "attempted", "failed", "metrics"}, with the
end-to-end metrics under --trace 0 and the per-layer metrics under --trace 1.
The line before it holds the details: environment, inputs digest, outcome
counts and shares, and the raw set-up samples. Exit code 0 when every output
passed its check, 1 when one did not, 2 when the source tree is missing.

The library is imported from ../src, never from an installed copy.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_SAMPLES = 5  # cold set-ups per run, one per 5 s of measurement, at least one
PROBE_TIMEOUT_S = 120


@dataclass(frozen=True)
class Workload:
    name: str
    f_c: int
    nu: float
    pool: int  # distinct inputs generated; the loop cycles if it solves them all
    sweep: bool = False
    k: int = 14
    sep: float = 0.04
    c1: float = 1.5
    c2: float = 2.25


WORKLOADS = {w.name: w for w in (
    Workload("clean", f_c=50, nu=0.0, pool=3000),
    Workload("noisy", f_c=50, nu=0.1, pool=600),
    Workload("wideband", f_c=1000, nu=0.0, pool=800),
    Workload("sweep", f_c=50, nu=0.0, pool=3000, sweep=True),
)}


def setup_samples(w: Workload, count: int):
    """Cold set-ups: this process first (it keeps the kernels), then fresh ones."""
    from setup_probe import measure_setup

    first, kernel1, kernel2 = measure_setup(w.f_c, w.c1, w.c2)
    samples = [first]
    for _ in range(count - 1):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), "--fc", str(w.f_c),
             "--c1", repr(w.c1), "--c2", repr(w.c2)],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
        samples.append(json.loads(proc.stdout.splitlines()[-1]))
    return samples, kernel1, kernel2


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seconds <= 0:
        p.error("--seconds must be positive")

    # One BLAS/OpenMP thread, set before numpy is first imported here or in a probe.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (ROOT / "src" / "superres" / "__init__.py").is_file():
        sys.stderr.write(f"error: no superres source tree at {ROOT / 'src'}\n")
        return 2

    w = WORKLOADS[args.workload]
    count = max(1, min(SETUP_SAMPLES, int(args.seconds // 5)))
    samples, kernel1, kernel2 = setup_samples(w, count)

    from workloads import run_workload

    details, result = run_workload(w, args.seed, args.seconds, bool(args.trace), samples,
                                   kernel1, kernel2, THREAD_VARS)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
