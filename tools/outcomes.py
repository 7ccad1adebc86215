"""Per-instance solver outcomes on the benchmark's input pools and the mc path, and their diff.

    python3 tools/outcomes.py --out new.csv
    python3 tools/outcomes.py --workloads clean --seeds 1 2 --out new.csv --against old.csv
    python3 tools/outcomes.py --workloads mc --out new.csv --against old.csv

Each instance of `make_pool` (bench/inputs.py) for the chosen entries of
bench/run.py's WORKLOADS, with their settings, is solved by `refine.solve` at
PeakConfig(max_peaks=K), as `superres solve` and `run_trial` do. The first
UNCAPPED instances of each pool also run an uncapped find_peaks. One CSV
row per run gives the workload, seed, index, scan (`K` or `all`), status,
Newton iterations, re-seeds, phase-1 iterations, a sha256 of the bytes of
the picks and peak values (`phase1_sha256`), one of tau and beta
(`phase2_sha256`) and one of the report's f_trace and grad_norm_final
(`report_sha256`), then tau and beta themselves, space-separated at 17
significant digits. So two trees that write the same file made bit-identical
outcomes, and a change that moves only phase 2's rounding shows in
`phase2_sha256` and in tau and beta alone.

The `mc` entry runs `run_trial`, as `superres mc` does, on
trial_seed_for(ExperimentConfig(), i, t) for nu = MC_NU[i] and the first
MC_TRIALS trials t; --seeds does not apply to it. Its rows have the trial seed
in `seed`, t in `index` and in `phase2_sha256` a sha256 of tau_init,
tau_estimate and the Hausdorff error; `newton_iterations` is empty, and every
other column is a pool row's, from the trial's Solution. So a change to the
instance sampling or the measurement (`sample_instance`, `spike_fourier`,
`synth_noise`, `add`) shows there, although the pools are built without them.

--against FILE prints every row that differs from FILE in a column other than
tau and beta, then how many rows differ in each column and a count per change
of status, and exits 1 when any row differs. Then, per workload, over the rows
present in both files with the same status and tau (beta) of one length in
each, it prints the largest wrap distance between old and new tau and the
largest max|new beta - old beta| / max|old beta|: a solve whose status changed
is counted as such and would hide every rounding-level move if measured too.
A FILE without the tau and beta columns, or without `report_sha256`, is
compared on the other columns alone. The library is imported from ../src,
never from an installed copy.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import os
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from run import THREAD_VARS, WORKLOADS  # noqa: E402

# One BLAS thread, as in the benchmark, set before numpy is first imported.
for var in THREAD_VARS:
    os.environ[var] = "1"

import numpy as np  # noqa: E402

from inputs import make_pool  # noqa: E402
from superres import PeakConfig, find_peaks, solve, wrap_dist  # noqa: E402
from superres.experiments import (  # noqa: E402
    ExperimentConfig,
    cached_kernel,
    run_trial,
    trial_seed_for,
)

COLUMNS = ("workload", "seed", "index", "scan", "status", "newton_iterations", "reseeds",
           "phase1_iterations", "phase1_sha256", "phase2_sha256", "report_sha256", "tau", "beta")
KEY = COLUMNS[:4]
COMPARED = COLUMNS[len(KEY):-2]  # tau and beta are measured as distances instead
EMPTY = dict.fromkeys(COLUMNS[len(KEY):], "")
DISTANCES = {  # old and new values of a row -> how far they moved
    "tau": lambda a, b: wrap_dist(a, b).max(),
    "beta": lambda a, b: np.abs(b - a).max() / np.abs(a).max(),
}
UNCAPPED = 300
MC_NU = (0.0, 0.05)
MC_TRIALS = 600


def _sha(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def _digits(a) -> str:
    """An array as space-separated floats that read back bit for bit."""
    return " ".join(f"{v:.17g}" for v in np.asarray(a, dtype=float))


def _columns(peaks, report=None) -> dict:
    """The columns of a `refine.solve` Solution, or of an uncapped scan's picks alone."""
    row = {**EMPTY, "phase1_iterations": peaks.iterations,
           "phase1_sha256": _sha([peaks.tau0, peaks.peak_values])}
    if report is not None:
        row.update(status=report.status, newton_iterations=report.iterations,
                   reseeds=report.reseeds, phase2_sha256=_sha([report.tau_tilde, report.beta]),
                   report_sha256=_sha([report.f_trace, report.grad_norm_final]),
                   tau=_digits(report.tau_tilde), beta=_digits(report.beta))
    return row


def outcome(y, kernel1, kernel2, max_peaks) -> dict:
    """The outcome columns of one solve (max_peaks set) or one uncapped scan."""
    try:
        if max_peaks is None:
            return _columns(find_peaks(y, kernel1, PeakConfig()))
        return _columns(*solve(y, kernel1, kernel2, PeakConfig(max_peaks=max_peaks)))
    except ValueError:  # DegenerateDictionaryError is a ValueError
        return {**EMPTY, "status": "error"}


def run_mc():
    cfg = ExperimentConfig()
    for i, nu in enumerate(MC_NU):
        for t in range(MC_TRIALS):
            rec = run_trial(cfg, trial_seed_for(cfg, i, t), nu)
            row = EMPTY if rec.solution is None else _columns(*rec.solution)
            yield {**row, "workload": "mc", "seed": rec.seed, "index": t, "scan": "K",
                   "status": rec.status, "reseeds": rec.reseeds, "newton_iterations": "",
                   "phase2_sha256": _sha([rec.tau_init, rec.tau_estimate, rec.hausdorff_err])}


def run(workloads, seeds):
    for name in workloads:
        if name == "mc":
            yield from run_mc()
            continue
        w = WORKLOADS[name]
        kernel1, kernel2 = cached_kernel(w.f_c, w.c1), cached_kernel(w.f_c, w.c2)
        for seed in seeds:
            pool = make_pool(w.name, seed, w.pool, w.f_c, w.k, w.sep, w.nu)
            for index, inst in enumerate(pool):
                scans = [("K", w.k)] + ([("all", None)] if index < UNCAPPED else [])
                for scan, max_peaks in scans:
                    yield {"workload": name, "seed": seed, "index": index, "scan": scan,
                           **outcome(inst.y, kernel1, kernel2, max_peaks)}


def compare(rows: list[dict], path: str) -> int:
    """Print the rows that differ from those in path, then how many differ in each
    column, the changes of status and how far tau and beta moved."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        old = {tuple(r[c] for c in KEY): r for r in reader}
        compared = [c for c in COMPARED if c in reader.fieldnames]
    changes: Counter = Counter()
    columns: Counter = Counter()
    moved: Counter = Counter()  # (workload, column) -> the largest distance
    measured: Counter = Counter()
    differ = 0
    for row in rows:
        new = {c: str(row[c]) for c in [*KEY, *compared]}
        full = old.pop(tuple(new[c] for c in KEY), None)
        before = None if full is None else {c: full[c] for c in new}
        for c, distance in DISTANCES.items():
            if full is None or full["status"] != new["status"] or not full.get(c) or not row[c]:
                continue
            a, b = (np.array(v.split(), dtype=float) for v in (full[c], row[c]))
            if a.size == b.size:
                key = new["workload"], c
                measured[key] += 1
                moved[key] = max(moved[key], float(distance(a, b)))
        if before == new:
            continue
        differ += 1
        print(f"{','.join(new[c] for c in KEY)}: {before} -> {new}")
        columns.update(c for c in compared if before is None or before[c] != new[c])
        if before is None or before["status"] != new["status"]:
            changes[(before or {}).get("status", "absent"), new["status"]] += 1
    for key in old:
        differ += 1
        print(f"{','.join(key)}: only in {path}")
        columns.update(compared)
        changes[old[key]["status"], "absent"] += 1
    print(f"{differ} of {len(rows)} rows differ")
    for c in compared:
        print(f"  {c}: {columns[c]}")
    print("status changes:")
    for (a, b), n in sorted(changes.items()):
        print(f"  {a or '-'} -> {b or '-'}: {n}")
    print("on rows whose status did not change:")
    for w in dict.fromkeys(r["workload"] for r in rows):
        print(f"  {w}: largest tau wrap distance {moved[w, 'tau']:.3g} over "
              f"{measured[w, 'tau']} rows, largest |delta beta| / max|beta| "
              f"{moved[w, 'beta']:.3g} over {measured[w, 'beta']} rows")
    return 1 if differ else 0


def main() -> int:
    solvable = [name for name, w in WORKLOADS.items() if not w.sweep] + ["mc"]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+", choices=solvable, default=solvable)
    p.add_argument("--seeds", nargs="+", type=int, default=[1])
    p.add_argument("--out", type=str, default=None, help="write the CSV here")
    p.add_argument("--against", type=str, default=None, help="a CSV from an earlier run")
    args = p.parse_args()

    rows = list(run(args.workloads, args.seeds))
    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=COLUMNS, lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
    if args.against:
        return compare(rows, args.against)
    print(f"{len(rows)} rows; status counts: "
          f"{dict(Counter(r['status'] for r in rows if r['scan'] == 'K'))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
