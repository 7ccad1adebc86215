"""Parent-versus-change benchmark pairs, written as one BENCH_<n>.json file.

    python3 tools/bench_pairs.py --parent HEAD --pairs wideband=5 clean=3 sweep=3 \
        --out BENCH_28.json --claim wideband:solve_ref_p50 --description "what the change does"

The parent commit (--parent) is exported with `git archive` into a temporary
directory, which is removed at the end; a working tree with no change against it
is refused, so a committed change is not measured against itself. Each pair runs
`bench/run.py --workload W --seed S --seconds T --trace 0`, T being BENCHMARK.json's
run_seconds, once in that copy and once in this working tree, back to back: the
parent first in odd pairs and second in even pairs. The workloads run one after another, in the order given, one run at
a time. Only each run's result line (the last line of standard output) is kept.

The file holds the command, the protocol, the machine, the claim (if any), a
summary and the runs. The summary gives, per workload and per end-to-end metric
of BENCHMARK.json, both sides' values, their medians and quartiles (linear
interpolation, as numpy's default percentile), the pairs in which the change is
better in the metric's direction, and the ratio of the medians (change / parent).
Nothing under bench/ is written: the runs use --trace 0, which writes no spans.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from importlib.metadata import version
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def bench_run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one `bench/run.py` run in tree, with --trace 0."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", repr(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=False)
    if proc.returncode not in (0, 1):  # 1: an output failed its check, still a result
        raise RuntimeError(f"bench/run.py in {tree} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def side_stats(values: list[float]) -> tuple[float, list[float]]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, [round(q1, 4), round(q3, 4)]


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per workload, per metric: both sides' values, medians, quartiles, the pairs the
    change wins and the ratio of the medians."""
    summary: dict[str, dict] = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        pairs = sorted({r["pair"] for r in mine})
        entry: dict = {"pairs": len(pairs)}
        for m in metrics:
            value = {(r["pair"], r["side"]): r["result"]["metrics"][m["name"]]["value"]
                     for r in mine}
            parent = [value[p, "parent"] for p in pairs]
            change = [value[p, "change"] for p in pairs]
            sign = 1.0 if m["better"] == "lower" else -1.0
            p_med, p_q = side_stats(parent)
            c_med, c_q = side_stats(change)
            entry[m["name"]] = {
                "parent": [round(v, 4) for v in parent],
                "change": [round(v, 4) for v in change],
                "parent_median": round(p_med, 4),
                "parent_quartiles": p_q,
                "change_median": round(c_med, 4),
                "change_quartiles": c_q,
                "change_better_pairs": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
                "median_ratio": round(c_med / p_med, 4),
            }
        summary[workload] = entry
    return summary


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--pairs", nargs="+", required=True, metavar="WORKLOAD=N")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--parent", required=True, metavar="REV")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--claim", metavar="WORKLOAD:METRIC")
    p.add_argument("--description", default="")
    args = p.parse_args()
    plan = [(w, int(n)) for w, n in (item.split("=") for item in args.pairs)]
    if any(n < 2 for _, n in plan):
        p.error("each workload needs at least 2 pairs for its quartiles")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    parent_rev = subprocess.run(["git", "rev-parse", "--short", args.parent], cwd=ROOT,
                                check=True, capture_output=True, text=True).stdout.strip()
    if subprocess.run(["git", "diff", "--quiet", parent_rev], cwd=ROOT).returncode == 0:
        p.error(f"the working tree has no change against {parent_rev}")

    runs = []
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        archive = subprocess.run(["git", "archive", parent_rev], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        trees = {"parent": Path(tmp), "change": ROOT}
        for workload, n in plan:
            for pair in range(1, n + 1):
                parent_first = pair % 2 == 1
                for side in ("parent", "change") if parent_first else ("change", "parent"):
                    result = bench_run(trees[side], workload, args.seed, seconds)
                    runs.append({"pair": pair, "side": side, "workload": workload,
                                 "seed": args.seed, "trace": 0, "parent_first": parent_first,
                                 "result": result})
                    print(json.dumps(runs[-1]), file=sys.stderr, flush=True)

    order = ", then ".join(f"{n} of {w}" for w, n in plan)
    out = {
        "description": args.description,
        "command": f"python3 bench/run.py --workload <{'|'.join(w for w, _ in plan)}> "
                   f"--seed {args.seed} --seconds {seconds} --trace 0",
        "protocol": f"Made by tools/bench_pairs.py against parent {parent_rev}. Each pair runs "
                    "the parent tree (a `git archive` copy) and the change tree back to back "
                    f"on seed {args.seed}, the parent first in odd pairs and second in even "
                    f"pairs: {order}, one run at a time. Only the result line (the last line "
                    "of standard output) of each run is kept in 'runs'.",
        "machine": {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
                    "numpy": version("numpy"), "scipy": version("scipy"), "blas_threads": 1},
        "claim": dict(zip(("workload", "metric"), args.claim.split(":"))) if args.claim else None,
        "summary": summarize(runs, benchmark["end_to_end"]),
        "runs": runs,
    }
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
