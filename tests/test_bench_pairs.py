"""tools/bench_pairs.py: the BENCH_<n>.json summary, checked against a file in the repo."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_summary_of_bench_26_runs_is_its_summary():
    # BENCH_26.json's summary came from its own runs before this tool existed: 10 clean
    # pairs (an even count, so the median interpolates) and 5 each of wideband and sweep.
    bench = json.loads((ROOT / "BENCH_26.json").read_text())
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert load_tool().summarize(bench["runs"], metrics) == bench["summary"]


def test_change_better_pairs_follows_the_metric_direction():
    def run(pair, side, value):
        return {"pair": pair, "side": side, "workload": "w",
                "result": {"metrics": {"m": {"value": value}}}}

    runs = [run(1, "parent", 1.0), run(1, "change", 2.0), run(2, "change", 1.0),
            run(2, "parent", 3.0), run(3, "parent", 2.0), run(3, "change", 2.0)]
    summarize = load_tool().summarize
    lower = summarize(runs, [{"name": "m", "better": "lower"}])["w"]["m"]
    higher = summarize(runs, [{"name": "m", "better": "higher"}])["w"]["m"]
    assert lower["parent"] == [1.0, 3.0, 2.0] and lower["change"] == [2.0, 1.0, 2.0]
    assert lower["change_better_pairs"] == 1 and higher["change_better_pairs"] == 1
    assert lower["parent_median"] == 2.0 and lower["parent_quartiles"] == [1.5, 2.5]
    assert lower["median_ratio"] == 1.0


def test_parent_is_required():
    # Without it, a committed change would be measured against itself.
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "bench_pairs.py"),
                           "--pairs", "wideband=2", "--out", "unused.json"],
                          cwd=ROOT, capture_output=True, text=True)
    assert proc.returncode == 2 and "--parent" in proc.stderr
