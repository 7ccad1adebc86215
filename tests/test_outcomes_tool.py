"""tools/outcomes.py: a CSV it writes compares equal to a rerun, and an edited row shows."""

import csv
import importlib.util
import os
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def tool():
    """The tool as a module. Loading it puts src/ and bench/ on sys.path and pins the
    BLAS thread variables; both are restored afterwards."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "path", list(sys.path))
        mp.setattr(os, "environ", os.environ.copy())
        spec = importlib.util.spec_from_file_location("outcomes", ROOT / "tools" / "outcomes.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


@pytest.fixture
def small_clean(tool, monkeypatch):
    """The `clean` pool cut to 4 instances, the first 2 also scanned uncapped."""
    monkeypatch.setitem(tool.WORKLOADS, "clean", replace(tool.WORKLOADS["clean"], pool=4))
    monkeypatch.setattr(tool, "UNCAPPED", 2)


def test_compare_against_its_own_csv_then_an_edited_status(tool, small_clean, tmp_path,
                                                           monkeypatch, capsys):
    path = tmp_path / "old.csv"
    monkeypatch.setattr(sys, "argv", ["outcomes.py", "--workloads", "clean", "--seeds", "1",
                                      "--out", str(path)])
    assert tool.main() == 0
    rows = list(tool.run(["clean"], [1]))
    assert [(r["index"], r["scan"]) for r in rows] == [
        (0, "K"), (0, "all"), (1, "K"), (1, "all"), (2, "K"), (3, "K")]
    capsys.readouterr()
    assert tool.compare(rows, str(path)) == 0
    assert "0 of 6 rows differ" in capsys.readouterr().out

    with open(path, newline="") as fh:
        old = list(csv.DictReader(fh))
    assert old[2]["scan"] == "K" and old[2]["status"] == "converged"
    old[2]["status"] = "max_iter"
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=tool.COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(old)
    assert tool.compare(rows, str(path)) == 1
    out = capsys.readouterr().out
    assert out.startswith("clean,1,1,K: {") and out.count(": {") == 1
    assert "1 of 6 rows differ" in out
    assert "  status: 1\n" in out and "  phase1_sha256: 0\n" in out
    assert "  max_iter -> converged: 1\n" in out
