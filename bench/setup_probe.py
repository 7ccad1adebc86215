"""One cold set-up: import superres, then build both Slepian kernels.

`measure_setup` must run before anything in the process has imported numpy,
so that the import time it reports is what a fresh `superres` process pays.
run.py calls it once in its own process and starts this file as a script for
every further sample, because an interpreter imports a package only once.

    python3 bench/setup_probe.py --fc 50 --c1 1.5 --c2 2.25
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def measure_setup(f_c: int, c1: float, c2: float):
    """Time `import superres` and two cold `build_kernel` calls.

    Returns the sample (seconds for the import, milliseconds per kernel, and
    the perf_counter stamps) and the two kernels.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    superres = importlib.import_module("superres")
    t1 = time.perf_counter()
    kernel1 = superres.build_kernel(f_c, c1)
    t2 = time.perf_counter()
    kernel2 = superres.build_kernel(f_c, c2)
    t3 = time.perf_counter()
    sample = {
        "import_s": t1 - t0,
        "build_kernel_ms.c1": 1e3 * (t2 - t1),
        "build_kernel_ms.c2": 1e3 * (t3 - t2),
        "setup_s": t3 - t0,
        "stamps": [t0, t1, t2, t3],
    }
    return sample, kernel1, kernel2


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("--fc", type=int, required=True)
    p.add_argument("--c1", type=float, required=True)
    p.add_argument("--c2", type=float, required=True)
    args = p.parse_args()
    sample, _, _ = measure_setup(args.fc, args.c1, args.c2)
    print(json.dumps(sample))


if __name__ == "__main__":
    main()
