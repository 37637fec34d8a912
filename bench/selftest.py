#!/usr/bin/env python3
"""Check the tracing harness on once_punctured_torus.

    python3 bench/selftest.py

Exits 0 and prints "ok" when every wrapper fires, every declared
per-layer metric is derived, the self times add up to the run span and
the traced canonical JSON equals the untraced one; otherwise prints
each problem and exits 1.
"""

import os

# The benchmark's BLAS set-up.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
import tracing  # noqa: E402
import workloads as W  # noqa: E402


def main() -> int:
    sys.path.insert(0, str(W.SRC))
    problems = tracing.selftest()
    for p in problems:
        print(p)
    print("ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
