#!/usr/bin/env python3
"""Failure counts of the benchmark's inputs, per workload and seed.

Runs every spec of every workload of ``bench/workloads.py`` once on
each input of seeds 0 to 6 (the shipped coordinates at seed 0, six
rotations at each other seed), and judges each run with the
benchmark's own ``Checker`` from ``bench/run.py``.  Prints one JSON
record per (workload, seed):

- ``failed``: operations (one spec on one input) that fail by the
  checker's rule: the run raised, or its report is not ok;
- ``failing_certificates``: certificates that read false, over the
  operations that did not raise;
- ``raised``: operations whose run or emit raised.

The benchmark counts an input that stops certifying at a rotated seed
as one more failure but still reads ``correct: true``; these counts
catch that.  Run from the repository root (about 25 s on one core of
a 2-core x86 host):

    python3 tools/verdict_counts.py > verdict-counts.json

Every count is deterministic at a given commit;
``tools/verdict_counts.json`` holds the committed values, and CI fails
when a count grows (``tools/check_counts.py``).
"""

import importlib.util
import json
import pathlib
import sys
import traceback

ROOT = pathlib.Path(__file__).resolve().parents[1]
SEEDS = range(7)

# bench/run.py pins BLAS to one thread before numpy is imported
_spec = importlib.util.spec_from_file_location("bench_run",
                                               ROOT / "bench" / "run.py")
bench_run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_run)
W = bench_run.W

sys.path.insert(0, str(ROOT / "src"))

from hypdecomp import io_cli  # noqa: E402


def record(workload, seed):
    """The counts of one workload over every input of one seed."""
    checker = bench_run.Checker(seed)
    for draw in range(W.input_count(seed)):
        for (fixture, overrides), path in zip(W.WORKLOADS[workload],
                                              W.spec_paths(workload, seed, draw)):
            label = W.spec_label(fixture, overrides)
            spec = W.apply_overrides(io_cli.load_spec(path), overrides)
            try:
                report = io_cli.run(spec)
                data = io_cli.emit(report, "json")
            except Exception:
                # a raised run is a failed operation; keep counting the rest
                print(f"{label} on input {draw} of seed {seed} raised:",
                      file=sys.stderr)
                traceback.print_exc()
                report = data = None
            checker.check(label, draw, report, data)
    verdicts = list(checker.verdicts.values())
    return {"run": f"{workload} seed={seed}",
            "failed": checker.failed,
            "failing_certificates": sum(list(v.values()).count(False)
                                        for v in verdicts if v is not None),
            "raised": verdicts.count(None)}


def main():
    print(json.dumps([record(w, seed) for seed in SEEDS for w in W.WORKLOADS],
                     indent=1))


if __name__ == "__main__":
    main()
