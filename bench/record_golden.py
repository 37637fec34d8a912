#!/usr/bin/env python3
"""Record the correctness references of every workload spec in golden.json.

    python3 bench/record_golden.py           # show what would change
    python3 bench/record_golden.py --write   # rewrite golden.json

Runs each distinct spec once at seed 0 and stores its verdicts, the
rotation-invariant signature of its decomposition and, when it
certifies, the SHA-256 of its canonical JSON.  Re-record only on
purpose, when a change is meant to alter an output, and say so.
"""

import os

# The benchmark's BLAS set-up, so the recorded hashes are made under the
# conditions they are checked in.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads as W  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--write", action="store_true",
                        help="rewrite golden.json instead of only comparing")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(W.SRC))
    from hypdecomp import io_cli

    specs = {}
    for workload in W.WORKLOADS.values():
        for fixture, overrides in workload:
            label = W.spec_label(fixture, overrides)
            if label in specs:
                continue
            spec = W.apply_overrides(
                io_cli.load_spec(W.FIXTURES / f"{fixture}.json"), overrides)
            report = io_cli.run(spec)
            entry = {"certifies": report.ok, "verdicts": W.verdicts(report),
                     "signature": W.signature(report)}
            if report.ok:
                entry["sha256"] = W.json_sha256(io_cli.emit(report, "json"))
            specs[label] = entry
            failing = [k for k, ok in entry["verdicts"].items() if not ok]
            print(f"{label}: " + ("certifies" if report.ok
                                  else "fails " + ", ".join(failing)))

    old = W.load_golden()["specs"] if W.GOLDEN.exists() else {}
    for label in sorted(set(old) | set(specs)):
        if old.get(label) != specs.get(label):
            print(f"changed: {label}")
    if args.write:
        W.GOLDEN.write_text(json.dumps({"specs": specs}, indent=1, sort_keys=True)
                            + "\n")
        print(f"wrote {W.GOLDEN.relative_to(W.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
