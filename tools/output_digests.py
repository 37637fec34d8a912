#!/usr/bin/env python3
"""SHA-256 of the canonical JSON and the verdicts of every benchmark input.

Runs every spec of every workload of ``bench/workloads.py`` once on each
input of seeds 0 to 12 (the shipped coordinates at seed 0, six rotations
at each other seed), then ``figure_eight_knot --height-bound 16`` and
``figure3_surface --height-bound 320`` on the shipped coordinates; the
knot at height 12 is a ``ladder`` spec, so it runs at every seed.  Prints
one JSON line per input: its name, the SHA-256 of its canonical
``--json`` bytes, ``ok`` and every certificate verdict, or the exception
it raised.  Last, it prints ``N inputs, K not ok, R raised`` to stderr.

``tools/output_digests.jsonl`` is the committed output, and CI fails
when a rerun differs from it by a byte.  A change that alters an output
on purpose re-records it, and the diff of that file shows every changed
byte and verdict:

    python3 tools/output_digests.py > tools/output_digests.jsonl

``--root`` names the checkout whose ``src/`` is run; the inputs always
come from this checkout's ``bench/workloads.py``:

    python3 tools/output_digests.py --root ../parent > parent.jsonl

A run takes 45 to 47 s (43 to 44 s of CPU) on one core of a 2-core x86
host.
"""

import argparse
import hashlib
import importlib.util
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
SEEDS = range(13)
EXTRAS = [("figure_eight_knot", {"height_bound": 16.0}),
          ("figure3_surface", {"height_bound": 320.0})]

# bench/run.py pins BLAS to one thread before numpy is imported
_spec = importlib.util.spec_from_file_location("bench_run",
                                               ROOT / "bench" / "run.py")
bench_run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_run)
W = bench_run.W


def digest(io_cli, name, path, overrides):
    """The output line of one spec on one input."""
    spec = W.apply_overrides(io_cli.load_spec(path), overrides)
    try:
        report = io_cli.run(spec)
        data = io_cli.emit(report, "json")
    except Exception as exc:
        return {"input": name, "raised": f"{type(exc).__name__}: {exc}"}
    return {"input": name, "sha256": hashlib.sha256(data).hexdigest(),
            "ok": bool(report.ok), "verdicts": W.verdicts(report)}


def inputs():
    """(name, input path, overrides) of every input, in a fixed order."""
    for seed in SEEDS:
        for workload, specs in W.WORKLOADS.items():
            for draw in range(W.input_count(seed)):
                paths = W.spec_paths(workload, seed, draw)
                for (fixture, overrides), path in zip(specs, paths):
                    yield (f"{workload} seed={seed} draw={draw} "
                           f"{W.spec_label(fixture, overrides)}",
                           path, overrides)
    for fixture, overrides in EXTRAS:
        yield (W.spec_label(fixture, overrides),
               W.FIXTURES / f"{fixture}.json", overrides)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=pathlib.Path, default=ROOT,
                    help="checkout whose src/ is run (default: this one)")
    args = ap.parse_args()
    sys.path.insert(0, str(args.root.resolve() / "src"))
    from hypdecomp import io_cli

    print(f"running {pathlib.Path(io_cli.__file__).parent}", file=sys.stderr)
    count = not_ok = raised = 0
    for name, path, overrides in inputs():
        line = digest(io_cli, name, path, overrides)
        print(json.dumps(line, sort_keys=True), flush=True)
        count += 1
        not_ok += line.get("ok") is False
        raised += "raised" in line
    print(f"{count} inputs, {not_ok} not ok, {raised} raised", file=sys.stderr)


if __name__ == "__main__":
    main()
