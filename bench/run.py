#!/usr/bin/env python3
"""Time to a certified decomposition, end to end and per layer.

    python3 bench/run.py --workload surfaces --seed 0 --seconds 36 --trace 0

Run it from the root of a source checkout: the package is imported from
``src/`` and nothing is installed.  One process runs one workload as a
closed loop with one client.  A pass loads every spec of the workload,
then runs ``io_cli.run`` and ``io_cli.emit(report, "json")`` on each
spec in turn.  Passes repeat until every input of the seed has run
and the time budget is spent.  BLAS is
pinned to one thread.  Every output is checked against ``golden.json``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the
traced ones.  The spans go to ``.bench_work/`` at exit.  The last line
of standard output is one JSON object; see README.md.
"""

import os

# Pinned before numpy is imported: one client, one BLAS thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
import numpy as np  # noqa: E402
import workloads as W  # noqa: E402

SETUP_REPS = 5

# Machine-speed calibration.  The machine is shared: its speed drifts by
# up to half between periods of seconds to minutes, and that drift
# swamps the differences a benchmark has to resolve.  A fixed loop with
# the package's own mix of small-matrix numpy calls and dictionary work
# is timed before and after every measured span, and the span is scaled
# by CAL_NOMINAL / (mean loop time), giving seconds at the nominal speed.
# CAL_NOMINAL is the loop's time on an unloaded 2.1 GHz x86 core.
CAL_NOMINAL = 0.025
CAL_MATRIX = np.array([[1.0, 0.1, 0.0, 0.0], [0.1, 1.0, 0.0, 0.0],
                       [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])


def calibrate() -> float:
    """Seconds the calibration loop takes right now."""
    t0 = time.perf_counter()
    a = np.eye(4)
    seen = {}
    for i in range(3000):
        a = a @ CAL_MATRIX
        a /= a[0, 0]
        seen[np.round(a, 8).tobytes()] = i
    s = 0
    for i in range(60000):
        seen[(i * 7919) % 1009] = s
        s += i * i % 13
    return time.perf_counter() - t0


def scaled(wall: float, cal_before: float, cal_after: float) -> float:
    return wall * CAL_NOMINAL / (0.5 * (cal_before + cal_after))


# Set-up as a user pays it: a fresh interpreter imports the package and
# loads every spec of the workload.
PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from hypdecomp import io_cli
for path in sys.argv[2:]:
    io_cli.load_spec(path)
print(time.perf_counter() - t0)
"""


def measure_setup(paths) -> list:
    """Scaled set-up seconds of SETUP_REPS fresh interpreters."""
    times = []
    cal = calibrate()
    for _ in range(SETUP_REPS):
        out = subprocess.run([sys.executable, "-c", PROBE, str(W.SRC),
                              *map(str, paths)],
                             capture_output=True, text=True, check=True,
                             timeout=120)
        after = calibrate()
        times.append(scaled(float(out.stdout.split()[-1]), cal, after))
        cal = after
    return times


class Checker:
    """Compares every output with the references in golden.json.

    Seed 0 must reproduce the recorded canonical JSON byte for byte for
    every spec that certifies, and the recorded verdicts for every spec.
    A rotated seed must reproduce the seed-0 cells and pairings whenever
    it certifies; a verdict that differs from seed 0 there is reported
    and counted as a failure, not as a wrong output.

    An operation is one spec on one input (one rotation).  Later passes
    run the same operations again and must reproduce their verdicts, so
    ``attempted`` and ``failed`` count each operation once and depend on
    the seed alone, not on how many passes fit in the time.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self.golden = W.load_golden()["specs"]
        self.verdicts = {}           # (label, draw) -> verdicts, None if raised
        self.failing = set()         # (label, draw) that raised or failed
        self.mismatched = set()      # specs whose certified output differs
        self.changed = set()         # seed 0: verdicts differ from the record
        self.notes = []

    def _note(self, text):
        if text not in self.notes:
            self.notes.append(text)

    @property
    def attempted(self) -> int:
        return len(self.verdicts)

    @property
    def failed(self) -> int:
        return len(self.failing)

    def check(self, label, draw, report, data):
        key = (label, draw)
        ref = self.golden[label]
        got = None if report is None else W.verdicts(report)
        if key in self.verdicts and self.verdicts[key] != got:
            self.mismatched.add(label)
            self._note(f"{label}: verdicts differ between passes on input "
                       f"{draw}")
        self.verdicts.setdefault(key, got)
        if report is None:
            self.failing.add(key)
            self._note(f"{label}: raised")
            return
        if not report.ok:
            self.failing.add(key)
        changes = [f"{k} {ref['verdicts'].get(k)} -> {got.get(k)}"
                   for k in sorted(set(got) | set(ref["verdicts"]))
                   if got.get(k) != ref["verdicts"].get(k)]
        if changes:
            self._note(f"{label}: verdict change against seed 0: "
                       + "; ".join(changes))
            if self.seed == 0:
                self.changed.add(label)
        if self.seed == 0:
            if ref["certifies"] and W.json_sha256(data) != ref["sha256"]:
                self.mismatched.add(label)
                self._note(f"{label}: canonical JSON differs from the golden hash")
        elif report.ok:
            diff = W.signature_diff(ref["signature"], W.signature(report))
            if diff:
                self.mismatched.add(label)
                self._note(f"{label}: differs from seed 0: " + "; ".join(diff))

    @property
    def correct(self) -> bool:
        return not self.mismatched and not self.changed


def run_pass(args, draw, checker, tracer=None):
    """One closed-loop pass over the workload, on the draw-th inputs.

    ``draw`` is taken modulo the number of inputs of the seed.

    Returns, per spec label, the run+emit wall seconds with the
    calibration times around them, and the spec's canonical JSON.
    """
    from hypdecomp import io_cli

    workload = args.workload
    draw %= W.input_count(args.seed)
    paths = W.spec_paths(workload, args.seed, draw)
    records = {}
    outputs = {}
    cal = calibrate()
    for (fixture, overrides), path in zip(W.WORKLOADS[workload], paths):
        label = W.spec_label(fixture, overrides)
        if tracer is not None:
            tracer.spec_id = f"draw{draw}/{label}"
        spec = W.apply_overrides(io_cli.load_spec(path), overrides)
        gc.collect()
        t0 = time.perf_counter()
        try:
            report = io_cli.run(spec)
            data = io_cli.emit(report, "json")
        except Exception:
            # a spec that raises is a failed request; keep serving the rest
            traceback.print_exc()
            report = data = None
        wall = time.perf_counter() - t0
        after = calibrate()
        records[label] = {"wall": wall, "cal": [cal, after]}
        cal = after
        checker.check(label, draw, report, data)
        outputs[label] = data
    return records, outputs


def pass_seconds(records) -> float:
    """Scaled run+emit seconds of one pass."""
    return sum(scaled(r["wall"], *r["cal"]) for r in records.values())


def pass_wall(records) -> float:
    return sum(r["wall"] for r in records.values())


def write_work(name, obj) -> Path:
    path = W.WORK / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj))
    return path


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def untraced(args, checker):
    setup = measure_setup(W.spec_paths(args.workload, args.seed))
    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        records, _ = run_pass(args, len(passes), checker)
        passes.append(records)
        # every input is run at least once, then passes fill the time
        if (len(passes) >= W.input_count(args.seed)
                and time.perf_counter() - start
                + time.perf_counter() - t0 > args.seconds):
            break
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    write_work(f"passes-{args.workload}-seed{args.seed}.json", passes)
    solve = [pass_seconds(r) for r in passes]
    lo, hi = quartiles(solve)
    print(f"setup_s       {statistics.median(setup):.4f} s      "
          f"median of {len(setup)} fresh interpreters")
    print(f"solve_s       {statistics.median(solve):.4f} s      "
          f"median of {len(solve)} passes, quartiles {lo:.4f} / {hi:.4f}; "
          f"unscaled wall median "
          f"{statistics.median(pass_wall(r) for r in passes):.4f} s")
    print(f"fail_frac     {checker.failed / checker.attempted:.4f} ratio  "
          f"{checker.failed} of {checker.attempted} specs x inputs, "
          f"{sum(map(len, passes))} spec runs")
    print(f"json_mismatch {len(checker.mismatched)} count")
    print(f"peak_rss_mb   {rss:.1f} MB")
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "solve_s": {"value": statistics.median(solve), "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }


def traced(args, checker):
    import tracing as T

    problems = [f"self-test: {p}" for p in T.selftest()]
    tracer = T.Tracer()
    plain, timed, layers, spans = [], [], [], []
    last_plain = {}
    start = time.perf_counter()
    i = 0
    while True:
        t0 = time.perf_counter()
        if i % 2 == 0:
            records, last_plain = run_pass(args, i // 2, checker)
            plain.append(pass_seconds(records))
        else:
            tracer.reset()
            tracer.install()
            try:
                records, outputs = run_pass(args, i // 2, checker, tracer)
            finally:
                tracer.uninstall()
            timed.append(pass_seconds(records))
            layers.append(tracer.metrics())
            problems += tracer.self_sum_errors()
            spans += tracer.span_records()
            problems += [f"{label}: traced JSON differs from untraced"
                         for label, data in outputs.items()
                         if data != last_plain.get(label)]
        i += 1
        # every input is run untraced and traced, then passes fill the time
        if (i >= 2 * W.input_count(args.seed)
                and time.perf_counter() - start
                + time.perf_counter() - t0 > args.seconds):
            break
    out_path = write_work(f"trace-{args.workload}-seed{args.seed}.json", spans)
    metrics = {}
    for name, (unit, _) in T.METRICS.items():
        value = statistics.median(m[name] for m in layers)
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:30s} {value:.6g} {unit}")
    overhead = statistics.median(timed) / statistics.median(plain) - 1.0
    metrics[T.OVERHEAD_METRIC] = {"value": overhead, "unit": "ratio"}
    print(f"{T.OVERHEAD_METRIC:30s} {overhead:.4f} ratio  "
          f"({len(timed)} traced, {len(plain)} untraced passes)")
    print(f"spans: {len(spans)} written to {out_path.relative_to(W.ROOT)}")
    for p in problems:
        print(f"trace problem: {p}", file=sys.stderr)
    return metrics, not problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    if not (W.SRC / "hypdecomp" / "__init__.py").is_file():
        print(f"error: no hypdecomp sources under {W.SRC}; run from the "
              "root of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(W.SRC))
    checker = Checker(args.seed)
    if args.trace:
        metrics, trace_ok = traced(args, checker)
    else:
        metrics, trace_ok = untraced(args, checker), True
    for note in checker.notes:
        print(f"note: {note}")
    print(json.dumps({"correct": checker.correct and trace_ok,
                      "attempted": checker.attempted,
                      "failed": checker.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
