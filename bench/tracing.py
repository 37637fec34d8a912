"""Outside-in tracing of the hypdecomp layers.

The layers are the modules.  The tracer wraps their entry points from
outside the package and records one span ``[name, start, end, parent,
spec_id]`` per call in memory, plus counters read from arguments and
results at the same boundaries.  ``minkowski`` and ``decorations`` are
leaf helpers and are not wrapped, nor are hot helpers such as
``set_match`` and ``lorentz_inverse``: their cost shows in the self time
of their callers.

The package imports functions by name (``from .ep_hull import
hull_faces``), so a function is replaced at every module attribute that
holds it, not only where it is defined.  Methods are patched on their
classes.  Nothing is changed on disk.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
from collections import Counter, defaultdict

# Wrapped module functions: span name -> (module, attribute).
FUNCTIONS = {
    "io_cli.load_spec": ("io_cli", "load_spec"),
    "io_cli.run": ("io_cli", "run"),
    "io_cli.emit": ("io_cli", "emit"),
    "group.orbit": ("group", "orbit"),
    "group.validate_reflection": ("group", "validate_reflection"),
    "doubling.symmetrize": ("doubling", "symmetrize_decorations"),
    "doubling.wall_lifts": ("doubling", "wall_lifts"),
    "doubling.hull_symmetry": ("doubling", "check_hull_symmetry"),
    "doubling.quotient": ("doubling", "quotient_classify"),
    "ep_hull.hull_faces": ("ep_hull", "hull_faces"),
    "ep_hull.certified_faces": ("ep_hull", "certified_faces"),
    "ep_hull.stability": ("ep_hull", "stability_certificate"),
    "ep_hull.assemble": ("ep_hull", "assemble_decomposition"),
    "cutlocus.return_paths": ("cutlocus", "enumerate_return_paths"),
    "cutlocus.complex": ("cutlocus", "cut_locus_complex"),
    "cutlocus.vertex_enum": ("cutlocus", "_vertex_enumeration"),
    "cutlocus.dual": ("cutlocus", "dual_decomposition"),
    "cutlocus.cross_validate": ("cutlocus", "cross_validate"),
    "matching.find": ("matching", "find_group_element"),
}

# Methods patched on their classes: name -> (module, class, method, span?).
# Orientation tests and visibility tests are too frequent for a span
# each; they are counted only.
METHODS = {
    "group.word_ball": ("group", "GroupSpec", "word_ball", True),
    "hull.build": ("hull", "IncrementalHull", "__init__", True),
    "matching.classify": ("matching", "GammaClasses", "classify", True),
    "hull.orient_test": ("hull", "OrientPredicate", "sign", False),
    "hull.visibility_test": ("hull", "IncrementalHull", "_outside", False),
}

# Per-layer metric -> (unit, how it is derived).  "self:<span>" is the
# summed self time of the span, "calls:<source>" its call count,
# "count:<key>" a counter filled by the hooks below, "ratio:<a>/<b>"
# a quotient of two such values (0 when the base is 0).
METRICS = {
    "io_cli.load_spec_s": ("s", "self:io_cli.load_spec"),
    "io_cli.run_s": ("s", "self:io_cli.run"),
    "io_cli.emit_s": ("s", "self:io_cli.emit"),
    "group.word_ball_s": ("s", "self:group.word_ball"),
    "group.ball_elements": ("count", "count:ball_elements"),
    "group.orbit_s": ("s", "self:group.orbit"),
    "group.orbit_points": ("count", "count:orbit_points"),
    "group.orbit_yield": ("ratio", "ratio:orbit_points/orbit_candidates"),
    "group.validate_reflection_s": ("s", "self:group.validate_reflection"),
    "doubling.symmetrize_s": ("s", "self:doubling.symmetrize"),
    "doubling.wall_lifts_s": ("s", "self:doubling.wall_lifts"),
    "doubling.wall_lifts": ("count", "count:wall_lifts"),
    "doubling.hull_symmetry_s": ("s", "self:doubling.hull_symmetry"),
    "doubling.quotient_s": ("s", "self:doubling.quotient"),
    "hull.build_s": ("s", "self:hull.build"),
    "hull.builds": ("count", "calls:hull.build"),
    "hull.points": ("count", "count:hull_points"),
    "hull.facets": ("count", "count:hull_facets"),
    "hull.orient_tests": ("count", "calls:hull.orient_test"),
    "hull.exact_evals": ("count", "count:exact_evals"),
    "hull.exact_frac": ("ratio", "ratio:exact_evals/orient_tests"),
    "hull.visibility_tests": ("count", "calls:hull.visibility_test"),
    "ep_hull.hull_faces_s": ("s", "self:ep_hull.hull_faces"),
    "ep_hull.faces": ("count", "count:faces"),
    "ep_hull.certified_faces": ("count", "count:certified_faces"),
    "ep_hull.stability_s": ("s", "self:ep_hull.stability"),
    "ep_hull.assemble_s": ("s", "self:ep_hull.assemble"),
    "ep_hull.unpaired": ("count", "count:unpaired"),
    "cutlocus.return_paths_s": ("s", "self:cutlocus.return_paths"),
    "cutlocus.return_paths": ("count", "count:return_paths"),
    "cutlocus.complex_s": ("s", "self:cutlocus.complex"),
    "cutlocus.vertex_enum_s": ("s", "self:cutlocus.vertex_enum"),
    "cutlocus.vertex_enum_combos": ("count", "count:vertex_enum_combos"),
    "cutlocus.vertex_enum_yield": ("ratio",
                                   "ratio:vertex_enum_vertices/vertex_enum_combos"),
    "cutlocus.dual_s": ("s", "self:cutlocus.dual"),
    "cutlocus.cross_validate_s": ("s", "self:cutlocus.cross_validate"),
    "cutlocus.cv_max_deviation": ("coord", "count:cv_max_deviation"),
    "matching.find_calls": ("count", "calls:matching.find"),
    "matching.find_s": ("s", "self:matching.find"),
    "matching.find_hit_frac": ("ratio", "ratio:find_hits/find_calls"),
    "matching.classify_calls": ("count", "calls:matching.classify"),
}
OVERHEAD_METRIC = "trace.overhead_frac"


# Hooks: (counters, result, arguments by parameter name) -> None, run
# after the call returns.
def _after_word_ball(c, ball, a):
    c["ball_elements"] += len(ball)


def _after_orbit(c, points, a):
    c["orbit_points"] += len(points)
    # the ball is cached by now: no work and no span
    ball = a["g"].word_ball(a["word_bound"])
    c["orbit_candidates"] += len(ball) * len(a["g"].cusp_reps)


def _after_wall_lifts(c, lifts, a):
    c["wall_lifts"] += len(lifts)


def _after_hull(c, _none, a):
    hull = a["self"]
    c["hull_points"] += len(hull.points)
    c["hull_facets"] += len(hull.facets)
    c["exact_evals"] += hull.pred.exact_evals


def _after_hull_faces(c, faces, a):
    c["faces"] += len(faces)


def _after_certified(c, faces, a):
    c["certified_faces"] += len(faces)


def _after_assemble(c, dec, a):
    c["unpaired"] += len(dec.unpaired)


def _after_return_paths(c, paths, a):
    c["return_paths"] += len(paths)


def _after_vertex_enum(c, verts, a):
    c["vertex_enum_combos"] += math.comb(len(a["A"]), a["n"])
    c["vertex_enum_vertices"] += len(verts)


def _after_cross_validate(c, cv, a):
    # an early exit (cell counts differ) reports an infinite deviation
    if math.isfinite(cv.max_deviation):
        c["cv_max_deviation"] = max(c["cv_max_deviation"], cv.max_deviation)


def _after_find(c, M, a):
    c["find_hits"] += M is not None


def _uncached_ball(a):
    return a["word_bound"] not in a["self"]._ball_cache


HOOKS = {
    "group.word_ball": _after_word_ball,
    "group.orbit": _after_orbit,
    "doubling.wall_lifts": _after_wall_lifts,
    "hull.build": _after_hull,
    "ep_hull.hull_faces": _after_hull_faces,
    "ep_hull.certified_faces": _after_certified,
    "ep_hull.assemble": _after_assemble,
    "cutlocus.return_paths": _after_return_paths,
    "cutlocus.vertex_enum": _after_vertex_enum,
    "cutlocus.cross_validate": _after_cross_validate,
    "matching.find": _after_find,
}
# Only uncached word-ball builds do work worth a span.
CONDITIONS = {"group.word_ball": _uncached_ball}


def _modules():
    return {name: mod for name, mod in sys.modules.items()
            if name == "hypdecomp" or name.startswith("hypdecomp.")}


class Tracer:
    """Span and counter recorder for one process.

    ``install`` puts the wrappers in place and ``uninstall`` restores
    the original functions; spans and counters accumulate across
    installs until ``reset``.
    """

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, spec_id]
        self._stack = []
        self.calls = Counter()
        self.counters = defaultdict(int)
        self.spec_id = None
        self._original = {}
        self._restore = []

    def reset(self):
        self.spans = []
        self.calls = Counter()
        self.counters = defaultdict(int)

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, name, fn):
        hook = HOOKS.get(name)
        cond = CONDITIONS.get(name)
        bind = inspect.signature(fn).bind
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if cond is not None and not cond(bind(*args, **kwargs).arguments):
                return fn(*args, **kwargs)
            self.calls[name] += 1
            spans = self.spans
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.spec_id]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if hook is not None:
                hook(self.counters, result, bind(*args, **kwargs).arguments)
            return result
        return wrapper

    def _count_wrapper(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        if self._restore:
            raise RuntimeError("tracer is already installed")
        mods = _modules()
        rebinds = {}                  # id(original) -> (original, wrapper)
        for name, (mod, attr) in FUNCTIONS.items():
            fn = getattr(mods[f"hypdecomp.{mod}"], attr)
            self._original[name] = fn
            rebinds[id(fn)] = (fn, self._span_wrapper(name, fn))
        for m in mods.values():
            for attr, value in list(vars(m).items()):
                hit = rebinds.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((m, attr, value))
                    setattr(m, attr, hit[1])
        for name, (mod, cls_name, attr, span) in METHODS.items():
            cls = getattr(mods[f"hypdecomp.{mod}"], cls_name)
            fn = cls.__dict__[attr]
            self._original[name] = fn
            wrap = self._span_wrapper if span else self._count_wrapper
            self._restore.append((cls, attr, fn))
            setattr(cls, attr, wrap(name, fn))

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def unwrapped_sites(self) -> list:
        """Module attributes still bound to an original function."""
        originals = [fn for name, fn in self._original.items()
                     if name in FUNCTIONS]
        return [f"{mname}.{attr}" for mname, m in _modules().items()
                for attr, value in vars(m).items()
                if any(value is fn for fn in originals)]

    # -- derived metrics --------------------------------------------------

    def self_times(self) -> list:
        """Each span's duration minus the durations of its children."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def metrics(self) -> dict:
        """Per-layer metric values over everything recorded since reset."""
        own = self.self_times()
        by_name = defaultdict(float)
        for s, t in zip(self.spans, own):
            by_name[s[0]] += t
        values = dict(self.counters)
        values["orient_tests"] = self.calls["hull.orient_test"]
        values["find_calls"] = self.calls["matching.find"]
        out = {}
        for metric, (_unit, how) in METRICS.items():
            kind, _, arg = how.partition(":")
            if kind == "self":
                out[metric] = by_name[arg]
            elif kind == "calls":
                out[metric] = self.calls[arg]
            elif kind == "count":
                out[metric] = values.get(arg, 0)
            else:
                num, den = arg.split("/")
                den_value = values.get(den, 0)
                out[metric] = values.get(num, 0) / den_value if den_value else 0.0
        return out

    def self_sum_errors(self) -> list:
        """Top ``io_cli.run`` spans whose subtree self times miss its length.

        Children must nest inside their parent, so the self times of a
        run span and all spans below it add up to its duration; a
        negative self time or a gap means the span stack was corrupted.
        """
        own = self.self_times()
        total = defaultdict(float)
        root_of = []
        for i, s in enumerate(self.spans):
            p = s[3]
            root = i if p < 0 else root_of[p]
            root_of.append(root)
            total[root] += own[i]
        errors = []
        for i, s in enumerate(self.spans):
            if s[0] == "io_cli.run" and s[3] < 0:
                dur = s[2] - s[1]
                if abs(total[i] - dur) > 1e-9 * max(1.0, dur) * len(self.spans):
                    errors.append(f"{s[4]}: self times sum to {total[i]:.9f} s, "
                                  f"run span is {dur:.9f} s")
        if min(own, default=0.0) < -1e-9:
            errors.append("negative self time: spans overlap their parent")
        return errors

    def span_records(self) -> list:
        return [{"name": n, "start": a, "end": b, "parent": p, "spec_id": sid}
                for n, a, b, p, sid in self.spans]


# Spans that never run on once_punctured_torus: it has no reflections.
NOT_ON_TORUS = {"group.validate_reflection", "doubling.wall_lifts",
                "doubling.hull_symmetry"}


def selftest() -> list:
    """Trace once_punctured_torus and return the problems found.

    Every wrapped span and counter must fire (a wrapper that missed a
    by-name import site stays silent), every per-layer metric must be
    derived, the self times must add up to the run span, and the traced
    canonical JSON must equal the untraced one byte for byte.
    """
    from workloads import FIXTURES, ROOT
    from hypdecomp import io_cli

    path = FIXTURES / "once_punctured_torus.json"
    plain = io_cli.emit(io_cli.run(io_cli.load_spec(path)), "json")
    tracer = Tracer()
    tracer.install()
    try:
        problems = [f"not wrapped: {site}" for site in tracer.unwrapped_sites()]
        tracer.spec_id = "selftest"
        traced = io_cli.emit(io_cli.run(io_cli.load_spec(path)), "json")
    finally:
        tracer.uninstall()
    if traced != plain:
        problems.append("traced canonical JSON differs from the untraced one")
    for name in list(FUNCTIONS) + list(METHODS):
        if name in NOT_ON_TORUS:
            continue
        if tracer.calls[name] == 0:
            problems.append(f"{name} never called")
    declared = {m["name"] for m in
                json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    derived = set(tracer.metrics()) | {OVERHEAD_METRIC}
    problems += [f"metric {m} not derived" for m in sorted(declared - derived)]
    problems += [f"metric {m} not declared" for m in sorted(derived - declared)]
    problems += tracer.self_sum_errors()
    return problems
