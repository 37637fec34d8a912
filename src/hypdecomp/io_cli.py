"""Manifold-spec ingestion, pipeline orchestration, JSON/SVG emission, CLI.

The input document carries generator and reflection matrices (row-major
Lorentz matrices), decorated cusp vectors and algorithm options; the
runner executes the hull pipeline, the cut-locus pipeline or both, plus
every certificate the construction depends on, and emits a canonical
JSON document (17 significant digits, sorted keys, no timing data) so
that identical specs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from .cutlocus import (CutComplex, complex_signature, cross_validate,
                       cut_locus_complex, dual_count_identity,
                       dual_decomposition, enumerate_return_paths,
                       pairs_within, return_pairs)
from .doubling import (ORTHO_TOL, MixedDecomposition, SymmetrizeError,
                       check_hull_symmetry, quotient_classify,
                       symmetrize_decorations)
from .ep_hull import (COPLANAR_TOL, assemble_decomposition, certified_faces,
                      hull_faces, stability_certificate)
from .group import (GroupSpec, OrbitSet, orbit, reflection_normal,
                    validate_group, validate_reflection)
from .matching import PAIR_TOL
from .minkowski import LIGHTLIKE_EPS, GeometryError, hyperboloid_to_klein

SCHEMA_VERSION = 1


class SpecError(ValueError):
    """Input document failed to parse or validate."""


@dataclass
class PipelineOptions:
    word_bound: int = 5
    height_bound: float = 30.0
    length_bound: float = 2.0
    margin: float = 1.0
    tol: float = 1e-7          # cross-validation matching tolerance
    algorithm: str = "both"
    exact: bool = False        # accepted for compatibility; selects nothing


# The tolerances the code reads, as declared in the JSON report; a run
# declares its own cross-validation tolerance in place of the default.
TOLERANCES = {
    "lightlike": LIGHTLIKE_EPS,
    "pair_match": PAIR_TOL,
    "coplanar_merge": COPLANAR_TOL,
    "orthogonality": ORTHO_TOL,
    "cross_validation": PipelineOptions.tol,
}


@dataclass
class ManifoldSpec:
    name: str
    group: GroupSpec
    options: PipelineOptions
    source: str = ""


@dataclass
class Certificate:
    ok: bool
    detail: str = ""


@dataclass
class RunReport:
    spec: ManifoldSpec
    certificates: dict
    mixed: MixedDecomposition = None
    ep_decomposition: object = None
    dual_decomposition: object = None
    cut_complex: CutComplex = None
    return_paths: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.certificates.values())


def load_spec(path) -> ManifoldSpec:
    """Parse and validate a manifold specification document."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SpecError(f"cannot read {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise SpecError(f"cannot decode {path} as UTF-8: {exc}")
    except json.JSONDecodeError as exc:
        raise SpecError(f"parse error in {path}, line {exc.lineno}, "
                        f"column {exc.colno}: {exc.msg}")
    return parse_spec(doc, source=str(path))


def parse_spec(doc: dict, source: str = "") -> ManifoldSpec:
    if not isinstance(doc, dict):
        raise SpecError("the spec must be a JSON object")
    for key in ("dimension", "generators", "cusps"):
        if key not in doc:
            raise SpecError(f"missing field '{key}'")
    n = doc["dimension"]
    if type(n) is not int or n not in (2, 3):
        raise SpecError(f"unsupported dimension {n} (pipelines cover n in {{2,3}})")
    options = doc.get("options", {})
    name = doc.get("name", "")
    if not isinstance(options, dict) or not isinstance(name, str):
        raise SpecError("options must be an object and name a string")
    for key in ("generators", "cusps", "reflections", "decoration_scales"):
        if not isinstance(doc.get(key, []), list):
            raise SpecError(f"{key} must be a list")
    scales = doc.get("decoration_scales")
    try:
        cusps = [np.asarray(c, dtype=float) for c in doc["cusps"]]
        generators = [np.asarray(m, dtype=float) for m in doc["generators"]]
        reflections = [np.asarray(m, dtype=float)
                       for m in doc.get("reflections", [])]
        # absent scales are ones, and x * 1.0 == x bit for bit
        scales = np.asarray([1.0] * len(cusps) if scales is None else scales,
                            dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SpecError(f"malformed numeric data: {exc}") from None
    if scales.shape != (len(cusps),):
        raise SpecError("decoration_scales length does not match cusps")
    cusps = [s * c for s, c in zip(scales, cusps)]
    group = GroupSpec(dimension=n, generators=generators,
                      reflections=reflections, cusp_reps=cusps, name=name)
    report = validate_group(group)
    if not report.ok:
        raise SpecError(f"invalid group data: {report}")
    opts = PipelineOptions()
    names = {f.name for f in fields(opts)}
    for key, value in options.items():
        if key not in names:
            raise SpecError(f"unknown option '{key}'")
        setattr(opts, key, value)
    check_options(opts)
    return ManifoldSpec(name=name, group=group, options=opts, source=source)


def _is_finite_number(x) -> bool:
    if isinstance(x, bool) or not isinstance(
            x, (int, float, np.integer, np.floating)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:       # an int beyond the float range
        return False


def check_options(opts: PipelineOptions) -> None:
    """Raise SpecError unless every option has a usable type and range."""
    if opts.algorithm not in ("ep", "cutlocus", "both"):
        raise SpecError(f"unknown algorithm '{opts.algorithm}'")
    wb = opts.word_bound
    if isinstance(wb, bool) or not isinstance(wb, (int, np.integer)) or wb < 0:
        raise SpecError(f"word_bound must be an integer >= 0, not {wb!r}")
    # an infinite bound or tolerance makes the certificates vacuous, and
    # the JSON report cannot hold inf or nan
    for key in ("height_bound", "length_bound", "tol"):
        value = getattr(opts, key)
        if not (_is_finite_number(value) and value > 0):
            raise SpecError(f"{key} must be a finite number > 0, not {value!r}")
    if not _is_finite_number(opts.margin):
        raise SpecError(f"margin must be a finite number, not {opts.margin!r}")
    if not isinstance(opts.exact, (bool, np.bool_)):
        raise SpecError(f"exact must be true or false, not {opts.exact!r}")


# ---------------------------------------------------------------------------
# Pipeline.
# ---------------------------------------------------------------------------

def run(spec: ManifoldSpec) -> RunReport:
    """Execute the requested pipelines with all their certificates."""
    g = spec.group
    opts = spec.options
    certs = {}

    report = validate_group(g)
    certs["group_valid"] = Certificate(report.ok, str(report))
    refl_ok = True
    details = []
    for i, tau in enumerate(g.reflections):
        ok = validate_reflection(tau, g, word_bound=4)
        refl_ok &= ok
        details.append(f"reflection {i}: {'certified' if ok else 'not certified'}")
    certs["reflection_conjugation"] = Certificate(refl_ok, "; ".join(details))

    try:
        gs = symmetrize_decorations(g, margin=opts.margin,
                                    word_bound=min(4, opts.word_bound),
                                    height_bound=opts.height_bound)
        certs["decoration_symmetry"] = Certificate(True)
    except SymmetrizeError as exc:
        certs["decoration_symmetry"] = Certificate(False, str(exc))
        return RunReport(spec=spec, certificates=certs)

    points = OrbitSet(orbit(gs, opts.word_bound, opts.height_bound))

    rep = RunReport(spec=spec, certificates=certs)
    ep_dec = None
    if opts.algorithm in ("ep", "both"):
        try:
            faces = hull_faces(points)
            cert = certified_faces(faces, opts.height_bound)
            stable = stability_certificate(gs, points, cert, opts.word_bound,
                                           opts.height_bound)
            certs["ep_stability"] = Certificate(
                stable, "" if stable else "face set changes under larger bounds")
            sym_ok = True
            sym_details = []
            for i, tau in enumerate(gs.reflections):
                srep = check_hull_symmetry(cert, points, tau, opts.height_bound)
                sym_ok &= srep.ok
                sym_details.append(f"wall {i}: {len(srep.unmatched)} unmatched, "
                                   f"{srep.checked} checked")
            certs["hull_symmetry"] = Certificate(sym_ok, "; ".join(sym_details))
            ep_dec = assemble_decomposition(cert, gs, points, opts.word_bound,
                                            all_faces=faces)
            certs["ep_pairings_complete"] = Certificate(
                not ep_dec.unpaired, f"{len(ep_dec.unpaired)} unpaired facets")
            rep.ep_decomposition = ep_dec
        except GeometryError as exc:
            certs["ep_stability"] = Certificate(False, f"hull stage failed: {exc}")

    dual_dec = None
    if opts.algorithm in ("cutlocus", "both"):
        try:
            # one pair list, at twice the bound, in orbit order; both
            # complexes take their fences in that order, the kept one the
            # pairs within the bound, which only the report classifies
            pairs2 = return_pairs(gs, 2.0 * opts.length_bound, points)
            pairs = pairs_within(pairs2, opts.length_bound)
            paths = enumerate_return_paths(pairs, gs, opts.word_bound)
            cx = cut_locus_complex(pairs, gs, opts.word_bound, points=points)
            cx2 = cut_locus_complex(pairs2, gs, opts.word_bound, points=points)
            stable = complex_signature(cx) == complex_signature(cx2)
            certs["cutlocus_stability"] = Certificate(
                stable, "" if stable else "complex changes when the length "
                                          "bound doubles")
            dual_dec = dual_decomposition(cx, gs, opts.word_bound)
            counts = dual_count_identity(cx, dual_dec)
            identity_ok = all(a == b for a, b in counts.values())
            certs["dual_count_identity"] = Certificate(identity_ok, str(counts))
            rep.return_paths = paths
            rep.cut_complex = cx
            rep.dual_decomposition = dual_dec
        except GeometryError as exc:
            certs["cutlocus_stability"] = Certificate(
                False, f"cut locus stage failed: {exc}")

    if opts.algorithm == "both" and ep_dec is not None and dual_dec is not None:
        cv = cross_validate(ep_dec, dual_dec, gs, opts.word_bound,
                            tol=opts.tol)
        certs["cross_validation"] = Certificate(cv.ok, cv.detail)

    base = ep_dec if ep_dec is not None else dual_dec
    if base is not None:
        mixed = quotient_classify(base, gs, opts.word_bound)
        certs["quotient_consistent"] = Certificate(
            mixed.ok and not mixed.unpaired,
            "; ".join(str(e) for e in mixed.errors)
            + (f"; {len(mixed.unpaired)} unpaired quotient facets"
               if mixed.unpaired else ""))
        rep.mixed = mixed
    return rep


# ---------------------------------------------------------------------------
# Emission.
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    raise TypeError(f"unsupported scalar {type(x)}")


def _canonical_json(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        items = sorted(obj.items())
        inner = ",".join(f"{json.dumps(k)}:{_canonical_json(v)}" for k, v in items)
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_canonical_json(v) for v in obj) + "]"
    if isinstance(obj, np.ndarray):
        return _canonical_json(obj.tolist())
    return _fmt(obj)


def _cell_doc(mc) -> dict:
    doc = {
        "kind": mc.kind,
        "ideal_vertices": mc.klein_vertices.tolist(),
        "hyperideal_vertex": None,
        "external_face": None,
        "wall_orbit": mc.wall_orbit if mc.kind == "truncated" else None,
    }
    if mc.kind == "truncated":
        hv = mc.hyperideal_vertex
        doc["hyperideal_vertex"] = {
            "homogeneous": hv.vector.tolist(),
            "klein": None if hv.at_infinity else hv.klein.tolist(),
        }
        doc["external_face"] = [
            (p[1:] / p[0]).tolist() for p in mc.external_face]
    return doc


def emit(report: RunReport, fmt: str) -> bytes:
    """Serialize a run report; JSON for any n, SVG for n = 2 only."""
    if fmt == "json":
        opts = report.spec.options
        doc = {
            "schema": SCHEMA_VERSION,
            "name": report.spec.name,
            "dimension": report.spec.group.dimension,
            "algorithm": opts.algorithm,
            "options": {
                "word_bound": opts.word_bound,
                "height_bound": opts.height_bound,
                "length_bound": opts.length_bound,
                "margin": opts.margin,
                "tol": opts.tol,
                "exact": opts.exact,
            },
            "tolerances": {**TOLERANCES, "cross_validation": opts.tol},
            "certificates": {k: {"ok": c.ok, "detail": c.detail}
                             for k, c in report.certificates.items()},
            "cells": [],
            "pairings": [],
        }
        if report.mixed is not None:
            doc["cells"] = [_cell_doc(mc) for mc in report.mixed.cells]
            doc["pairings"] = [
                {"source": list(src), "target": list(tgt),
                 "matrix": M.tolist()}
                for src, (tgt, M) in sorted(report.mixed.pairings.items())]
        return (_canonical_json(doc) + "\n").encode()
    if fmt == "svg":
        if report.spec.group.dimension != 2:
            raise SpecError("SVG output is only available for n = 2")
        return _emit_svg(report)
    raise SpecError(f"unknown output format '{fmt}'")


def _emit_svg(report: RunReport) -> bytes:
    mixed = report.mixed
    segments = {}

    def add(a, b, style):
        key = tuple(sorted([tuple(np.round(a, 9)), tuple(np.round(b, 9))]))
        if key not in segments or style == "external":
            segments[key] = (a, b, style)

    if mixed is not None:
        for mc in mixed.cells:
            for facet in mc.internal_facets:
                pts = [hyperboloid_to_klein(p) for p in facet]
                if len(pts) == 2:
                    add(pts[0], pts[1], "internal")
            if mc.kind == "truncated" and len(mc.external_face) == 2:
                a, b = (hyperboloid_to_klein(p) for p in mc.external_face)
                add(a, b, "external")
    walls = []
    for tau in report.spec.group.reflections:
        u = reflection_normal(tau)
        us, u0 = u[1:], u[0]
        nu = np.linalg.norm(us)
        c = u0 / nu
        if abs(c) < 1.0:
            mid = c * us / nu
            perp = np.array([-us[1], us[0]]) / nu
            t = np.sqrt(1.0 - c * c)
            walls.append((mid - t * perp, mid + t * perp))

    lines = ['<?xml version="1.0" encoding="UTF-8"?>',
             '<svg xmlns="http://www.w3.org/2000/svg" viewBox="-1.1 -1.1 2.2 2.2">',
             '<circle cx="0" cy="0" r="1" fill="none" stroke="black" '
             'stroke-width="0.005"/>']
    for a, b in walls:
        lines.append(f'<line x1="{a[0]:.6f}" y1="{a[1]:.6f}" x2="{b[0]:.6f}" '
                     f'y2="{b[1]:.6f}" stroke="#999999" stroke-width="0.004" '
                     'stroke-dasharray="0.02,0.02" class="wall"/>')
    for key in sorted(segments):
        a, b, style = segments[key]
        if style == "external":
            stroke, width = "#cc0000", 0.012
        else:
            stroke, width = "#2255cc", 0.006
        lines.append(f'<line x1="{a[0]:.6f}" y1="{a[1]:.6f}" x2="{b[0]:.6f}" '
                     f'y2="{b[1]:.6f}" stroke="{stroke}" '
                     f'stroke-width="{width}" class="{style}"/>')
    lines.append("</svg>")
    return ("\n".join(lines) + "\n").encode()


# ---------------------------------------------------------------------------
# CLI.
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hypdecomp",
        description="Canonical decompositions of cusped hyperbolic manifolds "
                    "with totally geodesic boundary")
    parser.add_argument("--input", required=True, help="manifold spec (JSON)")
    parser.add_argument("--algorithm", choices=["ep", "cutlocus", "both"])
    parser.add_argument("--word-bound", type=int)
    parser.add_argument("--height-bound", type=float)
    parser.add_argument("--length-bound", type=float)
    parser.add_argument("--margin", type=float)
    parser.add_argument("--tol", type=float)
    parser.add_argument("--json", dest="json_path", help="write JSON report")
    parser.add_argument("--svg", dest="svg_path", help="write SVG (n = 2 only)")
    parser.add_argument("--exact", action="store_true",
                        help="accepted for compatibility and echoed in the "
                             "report; every hull test is exact")
    args = parser.parse_args(argv)

    try:
        spec = load_spec(args.input)
        for key in ("algorithm", "word_bound", "height_bound",
                    "length_bound", "margin", "tol"):
            val = getattr(args, key)
            if val is not None:
                setattr(spec.options, key, val)
        if args.exact:
            spec.options.exact = True
        check_options(spec.options)
        if args.svg_path and spec.group.dimension != 2:
            raise SpecError("SVG output is only available for n = 2")
    except SpecError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 3

    report = run(spec)
    for name in sorted(report.certificates):
        cert = report.certificates[name]
        status = "ok" if cert.ok else "FAIL"
        detail = f"  ({cert.detail})" if cert.detail and not cert.ok else ""
        print(f"[{status}] {name}{detail}")
    if report.mixed is not None:
        kinds = [mc.kind for mc in report.mixed.cells]
        print(f"cells: {len(kinds)} "
              f"({kinds.count('ideal')} ideal, {kinds.count('truncated')} truncated)")

    if args.json_path:
        with open(args.json_path, "wb") as fh:
            fh.write(emit(report, "json"))
    if args.svg_path:
        with open(args.svg_path, "wb") as fh:
            fh.write(emit(report, "svg"))
    return 0 if report.ok else 2


if __name__ == "__main__":
    sys.exit(main())
