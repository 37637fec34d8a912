"""Workload definitions, seeded inputs and the correctness references.

A workload is a list of specs: a shipped fixture plus the option
overrides a user would pass on the command line.  Seed 0 runs the
shipped coordinates unchanged.  Seed k > 0 conjugates generators,
reflections and cusps by spatial rotations diag(1, Q), with Q from the
QR factorization of Gaussian matrices drawn from
``numpy.random.default_rng(k)``.  A run uses the first ROTATIONS draws,
pass j the (j mod ROTATIONS)-th, so it covers several rotations and one
rotation that happens to need more work does not decide its median.
The set of inputs of a run, and so which of them fail, depends on the
seed alone, not on how many passes fit in the time.  Every height x0
stays the same, so the bounds select the same orbit, and the
decomposition must agree with seed 0 up to the isometry.  Rotated
outputs are therefore compared by a rotation-invariant signature,
shipped ones by the SHA-256 of their canonical JSON.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
FIXTURES = SRC / "hypdecomp" / "fixtures"
GOLDEN = BENCH_DIR / "golden.json"
WORK = ROOT / ".bench_work"

# Rotations per run at seed k > 0; seed 0 has the one identity.  Six
# are enough that no single costly rotation decides the median of a
# ladder run, and few enough that a ladder run stays under a minute.
ROTATIONS = 6


def input_count(seed: int) -> int:
    """Distinct inputs per spec in a run of the seed."""
    return ROTATIONS if seed else 1


# (fixture, option overrides); overrides use the CLI's option names.
WORKLOADS = {
    # 2-D user traffic at the shipped bounds: group, matching, doubling
    # and the ep_hull stability rebuild dominate; the R^3 hull is small.
    "surfaces": [
        ("thrice_punctured_sphere", {}),
        ("once_punctured_torus", {}),
        ("figure3_surface", {}),
    ],
    # One 3-D manifold, with the float-filtered and the always-exact
    # orientation predicate: the R^4 hull and the cut-locus vertex
    # enumeration dominate; group and doubling do almost nothing.
    "knot": [
        ("figure_eight_knot", {"exact": False}),
        ("figure_eight_knot", {"exact": True}),
    ],
    # Larger bounds, the remedy a user reaches for when a certificate
    # fails.  On the shipped coordinates the last rung fails
    # dual_count_identity and cross_validation (ROADMAP open item 1);
    # it stays and is counted as a failure.
    "ladder": [
        ("thrice_punctured_sphere", {"word_bound": 8}),
        ("once_punctured_torus", {"word_bound": 8}),
        ("figure_eight_knot", {"height_bound": 12.0}),
    ],
}


def spec_label(fixture: str, overrides: dict) -> str:
    """CLI-style name of a spec, e.g. ``figure_eight_knot --exact``."""
    parts = [fixture]
    for key, value in sorted(overrides.items()):
        if key == "exact":
            if value:
                parts.append("--exact")
        else:
            parts.append(f"--{key.replace('_', '-')} {value:g}")
    return " ".join(parts)


def rotation(dimension: int, seed: int, draw: int = 0) -> np.ndarray:
    """diag(1, Q) for the draw-th rotation of the seed; seed 0 is the identity."""
    R = np.eye(dimension + 1)
    if seed:
        rng = np.random.default_rng(seed)
        for _ in range(draw + 1):
            Q, _ = np.linalg.qr(rng.standard_normal((dimension, dimension)))
        R[1:, 1:] = Q
    return R


def conjugate_doc(doc: dict, seed: int, draw: int = 0) -> dict:
    """The spec document moved by the rotation R of (seed, draw).

    Matrices become R A R^T (R^T = R^-1 for diag(1, Q)) and cusps R p.
    """
    R = rotation(doc["dimension"], seed, draw)
    out = dict(doc)
    for key in ("generators", "reflections"):
        out[key] = [(R @ np.asarray(A, float) @ R.T).tolist()
                    for A in doc.get(key, [])]
    out["cusps"] = [(R @ np.asarray(p, float)).tolist() for p in doc["cusps"]]
    return out


def spec_paths(workload: str, seed: int, draw: int = 0) -> list:
    """Input file of every spec of the workload for one pass.

    Seed 0 reads the shipped fixtures; other seeds write the documents
    rotated by the draw-th rotation under the work directory first.
    """
    paths = []
    for fixture, _ in WORKLOADS[workload]:
        path = FIXTURES / f"{fixture}.json"
        if seed:
            doc = conjugate_doc(json.loads(path.read_text()), seed, draw)
            path = WORK / f"seed{seed}" / f"{fixture}-{draw}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(doc))
        paths.append(path)
    return paths


def apply_overrides(spec, overrides: dict):
    for key, value in overrides.items():
        setattr(spec.options, key, value)
    return spec


def verdicts(report) -> dict:
    return {name: bool(c.ok) for name, c in sorted(report.certificates.items())}


def json_sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def signature(report) -> dict:
    """Rotation-invariant summary of the decomposition of a run.

    Cell kinds, vertex counts and the sorted Lorentz Gram matrix of each
    quotient cell's decorated vertices, and the pairing count; verdicts
    are compared separately.  Gram entries are invariant under every
    Lorentz isometry, so the choice of cell representative does not
    matter either.
    """
    from hypdecomp.minkowski import lorentz_gram

    cells = []
    pairings = 0
    if report.mixed is not None:
        for mc in report.mixed.cells:
            V = np.asarray(mc.ambient_vertices, float)
            gram = np.sort(lorentz_gram(V, V).ravel())
            cells.append([mc.kind, len(V), [float(f"{x:.12g}") for x in gram]])
        cells.sort(key=lambda c: (c[0], c[1], c[2]))
        pairings = len(report.mixed.pairings)
    return {"cells": cells, "pairings": pairings}


# Gram entries agree when they differ by at most this share of the
# largest one: rotations move coordinates by a few ulps, not by this.
GRAM_REL_TOL = 1e-6


def signature_diff(ref: dict, got: dict) -> list:
    """Differences between two signatures, empty when they agree."""
    out = []
    if ref["pairings"] != got["pairings"]:
        out.append(f"pairings: {ref['pairings']} -> {got['pairings']}")
    if len(ref["cells"]) != len(got["cells"]):
        out.append(f"cells: {len(ref['cells'])} -> {len(got['cells'])}")
        return out
    unused = list(got["cells"])
    for kind, count, gram in ref["cells"]:
        g = np.asarray(gram)
        for cell in unused:
            if (cell[0] == kind and cell[1] == count
                    and np.max(np.abs(np.asarray(cell[2]) - g))
                    <= GRAM_REL_TOL * max(1.0, float(np.max(np.abs(g))))):
                unused.remove(cell)
                break
        else:
            out.append(f"no {kind} cell with {count} vertices and a matching "
                       "Gram matrix")
    return out


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text())
