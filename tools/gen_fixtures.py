#!/usr/bin/env python3
"""Regenerate the shipped fixture JSONs.

Builds the four example groups from classical matrix presentations,
converts them to Lorentz form and writes the spec documents.  The two
builders that do the converting live here, since nothing else in the
package needs them: ``psl2_to_lorentz`` maps a unimodular 2x2 matrix to
SO+(2,1) or SO+(3,1), and ``reflection_in_hyperplane`` gives the
Lorentzian reflection in a geodesic hyperplane.  Run from the
repository root:

    python3 tools/gen_fixtures.py [--check]

--check additionally pushes every fixture through the full pipeline and
prints the certificate summary (slow but useful when retuning bounds).
"""

import argparse
import json
import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from hypdecomp.minkowski import (CausalClass, GeometryError, classify,
                                 lorentz_product, minkowski_form)

OUT = pathlib.Path(__file__).resolve().parents[1] / "src" / "hypdecomp" / "fixtures"


def reflection_in_hyperplane(u) -> np.ndarray:
    """Lorentzian Householder reflection fixing {x : <x,u> = 0}.

    R(x) = x - 2 (<x,u>/<u,u>) u, defined for spacelike u only; R is an
    involution in O+(n,1) and R(u) = -u.
    """
    u = np.asarray(u, dtype=float)
    if classify(u) is not CausalClass.SPACELIKE:
        raise GeometryError("reflection normal must be spacelike")
    J = minkowski_form(len(u))
    return np.eye(len(u)) - (2.0 / lorentz_product(u, u)) * np.outer(u, J @ u)


# ---------------------------------------------------------------------------
# PSL(2) -> SO+(n,1) for n = 2 (real entries) and n = 3 (complex entries).
#
# A point v = (x0, ..., xn) is packed into a symmetric (n=2) or hermitian
# (n=3) 2x2 matrix with determinant -<v,v>; the isometry acts by
# congruence m S m^T (resp. m H m^*).  The conventions are aligned with
# the half-space chart: the ideal point "infinity" is the ray
# (1, 0, ..., 0, -1) and the boundary origin is (1, 0, ..., 0, 1).
# ---------------------------------------------------------------------------

def _pack2(v):
    t, x1, x2 = v
    return np.array([[t - x2, x1], [x1, t + x2]])


def _unpack2(S):
    return np.array([(S[0, 0] + S[1, 1]) / 2.0, S[0, 1], (S[1, 1] - S[0, 0]) / 2.0])


def _pack3(v):
    t, x1, x2, x3 = v
    return np.array([[t - x3, x1 + 1j * x2], [x1 - 1j * x2, t + x3]])


def _unpack3(H):
    return np.array([(H[0, 0] + H[1, 1]).real / 2.0, H[0, 1].real,
                     H[0, 1].imag, (H[1, 1] - H[0, 0]).real / 2.0])


def psl2_to_lorentz(m, tol: float = 1e-9) -> np.ndarray:
    """Image of a 2x2 unimodular matrix in SO+(2,1) resp. SO+(3,1).

    Real input acts on the upper half-plane (n=2); complex input on upper
    half-space (n=3).  The map is the standard congruence action on
    symmetric/hermitian matrices and is multiplicative.
    """
    m = np.asarray(m)
    if m.shape != (2, 2):
        raise GeometryError("expected a 2x2 matrix")
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    if abs(det - 1.0) > tol:
        raise GeometryError(f"determinant must be 1, got {det}")
    if np.iscomplexobj(m):
        dim, pack, unpack = 4, _pack3, _unpack3
        conj = lambda S: m @ S @ m.conj().T
    else:
        m = m.astype(float)
        dim, pack, unpack = 3, _pack2, _unpack2
        conj = lambda S: m @ S @ m.T
    A = np.empty((dim, dim))
    for j in range(dim):
        e = np.zeros(dim)
        e[j] = 1.0
        A[:, j] = unpack(conj(pack(e)))
    return A


def boundary_ray(r: float) -> np.ndarray:
    """Light-cone ray of the half-plane boundary point r."""
    return np.array([(r * r + 1) / 2.0, r, (1 - r * r) / 2.0])


def thrice_punctured_sphere() -> dict:
    # level-two congruence subgroup; cusps at infinity, 0 and 1 with
    # mutually tangent horoballs (height 1, diameter 1, diameter 1)
    gens = [psl2_to_lorentz(np.array([[1.0, 2.0], [0.0, 1.0]])),
            psl2_to_lorentz(np.array([[1.0, 0.0], [2.0, 1.0]]))]
    cusps = [np.array([1.0, 0.0, -1.0]),
             np.array([1.0, 0.0, 1.0]),
             2.0 * boundary_ray(1.0)]
    return {
        "schema": 1,
        "name": "thrice_punctured_sphere",
        "dimension": 2,
        "generators": [m.tolist() for m in gens],
        "reflections": [],
        "cusps": [c.tolist() for c in cusps],
        "decoration_scales": [1.0, 1.0, 1.0],
        "options": {"word_bound": 6, "height_bound": 20.0,
                    "length_bound": 1.5, "margin": 1.0, "algorithm": "both"},
    }


def once_punctured_torus() -> dict:
    # hexagonal (modular) punctured torus: trace triple (3, 3, 3)
    A = np.array([[1.0, 1.0], [1.0, 2.0]])
    B = np.array([[1.0, -1.0], [-1.0, 2.0]])
    K = A @ B @ np.linalg.inv(A) @ np.linalg.inv(B)
    assert abs(abs(np.trace(K)) - 2.0) < 1e-12
    z = (K[0, 0] - K[1, 1]) / (2.0 * K[1, 0])
    cusp = boundary_ray(float(z))
    return {
        "schema": 1,
        "name": "once_punctured_torus",
        "dimension": 2,
        "generators": [psl2_to_lorentz(A).tolist(), psl2_to_lorentz(B).tolist()],
        "reflections": [],
        "cusps": [cusp.tolist()],
        "decoration_scales": [1.0],
        "options": {"word_bound": 6, "height_bound": 12.0,
                    "length_bound": 1.0, "margin": 1.0, "algorithm": "both"},
    }


def figure3_surface(ell: float = 2.0) -> dict:
    # one-cusped pair of pants with two geodesic boundary circles of
    # equal length ell, doubled across both walls; the deck group is
    # the orientation-preserving half of <pants group, wall reflections>
    ch, sh = np.cosh(ell / 2.0), np.sinh(ell / 2.0)
    X = np.array([[ch, sh], [sh, ch]])                      # wall-1 loop
    Y = -np.linalg.inv(X) @ np.array([[1.0, 4.0 * ch / sh], [0.0, 1.0]])
    assert abs(np.trace(X @ Y) + 2.0) < 1e-9                # cusp at infinity
    XL, YL = psl2_to_lorentz(X), psl2_to_lorentz(Y)
    tau1 = reflection_in_hyperplane(np.array([0.0, 0.0, 1.0]))
    a = (-2.0 * ch + sh) / sh
    b = (-2.0 * ch - sh) / sh
    ra, rb = boundary_ray(a), boundary_ray(b)
    M = np.array([[-ra[0], ra[1], ra[2]], [-rb[0], rb[1], rb[2]]])
    _, _, vt = np.linalg.svd(M)
    tau2 = reflection_in_hyperplane(vt[-1])
    gens = [XL, YL, tau1 @ YL @ tau1, tau1 @ tau2]
    p1 = np.array([1.0, 0.0, -1.0])
    return {
        "schema": 1,
        "name": "figure3_surface",
        "dimension": 2,
        "generators": [m.tolist() for m in gens],
        "reflections": [tau1.tolist(), tau2.tolist()],
        "cusps": [p1.tolist(), (tau1 @ p1).tolist()],
        "decoration_scales": [1.0, 1.0],
        "options": {"word_bound": 5, "height_bound": 160.0,
                    "length_bound": 3.0, "margin": 1.0, "algorithm": "both"},
    }


def figure_eight_knot() -> dict:
    w = complex(-0.5, np.sqrt(3.0) / 2.0)                   # primitive cube root
    A = psl2_to_lorentz(np.array([[1, 1], [0, 1]], dtype=complex))
    B = psl2_to_lorentz(np.array([[1, 0], [-w, 1]], dtype=complex))
    return {
        "schema": 1,
        "name": "figure_eight_knot",
        "dimension": 3,
        "generators": [A.tolist(), B.tolist()],
        "reflections": [],
        "cusps": [[1.0, 0.0, 0.0, -1.0]],
        "decoration_scales": [1.5],
        "options": {"word_bound": 6, "height_bound": 8.0,
                    "length_bound": 1.0, "margin": 1.0, "algorithm": "both"},
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--check", action="store_true",
                        help="run every fixture through the pipeline")
    args = parser.parse_args()

    builders = [thrice_punctured_sphere, once_punctured_torus,
                figure3_surface, figure_eight_knot]
    OUT.mkdir(parents=True, exist_ok=True)
    for build in builders:
        doc = build()
        path = OUT / f"{doc['name']}.json"
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
        print(f"wrote {path}")

    if args.check:
        from hypdecomp.io_cli import load_spec, run
        for build in builders:
            name = build()["name"]
            spec = load_spec(OUT / f"{name}.json")
            report = run(spec)
            flags = {k: c.ok for k, c in report.certificates.items()}
            kinds = [mc.kind for mc in report.mixed.cells] if report.mixed else []
            print(f"{name}: ok={report.ok} cells={kinds}")
            for k, v in sorted(flags.items()):
                if not v:
                    print(f"   FAIL {k}: {report.certificates[k].detail}")


if __name__ == "__main__":
    main()
