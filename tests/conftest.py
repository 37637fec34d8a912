import functools
import importlib.util
import json
import pathlib

import numpy as np
import pytest

from hypdecomp.ep_hull import _UnionFind
from hypdecomp.fixtures import fixture_path
from hypdecomp.hull import IncrementalHull
from hypdecomp.io_cli import load_spec, run
from hypdecomp.matching import PAIR_TOL, _scale, greedy_deviation
from hypdecomp.minkowski import minkowski_form

TOOLS = pathlib.Path(__file__).resolve().parents[1] / "tools"


@functools.cache
def load_tool(name):
    """The script tools/<name>.py as a module, loaded once per session."""
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@functools.cache
def ledger():
    """The committed output ledger, tools/output_digests.jsonl: every
    line by its input name, in file order."""
    lines = (TOOLS / "output_digests.jsonl").read_text().splitlines()
    return {line["input"]: line for line in map(json.loads, lines)}


def shipped_lines():
    """The ledger's lines on the shipped coordinates (seed 0), by spec
    label."""
    return {name.split(" draw=0 ", 1)[1]: line
            for name, line in ledger().items() if " seed=0 draw=0 " in name}


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20250810)


def j_inverse(A):
    """Inverse J A^T J of a Lorentz matrix or stack, written as the two
    products, so that no oracle shares code with ``lorentz_inverse``."""
    J = minkowski_form(A.shape[-1])
    return J @ np.swapaxes(A, -1, -2) @ J


def set_match(A, B, tol: float) -> bool:
    """Greedy matching of two point sets within an absolute tolerance."""
    A = np.atleast_2d(A)
    B = np.atleast_2d(B)
    if A.shape != B.shape:
        return False
    return bool(greedy_deviation(A, B) <= tol)


def pair_match(A, B) -> bool:
    """The pair rule of ``matching``, one pair of sets checked alone: the
    greedy deviation is at most ``PAIR_TOL`` times ``_scale`` of both."""
    A = np.atleast_2d(A)
    B = np.atleast_2d(B)
    return A.shape == B.shape and set_match(A, B, PAIR_TOL * _scale(A, B))


def face_walk(face_sets, L):
    """The generator walk of ``ep_hull._face_walk``, one (face, letter)
    pair at a time: face i joins the first face, in index order, that
    its image matches by the pair rule, one candidate at a time among
    those whose centroid is within the pair tolerance of the image's."""
    centroids = np.array([fs.mean(axis=0) for fs in face_sets])
    tops = np.array([np.max(np.abs(fs)) for fs in face_sets])
    uf = _UnionFind(range(len(face_sets)))
    for i, fs in enumerate(face_sets):
        for m in L:
            img = fs @ m.T
            tol = PAIR_TOL * np.maximum(max(1.0, np.max(np.abs(img))), tops)
            close = np.flatnonzero(np.max(np.abs(centroids - img.mean(axis=0)),
                                          axis=1) <= tol)
            k = next((j for j in close if pair_match(img, face_sets[j])), None)
            if k is not None and k != i:
                uf.union(i, int(k))
    return uf


def _load(name):
    return load_spec(fixture_path(name))


@pytest.fixture(scope="session")
def spec_3ps():
    return _load("thrice_punctured_sphere")


@pytest.fixture(scope="session")
def spec_torus():
    return _load("once_punctured_torus")


@pytest.fixture(scope="session")
def spec_fig3():
    return _load("figure3_surface")


@pytest.fixture(scope="session")
def spec_fig8():
    return _load("figure_eight_knot")


@pytest.fixture(scope="session")
def report_3ps(spec_3ps):
    return run(spec_3ps)


@pytest.fixture(scope="session")
def report_torus(spec_torus):
    return run(spec_torus)


@pytest.fixture(scope="session")
def report_fig3(spec_fig3):
    return run(spec_fig3)


@pytest.fixture(scope="session")
def report_fig8(spec_fig8):
    return run(spec_fig8)


@pytest.fixture(scope="session")
def report_fig8_h12():
    # the raised-height knot rung that still fails its dual certificates
    spec = _load("figure_eight_knot")
    spec.options.height_bound = 12.0
    return run(spec)


@pytest.fixture(scope="session")
def all_reports(report_3ps, report_torus, report_fig3, report_fig8):
    return {
        "thrice_punctured_sphere": report_3ps,
        "once_punctured_torus": report_torus,
        "figure3_surface": report_fig3,
        "figure_eight_knot": report_fig8,
    }


def cell_is_convex(cell):
    """Straight-line convexity of an IdealCell in Klein coordinates."""
    k = cell.klein_vertices
    if k.shape[1] == 2:
        m = len(k)
        cross = []
        for i in range(m):
            a, b, c = k[i], k[(i + 1) % m], k[(i + 2) % m]
            u, v = b - a, c - b
            cross.append(u[0] * v[1] - u[1] * v[0])
        return all(x > -1e-9 for x in cross) or all(x < 1e-9 for x in cross)
    return len(hull_vertex_ids(IncrementalHull(k))) == len(k)


def hull_vertex_ids(hull):
    """Sorted indices of the points on some facet of an IncrementalHull."""
    return sorted({v for f in hull.facets for v in f.vertices})


def random_lightlike(rng, n, height_range=(0.5, 4.0)):
    """Future lightlike vector with a random direction."""
    v = rng.normal(size=n)
    v /= np.linalg.norm(v)
    h = rng.uniform(*height_range)
    return np.concatenate(([h], h * v))


def random_hyperboloid(rng, n, radius=2.0):
    """Point of V+ within the given hyperbolic distance of the apex."""
    v = rng.normal(size=n)
    v /= np.linalg.norm(v)
    t = rng.uniform(0.0, radius)
    return np.concatenate(([np.cosh(t)], np.sinh(t) * v))


def random_boost(rng, n):
    """Random element of SO+(n,1): a boost conjugated by a rotation."""
    t = rng.uniform(-1.5, 1.5)
    B = np.eye(n + 1)
    B[0, 0] = B[1, 1] = np.cosh(t)
    B[0, 1] = B[1, 0] = np.sinh(t)
    Q = _random_rotation(rng, n)
    return Q @ B @ Q.T


def _random_rotation(rng, n):
    A = rng.normal(size=(n, n))
    Q, r = np.linalg.qr(A)
    Q = Q @ np.diag(np.sign(np.diag(r)))
    full = np.eye(n + 1)
    full[1:, 1:] = Q
    return full
