"""Incremental convex hull in R^d for d in {3, 4}.

Written for point sets in strictly convex position with frequent exact
coplanarities (canonical decompositions are often non-simplicial), so
the orientation predicate is a floating-point evaluation with an error
filter and an exact integer (power-of-two scaled) fallback: every binary
float is n / 2^k, so scaling all coordinates by the largest 2^k turns
them into integers and the fallback sign is exact; the hull topology is
never guessed.

Insertion is sequential in the given point order; the whole computation
is deterministic.  Facets are simplicial; coplanar groups are merged by
the caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import hypot
from operator import mul, sub

import numpy as np

from .minkowski import GeometryError

# |det| below FILTER_REL * (product of row norms) is re-evaluated exactly.
# In the closed forms below each monomial of the determinant is rounded at
# most 14 times for 4x4 (4 row differences, 2 + 2 for the 2x2 minors, 1
# product, 5 additions), and the monomials sum in absolute value to
# perm|M| <= prod ||row||_1 <= 16 prod ||row||_2.  So the float error is
# at most 14 * 16 * 2^-53 * prod ||row||_2 < 2.5e-14 * prod ||row||_2,
# a 400th of FILTER_REL (3x3: 8 roundings, factor 3^1.5).
FILTER_REL = 1e-11

# The bound above ignores underflow and overflow.  With every row norm in
# [2^-250, 2^250] no product of entries overflows and the absolute error
# of underflowed products stays far below the filter threshold; rows
# outside that range go to the exact path.
_ROW_NORM_MIN = 2.0 ** -250
_ROW_NORM_MAX = 2.0 ** 250


@dataclass
class Facet:
    vertices: tuple          # point indices, sorted
    sign: int                # +1: positive orientation det means "outside"
    normal: np.ndarray       # outward Euclidean normal, unit length
    offset: float            # normal @ x = offset on the facet plane


def _det3(a, b, c):
    """3x3 determinant by cofactors of the first row (ints or floats)."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    c0, c1, c2 = c
    return (a0 * (b1 * c2 - b2 * c1)
            - a1 * (b0 * c2 - b2 * c0)
            + a2 * (b0 * c1 - b1 * c0))


def _det4(a, b, c, d):
    """4x4 determinant from the 2x2 minors of rows a, b and of rows c, d."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    c0, c1, c2, c3 = c
    d0, d1, d2, d3 = d
    s01 = a0 * b1 - a1 * b0
    s02 = a0 * b2 - a2 * b0
    s03 = a0 * b3 - a3 * b0
    s12 = a1 * b2 - a2 * b1
    s13 = a1 * b3 - a3 * b1
    s23 = a2 * b3 - a3 * b2
    t01 = c0 * d1 - c1 * d0
    t02 = c0 * d2 - c2 * d0
    t03 = c0 * d3 - c3 * d0
    t12 = c1 * d2 - c2 * d1
    t13 = c1 * d3 - c3 * d1
    t23 = c2 * d3 - c3 * d2
    return (s01 * t23 - s02 * t13 + s03 * t12
            + s12 * t03 - s13 * t02 + s23 * t01)


_DET = {3: _det3, 4: _det4}

# "auto" filters in floats and falls back to exact; "always" is exact
MODES = ("auto", "always")


def _dyadic(values):
    """Exact (numerators, e) with values[j] == numerators[j] / 2^e."""
    ratios = [float(v).as_integer_ratio() for v in values]
    e = max((den.bit_length() - 1 for _, den in ratios), default=0)
    return [num << (e + 1 - den.bit_length()) for num, den in ratios], e


class OrientPredicate:
    """Sign of det[p1-p0, ..., p_{d-1}-p0, q-p0] with exact fallback."""

    def __init__(self, points, mode: str = "auto"):
        if mode not in MODES:
            raise GeometryError(f"unknown predicate mode {mode!r}")
        self.points = np.asarray(points, dtype=float)
        d = self.points.shape[1]
        if d not in _DET:
            raise GeometryError(f"orientation implemented for R^3 and R^4 "
                                f"only, got R^{d}")
        self.mode = mode
        self.exact_evals = 0
        self._det = _DET[d]
        self._rows = self.points.tolist()
        # all coordinates as integers over one power-of-two denominator
        nums, _ = _dyadic(self.points.ravel().tolist())
        self._ints = [tuple(nums[k:k + d]) for k in range(0, len(nums), d)]
        self._weights = [1] * len(self._ints)

    def add_mean(self, ids) -> int:
        """Id of a new query point, the mean of the points ``ids``: its
        float row is the rounded mean, its exact row the integer sum with
        weight len(ids), so the exact path tests the true mean."""
        self._rows.append(self.points[ids].mean(axis=0).tolist())
        self._ints.append([sum(c) for c in zip(*(self._ints[i] for i in ids))])
        self._weights.append(len(ids))
        return len(self._rows) - 1

    def sign(self, base_ids, q_id) -> int:
        if self.mode == "auto":
            rows = self._rows
            p0 = rows[base_ids[0]]
            diffs = [list(map(sub, rows[i], p0)) for i in base_ids[1:]]
            diffs.append(list(map(sub, rows[q_id], p0)))
            det = self._det(*diffs)
            scale = 1.0
            for r in diffs:
                norm = hypot(*r)
                if not _ROW_NORM_MIN <= norm <= _ROW_NORM_MAX:
                    break
                scale *= norm
            else:
                if abs(det) > FILTER_REL * scale:
                    return 1 if det > 0 else -1
        # exact path
        self.exact_evals += 1
        base = [self._ints[i] for i in base_ids]
        p0 = base[0]
        rows = [list(map(sub, r, p0)) for r in base[1:]]
        w = self._weights[q_id]
        rows.append([c - w * c0 for c, c0 in zip(self._ints[q_id], p0)])
        det = self._det(*rows)
        return (det > 0) - (det < 0)


def _initial_simplex(pred: OrientPredicate):
    pts = pred.points
    d = pts.shape[1]
    ids = [0]
    # grow an affinely independent set greedily, largest measure first
    dists = np.linalg.norm(pts - pts[0], axis=1)
    ids.append(int(np.argmax(dists)))
    if dists[ids[1]] == 0.0:
        raise GeometryError("all points coincide")
    while len(ids) < d + 1:
        base = pts[ids]
        diffs = base[1:] - base[0]
        rel = pts - pts[ids[0]]
        # squared volume of the simplex extended by each candidate
        G = diffs @ diffs.T
        proj = rel @ diffs.T
        try:
            sol = np.linalg.solve(G, proj.T)
        except np.linalg.LinAlgError:
            raise GeometryError("degenerate input: points are affinely dependent")
        resid = np.einsum("ij,ij->i", rel, rel) - np.einsum("ji,ij->i", sol, proj)
        if len(ids) == d:
            # last vertex must be strictly off the hyperplane; verify the
            # float winner exactly and fall back to a scan if needed
            k = None
            for cand in np.argsort(-resid):
                if pred.sign(tuple(ids), int(cand)) != 0:
                    k = int(cand)
                    break
                if resid[cand] <= 0:
                    break
            if k is None:
                raise GeometryError("degenerate input: points span no full-"
                                    "dimensional hull")
        else:
            k = int(np.argmax(resid))
            if resid[k] <= 0:
                raise GeometryError("degenerate input: points are affinely dependent")
        ids.append(k)
    return ids


def _facet_plane(pts, vertices):
    """Outward-agnostic plane (unit normal, offset) through the vertices."""
    base = pts[list(vertices)]
    diffs = base[1:] - base[0]
    # null vector of the difference matrix
    _, _, vt = np.linalg.svd(diffs)
    normal = vt[-1]
    return normal, float(normal @ base[0])


class IncrementalHull:
    def __init__(self, points, exact_mode: str = "auto"):
        points = np.asarray(points, dtype=float)
        n, d = points.shape
        if d not in (3, 4):
            raise GeometryError(f"hull implemented for R^3 and R^4 only, got R^{d}")
        if n < d + 1:
            raise GeometryError(f"need at least {d + 1} points, got {n}")
        self.points = points
        self.dim = d
        self.pred = OrientPredicate(points, exact_mode)
        simplex = _initial_simplex(self.pred)
        self._centroid = points[simplex].mean(axis=0)
        self._centroid_id = self.pred.add_mean(simplex)
        self.facets: list = []
        for omit in range(d + 1):
            vs = tuple(sorted(simplex[k] for k in range(d + 1) if k != omit))
            self._add_facet(vs)
        for q in range(n):
            if q in simplex:
                continue
            self._insert(q)

    def _add_facet(self, vs):
        s = self.pred.sign(vs, self._centroid_id)
        if s == 0:
            raise GeometryError(f"degenerate facet {vs}")
        normal, offset = _facet_plane(self.points, vs)
        if normal @ self._centroid > offset:
            normal, offset = -normal, -offset
        self.facets.append(Facet(vertices=vs, sign=-s, normal=normal,
                                 offset=offset))

    def _outside(self, facet: Facet, q: int) -> bool:
        """Exact visibility for q inside the float screen's band."""
        return facet.sign * self.pred.sign(facet.vertices, q) > 0

    def _insert(self, q: int):
        # one float margin per facet, in plain floats (numpy per facet is
        # slower, and stacked planes per insertion raise the peak memory);
        # exact only inside the band
        x = self.pred._rows[q]
        visible, kept = [], []
        for f in self.facets:
            margin = sum(map(mul, f.normal.tolist(), x)) - f.offset
            band = 1e-7 * max(1.0, abs(f.offset))
            if margin > band or (not margin < -band and self._outside(f, q)):
                visible.append(f)
            else:
                kept.append(f)
        if not visible:
            return
        ridge_count = {}
        for f in visible:
            for ridge in combinations(f.vertices, self.dim - 1):
                ridge_count[ridge] = ridge_count.get(ridge, 0) + 1
        horizon = [r for r, c in ridge_count.items() if c == 1]
        self.facets = kept
        for ridge in horizon:
            self._add_facet(tuple(sorted(ridge + (q,))))

    def vertex_ids(self):
        out = set()
        for f in self.facets:
            out.update(f.vertices)
        return sorted(out)

