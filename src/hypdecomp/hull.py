"""Incremental convex hull in R^d for d in {3, 4}.

Written for point sets in strictly convex position with frequent exact
coplanarities (canonical decompositions are often non-simplicial).
Every binary float is n / 2^k, so scaling all coordinates by the
largest 2^k turns them into integers.  The orientation predicate is
exact on those integers.  Each facet keeps the integer cofactor normal
of its plane; a float screen with that normal rounded decides
visibility outside a derived band, and an exact integer dot inside it,
so the hull topology is never guessed.

Insertion is sequential in the given point order; the whole computation
is deterministic.  Facets are simplicial; coplanar groups are merged by
the caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd, hypot
from operator import mul, sub

import numpy as np

from .minkowski import GeometryError


@dataclass(slots=True)
class Facet:
    vertices: tuple          # point indices, sorted
    exact: tuple             # outward integer normal n: q is outside iff
                             # n . (q - p0) > 0 over the predicate's rows
    normal: np.ndarray       # outward unit normal, n rounded (a tuple until built)
    offset: float            # normal @ x = offset on the facet plane
    band: float              # float margins within +-band are decided exactly


def _cofactors(rows):
    """Normal n of the d - 1 rows (ints or floats): det[rows, q] == n . q.

    For d = 3 the cross product; for d = 4 the signed 3x3 minors, each
    from the 2x2 minors of the first two rows.
    """
    if len(rows) == 2:
        (a0, a1, a2), (b0, b1, b2) = rows
        return (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)
    (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3) = rows
    s01 = a0 * b1 - a1 * b0
    s02 = a0 * b2 - a2 * b0
    s03 = a0 * b3 - a3 * b0
    s12 = a1 * b2 - a2 * b1
    s13 = a1 * b3 - a3 * b1
    s23 = a2 * b3 - a3 * b2
    return (c2 * s13 - c1 * s23 - c3 * s12, c0 * s23 - c2 * s03 + c3 * s02,
            c1 * s03 - c0 * s13 - c3 * s01, c0 * s12 - c1 * s02 + c2 * s01)


def _dyadic(values):
    """Exact (numerators, e) with values[j] == numerators[j] / 2^e."""
    ratios = [float(v).as_integer_ratio() for v in values]
    e = max((den.bit_length() - 1 for _, den in ratios), default=0)
    return [num << (e + 1 - den.bit_length()) for num, den in ratios], e


class OrientPredicate:
    """Exact sign of det[p1-p0, ..., p_{d-1}-p0, q-p0]."""

    def __init__(self, points):
        self.points = np.asarray(points, dtype=float)
        d = self.points.shape[1]
        if d not in (3, 4):
            raise GeometryError(f"orientation implemented for R^3 and R^4 "
                                f"only, got R^{d}")
        self.exact_evals = 0
        self._rows = self.points.tolist()
        # all coordinates as integers over one power-of-two denominator
        nums, _ = _dyadic(self.points.ravel().tolist())
        self._ints = [tuple(nums[k:k + d]) for k in range(0, len(nums), d)]
        self._weights = [1] * len(self._ints)

    def add_mean(self, ids) -> int:
        """Id of a new query point, the mean of the points ``ids``: its
        integer row is their sum with weight len(ids), so the predicate
        tests the true mean, not a rounded one."""
        self._ints.append([sum(c) for c in zip(*(self._ints[i] for i in ids))])
        self._weights.append(len(ids))
        return len(self._ints) - 1

    def normal_and_det(self, base_ids, q_id):
        """Integer cofactor normal n of p1-p0, ..., p_{d-1}-p0 and the
        exact w * n . (q - p0), w >= 1 the weight of q's row (see add_mean)."""
        self.exact_evals += 1
        ints = self._ints
        p0 = ints[base_ids[0]]
        n = _cofactors([list(map(sub, ints[i], p0)) for i in base_ids[1:]])
        w = self._weights[q_id]
        return n, sum(map(mul, n, ints[q_id])) - w * sum(map(mul, n, p0))

    def sign(self, base_ids, q_id) -> int:
        det = self.normal_and_det(base_ids, q_id)[1]
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
            # last vertex must be strictly off the hyperplane: scan in float
            # order, exactly (a sliver's float residual can be <= 0)
            k = next((int(c) for c in np.argsort(-resid)
                      if pred.sign(tuple(ids), int(c)) != 0), None)
            if k is None:
                raise GeometryError("degenerate input: points span no full-"
                                    "dimensional hull")
        else:
            k = int(np.argmax(resid))
            if resid[k] <= 0:
                raise GeometryError("degenerate input: points are affinely dependent")
        ids.append(k)
    return ids


class IncrementalHull:
    def __init__(self, points):
        points = np.asarray(points, dtype=float)
        n, d = points.shape
        if d not in (3, 4):
            raise GeometryError(f"hull implemented for R^3 and R^4 only, got R^{d}")
        if n < d + 1:
            raise GeometryError(f"need at least {d + 1} points, got {n}")
        self.points = points
        self.dim = d
        self.pred = OrientPredicate(points)
        simplex = _initial_simplex(self.pred)
        self._centroid_id = self.pred.add_mean(simplex)
        self.facets: list = []
        for omit in range(d + 1):
            vs = tuple(sorted(simplex[k] for k in range(d + 1) if k != omit))
            self._add_facet(vs)
        for q in range(n):
            if q in simplex:
                continue
            self._insert(q)
        for f in self.facets:
            f.normal = np.array(f.normal)

    def _add_facet(self, vs):
        pred = self.pred
        # orient n away from the centroid and divide out its content,
        # which halves its bit length on the knot's orbits
        n, inner = pred.normal_and_det(vs, self._centroid_id)
        if inner == 0:
            raise GeometryError(f"degenerate facet {vs}")
        g = gcd(*n) if inner < 0 else -gcd(*n)
        n = tuple(x // g for x in n)
        # round n once (a power-of-two scale keeps it finite), then normalize
        scale = 1 << max(0, max(map(abs, n)).bit_length() - 64)
        v = [x / scale for x in n]
        norm = hypot(*v)
        normal = tuple(x / norm for x in v)
        offset = sum(map(mul, normal, pred._rows[vs[0]]))
        self.facets.append(Facet(vs, n, normal, offset,
                                 1e-7 * max(1.0, abs(offset))))

    def _outside(self, facet: Facet, q: int) -> bool:
        """Exact visibility for q inside the float screen's band."""
        self.pred.exact_evals += 1
        ints = self.pred._ints
        q0 = map(sub, ints[q], ints[facet.vertices[0]])
        return sum(map(mul, facet.exact, q0)) > 0

    def _insert(self, q: int):
        # margin = fl(fl(normal . x) - offset) against the true distance
        # u . (x - p0), u = n / |n|.  The normal is n rounded once, then
        # divided by its hypot: each component is u_i (1 + e), |e| <= 5 *
        # 2^-53.  A d-term float dot errs by at most gamma_4 <= 4.01 * 2^-53
        # times |normal| |x| (Cauchy-Schwarz), so the two dots together err
        # by at most 9.1 * 2^-53 (|x| + |p0|) < 1.1e-15 (|x| + |p0|), and the
        # last subtraction keeps the sign of their difference.  The band, at
        # least 1e-7, covers that while every point has Euclidean norm below
        # 4.5e7; there the screen agrees with the exact test outside it.
        x = self.pred._rows[q]
        visible, kept = [], []
        for f in self.facets:
            margin = sum(map(mul, f.normal, x)) - f.offset
            if margin > f.band or (not margin < -f.band and self._outside(f, q)):
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
