"""Horoball geometry against explicit upper-half-space constructions.

The closed forms under test are validated here against oracles that
work entirely in the half-space model: an isometry moves the
configuration to the vertical axis, horoball sizes are measured as
Euclidean quantities via model conversions and bisection, and the
measured values feed the elementary distance formula.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import random_boost, random_lightlike
from hypdecomp.cutlocus import _klein_constraints, _log_distances
from hypdecomp.decorations import (GeometryError, horoball_distance,
                                   horoball_plane_distance, shadow_radius)
from hypdecomp.minkowski import (Model, ModelPoint, lorentz_product,
                                 minkowski_form, model_convert)


def _axis_point(t, n):
    """Hyperboloid point of the half-space axis point (0,...,0,t)."""
    coords = np.zeros(n)
    coords[-1] = t
    return model_convert(ModelPoint(Model.HALFSPACE, coords),
                         Model.HYPERBOLOID).coords


def _axis_parameter(target, n, lo=1e-9, hi=1e9):
    """Bisect for t with <X(t), target> = -1 along the vertical axis."""
    f = lambda t: lorentz_product(_axis_point(t, n), target) + 1.0
    flo, fhi = f(lo), f(hi)
    assert flo * fhi < 0, "horoball does not meet the axis as expected"
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if f(mid) * flo <= 0:
            hi = mid
        else:
            lo = mid
    return math.sqrt(lo * hi)


def halfspace_distance_oracle(p, q):
    """Distance via the explicit construction: move the pair onto the
    vertical axis, measure Euclidean gap l and radius r, apply
    d = log(1 + l/2r)."""
    p = np.asarray(p, float)
    q = np.asarray(q, float)
    n = len(p) - 1
    s = -lorentz_product(p, q)
    T, S = p / math.sqrt(s), q / math.sqrt(s)
    x = (T + S) / math.sqrt(2.0)
    y = (T - S) / math.sqrt(2.0)
    frame = [x]
    for k in range(n + 1):
        e = np.zeros(n + 1)
        e[k] = 1.0
        v = e + lorentz_product(e, x) * x - lorentz_product(e, y) * y
        for z in frame[1:]:
            v = v - lorentz_product(e, z) * z
        nv = lorentz_product(v, v)
        if nv > 1e-8:
            frame.append(v / math.sqrt(nv))
        if len(frame) == n:
            break
    frame.append(y)
    F = np.column_stack(frame)
    J = minkowski_form(n + 1)
    assert np.max(np.abs(F.T @ J @ F - J)) < 1e-9
    A = J @ F.T @ J                       # A maps p, q onto the axis rays
    Ap, Aq = A @ p, A @ q
    t_ball = _axis_parameter(Ap, n)       # Euclidean diameter of the 0-ball
    t_cap = _axis_parameter(Aq, n)        # height of the horoball at infinity
    r = t_ball / 2.0
    l = t_cap - t_ball
    return math.log(1.0 + l / (2.0 * r))


def shadow_projection_oracle(d):
    """Radius of the nearest-point projection of a horoball at distance d.

    Upper half-space, the target horoball tangent at the origin with
    diameter 1, the source {z >= e^d}.  Geodesics through the origin are
    semicircles; the projection sweeps their feet on the target
    horosphere.  Feet are measured in the horosphere's intrinsic (flat)
    metric after inverting in the unit sphere, which carries the
    horosphere to the plane z = 1.
    """
    h = math.exp(d)

    def foot_radius(c):
        # semicircle through 0 with top height c: find its crossing of
        # the sphere x^2 + z^2 = z, then invert; the half-angle form
        # 2c(1-cos t) = 4c sin^2(t/2) avoids cancellation for large c
        g = lambda s: 2.0 * c * math.sin(s) - math.cos(s)
        lo, hi = 1e-300, math.pi / 4.0
        if g(hi) < 0:
            return None
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if g(mid) > 0:
                hi = mid
            else:
                lo = mid
        s = 0.5 * (lo + hi)
        P = 2.0 * c * math.sin(s) * np.array([math.sin(s), math.cos(s)])
        img = P / (P @ P)
        assert abs(img[1] - 1.0) < 1e-9      # lands on the unit-height plane
        return abs(img[0])

    # sweep the family of geodesics that meet the source horoball
    radii = [foot_radius(c) for c in np.geomspace(h, 1e8, 400)]
    radii = [r for r in radii if r is not None]
    return max(radii)


class TestHoroballDistance:
    def test_tangent_pair(self):
        p = np.array([1.0, 1.0, 0.0])
        q = np.array([1.0, -1.0, 0.0])
        assert abs(horoball_distance(p, q)) < 1e-12
        assert abs(halfspace_distance_oracle(p, q)) < 1e-9

    def test_scaling_by_e(self):
        p = np.array([1.0, 1.0, 0.0])
        q = math.e * np.array([1.0, -1.0, 0.0])
        assert abs(horoball_distance(p, q) - 1.0) < 1e-12
        assert abs(halfspace_distance_oracle(p, q) - 1.0) < 1e-9

    def test_same_center_rejected(self):
        p = np.array([1.0, 1.0, 0.0])
        with pytest.raises(GeometryError):
            horoball_distance(p, p)

    def test_nonnegative_product_rejected(self):
        # one horoball reached by two words: rays 5e-10 apart, too far to
        # be one point, and a height rounded so that their Lorentz
        # product, about -1e-15 in exact arithmetic, reads positive
        p = np.array([46.4, 46.4, 0.0])
        t = 4e-10
        q = np.array([46.4 - 4e-8, 46.4 * np.cos(t), 46.4 * np.sin(t)])
        assert lorentz_product(p, q) > 0
        with pytest.raises(GeometryError, match=">= 0 have no distance"):
            horoball_distance(p, q)

    @pytest.mark.parametrize("n", [2, 3])
    def test_oracle_agreement_random_pairs(self, rng, n):
        # acceptance-grade check: 100 random decorated pairs
        count = 0
        worst = 0.0
        while count < (100 if n == 2 else 50):
            p = random_lightlike(rng, n)
            q = random_lightlike(rng, n)
            if -lorentz_product(p, q) < 2.0:   # keep horoballs disjoint
                continue
            d = horoball_distance(p, q)
            worst = max(worst, abs(d - halfspace_distance_oracle(p, q)))
            count += 1
        assert worst <= 1e-9

    def test_scaling_covariance(self, rng):
        for _ in range(20):
            p = random_lightlike(rng, 2)
            q = random_lightlike(rng, 2)
            lam = float(rng.uniform(0.2, 5.0))
            d0 = horoball_distance(p, q)
            d1 = horoball_distance(lam * p, q)
            assert abs(d1 - d0 - math.log(lam)) < 1e-10

    def test_length_isometry_invariant(self, rng):
        # the short cut between disjoint horoballs has length
        # horoball_distance, which a boost must not change
        for _ in range(20):
            p = random_lightlike(rng, 2)
            q = random_lightlike(rng, 2)
            if -lorentz_product(p, q) < 2.0:
                continue
            A = random_boost(rng, 2)
            d0 = horoball_distance(p, q)
            d1 = horoball_distance(A @ p, A @ q)
            assert abs(d0 - d1) < 1e-10


class TestMiddleFence:
    """The middle fences as the cut-locus stage builds them.

    ``cutlocus._klein_constraints`` stores the fence of p against q as
    the Klein-chart row a . k >= b with (b, a) = p - q, the spacelike
    normal of {x : <x,p> = <x,q>}.
    """

    @staticmethod
    def _normal(p, q):
        A, b = _klein_constraints(p, [SimpleNamespace(point=q)])
        return np.concatenate((b, A[0]))

    def test_mirror_symmetry_example(self):
        p = np.array([1.0, 1.0, 0.0])
        q = np.array([1.0, -1.0, 0.0])
        u = self._normal(p, q)
        assert np.allclose(u, [0.0, 2.0, 0.0])
        assert abs(lorentz_product(np.array([1.0, 0.0, 0.0]), u)) < 1e-12

    def test_fence_point_equidistant(self):
        p = np.array([1.0, 1.0, 0.0])
        q = np.array([1.0, -1.0, 0.0])
        x = np.array([1.0, 0.0, 0.0])
        d_p, d_q = _log_distances(x, np.array([p, q]))
        assert abs(d_p - d_q) < 1e-10

    def test_normal_spacelike_on_random_pairs(self, rng):
        # 100 random valid pairs
        count = 0
        while count < 100:
            p = random_lightlike(rng, 2)
            q = random_lightlike(rng, 2)
            if np.linalg.norm(p / np.linalg.norm(p) - q / np.linalg.norm(q)) < 1e-6:
                continue
            u = self._normal(p, q)
            assert lorentz_product(u, u) > 0
            count += 1

    def test_symmetric_in_arguments(self, rng):
        p = random_lightlike(rng, 2)
        q = random_lightlike(rng, 2)
        assert np.allclose(self._normal(p, q), -self._normal(q, p))


class TestShadowRadius:
    def test_substitution_values(self):
        assert abs(shadow_radius(0.0) - 0.5) < 1e-12
        assert abs(shadow_radius(math.log(2.0)) - 0.25) < 1e-12

    def test_strictly_decreasing_with_half_limit(self):
        # the limit is 0: a horoball infinitely far away casts a
        # vanishing shadow
        ds = np.linspace(0.0, 20.0, 200)
        vals = [shadow_radius(d) for d in ds]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert 0.0 < shadow_radius(50.0) < 1e-12

    def test_negative_rejected(self):
        with pytest.raises(GeometryError):
            shadow_radius(-0.1)


class TestHoroballPlaneDistance:
    def test_height_against_unit_semicircle(self):
        # horoball at infinity of height h against the wall through the
        # boundary points -1 and 1: distance log h
        u = np.array([0.0, 0.0, 1.0])
        for h in (1.5, 2.0, 5.0):
            p = h * np.array([1.0, 0.0, -1.0])
            assert abs(horoball_plane_distance(p, u) - math.log(h)) < 1e-12

    def test_center_on_wall_boundary_rejected(self):
        u = np.array([0.0, 1.0, 0.0])
        p = np.array([1.0, 0.0, 1.0])   # ideal point on the wall circle
        with pytest.raises(GeometryError):
            horoball_plane_distance(p, u)
