from fractions import Fraction
from itertools import combinations
from operator import mul

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import hull_vertex_ids, load_tool
from hypdecomp.doubling import symmetrize_decorations
from hypdecomp.fixtures import fixture_path
from hypdecomp.group import orbit
from hypdecomp.hull import IncrementalHull, OrientPredicate, _cofactors
from hypdecomp.io_cli import load_spec
from hypdecomp.minkowski import GeometryError

# the exact validity oracle that CI's hull count gate also runs
hull_counts = load_tool("hull_counts")


def _fraction_det(rows):
    """Oracle: Laplace expansion over Fractions."""
    if len(rows) == 1:
        return rows[0][0]
    total = Fraction(0)
    for j, a in enumerate(rows[0]):
        if a:
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            total += (-1) ** j * a * _fraction_det(minor)
    return total


def _oracle_sign(points):
    """Exact sign of det[p1-p0, ..., pd-p0] from the float coordinates."""
    fr = [[Fraction(float(c)) for c in p] for p in points]
    d = _fraction_det([[a - b for a, b in zip(p, fr[0])] for p in fr[1:]])
    return (d > 0) - (d < 0)


def _cofactor_det(*rows):
    """det[rows] as the last row dotted with the others' cofactor normal."""
    return sum(map(mul, _cofactors(rows[:-1]), rows[-1]))


class TestExactDet:
    def test_small_cases(self):
        assert _cofactor_det([1, 2, 0], [3, 4, 0], [0, 0, 1]) == -2

    def test_matches_float_det(self, rng):
        for _ in range(20):
            M = rng.integers(-5, 5, size=(4, 4))
            rows = [[int(x) for x in r] for r in M]
            assert _cofactor_det(*rows) == pytest.approx(np.linalg.det(M),
                                                         abs=1e-6)


class TestOrientPredicate:
    def test_exact_fallback_on_degenerate(self):
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                        [0.3, 0.4, 0.0], [0.0, 0.0, 1.0]])
        pred = OrientPredicate(pts)
        assert pred.sign((0, 1, 2), 3) == 0      # exactly coplanar
        assert pred.sign((0, 1, 2), 4) != 0

    def test_unsupported_dimension(self):
        with pytest.raises(GeometryError):
            OrientPredicate(np.eye(2))

    def test_mean_query_is_exact(self):
        # the mean (1/3, 1/3, 1/3) of the three unit points is exactly on
        # their plane, but its rounded float row is not
        pts = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
                        [0.0, 0.0, 0.0]])
        pred = OrientPredicate(pts)
        assert pred.sign((0, 1, 2), pred.add_mean([0, 1, 2])) == 0
        assert pred.sign((0, 1, 2), pred.add_mean([0, 1, 3])) != 0


NON_DYADIC = [0.1, 0.3, 1.0 / 3.0, -0.1, -0.3, -1.0 / 3.0, 2.0 / 3.0, 0.7, 0.0]
# coordinates whose exponents span 1e-300 .. 1e300, plus subnormals
WIDE = st.one_of(
    st.builds(lambda m, e: m * 10.0 ** e,
              st.floats(-1.0, 1.0), st.integers(-300, 300)),
    st.floats(-2.0 ** -1022, 2.0 ** -1022),
    st.sampled_from([0.0, 5e-324, -5e-324, 1e-310, 1.0]),
)


@st.composite
def _point_sets(draw, coords):
    d = draw(st.sampled_from([3, 4]))
    return [[draw(coords) for _ in range(d)] for _ in range(d + 1)]


@st.composite
def _row_scaled_sets(draw):
    # one decimal exponent per row; pairs of rows near 1e-158 have
    # 2x2 minors that underflow, and rows near 1e150 magnify the loss
    d = draw(st.sampled_from([3, 4]))
    pts = [[0.0] * d]
    for _ in range(d):
        e = draw(st.one_of(st.integers(-300, 300),
                           st.integers(-165, -150), st.integers(140, 160)))
        pts.append([draw(st.floats(-1.0, 1.0)) * 10.0 ** e for _ in range(d)])
    return pts


@st.composite
def _coplanar_sets(draw):
    # every point on the hyperplane x_{d-1} = s * x_0 through the origin
    d = draw(st.sampled_from([3, 4]))
    s = draw(st.sampled_from([1.0, -1.0]))
    pts = []
    for _ in range(d + 1):
        row = [draw(st.sampled_from(NON_DYADIC)) for _ in range(d - 1)]
        pts.append(row + [s * row[0]])
    return pts


def _check_against_oracle(pts):
    d = len(pts[0])
    expected = _oracle_sign(pts)
    pred = OrientPredicate(np.array(pts))
    assert pred.sign(tuple(range(d)), d) == expected
    return expected


class TestOrientPredicateOracle:
    @settings(max_examples=150, deadline=None)
    @given(_point_sets(st.floats(-10.0, 10.0)))
    def test_random_rows(self, pts):
        _check_against_oracle(pts)

    @settings(max_examples=150, deadline=None)
    @given(_coplanar_sets())
    def test_exactly_coplanar_non_dyadic(self, pts):
        assert _check_against_oracle(pts) == 0

    @settings(max_examples=150, deadline=None)
    @given(_point_sets(WIDE))
    def test_exponent_spread(self, pts):
        _check_against_oracle(pts)

    @settings(max_examples=300, deadline=None)
    @given(_row_scaled_sets())
    @example([[0.0] * 4,
              [-2.0647375880591597e-162, 2.0824549642979478e-162,
               -2.0933992489194484e-163, 6.102873481427692e-163],
              [2.1387606775308573e-162, -7.858783085478972e-163,
               -1.3519266670294559e-162, 9.036398072013027e-163],
              [9.328409088940876e+144, 4.9761522870943554e+144,
               -1.0457017526734847e+145, -8.914421438844654e+143],
              [-2.894621833599295e+144, -1.4828407173694998e+145,
               9.022940906877454e+144, 8.905205712824054e+144]])
    def test_row_exponent_spread(self, pts):
        # the example's 2x2 minors underflow in floats
        _check_against_oracle(pts)


class TestIncrementalHull3D:
    def test_cube(self):
        pts = np.array([[x, y, z] for x in (0, 1) for y in (0, 1)
                        for z in (0, 1)], dtype=float)
        hull = IncrementalHull(pts)
        assert len(hull_vertex_ids(hull)) == 8
        assert len(hull.facets) == 12            # simplicial facets
        ridges = {}
        for idx, f in enumerate(hull.facets):
            for ridge in combinations(f.vertices, hull.dim - 1):
                ridges.setdefault(ridge, []).append(idx)
        assert len(ridges) == 18
        assert all(len(inc) == 2 for inc in ridges.values())

    def test_interior_points_dropped(self, rng):
        corners = np.array([[x, y, z] for x in (0, 1) for y in (0, 1)
                            for z in (0, 1)], dtype=float)
        inner = rng.uniform(0.2, 0.8, size=(20, 3))
        hull = IncrementalHull(np.vstack([corners, inner]))
        assert hull_vertex_ids(hull) == list(range(8))

    def test_square_pyramid_coplanar_base(self):
        pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0],
                        [0.5, 0.5, 1.0]])
        hull = IncrementalHull(pts)
        assert len(hull_vertex_ids(hull)) == 5
        assert len(hull.facets) == 6             # 4 sides + 2 base triangles

    def test_sphere_points_all_vertices(self, rng):
        v = rng.normal(size=(40, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        hull = IncrementalHull(v)
        assert hull_vertex_ids(hull) == list(range(40))

    def test_exact_and_auto_agree(self, rng):
        hull = IncrementalHull(rng.normal(size=(15, 3)))
        assert hull_counts.invalid_counts(hull) == (0, 0, 0)

    def test_degenerate_coplanar_input(self):
        pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0],
                        [0.5, 0.3, 0]], dtype=float)
        with pytest.raises(GeometryError):
            IncrementalHull(pts)

    def test_too_few_points(self):
        with pytest.raises(GeometryError):
            IncrementalHull(np.eye(3)[:2])


class TestIncrementalHull4D:
    def test_cross_polytope(self):
        pts = np.vstack([np.eye(4), -np.eye(4)])
        hull = IncrementalHull(pts)
        assert len(hull.facets) == 16

    def test_hypercube(self):
        pts = np.array([[a, b, c, d] for a in (0, 1) for b in (0, 1)
                        for c in (0, 1) for d in (0, 1)], dtype=float)
        hull = IncrementalHull(pts)
        assert len(hull_vertex_ids(hull)) == 16
        # every facet normal is an axis direction
        for f in hull.facets:
            assert np.sum(np.abs(np.abs(f.normal) - 1.0) < 1e-9) == 1

    def test_random_points_convexity(self, rng):
        pts = rng.normal(size=(30, 4))
        hull = IncrementalHull(pts)
        for f in hull.facets:
            margin = pts @ f.normal - f.offset
            assert np.max(margin) < 1e-9 * max(1.0, abs(f.offset))


class TestKnotOrbitRegression:
    def test_auto_and_always_agree_on_stability_orbit(self, spec_fig8):
        # the enlarged orbit the stability certificate builds for the knot
        g, o = spec_fig8.group, spec_fig8.options
        gs = symmetrize_decorations(g, margin=o.margin,
                                    word_bound=min(4, o.word_bound),
                                    height_bound=o.height_bound)
        ops = orbit(gs, o.word_bound + 1, 2.0 * o.height_bound)
        P = np.array([op.point for op in ops])
        assert P.shape == (102, 4)
        hull = IncrementalHull(P)
        assert hull_counts.invalid_counts(hull) == (0, 0, 0)


class TestHullValidity:
    @pytest.mark.parametrize("name,height", [("figure_eight_knot", None),
                                             ("figure_eight_knot", 12.0),
                                             ("figure3_surface", None)])
    @pytest.mark.parametrize("stability", [False, True])
    def test_pipeline_orbits(self, name, height, stability):
        # the main and the stability orbit, built as run() builds them
        spec = load_spec(fixture_path(name))
        g, o = spec.group, spec.options
        if height is not None:
            o.height_bound = height
        gs = symmetrize_decorations(g, margin=o.margin,
                                    word_bound=min(4, o.word_bound),
                                    height_bound=o.height_bound)
        k = 1 if stability else 0
        ops = orbit(gs, o.word_bound + k, o.height_bound * 2 ** k)
        hull = IncrementalHull(np.array([op.point for op in ops]))
        # bad (facet, point) pairs, bad ridges, bad normals
        assert hull_counts.invalid_counts(hull) == (0, 0, 0)


@st.composite
def _sliver_sets(draw):
    """Lattice sets with exactly coplanar groups moved out to 1e3..1e6, or
    light-cone points under a boost of that size, where facets are slivers."""
    d = draw(st.sampled_from([3, 4]))
    mag = 10.0 ** draw(st.integers(3, 6))
    kind = draw(st.sampled_from(["translate", "stretch", "boost"]))
    if kind == "boost":
        # h (1 + |s|^2, 2 s, 1 - |s|^2) is lightlike and dyadic for s in
        # Z^(d-2) / 4; the points of one height h are coplanar
        ss = draw(st.lists(st.tuples(st.sampled_from([0.5, 1.0, 2.0]),
                                     *[st.integers(-4, 4)] * (d - 2)),
                           max_size=16))
        # d independent rays and a second height on one of them
        rays = ([(0,) * (d - 2), (-4,) * (d - 2)]
                + [tuple(4 * (i == j) for j in range(d - 2)) for i in range(d - 2)])
        base = [(1.0, *r) for r in rays] + [(2.0, *rays[0])]
        P = []
        for h, *s in dict.fromkeys(base + ss):
            s = np.array(s) / 4.0
            q = float(s @ s)
            P.append([h * (1.0 + q), *(2.0 * h * s), h * (1.0 - q)])
        B = np.eye(d)
        B[0, 0] = B[1, 1] = mag
        B[0, 1] = B[1, 0] = np.sqrt(mag * mag - 1.0)
        return np.array(P) @ B.T
    cube = [[0] * d] + [[3 * (i == j) for j in range(d)] for i in range(d)]
    more = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * d), max_size=20))
    P = np.array(cube + [list(p) for p in more], dtype=float)
    if kind == "translate":
        P += np.array([draw(st.integers(-1000, 1000)) for _ in range(d)]) * mag / 1000
    else:
        P[:, draw(st.integers(0, d - 1))] *= 2.0 ** round(np.log2(mag))
    return P


class TestHullValidityProperty:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_sliver_sets())
    def test_valid_and_modes_agree(self, P):
        assert hull_counts.invalid_counts(IncrementalHull(P)) == (0, 0, 0)
