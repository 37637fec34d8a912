import gc
import json
import tracemalloc
import warnings
from itertools import product

import numpy as np
import pytest

from conftest import j_inverse, load_tool
from hypdecomp import group
from hypdecomp.doubling import symmetrize_decorations, wall_lifts
from hypdecomp.fixtures import fixture_path
from hypdecomp.group import (_GRID, HEIGHT_MERGE_REL, RAY_MERGE_ANGLE,
                             GroupSpec, OrbitPoint, OrbitSet, lorentz_inverse,
                             orbit, reflection_normal, validate_group,
                             validate_reflection)
from hypdecomp.io_cli import load_spec, parse_spec, run
from hypdecomp.minkowski import (GeometryError, classify, CausalClass,
                                 minkowski_form)

gen_fixtures = load_tool("gen_fixtures")
psl2_to_lorentz = gen_fixtures.psl2_to_lorentz
reflection_in_hyperplane = gen_fixtures.reflection_in_hyperplane


def trivial_group(cusps):
    return GroupSpec(2, [], [], cusps)


class TestValidateGroup:
    def test_trivial_group_valid(self):
        g = trivial_group([np.array([1.0, 0.0, 1.0])])
        assert validate_group(g).ok

    def test_bad_generator_named(self):
        g = GroupSpec(2, [np.diag([1.0, 2.0, 1.0])], [],
                      [np.array([1.0, 0.0, 1.0])])
        rep = validate_group(g)
        assert not rep.ok
        assert "generator 0" in str(rep)

    def test_figure_eight_generators(self, spec_fig8):
        # the standard parabolic pair passes all matrix checks
        assert validate_group(spec_fig8.group).ok

    def test_bad_cusp(self):
        g = trivial_group([np.array([1.0, 0.0, 0.0])])
        rep = validate_group(g)
        assert not rep.ok and "cusp 0" in str(rep)

    def test_non_involutive_reflection(self):
        g = GroupSpec(2, [], [np.diag([1.0, 2.0, 0.5])],
                      [np.array([1.0, 0.0, 1.0])])
        rep = validate_group(g)
        assert not rep.ok


class TestOrbit:
    def test_word_bound_zero(self, spec_3ps):
        pts = orbit(spec_3ps.group, 0, 50.0)
        assert len(pts) == 3
        for op in pts:
            assert _same_bits(op.matrix, np.eye(3))

    def test_trivial_group(self):
        g = trivial_group([np.array([1.0, 0.0, 1.0]), np.array([1.0, 0.0, -1.0])])
        pts = orbit(g, 5, 100.0)
        assert len(pts) == 2

    def test_pairwise_sign_condition(self, spec_3ps):
        # brute-force check over all pairs: products of future null
        # vectors are nonpositive, zero only for coincident rays
        pts = orbit(spec_3ps.group, 6, 20.0)
        for a in range(len(pts)):
            for b in range(a + 1, len(pts)):
                p, q = pts[a].point, pts[b].point
                assert np.dot(p, np.diag([-1.0, 1, 1]) @ q) <= 1e-12

    def test_deterministic(self, spec_3ps):
        a = orbit(spec_3ps.group, 5, 20.0)
        spec_3ps.group._ball_cache.clear()
        b = orbit(spec_3ps.group, 5, 20.0)
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert _same_bits(x.matrix, y.matrix)
            assert np.array_equal(x.point, y.point)

    def test_canonical_order_matches_rounded_key(self, spec_3ps, spec_fig8):
        # reference order: height rounded to 1e-9 (numpy scalar round),
        # then all coordinates rounded to 1e-9
        for g, wb, hb in ((spec_3ps.group, 6, 80.0), (spec_fig8.group, 5, 16.0)):
            pts = orbit(g, wb, hb)
            ref = sorted(pts, key=lambda op: (round(op.point[0], 9),
                                              tuple(np.round(op.point, 9))))
            assert [op.index for op in ref] == list(range(len(pts)))

    @pytest.mark.parametrize("name", sorted(
        ["thrice_punctured_sphere", "once_punctured_torus", "figure3_surface",
         "figure_eight_knot"]))
    def test_run_orbits_strictly_increase_in_rounded_key(self, all_reports,
                                                         name):
        # a run's orbit, and its stability orbit at (W + 1, 2H), are
        # strictly increasing in the coordinates rounded to 1e-9: no two
        # points tie, so every later choice can read orbit indices
        report = all_reports[name]
        opts = report.spec.options
        gs = symmetrize_decorations(report.spec.group, margin=opts.margin,
                                    word_bound=min(4, opts.word_bound),
                                    height_bound=opts.height_bound)
        for pts in (report.cut_complex.orbit_points,
                    orbit(gs, opts.word_bound + 1, 2.0 * opts.height_bound)):
            keys = [tuple(np.round(op.point, 9)) for op in pts]
            assert [op.index for op in pts] == list(range(len(pts)))
            assert all(k < k2 for k, k2 in zip(keys, keys[1:])), name

    def test_monotone_in_word_bound(self, spec_3ps):
        small = OrbitSet(orbit(spec_3ps.group, 4, 20.0))
        big = OrbitSet(orbit(spec_3ps.group, 5, 20.0))
        for op in small:
            assert big.find(op.point) is not None

    def test_all_points_lightlike_positive(self, spec_fig8):
        for op in orbit(spec_fig8.group, 4, 8.0):
            assert classify(op.point) is CausalClass.LIGHTLIKE
            assert op.point[0] > 0

    def test_reflection_closure(self, report_fig3):
        # tau p stays in the orbit whenever its height is within bounds
        gs = report_fig3.spec.group
        g = symmetrize_decorations(gs, margin=report_fig3.spec.options.margin,
                                   word_bound=4,
                                   height_bound=report_fig3.spec.options.height_bound)
        hb = report_fig3.spec.options.height_bound
        pts = OrbitSet(orbit(g, report_fig3.spec.options.word_bound, hb))
        misses = 0
        for tau in g.reflections:
            for op in pts:
                img = tau @ op.point
                if img[0] <= hb and pts.find(img) is None:
                    misses += 1
        assert misses == 0

    def test_bad_bounds(self, spec_3ps):
        with pytest.raises(GeometryError):
            orbit(spec_3ps.group, -1, 10.0)
        with pytest.raises(GeometryError):
            orbit(spec_3ps.group, 2, 0.0)


# Reference oracles: the per-point merge that the array ray-cell index
# replaced.  A dict maps each ray cell to a bucket of point indices; a
# lookup walks the probe cells of the query in lexicographic order, each
# bucket in insertion order, and returns the first stored point that
# the same-point test accepts.

_PROBE = np.array([[-2 * RAY_MERGE_ANGLE], [2 * RAY_MERGE_ANGLE]])


def _ray_cell(q):
    ray = q / np.linalg.norm(q)
    return tuple(np.floor(ray / _GRID).astype(np.int64).tolist())


def _is_same_point(a, b):
    ra, rb = a / np.linalg.norm(a), b / np.linalg.norm(b)
    cross = np.linalg.norm(ra - rb)  # ~ angle for tiny angles
    return cross < RAY_MERGE_ANGLE and abs(a[0] - b[0]) < HEIGHT_MERGE_REL * a[0]


def _probe_cells(q):
    """Ray cells, in lexicographic order, that can hold a point merging
    with q: those of its ray moved by up to 2 * RAY_MERGE_ANGLE along
    each axis, usually just its own cell."""
    ray = q / np.linalg.norm(q)
    lo, hi = np.floor((ray + _PROBE) / _GRID).astype(np.int64).tolist()
    return product(*(range(a, b + 1) for a, b in zip(lo, hi)))


def _merge_lookup(buckets, points, q):
    for cell in _probe_cells(q):
        for idx in buckets.get(cell, ()):
            if _is_same_point(points[idx].point, q):
                return idx
    return None


def _merge_insert(buckets, points, op: OrbitPoint):
    idx = len(points)
    points.append(op)
    buckets.setdefault(_ray_cell(op.point), []).append(idx)


def reference_find(points, queries):
    """``OrbitSet.lookup`` row by row: the position of the first match,
    or -1."""
    buckets = {}
    for i, op in enumerate(points):
        buckets.setdefault(_ray_cell(op.point), []).append(i)
    found = (_merge_lookup(buckets, points, q) for q in queries)
    return [-1 if idx is None else idx for idx in found]


def reference_lookup(buckets, points, q):
    """First match over all 3^k ray cells around q's own, in lexicographic
    order: the lookup that probing only the reachable cells replaced."""
    cell = _ray_cell(q)
    for off in product((-1, 0, 1), repeat=len(cell)):
        for idx in buckets.get(tuple(c + o for c, o in zip(cell, off)), ()):
            if _is_same_point(points[idx].point, q):
                return idx
    return None


def _boundary_ray(rng, k):
    """Unit vector whose first k - 1 coordinates sit within a few merge
    angles of a ray-cell boundary, so its neighbors straddle it."""
    r = rng.normal(size=k)
    r /= np.linalg.norm(r)
    r[:-1] = (np.round(r[:-1] / _GRID) * _GRID
              + rng.uniform(-3, 3, size=k - 1) * RAY_MERGE_ANGLE)
    r[-1] = np.copysign(np.sqrt(1.0 - r[:-1] @ r[:-1]), r[-1])
    return r


def _future_boundary_ray(rng, k):
    """A finite ``_boundary_ray`` turned to x0 > 0, so heights can merge."""
    with np.errstate(invalid="ignore"):
        r = _boundary_ray(rng, k)
        while not np.all(np.isfinite(r)):     # its last entry was sqrt(< 0)
            r = _boundary_ray(rng, k)
    return r if r[0] > 0 else -r


def _chain(rng, k, steps):
    """Points whose rays leave a boundary ray along one direction t,
    each ``steps[i]`` merge angles from the first; t is orthogonal to
    x0 too, so the heights stay within the merge scale."""
    r = _future_boundary_ray(rng, k)
    t = rng.normal(size=k)
    for u in (r, np.eye(k)[0] - r[0] * r):
        t -= (t @ u) / (u @ u) * u
    t /= np.linalg.norm(t)
    height = rng.uniform(1.0, 5.0)
    return [height * (r + s * RAY_MERGE_ANGLE * t)
            / np.linalg.norm(r + s * RAY_MERGE_ANGLE * t) for s in steps]


def _merged_cusps(points, height_bound=10.0):
    """Cusp ids that ``orbit`` keeps when the points are the cusp vectors
    of a group without generators, which must be what the per-point
    merge keeps, bit for bit and in the same order."""
    g = GroupSpec(len(points[0]) - 1, [], [], points)
    _assert_orbits_match(g, np.eye(len(points[0]))[None], (0, 1),
                         [(0, height_bound)])
    return sorted(op.cusp_id for op in orbit(g, 0, height_bound))


class TestMergeLookup:
    @pytest.mark.parametrize("k", [3, 4])
    def test_matches_all_neighbor_cells(self, rng, k):
        buckets, points, queries = {}, [], []
        for _ in range(300):
            r = _boundary_ray(rng, k)
            height = rng.uniform(1.0, 5.0)
            # a cluster of points around r, each moved by up to about two
            # merge angles, so some merge with a query and some do not
            for _ in range(3):
                s = r + rng.uniform(-1.5, 1.5, size=k) * RAY_MERGE_ANGLE
                p = height * s / np.linalg.norm(s)
                if reference_lookup(buckets, points, p) is None:
                    _merge_insert(buckets, points,
                                  OrbitPoint(p, 0, np.eye(k)))
                s = r + rng.uniform(-1.5, 1.5, size=k) * RAY_MERGE_ANGLE
                queries.append(height * s / np.linalg.norm(s))
        hits = 0
        for q in queries:
            want = reference_lookup(buckets, points, q)
            assert _merge_lookup(buckets, points, q) == want
            hits += want is not None
        # both outcomes, and merges across a cell boundary, are exercised
        assert 0 < hits < len(queries)
        assert any(_ray_cell(points[reference_lookup(buckets, points, q)].point)
                   != _ray_cell(q) for q in queries
                   if reference_lookup(buckets, points, q) is not None)
        # the batched lookup answers every query as the per-row one
        assert (OrbitSet(points).lookup(np.array(queries)).tolist()
                == reference_find(points, queries))

    @pytest.mark.parametrize("k", [3, 4])
    def test_batched_merge_matches_reference(self, k):
        # clusters of near points around boundary rays, merged in one
        # orbit call and one point at a time
        rng = np.random.default_rng((1, k))
        points = []
        for _ in range(200):
            r = _future_boundary_ray(rng, k)
            height = rng.uniform(1.0, 5.0)
            for _ in range(4):
                s = r + rng.uniform(-1.5, 1.5, size=k) * RAY_MERGE_ANGLE
                points.append(height * s / np.linalg.norm(s))
        assert 200 < len(_merged_cusps(points)) < len(points)

    @pytest.mark.parametrize("k", [3, 4])
    def test_non_transitive_chain_keeps_both_ends(self, k):
        # a ~ b and b ~ c but not a ~ c: b merges into a, and c, compared
        # with the kept points only, stays
        rng = np.random.default_rng((2, k))
        for _ in range(20):
            a, b, c = _chain(rng, k, (0.0, 0.6, 1.2))
            assert _is_same_point(a, b) and _is_same_point(b, c)
            assert not _is_same_point(a, c)
            assert _merged_cusps([a, b, c]) == [0, 2]

    @pytest.mark.parametrize("k", [3, 4])
    def test_first_match_in_probe_order_wins(self, k):
        # the query b matches both stored points; the one in the earlier
        # probe cell wins, whatever the list order
        rng = np.random.default_rng((3, k))
        across = 0
        for _ in range(40):
            a, b, c = _chain(rng, k, (0.0, 0.6, 1.2))
            for stored in ([a, c], [c, a]):
                ops = [OrbitPoint(p, 0, np.eye(k)) for p in stored]
                want = reference_find(ops, [b])
                assert OrbitSet(ops).lookup(b[None]).tolist() == want
                assert OrbitSet(ops).find(b) is ops[want[0]]
                across += want != [0]
        assert across     # some query is answered by the later point

    def test_empty_and_one_point_orbits(self):
        q = np.array([[1.0, 0.0, 1.0], [2.0, 2.0, 0.0]])
        assert OrbitSet([]).lookup(q).tolist() == [-1, -1]
        assert OrbitSet([]).lookup(np.empty((0, 3))).tolist() == []
        assert orbit(GroupSpec(2, [], [], []), 3, 10.0) == []
        pts = orbit(GroupSpec(2, [], [], [q[0]]), 3, 10.0)
        assert len(pts) == 1 and _same_bits(pts[0].point, q[0])
        one = OrbitSet(pts)
        assert one.lookup(q).tolist() == [0, -1]
        assert one.lookup(np.empty((0, 3))).tolist() == []

    def test_zero_and_non_finite_queries_miss_quietly(self, spec_fig8):
        pts = OrbitSet(orbit(spec_fig8.group, 4, 8.0))
        good = pts[3].point
        bad = [np.zeros(4), np.full(4, np.nan), np.array([np.inf, 0, 0, 1]),
               np.array([1.0, np.nan, 0.0, 1.0]), np.full(4, 1e200)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for q in bad:
                assert pts.find(q) is None
            assert pts.lookup(np.array([good] + bad + [good])).tolist() == (
                [3] + [-1] * len(bad) + [3])


class TestValidateReflection:
    def test_trivial_group_any_involution(self):
        g = trivial_group([np.array([1.0, 0.0, 1.0])])
        tau = reflection_in_hyperplane(np.array([0.0, 1.0, 0.0]))
        assert validate_reflection(tau, g)

    def test_generators_closed_under_conjugation(self):
        # group closed under conjugation by diag(1,-1,1)
        tau = np.diag([1.0, -1.0, 1.0])
        a = psl2_to_lorentz(np.array([[1.0, 2.0], [0.0, 1.0]]))
        g = GroupSpec(2, [a, tau @ a @ tau], [],
                      [np.array([1.0, 0.0, -1.0])])
        assert validate_reflection(tau, g, word_bound=2)

    def test_generic_reflection_not_certified(self, spec_fig8):
        u = np.array([0.3, 1.1, 0.2, -0.4])
        tau = reflection_in_hyperplane(u)
        assert not validate_reflection(tau, spec_fig8.group, word_bound=3)

    def test_non_involution_rejected(self, spec_3ps):
        with pytest.raises(GeometryError):
            validate_reflection(spec_3ps.group.generators[0], spec_3ps.group)

    def test_figure3_walls_certified(self, spec_fig3):
        for tau in spec_fig3.group.reflections:
            assert validate_reflection(tau, spec_fig3.group, word_bound=4)


class TestReflectionNormal:
    def test_householder_roundtrip(self, rng):
        for _ in range(10):
            u = rng.normal(size=3)
            if classify(u) is not CausalClass.SPACELIKE:
                continue
            R = reflection_in_hyperplane(u)
            v = reflection_normal(R)
            cross = np.outer(u, v) - np.outer(v, u)
            assert np.max(np.abs(cross)) < 1e-8 * np.linalg.norm(u)

    def test_inverse_is_exact(self, rng):
        from conftest import random_boost
        A = random_boost(rng, 3)
        assert np.max(np.abs(A @ lorentz_inverse(A) - np.eye(4))) < 1e-12


# Reference oracles: the per-element loops that the stacked word ball
# replaced.  The stack must reproduce them bit for bit.

def _key(m):
    """Bytes of m rounded to 1e-8, with -0.0 folded into 0.0."""
    return (np.round(m, 8) + 0.0).tobytes()


def reference_ball(g, word_bound):
    """Per-element BFS: (word, matrix) pairs, deduplicated on 1e-8 keys.
    The letters are ``g.letters()``'s, each inverse the literal J A^T J."""
    ball = [((), np.eye(g.dimension + 1))]
    seen = {_key(ball[0][1])}
    frontier = ball[:]
    letters = [(s * (i + 1), m) for i, a in enumerate(g.generators)
               for s, m in ((1, a), (-1, j_inverse(a)))]
    for _ in range(word_bound):
        new_frontier = []
        for word, A in frontier:
            for letter, m in letters:
                if word and word[-1] == -letter:
                    continue
                child = (word + (letter,), A @ m)
                key = _key(child[1])
                if key not in seen:
                    seen.add(key)
                    ball.append(child)
                    new_frontier.append(child)
        frontier = new_frontier
    return ball


def reference_orbit(g, matrices, height_bound):
    buckets, points = {}, []
    for A in matrices:
        for cusp_id, p in enumerate(g.cusp_reps):
            q = A @ p
            if q[0] > height_bound:
                continue
            if _merge_lookup(buckets, points, q) is not None:
                continue
            _merge_insert(buckets, points, OrbitPoint(q, cusp_id, A))
    points.sort(key=lambda op: tuple(np.round(op.point, 9)))
    return points


def reference_wall_lifts(g, ref_ball):
    J = minkowski_form(g.dimension + 1)
    return [A @ tau @ (J @ A.T @ J)
            for tau in g.reflections for _word, A in ref_ball]


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _fresh_group(name):
    return load_spec(fixture_path(name)).group


SHIPPED = {"thrice_punctured_sphere": 6, "once_punctured_torus": 6,
           "figure3_surface": 5, "figure_eight_knot": 6}
BALL_CASES = ([(n, wb) for n, wb in SHIPPED.items()]
              + [(n, wb + 1) for n, wb in SHIPPED.items()]
              + [("thrice_punctured_sphere", 8), ("once_punctured_torus", 8)])


def _orbit_case(name):
    """Spec of a fixture, of its document rotated by diag(1, Q), of its
    symmetrized decorations, or with a raised height bound."""
    fixture, _, case = name.partition(" ")
    if case == "symmetrized":
        spec = load_spec(fixture_path(fixture))
        o = spec.options
        spec.group = symmetrize_decorations(spec.group, o.margin,
                                            min(4, o.word_bound), o.height_bound)
        return spec
    if case == "rotated":
        doc = json.loads(fixture_path(fixture).read_text())
        n = doc["dimension"]
        R = np.eye(n + 1)
        R[1:, 1:] = np.linalg.qr(np.random.default_rng(1).normal(size=(n, n)))[0]
        for key in ("generators", "reflections"):
            doc[key] = [(R @ np.asarray(A) @ R.T).tolist()
                        for A in doc.get(key, [])]
        doc["cusps"] = [(R @ np.asarray(p)).tolist() for p in doc["cusps"]]
        return parse_spec(doc)
    spec = load_spec(fixture_path(fixture))
    if case.startswith("H="):
        spec.options.height_bound = float(case[2:])
    if case.startswith("W="):
        spec.options.word_bound = int(case[2:])
    return spec


# the fixtures, one seed-1 rotation of each, and the raised bounds of the
# benchmark's ladder and of the bound sweep
INDEX_CASES = sorted(SHIPPED) + [f"{name} rotated" for name in sorted(SHIPPED)] + [
    "figure_eight_knot H=12", "figure_eight_knot H=16",
    "figure3_surface H=320", "thrice_punctured_sphere W=8",
    "once_punctured_torus W=8"]


class TestRunLookups:
    @pytest.mark.parametrize("name", INDEX_CASES)
    def test_every_lookup_of_a_run_matches_reference(self, monkeypatch, name):
        # each batch a run looks up (the dual saturation's, and each
        # find's single row) is answered row by row as the per-point
        # lookup answers it
        lookup, rows = OrbitSet.lookup, []

        def checked(self, Q):
            got = lookup(self, Q)
            assert got.tolist() == reference_find(self.points, Q)
            rows.append(len(Q))
            return got

        monkeypatch.setattr(OrbitSet, "lookup", checked)
        run(_orbit_case(name))
        assert sum(rows) > len(rows)     # batches, not single rows only


class TestWordBallStack:
    @pytest.mark.parametrize("name,word_bound", BALL_CASES)
    def test_ball_matches_reference(self, name, word_bound):
        g = _fresh_group(name)
        ball = g.word_ball(word_bound)
        ref = reference_ball(g, word_bound)
        assert len(ball) == len(ref)
        assert _same_bits(ball.matrices, np.array([A for _, A in ref]))
        assert ball.letter.tolist() == [w[-1] if w else 0 for w, _ in ref]

    # the shipped cases' bounds include knot H = 16 and figure3 H = 320
    @pytest.mark.parametrize("name", [
        name for name in INDEX_CASES
        if name not in ("figure_eight_knot H=16", "figure3_surface H=320")]
        + ["figure3_surface symmetrized"])
    def test_orbit_and_stabilizers_match_reference(self, name):
        spec = _orbit_case(name)
        g, wb, hb = spec.group, spec.options.word_bound, spec.options.height_bound
        matrices, _, offsets = reference_arrays(g, wb + 1)
        _assert_orbits_match(g, matrices, offsets, [(0, hb)] + [
            (w, f * hb) for w in (wb, wb + 1) for f in (0.25, 1, 2, 4)])
        # an orbit builds the ball one level short of its word bound
        assert max(g._ball_cache) <= wb
        for cusp_id, p in enumerate(g.cusp_reps):
            scale = float(np.max(np.abs(p)))
            ref = [A for A in matrices
                   if np.max(np.abs(A @ p - p)) <= 1e-8 * scale]
            assert _same_bits(g.stabilizer_stack(cusp_id, wb + 1),
                              np.array(ref))

    def test_orbit_of_a_closed_ball_matches_reference(self):
        # a rotation of order 3: level 2 comes out empty, and so does the
        # last level of every ball that an orbit with word bound >= 3 reads
        c, s = -0.5, np.sqrt(0.75)
        g = GroupSpec(2, [np.array([[1.0, 0.0, 0.0], [0.0, c, -s],
                                    [0.0, s, c]])], [],
                      [np.array([1.0, 0.0, 1.0]), np.array([2.0, 1.2, 1.6])])
        matrices, _, offsets = reference_arrays(g, 5)
        assert offsets == (0, 1, 3, 3, 3, 3, 3)
        _assert_orbits_match(g, matrices, offsets,
                             list(product(range(6), (0.5, 1.0, 4.0))))

    def test_wall_lifts_match_reference(self):
        g = _fresh_group("figure3_surface")
        lifts = wall_lifts(g, SHIPPED["figure3_surface"])
        ref = reference_wall_lifts(g, reference_ball(g, SHIPPED["figure3_surface"]))
        # every conjugate, duplicates included, in (wall, ball) order
        assert len(lifts) == 2 * len(g.word_ball(SHIPPED["figure3_surface"]))
        assert _same_bits(lifts, np.array(ref))

    def test_no_signed_zero_twins(self):
        # a tuple of Python floats does not tell -0.0 from 0.0, so equal
        # rounded keys mean one matrix kept twice
        g = _fresh_group("figure_eight_knot")
        ball = g.word_ball(7)
        keys = {tuple(np.round(m, 8).ravel().tolist()) for m in ball.matrices}
        assert len(keys) == len(ball) == 3955

    def test_no_generators_is_identity(self):
        g = GroupSpec(2, [], [], [np.array([1.0, 0.0, 1.0])])
        ball = g.word_ball(5)
        assert len(ball) == 1
        assert _same_bits(ball.matrices, np.eye(3)[None])
        assert ball.letter.tolist() == [0]
        assert len(orbit(g, 5, 10.0)) == 1

    def test_no_point_under_the_height_bound(self, spec_fig8):
        assert orbit(spec_fig8.group, 6, 0.5) == []
        assert OrbitSet([]).find(spec_fig8.group.cusp_reps[0]) is None

    def test_no_cusps(self, spec_3ps):
        g = GroupSpec(2, spec_3ps.group.generators, [], [])
        assert orbit(g, 4, 50.0) == []
        assert _is_reference_prefix(g.word_ball(4), reference_arrays(g, 4), 4)

    def test_stack_is_read_only(self, spec_3ps):
        ball = spec_3ps.group.word_ball(2)
        with pytest.raises(ValueError):
            ball.matrices[0, 0, 0] = 2.0

    def test_ball_keeps_little_memory(self):
        # what the cached ball keeps alive: the stack plus its int32
        # letters, no other per-element array and no per-element objects
        # (those cost several times the stack);
        # while building, the dedup keys and one block of products at a
        # time (a whole level at once peaked at 5.5 times the stack)
        g = _fresh_group("figure3_surface")
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            ball = g.word_ball(6)
            gc.collect()
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(ball) == 115589
        assert kept - before < 1.1 * ball.matrices.nbytes
        assert peak - before < 4 * ball.matrices.nbytes


def _assert_orbits_match(g, matrices, offsets, bounds):
    """``orbit`` at each (word bound, height bound) is bitwise the
    reference orbit of the reference ball's prefix at that word bound."""
    for word_bound, height_bound in bounds:
        ref = reference_orbit(g, matrices[:offsets[word_bound + 1]],
                              height_bound)
        pts = orbit(g, word_bound, height_bound)
        assert len(pts) == len(ref)
        for op, rp in zip(pts, ref):
            assert op.cusp_id == rp.cusp_id
            assert _same_bits(op.point, rp.point)
            assert _same_bits(op.matrix, rp.matrix)


def reference_arrays(g, word_bound):
    """``reference_ball`` as (matrices, letters, offsets) arrays."""
    ref = reference_ball(g, word_bound)
    letters = [word[-1] if word else 0 for word, _ in ref]
    offsets = [0] + [sum(len(word) <= k for word, _ in ref)
                     for k in range(word_bound + 1)]
    return (np.array([A for _, A in ref]), np.array(letters, dtype=np.int32),
            tuple(offsets))


def _is_reference_prefix(ball, ref, word_bound):
    matrices, letters, offsets = ref
    n = offsets[word_bound + 1]
    return (ball.offsets == offsets[:word_bound + 2]
            and _same_bits(ball.matrices, matrices[:n])
            and _same_bits(ball.letter, letters[:n]))


class TestOneBall:
    """A spec keeps one ball and serves every bound as a prefix of it."""

    @pytest.mark.parametrize("name", sorted(SHIPPED))
    def test_any_request_order_gives_the_reference(self, name):
        top = SHIPPED[name] + 1
        ref = reference_arrays(_fresh_group(name), top)
        bounds = range(top + 1)
        for order in (bounds, reversed(bounds)):
            g = _fresh_group(name)
            for k in order:
                assert _is_reference_prefix(g.word_ball(k), ref, k)
        for k in bounds:
            assert _is_reference_prefix(_fresh_group(name).word_ball(k),
                                        ref, k)

    def test_prefix_is_a_read_only_view(self):
        g = _fresh_group("once_punctured_torus")
        deep, small = g.word_ball(5), g.word_ball(3)
        assert np.shares_memory(small.matrices, deep.matrices)
        assert len(small) == deep.offsets[4]
        for a in (small.matrices, small.letter):
            assert not a.flags.writeable

    def test_growth_starts_from_the_last_level(self, monkeypatch):
        # every level is multiplied out once: the second growth keys the
        # stack it starts from once, then only the products of level 6
        g = _fresh_group("thrice_punctured_sphere")
        g.word_ball(5)
        keyed = []
        first_new = group._first_new

        def counted(stack, seen):
            keyed.append(len(stack))
            return first_new(stack, seen)

        monkeypatch.setattr(group, "_first_new", counted)
        ball = g.word_ball(6)
        n4, n5, n6 = ball.offsets[5:8]
        assert keyed[0] == n5
        # each level-5 element times the alphabet, less its backtrack
        assert sum(keyed[1:]) == (n5 - n4) * (len(g.letters()) - 1)
        assert n6 > n5

    @pytest.mark.parametrize("offsets,generators", [
        ((0, 1, 1), []),
        # a rotation of order 3: level 2 comes out empty
        ((0, 1, 3, 3), [np.array([[1.0, 0.0, 0.0],
                               [0.0, -0.5, -np.sqrt(0.75)],
                               [0.0, np.sqrt(0.75), -0.5]])]),
    ])
    def test_closed_ball_serves_larger_bounds(self, monkeypatch, offsets,
                                              generators):
        g = GroupSpec(2, generators, [], [np.array([1.0, 0.0, 1.0])])
        ball = g.word_ball(6)
        assert ball.offsets == offsets     # the last level is empty
        monkeypatch.setattr(group, "_grow", None)     # no growth from here
        for k in (3, 9, 20):
            assert g.word_ball(k).offsets == offsets
            assert len(g.word_ball(k)) == offsets[-1]
        assert len(g.word_ball(0)) == 1

    def test_run_grows_one_ball_per_generator_set(self, monkeypatch):
        # g keeps the bound-4 ball that validation asked of it; the
        # symmetrized spec starts from that same object and grows its
        # own copy, one level range per growth, none twice, and never
        # past the word bound: the stability orbit at word bound + 1
        # forms its last level itself, screened by height and uncached
        spec = load_spec(fixture_path("figure3_surface"))
        g, opts = spec.group, spec.options
        grown, specs = [], []
        grow, word_ball = group._grow, GroupSpec.word_ball

        def recorded(ball, alphabet, word_bound, reach=None):
            out = grow(ball, alphabet, word_bound, reach)
            if reach is None:
                grown.append((len(ball.offsets) - 2, len(out.offsets) - 2))
            return out

        def asked(self, word_bound):
            specs.append(self)
            return word_ball(self, word_bound)

        monkeypatch.setattr(group, "_grow", recorded)
        monkeypatch.setattr(GroupSpec, "word_ball", asked)
        ball4 = g.word_ball(4)
        gs = symmetrize_decorations(g, opts.margin, 4, opts.height_bound)
        assert gs.word_ball(4) is ball4
        gs.word_ball(opts.word_bound + 1)
        assert set(g._ball_cache) == {4}
        assert grown == [(0, 4), (4, opts.word_bound + 1)]
        grown.clear()
        specs.clear()
        run(spec)
        assert set(g._ball_cache) == {4}
        assert grown == [(4, opts.word_bound)]
        # g, the symmetrizing probe and the symmetrized spec
        assert len({id(s) for s in specs}) == 3
        assert all(max(s._ball_cache) <= opts.word_bound for s in specs)

    @pytest.mark.parametrize("name", ["figure3_surface", "figure_eight_knot"])
    def test_run_leaves_every_bound_a_view_of_one_stack(self, monkeypatch,
                                                         name):
        # a growth re-cuts every bound the spec had cached from the grown
        # stack, so no spec keeps an older, shorter copy of its prefix
        specs = []
        word_ball = GroupSpec.word_ball

        def asked(self, word_bound):
            specs.append(self)
            return word_ball(self, word_bound)

        monkeypatch.setattr(GroupSpec, "word_ball", asked)
        run(load_spec(fixture_path(name)))
        grown = [s for s in {id(s): s for s in specs}.values()
                 if len(s._ball_cache) > 1]
        assert grown
        for s in grown:
            deepest = s._ball_cache[max(s._ball_cache)]
            for ball in s._ball_cache.values():
                assert np.shares_memory(ball.matrices, deepest.matrices)
                assert np.shares_memory(ball.letter, deepest.letter)

    def test_run_peaks_under_18_mb(self):
        # the stability orbit at word bound + 1 forms its last level only
        # where it can reach 2H: the whole ball of that length (115,589
        # matrices) would peak at about 27 MB
        spec = load_spec(fixture_path("figure3_surface"))
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            report = run(spec)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert report.ok
        assert peak < 18e6

    def test_report_keeps_no_stack(self):
        # the report copies the few matrices it keeps (orbit points,
        # quotient pairings, wall reflections) instead of viewing the
        # word ball, the quotient's star stack or the wall lifts
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            report = run(load_spec(fixture_path("figure3_surface")))
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert report.ok
        assert kept < 1 << 20
