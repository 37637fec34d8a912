import json

import numpy as np
import pytest

from conftest import cell_is_convex, face_walk, set_match
from hypdecomp import ep_hull
from hypdecomp.doubling import symmetrize_decorations
from hypdecomp.ep_hull import (HullFace, assemble_decomposition,
                               certified_faces, count_face_classes,
                               dihedral_angles, ellipsoid_top,
                               face_sets_equal, hull_faces, project_face,
                               stability_certificate, stable_faces,
                               support_vector)
from hypdecomp.fixtures import fixture_path
from hypdecomp.group import GroupSpec, OrbitPoint, OrbitSet, orbit
from hypdecomp.io_cli import load_spec, parse_spec, run
from hypdecomp.minkowski import GeometryError, lorentz_gram, lorentz_product

TRIANGLE = np.array([[1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [1.0, 0.0, 1.0]])


def make_orbit_points(coords):
    pts = []
    for i, c in enumerate(np.asarray(coords, dtype=float)):
        pts.append(OrbitPoint(point=c, cusp_id=0,
                              matrix=np.eye(len(c)), index=i))
    return pts


class TestSupportVector:
    def test_triangle_solution(self):
        # oracle: direct 3x3 linear solve of <p_i, w> = -1
        J = np.diag([-1.0, 1.0, 1.0])
        oracle = np.linalg.solve(TRIANGLE @ J, -np.ones(3))
        w = support_vector(TRIANGLE)
        assert np.allclose(w, oracle)
        assert np.allclose(w, [1.0, 0.0, 0.0])

    def test_single_point_degenerate(self):
        with pytest.raises(GeometryError):
            support_vector(TRIANGLE[:1])

    def test_scaling_inverse(self):
        w = support_vector(TRIANGLE)
        w3 = support_vector(3.0 * TRIANGLE)
        assert np.allclose(w3, w / 3.0)

    def test_inconsistent_overdetermined(self):
        bad = np.vstack([TRIANGLE, [2.0, 0.0, -2.0]])
        with pytest.raises(GeometryError):
            support_vector(bad)

    def test_consistent_overdetermined(self):
        extra = np.array([1.0, 0.0, -1.0])     # also satisfies <p,(1,0,0)> = -1
        w = support_vector(np.vstack([TRIANGLE, extra]))
        assert np.allclose(w, [1.0, 0.0, 0.0])


class TestHullFaces:
    def test_three_points_single_face(self):
        faces = hull_faces(make_orbit_points(TRIANGLE))
        assert len(faces) == 1
        assert faces[0].vertex_ids == (0, 1, 2)
        assert np.allclose(faces[0].support, [1.0, 0.0, 0.0])

    def test_scaled_copies_stay_inside(self):
        pts = make_orbit_points(np.vstack([TRIANGLE, 2.0 * TRIANGLE]))
        faces = hull_faces(pts)
        assert len(faces) == 1
        assert set(faces[0].vertex_ids) == {0, 1, 2}
        w = faces[0].support
        for q in 2.0 * TRIANGLE:
            assert lorentz_product(q, w) < -1.0

    def test_coplanar_square_merged(self):
        # four cone points on one support plane plus scaled copies above
        square = np.array([[1.0, 1.0, 0.0], [1.0, -1.0, 0.0],
                           [1.0, 0.0, 1.0], [1.0, 0.0, -1.0]])
        pts = make_orbit_points(np.vstack([square, 3.0 * square]))
        faces = hull_faces(pts)
        assert len(faces) == 1
        assert set(faces[0].vertex_ids) == {0, 1, 2, 3}

    def test_face_set_closed_under_generators(self, report_3ps):
        spec = report_3ps.spec
        g = spec.group
        pts = OrbitSet(orbit(g, spec.options.word_bound,
                             spec.options.height_bound))
        faces = hull_faces(pts)
        cert = certified_faces(faces, spec.options.height_bound)
        coords = np.array([op.point for op in pts])
        face_sets = [coords[list(f.vertex_ids)] for f in faces]
        misses = 0
        checked = 0
        for f in cert:
            A = coords[list(f.vertex_ids)]
            for gen in g.generators:
                img = A @ gen.T
                if np.max(img[:, 0]) > spec.options.height_bound / 2.0:
                    continue
                checked += 1
                if not any(B.shape == img.shape and set_match(img, B, 1e-6)
                           for B in face_sets):
                    misses += 1
        assert checked > 0 and misses == 0

    def test_convex_side(self, report_3ps):
        spec = report_3ps.spec
        pts = OrbitSet(orbit(spec.group, 6, 20.0))
        # every orbit point satisfies <q, w> <= -1 for every face support w
        coords = np.array([op.point for op in pts])
        for f in hull_faces(pts):
            prods = lorentz_gram(coords, f.support[None, :]).ravel()
            assert np.max(prods) <= -1.0 + 1e-7 * max(
                1.0, float(np.max(np.abs(f.support))))

    def test_all_supports_future_timelike(self, report_fig8):
        spec = report_fig8.spec
        pts = OrbitSet(orbit(spec.group, 5, 8.0))
        for f in hull_faces(pts):
            assert lorentz_product(f.support, f.support) < 0
            assert f.support[0] > 0


def stability_at(g, word_bound, height_bound):
    """The stability certificate on the base orbit and faces run() builds."""
    pts = OrbitSet(orbit(g, word_bound, height_bound))
    # too few points for a hull: no faces
    faces = (certified_faces(hull_faces(pts), height_bound)
             if len(pts) >= g.dimension + 1 else [])
    return stability_certificate(g, pts, faces, word_bound, height_bound)


class TestStability:
    def test_trivial_group_vacuous(self):
        g = GroupSpec(2, [], [], [np.array([1.0, 0.0, 1.0])])
        assert stability_at(g, 3, 10.0)

    def test_thrice_punctured_stable(self, spec_3ps):
        assert stability_at(spec_3ps.group, 6, 20.0)

    def test_low_word_bound_unstable(self, spec_fig8):
        # three orbit points at word bound 1: no hull, no faces
        assert len(orbit(spec_fig8.group, 1, 8.0)) == 3
        assert not stability_at(spec_fig8.group, 1, 8.0)


def reference_stability(g, points, faces, word_bound, height_bound):
    """The certificate on the hull of the whole (word_bound + 1, 2H)
    orbit: (verdict, that orbit, its certified faces or None when the
    hull fails)."""
    big = OrbitSet(orbit(g, word_bound + 1, 2.0 * height_bound))
    try:
        big_faces = (certified_faces(hull_faces(big), height_bound)
                     if len(big) >= g.dimension + 1 else [])
    except GeometryError:
        return False, big, None
    if not faces:
        return len(points) == len(big) and not big_faces, big, big_faces
    return face_sets_equal(faces, points, big_faces, big), big, big_faces


def _spec(name, draw=None, **overrides):
    """A fixture's spec with option overrides, its coordinates conjugated
    by the draw-th rotation diag(1, Q) of numpy's default_rng(1) when a
    draw is given."""
    if draw is None:
        spec = load_spec(fixture_path(name))
    else:
        doc = json.loads(fixture_path(name).read_text())
        rng = np.random.default_rng(1)
        for _ in range(draw + 1):
            Q, _ = np.linalg.qr(rng.standard_normal((doc["dimension"],) * 2))
        R = np.eye(doc["dimension"] + 1)
        R[1:, 1:] = Q
        for key in ("generators", "reflections"):
            doc[key] = [(R @ np.asarray(A) @ R.T).tolist()
                        for A in doc.get(key, [])]
        doc["cusps"] = [(R @ np.asarray(p)).tolist() for p in doc["cusps"]]
        spec = parse_spec(doc)
    for key, value in overrides.items():
        setattr(spec.options, key, value)
    return spec


def _run_inputs(spec):
    """The symmetrized group, base orbit and certified faces run() builds."""
    o = spec.options
    gs = symmetrize_decorations(spec.group, margin=o.margin,
                                word_bound=min(4, o.word_bound),
                                height_bound=o.height_bound)
    pts = OrbitSet(orbit(gs, o.word_bound, o.height_bound))
    faces = (certified_faces(hull_faces(pts), o.height_bound)
             if len(pts) >= gs.dimension + 1 else [])
    return gs, pts, faces


FIXTURES = ["thrice_punctured_sphere", "once_punctured_torus",
            "figure3_surface", "figure_eight_knot"]
PRUNED_CASES = (
    [(name, None, {}) for name in FIXTURES]
    + [("figure_eight_knot", None, {"height_bound": h}) for h in (4.0, 12.0, 16.0)]
    + [("figure3_surface", None, {"height_bound": 320.0}),
       ("figure3_surface", None, {"word_bound": 6})]
    + [(name, draw, {}) for name in FIXTURES for draw in range(6)])


def _case_id(case):
    name, draw, overrides = case
    return " ".join([name] + ([] if draw is None else [f"rotation {draw}"])
                    + [f"{k}={v:g}" for k, v in overrides.items()])


class TestPrunedStability:
    @pytest.mark.parametrize("name,draw,overrides", PRUNED_CASES,
                             ids=map(_case_id, PRUNED_CASES))
    def test_matches_full_hull(self, name, draw, overrides):
        spec = _spec(name, draw, **overrides)
        o = spec.options
        gs, pts, faces = _run_inputs(spec)
        ok, big, ref_faces = reference_stability(gs, pts, faces, o.word_bound,
                                                 o.height_bound)
        assert stability_certificate(gs, pts, faces, o.word_bound,
                                     o.height_bound) == ok
        assert ref_faces is not None
        low, got = stable_faces(list(big), faces, o.height_bound)
        assert face_sets_equal(ref_faces, big, got, low)

    def test_hull_sizes_and_growth(self, monkeypatch):
        sizes = []
        real = ep_hull.hull_faces

        def recording(points):
            sizes.append(len(points))
            return real(points)

        monkeypatch.setattr(ep_hull, "hull_faces", recording)
        for name, want, total in (("figure_eight_knot", [8], 102),
                                  ("figure3_surface", [32, 60], 98)):
            spec = _spec(name)
            gs, pts, faces = _run_inputs(spec)
            o = spec.options
            sizes.clear()
            assert stability_certificate(gs, pts, faces, o.word_bound,
                                         o.height_bound)
            # figure3_surface's first sub-hull has a certified face that a
            # higher point cuts, so h doubles once
            assert sizes == want
            assert len(orbit(gs, o.word_bound + 1, 2 * o.height_bound)) == total


    def test_point_just_beyond_a_plane_cuts(self):
        # a, b, c and q lie on the support plane of w = (1, 1/2, 0), q at
        # height 1.5 and moved 1e-11 beyond it: the whole hull merges q
        # into the face, which rises above H/2 = 1 and is not certified,
        # so the margin must count q as a cut of the low triangle
        def on_plane(theta, stretch=1.0):
            c = np.cos(theta)
            return stretch / (1.0 - 0.5 * c) * np.array([1.0, c, np.sin(theta)])

        abc = [on_plane(t) for t in (np.pi / 2, np.pi, 3 * np.pi / 2)]
        q = on_plane(np.arccos(2.0 / 3.0), 1.0 + 1e-11)
        big = make_orbit_points(abc + [q] + [3.0 * p for p in abc])
        assert certified_faces(hull_faces(big), 2.0) == []
        low, got = stable_faces(big, [], 2.0)
        assert got == [] and len(low) == 5


class TestEllipsoidTop:
    def test_bounds_every_point_inside(self, rng):
        J = np.diag([-1.0, 1.0, 1.0, 1.0])
        for _ in range(20):
            ws = rng.normal(size=3)
            w = np.concatenate(([np.linalg.norm(ws) + rng.uniform(0.05, 2.0)], ws))
            top = ellipsoid_top(w)
            u = rng.normal(size=(2000, 3))
            u /= np.linalg.norm(u, axis=1)[:, None]
            rays = np.hstack([np.ones((2000, 1)), u])
            # the largest t with <t ray, w> >= -1 on each ray
            t = -1.0 / (rays @ J @ w)
            assert np.all(t > 0) and np.max(t) <= top * (1 + 1e-12)
            # attained straight above w's spatial direction
            p = top * np.concatenate(([1.0], ws / np.linalg.norm(ws)))
            assert abs(p @ J @ w + 1.0) < 1e-9

    def test_not_future_timelike_is_unbounded(self):
        assert ellipsoid_top(np.array([1.0, 1.0, 0.0])) == np.inf
        assert ellipsoid_top(np.array([1.0, 2.0, 0.0])) == np.inf
        assert ellipsoid_top(np.array([2.0, 0.0, 0.0])) == 0.5


class TestProjectFace:
    def test_ideal_triangle(self):
        pts = make_orbit_points(TRIANGLE)
        face = hull_faces(pts)[0]
        cell, cops = project_face(face, pts)
        expected = {(-1.0, 0.0), (1.0, 0.0), (0.0, 1.0)}
        got = {tuple(np.round(k, 9)) for k in cell.klein_vertices}
        assert got == expected

    def test_vertex_scaling_invariance(self):
        pts = make_orbit_points(TRIANGLE * np.array([[1.0], [2.0], [5.0]]))
        w = support_vector(np.array([op.point for op in pts]))
        face = HullFace(vertex_ids=(0, 1, 2), support=w, max_height=5.0)
        cell, _ = project_face(face, pts)
        expected = {(-1.0, 0.0), (1.0, 0.0), (0.0, 1.0)}
        got = {tuple(np.round(k, 9)) for k in cell.klein_vertices}
        assert got == expected

    def test_projected_cells_convex(self, report_fig8):
        dec = report_fig8.ep_decomposition
        for cell in dec.cells:
            assert cell_is_convex(cell)

    def test_projection_hits_cell_interior(self, report_3ps):
        # vertical projection of face-interior samples lands inside the
        # Klein polygon (bijection spot check)
        dec = report_3ps.ep_decomposition
        rng = np.random.default_rng(7)
        for cell, cops in zip(dec.cells, dec.cell_points):
            coords = np.array([op.point for op in cops])
            for _ in range(20):
                lam = rng.dirichlet(np.ones(len(cops)))
                x = lam @ coords
                k = x[1:] / np.sqrt(1.0 + x[1:] @ x[1:])
                assert _in_polygon(k, cell.klein_vertices)


def _in_polygon(k, poly, tol=1e-9):
    m = len(poly)
    signs = []
    for i in range(m):
        a, b = poly[i], poly[(i + 1) % m]
        u, v = b - a, k - a
        signs.append(u[0] * v[1] - u[1] * v[0])
    return all(s > -tol for s in signs) or all(s < tol for s in signs)


class TestAssemble:
    def test_single_face_trivial_group(self):
        g = GroupSpec(2, [], [], [TRIANGLE[0], TRIANGLE[1], TRIANGLE[2]])
        pts = make_orbit_points(TRIANGLE)
        faces = hull_faces(pts)
        dec = assemble_decomposition(faces, g, pts, 2, all_faces=faces)
        assert len(dec.cells) == 1
        assert len(dec.pairings) == 0
        assert len(dec.unpaired) == 3          # nothing to glue to

    def test_thrice_punctured_counts(self, report_3ps):
        dec = report_3ps.ep_decomposition
        assert len(dec.cells) == 2
        assert all(len(c.vertex_ids) == 3 for c in dec.cells)
        assert count_face_classes(dec, 1) == 3
        assert not dec.unpaired

    def test_figure_eight_counts(self, report_fig8):
        dec = report_fig8.ep_decomposition
        assert len(dec.cells) == 2
        assert all(len(c.vertex_ids) == 4 for c in dec.cells)
        assert count_face_classes(dec, 2) == 4
        assert count_face_classes(dec, 1) == 2
        assert not dec.unpaired

    def test_pairing_involution(self, all_reports):
        for report in all_reports.values():
            dec = report.ep_decomposition
            for src, pairing in dec.pairings.items():
                back = dec.pairings.get(pairing.target)
                assert back is not None
                assert back.target == src

    def test_figure_eight_dihedral_angles(self, report_fig8):
        dec = report_fig8.ep_decomposition
        angles = []
        for cell, cops in zip(dec.cells, dec.cell_points):
            angles.extend(dihedral_angles(cell, cops).values())
        assert len(angles) == 12
        assert np.max(np.abs(np.array(angles) - np.pi / 3.0)) < 1e-6


# the fixtures, the knot rung whose walk leaves four components for the
# pairwise fallback, and one seed-1 rotation
WALK_CASES = ([(name, None, {}) for name in FIXTURES]
              + [("figure_eight_knot", None, {"height_bound": 12.0}),
                 ("figure3_surface", 0, {})])


def _roots(uf, n):
    return [uf.find(i) for i in range(n)]


class TestFaceWalk:
    @pytest.mark.parametrize("name,draw,overrides", WALK_CASES,
                             ids=map(_case_id, WALK_CASES))
    def test_roots_match_face_by_face_walk(self, monkeypatch, name, draw,
                                           overrides):
        # both routes' walks leave every face the root the face-by-face
        # walk leaves it, so the pairwise fallback compares the same roots
        walks = []
        walk = ep_hull._face_walk

        def recording(face_sets, L):
            uf = walk(face_sets, L)
            walks.append((face_sets, L, _roots(uf, len(face_sets))))
            return uf

        monkeypatch.setattr(ep_hull, "_face_walk", recording)
        run(_spec(name, draw, **overrides))
        assert len(walks) == 2
        for face_sets, L, roots in walks:
            assert roots == _roots(face_walk(face_sets, L), len(face_sets))
            assert any(r != i for i, r in enumerate(roots))

    def test_screen_blocks_and_first_match(self, rng):
        # enough faces that the screen runs in several blocks, with mixed
        # shapes, images of faces with their rows permuted, and repeated
        # faces, so a (face, letter) pair often has more than one match
        G = rng.normal(size=(4, 4, 4))
        L = np.concatenate([G, np.linalg.inv(G)])
        faces = [rng.normal(size=(k, 4)) for k in [4] * 150 + [3] * 30]
        for i in rng.integers(0, len(faces), 300):
            img = faces[i] @ L[rng.integers(len(L))].T
            faces.append(img[rng.permutation(len(img))])
        faces += [faces[i].copy() for i in rng.integers(0, len(faces), 120)]
        # first_images screens 2^14 differences at a time
        assert 2 ** 14 // (len(L) * 4 * len(faces)) < len(faces) // 4
        got = _roots(ep_hull._face_walk(faces, L), len(faces))
        assert got == _roots(face_walk(faces, L), len(faces))
        assert sum(r != i for i, r in enumerate(got)) > 300

    def test_no_letters_joins_nothing(self):
        faces = [TRIANGLE, TRIANGLE.copy()]
        uf = ep_hull._face_walk(faces, np.zeros((0, 3, 3)))
        assert _roots(uf, 2) == [0, 1]


class TestDihedralAngles:
    def test_regular_ideal_tetrahedron(self):
        # Klein vertices at an inscribed regular tetrahedron
        k = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]],
                     dtype=float) / np.sqrt(3.0)
        coords = np.hstack([np.ones((4, 1)), k])
        pts = make_orbit_points(coords)
        faces = hull_faces(pts)
        assert len(faces) == 1
        cell, cops = project_face(faces[0], pts)
        angs = dihedral_angles(cell, cops)
        assert len(angs) == 6
        for a in angs.values():
            assert abs(a - np.pi / 3.0) < 1e-10
