import json
import warnings
import weakref
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from conftest import (j_inverse, load_tool, random_boost, random_lightlike,
                      set_match)
from hypdecomp import doubling
from hypdecomp.decorations import horoball_distance, horoball_plane_distance
from hypdecomp.doubling import (ORTHO_TOL, SymmetrizeError, _edge_wall_point,
                                _overlap_log_scale, _ray_hit, _truncate_cell,
                                check_hull_symmetry, external_orthogonality,
                                polar_vertex, quotient_classify,
                                symmetrize_decorations,
                                symmetry_direction_check, wall_lifts)
from hypdecomp.ep_hull import (certified_faces, hull_faces,
                               ideal_cell_from_points)
from hypdecomp.fixtures import NAMES, fixture_path
from hypdecomp.group import (GroupSpec, OrbitPoint, OrbitSet, orbit,
                             reflection_normal)
from hypdecomp.io_cli import load_spec, main, run
from hypdecomp.minkowski import (GeometryError, hyperboloid_to_klein,
                                 klein_to_hyperboloid, lorentz_product)

reflection_in_hyperplane = load_tool("gen_fixtures").reflection_in_hyperplane


@pytest.fixture(scope="module")
def g_fig3_sym(spec_fig3):
    return symmetrize_decorations(spec_fig3.group,
                                  margin=spec_fig3.options.margin,
                                  word_bound=4,
                                  height_bound=spec_fig3.options.height_bound)


def ref_symmetrize_decorations(g, margin, word_bound, height_bound):
    """The symmetrization that searched the ball again for the element
    of each pairing on every use, kept as the reference."""
    reps = [p.copy() for p in g.cusp_reps]
    ball = g.word_ball(word_bound)
    constraints = []
    for r, tau in enumerate(g.reflections):
        for i, p in enumerate(reps):
            hit = _ray_hit(ball, tau @ p, reps)
            assert hit is not None
            constraints.append((i, hit[1], tau))
    assigned = {i: reps[i] for i in range(len(reps))}

    def _target(i, j, tau):
        q = tau @ assigned[i]
        hit = _ray_hit(ball, q, [assigned[j]])
        assert hit is not None
        return j_inverse(ball.matrices[hit[0]]) @ q

    primary = {}
    for idx, (i, j, tau) in enumerate(constraints):
        if i < j and j not in primary:
            primary[j] = idx

    def _propagate():
        for j, idx in sorted(primary.items()):
            i, _, tau = constraints[idx]
            assigned[j] = _target(i, j, tau)

    _propagate()
    for i, j, tau in constraints:
        target = _target(i, j, tau)
        assert np.max(np.abs(assigned[j] - target)) / target[0] <= 1e-8
    reps = [assigned[i] for i in range(len(reps))]
    probe = replace(g, cusp_reps=reps, _ball_cache=dict(g._ball_cache))
    pts = orbit(probe, word_bound, height_bound)
    log_scale = 0.0
    for tau in g.reflections:
        u = reflection_normal(tau)
        for op in pts:
            log_scale = max(log_scale,
                            margin - horoball_plane_distance(op.point, u))
    log_scale = max(log_scale,
                    _overlap_log_scale(np.array([op.point for op in pts])))
    lam = float(np.exp(log_scale)) if log_scale > 1e-15 else 1.0
    if lam != 1.0:
        for i in range(len(reps)):
            assigned[i] = lam * assigned[i]
        _propagate()
        reps = [assigned[i] for i in range(len(reps))]
    return reps


class TestSymmetrize:
    def test_no_reflections_only_disjointness(self, spec_torus):
        gs = symmetrize_decorations(spec_torus.group, margin=1.0,
                                    word_bound=4, height_bound=12.0)
        pts = orbit(gs, 4, 12.0)
        for a in range(len(pts)):
            for b in range(a + 1, len(pts)):
                ra = pts[a].point / np.linalg.norm(pts[a].point)
                rb = pts[b].point / np.linalg.norm(pts[b].point)
                if np.linalg.norm(ra - rb) < 1e-9:
                    continue
                assert horoball_distance(pts[a].point, pts[b].point) >= -1e-9

    def test_overlap_rescale_fires(self, spec_torus):
        # the torus horoballs overlap as shipped: the pair term alone
        # doubles every center
        opts = spec_torus.options
        gs = symmetrize_decorations(spec_torus.group, margin=opts.margin,
                                    word_bound=4, height_bound=opts.height_bound)
        for p, q in zip(gs.cusp_reps, spec_torus.group.cusp_reps):
            assert np.array_equal(p, 2.0 * q)

    @staticmethod
    def _pairwise_overlap(coords):
        # reference: the scalar loop over every pair on distinct rays
        ref = -np.inf
        for a in range(len(coords)):
            for b in range(a + 1, len(coords)):
                ra = coords[a] / np.linalg.norm(coords[a])
                rb = coords[b] / np.linalg.norm(coords[b])
                if np.linalg.norm(ra - rb) < 1e-10:
                    continue
                ref = max(ref, -horoball_distance(coords[a], coords[b]) / 2.0)
        return ref

    @pytest.mark.parametrize("name", ["thrice_punctured_sphere",
                                      "once_punctured_torus",
                                      "figure3_surface", "figure_eight_knot"])
    def test_overlap_scale_bitwise_pairwise(self, name):
        spec = load_spec(fixture_path(name))
        coords = np.array([op.point for op in orbit(
            spec.group, min(4, spec.options.word_bound),
            spec.options.height_bound)])
        assert _overlap_log_scale(coords) == self._pairwise_overlap(coords)

    def test_overlap_scale_bitwise_random_sets(self):
        # small batched Gram products round differently from the scalar
        # product on some of these sets; the result must not
        rng = np.random.default_rng(20250810)
        for t in range(200):
            n = 2 + t % 2
            coords = np.array([random_lightlike(rng, n, (0.5, 50.0))
                               for _ in range(12)])
            assert _overlap_log_scale(coords) == self._pairwise_overlap(coords)

    def test_overlap_scale_without_pairs(self):
        one = np.array([[1.0, 1.0, 0.0]])
        assert _overlap_log_scale(one) == -np.inf
        assert _overlap_log_scale(np.vstack([one, 3.0 * one])) == -np.inf

    def test_impossible_pairing_rejected(self, spec_3ps):
        g = spec_3ps.group
        bad = GroupSpec(2, g.generators,
                        [reflection_in_hyperplane(np.array([0.17, 1.3, 0.4]))],
                        g.cusp_reps)
        with pytest.raises(SymmetrizeError):
            symmetrize_decorations(bad, margin=1.0, word_bound=3,
                                   height_bound=20.0)

    def test_overflowing_scale_rejected(self, tmp_path, capsys):
        # exp(margin) overflows: the cusp vectors would be inf and nan
        path = fixture_path("figure3_surface")
        spec = load_spec(path)
        spec.options.margin = 1e6
        cert = run(spec).certificates["decoration_symmetry"]
        assert not cert.ok and "margin 1e+06" in cert.detail
        out = tmp_path / "report.json"
        assert main(["--input", str(path), "--margin", "1e6",
                     "--json", str(out)]) == 2
        capsys.readouterr()

        def non_finite(constant):
            raise AssertionError(f"{constant} in the JSON report")

        doc = json.loads(out.read_text(), parse_constant=non_finite)
        assert not doc["certificates"]["decoration_symmetry"]["ok"]

    # figure3's margin 6 scales both cusps to height 403, above H = 160,
    # where no orbit holds them; at 708 the scale is finite but the
    # orbit's products of the 3e307-high cusps would overflow
    @pytest.mark.parametrize("margin", ["6", "708"])
    def test_scale_above_the_height_bound_rejected(self, margin, tmp_path,
                                                   capsys):
        out = tmp_path / "report.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["--input", str(fixture_path("figure3_surface")),
                         "--margin", margin, "--json", str(out)])
        assert code == 2
        assert (f"[FAIL] decoration_symmetry  (margin {margin} lifts cusp 0 "
                "to height ") in capsys.readouterr().out

        def non_finite(constant):
            raise AssertionError(f"{constant} in the JSON report")

        doc = json.loads(out.read_text(), parse_constant=non_finite)
        cert = doc["certificates"]["decoration_symmetry"]
        assert not cert["ok"] and "above the height bound 160" in cert["detail"]

    def test_scale_under_the_height_bound_kept(self, spec_fig3):
        # margin 5 lifts figure3's cusps to 148, still under H = 160; the
        # shipped margins leave every fixture's cusps at 2.72 or lower
        o = spec_fig3.options
        gs = symmetrize_decorations(spec_fig3.group, 5.0, 4, o.height_bound)
        assert all(140 < p[0] < o.height_bound for p in gs.cusp_reps)
        for name in NAMES:
            spec = load_spec(fixture_path(name))
            o = spec.options
            gs = symmetrize_decorations(spec.group, o.margin,
                                        min(4, o.word_bound), o.height_bound)
            assert max(p[0] for p in gs.cusp_reps) < 2.72 + 1e-9

    # reversed, the first pairing maps cusp 0 to the ray of a ball
    # element other than the identity, so the order of the products
    # that propagate it shows in the last bits
    @pytest.mark.parametrize("reverse", [False, True])
    def test_found_elements_match_rescanning_reference(self, spec_fig3,
                                                       reverse):
        g = spec_fig3.group
        g = GroupSpec(2, g.generators,
                      g.reflections[::-1] if reverse else g.reflections,
                      g.cusp_reps)
        args = (spec_fig3.options.margin, 4, spec_fig3.options.height_bound)
        got = symmetrize_decorations(g, *args).cusp_reps
        ref = ref_symmetrize_decorations(replace(g, _ball_cache={}), *args)
        assert len(got) == len(ref)
        for a, b in zip(got, ref):
            assert a.tobytes() == b.tobytes()

    def test_partner_center_exactly_reflected(self, g_fig3_sym):
        tau = g_fig3_sym.reflections[0]
        assert np.array_equal(tau @ g_fig3_sym.cusp_reps[0],
                              g_fig3_sym.cusp_reps[1])

    def test_wall_margin_enforced(self, g_fig3_sym, spec_fig3):
        pts = orbit(g_fig3_sym, spec_fig3.options.word_bound,
                    spec_fig3.options.height_bound)
        from hypdecomp.decorations import horoball_plane_distance
        for tau in g_fig3_sym.reflections:
            u = reflection_normal(tau)
            for op in pts:
                assert horoball_plane_distance(op.point, u) >= 1.0 - 1e-9


class TestSymmetryDirection:
    def test_coordinate_reflection(self):
        tau = np.diag([1.0, -1.0, 1.0])
        p1 = np.array([1.0, 1.0, 0.0])
        p2 = tau @ p1
        assert symmetry_direction_check(p1, p2, tau)

    def test_fixed_point_rejected(self):
        tau = np.diag([1.0, -1.0, 1.0])
        p = np.array([1.0, 0.0, 1.0])       # on the fixed hyperplane
        with pytest.raises(GeometryError):
            symmetry_direction_check(p, p, tau)

    def test_non_mirror_pair_rejected(self):
        tau = np.diag([1.0, -1.0, 1.0])
        p1 = np.array([1.0, 1.0, 0.0])
        with pytest.raises(GeometryError):
            symmetry_direction_check(p1, 2.0 * p1, tau)

    def test_random_conjugated_reflections(self, rng):
        # the displacement of every mirror pair is parallel to one
        # direction depending only on the wall
        for _ in range(100):
            n = int(rng.integers(2, 4))
            u = rng.normal(size=n + 1)
            while lorentz_product(u, u) <= 0.1:
                u = rng.normal(size=n + 1)
            A = random_boost(rng, n)
            tau = A @ reflection_in_hyperplane(u) @ np.linalg.inv(A)
            p1 = random_lightlike(rng, n)
            p2 = tau @ p1
            if np.linalg.norm(p1 - p2) < 1e-6:
                continue
            assert symmetry_direction_check(p1, p2, tau)


class TestHullSymmetry:
    def test_empty_face_list(self, spec_fig3):
        rep = check_hull_symmetry([], [], spec_fig3.group.reflections[0], 10.0)
        assert rep.ok and rep.checked == 0

    def test_figure3_symmetric(self, g_fig3_sym, spec_fig3):
        opts = spec_fig3.options
        pts = OrbitSet(orbit(g_fig3_sym, opts.word_bound, opts.height_bound))
        cert = certified_faces(hull_faces(pts), opts.height_bound)
        for tau in g_fig3_sym.reflections:
            rep = check_hull_symmetry(cert, pts, tau, opts.height_bound)
            assert rep.ok

    def test_missing_face_reported(self, g_fig3_sym, spec_fig3):
        opts = spec_fig3.options
        tau = g_fig3_sym.reflections[0]
        pts = OrbitSet(orbit(g_fig3_sym, opts.word_bound, opts.height_bound))
        cert = certified_faces(hull_faces(pts), opts.height_bound)
        coords = np.array([op.point for op in pts])
        band = opts.height_bound / 2.0
        victim = None
        for i, f in enumerate(cert):
            own = coords[list(f.vertex_ids)]
            img = own @ tau.T
            if np.max(img[:, 0]) <= band and not set_match(own, img, 1e-6):
                mirror_of_f = img
                victim = i
                break
        assert victim is not None
        pruned = [f for j, f in enumerate(cert)
                  if not set_match(coords[list(f.vertex_ids)], mirror_of_f, 1e-6)]
        rep = check_hull_symmetry(pruned, pts, tau, opts.height_bound)
        assert not rep.ok


class TestPolarVertex:
    def test_klein_point_and_polar_chord(self):
        pv = polar_vertex(np.array([1.0, 2.0, 0.0]))
        assert np.allclose(pv.klein, [2.0, 0.0])
        # tangent points of lines from (2,0) to the unit circle, found
        # numerically: T on circle with (T - P).T = 0
        P = np.array([2.0, 0.0])
        thetas = np.linspace(0.0, 2.0 * np.pi, 200001)
        T = np.column_stack([np.cos(thetas), np.sin(thetas)])
        tangency = np.abs(np.einsum("ij,ij->i", T - P, T))
        touched = T[tangency < 1e-4]
        assert len(touched) > 0
        # every tangency point lies on the chord k1 = 1/2
        assert np.max(np.abs(touched[:, 0] - 0.5)) < 1e-3
        for t in (touched[0], touched[-1]):
            ray = np.concatenate(([1.0], t))
            assert abs(lorentz_product(ray, np.array([1.0, 2.0, 0.0]))) < 1e-3

    def test_wall_through_origin_at_infinity(self):
        pv = polar_vertex(np.array([0.0, 1.0, 0.0]))
        assert pv.at_infinity
        assert pv.klein is None

    def test_projective_invariance(self):
        u = np.array([1.0, 2.0, 0.5])
        a = polar_vertex(u)
        b = polar_vertex(-3.0 * u)
        assert np.allclose(a.vector, b.vector)

    def test_rejects_timelike(self):
        with pytest.raises(GeometryError):
            polar_vertex(np.array([1.0, 0.1, 0.0]))


class TestQuotient:
    def test_no_walls_all_ideal(self, report_3ps):
        mixed = report_3ps.mixed
        assert all(mc.kind == "ideal" for mc in mixed.cells)
        assert mixed.ok

    def test_figure3_every_cell_1_2_truncated(self, report_fig3):
        mixed = report_fig3.mixed
        assert len(mixed.cells) == 2
        for mc in mixed.cells:
            assert mc.kind == "truncated"
            assert len(mc.klein_vertices) == 2          # two ideal vertices
            assert mc.external_face is not None         # exactly one external
            assert len(mc.external_face) == 2
            hv = mc.hyperideal_vertex
            assert hv.at_infinity or hv.klein @ hv.klein > 1.0

    def test_external_face_orthogonal(self, report_fig3):
        for mc in report_fig3.mixed.cells:
            assert external_orthogonality(mc) <= 1e-8

    def test_orthogonality_checked_at_declared_tolerance(
            self, report_fig3, g_fig3_sym, monkeypatch):
        # 5e-8 exceeds the 1e-8 the JSON report declares for orthogonality
        import hypdecomp.doubling as doubling
        assert doubling.ORTHO_TOL < 5e-8
        monkeypatch.setattr(doubling, "external_orthogonality", lambda mc: 5e-8)
        mixed = quotient_classify(report_fig3.ep_decomposition, g_fig3_sym,
                                  report_fig3.spec.options.word_bound)
        assert any("not orthogonal" in msg for _, msg in mixed.errors)

    def test_external_face_on_polar_hyperplane(self, report_fig3):
        #  H(v) contains the wall section: <x, u> = 0 on every section vertex
        for mc in report_fig3.mixed.cells:
            for x in mc.external_face:
                assert abs(lorentz_product(x, mc.wall_normal)) < 1e-9 * \
                    np.max(np.abs(x)) * np.max(np.abs(mc.wall_normal))

    def test_doubling_consistency(self, report_fig3):
        # doubling a truncated cell across its wall recovers its source
        dec = report_fig3.ep_decomposition
        for mc in report_fig3.mixed.cells:
            if mc.kind != "truncated":
                continue
            src = np.array([op.point for op
                            in dec.cell_points[mc.source_class]])
            full = np.vstack([mc.ambient_vertices,
                              mc.ambient_vertices @ mc.reflection.T])
            scale = max(1.0, float(np.max(np.abs(full))))
            assert set_match(src, full, 1e-8 * scale * 100)

    def test_case2_cells_fixed_setwise(self, report_fig3):
        for mc in report_fig3.mixed.cells:
            full = np.vstack([mc.ambient_vertices,
                              mc.ambient_vertices @ mc.reflection.T])
            img = full @ mc.reflection.T
            assert set_match(img, full, 1e-6 * float(np.max(np.abs(full))))

    def test_single_wall_orbit_per_cell(self, report_fig3):
        assert report_fig3.mixed.ok
        orbits = {mc.wall_orbit for mc in report_fig3.mixed.cells}
        assert orbits == {0, 1}

    def test_quotient_pairings_total(self, report_fig3):
        mixed = report_fig3.mixed
        assert not mixed.unpaired
        n_internal = sum(len(mc.internal_facets) for mc in mixed.cells)
        assert len(mixed.pairings) == n_internal


class TestWallLifts:
    def test_lifts_are_involutions(self, spec_fig3):
        lifts = wall_lifts(spec_fig3.group, 2)
        assert len(lifts) > 2
        for m in lifts:
            scale = float(np.max(np.abs(m))) ** 2
            assert np.max(np.abs(m @ m - np.eye(3))) < 1e-9 * max(1.0, scale)

    def test_one_read_only_stack(self, spec_fig3):
        g = spec_fig3.group
        ball = g.word_ball(2).matrices
        lifts = wall_lifts(g, 2)
        assert lifts.shape == (len(g.reflections) * len(ball), 3, 3)
        with pytest.raises(ValueError):
            lifts[0, 0, 0] = 2.0
        # lift i conjugates wall i // N by ball element i % N:
        # lift times element is element times wall, up to rounding
        by_wall = lifts.reshape(len(g.reflections), len(ball), 3, 3)
        for tau, conj in zip(g.reflections, by_wall):
            err = np.max(np.abs(conj @ ball - ball @ tau), axis=(1, 2))
            scale = np.max(np.abs(conj), axis=(1, 2)) * np.max(
                np.abs(ball), axis=(1, 2))
            assert np.all(err < 1e-12 * scale)

    def test_no_lift_stack_alive_in_the_pairing_pass(self, monkeypatch):
        # the wall pass copies the lifts it picks, so neither the stack
        # wall_lifts returned nor the buffer under it outlives the pass
        refs, alive = [], []
        lifts_of, pairings_of = doubling.wall_lifts, doubling._quotient_pairings

        def recording(*args):
            lifts = lifts_of(*args)
            refs.extend(weakref.ref(a) for a in (lifts, lifts.base)
                        if a is not None)
            return lifts

        def checking(*args):
            alive.extend(ref() is not None for ref in refs)
            return pairings_of(*args)

        monkeypatch.setattr(doubling, "wall_lifts", recording)
        monkeypatch.setattr(doubling, "_quotient_pairings", checking)
        report = run(load_spec(fixture_path("figure3_surface")))
        assert report.ok
        assert len(refs) == 2 and alive == [False, False]

    def test_no_reflections_no_lifts(self, spec_3ps):
        lifts = wall_lifts(spec_3ps.group, 2)
        assert lifts.shape == (0, 3, 3)
        assert not lifts.flags.writeable


def _synthetic_decomposition(cell_vertex_sets):
    """Decomposition with the given cells, backed by a fake orbit list."""
    from hypdecomp.ep_hull import Decomposition, ideal_cell_from_points
    from hypdecomp.group import OrbitPoint
    from hypdecomp.ep_hull import support_vector
    all_pts = []
    cells = []
    cell_points = []
    for vs in cell_vertex_sets:
        ops = []
        for c in vs:
            op = OrbitPoint(point=np.asarray(c, float), cusp_id=0,
                            matrix=np.eye(3), index=len(all_pts))
            all_pts.append(op)
            ops.append(op)
        w = support_vector(np.array(vs))
        cell, ops = ideal_cell_from_points(ops, w, 2)
        cells.append(cell)
        cell_points.append(ops)
    return Decomposition(dimension=2, cells=cells, cell_points=cell_points,
                         pairings={}, unpaired=[])


def _ray(theta):
    return np.array([1.0, np.cos(theta), np.sin(theta)])


class TestQuotientSynthetic:
    def test_mirror_pair_halved(self):
        # two off-wall triangles exchanged by the wall reflection keep a
        # single ideal representative
        tau = np.diag([1.0, 1.0, -1.0])        # wall {x2 = 0}
        tri = [_ray(t) for t in (0.2, 0.9, 1.6)]
        mirror = [tau @ p for p in tri]
        dec = _synthetic_decomposition([tri, mirror])
        g = GroupSpec(2, [], [tau], [np.asarray(tri[0])])
        mixed = quotient_classify(dec, g, 2)
        assert mixed.ok
        kinds = [mc.kind for mc in mixed.cells]
        assert kinds == ["ideal"]

    def test_two_wall_orbits_rejected(self):
        # a square symmetric under two distinct walls is a hard error
        tau1 = np.diag([1.0, -1.0, 1.0])
        tau2 = np.diag([1.0, 1.0, -1.0])
        square = [_ray(t) for t in (np.pi / 4, 3 * np.pi / 4,
                                    5 * np.pi / 4, 7 * np.pi / 4)]
        dec = _synthetic_decomposition([square])
        g = GroupSpec(2, [], [tau1, tau2], [np.asarray(square[0])])
        mixed = quotient_classify(dec, g, 2)
        assert not mixed.ok
        assert any("two distinct wall orbits" in msg for _, msg in mixed.errors)


def _ref_truncation(cell, cops, u):
    """Reference wall section of a truncated cell: a dedicated n = 2
    branch, and for n = 3 every (kept, dropped) vertex pair lying in two
    common facets.  Returns the internal facets and the external face."""
    coords = np.array([op.point for op in cops])
    sides = np.array([lorentz_product(p, u) for p in coords])
    # the side with the smaller sorted rounded coordinates is kept
    pos, neg = (sorted(tuple(np.round(p, 9)) for p, s in zip(coords, sides)
                       if (s > 0) == b) for b in (True, False))
    kept = [i for i in range(len(cops)) if (sides[i] > 0) == (pos <= neg)]
    dropped = [i for i in range(len(cops)) if i not in kept]
    klein = cell.klein_vertices
    section = []
    internal = []
    for facet in cell.facets:
        f_kept = [i for i in facet if i in kept]
        f_drop = [i for i in facet if i in dropped]
        if not f_drop:
            internal.append(coords[list(facet)])
            continue
        if not f_kept:
            continue
        pts = [coords[i] for i in f_kept]
        if len(klein[0]) == 2:
            w = _edge_wall_point(klein[f_kept[0]], klein[f_drop[0]], u)
            section.append(w)
            pts.append(klein_to_hyperboloid(w))
        else:
            for a in f_kept:
                for b in f_drop:
                    if sum(1 for f in cell.facets if a in f and b in f) >= 2:
                        w = _edge_wall_point(klein[a], klein[b], u)
                        section.append(w)
                        pts.append(klein_to_hyperboloid(w))
        internal.append(np.array(pts))
    uniq = []
    for w in section:
        if not any(np.max(np.abs(w - x)) < 1e-9 for x in uniq):
            uniq.append(w)
    if len(uniq) > 2:
        arr = np.array(uniq)
        c = arr.mean(axis=0)
        _, _, vt = np.linalg.svd(arr - c)
        ang = np.arctan2((arr - c) @ vt[1], (arr - c) @ vt[0])
        uniq = [uniq[i] for i in np.argsort(ang)]
    return internal, np.array([klein_to_hyperboloid(w) for w in uniq])


def _truncate_as_reference(cell, cops, tau, u):
    """``_truncate_cell``, asserted bitwise equal to the reference."""
    mc = _truncate_cell(cell, cops, tau, u, 0, 0)
    internal, external = _ref_truncation(cell, cops, u)
    assert len(mc.internal_facets) == len(internal)
    for got, want in zip(mc.internal_facets, internal):
        assert np.array_equal(got, want)
    assert np.array_equal(mc.external_face, external)
    return mc


class TestTruncation:
    def test_ideal_cube_halved_by_wall(self):
        # no 3-D fixture has walls: the ideal cube with vertices
        # (+-1, +-1, +-1)/sqrt(3), cut by the wall x3 = 0
        s3 = np.sqrt(3.0)
        ops = [OrbitPoint(point=np.array((1.0,) + v) / [1.0, s3, s3, s3],
                          cusp_id=0, matrix=np.eye(4), index=i)
               for i, v in enumerate(product((-1.0, 1.0), repeat=3))]
        cell, cops = ideal_cell_from_points(ops, np.array([1.0, 0, 0, 0]), 3)
        tau = np.diag([1.0, 1.0, 1.0, -1.0])
        mc = _truncate_as_reference(cell, cops, tau, reflection_normal(tau))
        assert len(mc.klein_vertices) == 4
        assert len(mc.internal_facets) == 5      # kept face, 4 clipped sides
        section = np.array([hyperboloid_to_klein(x) for x in mc.external_face])
        assert len(section) == 4
        for a, b in product((-1.0, 1.0), repeat=2):
            dev = np.max(np.abs(section - np.array([a, b, 0.0]) / s3), axis=1)
            assert np.min(dev) < 1e-12
        assert external_orthogonality(mc) <= ORTHO_TOL

    def test_figure3_cells_match_reference(self, report_fig3):
        dec = report_fig3.ep_decomposition
        for mc in report_fig3.mixed.cells:
            ci = mc.source_class
            _truncate_as_reference(dec.cells[ci], dec.cell_points[ci],
                                   mc.reflection, mc.wall_normal)
