import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import cell_is_convex
from hypdecomp import cutlocus, io_cli
from hypdecomp.cutlocus import (STRATUM_TOL, ReturnPath, _concyclic,
                                cross_validate, cut_locus_complex,
                                dual_count_identity, dual_decomposition,
                                enumerate_return_paths, return_pairs)
from hypdecomp.decorations import horoball_distance
from hypdecomp.fixtures import fixture_path
from hypdecomp.group import GroupSpec, OrbitSet, orbit, reflection_normal
from hypdecomp.io_cli import load_spec, run
from hypdecomp.matching import GammaClasses
from hypdecomp.minkowski import (GeometryError, klein_to_hyperboloid,
                                 lorentz_gram, lorentz_product)


def trivial(cusps):
    return GroupSpec(2, [], [], [np.asarray(c, dtype=float) for c in cusps])


def reference_return_pairs(g, length_bound, points):
    """``return_pairs`` one orbit point at a time, with a ray test and a
    validated ``horoball_distance`` for every pair."""
    pairs = []
    for c, p in enumerate(g.cusp_reps):
        base = points.find(p)
        ray_p = base.point / np.linalg.norm(base.point)
        for q in points:
            if np.linalg.norm(ray_p - q.point / np.linalg.norm(q.point)) < 1e-10:
                continue
            d = horoball_distance(base.point, q.point)
            if d <= length_bound + 1e-9:
                pairs.append((c, base, q, d))
    return pairs


def reference_return_paths(g, length_bound, word_bound, points):
    """``enumerate_return_paths`` over the reference pairs."""
    pairs = reference_return_pairs(g, length_bound, points)
    ids = GammaClasses(g, word_bound).classify(
        [[base, q] for _, base, q, _ in pairs])
    paths = {}
    for cid, pair in zip(ids, pairs):
        paths.setdefault(cid, ReturnPath(cid, max(0.0, pair[3]), [])).lifts.append(
            pair)
    return sorted(paths.values(), key=lambda rp: (round(rp.length, 9),
                                                  rp.class_id))


class TestReturnPaths:
    def test_two_tangent_horoballs(self):
        g = trivial([[1.0, 1.0, 0.0], [1.0, -1.0, 0.0]])
        pts = OrbitSet(orbit(g, 0, 10.0))
        paths = enumerate_return_paths(return_pairs(g, 1.0, pts), g, 0)
        assert len(paths) == 1
        assert paths[0].length == 0.0

    def test_bound_below_minimum(self):
        g = trivial([[1.0, 1.0, 0.0], math.e * np.array([1.0, -1.0, 0.0])])
        pts = OrbitSet(orbit(g, 0, 10.0))
        paths = enumerate_return_paths(return_pairs(g, 0.5, pts), g, 0)
        assert paths == []

    def test_sorted_by_length(self, report_3ps):
        lens = [p.length for p in report_3ps.return_paths]
        assert lens == sorted(lens)

    @staticmethod
    def _key(paths):
        return [(rp.length, [(c, q.index) for c, _, q, _ in rp.lifts])
                for rp in paths]

    def test_run_paths_match_direct_enumeration(self, all_reports):
        # run()'s report holds the direct enumeration at its length bound,
        # and that is the one-point-at-a-time reference's
        for name, report in all_reports.items():
            opts = report.spec.options
            gs = _symmetrized(report)
            pts = report.cut_complex.orbit_points
            direct = enumerate_return_paths(
                return_pairs(gs, opts.length_bound, pts), gs, opts.word_bound)
            assert direct, name
            assert self._key(report.return_paths) == self._key(direct), name
            ref = reference_return_paths(gs, opts.length_bound,
                                         opts.word_bound, pts)
            assert ([rp.class_id for rp in direct]
                    == [rp.class_id for rp in ref]), name
            assert self._key(direct) == self._key(ref), name

    @pytest.mark.parametrize("scale", [1.0, 2.0])
    def test_pairs_match_one_point_reference(self, all_reports, scale):
        # at the length bound and at twice it, as a run's two complexes
        # read them: the same cusp, base and partner, and the same length
        # bit for bit
        for name, report in all_reports.items():
            gs = _symmetrized(report)
            pts = report.cut_complex.orbit_points
            bound = scale * report.spec.options.length_bound
            got, want = ([(c, base.index, q.index, d.hex())
                          for c, base, q, d in pairs(gs, bound, pts)]
                         for pairs in (return_pairs, reference_return_pairs))
            assert got, name
            assert got == want, name

    def test_pairs_at_twice_the_bound_hold_the_pairs_at_it(self,
                                                          all_reports):
        # run() lists the pairs once, at twice the length bound, and keeps
        # those within the bound with return_pairs' slack: the same cusp,
        # base, partner and length bit for bit, in the same order, as the
        # pairs listed at the bound
        for name, report in all_reports.items():
            gs = _symmetrized(report)
            pts = report.cut_complex.orbit_points
            bound = report.spec.options.length_bound
            twice = return_pairs(gs, 2.0 * bound, pts)
            got, want = ([(c, base.index, q.index, d.hex())
                          for c, base, q, d in pairs]
                         for pairs in ([p for p in twice
                                        if p[3] <= bound + 1e-9],
                                       return_pairs(gs, bound, pts)))
            assert want, name
            assert got == want, name
            assert len(twice) > len(want), name

    @pytest.mark.parametrize("name", sorted(
        ["thrice_punctured_sphere", "once_punctured_torus", "figure3_surface",
         "figure_eight_knot"]))
    def test_kept_complex_takes_the_doubled_pairs_within_the_bound(
            self, monkeypatch, name):
        # both complexes take their fences in orbit order, cusp by cusp;
        # the kept complex's are exactly the doubled one's pairs within
        # the length bound, in the same order
        spec = load_spec(fixture_path(name))
        build, fences = io_cli.cut_locus_complex, []

        def recording(paths, *args, **kwargs):
            fences.append([(c, base.index, q.index, d)
                           for c, base, q, d in paths])
            return build(paths, *args, **kwargs)

        monkeypatch.setattr(io_cli, "cut_locus_complex", recording)
        run(spec)
        kept, doubled = fences
        assert doubled == sorted(doubled, key=lambda f: (f[0], f[2]))
        assert kept == [f for f in doubled
                        if f[3] <= spec.options.length_bound + 1e-9]
        assert len(kept) < len(doubled)

    @pytest.mark.parametrize("name", ["thrice_punctured_sphere",
                                      "figure3_surface"])
    def test_run_classifies_no_pair_beyond_the_bound(self, monkeypatch,
                                                     name):
        # the report's paths are the only return pairs a run classifies;
        # the doubled complex reads its pairs unclassified
        spec = load_spec(fixture_path(name))
        enumerate_paths, classify = (io_cli.enumerate_return_paths,
                                     GammaClasses.classify)
        enumerating, lengths = [False], []

        def flagged(*args, **kwargs):
            enumerating[0] = True
            try:
                return enumerate_paths(*args, **kwargs)
            finally:
                enumerating[0] = False

        def recording(self, point_lists):
            if enumerating[0]:
                lengths.extend(horoball_distance(p.point, q.point)
                               for p, q in point_lists)
            return classify(self, point_lists)

        monkeypatch.setattr(io_cli, "enumerate_return_paths", flagged)
        monkeypatch.setattr(GammaClasses, "classify", recording)
        run(spec)
        assert lengths
        assert max(lengths) <= spec.options.length_bound + 1e-9


SYM3 =[2.0 * np.array([1.0, math.cos(t), math.sin(t)])
        for t in (math.pi / 2.0, math.pi / 2.0 + 2 * math.pi / 3,
                  math.pi / 2.0 + 4 * math.pi / 3)]


class TestCutComplex:
    def test_two_horoballs_single_fence(self):
        g = trivial([[1.0, 1.0, 0.0], [1.0, -1.0, 0.0]])
        pts = OrbitSet(orbit(g, 0, 10.0))
        cx = cut_locus_complex(return_pairs(g, 1.0, pts), g, 0, points=pts)
        assert len(cx.cells[0]) == 0
        assert cx.class_counts[1] == 1
        pair = {tuple(np.round(pts[i].point, 9))
                for i in cx.cells[1][0].nearest_ids}
        assert pair == {(1.0, 1.0, 0.0), (1.0, -1.0, 0.0)}

    def test_three_symmetric_horoballs(self):
        # oracle: solve the equidistance system by hand; symmetry puts the
        # circumcenter at the apex (1,0,0)
        g = trivial(SYM3)
        pts = OrbitSet(orbit(g, 0, 10.0))
        d = horoball_distance(SYM3[0], SYM3[1])
        pairs = return_pairs(g, d + 0.1, pts)
        assert len(enumerate_return_paths(pairs, g, 0)) == 3
        assert len(pairs) == 6
        cx = cut_locus_complex(pairs, g, 0, points=pts)
        assert cx.class_counts == {0: 1, 1: 3}
        # independent solve of <x, p_i - p_j> = 0 on the hyperboloid
        A = np.array([SYM3[0] - SYM3[1], SYM3[0] - SYM3[2]])
        _, _, vt = np.linalg.svd(A @ np.diag([-1.0, 1.0, 1.0]))
        x = vt[-1]
        x = x / math.sqrt(-lorentz_product(x, x)) * np.sign(x[0])
        zero = cx.cells[0][0]
        assert np.max(np.abs(zero.sample - x)) < 1e-9
        assert np.max(np.abs(zero.sample - np.array([1.0, 0.0, 0.0]))) < 1e-9

    def test_stratum_counts_on_samples(self, report_fig8):
        cx = report_fig8.cut_complex
        pts = cx.orbit_points
        coords = np.array([op.point for op in pts])
        for k, cells in cx.cells.items():
            for cell in cells:
                d = -lorentz_gram(cell.sample[None, :], coords).ravel()
                d = np.log(d)
                dmin = float(np.min(d))
                near = np.nonzero(d <= dmin + 1e-7)[0]
                assert len(near) >= 2
                assert set(cell.nearest_ids) == set(int(i) for i in near)

    def test_walls_inside_complex(self, report_fig3):
        # sample points on each base wall chord admit two nearest horoballs
        gs_refl = report_fig3.spec.group.reflections
        cx = report_fig3.cut_complex
        coords = np.array([op.point for op in cx.orbit_points])
        for tau in gs_refl:
            u = reflection_normal(tau)
            us, u0 = u[1:], u[0]
            nu = np.linalg.norm(us)
            c = u0 / nu
            mid = c * us / nu
            perp = np.array([-us[1], us[0]]) / nu
            half = math.sqrt(1.0 - c * c)
            for t in np.linspace(-0.8, 0.8, 5) * half:
                x = klein_to_hyperboloid(mid + t * perp)
                d = np.log(-lorentz_gram(x[None, :], coords).ravel())
                dmin = float(np.min(d))
                assert np.sum(d <= dmin + 1e-7) >= 2

    def test_empty_paths_rejected(self, spec_3ps):
        with pytest.raises(GeometryError):
            cut_locus_complex([], spec_3ps.group, 2, points=None)


def nearest_at(k, centers):
    """The nearest set of one Klein point as the complex took it one point
    at a time: the centers within STRATUM_TOL of its least log distance."""
    x = klein_to_hyperboloid(k)
    d = np.log(-lorentz_gram(x[None, :], centers).ravel())
    dmin = float(np.min(d))
    return x, tuple(np.nonzero(d <= dmin + STRATUM_TOL * max(1.0, abs(dmin)))[0])


class TestNearestSets:
    @pytest.mark.parametrize("name", ["figure_eight_knot", "figure3_surface"])
    def test_batches_match_one_point_path(self, monkeypatch, name):
        # every batch of a run (the vertices, the n = 3 edge midpoints,
        # the first sample of every fence and each later facet sample)
        # gives each point the sample and nearest set that point gives
        # alone, bitwise
        calls = []
        nearest_sets = cutlocus._nearest_sets

        def recording(klein_points, centers):
            xs, near = nearest_sets(klein_points, centers)
            calls.append((list(klein_points), centers, xs, near))
            return xs, near

        monkeypatch.setattr(cutlocus, "_nearest_sets", recording)
        run(load_spec(fixture_path(name)))
        assert max(len(c[0]) for c in calls) > 1
        for klein_points, centers, xs, near in calls:
            assert len(xs) == len(near) == len(klein_points)
            for k, x, got in zip(klein_points, xs, near):
                want_x, want = nearest_at(k, centers)
                assert x.tobytes() == want_x.tobytes()
                assert got == want
                [one_x], [one] = nearest_sets([k], centers)
                assert one_x.tobytes() == x.tobytes() and one == got

    def test_empty_batch(self):
        assert cutlocus._nearest_sets([], np.array(SYM3)) == ([], [])

    @pytest.mark.parametrize("at", [0, -1])
    def test_inconsistent_vertex_raises(self, monkeypatch, at):
        # a fabricated vertex with two active fences that lies deep in
        # the base's own domain has a nearest set of one center
        g = trivial(SYM3)
        pts = OrbitSet(orbit(g, 0, 10.0))
        paths = return_pairs(g, horoball_distance(SYM3[0], SYM3[1]) + 0.1,
                             pts)
        enumerate_vertices = cutlocus._vertex_enumeration

        def with_fake(A, b, n):
            verts = enumerate_vertices(A, b, n)
            verts.insert(at % (len(verts) + 1), (np.array([0.0, 0.9]), (0, 1)))
            return verts

        monkeypatch.setattr(cutlocus, "_vertex_enumeration", with_fake)
        with pytest.raises(GeometryError, match="at a vertex"):
            cut_locus_complex(paths, g, 0, points=pts)


# the Klein points deep in the domain of SYM3's first horoball (one
# nearest center) and at the vertex all three domains share (three)
DEEP = (0.0, 0.9)
TRIPLE = (0.0, 0.0)


class TestFenceWalk:
    @staticmethod
    def _sym3():
        g = trivial(SYM3)
        pts = OrbitSet(orbit(g, 0, 10.0))
        paths = return_pairs(g, horoball_distance(SYM3[0], SYM3[1]) + 0.1,
                             pts)
        return g, pts, paths

    @staticmethod
    def _lead(monkeypatch, lead, rest=True):
        """Make every fence walk try the Klein points ``lead`` first."""
        samples = cutlocus._facet_samples

        def led(witnesses, A, b, qi):
            yield from (np.array(k) for k in lead)
            if rest:
                yield from samples(witnesses, A, b, qi)

        monkeypatch.setattr(cutlocus, "_facet_samples", led)

    @staticmethod
    def _bits(cells):
        return [(c.nearest_ids, c.sample.tobytes()) for c in cells]

    @pytest.mark.parametrize("lead", [[DEEP], [TRIPLE], [DEEP, TRIPLE],
                                      [TRIPLE, DEEP, DEEP]])
    def test_walk_passes_first_samples_that_miss(self, monkeypatch, lead):
        # a first sample on one center or on three is passed over, and
        # the walk goes on to the fence's own samples
        g, pts, paths = self._sym3()
        want = cut_locus_complex(paths, g, 0, points=pts).cells[1]
        assert len(want) == 6
        self._lead(monkeypatch, lead)
        got = cut_locus_complex(paths, g, 0, points=pts).cells[1]
        assert self._bits(got) == self._bits(want)

    def test_fence_on_one_center_only_raises(self, monkeypatch):
        g, pts, paths = self._sym3()
        self._lead(monkeypatch, [TRIPLE, DEEP, TRIPLE], rest=False)
        with pytest.raises(GeometryError, match="on a fence"):
            cut_locus_complex(paths, g, 0, points=pts)

    def test_fence_on_finer_strata_only_has_no_cell(self, monkeypatch):
        g, pts, paths = self._sym3()
        self._lead(monkeypatch, [TRIPLE, TRIPLE], rest=False)
        cx = cut_locus_complex(paths, g, 0, points=pts)
        assert cx.cells[1] == [] and cx.class_counts[1] == 0


class TestDual:
    def test_three_horoball_dual_triangle(self):
        g = trivial(SYM3)
        pts = OrbitSet(orbit(g, 0, 10.0))
        d = horoball_distance(SYM3[0], SYM3[1])
        cx = cut_locus_complex(return_pairs(g, d + 0.1, pts), g, 0,
                               points=pts)
        dec = dual_decomposition(cx, g, 0)
        assert len(dec.cells) == 1
        assert len(dec.cells[0].vertex_ids) == 3

    def test_no_letters_no_saturation(self, monkeypatch):
        # a group without generators maps no vertex anywhere: the dual
        # looks nothing up and its patch is its one region
        g = trivial(SYM3)
        pts = OrbitSet(orbit(g, 0, 10.0))
        d = horoball_distance(SYM3[0], SYM3[1])
        cx = cut_locus_complex(return_pairs(g, d + 0.1, pts), g, 0,
                               points=pts)

        def no_lookup(self, Q):
            raise AssertionError("looked up images without letters")

        monkeypatch.setattr(OrbitSet, "lookup", no_lookup)
        dec = dual_decomposition(cx, g, 0)
        assert [sorted(c.vertex_ids) for c in dec.cells] == [[0, 1, 2]]

    def test_no_zero_cells_rejected(self):
        g = trivial([[1.0, 1.0, 0.0], [1.0, -1.0, 0.0]])
        pts = OrbitSet(orbit(g, 0, 10.0))
        cx = cut_locus_complex(return_pairs(g, 1.0, pts), g, 0, points=pts)
        with pytest.raises(GeometryError):
            dual_decomposition(cx, g, 0)

    def test_dual_cells_convex(self, all_reports):
        for report in all_reports.values():
            for cell in report.dual_decomposition.cells:
                assert cell_is_convex(cell)

    def test_count_identity_all_fixtures(self, all_reports):
        for name, report in all_reports.items():
            counts = dual_count_identity(report.cut_complex,
                                         report.dual_decomposition)
            for key, (a, b) in counts.items():
                assert a == b, (name, key, counts)

    def test_concyclic_faces_fig8(self, report_fig8):
        cx = report_fig8.cut_complex
        for cell in cx.cells[1]:
            assert _concyclic(cell)


class TestSymmetryLemma:
    def test_wall_cells_face_symmetric_decorations(self, report_fig3):
        # fences on a wall separate a horoball from its mirror image
        cx = report_fig3.cut_complex
        pts = cx.orbit_points
        from hypdecomp.doubling import wall_lifts
        gs = _symmetrized(report_fig3)
        lifts = wall_lifts(gs, 3)
        on_wall = 0
        for cell in cx.cells[1]:
            p, q = (pts[i].point for i in cell.nearest_ids)
            fence_normal = p - q
            for m in lifts:
                u = reflection_normal(m, strict=False)
                if u is None:
                    continue
                cosang = abs(fence_normal @ u) / (
                    np.linalg.norm(fence_normal) * np.linalg.norm(u))
                if cosang > 1.0 - 1e-8:
                    # mirror pair across that wall
                    assert np.max(np.abs(m @ p - q)) < 1e-6 * np.max(np.abs(q))
                    on_wall += 1
                    break
        assert on_wall > 0

    def test_off_wall_cells_in_mirror_pairs(self, report_fig3):
        from hypdecomp.matching import stack_hits
        gs = _symmetrized(report_fig3)
        ball = gs.word_ball(5).matrices
        cx = report_fig3.cut_complex
        tau0 = gs.reflections[0]
        reps = {}
        for cell in cx.cells[1]:
            if cell.class_id not in reps:
                reps[cell.class_id] = np.array([op.point
                                                for op in cell.nearest_points])
        dsts = list(reps.values())
        for coords in dsts:
            assert next(stack_hits(ball, coords @ tau0.T, dsts),
                        None) is not None

    def test_cross_validation_on_all_fixtures(self, all_reports):
        for name, report in all_reports.items():
            assert report.certificates["cross_validation"].ok, name


def _symmetrized(report):
    from hypdecomp.doubling import symmetrize_decorations
    spec = report.spec
    return symmetrize_decorations(spec.group, margin=spec.options.margin,
                                  word_bound=4,
                                  height_bound=spec.options.height_bound)


class TestCrossValidate:
    def test_self_match(self, report_3ps):
        gs = _symmetrized(report_3ps)
        dec = report_3ps.ep_decomposition
        cv = cross_validate(dec, dec, gs, 6)
        assert cv.ok

    def test_relabeled_cells_match(self, report_3ps):
        gs = _symmetrized(report_3ps)
        a = report_3ps.ep_decomposition
        b = replace(a, cells=list(reversed(a.cells)),
                    cell_points=list(reversed(a.cell_points)))
        cv = cross_validate(a, b, gs, 6)
        assert cv.ok

    def test_mismatch_reported(self, report_3ps, report_fig8):
        gs = _symmetrized(report_3ps)
        cv = cross_validate(report_3ps.ep_decomposition,
                            report_fig8.ep_decomposition, gs, 4)
        assert not cv.ok
