"""The stacked searches against the loops they replaced.

``find_group_element`` used to fall through from its word candidates to
a centroid scan of the whole word ball, and the quotient wrote the
same screen-and-verify loop out inline four times, over wall lifts
deduplicated by their rounded bytes.  All are kept here verbatim as
references: every run output that a group-element search
feeds (return-path classes, cut-locus class ids and counts, the
cross-validation, the quotient pairings and the canonical JSON) must
be the same under the reference.

The word-candidate loop (one ``set_match`` per candidate), the
classification that takes one object at a time and searches every
representative, and the cut-locus vertex enumeration that solves one
system at a time are kept too: the stacked versions must return the
same matrices, classes and representatives, and vertices, bit for bit.
"""

from contextlib import contextmanager
from itertools import combinations

import numpy as np
import pytest

from conftest import _load, j_inverse, set_match
from hypdecomp import cutlocus, ep_hull, io_cli, matching
from hypdecomp.cutlocus import cross_validate
from hypdecomp.doubling import (ORTHO_TOL, MixedCell, MixedDecomposition,
                                _same_plane, _truncate_cell,
                                external_orthogonality, quotient_classify,
                                symmetrize_decorations)
from hypdecomp.group import GroupSpec, _first_new, orbit, reflection_normal
from hypdecomp.matching import PAIR_TOL, _gram_key, _scale, stack_hits
from hypdecomp.minkowski import GeometryError
from test_doubling import _ray, _synthetic_decomposition


# ---------------------------------------------------------------------------
# References: the two-source matcher and the inline quotient loops.
# ---------------------------------------------------------------------------

def _points(points):
    return np.array([op.point for op in points])


def ref_find_group_element(g, word_bound, src_points, dst_points):
    return ref_search(g, word_bound, _points(src_points), _points(dst_points),
                      src_points, dst_points)


def ref_search(g, word_bound, src_coords, dst_coords, src_points=None,
               dst_points=None):
    src = np.atleast_2d(np.asarray(src_coords, dtype=float))
    dst = np.atleast_2d(np.asarray(dst_coords, dtype=float))
    if src.shape != dst.shape:
        return None
    scale = _scale(src, dst)
    tol = PAIR_TOL * scale
    if np.max(np.abs(_gram_key(src) - _gram_key(dst))) > tol * scale:
        return None

    def verify(M):
        return set_match(src @ M.T, dst, tol)

    if src_points is not None and dst_points is not None:
        for i, P in enumerate(src_points):
            inv = j_inverse(P.matrix)
            for Q in dst_points:
                if Q.cusp_id != P.cusp_id:
                    continue
                MQ = Q.matrix
                for s in g.stabilizer_stack(P.cusp_id, word_bound):
                    M = MQ @ s @ inv
                    if verify(M):
                        return M
            if i >= 1:
                break
    stack = g.word_ball(word_bound).matrices
    c_src = src.mean(axis=0)
    c_dst = dst.mean(axis=0)
    images = stack @ c_src
    close = np.nonzero(np.max(np.abs(images - c_dst), axis=1) <= tol)[0]
    for idx in close:
        if verify(stack[idx]):
            return stack[idx]
    return None


def _ideal(cell, coords, ci):
    return MixedCell(kind="ideal", klein_vertices=cell.klein_vertices,
                     ambient_vertices=coords,
                     internal_facets=[coords[list(f)] for f in cell.facets],
                     source_class=ci)


def ref_wall_lifts(g, word_bound):
    """(wall, matrix) pairs of the conjugates, wall by wall and in ball
    order, each matrix kept at its first occurrence only."""
    stack = g.word_ball(word_bound).matrices
    inverses = j_inverse(stack)
    out, seen = [], set()
    for r, tau in enumerate(g.reflections):
        conj = stack @ tau @ inverses
        out += [(r, conj[i]) for i in _first_new(conj, seen)]
    return out


def ref_quotient_classify(dec, g, word_bound=4):
    errors = []
    cells_out = []
    if not g.reflections:
        for ci, cell in enumerate(dec.cells):
            coords = np.array([op.point for op in dec.cell_points[ci]])
            cells_out.append(_ideal(cell, coords, ci))
        pairings, unpaired = ref_quotient_pairings(cells_out, g, word_bound)
        return MixedDecomposition(dec.dimension, cells_out, pairings,
                                  unpaired, errors)
    lifts = ref_wall_lifts(g, word_bound)
    stack = np.stack([m for _, m in lifts])
    case2 = {}
    for ci, cell in enumerate(dec.cells):
        coords = np.array([op.point for op in dec.cell_points[ci]])
        tol = PAIR_TOL * _scale(coords, coords)
        planes = []
        centroid = coords.mean(axis=0)
        close = np.nonzero(np.max(np.abs(stack @ centroid - centroid), axis=1)
                           <= tol)[0]
        for idx in close:
            r, m = lifts[idx]
            img = coords @ m.T
            if set_match(img, coords, tol):
                u = reflection_normal(m, strict=False)
                if u is None:
                    continue
                if not any(_same_plane(u, u2) for _, u2, _ in planes):
                    planes.append((r, u, m))
        if len(planes) > 1:
            errors.append((ci, "cell meets two distinct wall orbits"))
            continue
        if planes:
            case2[ci] = planes[0]
    mirrored_away = set()
    tau0 = g.reflections[0]
    for ci, cell in enumerate(dec.cells):
        if ci in case2 or ci in mirrored_away:
            continue
        coords = np.array([op.point for op in dec.cell_points[ci]])
        img = coords @ tau0.T
        partner = None
        for cj in range(len(dec.cells)):
            if cj in case2:
                continue
            M = ref_search(g, word_bound, img,
                           np.array([op.point for op in dec.cell_points[cj]]))
            if M is not None:
                partner = cj
                break
        if partner is None:
            errors.append((ci, "mirror cell class not found among certified cells"))
        elif partner == ci:
            errors.append((ci, "off-wall cell is its own mirror (inconsistent)"))
        elif partner > ci:
            mirrored_away.add(partner)
    for ci, cell in enumerate(dec.cells):
        if ci in mirrored_away:
            continue
        cops = dec.cell_points[ci]
        if ci in case2:
            r, u, m = case2[ci]
            try:
                mc = _truncate_cell(cell, cops, m, u, r, ci)
            except GeometryError as exc:
                errors.append((ci, str(exc)))
                continue
            worst = external_orthogonality(mc)
            if worst > ORTHO_TOL:
                errors.append((ci, f"external face not orthogonal ({worst})"))
            cells_out.append(mc)
        else:
            cells_out.append(_ideal(cell, np.array([op.point for op in cops]),
                                    ci))
    pairings, unpaired = ref_quotient_pairings(cells_out, g, word_bound)
    return MixedDecomposition(dec.dimension, cells_out, pairings, unpaired,
                              errors)


def ref_quotient_pairings(cells, g, word_bound):
    stack = g.word_ball(word_bound).matrices
    if g.reflections:
        stack = np.concatenate([stack, stack @ g.reflections[0]])
    slots = []
    for ci, mc in enumerate(cells):
        for fi, facet in enumerate(mc.internal_facets):
            slots.append(((ci, fi), np.asarray(facet, float)))
    pairings = {}
    unpaired = []
    for (key, coords) in slots:
        if key in pairings:
            continue
        c_src = coords.mean(axis=0)
        found = None
        images = stack @ c_src
        for (key2, coords2) in slots:
            if key2 == key or key2 in pairings or coords2.shape != coords.shape:
                continue
            c_dst = coords2.mean(axis=0)
            tol = PAIR_TOL * _scale(coords, coords2)
            close = np.nonzero(np.max(np.abs(images - c_dst), axis=1)
                               <= tol)[0]
            for idx in close:
                M = stack[idx]
                if set_match(coords @ M.T, coords2, tol):
                    found = (key2, M)
                    break
            if found:
                break
        if found is None:
            tol = PAIR_TOL * _scale(coords, coords)
            close = np.nonzero(np.max(np.abs(images - c_src), axis=1)
                               <= tol)[0]
            for idx in close:
                M = stack[idx]
                if np.max(np.abs(M - np.eye(M.shape[0]))) < 1e-9:
                    continue
                if set_match(coords @ M.T, coords, tol):
                    found = (key, M)
                    break
        if found is None:
            unpaired.append(key)
            continue
        key2, M = found
        pairings[key] = (key2, M)
        if key2 != key:
            pairings[key2] = (key, j_inverse(M))
    return pairings, unpaired


# ---------------------------------------------------------------------------
# Comparisons.
# ---------------------------------------------------------------------------

def assert_same_quotient(a, b):
    assert a.errors == b.errors
    assert a.unpaired == b.unpaired
    assert [(mc.kind, mc.source_class, mc.ambient_vertices.tobytes())
            for mc in a.cells] == [
        (mc.kind, mc.source_class, mc.ambient_vertices.tobytes())
        for mc in b.cells]
    assert list(a.pairings) == list(b.pairings)
    for key, (tgt, M) in a.pairings.items():
        tgt2, M2 = b.pairings[key]
        assert tgt == tgt2, key
        assert M.tobytes() == M2.tobytes(), key


def _symmetrized(spec):
    o = spec.options
    return symmetrize_decorations(spec.group, margin=o.margin,
                                  word_bound=min(4, o.word_bound),
                                  height_bound=o.height_bound)


def _path_classes(report):
    return [(rp.class_id, rp.length, [(c, q.index) for c, _, q, _ in rp.lifts])
            for rp in report.return_paths]


def _cut_classes(report):
    cx = report.cut_complex
    return ({k: [(c.nearest_ids, c.class_id) for c in cells]
             for k, cells in cx.cells.items()}, cx.class_counts)


def _cross(report, gs):
    cv = cross_validate(report.ep_decomposition, report.dual_decomposition,
                        gs, report.spec.options.word_bound,
                        tol=report.spec.options.tol)
    return cv.ok, cv.detail, cv.matched, cv.max_deviation


@contextmanager
def _reference():
    """Swap the two-source matcher and the inline quotient back in."""
    with pytest.MonkeyPatch.context() as mp:
        for mod in (matching, cutlocus, ep_hull):
            mp.setattr(mod, "find_group_element", ref_find_group_element)
        mp.setattr(io_cli, "quotient_classify", ref_quotient_classify)
        yield


SETTINGS = {
    "thrice_punctured_sphere": {},
    "once_punctured_torus": {},
    "figure3_surface": {},
    "figure_eight_knot": {},
    # the rung where a weaker matcher splits the classes
    "figure_eight_knot H=12": {"height_bound": 12.0},
}


@pytest.fixture(scope="module", params=sorted(SETTINGS))
def report_pair(request, all_reports, report_fig8_h12):
    name = request.param
    spec = _load(name.split()[0])
    for key, value in SETTINGS[name].items():
        setattr(spec.options, key, value)
    new = all_reports.get(name, report_fig8_h12)
    with _reference():
        ref = io_cli.run(spec)
    return new, ref, _symmetrized(spec)


class TestAgainstTwoSourceReference:
    def test_json_identical(self, report_pair):
        new, ref, _ = report_pair
        assert io_cli.emit(new, "json") == io_cli.emit(ref, "json")

    def test_return_path_classes(self, report_pair):
        new, ref, _ = report_pair
        assert _path_classes(new) == _path_classes(ref)

    def test_cut_locus_classes(self, report_pair):
        new, ref, _ = report_pair
        assert _cut_classes(new) == _cut_classes(ref)

    def test_cross_validation(self, report_pair):
        new, ref, gs = report_pair
        got = _cross(new, gs)
        with _reference():
            want = _cross(ref, gs)
        assert got == want

    def test_quotient_pairings_bitwise(self, report_pair):
        new, _, gs = report_pair
        dec = new.ep_decomposition
        wb = new.spec.options.word_bound
        assert_same_quotient(quotient_classify(dec, gs, wb),
                             ref_quotient_classify(dec, gs, wb))


class TestSyntheticQuotients:
    def test_mirror_pair(self):
        tau = np.diag([1.0, 1.0, -1.0])
        tri = [_ray(t) for t in (0.2, 0.9, 1.6)]
        dec = _synthetic_decomposition([tri, [tau @ p for p in tri]])
        g = GroupSpec(2, [], [tau], [np.asarray(tri[0])])
        assert_same_quotient(quotient_classify(dec, g, 2),
                             ref_quotient_classify(dec, g, 2))

    def test_two_wall_orbits(self):
        tau1 = np.diag([1.0, -1.0, 1.0])
        tau2 = np.diag([1.0, 1.0, -1.0])
        square = [_ray(t) for t in (np.pi / 4, 3 * np.pi / 4,
                                    5 * np.pi / 4, 7 * np.pi / 4)]
        dec = _synthetic_decomposition([square])
        g = GroupSpec(2, [], [tau1, tau2], [np.asarray(square[0])])
        mixed = quotient_classify(dec, g, 2)
        assert not mixed.ok
        assert_same_quotient(mixed, ref_quotient_classify(dec, g, 2))


class TestStackHits:
    SRC = np.array([[1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])

    def _stack(self):
        swap = np.array([[1.0, 0, 0], [0, 0, 1], [0, 1, 0]])
        flip = np.diag([1.0, -1.0, -1.0])
        return np.stack([flip, np.eye(3), swap, flip @ flip, swap @ flip])

    def test_hits_in_stack_order(self):
        stack = self._stack()
        assert list(stack_hits(stack, self.SRC, [self.SRC])) == [
            (0, 1), (0, 2), (0, 3)]
        dst = self.SRC @ stack[4].T
        assert list(stack_hits(stack, self.SRC, [dst])) == [(0, 0), (0, 4)]

    def test_destinations_at_once_equal_one_at_a_time(self):
        stack = self._stack()
        dsts = [self.SRC @ stack[4].T, self.SRC[:1], self.SRC,
                self.SRC + 0.5]
        assert list(stack_hits(stack, self.SRC, dsts)) == [
            (t, e) for t, dst in enumerate(dsts)
            for _, e in stack_hits(stack, self.SRC, [dst])]

    def test_miss_yields_nothing(self):
        stack = self._stack()
        far = self.SRC + np.array([0.0, 0.5, 0.0])
        assert list(stack_hits(stack, self.SRC, [far])) == []
        # another shape never matches
        assert list(stack_hits(stack, self.SRC, [self.SRC[:1]])) == []
        # same centroid, different set: screened in, refused by set_match
        other = np.array([[1.0, 0.5, 0.5], [1.0, 0.5, 0.5]])
        assert list(stack_hits(stack, self.SRC, [other])) == []


# ---------------------------------------------------------------------------
# References: one candidate, one representative, one system at a time.
# ---------------------------------------------------------------------------

def loop_find_group_element(g, word_bound, src_points, dst_points):
    src, dst = _points(src_points), _points(dst_points)
    if src.shape != dst.shape:
        return None
    scale = _scale(src, dst)
    tol = PAIR_TOL * scale
    if np.max(np.abs(_gram_key(src) - _gram_key(dst))) > tol * scale:
        return None
    for P in src_points[:2]:
        inv = j_inverse(P.matrix)
        for Q in dst_points:
            if Q.cusp_id != P.cusp_id:
                continue
            for s in g.stabilizer_stack(P.cusp_id, word_bound):
                M = Q.matrix @ s @ inv
                if set_match(src @ M.T, dst, tol):
                    return M
    return None


def loop_classify(classes, point_lists):
    """The ids and reps ``classes.classify(point_lists)`` must give: the
    lists one at a time, each searched against every rep in turn."""
    reps = [(rc, rp) for rc, rp, *_ in classes.reps]
    ids = []
    for points in point_lists:
        ci = next((ci for ci, (_, rp) in enumerate(reps)
                   if loop_find_group_element(classes.g, classes.word_bound,
                                              points, rp) is not None),
                  len(reps))
        if ci == len(reps):
            reps.append((_points(points), points))
        ids.append(ci)
    return ids, reps


def loop_vertex_enumeration(A, b, n):
    m = len(A)
    vertices = []
    for combo in combinations(range(m), n):
        M = A[list(combo)]
        try:
            k = np.linalg.solve(M, b[list(combo)])
        except np.linalg.LinAlgError:
            continue
        resid = A @ k - b
        if np.min(resid) < -1e-9:
            continue
        active = tuple(i for i in range(m) if abs(resid[i]) <= 1e-8)
        vertices.append((k, active))
    uniq = []
    for k, active in vertices:
        if not any(np.max(np.abs(k - k2)) < 1e-9 for k2, _ in uniq):
            uniq.append((k, active))
    return uniq


def _bits(M):
    return None if M is None else (M.shape, M.tobytes())


def _rep_bits(reps):
    return [(rc.shape, rc.tobytes(), [id(op) for op in rp])
            for rc, rp, *_ in reps]


def _vertex_bits(verts):
    return [(k.shape, k.tobytes(), active) for k, active in verts]


LOOP_SETTINGS = {
    "thrice_punctured_sphere": {},
    "once_punctured_torus": {},
    "figure3_surface": {},
    "figure_eight_knot": {},
    "figure_eight_knot H=12": {"height_bound": 12.0},
    "figure_eight_knot H=16": {"height_bound": 16.0},
    "figure3_surface H=320": {"height_bound": 320.0},
}


@pytest.fixture(scope="module", params=sorted(LOOP_SETTINGS))
def loop_pairs(request):
    """(stacked, loop) results of every search in one run of a setting."""
    name = request.param
    spec = _load(name.split()[0])
    for key, value in LOOP_SETTINGS[name].items():
        setattr(spec.options, key, value)
    finds, classes, verts = [], [], []
    stacked_find = matching.find_group_element
    stacked_classify = matching.GammaClasses.classify
    stacked_enum = cutlocus._vertex_enumeration

    def find(*args, **kwargs):
        got = stacked_find(*args, **kwargs)
        finds.append((_bits(got), _bits(loop_find_group_element(*args,
                                                                **kwargs))))
        return got

    def classify(self, point_lists):
        want_ids, want_reps = loop_classify(self, point_lists)
        got = stacked_classify(self, point_lists)
        classes.append(((got, _rep_bits(self.reps)),
                        (want_ids, _rep_bits(want_reps))))
        return got

    def enum(A, b, n):
        got = stacked_enum(A, b, n)
        verts.append((_vertex_bits(got),
                      _vertex_bits(loop_vertex_enumeration(A, b, n))))
        return got

    with pytest.MonkeyPatch.context() as mp:
        for mod in (matching, cutlocus, ep_hull):
            mp.setattr(mod, "find_group_element", find)
        mp.setattr(matching.GammaClasses, "classify", classify)
        mp.setattr(cutlocus, "_vertex_enumeration", enum)
        io_cli.run(spec)
    return finds, classes, verts


class TestAgainstLoops:
    def test_find_group_element_bitwise(self, loop_pairs):
        finds, _, _ = loop_pairs
        assert finds
        assert any(got is not None for got, _ in finds)
        for got, want in finds:
            assert got == want

    def test_classify_bitwise(self, loop_pairs):
        _, classes, _ = loop_pairs
        assert classes
        for got, want in classes:
            assert got == want

    def test_vertex_enumeration_bitwise(self, loop_pairs):
        _, _, verts = loop_pairs
        assert verts
        for got, want in verts:
            assert got == want


class TestFirstCandidate:
    def test_single_vertex_sets_take_the_first_stabilizer(self):
        # every stabilizer candidate maps a lone cusp vertex onto its
        # image, so the search must return the first of the stack
        spec = _load("once_punctured_torus")
        g, wb = spec.group, spec.options.word_bound
        points = orbit(g, wb, spec.options.height_bound)
        assert len(g.stabilizer_stack(0, wb)) > 1
        for P in points[:3]:
            for Q in points[:6]:
                got = matching.find_group_element(g, wb, [P], [Q])
                want = loop_find_group_element(g, wb, [P], [Q])
                assert _bits(got) == _bits(want)
                if got is not None:
                    inv = j_inverse(P.matrix)
                    assert _bits(got) == _bits(Q.matrix @ np.eye(3) @ inv)


class TestVertexEnumeration:
    def _same_as_loop(self, A, b, n):
        got = cutlocus._vertex_enumeration(A, b, n)
        want = loop_vertex_enumeration(A, b, n)
        assert _vertex_bits(got) == _vertex_bits(want)
        return got

    def test_fewer_rows_than_unknowns(self):
        assert cutlocus._vertex_enumeration(np.ones((1, 2)), np.zeros(1),
                                            2) == []
        assert cutlocus._vertex_enumeration(np.ones((2, 3)), np.zeros(2),
                                            3) == []

    def test_box_with_singular_combos(self):
        # rows e_i and -e_i are parallel: every combination holding both
        # is singular and skipped; the 2^n box corners remain
        for n in (2, 3):
            A, b = cutlocus._box_constraints(n)
            got = self._same_as_loop(A, b, n)
            assert len(got) == 2 ** n
            assert all(len(active) == n for _, active in got)

    def test_degenerate_apex_and_a_1e9_chain(self):
        # a square pyramid whose four sides meet at the apex (0, 0, 1), so
        # four row combinations give the apex; two caps above it give the
        # points 0.8e-9 and 1.6e-9 up each side edge, feasible within
        # the 1e-9 residual since the sides are scaled by 0.1.  The
        # chain apex ~ lower cap ~ upper cap is not transitive: the
        # apex and the upper cap's points stay, the lower cap's go
        s = 0.1
        A = np.array([[-s, 0, -s], [s, 0, -s], [0, -s, -s], [0, s, -s],
                      [0, 0, 1.0], [0, 0, -1.0], [0, 0, -1.0]])
        b = np.array([-s, -s, -s, -s, 0.0, -(1 + 0.8e-9), -(1 + 1.6e-9)])
        got = self._same_as_loop(A, b, 3)
        top = [k for k, _ in got if k[2] > 0.5]
        assert len(got) == 4 + len(top)      # the base corners, then these
        assert len(top) == 5
        apex = [k for k in top if np.max(np.abs(k - [0, 0, 1])) < 1e-12]
        assert len(apex) == 1
        for k in top:
            if k is not apex[0]:
                assert np.allclose(np.abs(k), [1.6e-9, 1.6e-9, 1 + 1.6e-9],
                                   rtol=0, atol=1e-15)

    def test_several_blocks(self):
        rng = np.random.default_rng(20250810)
        n = 3
        U = rng.normal(size=(18, n))
        U /= np.linalg.norm(U, axis=1)[:, None]
        Ab, bb = cutlocus._box_constraints(n)
        # a repeated row makes singular systems in every block
        A = np.vstack([U, U[:1], Ab])
        b = np.concatenate([-0.5 * np.ones(19), bb])
        assert len(list(combinations(range(len(A)), n))) > (
            2 * cutlocus.VERTEX_BLOCK)
        got = self._same_as_loop(A, b, n)
        assert got
