from dataclasses import replace

import numpy as np
import pytest

from conftest import set_match
from hypdecomp import matching
from hypdecomp.doubling import symmetrize_decorations
from hypdecomp.group import (GroupSpec, OrbitPoint, OrbitSet, lorentz_inverse,
                             orbit)
from hypdecomp.io_cli import run
from hypdecomp.matching import (PAIR_TOL, GammaClasses, _first_hits, _scale,
                                _search_key, find_group_element,
                                greedy_deviation, match_index, pair_hits,
                                stack_hits)
from test_ep_hull import FIXTURES, _case_id, _spec

SQUARE = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])


class TestMatchIndex:
    def test_first_match_shape_mismatch_and_none(self):
        query = SQUARE[::-1] + 1e-9
        candidates = [SQUARE[:3],            # other shape: skipped
                      SQUARE + 0.5,          # same shape, out of tolerance
                      SQUARE,                # first match
                      SQUARE.copy()]         # later match, not returned
        assert match_index(candidates, query, 1e-6) == 2
        assert match_index(candidates[:2], query, 1e-6) is None
        assert match_index([], query, 1e-6) is None


class TestGreedyDeviation:
    def test_worst_pair_distance(self):
        B = SQUARE + np.array([[0.0, 0.0], [2e-7, 0.0], [0.0, 0.0], [0.0, -3e-7]])
        assert abs(greedy_deviation(SQUARE[::-1], B) - 3e-7) < 1e-15
        assert set_match(SQUARE[::-1], B, 3e-7)
        assert not set_match(SQUARE[::-1], B, 2.5e-7)


def _rotation(phi):
    c, s = np.cos(phi), np.sin(phi)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


class TestGammaClasses:
    PAIR = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0]])

    def _objects(self, *sets):
        return [(c, [OrbitPoint(point=p, cusp_id=0, matrix=np.eye(3))
                     for p in c]) for c in sets]

    def _classes(self):
        # the trivial group: every candidate is the identity
        return GammaClasses(GroupSpec(2, [], [], [self.PAIR[0]]), 2)

    @pytest.fixture
    def searched(self, monkeypatch):
        """The destination set and the sources of every ``pair_hits``
        call."""
        calls = []
        hits = matching.pair_hits

        def counted(left, right, srcs, dst, tols):
            calls.append((dst, srcs))
            return hits(left, right, srcs, dst, tols)

        monkeypatch.setattr(matching, "pair_hits", counted)
        return calls

    def test_only_close_gram_keys_are_searched(self, searched):
        pair = self.PAIR
        classes = self._classes()
        assert classes.classify(self._objects(pair)) == [0]
        assert not searched
        # another shape never reaches the search
        triple = np.vstack([pair, [[1.0, -1.0, 0.0]]])
        assert classes.classify(self._objects(triple)) == [1]
        assert not searched
        # a far Gram key (the same rays, twice the horoball scale) neither
        assert classes.classify(self._objects(2.0 * pair)) == [2]
        assert not searched
        # the object itself passes the screen and is found, by the identity
        assert classes.classify(self._objects(pair)) == [0]
        assert len(searched) == 1 and searched[0][0] is classes.reps[0][0]
        [M] = classes.g._search_cache.values()
        assert np.array_equal(M, np.eye(3))

    def test_equal_objects_share_one_search(self, searched):
        classes = self._classes()
        pair = self.PAIR
        far = 2.0 * pair
        objects = self._objects(pair, far, pair.copy(), far.copy(), pair)
        assert classes.classify(objects) == [0, 1, 0, 1, 0]
        # one round per rep, one source per distinct search key
        assert [len(srcs) for _, srcs in searched] == [1, 1]
        assert classes.classify(objects) == [0, 1, 0, 1, 0]
        assert len(searched) == 2

    def test_gram_far_object_starts_a_class_unsearched(self, searched):
        classes = self._classes()
        objects = self._objects(self.PAIR, 2.0 * self.PAIR)
        assert classes.classify(objects) == [0, 1]
        assert not searched and classes.g._search_cache == {}
        assert [rp for _, rp, *_ in classes.reps] == [p for _, p in objects]

    def test_shapes_split_into_their_own_rounds(self):
        pair = self.PAIR
        triple = np.vstack([pair, [[1.0, -1.0, 0.0]]])
        classes = self._classes()
        objects = self._objects(pair, triple, pair.copy(), triple.copy(),
                                2.0 * pair, 2.0 * pair)
        assert classes.classify(objects) == [0, 1, 0, 1, 2, 2]
        assert [rp for _, rp, *_ in classes.reps] == [
            objects[i][1] for i in (0, 1, 4)]
        # a later call tries the reps it finds first
        assert classes.classify(self._objects(triple, pair)) == [1, 0]
        assert len(classes.reps) == 3

    def test_first_of_two_matching_reps_wins(self):
        # b is a but turned by 1.6e-6, beyond the tolerance 1e-6; x, half
        # way, is within it of both
        a = np.array([[1.0, np.cos(t), np.sin(t)] for t in (0.3, 2.0, 4.0)])
        b, x = (a @ _rotation(phi).T for phi in (1.6e-6, 0.8e-6))
        assert not set_match(a, b, 1e-6)
        assert set_match(x, a, 1e-6) and set_match(x, b, 1e-6)
        for order in ((a, b), (b, a)):
            classes = self._classes()
            assert classes.classify(self._objects(*order, x)) == [0, 1, 0]
            assert classes.reps[0][0] is order[0]

    def test_empty_list(self):
        classes = self._classes()
        assert classes.classify([]) == []
        assert classes.reps == []
        classes.classify(self._objects(self.PAIR))
        assert classes.classify([]) == [] and len(classes.reps) == 1

    @pytest.mark.parametrize("name", ["thrice_punctured_sphere",
                                      "once_punctured_torus"])
    def test_filed_matrix_is_the_search_result(self, name):
        # every (object, rep) pair a classify decides is in the spec's
        # search cache, with what ``_first_hits`` on a fresh spec returns
        # for it: for a lone vertex every stabilizer element hits, and
        # the first must win
        spec = _spec(name)
        g, wb = spec.group, spec.options.word_bound
        assert len(g.stabilizer_stack(0, wb)) > 1
        pts = OrbitSet(orbit(g, wb, spec.options.height_bound))
        base = pts.find(g.cusp_reps[0])
        objects = [(np.array([base.point, q.point]), [base, q])
                   for q in pts if q is not base]
        objects += [(q.point, [q]) for q in pts]
        classes = GammaClasses(g, wb)
        ids = classes.classify(objects)
        assert len(classes.reps) < len(objects)
        found = []
        for (coords, points), ci in zip(objects, ids):
            coords = np.atleast_2d(coords)
            for rc, rp, *_ in classes.reps[:ci + 1]:
                if rc.shape != coords.shape:
                    continue
                tol = PAIR_TOL * _scale(coords, rc)
                key = _search_key(wb, tol, coords, rc, points, rp)
                if key not in g._search_cache:
                    continue
                got = g._search_cache[key]
                [want] = _first_hits(replace(g), wb, [coords], [points],
                                     [tol], rc, rp)
                assert (got is None) == (want is None)
                if got is not None:
                    assert got.tobytes() == want.tobytes()
                found.append(got is not None)
        assert True in found and False in found


def loop_first_hit(g, word_bound, src, src_points, tol, dst, dst_points):
    """The first Q.matrix @ s @ P^-1, in (P, Q, s) order, mapping ``src``
    onto ``dst`` within ``tol``, trying one candidate at a time."""
    for P in src_points[:2]:
        inv = lorentz_inverse(P.matrix)
        for Q in dst_points:
            if Q.cusp_id == P.cusp_id:
                for s in g.stabilizer_stack(P.cusp_id, word_bound):
                    M = Q.matrix @ s @ inv
                    if greedy_deviation(src @ M.T, dst) <= tol:
                        return M
    return None


class TestFirstHits:
    @pytest.mark.parametrize("name,lone", [("once_punctured_torus", False),
                                           ("thrice_punctured_sphere", True)],
                             ids=["pairs", "lone vertices"])
    def test_sources_at_once_are_sources_one_at_a_time(self, name, lone):
        # pairs from the base vertex, or lone vertices, a third of them
        # repeated as equal copies, against the first: some hit, others
        # do not.  Every stabilizer element hits a lone vertex of the
        # destination's cusp, and the first in (P, Q, s) order must win.
        spec = _spec(name)
        g, wb = spec.group, spec.options.word_bound
        pts = OrbitSet(orbit(g, wb, spec.options.height_bound))
        base = pts.find(g.cusp_reps[0])
        if lone:
            objects = [(np.atleast_2d(q.point), [q]) for q in pts]
        else:
            objects = [(np.array([base.point, q.point]), [base, q])
                       for q in pts if q is not base]
        n = len(objects)
        objects += [(c.copy(), list(p)) for c, p in objects[::3]]
        dst, dst_points = objects[0]
        srcs = [c for c, _ in objects]
        points = [p for _, p in objects]
        tols = [PAIR_TOL * _scale(c, dst) for c in srcs]
        got = _first_hits(replace(g), wb, srcs, points, tols, dst, dst_points)
        assert len(got) == len(srcs)
        hit = [M is not None for M in got]
        assert sum(hit) > 1 and not all(hit)
        assert True in hit[n:] and False in hit[n:]
        for args, M in zip(zip(srcs, points, tols), got):
            [want] = _first_hits(replace(g), wb, *([a] for a in args), dst,
                                 dst_points)
            loop = loop_first_hit(g, wb, *args, dst, dst_points)
            assert (M is None) == (want is None) == (loop is None)
            if M is not None:
                assert M.dtype == want.dtype and M.shape == want.shape
                assert M.tobytes() == want.tobytes()
                assert np.array_equal(M, loop)


def loop_greedy_deviation(A, B, tol=np.inf):
    """The one-set-at-a-time greedy that the batched one replaced."""
    used = np.zeros(len(B), dtype=bool)
    worst = 0.0
    for a in A:
        d = np.max(np.abs(B - a), axis=1)
        d[used] = np.inf
        j = int(np.argmin(d))
        dj = float(d[j])
        if dj > tol:
            return dj
        used[j] = True
        if dj > worst:
            worst = dj
    return worst


def loop_stack_hits(stack, src, dst, tol):
    if src.shape != dst.shape:
        return []
    images = stack @ src.mean(axis=0)
    close = np.flatnonzero(np.max(np.abs(images - dst.mean(axis=0)), axis=1)
                           <= tol)
    return [int(i) for i in close
            if loop_greedy_deviation(src @ stack[i].T, dst, tol) <= tol]


def _image_stack(rng, B, k):
    """k noisy row permutations of B: some within 1e-6, some not."""
    out = []
    for _ in range(k):
        noise = rng.choice([1e-9, 4e-7, 3e-6, 0.3])
        out.append(B[rng.permutation(len(B))]
                   + rng.uniform(-noise, noise, size=B.shape))
    return np.array(out).reshape(k, *B.shape)


class TestBatchedGreedy:
    @pytest.mark.parametrize("k", [0, 1, 7])
    def test_stack_matches_loop(self, k):
        rng = np.random.default_rng(k)
        for m, d in ((2, 3), (3, 4), (4, 4)):
            B = rng.normal(size=(m, d))
            A = _image_stack(rng, B, k)
            got = greedy_deviation(A, B)
            assert got.shape == (k,)
            assert got.tolist() == [loop_greedy_deviation(a, B) for a in A]

    def test_one_set_is_a_scalar(self):
        B = SQUARE + 1e-7
        got = greedy_deviation(SQUARE[::-1], B)
        assert np.ndim(got) == 0
        assert got == loop_greedy_deviation(SQUARE[::-1], B)

    def test_argmin_tie_takes_the_first_row(self):
        # the first row is 1 from both rows of B; taking the first leaves
        # the second row its partner at 0.5, taking the other one would
        # leave it 2 away
        A = np.array([[1.0, 0.0], [2.0, 0.5]])
        B = np.array([[0.0, 0.0], [2.0, 0.0]])
        assert loop_greedy_deviation(A, B) == 1.0
        got = greedy_deviation(np.stack([A, A[::-1], A]), B)
        assert got.tolist() == [1.0, loop_greedy_deviation(A[::-1], B), 1.0]

    def test_value_past_a_miss_is_the_worst_distance(self):
        # a walk stopped at the first row's miss (1 > tol) reads 1, the
        # whole walk reaches 9 on the second row; both miss at tol
        A = np.array([[1.0, 0.0], [9.0, 0.0]])
        B = np.array([[0.0, 0.0], [0.0, 0.2]])
        assert loop_greedy_deviation(A, B, 0.5) == 1.0
        got = greedy_deviation(np.stack([A, B[::-1]]), B)
        assert got.tolist() == [9.0, 0.0] == [loop_greedy_deviation(A, B), 0.0]
        assert not set_match(A, B, 0.5)

    def test_stack_hits_match_loop(self):
        rng = np.random.default_rng(3)
        for d in (3, 4):
            src = rng.normal(size=(3, d))
            rot = np.linalg.qr(rng.normal(size=(d, d)))[0]
            dst = src @ rot.T
            # the true map, near misses of it and unrelated matrices
            stack = np.array([rot + rng.uniform(-s, s, size=(d, d))
                              for s in (0.0, 1e-10, 1e-7, 1e-3, 0.5)] * 3)
            stack = stack[rng.permutation(len(stack))]
            for tol in (1e-9, 1e-6):
                got = list(stack_hits(stack, src, dst, tol))
                assert got == loop_stack_hits(stack, src, dst, tol)
            assert got
            assert list(stack_hits(stack[:0], src, dst, 1e-6)) == []
            assert (list(stack_hits(stack[:1], src, dst, 1e-6))
                    == loop_stack_hits(stack[:1], src, dst, 1e-6))


    @pytest.mark.parametrize("d", [3, 4])
    def test_pair_hits_match_stack_hits(self, d):
        rng = np.random.default_rng(d)
        src = rng.normal(size=(3, d))
        rot = np.linalg.qr(rng.normal(size=(d, d)))[0]
        dst = src @ rot.T
        # left[j] @ right[k] is the true map, a near miss or unrelated
        left = np.array([rot + rng.uniform(-s, s, size=(d, d))
                         for s in (0.0, 1e-10, 1e-7, 1e-3, 0.5)] * 2)
        right = np.array([np.eye(d) + rng.uniform(-s, s, size=(d, d))
                          for s in (0.0, 1e-11, 1e-7, 0.0, 0.1, 0.0)])
        srcs = np.array([src + rng.uniform(-s, s, size=src.shape)
                         for s in (0.0, 1e-9, 0.0, 1e-6, 0.0, 0.2)])
        tols = np.array([1e-9, 1e-6, 1e-6, 1e-9, 1e-6, 1e-6])
        k, j, M = pair_hits(left, right, srcs, dst, tols)
        want = sorted((jj, kk) for kk in range(len(right))
                      for jj in stack_hits(left @ right[kk], srcs[kk], dst,
                                           tols[kk]))
        assert len(want) > 2 and list(zip(j.tolist(), k.tolist())) == want
        for kk, jj, m in zip(k, j, M):
            assert m.tobytes() == (left @ right[kk])[jj].tobytes()


def loop_match_index(candidates, query, tol):
    """The one-candidate-at-a-time loop that the stacked one replaced."""
    for i, B in enumerate(candidates):
        if set_match(query, B, tol):
            return i
    return None


class TestStackedMatcher:
    @pytest.mark.parametrize("seed", range(4))
    def test_stacked_b_side_matches_loop(self, seed):
        rng = np.random.default_rng(seed)
        for m, d in ((1, 3), (2, 3), (3, 4), (4, 4)):
            A = rng.normal(size=(m, d))
            for k in (0, 1, 6):
                B = _image_stack(rng, A, k)
                got = greedy_deviation(A, B)
                assert got.shape == (k,)
                assert got.tolist() == [loop_greedy_deviation(A, b) for b in B]
            # a stack on both sides pairs set i with set i
            As, Bs = _image_stack(rng, A, 5), _image_stack(rng, A, 5)
            assert greedy_deviation(As, Bs).tolist() == [
                loop_greedy_deviation(a, b) for a, b in zip(As, Bs)]

    def test_stacked_ties_take_the_first_row(self):
        A = np.array([[1.0, 0.0], [2.0, 0.5]])
        B = np.array([[0.0, 0.0], [2.0, 0.0]])
        got = greedy_deviation(A, np.stack([B, B[::-1], B]))
        assert got.tolist() == [loop_greedy_deviation(A, B),
                                loop_greedy_deviation(A, B[::-1]),
                                loop_greedy_deviation(A, B)]

    @pytest.mark.parametrize("seed", range(6))
    def test_match_index_matches_loop(self, seed):
        rng = np.random.default_rng(100 + seed)
        query = rng.normal(size=(3, 4))
        # near and far images of the query mixed with sets of other shapes
        candidates = []
        for _ in range(12):
            kind = rng.integers(3)
            if kind == 0:
                candidates.append(rng.normal(size=(int(rng.integers(1, 5)), 4)))
            else:
                candidates.append(_image_stack(rng, query, 1)[0])
        for tol in (1e-9, 1e-6, 1e-3):
            want = loop_match_index(candidates, query, tol)
            assert match_index(candidates, query, tol) == want
            assert match_index(iter(candidates), query, tol) == want
            assert match_index((c for c in candidates[::-1]), query,
                               tol) == loop_match_index(candidates[::-1],
                                                        query, tol)

    def test_first_of_two_matches_wins(self):
        query = SQUARE[::-1]
        candidates = [SQUARE[:2], SQUARE + 1.0, SQUARE, SQUARE[[1, 0, 3, 2]]]
        assert match_index(candidates, query, 1e-6) == 2
        assert match_index(candidates[::-1], query, 1e-6) == 0
        assert loop_match_index(candidates, query, 1e-6) == 2

    def test_empty_and_shape_only_candidates(self):
        assert match_index([], SQUARE, 1e-6) is None
        assert match_index((B for B in []), SQUARE, 1e-6) is None
        assert match_index([SQUARE[:3], SQUARE[:, :1]], SQUARE, np.inf) is None
        # one point: rows are promoted to sets as set_match does
        assert match_index([np.zeros(2), np.ones(2)], np.ones(2), 1e-6) == 1


# the fixtures, their first seed-1 rotations and the raised bounds of
# the bound sweep
CACHE_CASES = ([(name, None, {}) for name in FIXTURES]
               + [(name, 0, {}) for name in FIXTURES]
               + [("figure_eight_knot", None, {"height_bound": h})
                  for h in (12.0, 16.0)]
               + [("figure3_surface", None, {"height_bound": 320.0})])


def _recorded_searches(monkeypatch, spec):
    """(arguments, results) of every _first_hits call of one run."""
    calls = []
    first_hits = matching._first_hits

    def recording(g, word_bound, srcs, src_points, tols, dst, dst_points):
        args = (g, word_bound, [src.copy() for src in srcs],
                [list(p) for p in src_points], list(tols), dst.copy(),
                list(dst_points))
        found = first_hits(*args)
        calls.append((args, found))
        return found

    monkeypatch.setattr(matching, "_first_hits", recording)
    run(spec)
    monkeypatch.undo()
    return calls


class TestSearchCache:
    @pytest.mark.parametrize("name,draw,overrides", CACHE_CASES,
                             ids=map(_case_id, CACHE_CASES))
    def test_every_result_is_the_uncached_search(self, monkeypatch, name,
                                                 draw, overrides):
        calls = _recorded_searches(monkeypatch, _spec(name, draw, **overrides))
        assert calls
        for (g, *args), found in calls:
            for got, want in zip(found, _first_hits(replace(g), *args),
                                 strict=True):
                if want is None:
                    assert got is None
                else:
                    assert got.dtype == want.dtype
                    assert got.shape == want.shape
                    assert got.tobytes() == want.tobytes()

    def _hit_call(self, monkeypatch):
        """(g, word bound, source, destination, their points, tolerance)
        of the first hit of a run."""
        calls = _recorded_searches(monkeypatch,
                                   _spec("once_punctured_torus", None))
        return next((g, W, src, dst, sp, dp, tol)
                    for (g, W, srcs, sps, tols, dst, dp), found in calls
                    for src, sp, tol, M in zip(srcs, sps, tols, found)
                    if M is not None)

    def test_a_changed_result_leaves_later_hits_alone(self, monkeypatch):
        g, W, src, dst, sp, dp, _ = self._hit_call(monkeypatch)
        first = find_group_element(g, W, src, dst, sp, dp)
        kept = first.copy()
        first[:] = 0.0
        again = find_group_element(g, W, src, dst, sp, dp)
        assert again.tobytes() == kept.tobytes()
        assert again is not first

    def test_tol_and_word_bound_are_keyed(self, monkeypatch):
        g, W, src, dst, sp, dp, tol = self._hit_call(monkeypatch)
        searched = []
        hits = matching.pair_hits

        def counted(*args):
            searched.append(args)
            return hits(*args)

        monkeypatch.setattr(matching, "pair_hits", counted)
        g = replace(g)      # a fresh spec, so a fresh cache
        assert g._search_cache == {}
        made = []
        for bound, t in ((W, tol), (W, 2.0 * tol), (W + 1, tol), (W, tol),
                         (W, 2.0 * tol), (W + 1, tol)):
            before = len(searched)
            _first_hits(g, bound, [src], [sp], [t], dst, dp)
            if len(searched) > before:
                made.append((bound, t))
        assert made == [(W, tol), (W, 2.0 * tol), (W + 1, tol)]

    def test_input_and_symmetrized_specs_keep_their_own_caches(self):
        spec = _spec("once_punctured_torus", None)
        g = spec.group
        o = spec.options
        gs = symmetrize_decorations(g, margin=o.margin,
                                    word_bound=min(4, o.word_bound),
                                    height_bound=o.height_bound)
        assert gs is not g and gs._search_cache is not g._search_cache
        pts = OrbitSet(orbit(gs, o.word_bound, o.height_bound))
        pair = [pts[0], pts[1]]
        coords = np.array([op.point for op in pair])
        classes = GammaClasses(gs, o.word_bound)
        assert classes.classify([(coords, pair), (coords, pair)]) == [0, 0]
        assert gs._search_cache and g._search_cache == {}
