from dataclasses import replace

import numpy as np
import pytest

from conftest import j_inverse, pair_match, set_match
from hypdecomp import matching
from hypdecomp.doubling import symmetrize_decorations
from hypdecomp.group import GroupSpec, OrbitPoint, OrbitSet, orbit
from hypdecomp.io_cli import run
from hypdecomp.matching import (PAIR_TOL, GammaClasses, _first_hits, _scale,
                                _search_key, find_group_element, first_images,
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
        assert match_index(candidates, query) == 2
        assert match_index(candidates[:2], query) is None
        assert match_index([], query) is None


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
        return [[OrbitPoint(point=p, cusp_id=0, matrix=np.eye(3)) for p in c]
                for c in sets]

    def _classes(self):
        # the trivial group: every candidate is the identity
        return GammaClasses(GroupSpec(2, [], [], [self.PAIR[0]]), 2)

    @pytest.fixture
    def searched(self, monkeypatch):
        """The destination set and the sources of every ``pair_hits``
        call."""
        calls = []
        hits = matching.pair_hits

        def counted(left, right, srcs, dst):
            calls.append((dst, srcs))
            return hits(left, right, srcs, dst)

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
        assert [rp for _, rp, _ in classes.reps] == objects

    def test_shapes_split_into_their_own_rounds(self):
        pair = self.PAIR
        triple = np.vstack([pair, [[1.0, -1.0, 0.0]]])
        classes = self._classes()
        objects = self._objects(pair, triple, pair.copy(), triple.copy(),
                                2.0 * pair, 2.0 * pair)
        assert classes.classify(objects) == [0, 1, 0, 1, 2, 2]
        assert [rp for _, rp, _ in classes.reps] == [
            objects[i] for i in (0, 1, 4)]
        # a later call tries the reps it finds first
        assert classes.classify(self._objects(triple, pair)) == [1, 0]
        assert len(classes.reps) == 3

    def test_first_of_two_matching_reps_wins(self):
        # b is a but turned by 1.6e-6, beyond the pair tolerance 1e-6 of
        # these unit-scale sets; x, half way, is within it of both
        a = np.array([[1.0, np.cos(t), np.sin(t)] for t in (0.3, 2.0, 4.0)])
        b, x = (a @ _rotation(phi).T for phi in (1.6e-6, 0.8e-6))
        assert not pair_match(a, b)
        assert pair_match(x, a) and pair_match(x, b)
        for order in ((a, b), (b, a)):
            classes = self._classes()
            objects = self._objects(*order, x)
            assert classes.classify(objects) == [0, 1, 0]
            assert classes.reps[0][1] is objects[0]

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
        objects = [[base, q] for q in pts if q is not base]
        objects += [[q] for q in pts]
        classes = GammaClasses(g, wb)
        ids = classes.classify(objects)
        assert len(classes.reps) < len(objects)
        found = []
        for points, ci in zip(objects, ids):
            coords = np.array([op.point for op in points])
            for rc, rp, _ in classes.reps[:ci + 1]:
                if rc.shape != coords.shape:
                    continue
                key = _search_key(wb, coords, rc, points, rp)
                if key not in g._search_cache:
                    continue
                got = g._search_cache[key]
                [want] = _first_hits(replace(g), wb, [coords], [points], rc,
                                     rp)
                assert (got is None) == (want is None)
                if got is not None:
                    assert got.tobytes() == want.tobytes()
                found.append(got is not None)
        assert True in found and False in found


def loop_first_hit(g, word_bound, src, src_points, dst, dst_points):
    """The first Q.matrix @ s @ P^-1, in (P, Q, s) order, mapping ``src``
    onto ``dst`` by the pair rule, trying one candidate at a time."""
    tol = PAIR_TOL * _scale(src, dst)
    for P in src_points[:2]:
        inv = j_inverse(P.matrix)
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
        got = _first_hits(replace(g), wb, srcs, points, dst, dst_points)
        assert len(got) == len(srcs)
        hit = [M is not None for M in got]
        assert sum(hit) > 1 and not all(hit)
        assert True in hit[n:] and False in hit[n:]
        for args, M in zip(zip(srcs, points), got):
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


def loop_stack_hits(stack, src, dsts):
    """Every (destination, matrix) pair, one matrix at a time, that maps
    ``src`` onto the destination by the pair rule."""
    out = []
    for t, dst in enumerate(dsts):
        if dst.shape == src.shape:
            tol = PAIR_TOL * _scale(src, dst)
            out += [(t, e) for e in range(len(stack))
                    if loop_greedy_deviation(src @ stack[e].T, dst, tol) <= tol]
    return out


def _image_stack(rng, B, k, noises=(1e-9, 4e-7, 3e-6, 0.3)):
    """k noisy row permutations of B: by default some within 1e-6, some
    not."""
    out = []
    for _ in range(k):
        noise = rng.choice(noises)
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
                              for s in (0.0, 1e-10, 1e-7, 1e-6, 1e-3, 0.5)]
                             * 3)
            stack = stack[rng.permutation(len(stack))]
            # another shape, the destination with its rows permuted, noisy
            # copies of it within and beyond the tolerance, and the source
            dsts = [dst[:2], dst[::-1]] + [
                dst + rng.uniform(-s, s, size=dst.shape)
                for s in (1e-9, 1e-7, 1e-5)] + [src]
            got = list(stack_hits(stack, src, dsts))
            assert got == loop_stack_hits(stack, src, dsts)
            hit = {t for t, _ in got}
            assert {1, 2, 3} <= hit and not {0, 4} & hit
            assert len(got) < len(stack) * len(hit)
            assert list(stack_hits(stack[:0], src, dsts)) == []
            assert list(stack_hits(stack, src, [])) == []
            assert (list(stack_hits(stack[:1], src, dsts))
                    == loop_stack_hits(stack[:1], src, dsts))

    def test_stack_hits_stops_at_the_first_hit(self):
        # a consumer that takes the first hit screens no later destination
        rng = np.random.default_rng(5)
        src = rng.normal(size=(3, 4))
        rot = np.linalg.qr(rng.normal(size=(4, 4)))[0]
        stack = np.array([np.eye(4), rot])
        dsts = [src + 0.5, src @ rot.T, src, src + 0.5]
        taken = []

        def lazy():
            for dst in dsts:
                taken.append(dst)
                yield dst

        assert next(stack_hits(stack, src, lazy())) == (1, 1)
        assert len(taken) == 2


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
        # sources within the pair tolerance, about 1e-6 times their
        # scale, of a set the true map carries onto dst, and beyond it
        srcs = np.array([src + rng.uniform(-s, s, size=src.shape)
                         for s in (0.0, 1e-9, 1e-7, 1e-5, 0.0, 0.2)])
        k, j, M = pair_hits(left, right, srcs, dst)
        want = sorted((jj, kk) for kk in range(len(right))
                      for _, jj in stack_hits(left @ right[kk], srcs[kk],
                                              [dst]))
        assert len(want) > 2 and list(zip(j.tolist(), k.tolist())) == want
        assert {3, 5}.isdisjoint(k.tolist())
        for kk, jj, m in zip(k, j, M):
            assert m.tobytes() == (left @ right[kk])[jj].tobytes()


def loop_match_index(candidates, query):
    """The one-candidate-at-a-time loop that the stacked one replaced."""
    for i, B in enumerate(candidates):
        if pair_match(query, B):
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
        # images of the query all beyond the pair tolerance, near and far
        # ones mixed, and all within it, mixed with sets of other shapes
        found = []
        for noises in ((3e-5, 0.3), (1e-9, 4e-7, 3e-6, 0.3), (1e-9,)):
            candidates = []
            for _ in range(12):
                if rng.integers(3) == 0:
                    candidates.append(
                        rng.normal(size=(int(rng.integers(1, 5)), 4)))
                else:
                    candidates.append(_image_stack(rng, query, 1, noises)[0])
            want = loop_match_index(candidates, query)
            found.append(want)
            assert match_index(candidates, query) == want
            assert match_index(iter(candidates), query) == want
            assert match_index((c for c in candidates[::-1]),
                               query) == loop_match_index(candidates[::-1],
                                                          query)
        assert found[0] is None and found[2] is not None

    def test_first_of_two_matches_wins(self):
        query = SQUARE[::-1]
        candidates = [SQUARE[:2], SQUARE + 1.0, SQUARE, SQUARE[[1, 0, 3, 2]]]
        assert match_index(candidates, query) == 2
        assert match_index(candidates[::-1], query) == 0
        assert loop_match_index(candidates, query) == 2

    def test_empty_and_shape_only_candidates(self):
        assert match_index([], SQUARE) is None
        assert match_index((B for B in []), SQUARE) is None
        # sets of another shape never match, even holding the query's rows
        assert match_index([SQUARE[:3], SQUARE[:, :1], np.vstack(
            [SQUARE, SQUARE])], SQUARE) is None
        # one point: rows are promoted to sets as set_match does
        assert match_index([np.zeros(2), np.ones(2)], np.ones(2)) == 1


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

    def recording(g, word_bound, srcs, src_points, dst, dst_points):
        args = (g, word_bound, [src.copy() for src in srcs],
                [list(p) for p in src_points], dst.copy(), list(dst_points))
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
        """(g, word bound, source, destination, their points) of the first
        hit of a run."""
        calls = _recorded_searches(monkeypatch,
                                   _spec("once_punctured_torus", None))
        return next((g, W, src, dst, sp, dp)
                    for (g, W, srcs, sps, dst, dp), found in calls
                    for src, sp, M in zip(srcs, sps, found)
                    if M is not None)

    def test_a_changed_result_leaves_later_hits_alone(self, monkeypatch):
        g, W, _, _, sp, dp = self._hit_call(monkeypatch)
        first = find_group_element(g, W, sp, dp)
        kept = first.copy()
        first[:] = 0.0
        again = find_group_element(g, W, sp, dp)
        assert again.tobytes() == kept.tobytes()
        assert again is not first

    def test_word_bound_is_keyed(self, monkeypatch):
        g, W, src, dst, sp, dp = self._hit_call(monkeypatch)
        searched = []
        hits = matching.pair_hits

        def counted(*args):
            searched.append(args)
            return hits(*args)

        monkeypatch.setattr(matching, "pair_hits", counted)
        g = replace(g)      # a fresh spec, so a fresh cache
        assert g._search_cache == {}
        made = []
        for bound in (W, W + 1, W, W + 1):
            before = len(searched)
            _first_hits(g, bound, [src], [sp], dst, dp)
            if len(searched) > before:
                made.append(bound)
        assert made == [W, W + 1]

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
        classes = GammaClasses(gs, o.word_bound)
        assert classes.classify([pair, pair]) == [0, 0]
        assert gs._search_cache and g._search_cache == {}


class TestFirstImages:
    def test_table_is_match_index_of_each_image(self):
        # sets of two shapes, noisy images of some of them under the
        # matrices (within and beyond the pair tolerance) and exact
        # repeats, so an image often matches more than one set
        rng = np.random.default_rng(11)
        L = rng.normal(size=(3, 4, 4))
        sets = [rng.normal(size=(k, 4)) for k in [3] * 20 + [2] * 6]
        for i in rng.integers(0, len(sets), 30):
            img = sets[i] @ L[rng.integers(len(L))].T
            noise = rng.choice([0.0, 1e-9, 1e-4])
            sets.append(img[rng.permutation(len(img))]
                        + rng.uniform(-noise, noise, size=img.shape))
        sets += [sets[i].copy() for i in rng.integers(0, len(sets), 10)]
        want = {}
        for i, s in enumerate(sets):
            for l, m in enumerate(L):
                j = match_index(sets, s @ m.T)
                if j is not None:
                    want[i, l] = j
        got = first_images(sets, L)
        assert got == want
        assert 10 < len(want) < len(sets) * len(L)

    def test_no_sets_or_no_matrices(self):
        assert first_images([], np.eye(3)[None]) == {}
        assert first_images([SQUARE, SQUARE.copy()], np.zeros((0, 2, 2))) == {}


def _boost(r):
    """Lorentz boost of rapidity r along x1."""
    c, s = np.cosh(r), np.sinh(r)
    return np.array([[c, s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


class TestPairScale:
    """A source of unit scale carried by a boost onto a destination about
    2e5 times larger: the pair tolerance is PAIR_TOL times the larger
    scale, so a deviation just under it matches and one just over it
    does not, where the source's scale alone would refuse both."""

    SRC = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0], [1.0, -1.0, 0.0]])
    B = _boost(np.log(2e5))

    def _moved(self, dst, tol, factor):
        # shift the second row's last coordinate, far below the scale
        out = dst.copy()
        out[1, 2] += factor * tol
        return out

    def test_stack_hits(self):
        dst = self.SRC @ self.B.T
        tol = PAIR_TOL * _scale(self.SRC, dst)
        assert tol > 1e5 * PAIR_TOL
        stack = np.array([np.eye(3), self.B])
        assert list(stack_hits(stack, self.SRC,
                               [self._moved(dst, tol, 0.99)])) == [(0, 1)]
        assert list(stack_hits(stack, self.SRC,
                               [self._moved(dst, tol, 1.01)])) == []

    def test_first_images(self):
        img = self.SRC @ self.B.T
        tol = PAIR_TOL * _scale(img, img)
        assert tol > 1e5 * PAIR_TOL * _scale(self.SRC, self.SRC)
        near, far = (self._moved(img, tol, f) for f in (0.99, 1.01))
        assert first_images([self.SRC, near], self.B[None]) == {(0, 0): 1}
        assert first_images([self.SRC, far], self.B[None]) == {}

    def test_match_index(self):
        # the query is the source's image, so a match puts it at the
        # destination's scale
        img = self.SRC @ self.B.T
        tol = PAIR_TOL * _scale(img, img)
        near, far = (self._moved(img, tol, f) for f in (0.99, 1.01))
        assert match_index([self.SRC, far, near], img) == 2
        assert match_index([self.SRC, far], img) is None
