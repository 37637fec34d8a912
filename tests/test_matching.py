import numpy as np
import pytest

from hypdecomp import matching
from hypdecomp.group import GroupSpec, OrbitPoint
from hypdecomp.matching import (GammaClasses, greedy_deviation, match_index,
                                set_match, stack_hits)

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


class TestGammaClasses:
    def _points(self, coords):
        return [OrbitPoint(point=p, cusp_id=0, matrix=np.eye(3))
                for p in coords]

    def test_only_close_gram_keys_are_searched(self, monkeypatch):
        calls = []
        search = matching.search_words

        def counted(*args, **kwargs):
            calls.append(args[3])
            return search(*args, **kwargs)

        monkeypatch.setattr(matching, "search_words", counted)
        pair = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
        g = GroupSpec(2, [], [], [pair[0]])
        classes = GammaClasses(g, 2)
        assert classes.classify(pair, self._points(pair))[0] == 0
        assert not calls
        # another shape never reaches the search
        triple = np.vstack([pair, [[1.0, -1.0, 0.0]]])
        assert classes.classify(triple, self._points(triple))[0] == 1
        assert not calls
        # a far Gram key (the same rays, twice the horoball scale) neither
        far = 2.0 * pair
        assert classes.classify(far, self._points(far))[0] == 2
        assert not calls
        # the object itself passes the screen and is found
        ci, M = classes.classify(pair, self._points(pair))
        assert ci == 0 and np.array_equal(M, np.eye(3))
        assert len(calls) == 1 and calls[0] is classes.reps[0][0]


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
            for tol in (1e-6, 1e-3, np.inf):
                got = greedy_deviation(A, B, tol)
                assert got.shape == (k,)
                want = [loop_greedy_deviation(a, B, tol) for a in A]
                assert got.tolist() == want

    def test_one_set_is_a_scalar(self):
        B = SQUARE + 1e-7
        got = greedy_deviation(SQUARE[::-1], B, 1e-6)
        assert np.ndim(got) == 0
        assert got == loop_greedy_deviation(SQUARE[::-1], B, 1e-6)

    def test_argmin_tie_takes_the_first_row(self):
        # the first row is 1 from both rows of B; taking the first leaves
        # the second row its partner at 0.5, taking the other one would
        # leave it 2 away
        A = np.array([[1.0, 0.0], [2.0, 0.5]])
        B = np.array([[0.0, 0.0], [2.0, 0.0]])
        assert loop_greedy_deviation(A, B) == 1.0
        got = greedy_deviation(np.stack([A, A[::-1], A]), B)
        assert got.tolist() == [1.0, loop_greedy_deviation(A[::-1], B), 1.0]

    def test_miss_on_the_first_row_is_the_value(self):
        # the walk stops at the first row (1 > tol); a full walk would
        # reach 9 on the second
        A = np.array([[1.0, 0.0], [9.0, 0.0]])
        B = np.array([[0.0, 0.0], [0.0, 0.2]])
        assert loop_greedy_deviation(A, B, 0.5) == 1.0
        got = greedy_deviation(np.stack([A, B[::-1]]), B, 0.5)
        assert got.tolist() == [1.0, 0.0]
        assert greedy_deviation(A, B) == 9.0
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
