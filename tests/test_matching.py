import numpy as np

from hypdecomp import matching
from hypdecomp.group import GroupSpec, OrbitPoint
from hypdecomp.matching import (GammaClasses, greedy_deviation, match_index,
                                set_match)

SQUARE = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])


class TestMatchIndex:
    def test_first_match_shape_mismatch_and_none(self):
        query = SQUARE[::-1] + 1e-9
        candidates = [SQUARE[:3],            # other shape: skipped
                      SQUARE + 0.5,          # same shape, out of tolerance
                      SQUARE,                # first match
                      SQUARE.copy()]         # later match, not returned
        assert match_index(candidates, query, 1e-6) == 2
        assert match_index(candidates, query, 1e-6, query_first=False) == 2
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
        return [OrbitPoint(point=p, word=(), cusp_id=0, matrix=np.eye(3))
                for p in coords]

    def test_only_close_gram_keys_are_searched(self, monkeypatch):
        calls = []
        search = matching.find_group_element

        def counted(*args, **kwargs):
            calls.append(args[3])
            return search(*args, **kwargs)

        monkeypatch.setattr(matching, "find_group_element", counted)
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
