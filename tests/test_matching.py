import numpy as np

from hypdecomp.matching import greedy_deviation, match_index, set_match

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
