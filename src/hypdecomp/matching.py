"""Matching decorated point sets across group translates.

Everything downstream that talks about "orbits of faces", "orbits of
cut-locus cells" or "orbits of return paths" reduces to one question:
is there a group element mapping one finite decorated point set onto
another?  Candidates come from two sources: compositions of vertex
words with cusp stabilizer elements (covers elements well outside the
word ball), and a vectorized scan of the ball itself keyed on set
centroids.  All searches are deterministic.
"""

from __future__ import annotations

import numpy as np

from .group import GroupSpec, inverse_word_matrix
from .minkowski import lorentz_gram

PAIR_TOL = 1e-6


def _scale(A, B) -> float:
    return max(1.0, float(np.max(np.abs(A))), float(np.max(np.abs(B))))


def greedy_deviation(A, B, tol: float = np.inf) -> float:
    """Worst distance of the greedy pairing of A's rows with B's.

    Each row of A in turn takes the nearest unused row of B (max-norm).
    The walk stops at the first distance above ``tol`` and returns it.
    """
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


def set_match(A, B, tol: float) -> bool:
    """Greedy matching of two point sets within an absolute tolerance."""
    A = np.atleast_2d(A)
    B = np.atleast_2d(B)
    if A.shape != B.shape:
        return False
    return greedy_deviation(A, B, tol) <= tol


def match_index(candidates, query, tol: float, query_first: bool = True):
    """Index of the first candidate set matching ``query``, or None.

    Candidates of another shape never match.  ``query_first`` picks the
    side whose rows lead the greedy pairing of ``set_match``.
    """
    for i, B in enumerate(candidates):
        if (set_match(query, B, tol) if query_first
                else set_match(B, query, tol)):
            return i
    return None


def _gram_key(coords):
    G = lorentz_gram(coords, coords)
    return np.sort(G.ravel())


def find_group_element(g: GroupSpec, word_bound: int, src_coords, dst_coords,
                       src_points=None, dst_points=None, tol: float = PAIR_TOL):
    """Group element mapping the source set onto the destination set.

    ``src_points`` / ``dst_points`` are optional lists of OrbitPoint
    carrying words; when both are present, word-derived candidates are
    tried before scanning the ball.  Returns the matrix or None.
    """
    src = np.atleast_2d(np.asarray(src_coords, dtype=float))
    dst = np.atleast_2d(np.asarray(dst_coords, dtype=float))
    if src.shape != dst.shape:
        return None
    scale = _scale(src, dst)
    if np.max(np.abs(_gram_key(src) - _gram_key(dst))) > tol * scale * scale:
        return None

    def verify(M):
        return set_match(src @ M.T, dst, tol * scale)

    if src_points is not None and dst_points is not None:
        for i, P in enumerate(src_points):
            inv = inverse_word_matrix(g, P.word)
            for Q in dst_points:
                if Q.cusp_id != P.cusp_id:
                    continue
                MQ = Q.matrix
                for s in g.stabilizer_elements(P.cusp_id, word_bound):
                    M = MQ @ s.matrix @ inv
                    if verify(M):
                        return M
            if i >= 1:
                break  # two base vertices are enough; fall through to the scan
    # centroid-keyed scan of the whole ball
    stack = g.word_ball(word_bound).matrices
    c_src = src.mean(axis=0)
    c_dst = dst.mean(axis=0)
    images = stack @ c_src
    close = np.nonzero(np.max(np.abs(images - c_dst), axis=1) <= tol * scale)[0]
    for idx in close:
        if verify(stack[idx]):
            return stack[idx]
    return None


class GammaClasses:
    """Deterministic grouping of decorated point sets into group orbits."""

    def __init__(self, g: GroupSpec, word_bound: int, tol: float = PAIR_TOL):
        self.g = g
        self.word_bound = word_bound
        self.tol = tol
        self.reps = []          # (coords, points-or-None)

    def classify(self, coords, points=None):
        """Class index and matrix mapping the object onto its class rep.

        Unseen objects start a new class with themselves as rep (and
        the identity matrix).
        """
        coords = np.atleast_2d(np.asarray(coords, dtype=float))
        for ci, (rc, rp) in enumerate(self.reps):
            M = find_group_element(self.g, self.word_bound, coords, rc,
                                   points, rp, self.tol)
            if M is not None:
                return ci, M
        self.reps.append((coords, points))
        return len(self.reps) - 1, np.eye(self.g.dimension + 1)
