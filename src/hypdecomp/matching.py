"""Matching decorated point sets across group translates.

Everything downstream that talks about "orbits of faces", "orbits of
cut-locus cells" or "orbits of return paths" reduces to one question:
is there a group element mapping one finite decorated point set onto
another?  ``find_group_element`` answers it from one candidate source:
compositions of vertex words with cusp stabilizer elements, which
cover elements well outside the word ball.  ``stack_hits`` is the one
scan of a matrix stack: a screen by the image of the set centroid,
then a point-by-point check of the survivors.  It serves each
(source vertex, destination vertex) candidate stack of
``find_group_element`` and the quotient's wall lifts, mirror partners
and facet gluings.  ``GammaClasses`` keeps the Gram key of each class
representative, so an object is matched only against representatives
whose key is close to its own.  All searches are deterministic.
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


def _gram_close(key_a, key_b, scale: float, tol: float) -> bool:
    """Whether two Gram keys of one shape can belong to one group orbit.

    ``scale`` is ``_scale`` of the two sets; the keys are quadratic in
    the coordinates, hence the squared scale.
    """
    return not np.max(np.abs(key_a - key_b)) > tol * scale * scale


def stack_hits(stack, src, dst, tol: float, images=None):
    """Indices of the stack matrices mapping ``src`` onto ``dst``, in order.

    A matrix passes the screen when it carries the source centroid
    within the absolute ``tol`` of the destination centroid;
    ``images`` may supply ``stack @ src.mean(axis=0)`` when the caller
    reuses it.  Each survivor is confirmed with ``set_match``.
    """
    if src.shape != dst.shape:
        return
    if images is None:
        images = stack @ src.mean(axis=0)
    close = np.flatnonzero(np.max(np.abs(images - dst.mean(axis=0)), axis=1)
                           <= tol)
    for idx in close:
        if set_match(src @ stack[idx].T, dst, tol):
            yield int(idx)


def find_group_element(g: GroupSpec, word_bound: int, src_coords, dst_coords,
                       src_points, dst_points, tol: float = PAIR_TOL):
    """Group element mapping the source set onto the destination set.

    ``src_points`` / ``dst_points`` are the sets' OrbitPoints, carrying
    words.  The candidates are Q.matrix @ s @ word(P)^-1 for each of the
    first two source vertices P, each destination vertex Q on P's cusp
    and each cusp stabilizer element s; each (P, Q) pair builds its
    candidates as one stack and scans it with ``stack_hits``.  Returns
    the first candidate, in (P, Q, s) order, that maps the set within
    tolerance, or None.
    """
    src = np.atleast_2d(np.asarray(src_coords, dtype=float))
    dst = np.atleast_2d(np.asarray(dst_coords, dtype=float))
    if src.shape != dst.shape:
        return None
    scale = _scale(src, dst)
    if not _gram_close(_gram_key(src), _gram_key(dst), scale, tol):
        return None
    for P in src_points[:2]:
        inv = inverse_word_matrix(g, P.word)
        S = g.stabilizer_stack(P.cusp_id, word_bound)
        for Q in dst_points:
            if Q.cusp_id != P.cusp_id:
                continue
            Ms = (Q.matrix @ S) @ inv
            idx = next(stack_hits(Ms, src, dst, tol * scale), None)
            if idx is not None:
                return Ms[idx].copy()
    return None


class GammaClasses:
    """Deterministic grouping of decorated point sets into group orbits."""

    def __init__(self, g: GroupSpec, word_bound: int, tol: float = PAIR_TOL):
        self.g = g
        self.word_bound = word_bound
        self.tol = tol
        self.reps = []          # (coords, points, Gram key, max |coord|)

    def classify(self, coords, points):
        """Class index and matrix mapping the object onto its class rep.

        Only representatives of the object's shape whose Gram key is
        close to its own are searched.  Unseen objects start a new
        class with themselves as rep (and the identity matrix).
        """
        coords = np.atleast_2d(np.asarray(coords, dtype=float))
        key = _gram_key(coords)
        top = float(np.max(np.abs(coords)))
        for ci, (rc, rp, rkey, rtop) in enumerate(self.reps):
            if rc.shape != coords.shape:
                continue
            if not _gram_close(key, rkey, max(1.0, top, rtop), self.tol):
                continue
            M = find_group_element(self.g, self.word_bound, coords, rc,
                                   points, rp, self.tol)
            if M is not None:
                return ci, M
        self.reps.append((coords, points, key, top))
        return len(self.reps) - 1, np.eye(self.g.dimension + 1)
