"""Matching decorated point sets across group translates.

Everything downstream that talks about "orbits of faces", "orbits of
cut-locus cells" or "orbits of return paths" reduces to one question:
is there a group element mapping one finite decorated point set onto
another?  ``find_group_element`` answers it from one candidate source:
vertex matrices composed with cusp stabilizer elements, which cover
elements well outside the word ball.  A group element is its matrix,
whose inverse is exactly J M^T J.  ``search_words`` builds
those candidates as one stack per source vertex and scans it with
``stack_hits``, the one scan of a matrix stack: a screen by the image
of the set centroid, then one batched greedy confirmation of all the
survivors.  The same scan serves the quotient's wall lifts, mirror
partners and facet gluings.  Each spec keeps the result of every
search under its inputs, so a run that asks the same question twice
(the doubled cut-locus complex classifies the same cells again)
searches once.  ``match_index`` confirms a query against a list of
candidate sets as one stack.  ``GammaClasses`` keeps the Gram key of
each class representative, so an object is searched only against
representatives whose key is close to its own.  All searches are
deterministic.
"""

from __future__ import annotations

import numpy as np

from .group import GroupSpec, lorentz_inverse
from .minkowski import lorentz_gram

PAIR_TOL = 1e-6


def _scale(A, B) -> float:
    return max(1.0, float(np.max(np.abs(A))), float(np.max(np.abs(B))))


def greedy_deviation(A, B, tol: float = np.inf):
    """Worst distance of the greedy pairing of A's rows with B's.

    ``A`` and ``B`` are each one (m, d) set or a (k, m, d) stack of
    sets; the set or stack on one side is paired with each set on the
    other.  Each row of an A set in turn takes the nearest unused row of
    its B set (max-norm, the first one on ties).  A pairing's value is
    its first distance above ``tol``, where its walk alone would stop,
    or else its worst distance.  The k walks take their m steps
    together; returns one value per pairing, shaped like the stack's
    leading axis (a scalar for two sets).
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    lead = np.broadcast_shapes(A.shape[:-2], B.shape[:-2])
    sets = A.reshape(-1, *A.shape[-2:])
    # D[s, i, j]: distance of row i of A set s to row j of B set s
    D = abs(B.reshape(-1, *B.shape[-2:])[:, None] - sets[:, :, None]).max(axis=3)
    k, m = D.shape[:2]
    rows = np.arange(k)
    steps = np.zeros((m, k))
    for i in range(m):
        j = D[:, i].argmin(axis=1)
        steps[i] = D[rows, i, j]
        D[rows, i + 1:, j] = np.inf     # row j of B is taken
    over = steps > tol
    first = over.argmax(axis=0)
    value = np.where(over[first, rows], steps[first, rows],
                     np.fmax.reduce(steps, axis=0, initial=0.0))
    return value.reshape(lead)[()]


def match_index(candidates, query, tol: float):
    """Index of the first candidate set matching ``query``, or None.

    Candidates of another shape never match.  The rest are confirmed
    at once, as one stack, by ``greedy_deviation`` with the query's
    rows leading the greedy pairing; the first that passes wins.
    """
    query = np.atleast_2d(query)
    cands = [np.atleast_2d(B) for B in candidates]
    same = [i for i, B in enumerate(cands) if B.shape == query.shape]
    if not same:
        return None
    dev = greedy_deviation(query, np.array([cands[i] for i in same]), tol)
    hit = np.flatnonzero(dev <= tol)
    return same[hit[0]] if len(hit) else None


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
    reuses it.  The images of ``src`` under all survivors are then
    confirmed at once, as one stack, by ``greedy_deviation``.
    """
    if src.shape != dst.shape:
        return
    if images is None:
        images = stack @ src.mean(axis=0)
    close = np.flatnonzero(np.max(np.abs(images - dst.mean(axis=0)), axis=1)
                           <= tol)
    if len(close):
        dev = greedy_deviation(src @ np.swapaxes(stack[close], 1, 2), dst, tol)
        yield from close[dev <= tol].tolist()


def search_words(g: GroupSpec, word_bound: int, src, dst, src_points,
                 dst_points, tol: float):
    """First candidate matrix mapping ``src`` onto ``dst`` within the
    absolute ``tol``, or None (see ``_search``).

    Each result is kept in ``g._search_cache`` under every input bit the
    search reads: the bound, the tolerance, the shapes and bytes of the
    two float coordinate arrays and the cusp and matrix bytes of the
    first two source vertices and of every destination vertex.  A
    repeated search is a lookup that returns a copy of the kept matrix;
    equal keys are identical inputs, so a hit is exactly what the
    search would return.  The cache lives as long as the spec: in
    ``run()``, the one symmetrized spec.
    """
    key = (word_bound, tol, src.shape, dst.shape, src.tobytes(),
           dst.tobytes(),
           tuple((P.cusp_id, P.matrix.tobytes()) for P in src_points[:2]),
           tuple((Q.cusp_id, Q.matrix.tobytes()) for Q in dst_points))
    cache = g._search_cache
    if key not in cache:
        cache[key] = _search(g, word_bound, src, dst, src_points, dst_points,
                             tol)
    M = cache[key]
    return None if M is None else M.copy()


def _search(g: GroupSpec, word_bound: int, src, dst, src_points, dst_points,
            tol: float):
    """The uncached search of ``search_words``.

    The candidates are Q.matrix @ s @ lorentz_inverse(P.matrix) for each
    of the first two source vertices P, each destination vertex Q on P's
    cusp and each cusp stabilizer element s.  Each P builds its
    candidates as one stack in (Q, s) order and scans it with
    ``stack_hits``, so the first hit is the first in (P, Q, s) order.
    """
    for P in src_points[:2]:
        Qs = [Q.matrix for Q in dst_points if Q.cusp_id == P.cusp_id]
        if not Qs:
            continue
        S = g.stabilizer_stack(P.cusp_id, word_bound)
        inv = lorentz_inverse(P.matrix)
        Ms = ((np.array(Qs)[:, None] @ S[None]) @ inv).reshape(-1, *inv.shape)
        idx = next(stack_hits(Ms, src, dst, tol), None)
        if idx is not None:
            return Ms[idx].copy()
    return None


def find_group_element(g: GroupSpec, word_bound: int, src_coords, dst_coords,
                       src_points, dst_points):
    """Group element mapping the source set onto the destination set.

    ``src_points`` / ``dst_points`` are the sets' OrbitPoints, whose
    matrices carry their cusp vectors onto them.  Sets whose Gram keys
    differ are refused without a search; otherwise ``search_words``
    runs at ``PAIR_TOL`` times the sets' scale.
    Returns the first matrix, in (P, Q, s) order, that maps the set
    within tolerance, or None.
    """
    src = np.atleast_2d(np.asarray(src_coords, dtype=float))
    dst = np.atleast_2d(np.asarray(dst_coords, dtype=float))
    if src.shape != dst.shape:
        return None
    scale = _scale(src, dst)
    if not _gram_close(_gram_key(src), _gram_key(dst), scale, PAIR_TOL):
        return None
    return search_words(g, word_bound, src, dst, src_points, dst_points,
                        PAIR_TOL * scale)


class GammaClasses:
    """Deterministic grouping of decorated point sets into group orbits."""

    tol = PAIR_TOL

    def __init__(self, g: GroupSpec, word_bound: int):
        self.g = g
        self.word_bound = word_bound
        self.reps = []          # (coords, points, Gram key, max |coord|)

    def classify(self, coords, points):
        """Class index and matrix mapping the object onto its class rep.

        Only representatives of the object's shape whose Gram key is
        close to its own are searched, with ``search_words`` at the
        scale that screen used.  Unseen objects start a new class with
        themselves as rep (and the identity matrix).
        """
        coords = np.atleast_2d(np.asarray(coords, dtype=float))
        key = _gram_key(coords)
        top = float(np.max(np.abs(coords)))
        for ci, (rc, rp, rkey, rtop) in enumerate(self.reps):
            if rc.shape != coords.shape:
                continue
            scale = max(1.0, top, rtop)
            if not _gram_close(key, rkey, scale, self.tol):
                continue
            M = search_words(self.g, self.word_bound, coords, rc, points, rp,
                             self.tol * scale)
            if M is not None:
                return ci, M
        self.reps.append((coords, points, key, top))
        return len(self.reps) - 1, np.eye(self.g.dimension + 1)
