"""Matching decorated point sets across group translates.

Everything downstream that talks about "orbits of faces", "orbits of
cut-locus cells" or "orbits of return paths" reduces to one question:
is there a group element mapping one finite decorated point set onto
another?  ``_first_hits`` is the one search that answers it, for any
number of source sets onto one destination.  Its candidates are vertex
matrices composed with cusp stabilizer elements, which cover elements
well outside the word ball; a group element is its matrix, whose
inverse is exactly J M^T J.  It builds them as one stack per cusp and
scans it with ``pair_hits``: a cheap screen by the image of each set
centroid, an exact one of its survivors, then one batched greedy
confirmation.  It alone reads and fills the spec's cache of search
results, so a run that asks the same question twice (the doubled
cut-locus complex has the cells of the kept one) searches once.
``find_group_element`` asks it about one source;
``GammaClasses.classify`` sorts a list of objects into classes in
rounds, one per representative, each one ``_first_hits`` over the
pending objects whose Gram key is close to the representative's.
``stack_hits`` finds the hits in one matrix stack for one set, with
the exact screen alone; it serves the quotient's wall lifts, mirror
partners and facet gluings.  ``match_index`` confirms a query against
a list of candidate sets as one stack.  All searches are deterministic.
"""

from __future__ import annotations

import numpy as np

from .group import GroupSpec, lorentz_inverse
from .minkowski import lorentz_gram

PAIR_TOL = 1e-6


def _scale(A, B) -> float:
    return max(1.0, float(np.max(np.abs(A))), float(np.max(np.abs(B))))


def greedy_deviation(A, B):
    """Worst distance of the greedy pairing of A's rows with B's.

    ``A`` and ``B`` are each one (m, d) set or a (k, m, d) stack of
    sets; the set or stack on one side is paired with each set on the
    other.  Each row of an A set in turn takes the nearest unused row of
    its B set (max-norm, the first one on ties).  The k walks take their
    m steps together; returns one value per pairing, shaped like the
    stack's leading axis (a scalar for two sets).
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    lead = np.broadcast_shapes(A.shape[:-2], B.shape[:-2])
    sets = A.reshape(-1, *A.shape[-2:])
    # D[s, i, j]: distance of row i of A set s to row j of B set s
    D = abs(B.reshape(-1, *B.shape[-2:])[:, None] - sets[:, :, None]).max(axis=3)
    k, m = D.shape[:2]
    rows = np.arange(k)
    worst = np.zeros(k)
    for i in range(m):
        j = D[:, i].argmin(axis=1)
        worst = np.fmax(worst, D[rows, i, j])
        D[rows, i + 1:, j] = np.inf     # row j of B is taken
    return worst.reshape(lead)[()]


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
    dev = greedy_deviation(query, np.array([cands[i] for i in same]))
    hit = np.flatnonzero(dev <= tol)
    return same[hit[0]] if len(hit) else None


def _gram_key(coords):
    G = lorentz_gram(coords, coords)
    return np.sort(G.ravel())


def _gram_close(keys, key, scale, tol: float):
    """Whether each Gram key of ``keys`` (one, or a stack on the leading
    axis) and ``key``, of one shape, can belong to one group orbit.

    ``scale`` is ``_scale`` of each pair of sets; the keys are quadratic
    in the coordinates, hence the squared scale.
    """
    return ~(np.max(np.abs(keys - key), axis=-1) > tol * scale * scale)


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
        dev = greedy_deviation(src @ np.swapaxes(stack[close], 1, 2), dst)
        yield from close[dev <= tol].tolist()


def pair_hits(left, right, srcs, dst, tols):
    """Hits of the candidates ``left[j] @ right[k]`` mapping ``srcs[k]``
    onto ``dst`` within ``tols[k]``.

    Candidate (j, k) is a hit exactly when ``stack_hits`` finds j in
    the stack ``left @ right[k]`` for ``srcs[k]`` at ``tols[k]``.
    Returns the hits' k, j and matrices, in (j, k) order.  All pairs are
    screened at once with the cheap images ``left[j] @ (right[k] @ c)``
    of the source centroids c.  Only the survivors form their exact
    matrix and centroid image, as ``stack_hits`` forms them, for the
    exact screen; its survivors go through one ``greedy_deviation``.
    """
    cents = np.array([src.mean(axis=0) for src in srcs])
    goal = dst.mean(axis=0)
    cheap = left @ (right @ cents[..., None])[..., 0].T
    # the cheap and the exact image both round L R c (L = left[j],
    # R = right[k]) in two products of d <= 4 terms, so they differ by
    # a few 1e-16 times |L| |R| |c|; 1e-12 times the largest row sum of
    # |L| times max(|R| |c|) bounds that with a wide margin
    bound = (np.abs(right) @ np.abs(cents)[..., None]).max(axis=(1, 2))
    slack = 1e-12 * np.outer(np.abs(left).sum(axis=2).max(axis=1), bound)
    j, k = np.nonzero(np.max(np.abs(cheap - goal[:, None]), axis=1)
                      <= tols + slack)
    M = left[j] @ right[k]
    close = (np.max(np.abs((M @ cents[k][..., None])[..., 0] - goal), axis=1)
             <= tols[k])
    j, k, M = j[close], k[close], M[close]
    if len(M):
        hit = greedy_deviation(srcs[k] @ np.swapaxes(M, 1, 2), dst) <= tols[k]
        j, k, M = j[hit], k[hit], M[hit]
    return k, j, M


def _search_key(word_bound: int, tol: float, src, dst, src_points,
                dst_points):
    """Every input bit of a search: the bound, the tolerance, the shapes
    and bytes of the two float coordinate arrays and the cusp and matrix
    bytes of the first two source vertices and of every destination
    vertex."""
    return (word_bound, tol, src.shape, dst.shape, src.tobytes(),
            dst.tobytes(),
            tuple((P.cusp_id, P.matrix.tobytes()) for P in src_points[:2]),
            tuple((Q.cusp_id, Q.matrix.tobytes()) for Q in dst_points))


def _first_hits(g: GroupSpec, word_bound: int, srcs, src_points, tols, dst,
                dst_points):
    """First matrix mapping each ``srcs[k]`` onto ``dst`` within the
    absolute ``tols[k]``, or None, one per source.

    The candidates of a source are Q.matrix @ s @ lorentz_inverse(P.matrix)
    for each of its first two vertices P, each destination vertex Q on
    P's cusp and each cusp stabilizer element s; the first hit in
    (P, Q, s) order wins.  Each result is kept in ``g._search_cache``
    under ``_search_key`` and returned as kept, uncopied; equal keys are
    identical inputs, so a kept result is exactly what the search would
    return.  Only the distinct keys not kept yet are searched: their
    sources try their first P at once, one ``pair_hits`` per cusp over
    its (Q, s) stack, then those without a hit their second.  The cache
    lives as long as the spec: in ``run()``, the one symmetrized spec.
    """
    cache = g._search_cache
    keys = [_search_key(word_bound, tol, src, dst, points, dst_points)
            for src, points, tol in zip(srcs, src_points, tols)]
    todo = {}           # key -> the first source that has it
    for k, key in enumerate(keys):
        if key not in cache:
            todo.setdefault(key, k)
    d = dst.shape[1]
    hits, lefts = {}, {}
    for pos in (0, 1):
        by_cusp = {}
        for k in todo.values():
            if k not in hits and len(src_points[k]) > pos:
                by_cusp.setdefault(src_points[k][pos].cusp_id, []).append(k)
        for cusp, group in by_cusp.items():
            if cusp not in lefts:
                Qs = [Q.matrix for Q in dst_points if Q.cusp_id == cusp]
                S = g.stabilizer_stack(cusp, word_bound)
                lefts[cusp] = (np.array(Qs)[:, None] @ S[None]).reshape(
                    -1, d, d) if Qs else None
            if lefts[cusp] is None:
                continue
            right = lorentz_inverse(np.array([src_points[k][pos].matrix
                                              for k in group]))
            which, _, M = pair_hits(lefts[cusp], right,
                                    np.array([srcs[k] for k in group]), dst,
                                    np.array([tols[k] for k in group]))
            for first in np.unique(which, return_index=True)[1]:
                hits[group[which[first]]] = M[first].copy()
    for key, k in todo.items():
        cache[key] = hits.get(k)
    return [cache[key] for key in keys]


def find_group_element(g: GroupSpec, word_bound: int, src_coords, dst_coords,
                       src_points, dst_points):
    """Group element mapping the source set onto the destination set.

    ``src_points`` / ``dst_points`` are the sets' OrbitPoints, whose
    matrices carry their cusp vectors onto them.  Sets whose Gram keys
    differ are refused without a search; otherwise ``_first_hits`` of
    the one source runs at ``PAIR_TOL`` times the sets' scale.
    Returns a copy of the first matrix, in (P, Q, s) order, that maps
    the set within tolerance, or None.
    """
    src = np.atleast_2d(np.asarray(src_coords, dtype=float))
    dst = np.atleast_2d(np.asarray(dst_coords, dtype=float))
    if src.shape != dst.shape:
        return None
    scale = _scale(src, dst)
    if not _gram_close(_gram_key(src), _gram_key(dst), scale, PAIR_TOL):
        return None
    [M] = _first_hits(g, word_bound, [src], [src_points], [PAIR_TOL * scale],
                      dst, dst_points)
    return None if M is None else M.copy()


class GammaClasses:
    """Deterministic grouping of decorated point sets into group orbits."""

    tol = PAIR_TOL

    def __init__(self, g: GroupSpec, word_bound: int):
        self.g = g
        self.word_bound = word_bound
        self.reps = []          # (coords, points, Gram key, max |coord|)

    def classify(self, objects):
        """Class index of each (coords, points) object, in order.

        The ids, and the reps appended, are those of taking the objects
        in turn, trying each against the reps in order and making it a
        new rep when none matches.  An object only tries the reps of
        its shape whose Gram key is close to its own, with the search
        of ``_first_hits`` at the scale that screen used.  The work
        goes in rounds, one per rep: every pending object is screened
        against it at once and the survivors are searched in one
        ``_first_hits`` call; the first object still pending after a
        round over the last rep becomes the next rep.
        """
        coords = [np.atleast_2d(np.asarray(c, dtype=float)) for c, _ in objects]
        points = [p for _, p in objects]
        keys = [_gram_key(c) for c in coords]
        tops = [float(np.max(np.abs(c))) for c in coords]
        by_shape = {}
        for i, c in enumerate(coords):
            by_shape.setdefault(c.shape, []).append(i)
        stacks = {shape: (np.array(idx), np.array([keys[i] for i in idx]),
                          np.array([tops[i] for i in idx]))
                  for shape, idx in by_shape.items()}
        ids = np.full(len(coords), -1)
        ci = 0
        while (pending := np.flatnonzero(ids < 0)).size:
            if ci == len(self.reps):
                i = pending[0]
                self.reps.append((coords[i], points[i], keys[i], tops[i]))
                ids[i] = ci
            rc, rp, rkey, rtop = self.reps[ci]
            if rc.shape in stacks:
                idx, K, T = stacks[rc.shape]
                scale = np.maximum(np.maximum(1.0, T), rtop)
                tried = _gram_close(K, rkey, scale, self.tol) & (ids[idx] < 0)
                found = _first_hits(self.g, self.word_bound,
                                    [coords[i] for i in idx[tried]],
                                    [points[i] for i in idx[tried]],
                                    self.tol * scale[tried], rc, rp)
                ids[idx[tried][[M is not None for M in found]]] = ci
            ci += 1
        return ids.tolist()
