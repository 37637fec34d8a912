"""Matching decorated point sets across group translates.

Everything downstream that talks about "orbits of faces", "orbits of
cut-locus cells" or "orbits of return paths" reduces to one question:
does a matrix carry one decorated vertex set onto another?  Only this
module decides it, by one rule: a source set matches a destination set
under a matrix when ``greedy_deviation`` of the source's image and the
destination is at most ``PAIR_TOL`` times ``_scale`` of the source and
the destination.  ``match_index`` and ``first_images`` match images
already formed, so there the image is the source.  No caller passes a
tolerance.

``_first_hits`` is the one group search, for any number of source sets
onto one destination.  Its candidates are vertex matrices composed with
cusp stabilizer elements, which cover elements well outside the word
ball; a group element is its matrix, whose inverse is exactly J M^T J.
It scans them with ``pair_hits``, one stack per cusp: a cheap screen by
the image of each set centroid, an exact one of its survivors, then one
batched greedy confirmation.  It alone reads and fills the spec's cache
of search results, so a run that asks the same question twice (the
doubled cut-locus complex has the cells of the kept one) searches once.
``find_group_element`` asks it about one list of orbit points;
``GammaClasses.classify`` sorts lists of orbit points into classes in
rounds, one ``_first_hits`` per representative.

Two kernels take fixed matrices.  ``first_images`` maps many sets under
a few matrices (the face walk's letters, a wall reflection) and tables
the first set each image matches.  ``stack_hits`` maps one set under a
large stack, forming its centroid images once as one flat product, and
yields its hits lazily, one destination at a time, so the quotient's
searches stop at the first destination with a hit.  ``match_index``
confirms one query against a candidate list.  All searches are deterministic.
"""

from __future__ import annotations

import numpy as np

from .group import GroupSpec, lorentz_inverse, stack_product
from .minkowski import lorentz_gram

PAIR_TOL = 1e-6


def _scale(A, B):
    """max(1, max |A|, max |B|) of each pair of sets; ``A`` and ``B``
    are each one (m, d) set or a stack of them on the leading axes."""
    return np.maximum(np.maximum(1.0, np.abs(A).max(axis=(-2, -1))),
                      np.abs(B).max(axis=(-2, -1)))


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


def match_index(candidates, query):
    """Index of the first candidate set that ``query`` matches, or None.

    Candidates of another shape never match.  The rest are confirmed
    at once, as one stack, by ``greedy_deviation`` with the query's
    rows leading the greedy pairing; the first that passes wins.
    """
    query = np.atleast_2d(query)
    cands = [np.atleast_2d(B) for B in candidates]
    same = [i for i, B in enumerate(cands) if B.shape == query.shape]
    if not same:
        return None
    B = np.array([cands[i] for i in same])
    hit = np.flatnonzero(greedy_deviation(query, B)
                         <= PAIR_TOL * _scale(query, B))
    return same[hit[0]] if len(hit) else None


def first_images(sets, L):
    """{(i, l): j} for each set i and matrix ``L[l]`` whose image of
    ``sets[i]`` matches a set j: the first such j, in index order, as
    ``match_index(sets, sets[i] @ L[l].T)`` finds it, the image being
    the source.

    Per shape, the images under all matrices are one product.  A set
    whose centroid is farther from the image's centroid than the pair
    tolerance cannot match it, so the images are screened by centroid,
    in blocks of about 2^14 differences, and the survivors confirmed by
    one stacked ``greedy_deviation``.
    """
    first = {}
    by_shape = {}
    for i, s in enumerate(sets):
        by_shape.setdefault(s.shape, []).append(i)
    for idx in by_shape.values():
        F = np.array([sets[i] for i in idx])
        images = F[:, None] @ np.swapaxes(L, 1, 2)   # [f, l] = F[f] @ L[l].T
        centroids = F.mean(axis=1)
        rows = max(1, 2 ** 14 // (len(L) * centroids.size + 1))
        for b in range(0, len(idx), rows):
            block = images[b:b + rows]
            tol = PAIR_TOL * _scale(block[:, :, None], F)
            shift = block.mean(axis=2)[:, :, None] - centroids
            f, l, j = np.nonzero(np.abs(shift, out=shift).max(axis=3) <= tol)
            ok = greedy_deviation(block[f, l], F[j]) <= tol[f, l, j]
            for fi, li, ji in np.stack([b + f, l, j])[:, ok].T.tolist():
                first.setdefault((idx[fi], li), idx[ji])
    return first


def stack_hits(stack, src, dsts):
    """(t, e) of each stack matrix e mapping ``src`` onto ``dsts[t]``,
    in (t, e) order, one destination at a time.

    The centroid images ``stack @ src.mean(axis=0)`` are formed once, as
    one (d, N) ``stack_product``.  Per destination, a matrix passes the
    screen when it carries the source centroid within the pair tolerance
    of the destination centroid, and the images of ``src`` under all
    survivors are confirmed at once by ``greedy_deviation``.  A consumer
    that stops at a hit screens no later destination.
    """
    images = stack_product(stack, src.mean(axis=0))
    shift = np.empty_like(images)
    for t, dst in enumerate(dsts):
        if dst.shape != src.shape:
            continue
        tol = PAIR_TOL * _scale(src, dst)
        np.subtract(images, dst.mean(axis=0)[:, None], out=shift)
        close = np.flatnonzero(np.abs(shift, out=shift).max(axis=0) <= tol)
        if len(close):
            dev = greedy_deviation(src @ np.swapaxes(stack[close], 1, 2), dst)
            for e in close[dev <= tol].tolist():
                yield t, e


def _gram_key(coords):
    G = lorentz_gram(coords, coords)
    return np.sort(G.ravel())


def _gram_close(keys, key, scale):
    """Whether each Gram key of ``keys`` (one, or a stack on the leading
    axis) and ``key``, of one shape, can belong to one group orbit.

    ``scale`` is ``_scale`` of each pair of sets; the keys are quadratic
    in the coordinates, hence the squared scale.
    """
    return ~(np.max(np.abs(keys - key), axis=-1) > PAIR_TOL * scale * scale)


def pair_hits(left, right, srcs, dst):
    """Hits of the candidates ``left[j] @ right[k]`` mapping ``srcs[k]``
    onto ``dst``.

    Candidate (j, k) is a hit exactly when ``stack_hits`` finds j in
    the stack ``left @ right[k]`` for ``srcs[k]``.  Returns the hits'
    k, j and matrices, in (j, k) order.  All pairs are screened at once
    with the cheap images ``left[j] @ (right[k] @ c)`` of the source
    centroids c.  Only the survivors form their exact matrix and
    centroid image, as ``stack_hits`` forms them, for the exact screen;
    its survivors go through one ``greedy_deviation``.
    """
    tols = PAIR_TOL * _scale(srcs, dst)
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


def _search_key(word_bound: int, src, dst, src_points, dst_points):
    """Every input bit of a search: the bound, the shapes and bytes of
    the two float coordinate arrays (which fix the tolerance) and the
    cusp and matrix bytes of the first two source vertices and of every
    destination vertex."""
    return (word_bound, src.shape, dst.shape, src.tobytes(), dst.tobytes(),
            tuple((P.cusp_id, P.matrix.tobytes()) for P in src_points[:2]),
            tuple((Q.cusp_id, Q.matrix.tobytes()) for Q in dst_points))


def _first_hits(g: GroupSpec, word_bound: int, srcs, src_points, dst,
                dst_points):
    """First matrix mapping each ``srcs[k]`` onto ``dst``, or None, one
    per source.

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
    keys = [_search_key(word_bound, src, dst, points, dst_points)
            for src, points in zip(srcs, src_points)]
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
                                    np.array([srcs[k] for k in group]), dst)
            for first in np.unique(which, return_index=True)[1]:
                hits[group[which[first]]] = M[first].copy()
    for key, k in todo.items():
        cache[key] = hits.get(k)
    return [cache[key] for key in keys]


def find_group_element(g: GroupSpec, word_bound: int, src_points, dst_points):
    """Group element mapping one set of OrbitPoints onto another.

    The points' matrices carry their cusp vectors onto them.  Sets whose
    Gram keys differ are refused without a search; otherwise the one
    source goes through ``_first_hits``.  Returns a copy of the first
    matrix, in (P, Q, s) order, that maps the set, or None.
    """
    src, dst = (np.array([P.point for P in points])
                for points in (src_points, dst_points))
    if src.shape != dst.shape:
        return None
    if not _gram_close(_gram_key(src), _gram_key(dst), _scale(src, dst)):
        return None
    [M] = _first_hits(g, word_bound, [src], [src_points], dst, dst_points)
    return None if M is None else M.copy()


class GammaClasses:
    """Deterministic grouping of decorated point sets into group orbits."""

    def __init__(self, g: GroupSpec, word_bound: int):
        self.g = g
        self.word_bound = word_bound
        self.reps = []          # (coords, points, Gram key)

    def classify(self, point_lists):
        """Class index of each list of OrbitPoints, in order.

        The ids, and the reps appended, are those of taking the lists
        in turn, trying each against the reps in order and making it a
        new rep when none matches.  A list only tries the reps of its
        shape whose Gram key is close to its own.  The work goes in
        rounds, one per rep: every pending list is screened against it
        at once and the survivors are searched in one ``_first_hits``
        call; the first list still pending after a round over the last
        rep becomes the next rep.
        """
        coords = [np.array([P.point for P in points]) for points in point_lists]
        keys = [_gram_key(c) for c in coords]
        by_shape = {}
        for i, c in enumerate(coords):
            by_shape.setdefault(c.shape, []).append(i)
        stacks = {shape: (np.array(idx), np.array([keys[i] for i in idx]),
                          np.array([coords[i] for i in idx]))
                  for shape, idx in by_shape.items()}
        ids = np.full(len(coords), -1)
        ci = 0
        while (pending := np.flatnonzero(ids < 0)).size:
            if ci == len(self.reps):
                i = pending[0]
                self.reps.append((coords[i], point_lists[i], keys[i]))
                ids[i] = ci
            rc, rp, rkey = self.reps[ci]
            if rc.shape in stacks:
                idx, K, C = stacks[rc.shape]
                tried = _gram_close(K, rkey, _scale(C, rc)) & (ids[idx] < 0)
                found = _first_hits(self.g, self.word_bound,
                                    [coords[i] for i in idx[tried]],
                                    [point_lists[i] for i in idx[tried]],
                                    rc, rp)
                ids[idx[tried][[M is not None for M in found]]] = ci
            ci += 1
        return ids.tolist()
