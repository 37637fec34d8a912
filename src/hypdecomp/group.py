"""Discrete isometry groups given by generator matrices.

The group itself is never stored, only a finite word ball enumerated
breadth-first with matrix deduplication and kept as one matrix stack,
one ball per spec: a larger bound grows it and a smaller one reads a
prefix of it.  A group element is its matrix; no words are kept.
Orbits of decorated light-cone points are truncated by word length and
Minkowski height; ``_grow``, which forms every ball level, forms the
orbit's last level only where it reaches the height, uncached.  The
hull's stability certificate detects short bounds.
Orbit points are merged and looked up in batches through one array
index of their ray cells: a batch is one sorted search of the index and
one vectorized same-point test of the candidate pairs it returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .minkowski import (CausalClass, GeometryError, classify, is_isometry,
                        minkowski_form)

# Two light-cone points are merged when the angle between their rays and
# their relative height difference both vanish at these scales.
RAY_MERGE_ANGLE = 1e-10
HEIGHT_MERGE_REL = 1e-9
MATRIX_MATCH_TOL = 1e-8
# Frontier elements multiplied out at once while the word ball grows.
_BLOCK = 2048


@dataclass
class OrbitPoint:
    point: np.ndarray
    cusp_id: int
    matrix: np.ndarray
    index: int = -1


@dataclass
class ValidationReport:
    failures: list

    @property
    def ok(self) -> bool:
        return not self.failures

    def __str__(self):
        return "valid" if self.ok else "; ".join(self.failures)


def lorentz_inverse(A: np.ndarray) -> np.ndarray:
    """Exact inverse J A^T J of a Lorentz matrix or a stack of them: the
    transpose, signs flipped off the corner of row and column 0, and -0.0
    made +0.0 as the products' sums make it; bitwise J A^T J for finite A."""
    j = np.diag(minkowski_form(A.shape[-1]))
    inv = np.swapaxes(A, -1, -2) * np.outer(j, j)
    inv += 0.0
    return inv


def stack_product(stack: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``stack @ x``, bitwise, for an (N, d, d) stack and a vector or matrix
    x, from one flat product, not one BLAS call per matrix.  A vector's
    images come back as a contiguous (d, N) array, to reduce along N."""
    d = stack.shape[-1]
    out = (stack.reshape(-1, d) @ x).reshape(len(stack), d, *x.shape[1:])
    return np.ascontiguousarray(out.T) if x.ndim == 1 else out


@dataclass(eq=False)
class GroupSpec:
    """Generators of a discrete subgroup of O+(n,1), with decorations.

    ``reflections`` are lifts of the mirror involution of the doubled
    manifold, one per boundary-wall class; they normalize the group but
    are not members of it.  ``cusp_reps`` hold one decorated light-cone
    vector per cusp; the vector scale encodes the horoball size.
    """

    dimension: int
    generators: list
    reflections: list
    cusp_reps: list
    name: str = ""
    _ball_cache: dict = field(default_factory=dict, repr=False, compare=False)
    _stab_cache: dict = field(default_factory=dict, init=False, repr=False,
                              compare=False)
    # matching._first_hits results, keyed by their inputs
    _search_cache: dict = field(default_factory=dict, init=False, repr=False,
                                compare=False)

    def __post_init__(self):
        self.generators = [np.asarray(g, dtype=float) for g in self.generators]
        self.reflections = [np.asarray(r, dtype=float) for r in self.reflections]
        self.cusp_reps = [np.asarray(p, dtype=float) for p in self.cusp_reps]

    def letters(self):
        """Generator alphabet as (signed index, matrix) pairs.

        Letter +k is generators[k-1], letter -k its inverse; the fixed
        ordering makes every breadth-first enumeration deterministic.
        """
        out = []
        for i, g in enumerate(self.generators):
            out.append((i + 1, g))
            out.append((-(i + 1), lorentz_inverse(g)))
        return out

    def word_ball(self, word_bound: int) -> "WordBall":
        """All group elements of word length <= word_bound, BFS order:
        a read-only prefix of the spec's one ball, which starts as the
        identity and grows from its last level (``_grow``) on demand."""
        if word_bound not in self._ball_cache:
            deepest = (self._ball_cache[max(self._ball_cache)]
                       if self._ball_cache else
                       WordBall(np.eye(self.dimension + 1)[None],
                                np.array([0], np.int32), (0, 1)))
            at = deepest.offsets
            # grow unless the ball reaches the bound or its last level is empty
            if word_bound + 2 > len(at) and at[-2] < at[-1]:
                deepest = _grow(deepest, self.letters(), word_bound)
            # every cached bound becomes a prefix of the one deepest stack
            for w in {*self._ball_cache, word_bound}:
                cut = deepest.offsets[:w + 2]
                self._ball_cache[w] = WordBall(deepest.matrices[:cut[-1]],
                                               deepest.letter[:cut[-1]], cut)
        return self._ball_cache[word_bound]

    def stabilizer_stack(self, cusp_id: int, word_bound: int) -> np.ndarray:
        """Ball elements fixing the decorated cusp vector (identity
        included), as one read-only (K, d, d) stack in ball order."""
        key = (cusp_id, word_bound)
        if key not in self._stab_cache:
            p = self.cusp_reps[cusp_id]
            matrices = self.word_ball(word_bound).matrices
            dev = np.abs(stack_product(matrices, p) - p[:, None]).max(axis=0)
            stack = matrices[dev <= 1e-8 * float(np.max(np.abs(p)))]
            stack.flags.writeable = False
            self._stab_cache[key] = stack
        return self._stab_cache[key]


@dataclass(eq=False)
class WordBall:
    """Word ball as one read-only (N, d, d) matrix stack in BFS order.

    Element i is ``matrices[i]``, an element of the previous level
    times the signed generator ``letter[i]`` (the identity has letter
    0), which growth reads to skip immediate backtracks.  Level k, the
    elements of word length k, is ``offsets[k]:offsets[k + 1]``, so the
    ball at bound k is the prefix of length ``offsets[k + 1]``; a last
    level that came out empty closes the ball.
    """

    matrices: np.ndarray
    letter: np.ndarray
    offsets: tuple

    def __post_init__(self):
        for a in (self.matrices, self.letter):
            a.flags.writeable = False

    def __len__(self):
        return len(self.matrices)


def _grow(ball: WordBall, alphabet, word_bound: int, reach=None) -> WordBall:
    """The ball grown from its last level up to word_bound or closure.

    Each level multiplies the frontier, one block at a time, by the
    letters that do not undo an element's last letter, rounds the
    products once and keeps the first occurrence of each rounded matrix
    in (element, letter) order; the dedup keys start from the ball's
    stack.  The orbit's ``reach = (P, height_bound)`` screens its one
    new level: only products whose top row F[0] @ L, less a slack for
    its rounding and the key's (2e-8 * sum |p|), maps a row of P under
    the bound are formed, so the level keeps exactly the products of the
    unscreened one that can reach the height.  Never cache such a ball.
    """
    dim = ball.matrices.shape[-1]
    signs = np.array([s for s, _ in alphabet], dtype=np.int32)
    L = np.array([m for _, m in alphabet]).reshape(-1, dim, dim)
    L_top = L.transpose(1, 0, 2).reshape(dim, -1)   # all F[0] @ L[j] at once
    seen = set()
    _first_new(ball.matrices, seen)
    offsets = list(ball.offsets)
    first = offsets[-2]     # the last level's first index
    # (matrices, letters) in blocks of at most _BLOCK frontier elements
    # times the alphabet, so a level's products, rounded copies and
    # keys are never all alive at once
    blocks = [(ball.matrices, ball.letter)]
    front = [tuple(a[first:] for a in blocks[0])]
    while len(offsets) <= word_bound + 1 and first < offsets[-1]:
        level = []
        for F, F_let in front:
            for b in range(0, len(F), _BLOCK):
                Fb, Fb_let = F[b:b + _BLOCK], F_let[b:b + _BLOCK]
                # immediate backtracks are skipped, not merely deduplicated
                pick = np.repeat(Fb_let, len(signs)) != -np.tile(signs, len(Fb))
                if reach is not None:
                    P, height_bound = reach
                    top = (Fb[:, 0] @ L_top).reshape(-1, dim)
                    slack = (1e-12 * abs(Fb[:, 0]) @ abs(L_top)
                             + 2e-8).reshape(-1, dim)
                    pick &= np.any(top @ P.T - slack @ abs(P).T
                                   <= height_bound, axis=1)
                e, j = np.divmod(np.flatnonzero(pick), len(signs))
                S = Fb[e] @ L[j]
                keep = _first_new(S, seen)
                level.append((S[keep], signs[j[keep]]))
        first = offsets[-1]
        front = [blk for blk in level if len(blk[0])]
        blocks += front
        offsets.append(offsets[-1] + sum(len(m) for m, _ in front))
    del seen     # the keys outweigh the ball; free them before the copy
    return WordBall(np.concatenate([m for m, _ in blocks]),
                    np.concatenate([t for _, t in blocks]), tuple(offsets))


def _first_new(stack: np.ndarray, seen: set) -> list:
    """Indices of the matrices whose key is not in ``seen`` yet.

    The key is the matrix's bytes rounded to 1e-8, with -0.0 folded
    into 0.0 so that one matrix has one key; only the first occurrence
    of a key counts, and the new keys are added to ``seen``.
    """
    R = np.round(stack, 8).reshape(-1, stack.shape[-1] ** 2)
    R += 0.0     # in place: no second copy of the stack
    keys = R.view(np.dtype((np.void, R.itemsize * R.shape[1]))).ravel().tolist()
    out = []
    for i, k in enumerate(keys):
        if k not in seen:
            seen.add(k)
            out.append(i)
    return out


def validate_group(g: GroupSpec) -> ValidationReport:
    """Check matrix invariants of a group specification.

    Discreteness and torsion-freeness are input contracts and are not
    verified here.
    """
    failures = []
    dim = g.dimension + 1
    for label, mats in (("generator", g.generators), ("reflection", g.reflections)):
        for i, A in enumerate(mats):
            if A.shape != (dim, dim):
                failures.append(f"{label} {i}: wrong shape {A.shape}")
                continue
            if not is_isometry(A):
                failures.append(f"{label} {i}: not in O+({g.dimension},1)")
    for i, R in enumerate(g.reflections):
        if R.shape != (dim, dim):
            continue
        if np.max(np.abs(R @ R - np.eye(dim))) > 1e-8:
            failures.append(f"reflection {i}: not an involution")
            continue
        u = reflection_normal(R, strict=False)
        if u is None:
            failures.append(f"reflection {i}: fixed set is not a hyperplane "
                            "with spacelike normal")
    for i, p in enumerate(g.cusp_reps):
        if p.shape != (dim,):
            failures.append(f"cusp {i}: wrong shape {p.shape}")
            continue
        if classify(p) is not CausalClass.LIGHTLIKE or p[0] <= 0:
            failures.append(f"cusp {i}: representative must be future lightlike")
    return ValidationReport(failures)


def reflection_normal(R: np.ndarray, strict: bool = True):
    """Spacelike normal of the hyperplane fixed by the reflection R.

    For a hyperplane reflection R - I is rank one with columns parallel
    to the normal, which stays numerically robust even for conjugated
    lifts with large entries.
    """
    R = np.asarray(R, dtype=float)
    D = R - np.eye(R.shape[0])
    norms = np.linalg.norm(D, axis=0)
    j = int(np.argmax(norms))
    scale = max(1.0, float(np.max(np.abs(R))))
    if norms[j] <= 1e-9 * scale:
        if strict:
            raise GeometryError("matrix is not a hyperplane reflection")
        return None
    u = D[:, j] / norms[j]
    if np.max(np.abs(R @ u + u)) > 1e-8 * scale:
        if strict:
            raise GeometryError("matrix is not a hyperplane reflection")
        return None
    if classify(u) is not CausalClass.SPACELIKE:
        if strict:
            raise GeometryError("reflection normal is not spacelike")
        return None
    return u


def orbit(g: GroupSpec, word_bound: int, height_bound: float):
    """Truncated orbit of the decorated cusp vectors.

    Enumerates {gamma p : |gamma| <= word_bound, p cusp rep}, keeps
    points with x0 <= height_bound, merges coincident points (the first
    in ball order wins) and returns them in the canonical order, by
    coordinates rounded to 9 digits, with ``index`` their position.
    """
    if word_bound < 0 or height_bound <= 0:
        raise GeometryError("orbit bounds must be nonnegative / positive")
    # the top rows, up to a bound on their rounding, select the (element,
    # cusp) pairs whose image can lie under the height bound; only those
    # are formed, bitwise as matrices @ p forms them, then cut at the
    # bound and merged in (element, cusp) order
    P = np.array(g.cusp_reps).reshape(-1, g.dimension + 1)
    # the ball at word_bound - 1 and a last level screened by height
    matrices = _grow(g.word_ball(max(word_bound - 1, 0)), g.letters(),
                     word_bound, (P, height_bound)).matrices
    top = matrices[:, 0]
    pairs = np.argwhere(top @ P.T - 1e-12 * (abs(top) @ abs(P).T)
                        <= height_bound)
    images = np.empty((len(pairs), P.shape[1]))
    for c, p in enumerate(P):
        of_c = pairs[:, 1] == c
        images[of_c] = stack_product(matrices[pairs[of_c, 0]], p).T
    low = images[:, 0] <= height_bound
    pairs, Q = pairs[low], images[low]
    # first wins: a point is dropped when it is the same as an earlier
    # kept one; every (earlier, later) pair sharing a probe cell is tested
    # at once, and only the keep decision loops, over integer pairs
    index = _RayIndex(Q)
    a, b = index.candidates(index.rays)
    a, b = a[a < b], b[a < b]
    same = _is_same(Q, index.rays, a, Q, index.rays, b)
    kept = np.flatnonzero(_first_wins(len(Q), a[same], b[same]))
    # the run's one canonical order, ties in ball order; later choices read it
    kept = kept[np.lexsort(np.round(Q[kept], 9).T[::-1])]
    M = matrices[pairs[kept, 0]]    # a copy: no view of the ball is kept
    return [OrbitPoint(point=q, cusp_id=c, matrix=m, index=i) for i, (q, c, m)
            in enumerate(zip(Q[kept], pairs[kept, 1].tolist(), M))]


# The ray cell of a point q is floor((q / |q|) / _GRID).  A point that
# merges with q has its ray within RAY_MERGE_ANGLE of q's, so it lies in
# a probe cell of q: a cell of q's ray moved by up to _REACH along each
# axis, usually q's own cell alone.
_GRID = 1e-6
_REACH = 2 * RAY_MERGE_ANGLE


def _rays(Q):
    """Unit rays of the rows of Q, bitwise q / np.linalg.norm(q); a zero
    or non-finite row, or one too large to square, has no ray and gets
    NaNs, which no test accepts."""
    with np.errstate(over="ignore"):
        norms = np.sqrt(np.vecdot(Q, Q))
    ok = np.isfinite(norms) & (norms > 0)
    rays = np.full(Q.shape, np.nan)
    rays[ok] = Q[ok] / norms[ok, None]
    return rays


def _cell_keys(cells):
    """One opaque sortable key per row of an integer cell array: equal
    rows give equal keys (the key order is not the cells' order)."""
    cells = np.ascontiguousarray(cells)
    return cells.view(np.dtype((np.void, cells.itemsize * cells.shape[1]))
                      ).ravel()


def _is_same(P, P_rays, a, Q, Q_rays, b):
    """The same-point test of the stored points P[a] against the queries
    Q[b], pair by pair: rays within RAY_MERGE_ANGLE and heights within
    HEIGHT_MERGE_REL of the stored one."""
    d = P_rays[a]
    d -= Q_rays[b]      # in place: two (pairs, d) arrays alive at once
    h = P[a, 0]
    return ((np.sqrt(np.vecdot(d, d)) < RAY_MERGE_ANGLE)
            & (np.abs(h - Q[b, 0]) < HEIGHT_MERGE_REL * h))


def _first_wins(n, earlier, later):
    """Which of n items a sequential first-wins merge keeps: an item is
    dropped when it matches an earlier kept one.  The (earlier, later)
    index pairs, earlier < later, list every match."""
    keep = [True] * n
    order = np.argsort(later, kind="stable")
    for a, b in zip(earlier[order].tolist(), later[order].tolist()):
        if keep[a]:
            keep[b] = False
    return keep


class _RayIndex:
    """The rows of a point array that have a ray, sorted by ray cell and
    then by row, so that a bucket of one cell is a contiguous run."""

    def __init__(self, P):
        self.rays = _rays(P)
        rows = np.flatnonzero(~np.isnan(self.rays[:, 0]))
        keys = _cell_keys(np.floor(self.rays[rows] / _GRID).astype(np.int64))
        order = np.argsort(keys, kind="stable")
        self.rows, self.keys = rows[order], keys[order]

    def candidates(self, rays):
        """(stored row, query row) pairs, the stored ray in a probe cell
        of the query ray, one array each.  A query's pairs come in the
        order of its probe cells, lexicographic, then of stored rows."""
        q = np.flatnonzero(~np.isnan(rays[:, 0]))
        lo = np.floor((rays[q] - _REACH) / _GRID).astype(np.int64)
        span = np.floor((rays[q] + _REACH) / _GRID).astype(np.int64) - lo
        # every query probes its lowest cell; the few whose reach crosses
        # a cell boundary probe the others after it, in lexicographic order
        wide = np.flatnonzero(span.any(axis=1))
        steps = np.array(list(product((0, 1), repeat=rays.shape[1]))[1:])
        w, s = np.nonzero(np.all(steps <= span[wide, None], axis=2))
        probe_q = np.concatenate([q, q[wide[w]]])
        keys = _cell_keys(np.concatenate([lo, lo[wide[w]] + steps[s]]))
        left = np.searchsorted(self.keys, keys, "left")
        counts = np.searchsorted(self.keys, keys, "right") - left
        at = (np.repeat(left - np.cumsum(counts) + counts, counts)
              + np.arange(counts.sum()))
        return self.rows[at], np.repeat(probe_q, counts)


class OrbitSet:
    """Orbit point list with tolerance-aware coordinate lookup.

    The points' coordinates are kept as one array and indexed by ray
    cell (``_RayIndex``), so a batch of queries is one sorted search
    plus one vectorized same-point test on the candidate pairs.
    """

    def __init__(self, points):
        self.points = points
        self._coords = np.array([op.point for op in points])
        self._index = _RayIndex(self._coords) if points else None

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __getitem__(self, i):
        return self.points[i]

    def lookup(self, Q):
        """Position of the point each row of the (m, d) array Q coincides
        with, -1 where none does: the first match in probe-cell order,
        then in list order.  A zero or non-finite row is a miss."""
        Q = np.asarray(Q, float)
        out = np.full(len(Q), -1)
        if self._index is None:
            return out
        rays = _rays(Q)
        i, j = self._index.candidates(rays)
        same = _is_same(self._coords, self._index.rays, i, Q, rays, j)
        q, first = np.unique(j[same], return_index=True)
        out[q] = i[same][first]
        return out

    def find(self, q):
        """OrbitPoint with the given decorated coordinates, or None."""
        idx = self.lookup(np.asarray(q, float)[None])[0]
        return None if idx < 0 else self.points[idx]


def validate_reflection(tau: np.ndarray, g: GroupSpec,
                        word_bound: int = 4) -> bool:
    """Desk-scale certificate that tau conjugates the group to itself.

    Checks that tau^-1 gamma tau is a word of length <= word_bound for
    every generator gamma.  A False result means "not certified at this
    bound", never a refutation.
    """
    tau = np.asarray(tau, dtype=float)
    if not is_isometry(tau):
        raise GeometryError("tau is not an isometry")
    if np.max(np.abs(tau @ tau - np.eye(tau.shape[0]))) > 1e-8:
        raise GeometryError("tau is not an involution")
    if not g.generators:
        return True
    flat = g.word_ball(word_bound).matrices.reshape(-1, tau.size).T.copy()
    tau_inv = lorentz_inverse(tau)
    for gen in g.generators:
        m = tau_inv @ gen @ tau
        tol = MATRIX_MATCH_TOL * max(1.0, float(np.max(np.abs(m))))
        if not np.any(np.max(np.abs(flat - m.reshape(-1, 1)), axis=0) <= tol):
            return False
    return True
