"""Discrete isometry groups given by generator matrices.

The group itself is never stored, only a finite word ball enumerated
breadth-first with matrix deduplication and kept as one matrix stack,
one ball per spec: a larger bound grows it and a smaller one reads a
prefix of it.  A group element is its matrix; no words are kept.
Orbits of decorated light-cone points are truncated by word length and
Minkowski height, forming the ball's last level only where it reaches
the height; the hull's stability certificate detects short bounds.
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
    """Exact inverse J A^T J of a Lorentz matrix or of a stack of them."""
    J = minkowski_form(A.shape[-1])
    return J @ np.swapaxes(A, -1, -2) @ J


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
        ball = self._ball_cache.get(word_bound)
        if ball is None:
            deepest = (self._ball_cache[max(self._ball_cache)]
                       if self._ball_cache else
                       WordBall(np.eye(self.dimension + 1)[None],
                                np.array([0], np.int32), (0, 1)))
            at = deepest.offsets
            # grow unless the ball reaches the bound or its last level is empty
            if word_bound + 2 > len(at) and at[-2] < at[-1]:
                deepest = _grow(deepest, self.letters(), word_bound)
            cut = deepest.offsets[:word_bound + 2]
            ball = self._ball_cache[word_bound] = WordBall(
                deepest.matrices[:cut[-1]], deepest.letter[:cut[-1]], cut)
        return ball

    def stabilizer_stack(self, cusp_id: int, word_bound: int) -> np.ndarray:
        """Ball elements fixing the decorated cusp vector (identity
        included), as one read-only (K, d, d) stack in ball order."""
        key = (cusp_id, word_bound)
        if key not in self._stab_cache:
            p = self.cusp_reps[cusp_id]
            matrices = self.word_ball(word_bound).matrices
            dev = np.max(np.abs(matrices @ p - p), axis=1)
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


def _grow(ball: WordBall, alphabet, word_bound: int) -> WordBall:
    """The ball grown from its last level up to word_bound or closure.

    Each level multiplies the frontier by every letter in batched
    products, one block of the frontier at a time, rounds them once and
    keeps the first occurrence of each rounded matrix, in (frontier
    element, letter) order; the dedup keys start from the ball's stack.
    """
    dim = ball.matrices.shape[-1]
    signs = np.array([s for s, _ in alphabet], dtype=np.int32)
    L = np.array([m for _, m in alphabet]).reshape(-1, dim, dim)
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
                P = (Fb[:, None] @ L[None]).reshape(-1, dim, dim)
                let = np.tile(signs, len(Fb))
                # immediate backtracks are skipped, not merely deduplicated
                ok = np.flatnonzero(np.repeat(Fb_let, len(signs)) != -let)
                keep = ok[_first_new(P[ok], seen)]
                level.append((P[keep], let[keep]))
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
    in ball order wins) and returns them sorted canonically.
    """
    if word_bound < 0 or height_bound <= 0:
        raise GeometryError("orbit bounds must be nonnegative / positive")
    # the top rows, up to a bound on their rounding, select the (element,
    # cusp) pairs whose image can lie under the height bound; only those
    # are formed, bitwise as matrices @ p forms them, then cut at the
    # bound and merged in (element, cusp) order
    P = np.array(g.cusp_reps).reshape(-1, g.dimension + 1)
    matrices = _low_ball(g, P, word_bound, height_bound)
    top = matrices[:, 0]
    pairs = np.argwhere(top @ P.T - 1e-12 * (abs(top) @ abs(P).T)
                        <= height_bound)
    images = np.empty((len(pairs), P.shape[1]))
    for c, p in enumerate(P):
        of_c = pairs[:, 1] == c
        images[of_c] = matrices[pairs[of_c, 0]] @ p
    low = images[:, 0] <= height_bound
    buckets, points = {}, []
    for (e, cusp_id), q in zip(pairs[low], images[low]):
        if _merge_lookup(buckets, points, q) is not None:
            continue
        op = OrbitPoint(point=q, cusp_id=int(cusp_id),
                        matrix=matrices[e].copy())   # not a view
        _merge_insert(buckets, points, op)
    points.sort(key=_canonical_key)
    for i, op in enumerate(points):
        op.index = i
    return points


def _low_ball(g: GroupSpec, P, word_bound: int, height_bound: float):
    """The ball's matrices at word_bound, bitwise and in ball order, less
    last-level elements that map no cusp vector P under the height bound.

    Only the ball at word_bound - 1 is built.  The top rows F[0] @ L of
    its last level times the alphabet screen the candidates with a slack
    that bounds their rounding and the dedup key's (2e-8 * sum |p|), so
    a candidate sharing a survivor's key survives too and the survivors,
    deduplicated as ``_grow`` does, keep what ``_grow`` keeps.
    """
    ball = g.word_ball(max(word_bound - 1, 0))
    dim = ball.matrices.shape[-1]
    signs = np.array([s for s, _ in g.letters()], dtype=np.int32)
    L = np.array([m for _, m in g.letters()]).reshape(-1, dim, dim)
    L_top = L.transpose(1, 0, 2).reshape(dim, -1)   # all F[0] @ L[j] at once
    seen = set()
    _first_new(ball.matrices, seen)
    # the last level; at word bound 0 the ball is the identity alone
    first = ball.offsets[-2] if word_bound else len(ball)
    F, F_let = ball.matrices[first:], ball.letter[first:]
    blocks = [ball.matrices]
    for b in range(0, len(F), _BLOCK):
        Fb, Fb_let = F[b:b + _BLOCK], F_let[b:b + _BLOCK]
        top = (Fb[:, 0] @ L_top).reshape(-1, dim)
        slack = (1e-12 * abs(Fb[:, 0]) @ abs(L_top) + 2e-8).reshape(-1, dim)
        near = np.any(top @ P.T - slack @ abs(P).T <= height_bound, axis=1)
        step = np.repeat(Fb_let, len(signs)) != -np.tile(signs, len(Fb))
        e, j = np.divmod(np.flatnonzero(near & step), len(signs))
        S = Fb[e] @ L[j]
        blocks.append(S[_first_new(S, seen)])
    return np.concatenate(blocks)


def _canonical_key(op):
    # the same values as (round(x0, 9), tuple(np.round(point, 9))), but
    # numpy's scalar round leaves a pymalloc arena allocated after each
    # large orbit, so memory crept up run after run in one process
    r = np.round(op.point, 9)
    return r[0], tuple(r)


_GRID = 1e-6
_PROBE = np.array([[-2 * RAY_MERGE_ANGLE], [2 * RAY_MERGE_ANGLE]])


def _ray_cell(q):
    ray = q / np.linalg.norm(q)
    return tuple(np.floor(ray / _GRID).astype(np.int64).tolist())


def _is_same_point(a, b):
    ra, rb = a / np.linalg.norm(a), b / np.linalg.norm(b)
    cross = np.linalg.norm(ra - rb)  # ~ angle for tiny angles
    return cross < RAY_MERGE_ANGLE and abs(a[0] - b[0]) < HEIGHT_MERGE_REL * a[0]


def _probe_cells(q):
    """Ray cells, in lexicographic order, that can hold a point merging
    with q: those of its ray moved by up to 2 * RAY_MERGE_ANGLE along
    each axis, usually just its own cell."""
    ray = q / np.linalg.norm(q)
    lo, hi = np.floor((ray + _PROBE) / _GRID).astype(np.int64).tolist()
    return product(*(range(a, b + 1) for a, b in zip(lo, hi)))


def _merge_lookup(buckets, points, q):
    for cell in _probe_cells(q):
        for idx in buckets.get(cell, ()):
            if _is_same_point(points[idx].point, q):
                return idx
    return None


def _merge_insert(buckets, points, op: OrbitPoint):
    idx = len(points)
    points.append(op)
    buckets.setdefault(_ray_cell(op.point), []).append(idx)


class OrbitSet:
    """Orbit point list with tolerance-aware coordinate lookup."""

    def __init__(self, points):
        self.points = points
        self._buckets = {}
        for i, op in enumerate(points):
            self._buckets.setdefault(_ray_cell(op.point), []).append(i)

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __getitem__(self, i):
        return self.points[i]

    def find(self, q):
        """OrbitPoint with the given decorated coordinates, or None."""
        idx = _merge_lookup(self._buckets, self.points, np.asarray(q, float))
        return None if idx is None else self.points[idx]


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
    stack = g.word_ball(word_bound).matrices
    tau_inv = lorentz_inverse(tau)
    for gen in g.generators:
        m = tau_inv @ gen @ tau
        tol = MATRIX_MATCH_TOL * max(1.0, float(np.max(np.abs(m))))
        if not np.any(np.max(np.abs(stack - m), axis=(1, 2)) <= tol):
            return False
    return True
