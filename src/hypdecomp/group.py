"""Discrete isometry groups given by generator matrices.

The group itself is never stored, only a finite word ball enumerated
breadth-first with matrix deduplication.  Orbits of decorated light-cone
points are truncated both by word length and by Minkowski height; the
convex-hull stability certificate downstream detects insufficient bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .minkowski import (CausalClass, GeometryError, classify, is_isometry,
                        minkowski_form)

# Two light-cone points are merged when the angle between their rays and
# their relative height difference both vanish at these scales.
RAY_MERGE_ANGLE = 1e-10
HEIGHT_MERGE_REL = 1e-9
MATRIX_MATCH_TOL = 1e-8


@dataclass
class GroupElement:
    word: tuple
    matrix: np.ndarray


@dataclass
class OrbitPoint:
    point: np.ndarray
    word: tuple
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
    """Exact inverse J A^T J of a Lorentz matrix."""
    J = minkowski_form(A.shape[0])
    return J @ A.T @ J


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
    _stab_cache: dict = field(default_factory=dict, repr=False, compare=False)

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

    def letter_matrix(self, letter: int) -> np.ndarray:
        g = self.generators[abs(letter) - 1]
        return g if letter > 0 else lorentz_inverse(g)

    def word_ball(self, word_bound: int):
        """All group elements of word length <= word_bound, BFS order."""
        if word_bound in self._ball_cache:
            return self._ball_cache[word_bound]
        dim = self.dimension + 1
        seen = {}
        ball = [GroupElement((), np.eye(dim))]
        seen[_matrix_key(ball[0].matrix)] = 0
        frontier = ball[:]
        letters = self.letters()
        for _ in range(word_bound):
            new_frontier = []
            for el in frontier:
                for letter, m in letters:
                    if el.word and el.word[-1] == -letter:
                        continue  # immediate backtrack
                    child = GroupElement(el.word + (letter,), el.matrix @ m)
                    key = _matrix_key(child.matrix)
                    if key in seen:
                        continue
                    seen[key] = len(ball)
                    ball.append(child)
                    new_frontier.append(child)
            frontier = new_frontier
        self._ball_cache[word_bound] = ball
        return ball

    def stabilizer_elements(self, cusp_id: int, word_bound: int):
        """Ball elements fixing the decorated cusp vector (identity included)."""
        key = (cusp_id, word_bound)
        cached = self._stab_cache.get(key)
        if cached is not None:
            return cached
        p = self.cusp_reps[cusp_id]
        scale = float(np.max(np.abs(p)))
        out = []
        for el in self.word_ball(word_bound):
            if np.max(np.abs(el.matrix @ p - p)) <= 1e-8 * scale:
                out.append(el)
        self._stab_cache[key] = out
        return out


def _matrix_key(A: np.ndarray):
    return np.round(A, 8).tobytes()


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
    points with x0 <= height_bound, merges coincident points (shortest
    word wins) and returns them sorted canonically.
    """
    if word_bound < 0 or height_bound <= 0:
        raise GeometryError("orbit bounds must be nonnegative / positive")
    buckets = {}
    points = []
    for el in g.word_ball(word_bound):
        for cusp_id, p in enumerate(g.cusp_reps):
            q = el.matrix @ p
            if q[0] > height_bound:
                continue
            if _merge_lookup(buckets, points, q) is not None:
                continue
            op = OrbitPoint(point=q, word=el.word, cusp_id=cusp_id,
                            matrix=el.matrix)
            _merge_insert(buckets, points, op)
    points.sort(key=_canonical_key)
    for i, op in enumerate(points):
        op.index = i
    return points


def _canonical_key(op):
    # the same values as (round(x0, 9), tuple(np.round(point, 9))), but
    # numpy's scalar round leaves a pymalloc arena allocated after each
    # large orbit, so memory crept up run after run in one process
    r = np.round(op.point, 9)
    return r[0], tuple(r)


_GRID = 1e-6


def _ray_cell(q):
    ray = q / np.linalg.norm(q)
    return tuple(np.floor(ray / _GRID).astype(np.int64))


def _neighbors(cell):
    if len(cell) == 3:
        rng = ((-1, 0, 1),) * 3
    else:
        rng = ((-1, 0, 1),) * 4
    from itertools import product
    for off in product(*rng):
        yield tuple(c + o for c, o in zip(cell, off))


def _is_same_point(a, b):
    ra, rb = a / np.linalg.norm(a), b / np.linalg.norm(b)
    cross = np.linalg.norm(ra - rb)  # ~ angle for tiny angles
    return cross < RAY_MERGE_ANGLE and abs(a[0] - b[0]) < HEIGHT_MERGE_REL * a[0]


def _merge_lookup(buckets, points, q):
    for cell in _neighbors(_ray_cell(q)):
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


def inverse_word_matrix(g: GroupSpec, word) -> np.ndarray:
    """Matrix of the inverse word, built letter by letter."""
    A = np.eye(g.dimension + 1)
    for letter in reversed(word):
        A = A @ g.letter_matrix(-letter)
    return A


def validate_reflection(tau: np.ndarray, g: GroupSpec, word_bound: int = 4,
                        tol: float = MATRIX_MATCH_TOL) -> bool:
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
    ball = g.word_ball(word_bound)
    tau_inv = lorentz_inverse(tau)
    for gen in g.generators:
        m = tau_inv @ gen @ tau
        scale = max(1.0, float(np.max(np.abs(m))))
        if not any(np.max(np.abs(el.matrix - m)) <= tol * scale for el in ball):
            return False
    return True
