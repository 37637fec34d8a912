"""Lorentzian linear algebra in R^{n,1} and the four standard models of H^n.

Vectors are plain numpy arrays of length n+1, with the quadratic form
``<x,y> = -x0*y0 + x1*y1 + ... + xn*yn``.  The upper hyperboloid sheet
``<x,x> = -1, x0 > 0`` carries the hyperbolic metric; positive light-cone
rays correspond to ideal boundary points.  The pipeline itself reads
only the Klein chart; ``model_convert`` and ``hyperbolic_distance`` are
public API, and every conversion between the hyperboloid, Poincare
ball, upper half-space and Klein models routes through the hyperboloid.
The matrix builders that make fixtures from PSL(2) presentations and
hyperplane normals live in ``tools/gen_fixtures.py``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

# Relative tolerance band for calling <x,x> zero; downstream hull
# predicates assume classification is consistent at this scale.
LIGHTLIKE_EPS = 1e-9
ISOMETRY_TOL = 1e-9


class GeometryError(ValueError):
    """Raised when an input violates a geometric precondition."""


class CausalClass(enum.Enum):
    TIMELIKE = "timelike"
    LIGHTLIKE = "lightlike"
    SPACELIKE = "spacelike"
    ZERO = "zero-vector"


class Model(enum.Enum):
    HYPERBOLOID = "hyperboloid"
    BALL = "ball"
    HALFSPACE = "half-space"
    KLEIN = "klein"


@dataclass(frozen=True)
class ModelPoint:
    model: Model
    coords: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coords", np.asarray(self.coords, dtype=float))


def minkowski_form(dim: int) -> np.ndarray:
    """Matrix J = diag(-1, 1, ..., 1) of the form on R^{dim-1,1}."""
    J = np.eye(dim)
    J[0, 0] = -1.0
    return J


def lorentz_product(x, y) -> float:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise GeometryError(f"dimension mismatch: {x.shape} vs {y.shape}")
    return float(-x[0] * y[0] + x[1:] @ y[1:])


def lorentz_gram(X, Y) -> np.ndarray:
    """Pairwise products <X_i, Y_j> for stacked row vectors."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    return -np.outer(X[:, 0], Y[:, 0]) + X[:, 1:] @ Y[:, 1:].T


def classify(x) -> CausalClass:
    """Causal type of x, with the relative band ``LIGHTLIKE_EPS`` for the
    light cone."""
    x = np.asarray(x, dtype=float)
    norm2 = float(x @ x)
    if norm2 == 0.0:
        return CausalClass.ZERO
    q = lorentz_product(x, x)
    if abs(q) <= LIGHTLIKE_EPS * norm2:
        return CausalClass.LIGHTLIKE
    return CausalClass.TIMELIKE if q < 0 else CausalClass.SPACELIKE


def is_isometry(A) -> bool:
    """True iff A preserves the form and the upper sheet, to ``ISOMETRY_TOL``.

    Given A^T J A = J, preserving the sheet is equivalent to A[0,0] > 0.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise GeometryError("isometry test needs a square matrix")
    J = minkowski_form(A.shape[0])
    bound = ISOMETRY_TOL * max(1.0, np.max(np.abs(A)) ** 2)
    return bool(np.max(np.abs(A.T @ J @ A - J)) <= bound and A[0, 0] > 0)


# ---------------------------------------------------------------------------
# Model conversions.
# ---------------------------------------------------------------------------

def hyperboloid_to_klein(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return x[1:] / x[0]


def klein_to_hyperboloid(k) -> np.ndarray:
    k = np.asarray(k, dtype=float)
    s = 1.0 - k @ k
    if s <= 0:
        raise GeometryError("Klein point must lie in the open unit ball")
    return np.concatenate(([1.0], k)) / np.sqrt(s)


def hyperboloid_to_ball(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return x[1:] / (1.0 + x[0])


def ball_to_hyperboloid(b) -> np.ndarray:
    b = np.asarray(b, dtype=float)
    s = 1.0 - b @ b
    if s <= 0:
        raise GeometryError("ball point must lie in the open unit ball")
    return np.concatenate(([1.0 + b @ b], 2.0 * b)) / s


def _halfspace_involution(p) -> np.ndarray:
    # Cayley-type inversion swapping the ball and upper half-space models;
    # fixed choice: ball origin <-> (0,...,0,1), ball point -e_n <-> infinity.
    p = np.asarray(p, dtype=float)
    e = np.zeros(len(p))
    e[-1] = 1.0
    q = p + e
    n2 = q @ q
    if n2 == 0.0:
        raise GeometryError("point maps to infinity under the half-space chart")
    return 2.0 * q / n2 - e


ball_to_halfspace = _halfspace_involution
halfspace_to_ball = _halfspace_involution


_CHECKERS = {
    Model.HYPERBOLOID: lambda c: abs(lorentz_product(c, c) + 1.0) <= 1e-9 * max(1.0, c @ c) and c[0] > 0,
    Model.BALL: lambda c: c @ c < 1.0,
    Model.KLEIN: lambda c: c @ c < 1.0,
    Model.HALFSPACE: lambda c: c[-1] > 0.0,
}


def model_convert(p: ModelPoint, target: Model) -> ModelPoint:
    """Convert a point between models; round trips are exact to ~1e-12."""
    if not isinstance(target, Model):
        target = Model(target)
    c = np.asarray(p.coords, dtype=float)
    if not _CHECKERS[p.model](c):
        raise GeometryError(f"coordinates {c} violate the {p.model.value} invariant")
    if p.model is target:
        return ModelPoint(target, c.copy())
    # to hyperboloid
    if p.model is Model.HYPERBOLOID:
        x = c
    elif p.model is Model.KLEIN:
        x = klein_to_hyperboloid(c)
    elif p.model is Model.BALL:
        x = ball_to_hyperboloid(c)
    else:
        x = ball_to_hyperboloid(halfspace_to_ball(c))
    # from hyperboloid
    if target is Model.HYPERBOLOID:
        out = x
    elif target is Model.KLEIN:
        out = hyperboloid_to_klein(x)
    elif target is Model.BALL:
        out = hyperboloid_to_ball(x)
    else:
        out = ball_to_halfspace(hyperboloid_to_ball(x))
    return ModelPoint(target, out)


def hyperbolic_distance(x, y) -> float:
    """Distance between hyperboloid points, arccosh(-<x,y>)."""
    return float(np.arccosh(max(1.0, -lorentz_product(x, y))))
