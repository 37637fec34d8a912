"""Lorentzian linear algebra in R^{n,1} and the four standard models of H^n.

Vectors are plain numpy arrays of length n+1, with the quadratic form
``<x,y> = -x0*y0 + x1*y1 + ... + xn*yn``.  The upper hyperboloid sheet
``<x,x> = -1, x0 > 0`` carries the hyperbolic metric; positive light-cone
rays correspond to ideal boundary points.  All conversions between the
hyperboloid, Poincare ball, upper half-space and Klein models route
through the hyperboloid.
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


def classify(x, eps: float = LIGHTLIKE_EPS) -> CausalClass:
    """Causal type of x, with a relative tolerance band for the light cone."""
    x = np.asarray(x, dtype=float)
    norm2 = float(x @ x)
    if norm2 == 0.0:
        return CausalClass.ZERO
    q = lorentz_product(x, x)
    if abs(q) <= eps * norm2:
        return CausalClass.LIGHTLIKE
    return CausalClass.TIMELIKE if q < 0 else CausalClass.SPACELIKE


def is_isometry(A, tol: float = ISOMETRY_TOL) -> bool:
    """True iff A preserves the form and the upper sheet.

    Given A^T J A = J, preserving the sheet is equivalent to A[0,0] > 0.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise GeometryError("isometry test needs a square matrix")
    J = minkowski_form(A.shape[0])
    return bool(np.max(np.abs(A.T @ J @ A - J)) <= tol * max(1.0, np.max(np.abs(A)) ** 2)
                and A[0, 0] > 0)


def reflection_in_hyperplane(u) -> np.ndarray:
    """Lorentzian Householder reflection fixing {x : <x,u> = 0}.

    R(x) = x - 2 (<x,u>/<u,u>) u, defined for spacelike u only; R is an
    involution in O+(n,1) and R(u) = -u.
    """
    u = np.asarray(u, dtype=float)
    if classify(u) is not CausalClass.SPACELIKE:
        raise GeometryError("reflection normal must be spacelike")
    J = minkowski_form(len(u))
    return np.eye(len(u)) - (2.0 / lorentz_product(u, u)) * np.outer(u, J @ u)


# ---------------------------------------------------------------------------
# PSL(2) -> SO+(n,1) for n = 2 (real entries) and n = 3 (complex entries).
#
# A point v = (x0, ..., xn) is packed into a symmetric (n=2) or hermitian
# (n=3) 2x2 matrix with determinant -<v,v>; the isometry acts by
# congruence m S m^T (resp. m H m^*).  The conventions are aligned with
# the half-space chart: the ideal point "infinity" is the ray
# (1, 0, ..., 0, -1) and the boundary origin is (1, 0, ..., 0, 1).
# ---------------------------------------------------------------------------

def _pack2(v):
    t, x1, x2 = v
    return np.array([[t - x2, x1], [x1, t + x2]])


def _unpack2(S):
    return np.array([(S[0, 0] + S[1, 1]) / 2.0, S[0, 1], (S[1, 1] - S[0, 0]) / 2.0])


def _pack3(v):
    t, x1, x2, x3 = v
    return np.array([[t - x3, x1 + 1j * x2], [x1 - 1j * x2, t + x3]])


def _unpack3(H):
    return np.array([(H[0, 0] + H[1, 1]).real / 2.0, H[0, 1].real,
                     H[0, 1].imag, (H[1, 1] - H[0, 0]).real / 2.0])


def psl2_to_lorentz(m, tol: float = 1e-9) -> np.ndarray:
    """Image of a 2x2 unimodular matrix in SO+(2,1) resp. SO+(3,1).

    Real input acts on the upper half-plane (n=2); complex input on upper
    half-space (n=3).  The map is the standard congruence action on
    symmetric/hermitian matrices and is multiplicative.
    """
    m = np.asarray(m)
    if m.shape != (2, 2):
        raise GeometryError("expected a 2x2 matrix")
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    if abs(det - 1.0) > tol:
        raise GeometryError(f"determinant must be 1, got {det}")
    if np.iscomplexobj(m):
        dim, pack, unpack = 4, _pack3, _unpack3
        conj = lambda S: m @ S @ m.conj().T
    else:
        m = m.astype(float)
        dim, pack, unpack = 3, _pack2, _unpack2
        conj = lambda S: m @ S @ m.T
    A = np.empty((dim, dim))
    for j in range(dim):
        e = np.zeros(dim)
        e[j] = 1.0
        A[:, j] = unpack(conj(pack(e)))
    return A


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
