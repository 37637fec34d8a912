"""Decorated horoballs and the elementary geometry between them.

A horoball is encoded entirely by its center p on the positive light
cone: the region is {w : -1 <= <w,p> < 0}, so rescaling p by lambda > 1
shrinks the horoball.  Distances to other horoballs and to geodesic
planes reduce to algebra in the Lorentzian product.  The middle fence
of two horoballs, {x : <x,p> = <x,q>}, is the hyperplane with normal
p - q; the cut-locus stage builds its fences directly as those rows
(``cutlocus._klein_constraints``).
"""

from __future__ import annotations

import math

import numpy as np

from .minkowski import CausalClass, GeometryError, classify, lorentz_product

PROPORTIONAL_TOL = 1e-12


def _check_pair(p, q):
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    for v in (p, q):
        if classify(v) is not CausalClass.LIGHTLIKE or v[0] <= 0:
            raise GeometryError("expected future lightlike centers")
    cross = p / np.linalg.norm(p) - q / np.linalg.norm(q)
    if np.linalg.norm(cross) < PROPORTIONAL_TOL:
        raise GeometryError("horoballs share their ideal point")
    return p, q


def horoball_distance(p, q) -> float:
    """Signed distance log(-<p,q>/2) between the two horospheres.

    Negative values mean overlapping horoballs, zero means tangency;
    for disjoint horoballs it is the length of their short cut, the
    shortest segment between them.  The closed form is validated
    against the explicit upper-half-space construction in the test
    suite before anything downstream trusts it.  A product that rounding
    made nonnegative (centers on distinct rays) is rejected.
    """
    p, q = _check_pair(p, q)
    pq = lorentz_product(p, q)
    if pq >= 0:
        raise GeometryError(f"horoball centers with Lorentz product {pq:g} "
                            ">= 0 have no distance")
    return math.log(-pq / 2.0)


def shadow_radius(d: float) -> float:
    """Radius e^-d / 2 of the projected-shadow disk.

    The shadow is the nearest-point projection of a horoball at distance
    d onto the target horosphere, measured in that horosphere's
    intrinsic (flat) metric, so no normalisation enters.  Inverting the
    upper half-space in the unit sphere about the target's tangency
    point carries the target to the plane z = 1 and the source to a
    horoball tangent at 0 of Euclidean diameter e^-d, whose vertical
    projection is a disk of radius e^-d / 2.

    Strictly decreasing in d with limit 0; defined for d >= 0 only,
    overlapping horoballs are rejected rather than extrapolated.
    """
    if d < 0:
        raise GeometryError("shadow radius is defined for d >= 0")
    return 0.5 * math.exp(-d)


def horoball_plane_distance(p, u) -> float:
    """Distance from the horoball of p to the plane {x : <x,u> = 0}.

    Negative values mean the horoball crosses the plane; p on the
    plane's ideal boundary (<p,u> = 0) is rejected.
    """
    p = np.asarray(p, dtype=float)
    u = np.asarray(u, dtype=float)
    uu = lorentz_product(u, u)
    if uu <= 0:
        raise GeometryError("plane normal must be spacelike")
    pu = abs(lorentz_product(p, u))
    if pu < PROPORTIONAL_TOL * float(np.max(np.abs(p)) * np.max(np.abs(u))):
        raise GeometryError("horoball center lies on the plane's ideal boundary")
    return math.log(pu / math.sqrt(uu))
