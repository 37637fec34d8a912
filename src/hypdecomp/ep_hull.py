"""Convex-hull pipeline: orbit hull, face extraction, projection, quotient.

The Euclidean convex hull of the truncated horoball-center orbit is
computed in R^{n+1}; facets whose support vector (the w solving
<p_i, w> = -1) is future-pointing timelike are the canonical faces.
Coplanar simplicial facets are merged into maximal polyhedral faces,
faces are grouped into group orbits, and facet pairings are extracted
from hull adjacency.  Orbit truncation is compensated by certifying
only faces well below the height horizon and by a stability
certificate against the orbit at larger bounds, of which only the part
low enough to cut a certified face is hulled.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .group import GroupSpec, orbit
from .hull import IncrementalHull
from .matching import find_group_element, first_images, match_index
from .minkowski import (CausalClass, GeometryError, classify,
                        hyperboloid_to_klein, lorentz_product,
                        minkowski_form)

SUPPORT_RESIDUAL_TOL = 1e-8
COPLANAR_TOL = 1e-8


@dataclass
class HullFace:
    """Maximal face of the orbit hull with future-timelike support."""
    vertex_ids: tuple
    support: np.ndarray
    max_height: float


@dataclass
class IdealCell:
    """Ideal polyhedron in the Klein model.

    Vertices are ideal (on the unit sphere); ``facets`` lists the
    (n-1)-dimensional boundary faces as sorted tuples of local vertex
    indices.  For n = 2 the vertex order is the circular boundary order.
    """
    klein_vertices: np.ndarray
    vertex_ids: tuple
    facets: list
    support: np.ndarray
    label: int = -1


@dataclass
class Pairing:
    target: tuple            # (cell index, facet index)
    matrix: np.ndarray


@dataclass
class Decomposition:
    dimension: int
    cells: list
    cell_points: list        # decorated OrbitPoints per cell, vertex-aligned
    pairings: dict           # (cell, facet) -> Pairing
    unpaired: list


def support_vector(points, tol: float = SUPPORT_RESIDUAL_TOL) -> np.ndarray:
    """The unique w with <p_i, w> = -1 for all given points.

    Over-determined systems are solved by least squares and rejected if
    the residual is visible at the given tolerance.
    """
    P = np.atleast_2d(np.asarray(points, dtype=float))
    k, d = P.shape
    if k < d:
        raise GeometryError(f"support vector needs at least {d} points, got {k}")
    J = minkowski_form(d)
    M = P @ J
    rhs = -np.ones(k)
    w, _, rank, _ = np.linalg.lstsq(M, rhs, rcond=None)
    if rank < d:
        raise GeometryError("degenerate input: points are affinely dependent")
    scale = max(1.0, float(np.max(np.abs(P))))
    err = float(np.max(np.abs(M @ w - rhs)))
    if err > tol * scale:
        raise GeometryError(f"inconsistent support system, residual {err}")
    return w


def hull_faces(points):
    """Canonical faces of the hull of a truncated orbit.

    The points must come in orbit order (or be a sub-list of an orbit),
    and the merged maximal faces come sorted by ``vertex_ids``; side and top
    facets created by the truncation (support not future timelike) are
    dropped here and the stability certificate guards the rest.
    """
    ops = list(points)
    if not ops:
        raise GeometryError("need at least n + 1 points, got 0")
    coords = np.array([op.point for op in ops])
    d = coords.shape[1]
    if len(ops) < d:
        raise GeometryError(f"need at least {d} points, got {len(ops)}")

    def flat_single_face():
        # a flat configuration can still be one canonical face: all points
        # on a common support plane missing the origin (cone sections are
        # in convex position, so every point is a vertex)
        w = support_vector(coords)
        if classify(w) is CausalClass.TIMELIKE and w[0] > 0:
            return [HullFace(vertex_ids=tuple(range(len(ops))), support=w,
                             max_height=float(np.max(coords[:, 0])))]
        raise GeometryError("flat point set does not span a canonical face")

    if len(ops) == d:
        return flat_single_face()
    try:
        hull = IncrementalHull(coords)
    except GeometryError:
        return flat_single_face()
    J = minkowski_form(d)
    ep = []              # (facet, support w)
    for f in hull.facets:
        b = f.offset
        # canonical faces separate the origin from the hull: with the
        # outward normal the offset is negative; truncation lids are not
        if b >= -1e-12 * max(1.0, float(np.max(np.abs(coords)))):
            continue
        w = -(J @ f.normal) / b
        if classify(w) is CausalClass.TIMELIKE and w[0] > 0:
            ep.append((f, w))

    # merge ridge-connected facets with equal supports
    def same_support(i, j):
        wi, wj = ep[i][1], ep[j][1]
        return np.max(np.abs(wi - wj)) <= COPLANAR_TOL * np.max(np.abs(wi + wj))

    faces = []
    for members in _merge_coplanar([f.vertices for f, _ in ep], same_support):
        vs = sorted(set(v for i in members for v in ep[i][0].vertices))
        try:
            w = support_vector(coords[vs], tol=1e-5)
        except GeometryError:
            # sliver group hugging the truncation horizon; keep the shared
            # plane data, certification drops the face later
            w = np.mean([ep[i][1] for i in members], axis=0)
        faces.append(HullFace(vertex_ids=tuple(vs), support=w,
                              max_height=float(np.max(coords[vs, 0]))))
    faces.sort(key=lambda F: F.vertex_ids)
    return faces


class _UnionFind:
    """Disjoint sets over hashable items (path halving)."""

    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb

    def groups(self):
        """Lists of items per set, each in item order, sets by first item."""
        out = {}
        for x in self.parent:
            out.setdefault(self.find(x), []).append(x)
        return list(out.values())


def _merge_coplanar(facets, same_plane):
    """Group simplicial facets that share a ridge and one plane.

    ``facets`` are vertex tuples of one size; facets i and j meeting in
    a ridge (all vertices but one) merge when ``same_plane(i, j)``.
    Returns the groups as ascending facet index lists.
    """
    uf = _UnionFind(range(len(facets)))
    ridge_map = {}
    for i, vs in enumerate(facets):
        for ridge in combinations(vs, len(vs) - 1):
            ridge_map.setdefault(ridge, []).append(i)
    for inc in ridge_map.values():
        if len(inc) == 2 and same_plane(*inc):
            uf.union(*inc)
    return uf.groups()


def certified_faces(faces, height_bound: float):
    """Faces clear of the truncation horizon by the height/2 margin."""
    return [f for f in faces if f.max_height <= height_bound / 2.0]


def face_sets_equal(faces_a, points_a, faces_b, points_b) -> bool:
    """Geometric equality of two face collections as decorated vertex sets."""
    if len(faces_a) != len(faces_b):
        return False
    ca = np.array([op.point for op in points_a])
    cb = np.array([op.point for op in points_b])
    unused = [cb[list(f.vertex_ids)] for f in faces_b]
    for f in faces_a:
        A = ca[list(f.vertex_ids)]
        j = match_index(unused, A)
        if j is None:
            return False
        del unused[j]
    return True


def ellipsoid_top(w) -> float:
    """Largest height x0 of a future light-cone point p with <p, w> >= -1.

    For future timelike w and p = t (1, u), |u| = 1, the condition reads
    t (w0 - u . w_s) <= 1, so the points on or inside the support plane
    of w form a compact ellipsoid whose top is 1 / (w0 - |w_s|); it is
    infinite when w is not future timelike.
    """
    gap = float(w[0] - np.linalg.norm(w[1:]))
    return 1.0 / gap if gap > 0 else np.inf


# A point this close to a face's support plane, relative to |p| |w|,
# counts as cutting the face: a false alarm only costs a larger hull.
CUT_MARGIN = 1e-6


def stable_faces(big, faces, height_bound: float):
    """Certified faces of the hull of ``big``, hulling only its low part.

    ``big`` is the (word bound + 1, 2H) orbit and ``faces`` the run's
    own certified faces.  Returns the sub-orbit hulled (a sublist of
    ``big``, vertex ids index into it) and its certified faces, which
    are exactly the certified faces of the hull of all of ``big``.

    Only points of height <= h are hulled.  h starts just above the
    larger of H/2 and the highest ellipsoid top (``ellipsoid_top``) of
    ``faces``, which is as high as a point cutting one of them can sit,
    and doubles up to 2H, where the sub-orbit is all of ``big``.  A
    sub-hull is accepted when no point of ``big`` above h lies on or
    inside (within ``CUT_MARGIN``) the support plane of any of its
    certified faces.  Then its certified faces are those of the whole
    hull:

    - a certified face of the whole hull has every vertex at height
      <= H/2 <= h, and every point of ``big`` on its far side, so it is
      a face of the sub-hull, with the same vertices and support;
    - a certified face of the sub-hull has every low point on its far
      side by convexity and, by the test, every high point strictly on
      it too, so it is a face of the whole hull with the same vertices.

    Raises GeometryError when the hull of all of ``big`` fails; a
    sub-hull that fails only makes h grow.
    """
    if not big:
        return [], []
    d = len(big[0].point)
    h = max([height_bound / 2.0] + [ellipsoid_top(f.support) for f in faces])
    h *= 1.0 + 1e-6
    J = minkowski_form(d)
    while True:
        low = [op for op in big if op.point[0] <= h]
        high = np.array([op.point for op in big if op.point[0] > h]).reshape(-1, d)
        try:
            # too few points for a hull: no faces, nor any certified face
            # of the whole hull, whose n + 1 or more vertices are all low
            cert = (certified_faces(hull_faces(low), height_bound)
                    if len(low) >= d else [])
        except GeometryError:
            if not len(high):
                raise
        else:
            W = np.array([f.support for f in cert]).reshape(-1, d)
            slack = high @ J @ W.T + 1.0
            scale = np.outer(np.max(np.abs(high), axis=1), np.max(np.abs(W), axis=1))
            if not np.any(slack >= -CUT_MARGIN * scale):
                return low, cert
        h = min(2.0 * height_bound, 2.0 * h)


def stability_certificate(g: GroupSpec, points, faces, word_bound: int,
                          height_bound: float) -> bool:
    """True iff the certified faces are unchanged under larger bounds.

    ``points`` is the orbit at (word_bound, height_bound) and ``faces``
    its certified faces.  The orbit at (word_bound + 1, 2 * height_bound)
    grows no ball past word_bound, and ``stable_faces`` hulls only the
    part of it that can cut a certified face.
    """
    big = orbit(g, word_bound + 1, 2.0 * height_bound)
    if not faces and len(points) != len(big):
        # nothing certified: stable only when the orbit itself is already
        # complete (e.g. a trivial group), never when data is still growing
        return False
    try:
        low, big_faces = stable_faces(big, faces, height_bound)
    except GeometryError:
        return False
    if not faces:
        return not big_faces
    return face_sets_equal(faces, points, big_faces, low)


# ---------------------------------------------------------------------------
# Projection to the Klein model and cell structure.
# ---------------------------------------------------------------------------

def _order_polygon(klein):
    """Circular order of a convex ideal polygon, canonical start, CCW."""
    c = klein.mean(axis=0)
    ang = np.arctan2(klein[:, 1] - c[1], klein[:, 0] - c[0])
    order = list(np.argsort(ang))
    keys = [tuple(np.round(klein[i], 9)) for i in order]
    start = keys.index(min(keys))
    return order[start:] + order[:start]


def _polytope_facets_3d(klein):
    """Facets of a convex 3-polytope with the given vertices.

    Returns sorted local-index tuples, coplanar triangles merged.
    """
    fac = IncrementalHull(klein).facets

    def same_plane(i, j):
        ni, oi = fac[i].normal, fac[i].offset
        nj, oj = fac[j].normal, fac[j].offset
        return min(np.max(np.abs(ni - nj)) + abs(oi - oj),
                   np.max(np.abs(ni + nj)) + abs(oi + oj)) <= COPLANAR_TOL * 10

    groups = _merge_coplanar([f.vertices for f in fac], same_plane)
    return sorted(tuple(sorted(set(v for i in members for v in fac[i].vertices)))
                  for members in groups)


def ideal_cell_from_points(ops, support, dimension: int) -> IdealCell:
    """Build the Klein-model cell spanned by decorated ideal vertices."""
    coords = np.array([op.point for op in ops])
    klein = np.array([hyperboloid_to_klein(p) for p in coords])
    if dimension == 2:
        order = _order_polygon(klein)
        klein = klein[order]
        ops = [ops[i] for i in order]
        m = len(ops)
        facets = [tuple(sorted((i, (i + 1) % m))) for i in range(m)]
    else:
        keys = [tuple(np.round(k, 9)) for k in klein]
        order = sorted(range(len(ops)), key=lambda i: keys[i])
        klein = klein[order]
        ops = [ops[i] for i in order]
        facets = _polytope_facets_3d(klein)
    return IdealCell(klein_vertices=klein,
                     vertex_ids=tuple(op.index for op in ops),
                     facets=facets, support=np.asarray(support, float)), ops


def project_face(face: HullFace, points):
    """Vertical projection of a hull face to an ideal Klein cell."""
    ops = [points[v] for v in face.vertex_ids]
    cell, ops = ideal_cell_from_points(ops, face.support, len(face.support) - 1)
    return cell, ops


# ---------------------------------------------------------------------------
# Quotient assembly.
# ---------------------------------------------------------------------------

def _face_walk(face_sets, L) -> _UnionFind:
    """Union-find of the faces that the generator walk joins.

    Face i under letter L[l] joins the first face, in index order, that
    its image matches (``first_images``), unless that face is i; unions
    run in (face, letter) order, so each root is the one a face-by-face
    walk leaves."""
    uf = _UnionFind(range(len(face_sets)))
    for (i, _), j in sorted(first_images(face_sets, L).items()):
        if j != i:
            uf.union(i, j)
    return uf


def assemble_decomposition(faces, g: GroupSpec, points, word_bound: int,
                           all_faces) -> Decomposition:
    """Group certified faces into orbits and pair their facets.

    Orbit grouping walks generator images inside the enumerated face
    set (``_face_walk``, all faces of one shape under all letters at
    once), joining face indices in one union-find, with a pairwise
    group-element search as a fallback for components the walk cannot
    join.  Each facet's pairing matrix is the group element that
    ``find_group_element`` verifies to carry the hull neighbor across
    the facet onto its class representative, never a product chain.
    ``all_faces`` holds ``faces`` and any uncertified faces used to
    locate hull neighbors; unpaired facets are reported, never dropped.
    The points come in orbit order, as for ``hull_faces``, and each class's
    member with the least ``vertex_ids`` represents it, in that order.
    """
    ops = list(points)
    coords = np.array([op.point for op in ops])

    face_sets = [coords[list(f.vertex_ids)] for f in all_faces]
    wanted = {id(f) for f in faces}
    certified_idx = [i for i, f in enumerate(all_faces) if id(f) in wanted]

    def face_element(i, j):
        return find_group_element(g, word_bound,
                                  [ops[v] for v in all_faces[i].vertex_ids],
                                  [ops[v] for v in all_faces[j].vertex_ids])

    d = g.dimension + 1
    L = np.array([m for _, m in g.letters()]).reshape(-1, d, d)
    uf = _face_walk(face_sets, L)

    # fallback: merge remaining certified components pairwise
    for ra, rb in combinations(sorted({uf.find(i) for i in certified_idx}), 2):
        if uf.find(ra) != uf.find(rb) and face_element(ra, rb) is not None:
            uf.union(ra, rb)

    # classes with at least one certified member become cells
    members = {}
    for i in certified_idx:
        members.setdefault(uf.find(i), []).append(i)
    key = lambda i: all_faces[i].vertex_ids
    order = sorted((min(mem, key=key) for mem in members.values()), key=key)
    class_of = {uf.find(rep_idx): ci for ci, rep_idx in enumerate(order)}

    cells = []
    cell_points = []
    for ci, rep_idx in enumerate(order):
        cell, cops = project_face(all_faces[rep_idx], ops)
        cell.label = ci
        cells.append(cell)
        cell_points.append(cops)

    # facet -> neighbor lookup over the full face list
    by_vertex = {}
    for idx, f in enumerate(all_faces):
        for v in f.vertex_ids:
            by_vertex.setdefault(v, set()).add(idx)

    def neighbor_of(face_idx, facet_global):
        sets = [by_vertex.get(v, set()) for v in facet_global]
        common = set.intersection(*sets) if sets else set()
        others = sorted(idx for idx in common if idx != face_idx)
        return others[0] if others else None

    pairings = {}
    unpaired = []
    for ci, cell in enumerate(cells):
        rep_idx = order[ci]
        for fi, facet in enumerate(cell.facets):
            facet_global = tuple(cell_points[ci][v].index for v in facet)
            nb = neighbor_of(rep_idx, facet_global)
            if nb is None:
                unpaired.append(((ci, fi), "no hull neighbor (truncation)"))
                continue
            cj = class_of.get(uf.find(nb))
            if cj is None:
                unpaired.append(((ci, fi), "neighbor face not in a certified class"))
                continue
            M = face_element(nb, order[cj])
            if M is None:
                unpaired.append(((ci, fi), "no group element onto the class "
                                           "representative"))
                continue
            img = np.array([ops[v].point for v in facet_global]) @ M.T
            fj = match_index((np.array([cell_points[cj][v].point for v in f])
                              for f in cells[cj].facets), img)
            if fj is None:
                unpaired.append(((ci, fi), "no matching facet on paired cell"))
                continue
            pairings[(ci, fi)] = Pairing(target=(cj, fj), matrix=M)
    return Decomposition(dimension=g.dimension, cells=cells,
                         cell_points=cell_points, pairings=pairings,
                         unpaired=unpaired)


def count_face_classes(dec: Decomposition, k: int) -> int:
    """Number of orbit classes of k-dimensional cell faces.

    k = n-1 counts facet classes (edge classes for n = 2), k = 1 counts
    edge classes for n = 3; identifications are generated by the facet
    pairings.
    """
    n = dec.dimension
    uf = _UnionFind((ci, sub) for ci, cell in enumerate(dec.cells)
                    for sub in _k_faces(cell, k, n))
    for (ci, fi), pairing in dec.pairings.items():
        cj = pairing.target[0]
        facet = dec.cells[ci].facets[fi]
        M = pairing.matrix
        subs_j = _k_faces(dec.cells[cj], k, n)
        own_j = [np.array([dec.cell_points[cj][v].point for v in sub_j])
                 for sub_j in subs_j]
        for sub in _k_faces(dec.cells[ci], k, n):
            if not set(sub) <= set(facet):
                continue
            img = np.array([dec.cell_points[ci][v].point for v in sub]) @ M.T
            j = match_index(own_j, img)
            if j is not None:
                uf.union((ci, sub), (cj, subs_j[j]))
    return len(uf.groups())


def _k_faces(cell: IdealCell, k: int, n: int):
    if k == n - 1:
        return [tuple(f) for f in cell.facets]
    if k == 0:
        return [(i,) for i in range(len(cell.klein_vertices))]
    if k == 1 and n == 3:
        edges = set()
        facets = [set(f) for f in cell.facets]
        for i in range(len(facets)):
            for j in range(i + 1, len(facets)):
                inter = facets[i] & facets[j]
                if len(inter) == 2:
                    edges.add(tuple(sorted(inter)))
        return sorted(edges)
    raise GeometryError(f"unsupported face dimension {k} for n = {n}")


# ---------------------------------------------------------------------------
# Lorentzian facet normals and dihedral angles.
# ---------------------------------------------------------------------------

def facet_normal(cell_coords, facet_ids) -> np.ndarray:
    """Spacelike normal of the plane through origin spanned by facet rays."""
    P = np.array([cell_coords[i] for i in facet_ids])
    J = minkowski_form(P.shape[1])
    return np.linalg.svd(P @ J)[2][-1]


def dihedral_angles(cell: IdealCell, cops):
    """Interior dihedral angle along each edge of a 3-dimensional cell."""
    coords = np.array([op.point for op in cops])
    normals = {}
    for f in cell.facets:
        # the outward normal has the cell's other vertices on its
        # negative side
        u = facet_normal(coords, f)
        sign = sum(lorentz_product(coords[i], u)
                   for i in range(len(coords)) if i not in f)
        normals[tuple(f)] = -u if sign > 0 else u
    out = {}
    for e in _k_faces(cell, 1, 3):
        adj = [tuple(f) for f in cell.facets if set(e) <= set(f)]
        if len(adj) != 2:
            continue
        u1, u2 = normals[adj[0]], normals[adj[1]]
        c = -lorentz_product(u1, u2) / np.sqrt(
            lorentz_product(u1, u1) * lorentz_product(u2, u2))
        out[e] = float(np.arccos(np.clip(c, -1.0, 1.0)))
    return out
