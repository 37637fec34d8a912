"""Totally geodesic boundary machinery on the doubled manifold.

Covers the parts of the pipeline that only exist when the input carries
boundary-wall reflections: exact symmetrization of decorations, the
mirror-symmetry check of the hull, and the quotient that turns the
doubled decomposition into cells of the original manifold, truncating
the wall-crossing ones along the polar hyperplane of the wall.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .decorations import horoball_distance, horoball_plane_distance
from .ep_hull import Decomposition, IdealCell, _k_faces, facet_normal
from .group import (RAY_MERGE_ANGLE, GroupSpec, lorentz_inverse, orbit,
                    reflection_normal, stack_product)
from .matching import first_images, stack_hits
from .minkowski import (CausalClass, GeometryError, classify,
                        klein_to_hyperboloid, lorentz_gram, lorentz_product)

ORTHO_TOL = 1e-8


@dataclass(frozen=True)
class ProjectivePoint:
    """Point of RP^n as a sign-normalized homogeneous vector."""
    vector: np.ndarray

    @property
    def at_infinity(self) -> bool:
        v = self.vector
        return abs(v[0]) <= 1e-12 * float(np.max(np.abs(v)))

    @property
    def klein(self):
        """Klein-chart coordinates, or None for points at infinity."""
        if self.at_infinity:
            return None
        return self.vector[1:] / self.vector[0]


def polar_vertex(u) -> ProjectivePoint:
    """Projective pole of the hyperplane {x : <x,u> = 0}.

    For spacelike u the pole lies outside the closed Klein ball and the
    tangent lines from it touch the sphere exactly on the hyperplane.
    """
    u = np.asarray(u, dtype=float)
    if classify(u) is not CausalClass.SPACELIKE:
        raise GeometryError("polar vertex needs a spacelike normal")
    nz = np.nonzero(np.abs(u) > 1e-12 * np.max(np.abs(u)))[0]
    v = u if u[nz[0]] > 0 else -u
    return ProjectivePoint(vector=v / np.linalg.norm(v))


def symmetry_direction_check(p1, p2, tau) -> bool:
    """Whether p1 - p2 is parallel to the displacement direction of tau.

    The direction is computed once from a reference lightlike vector not
    fixed by tau; for an exact reflection every symmetric pair must be
    parallel to it.
    """
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    tau = np.asarray(tau, dtype=float)
    d = p1 - p2
    nd = np.linalg.norm(d)
    if nd <= 1e-9 * max(1.0, np.linalg.norm(p1)):
        raise GeometryError("point is fixed by the reflection")
    if np.max(np.abs(tau @ p1 - p2)) > 1e-6 * max(1.0, np.max(np.abs(p1))):
        raise GeometryError("p2 is not the tau-image of p1")
    dim = len(p1)
    for k in range(1, dim):
        ref = np.zeros(dim)
        ref[0] = 1.0
        ref[k] = 1.0
        v = ref - tau @ ref
        if np.linalg.norm(v) > 1e-9:
            break
    else:
        raise GeometryError("could not find a reference vector")
    # parallel iff all 2x2 minors of [d; v] vanish
    minors = np.abs(np.outer(d, v) - np.outer(v, d))
    return float(np.max(minors)) <= 1e-9 * nd * np.linalg.norm(v)


# ---------------------------------------------------------------------------
# Decoration symmetrization.
# ---------------------------------------------------------------------------

class SymmetrizeError(GeometryError):
    pass


def _ray_hit(ball, q, vectors):
    """First (element, j) whose image of ``vectors[j]`` lies on q's ray.

    Elements are taken in ball order and, per element, j in list order;
    rays closer than 1e-8 coincide.  Returns None when nothing hits.
    """
    ray_q = q / np.linalg.norm(q)
    hits = []
    for j, v in enumerate(vectors):
        images = stack_product(ball.matrices, v)    # (d, N)
        shift = images / np.linalg.norm(images, axis=0) - ray_q[:, None]
        # the batched norms may round differently from the per-element
        # test below, so screen with slack and confirm each candidate
        close = np.flatnonzero(np.linalg.norm(shift, axis=0) < 2e-8)
        hits.extend((int(e), j, images[:, e]) for e in close)
    for e, j, img in sorted(hits, key=lambda h: h[:2]):
        if np.linalg.norm(ray_q - img / np.linalg.norm(img)) < 1e-8:
            return e, j
    return None


def _overlap_log_scale(coords) -> float:
    """Largest -d/2 over pairs of horoballs on distinct rays (d their
    distance), or -inf without such a pair (also for fewer than two
    points).

    A batched Gram screen keeps the pairs that can reach the maximum
    within a rounding bound; only those are evaluated with
    ``horoball_distance``, so the value is bitwise the pairwise one.
    """
    if len(coords) < 2:
        return -np.inf
    norms = np.linalg.norm(coords, axis=1)
    rays = coords / norms[:, None]
    a, b = np.triu_indices(len(coords), 1)
    apart = np.linalg.norm(rays[a] - rays[b], axis=1) >= RAY_MERGE_ANGLE
    a, b = a[apart], b[apart]
    q = -lorentz_gram(coords, coords)[a, b]
    err = 1e-12 * norms[a] * norms[b]
    near = np.flatnonzero(q - err <= np.min(q + err, initial=np.inf))
    return max((-horoball_distance(coords[a[k]], coords[b[k]]) / 2.0
                for k in near), default=-np.inf)


def symmetrize_decorations(g: GroupSpec, margin: float, word_bound: int,
                           height_bound: float) -> GroupSpec:
    """Rescale cusp vectors so the decoration conditions hold exactly.

    (1) cusps paired by each reflection carry exactly reflected centers,
    (2) every horoball keeps hyperbolic distance >= margin from every
    wall lift it sees within the working bounds, (3) all orbit horoballs
    are pairwise disjoint.  All adjustments are a single global scale on
    top of the exact pairing, so the combinatorics downstream do not
    depend on the margin once conditions hold.
    """
    reps = [p.copy() for p in g.cusp_reps]
    ball = g.word_ball(word_bound)

    # exact pairing constraints p_j = back tau p_i from each reflection,
    # back the inverse of the ball element that puts p_j on tau p_i's ray
    constraints = []
    for r, tau in enumerate(g.reflections):
        for i, p in enumerate(reps):
            hit = _ray_hit(ball, tau @ p, reps)
            if hit is None:
                raise SymmetrizeError(
                    f"reflection {r} maps cusp {i} outside every cusp orbit")
            e, j = hit
            constraints.append((i, j, tau, lorentz_inverse(ball.matrices[e])))

    # propagate exact vectors from low-index anchors, then verify every
    # constraint (cycles and self-pairings must close up)
    assigned = {i: reps[i] for i in range(len(reps))}

    # one canonical (first-listed) constraint assigns each cusp; every
    # other constraint is a consistency check, so repeated reflections
    # cannot ping-pong a center between nearly equal float values
    primary = {}
    for idx, (i, j, _, _) in enumerate(constraints):
        if i < j and j not in primary:
            primary[j] = idx

    def _propagate():
        # each anchor i < j is final before j reads it: one pass suffices
        for j, idx in sorted(primary.items()):
            i, _, tau, back = constraints[idx]
            assigned[j] = back @ (tau @ assigned[i])

    _propagate()
    for i, j, tau, back in constraints:
        target = back @ (tau @ assigned[i])
        rel = np.max(np.abs(assigned[j] - target)) / target[0]
        if rel > 1e-8:
            raise SymmetrizeError(
                f"no scaling satisfies the pairing of cusps {i} and {j}")
    reps = [assigned[i] for i in range(len(reps))]

    # g's balls serve both specs; the dict is copied, so the returned spec
    # grows its own ball and g keeps only the balls asked of it
    probe = replace(g, cusp_reps=reps, _ball_cache=dict(g._ball_cache))
    pts = orbit(probe, word_bound, height_bound)

    log_scale = 0.0
    try:
        # (2) wall margin, every orbit horoball against every base wall
        for tau in g.reflections:
            u = reflection_normal(tau)
            for op in pts:
                d = horoball_plane_distance(op.point, u)
                log_scale = max(log_scale, margin - d)
        # (3) pairwise disjointness
        log_scale = max(log_scale,
                        _overlap_log_scale(np.array([op.point for op in pts])))
    except GeometryError as exc:
        raise SymmetrizeError(
            f"orbit scan of the decorations failed: {exc}") from exc
    with np.errstate(over="ignore", invalid="ignore"):
        lam = float(np.exp(log_scale)) if log_scale > 1e-15 else 1.0
        if lam != 1.0:
            for i in range(len(reps)):
                assigned[i] = lam * assigned[i]
            # re-propagate so every paired center is the exact matrix image
            # of its scaled anchor (mirror partners match bitwise)
            _propagate()
    scaled = [assigned[i] for i in range(len(reps))]
    if not (np.isfinite(lam) and np.isfinite(scaled).all()):
        raise SymmetrizeError(f"margin {margin:g} asks for the decoration "
                              f"scale exp({log_scale:g}), past the float "
                              "range")
    # a cusp the scale lifts above the height bound is in no orbit
    for i, (p, q) in enumerate(zip(reps, scaled)):
        if q[0] > height_bound >= p[0]:
            raise SymmetrizeError(
                f"margin {margin:g} lifts cusp {i} to height {q[0]:g}, above "
                f"the height bound {height_bound:g}")
    return replace(g, cusp_reps=scaled, _ball_cache=dict(g._ball_cache))


# ---------------------------------------------------------------------------
# Hull symmetry.
# ---------------------------------------------------------------------------

@dataclass
class SymmetryReport:
    unmatched: list
    checked: int

    @property
    def ok(self) -> bool:
        return not self.unmatched


def check_hull_symmetry(faces, points, tau, height_bound: float) -> SymmetryReport:
    """Verify that the reflection maps the face set to itself.

    ``faces`` is the certified face list and ``height_bound`` the
    enumeration bound; a face whose mirror image pokes above the
    certification band (height_bound/2) leaves the certified horizon
    and is skipped, every other image must reappear in the list.
    """
    tau = np.asarray(tau, dtype=float)
    coords = np.array([op.point for op in points])
    face_sets = [coords[list(f.vertex_ids)] for f in faces]
    kept = [fi for fi, fs in enumerate(face_sets)
            if np.max((fs @ tau.T)[:, 0]) <= height_bound / 2.0]
    first = first_images(face_sets, tau[None])
    return SymmetryReport(unmatched=[faces[fi].vertex_ids for fi in kept
                                     if (fi, 0) not in first],
                          checked=len(kept))


# ---------------------------------------------------------------------------
# Quotient classification.
# ---------------------------------------------------------------------------

@dataclass
class MixedCell:
    """Quotient cell: an ideal polyhedron or a 1-m truncated polyhedron."""
    kind: str                      # "ideal" | "truncated"
    klein_vertices: np.ndarray     # ideal vertices (kept side only if truncated)
    ambient_vertices: np.ndarray   # decorated light-cone vectors, aligned
    internal_facets: list          # ambient coordinate arrays
    hyperideal_vertex: ProjectivePoint = None
    external_face: np.ndarray = None      # ambient hyperboloid points
    wall_normal: np.ndarray = None
    wall_orbit: int = -1
    reflection: np.ndarray = None
    source_class: int = -1


@dataclass
class MixedDecomposition:
    dimension: int
    cells: list
    pairings: dict
    unpaired: list
    errors: list

    @property
    def ok(self) -> bool:
        return not self.errors


def wall_lifts(g: GroupSpec, word_bound: int) -> np.ndarray:
    """Conjugates gamma tau gamma^-1 of the wall reflections by the N
    ball elements gamma, as one read-only (R N, d, d) stack.

    Lift i conjugates wall i // N by ball element i % N.  Every
    conjugate is kept, so two pairs that give one matrix give it twice.
    """
    stack = g.word_ball(word_bound).matrices
    inverses = lorentz_inverse(stack)
    lifts = np.empty((len(g.reflections), *stack.shape))
    for tau, out in zip(g.reflections, lifts):
        np.matmul(stack_product(stack, tau), inverses, out=out)
    lifts = lifts.reshape(-1, *stack.shape[1:])
    lifts.flags.writeable = False
    return lifts


def _edge_wall_point(ka, kb, u):
    """Klein point where segment ka-kb crosses the chord {k . u_s = u0}."""
    us, u0 = u[1:], u[0]
    da, db = ka @ us - u0, kb @ us - u0
    t = da / (da - db)
    return ka + t * (kb - ka)


def _truncate_cell(cell: IdealCell, cops, tau, u, wall_orbit: int,
                   source_class: int) -> MixedCell:
    coords = np.array([op.point for op in cops])
    sides = np.array([lorentz_product(p, u) for p in coords])
    if np.min(np.abs(sides)) <= 1e-9 * np.max(np.abs(sides)):
        raise GeometryError("cell vertex lies on the wall plane")
    # the side whose sorted orbit indices come first is kept
    pos, neg = (sorted(op.index for op, s in zip(cops, sides) if (s > 0) == b)
                for b in (True, False))
    kept = [i for i in range(len(cops)) if (sides[i] > 0) == (pos <= neg)]
    dropped = [i for i in range(len(cops)) if i not in kept]
    if len(kept) != len(dropped):
        raise GeometryError("wall reflection does not halve the vertex set")
    klein = cell.klein_vertices
    edges = set(_k_faces(cell, 1, klein.shape[1]))
    # wall section: intersections of crossing cell edges with the chord
    section = []
    internal = []
    for facet in cell.facets:
        f_kept = [i for i in facet if i in kept]
        f_drop = [i for i in facet if i in dropped]
        if not f_drop:
            internal.append(coords[list(facet)])
            continue
        if not f_kept:
            continue   # mirror facet, represented by its kept partner
        # clipped facet: kept ideal vertices plus wall crossing points
        pts = [coords[i] for i in f_kept]
        for a in f_kept:
            for b in f_drop:
                if (min(a, b), max(a, b)) in edges:
                    w = _edge_wall_point(klein[a], klein[b], u)
                    section.append(w)
                    pts.append(klein_to_hyperboloid(w))
        internal.append(np.array(pts))
    uniq = []
    for w in section:
        if not any(np.max(np.abs(w - x)) < 1e-9 for x in uniq):
            uniq.append(w)
    if len(uniq) > 2:
        # order the section polygon angularly within the wall plane
        arr = np.array(uniq)
        c = arr.mean(axis=0)
        _, _, vt = np.linalg.svd(arr - c)
        e1, e2 = vt[0], vt[1]
        ang = np.arctan2((arr - c) @ e2, (arr - c) @ e1)
        uniq = [uniq[i] for i in np.argsort(ang)]
    external = np.array([klein_to_hyperboloid(w) for w in uniq])
    return MixedCell(kind="truncated",
                     klein_vertices=klein[kept],
                     ambient_vertices=coords[kept],
                     internal_facets=internal,
                     hyperideal_vertex=polar_vertex(u),
                     external_face=external,
                     wall_normal=u,
                     wall_orbit=wall_orbit,
                     reflection=tau,
                     source_class=source_class)


def external_orthogonality(mc: MixedCell) -> float:
    """Worst deviation of external/internal angles from pi/2 (radians)."""
    if mc.kind != "truncated":
        return 0.0
    u = mc.wall_normal
    worst = 0.0
    for facet in mc.internal_facets:
        # only facets meeting the wall section matter
        if not _facet_meets_wall(facet, u):
            continue
        v = facet_normal(facet, range(len(facet)))
        c = lorentz_product(u, v) / np.sqrt(
            lorentz_product(u, u) * lorentz_product(v, v))
        worst = max(worst, abs(np.arccos(np.clip(c, -1, 1)) - np.pi / 2.0))
    return worst


def _facet_meets_wall(facet_coords, u) -> bool:
    vals = np.array([lorentz_product(p, u) for p in facet_coords])
    tol = 1e-7 * max(1.0, float(np.max(np.abs(vals))))
    return bool(np.min(vals) < tol and np.max(vals) > -tol)


def quotient_classify(dec: Decomposition, g: GroupSpec,
                      word_bound: int) -> MixedDecomposition:
    """Partition doubled cells into ideal pairs and wall-crossing cells.

    Mirror pairs keep one representative as an ideal cell; wall-crossing
    cells are intersected with the kept side of their wall and emitted
    as 1-m truncated cells whose hyperideal vertex is the wall's polar
    point.  Facet pairings are recomputed on the quotient.
    """
    errors = []
    case2 = {}
    mirrored_away = set()
    cell_coords = [np.array([op.point for op in cops])
                   for cops in dec.cell_points]
    if g.reflections:
        ball = g.word_ball(word_bound).matrices
        lifts = wall_lifts(g, word_bound)
        for ci, coords in enumerate(cell_coords):
            planes = []
            # a lift that repeats an earlier one repeats its plane
            for _, idx in stack_hits(lifts, coords, [coords]):
                u = reflection_normal(lifts[idx], strict=False)
                if u is None:
                    continue   # lift too deep in the ball to be usable
                if not any(_same_plane(u, u2) for _, u2, _ in planes):
                    # a copy: no view keeps the lifts alive past this pass
                    planes.append((idx // len(ball), u, lifts[idx].copy()))
            if len(planes) > 1:
                errors.append((ci, "cell meets two distinct wall orbits"))
                continue
            if planes:
                case2[ci] = planes[0]
        del lifts

        tau0 = g.reflections[0]
        off_wall = [ci for ci in range(len(dec.cells)) if ci not in case2]
        dsts = [cell_coords[ci] for ci in off_wall]
        for ci in off_wall:
            if ci in mirrored_away:
                continue
            t, _ = next(stack_hits(ball, cell_coords[ci] @ tau0.T, dsts),
                        (None, None))
            partner = None if t is None else off_wall[t]
            if partner is None:
                errors.append((ci, "mirror cell class not found among "
                                   "certified cells"))
            elif partner == ci:
                errors.append((ci, "off-wall cell is its own mirror "
                                   "(inconsistent)"))
            elif partner > ci:
                mirrored_away.add(partner)

    cells_out = []
    for ci, cell in enumerate(dec.cells):
        if ci in mirrored_away:
            continue
        cops = dec.cell_points[ci]
        if ci in case2:
            r, u, m = case2[ci]
            try:
                mc = _truncate_cell(cell, cops, m, u, r, ci)
            except GeometryError as exc:
                errors.append((ci, str(exc)))
                continue
            worst = external_orthogonality(mc)
            if worst > ORTHO_TOL:
                errors.append((ci, f"external face not orthogonal ({worst})"))
            cells_out.append(mc)
        else:
            coords = cell_coords[ci]
            cells_out.append(MixedCell(
                kind="ideal", klein_vertices=cell.klein_vertices,
                ambient_vertices=coords,
                internal_facets=[coords[list(f)] for f in cell.facets],
                source_class=ci))
    pairings, unpaired = _quotient_pairings(cells_out, g, word_bound)
    return MixedDecomposition(dec.dimension, cells_out, pairings, unpaired,
                              errors)


def _same_plane(u, v) -> bool:
    u = u / np.linalg.norm(u)
    v = v / np.linalg.norm(v)
    return min(np.max(np.abs(u - v)), np.max(np.abs(u + v))) < 1e-7


def _quotient_pairings(cells, g: GroupSpec, word_bound: int):
    """Match internal facets across quotient cells.

    Candidate isometries live in the extended group generated by the
    deck group and one mirror lift: the word ball, then the ball times
    the first reflection.  A facet glues to the first other unpaired
    facet that a candidate maps it onto, else to itself by the first
    candidate that is not the identity.
    """
    ball = g.word_ball(word_bound).matrices
    stack = np.concatenate([ball] + [stack_product(ball, tau)
                                     for tau in g.reflections[:1]])
    eye = np.eye(stack.shape[1])
    facets = {(ci, fi): np.asarray(facet, float)
              for ci, mc in enumerate(cells)
              for fi, facet in enumerate(mc.internal_facets)}
    pairings = {}
    unpaired = []
    for key, coords in facets.items():
        if key in pairings:
            continue
        # the other unpaired facets, then the facet itself
        dsts = [k for k in facets if k != key and k not in pairings] + [key]
        found = next(((dsts[t], stack[e].copy()) for t, e in stack_hits(
            stack, coords, [facets[k] for k in dsts])
            if dsts[t] != key or np.max(np.abs(stack[e] - eye)) >= 1e-9), None)
        if found is None:
            unpaired.append(key)
            continue
        key2, M = found
        pairings[key] = (key2, M)
        if key2 != key:
            pairings[key2] = (key, lorentz_inverse(M))
    return pairings, unpaired
