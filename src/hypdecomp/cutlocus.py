"""Cut-locus construction and the decomposition dual to it.

The cut locus of the decoration set is assembled from middle fences
between each base horoball and its partners within a length bound
(``return_pairs``); only a report classifies those pairs into return
paths.  The fence of a base horoball p against a competitor q is the
hyperplane {x : <x,p> = <x,q>} with spacelike normal p - q; in Klein
coordinates it is affine, and ``_klein_constraints`` writes it as the
row a . k >= b with (b, a) = p - q.  So the nearness domain of each
horoball is a convex polytope intersected with the unit ball, and the
whole complex reduces to linear algebra: domain vertices are 0-cells,
polytope edges are 1-cells, fence facets are (n-1)-cells.  Dualizing
(edges from facets, polygons from 1-cells, regions from 0-cells in
H^3; one step lower in H^2) rebuilds the decomposition independently
of the convex-hull route, which is exactly what makes the
cross-validation meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice

import numpy as np

from .decorations import horoball_distance
from .ep_hull import (Decomposition, HullFace, assemble_decomposition,
                      count_face_classes)
from .group import RAY_MERGE_ANGLE, GroupSpec, OrbitSet, _first_wins, _rays
from .matching import GammaClasses, find_group_element, greedy_deviation
from .minkowski import GeometryError, klein_to_hyperboloid, lorentz_gram

STRATUM_TOL = 1e-8
BALL_MARGIN = 1e-7
BOX = 1.5
# row combinations solved per batch in _vertex_enumeration
VERTEX_BLOCK = 512
LENGTH_SLACK = 1e-9     # a return pair this far past the bound is within it


@dataclass
class ReturnPath:
    """Orbit class of horoball pairs joined by a shortest segment."""
    class_id: int
    length: float
    lifts: list                         # return_pairs tuples


@dataclass
class CutCell:
    dim: int
    nearest_ids: tuple                  # orbit indices of nearest horoballs
    nearest_points: list
    sample: np.ndarray                  # hyperboloid point in the interior
    class_id: int = -1


@dataclass
class CutComplex:
    dimension: int
    cells: dict                         # stratum dim -> list of CutCell
    class_counts: dict                  # stratum dim -> number of orbits
    orbit_points: OrbitSet


@dataclass
class CrossValidation:
    ok: bool
    detail: str
    matched: int
    max_deviation: float


# ---------------------------------------------------------------------------
# Return paths.
# ---------------------------------------------------------------------------

def return_pairs(g: GroupSpec, length_bound: float, points: OrbitSet):
    """(cusp, base, partner, length) of each pair of ``points`` within the
    length bound whose base is a cusp representative, in cusp order, then
    orbit order.  Per base, one batched screen drops the points on its
    ray or, by their Lorentz products less a rounding bound, beyond the
    length bound; the rest go through ``horoball_distance``."""
    if length_bound <= 0:
        raise GeometryError("length bound must be positive")
    pairs = []
    Q = np.array([q.point for q in points]).reshape(-1, g.dimension + 1)
    rays = _rays(Q)
    for c, rep in enumerate(g.cusp_reps):
        if (base := points.find(rep)) is None:
            raise GeometryError(f"cusp representative {c} missing from orbit")
        p = base.point
        gap = rays - p / np.linalg.norm(p)
        apart = ~(np.sqrt(np.vecdot(gap, gap)) < RAY_MERGE_ANGLE)
        # -<p, q> for every q, less a bound on its rounding error
        low = ~(Q[:, 0] * p[0] - Q[:, 1:] @ p[1:] - 1e-12 * (abs(Q) @ abs(p))
                > 2.0 * np.exp(length_bound + LENGTH_SLACK))
        pairs += [(c, base, points[i], horoball_distance(p, points[i].point))
                  for i in np.flatnonzero(apart & low).tolist()]
    return pairs_within(pairs, length_bound)


def pairs_within(pairs, length_bound: float):
    """The ``return_pairs`` tuples within the bound (up to LENGTH_SLACK), in
    order: of the list at a larger bound, the list at this one."""
    return [pair for pair in pairs if pair[3] <= length_bound + LENGTH_SLACK]


def enumerate_return_paths(pairs, g: GroupSpec, word_bound: int):
    """Orbit classes of the given ``return_pairs`` tuples.

    Deterministic and sorted by length; the decoration symmetry and
    disjointness conditions are assumed to hold already.  The pairs go
    through one ``classify``, and each class keeps its pairs, in their
    order, as its lifts.
    """
    ids = GammaClasses(g, word_bound).classify(
        [[base, q] for _, base, q, _ in pairs])
    paths = {}
    for cid, pair in zip(ids, pairs):
        rp = paths.setdefault(cid, ReturnPath(cid, max(0.0, pair[3]), []))
        rp.lifts.append(pair)
    return sorted(paths.values(), key=lambda rp: (round(rp.length, 9), rp.class_id))


# ---------------------------------------------------------------------------
# Domain polytopes in the Klein chart.
# ---------------------------------------------------------------------------

def _klein_constraints(p, competitors):
    """Rows (a, b) with domain(p) = {k : a . k >= b} per competitor."""
    U = p - np.array([q.point for q in competitors])
    return U[:, 1:], U[:, 0]


def _box_constraints(n):
    A = np.vstack([np.eye(n), -np.eye(n)])
    b = -BOX * np.ones(2 * n)
    return A, b


def _vertex_enumeration(A, b, n):
    """Feasible basic points of {A k >= b} with their active sets.

    The C(m, n) row combinations are taken in lexicographic blocks of
    ``VERTEX_BLOCK``.  A block's systems are stacked, the singular ones
    (zero determinant, from the same LU on which a single ``solve``
    raises) are dropped and the rest solved in one batched ``solve``.
    The block's residuals are one product, so memory stays bounded by
    the block whatever C(m, n) is.
    """
    m = len(A)
    combos = combinations(range(m), n)
    vertices = []
    while True:
        block = np.array(list(islice(combos, VERTEX_BLOCK)))
        if not len(block):
            break
        Ms = A[block]
        regular = np.linalg.det(Ms) != 0.0
        ks = np.linalg.solve(Ms[regular],
                             b[block[regular]][..., None])[..., 0]
        resid = ks @ A.T - b
        feasible = ~(np.min(resid, axis=1) < -1e-9)
        for k, on in zip(ks[feasible], np.abs(resid[feasible]) <= 1e-8):
            vertices.append((k, tuple(np.flatnonzero(on).tolist())))
    # dedupe coincident basic solutions: a vertex within 1e-9 (max norm)
    # of an earlier kept one is dropped, first wins
    K = np.array([k for k, _ in vertices]).reshape(-1, n)
    close = np.max(np.abs(K[:, None] - K[None]), axis=2) < 1e-9
    later, earlier = np.nonzero(np.tril(close, -1))
    keep = _first_wins(len(K), earlier, later)
    return [v for v, kept in zip(vertices, keep) if kept]


def _inside_ball(k) -> bool:
    return float(k @ k) < (1.0 - BALL_MARGIN) ** 2


def _log_distances(X, centers):
    """log -<x, c> for each center c and each point x of X (one or a
    stack), from one (1, n) @ (n, m) product per point: bitwise alike."""
    X = np.asarray(X, dtype=float)
    spatial = (X[..., None, 1:] @ centers[:, 1:].T)[..., 0, :]
    return np.log(X[..., :1] * centers[:, 0] - spatial)


def _nearest_sets(klein_points, centers):
    """Hyperboloid point of each Klein point and the indices of its
    nearest centers, those within STRATUM_TOL * max(1, |least|) of its
    least log distance, all from one stacked product."""
    xs = [klein_to_hyperboloid(k) for k in klein_points]
    d = _log_distances(np.reshape(xs, (-1, centers.shape[1])), centers)
    dmin = d.min(axis=1)
    near = d <= (dmin + STRATUM_TOL * np.maximum(1.0, abs(dmin)))[:, None]
    return xs, [tuple(np.flatnonzero(row).tolist()) for row in near]


def cut_locus_complex(paths, g: GroupSpec, word_bound: int,
                      points: OrbitSet) -> CutComplex:
    """Stratified cell complex of the cut locus near the base horoballs.

    ``paths`` holds ``return_pairs`` tuples, each partner once per cusp,
    taken in ``points``; a cusp's partners, in order, compete with its
    base.  For each cusp the nearness domain is intersected from fence
    half-spaces; vertices, edges and fence facets strictly inside the
    unit ball become 0-, 1- and (n-1)-cells.  Nearest sets come from one
    ``_nearest_sets`` call for all vertices, one for all edge midpoints
    and one per round of facet samples, which takes the next sample of
    every fence without a facet cell yet.  Each stratum's cells are
    grouped into group orbits by one ``classify``.
    """
    if not paths:
        raise GeometryError("empty return path list")
    n = g.dimension
    competitors = {}                # cusp -> (base, partners)
    for c, base, q, _ in paths:
        competitors.setdefault(c, (base, []))[1].append(q)
    cells = {k: [] for k in range(n)}
    for c, (base_op, comp) in sorted(competitors.items()):
        p_vec = g.cusp_reps[c]
        Af, bf = _klein_constraints(p_vec, comp)
        Ab, bb = _box_constraints(n)
        A = np.vstack([Af, Ab])
        b = np.concatenate([bf, bb])
        nf = len(comp)
        verts = _vertex_enumeration(A, b, n)
        centers = np.array([p_vec] + [q.point for q in comp])

        # 0-cells: vertices with n active fences, strictly inside the ball
        inner = [k for k, active in verts
                 if sum(i < nf for i in active) >= n and _inside_ball(k)]
        for x, near in zip(*_nearest_sets(inner, centers)):
            if len(near) < n + 1:
                raise GeometryError("inconsistent stratification at a vertex")
            ids = tuple(sorted([base_op.index] + [comp[i - 1].index
                                                  for i in near if i > 0]))
            cells[0].append(CutCell(0, ids, [points[i] for i in ids], x))
        # (n-1)-cells: one per fence with a sample near it alone; each
        # round tests the next sample of every fence still open at once
        samples = {}
        for qi in range(nf):
            witnesses = [k for k, active in verts if qi in active]
            if len(witnesses) >= n:
                samples[qi] = _facet_samples(np.array(witnesses), A, b, qi)
        hits, short, open_ = {}, set(), list(samples)
        while todo := [(qi, k) for qi in open_
                       if (k := next(samples[qi], None)) is not None]:
            open_ = []
            for (qi, _), x, near in zip(todo, *_nearest_sets(
                    [k for _, k in todo], centers)):
                if len(near) == 2:
                    hits[qi] = x
                    continue
                open_.append(qi)
                if len(near) < 2:
                    short.add(qi)
        if short - hits.keys():
            raise GeometryError("inconsistent stratification on a fence")
        for qi, x in sorted(hits.items()):
            ids = tuple(sorted([base_op.index, comp[qi].index]))
            cells[n - 1].append(CutCell(n - 1, ids, [points[i] for i in ids],
                                        x))
        # 1-cells for n = 3: polytope edges inside the ball
        if n == 3:
            fence_sets = [{i for i in active if i < nf} for _, active in verts]
            mids = [mid for ((k1, _), f1), ((k2, _), f2)
                    in combinations(zip(verts, fence_sets), 2)
                    if len(f1 & f2) >= 2
                    and _inside_ball(mid := 0.5 * (k1 + k2))]
            for x, near in zip(*_nearest_sets(mids, centers)):
                if len(near) < 3:
                    raise GeometryError("inconsistent stratification on an edge")
                if len(near) != 3:
                    continue
                ids = tuple(sorted([base_op.index] + [comp[i - 1].index
                                                      for i in near if i > 0]))
                if any(cc.nearest_ids == ids and np.max(np.abs(cc.sample - x)) < 1e-9
                       for cc in cells[1]):
                    continue
                cells[1].append(CutCell(1, ids, [points[i] for i in ids], x))

    # orbit classification per stratum
    class_counts = {}
    for k in range(n):
        classes = GammaClasses(g, word_bound)
        ids = classes.classify([cell.nearest_points for cell in cells[k]])
        for cell, cid in zip(cells[k], ids):
            cell.class_id = cid
        class_counts[k] = len(classes.reps)
    return CutComplex(dimension=n, cells=cells, class_counts=class_counts,
                      orbit_points=points)


def complex_signature(cx: CutComplex):
    """Per stratum, the sorted (size, rounded Gram) of each class's first cell."""
    sig = {}
    for k, cells in cx.cells.items():
        reps = {}
        for cell in cells:
            if cell.class_id not in reps:
                coords = np.array([op.point for op in cell.nearest_points])
                gram = np.sort(np.round(lorentz_gram(coords, coords).ravel(), 6))
                reps[cell.class_id] = (len(cell.nearest_ids), tuple(gram))
        sig[k] = sorted(reps.values())
    return sig


def _facet_samples(witnesses, A, b, qi):
    """Candidate interior samples of the facet on fence qi, inside the ball.

    The candidates are built one at a time, as the caller asks for the
    next: the mean of the witnesses inside the ball, four mixes of each
    witness pair, the mean of all witnesses.
    """
    def candidates():
        inside = [w for w in witnesses if _inside_ball(w)]
        if inside:
            yield np.mean(inside, axis=0)
        for wi, wj in combinations(witnesses, 2):
            for t in (0.5, 0.25, 0.75, 0.1):
                yield t * wi + (1.0 - t) * wj
        yield np.mean(witnesses, axis=0)

    for k in candidates():
        if not _inside_ball(k):
            continue
        resid = A @ k - b
        if resid[qi] > 1e-8 or np.min(resid) < -1e-9:
            continue
        yield k


# ---------------------------------------------------------------------------
# Dual decomposition.
# ---------------------------------------------------------------------------

def dual_decomposition(complex_: CutComplex, g: GroupSpec,
                       word_bound: int) -> Decomposition:
    """Decomposition dual to the cut locus.

    Regions come from 0-cells (their ideal vertices are the nearest
    horoball centers), faces from 1-cells and edges from (n-1)-cells;
    the quotient is assembled exactly like the hull route so the two
    results are directly comparable.
    """
    n = g.dimension
    points = complex_.orbit_points
    zero_cells = complex_.cells[0]
    if not zero_cells:
        raise GeometryError("no 0-cells: bounds too small for a dual region")
    seen = set()
    pseudo = []
    for cell in zero_cells:
        if cell.nearest_ids in seen:
            continue
        seen.add(cell.nearest_ids)
        coords = np.array([points[i].point for i in cell.nearest_ids])
        lam = -1.0 / float(lorentz_gram(cell.sample[None, :], coords[:1])[0, 0])
        support = lam * cell.sample
        pseudo.append(HullFace(vertex_ids=cell.nearest_ids, support=support,
                               max_height=float(np.max(coords[:, 0]))))
    # saturate under generators so every representative keeps its
    # neighbors inside the patch (pairings stay total)
    patch = list(pseudo)
    frontier = list(pseudo)
    letters = [m for _, m in g.letters()]
    L = np.array(letters)
    for _ in range(2 if letters else 0):     # no letters, no images
        # every letter's images of every frontier vertex, looked up at once
        flat = [i for face in frontier for i in face.vertex_ids]
        X = np.array([points[i].point for i in flat])
        images = (L[:, None] @ X[None, :, :, None])[..., 0]   # m @ x each
        found = points.lookup(images.reshape(-1, n + 1)).reshape(
            len(L), len(flat)).tolist()
        extra = []
        start = 0
        for face in frontier:
            stop = start + len(face.vertex_ids)
            for m, hits in zip(letters, found):
                img = hits[start:stop]
                if -1 not in img:
                    ids = tuple(sorted(points[j].index for j in img))
                    if ids not in seen:
                        seen.add(ids)
                        extra.append(HullFace(
                            vertex_ids=ids, support=m @ face.support,
                            max_height=float(max(points[i].point[0] for i in ids))))
            start = stop
        patch.extend(extra)
        frontier = extra
        if not extra:
            break
    # concyclicity of the ideal vertices around each 1-cell (n = 3)
    if n == 3:
        for cell in complex_.cells[1]:
            if not _concyclic(cell):
                raise GeometryError(
                    f"dual face vertices fail the common-circle test: "
                    f"{cell.nearest_ids}")
    return assemble_decomposition(pseudo, g, points, word_bound,
                                  all_faces=patch)


def _concyclic(cell: CutCell) -> bool:
    """Ideal points around a 1-cell lie on a circle centered at its pole.

    Equivalently, the normalized centers all have the same product with
    the sample point on the equidistance geodesic, and they span a
    hyperplane section of the ball (a geodesic plane).
    """
    coords = np.array([op.point for op in cell.nearest_points])
    prods = lorentz_gram(cell.sample[None, :], coords).ravel()
    if np.max(np.abs(prods - prods[0])) > 1e-7 * max(1.0, float(np.max(np.abs(prods)))):
        return False
    if len(coords) < 4:
        return True   # three points are always concyclic
    kl = coords[:, 1:] / coords[:, :1]
    base = kl[0]
    M = kl[1:] - base
    _, s, _ = np.linalg.svd(M)
    return s[-1] <= 1e-7 * max(1.0, s[0])


def dual_count_identity(complex_: CutComplex, dual: Decomposition) -> dict:
    """Counts of dual objects against cut-locus cell orbits per stratum."""
    n = complex_.dimension
    # edges are dual to (n-1)-cells in both dimensions
    out = {
        "regions": (len(dual.cells), complex_.class_counts[0]),
        "edges": (count_face_classes(dual, 1), complex_.class_counts[n - 1]),
    }
    if n == 3:
        out["faces"] = (count_face_classes(dual, 2), complex_.class_counts[1])
    return out


# ---------------------------------------------------------------------------
# Cross validation of the two constructions.
# ---------------------------------------------------------------------------

def cross_validate(a: Decomposition, b: Decomposition, g: GroupSpec,
                   word_bound: int, tol: float = 1e-7) -> CrossValidation:
    """Match the cells of two decompositions of the same manifold."""
    if a.dimension != b.dimension:
        return CrossValidation(False, "dimension mismatch", 0, np.inf)
    if len(a.cells) != len(b.cells):
        return CrossValidation(
            False, f"cell counts differ: {len(a.cells)} vs {len(b.cells)}",
            0, np.inf)
    used = set()
    worst = 0.0
    for ci in range(len(a.cells)):
        hit = None
        for cj in range(len(b.cells)):
            if cj in used:
                continue
            M = find_group_element(g, word_bound, a.cell_points[ci],
                                   b.cell_points[cj])
            if M is not None:
                hit = (cj, M)
                break
        if hit is None:
            return CrossValidation(False, f"cell {ci} has no partner", ci, worst)
        cj, M = hit
        used.add(cj)
        A = np.array([op.point for op in a.cell_points[ci]])
        B = np.array([op.point for op in b.cell_points[cj]])
        img = A @ M.T
        dev = float(greedy_deviation(img, B))
        worst = max(worst, dev)
        if dev > tol * max(1.0, float(np.max(np.abs(B)))):
            return CrossValidation(False, f"cell {ci} vertices deviate by {dev}",
                                   ci, worst)
    return CrossValidation(True, "decompositions agree", len(a.cells), worst)
