#!/usr/bin/env python3
"""Work and validity counts of the figure-eight knot's hulls.

Builds the main orbit (word bound, H) and the whole stability orbit
(word bound + 1, 2H), at the shipped height bound and at H = 12, and
the hulls ``ep_hull.stability_certificate`` builds of the low part of
the stability orbit, as ``io_cli.run`` does.  Prints one JSON record per
hull: points, facets created, live facets, exact tests, and the (facet,
point) pairs, ridges and facet normals that an exact oracle finds
wrong.  Run from the repository root:

    python3 tools/hull_counts.py > counts.json

Every count is deterministic at a given commit; ``tools/hull_counts.json``
holds the committed values, and CI fails when a count grows or a
validity count is nonzero.
"""

import json
import pathlib
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations
from operator import mul

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from hypdecomp import ep_hull
from hypdecomp.doubling import symmetrize_decorations
from hypdecomp.ep_hull import certified_faces, hull_faces, stability_certificate
from hypdecomp.fixtures import fixture_path
from hypdecomp.group import orbit
from hypdecomp.hull import IncrementalHull
from hypdecomp.io_cli import load_spec


class CountingHull(IncrementalHull):
    created = 0

    def _add_facet(self, vs):
        self.created += 1
        super()._add_facet(vs)


def _det(rows):
    """Integer determinant by Laplace expansion along the first row."""
    if len(rows) == 1:
        return rows[0][0]
    return sum((-1) ** j * a * _det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j, a in enumerate(rows[0]) if a)


def invalid_counts(hull):
    """Counts an exact oracle finds wrong: (facet, point) pairs with the
    point outside the facet, ridges not in exactly two facets, and facets
    whose float normal is not the outward unit normal to 1e-12."""
    fr = [[Fraction(float(c)) for c in p] for p in hull.points]
    den = max(x.denominator for row in fr for x in row)
    rows = [[int(x * den) for x in row] for row in fr]
    inner = [sum(col) for col in zip(*rows)]     # len(rows) * centroid
    d = hull.dim
    pairs = normals = 0
    ridges = Counter()
    for f in hull.facets:
        p0 = rows[f.vertices[0]]
        diffs = [[a - b for a, b in zip(rows[i], p0)] for i in f.vertices[1:]]
        n = [(-1) ** (d - 1 + j) * _det([r[:j] + r[j + 1:] for r in diffs])
             for j in range(d)]
        level = sum(map(mul, n, p0))
        c = sum(map(mul, n, inner)) - len(rows) * level
        pairs += sum(1 for r in rows
                     if c == 0 or (sum(map(mul, n, r)) - level) * c < 0)
        ridges.update(combinations(f.vertices, d - 1))
        big = max(map(abs, n)) or 1
        u = np.array([-x / big if c > 0 else x / big for x in n])
        u /= np.linalg.norm(u) or 1.0
        normals += not (abs(np.linalg.norm(f.normal) - 1.0) < 1e-12
                        and np.max(np.abs(f.normal - u)) < 1e-12)
    return pairs, sum(1 for k in ridges.values() if k != 2), normals


def record(name, hull):
    pairs, ridges, normals = invalid_counts(hull)
    return {"orbit": name, "points": len(hull.points),
            "facets_created": hull.created, "live_facets": len(hull.facets),
            "exact_tests": hull.pred.exact_evals, "bad_pairs": pairs,
            "bad_ridges": ridges, "bad_normals": normals}


def stability_hulls(gs, o):
    """The hulls ``stability_certificate`` builds, in order."""
    built = []

    class Recording(CountingHull):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    main = orbit(gs, o.word_bound, o.height_bound)
    faces = certified_faces(hull_faces(main), o.height_bound)
    ep_hull.IncrementalHull = Recording
    try:
        stability_certificate(gs, main, faces, o.word_bound, o.height_bound)
    finally:
        ep_hull.IncrementalHull = IncrementalHull
    return built


def main():
    records = []
    for height in (None, 12.0):
        spec = load_spec(fixture_path("figure_eight_knot"))
        o = spec.options
        if height is not None:
            o.height_bound = height
        gs = symmetrize_decorations(spec.group, margin=o.margin,
                                    word_bound=min(4, o.word_bound),
                                    height_bound=o.height_bound)
        label = f"figure_eight_knot H={o.height_bound:g}"
        for name, wb, hb in (("main", o.word_bound, o.height_bound),
                             ("stability", o.word_bound + 1, 2 * o.height_bound)):
            P = np.array([op.point for op in orbit(gs, wb, hb)])
            records.append(record(f"{label} {name}", CountingHull(P)))
        hulls = stability_hulls(gs, o)
        for i, hull in enumerate(hulls, 1):
            records.append(record(f"{label} stability hull {i} of {len(hulls)}",
                                  hull))
    print(json.dumps(records, indent=1))


if __name__ == "__main__":
    main()
