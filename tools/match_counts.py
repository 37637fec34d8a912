#!/usr/bin/env python3
"""Work counts of the group-element searches and the orbit merges.

Runs ``io_cli.run`` on the four fixtures at their shipped bounds and on
the figure-eight knot at H = 12, and counts, per run:

- ``searches``: ``find_group_element`` calls that pass its shape and
  Gram screens and so reach ``matching._first_hits``;
- ``searches_made``: the calls among them that miss the spec's search
  cache and so search (the entries they add to it);
- ``candidates``: (source, matrix) pairs that ``matching.pair_hits``
  screens, for the searches and for the rounds of
  ``GammaClasses.classify``, and the (matrix, destination) pairs that
  the quotient's ``stack_hits`` scans screen, over the destinations of
  the source's shape that they reach;
- ``survivors``: pairs or matrices that pass the centroid screen and
  go to the greedy confirmation;
- ``hits``: survivors that the confirmation accepts (for a ``stack_hits``
  scan, every hit of each destination it screens, taken or not);
- ``low_images``: images of the cusp vectors under the word ball with
  x0 at most the height bound, over every ``orbit`` call;
- ``kept_points``: the points those ``orbit`` calls keep after merging;
- ``ball_keys``: matrices keyed for deduplication by ``group._grow``,
  both as the cached word ball grows and as it forms the uncached,
  height-screened last level of each ``orbit``; each growth rekeys the
  stack it grows from, and a screened level keys only the products
  that pass its screen; the keys of the whole ball that ``low_images``
  reads are not counted;
- ``merge_tests``: (stored, query) point pairs that share a probe cell
  and so go through the exact same-point test (``group._is_same``),
  both in the orbit merges and in the ``OrbitSet`` lookups;
- ``classified``: objects handed to ``GammaClasses.classify``: the
  return pairs within the length bound, which the report classifies
  once, and the cells of each stratum of both cut-locus complexes.

Run from the repository root:

    python3 tools/match_counts.py > match-counts.json

Every count is deterministic at a given commit; ``tools/match_counts.json``
holds the committed values, and CI fails when a count grows
(``tools/check_counts.py``).
"""

import json
import pathlib
import sys
from collections import Counter
from dataclasses import replace

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from hypdecomp import cutlocus, doubling, ep_hull, group, io_cli, matching
from hypdecomp.fixtures import NAMES, fixture_path

SETTINGS = [(name, {}) for name in NAMES] + [
    ("figure_eight_knot", {"height_bound": 12.0})]


def counting(counts):
    """Patch the counted functions; returns the undo list."""
    (find, first_hits, hits_of, pair_hits, greedy, orbit, first_new,
     is_same, classify) = (matching.find_group_element, matching._first_hits,
                           matching.stack_hits, matching.pair_hits,
                           matching.greedy_deviation, group.orbit,
                           group._first_new, group._is_same,
                           matching.GammaClasses.classify)
    finding, screening, keying = [False], [False], [True]

    def counted_find(*args, **kwargs):
        finding[0] = True
        try:
            return find(*args, **kwargs)
        finally:
            finding[0] = False

    def counted_first_hits(g, word_bound, srcs, *args):
        kept = len(g._search_cache)
        hits = first_hits(g, word_bound, srcs, *args)
        if finding[0]:
            counts["searches"] += len(srcs)
            counts["searches_made"] += len(g._search_cache) - kept
        return hits

    def counted_stack_hits(stack, src, dsts):
        # one destination at a time, as far as the consumer reads: each
        # destination's hits are confirmed together, so all are counted
        for t, dst in enumerate(dsts):
            counts["candidates"] += len(stack) * (dst.shape == src.shape)
            screening[0] = True
            try:
                hits = list(hits_of(stack, src, [dst]))
            finally:
                screening[0] = False
            counts["hits"] += len(hits)
            yield from ((t, e) for _, e in hits)

    def counted_pair_hits(left, right, srcs, dst):
        counts["candidates"] += len(left) * len(right)
        screening[0] = True
        try:
            hits = pair_hits(left, right, srcs, dst)
        finally:
            screening[0] = False
        counts["hits"] += len(hits[0])
        return hits

    def counted_greedy(A, B):
        dev = greedy(A, B)
        if screening[0]:
            counts["survivors"] += np.size(dev)
        return dev

    def counted_orbit(g, word_bound, height_bound):
        # the whole ball, on a fresh spec and with its keys uncounted:
        # g's own ball would grow past what the orbit builds
        keying[0] = False
        try:
            ball = replace(g, _ball_cache={}).word_ball(word_bound)
        finally:
            keying[0] = True
        counts["low_images"] += sum(
            int(np.count_nonzero((ball.matrices @ p)[:, 0] <= height_bound))
            for p in g.cusp_reps)
        points = orbit(g, word_bound, height_bound)
        counts["kept_points"] += len(points)
        return points

    def counted_first_new(stack, seen):
        counts["ball_keys"] += keying[0] * len(stack)
        return first_new(stack, seen)

    def counted_is_same(P, P_rays, a, Q, Q_rays, b):
        counts["merge_tests"] += len(a)
        return is_same(P, P_rays, a, Q, Q_rays, b)

    def counted_classify(self, objects):
        counts["classified"] += len(objects)
        return classify(self, objects)

    patches = [(mod, "find_group_element", counted_find)
               for mod in (matching, ep_hull, cutlocus)]
    patches += [(matching, "_first_hits", counted_first_hits),
                (matching, "pair_hits", counted_pair_hits),
                (doubling, "stack_hits", counted_stack_hits),
                (matching, "greedy_deviation", counted_greedy)]
    patches += [(group, "_first_new", counted_first_new),
                (group, "_is_same", counted_is_same),
                (matching.GammaClasses, "classify", counted_classify)]
    patches += [(mod, "orbit", counted_orbit)
                for mod in (group, io_cli, ep_hull, doubling)]
    undo = [(mod, name, getattr(mod, name)) for mod, name, _ in patches]
    for mod, name, fn in patches:
        setattr(mod, name, fn)
    return undo


def count(name, overrides):
    """The record of one run of a fixture with option overrides."""
    spec = io_cli.load_spec(fixture_path(name))
    for key, value in overrides.items():
        setattr(spec.options, key, value)
    counts = Counter()
    undo = counting(counts)
    try:
        io_cli.run(spec)
    finally:
        for mod, attr, fn in undo:
            setattr(mod, attr, fn)
    label = f"{name} W={spec.options.word_bound} H={spec.options.height_bound:g}"
    return {"setting": label} | {
        key: counts[key] for key in ("searches", "searches_made", "candidates",
                                     "survivors", "hits", "low_images",
                                     "kept_points", "ball_keys",
                                     "merge_tests", "classified")}


def main():
    print(json.dumps([count(*s) for s in SETTINGS], indent=1))


if __name__ == "__main__":
    main()
