"""Acceptance suite: one checked criterion per test, each printed as a
single pass/fail line (run with -s to see them).

Every tolerance is pinned here; nothing is deferred to calibration.
Every criterion holds and must stay green.  Criterion 1 checks the
closed form e^-d/2 of shadow_radius against the brute-force
nearest-point projection measurement at 1e-9; see README for the
derivation.
"""

import numpy as np

from conftest import random_lightlike, set_match
from test_decorations import halfspace_distance_oracle, shadow_projection_oracle

from hypdecomp.cutlocus import (dual_count_identity, enumerate_return_paths,
                               return_pairs)
from hypdecomp.decorations import horoball_distance, shadow_radius
from hypdecomp.doubling import symmetrize_decorations, symmetry_direction_check
from hypdecomp.ep_hull import (certified_faces, count_face_classes,
                               dihedral_angles, hull_faces)
from hypdecomp.group import OrbitSet, orbit, validate_reflection
from hypdecomp.io_cli import emit, load_spec, run
from hypdecomp.minkowski import lorentz_product


def _criterion(num, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _symmetrized(spec):
    return symmetrize_decorations(spec.group, margin=spec.options.margin,
                                  word_bound=4,
                                  height_bound=spec.options.height_bound)


def _return_paths_stable(g, length_bound, word_bound, height_bound):
    """Return-path classes stable under enlarged orbit bounds."""
    small = OrbitSet(orbit(g, word_bound, height_bound))
    big = OrbitSet(orbit(g, word_bound + 1, 2.0 * height_bound))
    a = enumerate_return_paths(return_pairs(g, length_bound, small), g,
                               word_bound)
    b = enumerate_return_paths(return_pairs(g, length_bound, big), g,
                               word_bound + 1)
    if len(a) != len(b):
        return False
    return all(abs(x.length - y.length) < 1e-8 for x, y in zip(a, b))


def test_criterion_01_shadow_radius_formula_vs_projection_oracle():
    ds = [0.0, 0.25, 0.5, 1.0, 2.0, 5.0]
    errs = [abs(shadow_radius(d) - shadow_projection_oracle(d)) for d in ds]
    _criterion(1, max(errs) <= 1e-9,
               f"shadow radius vs brute-force projection, max abs err "
               f"{max(errs):.6g} (formula {shadow_radius(1.0):.7f} vs oracle "
               f"{shadow_projection_oracle(1.0):.7f} at d=1)")


def test_criterion_02_horoball_distance_oracle(rng):
    worst = 0.0
    count = 0
    while count < 100:
        n = 2 if count % 2 == 0 else 3
        p = random_lightlike(rng, n)
        q = random_lightlike(rng, n)
        if -lorentz_product(p, q) < 2.0:
            continue
        worst = max(worst, abs(horoball_distance(p, q)
                               - halfspace_distance_oracle(p, q)))
        count += 1
    _criterion(2, worst <= 1e-9,
               f"horoball distance closed form vs half-space oracle on 100 "
               f"decorated pairs, max abs err {worst:.3g}")


def test_criterion_03_thrice_punctured_sphere(report_3ps):
    dec = report_3ps.ep_decomposition
    cells_ok = (len(dec.cells) == 2
                and all(len(c.vertex_ids) == 3 for c in dec.cells))
    edges = count_face_classes(dec, 1)
    cross = report_3ps.certificates["cross_validation"].ok
    _criterion(3, cells_ok and edges == 3 and cross,
               f"thrice-punctured sphere: {len(dec.cells)} ideal-triangle "
               f"orbits, {edges} edge orbits, cut-locus agreement {cross}")


def test_criterion_04_figure_eight(report_fig8):
    angles = []
    for dec in (report_fig8.ep_decomposition, report_fig8.dual_decomposition):
        assert dec is not None
        for cell, cops in zip(dec.cells, dec.cell_points):
            angles.extend(dihedral_angles(cell, cops).values())
    counts_ok = (len(report_fig8.ep_decomposition.cells) == 2
                 and len(report_fig8.dual_decomposition.cells) == 2
                 and len(angles) == 24)
    dev = float(np.max(np.abs(np.array(angles) - np.pi / 3.0)))
    cross = report_fig8.certificates["cross_validation"].ok
    _criterion(4, counts_ok and dev <= 1e-6 and cross,
               f"figure-eight: 2+2 ideal tetrahedra, dihedral angles within "
               f"{dev:.2g} of pi/3, cross-validation {cross}")


def test_criterion_05_figure3_truncated_cells(report_fig3):
    mixed = report_fig3.mixed
    ok = bool(mixed.cells) and mixed.ok
    worst_angle = 0.0
    for mc in mixed.cells:
        ok &= mc.kind == "truncated"
        ok &= len(mc.klein_vertices) == 2          # 1-2 type: two ideal
        ok &= mc.external_face is not None         # exactly one external face
        ok &= mc.hyperideal_vertex is not None
        from hypdecomp.doubling import external_orthogonality
        worst_angle = max(worst_angle, external_orthogonality(mc))
    ok &= worst_angle <= 1e-8
    _criterion(5, ok,
               f"figure-3 surface: {len(mixed.cells)} cells, all 1-2 "
               f"truncated triangles, external/internal angle deviation "
               f"{worst_angle:.2g} rad")


def test_criterion_06_symmetry_suite(report_fig3, rng):
    spec = report_fig3.spec
    gs = _symmetrized(spec)
    hull_sym = report_fig3.certificates["hull_symmetry"].ok

    pts = orbit(gs, spec.options.word_bound, spec.options.height_bound)
    direction_ok = True
    for tau in gs.reflections:
        checked = 0
        tries = 0
        while checked < 100 and tries < 10000:
            tries += 1
            op = pts[int(rng.integers(0, len(pts)))]
            img = tau @ op.point
            if np.linalg.norm(img - op.point) < 1e-8:
                continue
            direction_ok &= symmetry_direction_check(op.point, img, tau)
            checked += 1
        direction_ok &= checked == 100

    refl_ok = all(validate_reflection(tau, gs, word_bound=4)
                  for tau in gs.reflections)
    _criterion(6, hull_sym and direction_ok and refl_ok,
               f"symmetry suite: hull symmetry {hull_sym}, parallel "
               f"direction on 100 pairs/reflection {direction_ok}, "
               f"conjugation certificates {refl_ok}")


def test_criterion_07_stability_certificates(all_reports):
    detail = []
    ok = True
    for name, report in all_reports.items():
        spec = report.spec
        faces_stable = report.certificates["ep_stability"].ok
        gs = _symmetrized(spec)
        paths_stable = _return_paths_stable(
            gs, spec.options.length_bound, spec.options.word_bound,
            spec.options.height_bound)
        ok &= faces_stable and paths_stable
        detail.append(f"{name}: faces {faces_stable}, paths {paths_stable}")
    _criterion(7, ok, "; ".join(detail))


def test_criterion_08_gamma_invariance(all_reports):
    ok = True
    detail = []
    for name, report in all_reports.items():
        spec = report.spec
        gs = _symmetrized(spec)
        opts = spec.options
        pts = OrbitSet(orbit(gs, opts.word_bound, opts.height_bound))
        cert = certified_faces(hull_faces(pts), opts.height_bound)
        coords = np.array([op.point for op in pts])
        cert_sets = [coords[list(f.vertex_ids)] for f in cert]
        unmatched = 0
        for A in cert_sets:
            for gen in gs.generators:
                img = A @ gen.T
                if np.max(img[:, 0]) > opts.height_bound / 2.0:
                    continue
                scale = max(1.0, float(np.max(np.abs(img))))
                if not any(B.shape == img.shape and set_match(img, B, 1e-6 * scale)
                           for B in cert_sets):
                    unmatched += 1
        ok &= unmatched == 0
        detail.append(f"{name}: {unmatched} unmatched")
    _criterion(8, ok, "generators map certified faces onto themselves: "
               + "; ".join(detail))


def test_criterion_09_dual_count_identity(all_reports):
    ok = True
    detail = []
    for name, report in all_reports.items():
        counts = dual_count_identity(report.cut_complex,
                                     report.dual_decomposition)
        good = all(a == b for a, b in counts.values())
        ok &= good
        detail.append(f"{name}: {counts}")
    _criterion(9, ok, "; ".join(detail))


def test_criterion_10_determinism(all_reports):
    ok = True
    detail = []
    for name, report in all_reports.items():
        fresh = run(load_spec(__import__("hypdecomp.fixtures", fromlist=["fixture_path"]).fixture_path(name)))
        identical = emit(fresh, "json") == emit(report, "json")
        ok &= identical
        detail.append(f"{name}: {'byte-identical' if identical else 'DIFFERS'}")
    _criterion(10, ok, "; ".join(detail))
