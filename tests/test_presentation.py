"""Presentation invariance: a Nielsen rewrite of the generators, or
another lift gamma.c of a cusp vector c, changes the input, not the
manifold, so a run must not raise on it, and when it certifies its
cells must be those of the unrewritten input.

Each fixture runs at its shipped bounds under four rewrites of its
first two generators a, b (any further generators follow unchanged),
and with every cusp vector c replaced by gamma.c for gamma in a, a^-1
and b.  The inputs that do not certify today are strict xfails naming
their failing certificates and cause (ROADMAP open item 20).
"""

import functools
import json

import numpy as np
import pytest

from hypdecomp.fixtures import NAMES, fixture_path
from hypdecomp.group import GroupSpec, lorentz_inverse
from hypdecomp.io_cli import load_spec, main, run
from test_bounds import gram_signature, same_cells

REWRITES = {
    "(a, ab)": lambda a, b: [a, a @ b],
    "(bab^-1, b)": lambda a, b: [b @ a @ lorentz_inverse(b), b],
    "(b^-1, a)": lambda a, b: [lorentz_inverse(b), a],
    "(a, b, ab)": lambda a, b: [a, b, a @ b],
}
CASES = [(name, rewrite) for name in NAMES for rewrite in REWRITES]

WINDOW = ("the word-bound window depends on the presentation and leaves "
          "facets unpaired (ROADMAP items 4 and 15)")
NOT_CERTIFIED = {
    ("figure_eight_knot", "(a, ab)"): WINDOW,
    ("figure_eight_knot", "(bab^-1, b)"): WINDOW,
    ("figure3_surface", "(bab^-1, b)"): (
        "cause 1(b): one horoball reached by two words is kept twice, and "
        "the pair fails decoration_symmetry (ROADMAP item 10); "
        "reflection_conjugation fails too, at its fixed word bound 4 "
        "(ROADMAP items 3 and 4)"),
}
# validate_reflection looks each tau^-1 gamma tau up in the word ball of
# the fixed bound 4, and in the rewritten letters it is a longer word
CONJUGATION_BOUND = (
    "the conjugates of the rewritten generators are not words of length "
    "<= 4, and reflection 1 is not certified at word bound 6 either, so a "
    "larger bound is no fix; a matrix lookup against the orbit or the "
    "pairings (ROADMAP items 3 and 4) would not depend on the presentation")


# every cusp vector c becomes gamma.c for one of the first two
# generators a, b or an inverse
CUSP_REWRITES = {
    "a": lambda a, b: a,
    "a^-1": lambda a, b: lorentz_inverse(a),
    "b": lambda a, b: b,
}
CUSP_CASES = [(name, gamma) for name in NAMES for gamma in CUSP_REWRITES]

HIGH_BASE = ("the cut-locus route builds its complex around the given "
             "representative as base horoball, and its verdict depends on "
             "which lift of the cusp that is (ROADMAP item 20)")
# the failing certificates of each cusp rewrite that does not certify,
# and their cause
CUSP_NOT_CERTIFIED = {
    ("once_punctured_torus", "a"): (["dual_count_identity"], HIGH_BASE),
    ("once_punctured_torus", "a^-1"): (["dual_count_identity"], HIGH_BASE),
    ("once_punctured_torus", "b"): (["dual_count_identity"], HIGH_BASE),
    ("figure3_surface", "a"): (["cross_validation", "dual_count_identity"],
                               HIGH_BASE),
    ("figure3_surface", "a^-1"): (["cross_validation",
                                   "dual_count_identity"], HIGH_BASE),
    ("figure3_surface", "b"): (
        ["decoration_symmetry"],
        "the margin's scale e is refused because it lifts the given "
        "representative of cusp 1 from height 69.4 to 188.8, above "
        "H = 160; it lifts the lowest lift to 2.7 (ROADMAP item 20)"),
}


def rewritten_generators(name, rewrite):
    a, b, *rest = load_spec(fixture_path(name)).group.generators
    return REWRITES[rewrite](a, b) + rest


@functools.cache
def rewritten_run(name, rewrite):
    spec = load_spec(fixture_path(name))
    g = spec.group
    spec.group = GroupSpec(g.dimension, rewritten_generators(name, rewrite),
                           g.reflections, g.cusp_reps, g.name)
    return run(spec)


@functools.cache
def cusp_rewritten_run(name, gamma):
    spec = load_spec(fixture_path(name))
    g = spec.group
    m = CUSP_REWRITES[gamma](*g.generators[:2])
    spec.group = GroupSpec(g.dimension, g.generators, g.reflections,
                           [m @ c for c in g.cusp_reps], g.name)
    return run(spec)


def _failing(report):
    return sorted(k for k, c in report.certificates.items() if not c.ok)


@pytest.mark.parametrize("name,rewrite", CASES)
def test_rewrite_runs_to_a_verdict(name, rewrite, all_reports):
    report = rewritten_run(name, rewrite)
    if report.ok:
        assert same_cells(gram_signature(report),
                          gram_signature(all_reports[name]))


@pytest.mark.parametrize("name,rewrite", [
    pytest.param(*case, marks=pytest.mark.xfail(
        strict=True, reason=NOT_CERTIFIED[case]))
    if case in NOT_CERTIFIED else case for case in CASES])
def test_rewrite_certifies_the_same_cells(name, rewrite, all_reports):
    report = rewritten_run(name, rewrite)
    assert report.ok, _failing(report)
    assert same_cells(gram_signature(report),
                      gram_signature(all_reports[name]))


@pytest.mark.parametrize("name,gamma", CUSP_CASES)
def test_cusp_rewrite_runs_to_a_verdict(name, gamma, all_reports):
    report = cusp_rewritten_run(name, gamma)
    if report.ok:
        assert same_cells(gram_signature(report),
                          gram_signature(all_reports[name]))


@pytest.mark.parametrize("name,gamma", [
    pytest.param(*case, marks=pytest.mark.xfail(
        strict=True, reason=f"fails {', '.join(CUSP_NOT_CERTIFIED[case][0])}: "
                            f"{CUSP_NOT_CERTIFIED[case][1]}"))
    if case in CUSP_NOT_CERTIFIED else case for case in CUSP_CASES])
def test_cusp_rewrite_certifies_the_same_cells(name, gamma, all_reports):
    report = cusp_rewritten_run(name, gamma)
    assert report.ok, _failing(report)
    assert same_cells(gram_signature(report),
                      gram_signature(all_reports[name]))


@pytest.mark.parametrize("name,gamma", sorted(CUSP_NOT_CERTIFIED))
def test_cusp_rewrite_fails_only_the_named_certificates(name, gamma):
    assert (_failing(cusp_rewritten_run(name, gamma))
            == CUSP_NOT_CERTIFIED[name, gamma][0])


@pytest.mark.xfail(strict=True, reason=CONJUGATION_BOUND)
def test_rewrite_certifies_reflection_conjugation():
    cert = rewritten_run("figure3_surface",
                         "(bab^-1, b)").certificates["reflection_conjugation"]
    assert cert.ok, cert.detail


def test_duplicate_horoball_fails_decoration_symmetry(tmp_path, capsys):
    # under (bab^-1, b, ...) two orbit points of figure3 lie 4e-10 apart
    # in ray, above the merge angle, with a positive Lorentz product: the
    # symmetrizing overlap scan fails a certificate instead of raising
    report = rewritten_run("figure3_surface", "(bab^-1, b)")
    cert = report.certificates["decoration_symmetry"]
    assert not cert.ok and ">= 0 have no distance" in cert.detail
    doc = json.loads(fixture_path("figure3_surface").read_text())
    doc["generators"] = [np.asarray(m).tolist() for m in
                         rewritten_generators("figure3_surface",
                                              "(bab^-1, b)")]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    assert main(["--input", str(path)]) == 2
    out, err = capsys.readouterr()
    assert "[FAIL] decoration_symmetry" in out and not err
