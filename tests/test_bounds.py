"""Raised bounds: verified pairing matrices and the bound sweep.

Every setting is run once per module.  A certificate must survive
larger bounds with the same cells; the settings that still fail are
strict xfails naming their cause (ROADMAP open item 1), so they turn
into failures the moment they start to pass.
"""

import json

import numpy as np
import pytest

from conftest import load_tool
from hypdecomp.fixtures import fixture_path
from hypdecomp.io_cli import load_spec, parse_spec, run
from hypdecomp.minkowski import lorentz_gram, minkowski_form

LORENTZ_DEFECT_TOL = 1e-9
GRAM_REL_TOL = 1e-6


def _run(name, **overrides):
    spec = load_spec(fixture_path(name))
    for key, value in overrides.items():
        setattr(spec.options, key, value)
    return run(spec)


@pytest.fixture(scope="module")
def knot_h12(report_fig8_h12):
    return report_fig8_h12


@pytest.fixture(scope="module")
def knot_h16():
    return _run("figure_eight_knot", height_bound=16.0)


@pytest.fixture(scope="module")
def fig3_h320():
    return _run("figure3_surface", height_bound=320.0)


@pytest.fixture(scope="module")
def fig3_wb6():
    return _run("figure3_surface", word_bound=6)


def lorentz_defect(M) -> float:
    """max |J M^T J M - I|: zero exactly for a Lorentz matrix."""
    J = minkowski_form(len(M))
    return float(np.max(np.abs(J @ M.T @ J @ M - np.eye(len(M)))))


def gram_signature(report):
    """(kind, vertex count, sorted Lorentz Gram) of each quotient cell."""
    cells = []
    for mc in report.mixed.cells:
        V = np.asarray(mc.ambient_vertices, float)
        cells.append((mc.kind, len(V), np.sort(lorentz_gram(V, V).ravel())))
    return sorted(cells, key=lambda c: (c[0], c[1], tuple(c[2])))


def same_cells(a, b) -> bool:
    if len(a) != len(b):
        return False
    for (ka, na, ga), (kb, nb, gb) in zip(a, b):
        if (ka, na) != (kb, nb) or np.max(np.abs(ga - gb)) > (
                GRAM_REL_TOL * max(1.0, float(np.max(np.abs(ga))))):
            return False
    return True


class TestPairingMatrices:
    def _check(self, report):
        for dec in (report.ep_decomposition, report.dual_decomposition):
            assert dec.pairings
            for key, pairing in dec.pairings.items():
                assert lorentz_defect(pairing.matrix) < LORENTZ_DEFECT_TOL, key

    @pytest.mark.parametrize("name", sorted([
        "thrice_punctured_sphere", "once_punctured_torus",
        "figure3_surface", "figure_eight_knot"]))
    def test_fixture_pairings_are_lorentz(self, name, all_reports):
        self._check(all_reports[name])

    def test_knot_height_16_pairings_are_lorentz(self, knot_h16):
        self._check(knot_h16)

    def test_figure3_height_320_pairings_are_lorentz(self, fig3_h320):
        self._check(fig3_h320)


class TestBoundSweep:
    def test_knot_height_16_certifies_same_cells(self, knot_h16, report_fig8):
        assert report_fig8.ok
        bad = [k for k, c in knot_h16.certificates.items() if not c.ok]
        assert not bad
        assert same_cells(gram_signature(knot_h16), gram_signature(report_fig8))

    def test_figure3_height_320_pairings_complete(self, fig3_h320):
        cert = fig3_h320.certificates["ep_pairings_complete"]
        assert cert.ok, cert.detail

    @pytest.mark.xfail(strict=True, reason="cause (d): the dual route builds "
                       "a third, singleton region at height 12")
    def test_knot_height_12_certifies(self, knot_h12, report_fig8):
        assert knot_h12.ok
        assert same_cells(gram_signature(knot_h12), gram_signature(report_fig8))

    @pytest.mark.parametrize("draw", [2, 5])
    def test_rotated_knot_height_12_certifies(self, draw, report_fig8):
        # seed-1 rotations of the knot at height 12, as the benchmark's
        # ladder reads them, certify with the shipped knot's cells; the
        # shipped coordinates still fail (cause (d), above)
        W = load_tool("output_digests").W      # bench/workloads.py
        doc = json.loads(fixture_path("figure_eight_knot").read_text())
        spec = parse_spec(W.conjugate_doc(doc, 1, draw))
        spec.options.height_bound = 12.0
        report = run(spec)
        assert report.ok, [k for k, c in report.certificates.items()
                           if not c.ok]
        assert same_cells(gram_signature(report), gram_signature(report_fig8))

    @pytest.mark.xfail(strict=True, reason="cause (d): the dual route builds "
                       "6 regions at height 320")
    def test_figure3_height_320_certifies(self, fig3_h320, report_fig3):
        assert fig3_h320.ok
        assert same_cells(gram_signature(fig3_h320), gram_signature(report_fig3))

    @pytest.mark.xfail(strict=True, reason="causes (b) and (c): near-duplicate "
                       "orbit points and holes below H/2 fail ep_stability")
    def test_figure3_word_bound_6_certifies(self, fig3_wb6, report_fig3):
        assert fig3_wb6.ok
        assert same_cells(gram_signature(fig3_wb6), gram_signature(report_fig3))
