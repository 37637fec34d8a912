import hashlib
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from conftest import load_tool, shipped_lines
from hypdecomp.fixtures import NAMES, fixture_path
from hypdecomp.io_cli import (SpecError, emit, load_spec, main, parse_spec,
                              run)


class TestLoadSpec:
    def test_all_fixtures_parse(self):
        for name in NAMES:
            spec = load_spec(fixture_path(name))
            assert spec.group.dimension in (2, 3)
            assert spec.options.algorithm == "both"

    def test_thrice_punctured_is_n2(self, spec_3ps):
        assert spec_3ps.group.dimension == 2
        assert len(spec_3ps.group.cusp_reps) == 3

    def test_unsupported_dimension(self, tmp_path):
        doc = {"dimension": 5, "generators": [], "cusps": []}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SpecError, match="unsupported dimension"):
            load_spec(path)

    def test_non_involutive_reflection_named(self):
        doc = {
            "dimension": 2,
            "generators": [],
            "reflections": [np.diag([1.0, 2.0, 0.5]).tolist()],
            "cusps": [[1.0, 0.0, 1.0]],
        }
        with pytest.raises(SpecError, match="reflection 0"):
            parse_spec(doc)

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"dimension": 2,\n  "generators": [}\n}')
        with pytest.raises(SpecError, match="line 2"):
            load_spec(path)

    def test_non_utf8_rejected(self, tmp_path):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe" + '{"dimension": 2}'.encode("utf-16-le"))
        with pytest.raises(SpecError, match="UTF-8"):
            load_spec(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SpecError, match="cannot read"):
            load_spec(tmp_path / "nope.json")

    def test_unknown_option_rejected(self):
        doc = {"dimension": 2, "generators": [], "cusps": [[1.0, 0.0, 1.0]],
               "options": {"wordbound": 3}}
        with pytest.raises(SpecError, match="unknown option"):
            parse_spec(doc)

    def test_decoration_scales_applied(self):
        doc = {"dimension": 2, "generators": [], "cusps": [[1.0, 0.0, 1.0]],
               "decoration_scales": [2.5]}
        spec = parse_spec(doc)
        assert np.allclose(spec.group.cusp_reps[0], [2.5, 0.0, 2.5])

    def test_fixtures_match_their_generator(self):
        # the shipped files are byte for byte what tools/gen_fixtures.py
        # writes from its classical matrix presentations
        gen = load_tool("gen_fixtures")
        builders = [gen.thrice_punctured_sphere, gen.once_punctured_torus,
                    gen.figure3_surface, gen.figure_eight_knot]
        assert [b.__name__ for b in builders] == NAMES
        for build in builders:
            text = json.dumps(build(), indent=1) + "\n"
            assert text.encode() == fixture_path(build.__name__).read_bytes(), \
                build.__name__


class TestRun:
    def test_figure3_end_to_end(self, report_fig3):
        assert report_fig3.ok
        kinds = [mc.kind for mc in report_fig3.mixed.cells]
        assert kinds == ["truncated", "truncated"]

    def test_both_algorithms_cross_validated(self, all_reports):
        for name, report in all_reports.items():
            assert report.certificates["cross_validation"].ok, name

    def test_word_bound_zero_reports_failure(self, spec_3ps):
        from dataclasses import replace
        opts = replace(spec_3ps.options, word_bound=0, algorithm="ep")
        from hypdecomp.io_cli import ManifoldSpec
        spec = ManifoldSpec(name=spec_3ps.name, group=spec_3ps.group,
                            options=opts)
        report = run(spec)
        assert not report.certificates["ep_stability"].ok
        assert not report.ok

    def test_report_embeds_bounds(self, report_3ps):
        doc = json.loads(emit(report_3ps, "json"))
        assert doc["options"]["word_bound"] == 6
        assert doc["options"]["height_bound"] == 20.0
        assert "tolerances" in doc and doc["tolerances"]["pair_match"] == 1e-6

    def test_report_declares_run_tolerance(self, spec_torus):
        from dataclasses import replace
        spec = replace(spec_torus, options=replace(spec_torus.options, tol=1e-5))
        doc = json.loads(emit(run(spec), "json"))
        assert doc["options"]["tol"] == 1e-5
        assert doc["tolerances"]["cross_validation"] == 1e-5


class TestEmit:
    def test_json_round_trip(self, report_fig3):
        blob = emit(report_fig3, "json")
        doc = json.loads(blob)
        assert doc["schema"] == 1
        assert len(doc["cells"]) == 2
        for cell in doc["cells"]:
            assert cell["kind"] == "truncated"
            assert len(cell["ideal_vertices"]) == 2
            assert cell["external_face"] is not None
        # re-serializing the parsed document is stable
        blob2 = emit(report_fig3, "json")
        assert blob == blob2

    def test_json_deterministic_across_runs(self, spec_torus, report_torus):
        fresh = run(load_and_copy(spec_torus))
        assert emit(fresh, "json") == emit(report_torus, "json")

    def test_empty_decomposition_valid_json(self):
        doc_in = {"name": "empty", "dimension": 2, "generators": [],
                  "cusps": [[1.0, 0.0, 1.0]],
                  "options": {"algorithm": "ep", "word_bound": 1}}
        report = run(parse_spec(doc_in))
        doc = json.loads(emit(report, "json"))
        assert doc["cells"] == [] and doc["pairings"] == []

    def test_svg_structure(self, report_fig3):
        svg = emit(report_fig3, "svg").decode()
        n_lines = svg.count("<line")
        # unique internal + external segments plus wall chords
        mixed = report_fig3.mixed
        segs = set()
        for mc in mixed.cells:
            for facet in mc.internal_facets:
                if len(facet) == 2:
                    key = tuple(sorted(tuple(np.round(p[1:] / p[0], 9))
                                       for p in facet))
                    segs.add(key)
            if mc.kind == "truncated":
                key = tuple(sorted(tuple(np.round(p[1:] / p[0], 9))
                                   for p in mc.external_face))
                segs.add(key)
        n_walls = svg.count('class="wall"')
        assert n_lines == len(segs) + n_walls

    def test_svg_rejected_for_n3(self, report_fig8):
        with pytest.raises(SpecError):
            emit(report_fig8, "svg")


def load_and_copy(spec):
    from hypdecomp.io_cli import load_spec
    from hypdecomp.fixtures import fixture_path
    return load_spec(fixture_path(spec.name))


def _sha256(report):
    return hashlib.sha256(emit(report, "json")).hexdigest()


# the committed output ledger holds the SHA-256 of each shipped input's
# canonical JSON; a refactor must leave every byte of it unchanged
class TestGoldenJson:
    @pytest.mark.parametrize("name", sorted(NAMES))
    def test_fixture_json_unchanged(self, name, all_reports):
        assert _sha256(all_reports[name]) == shipped_lines()[name]["sha256"]

    def test_exact_figure_eight_json_unchanged(self, spec_fig8):
        spec = load_and_copy(spec_fig8)
        spec.options.exact = True
        exact = shipped_lines()["figure_eight_knot --exact"]
        assert _sha256(run(spec)) == exact["sha256"]


# SHA-256 of the single-route JSON reports and of the n = 2 SVGs, at the
# shipped bounds; the quotient and the SVG drawing both reach them.
ROUTE_SHA256 = {
    ("thrice_punctured_sphere", "ep"):
        "8823d068767bdb8ac1e1d4820646c013bb9a6360a2290a13ef872431616908c1",
    ("thrice_punctured_sphere", "cutlocus"):
        "84c17dfc5069f55055ac1caca865d84b6fdfca4c3f0d15d488d56bc718c01ca4",
    ("once_punctured_torus", "ep"):
        "04e3c09e8bc531eba4e08394596d399eeb53c6227a7ad2bda506a59ff19e12cc",
    ("once_punctured_torus", "cutlocus"):
        "fd2391c668f2d2e51db99e69dfd9c3e63ee06f01c43be57ea487f1a992732371",
    ("figure3_surface", "ep"):
        "a162b74f17a69c8282d12f1e7f209a6231a1ee07e224a0dd16550dfd2a2e70db",
    ("figure3_surface", "cutlocus"):
        "0b31e3b5f0e868f9a3597f0a1ad7bac18bb99d7b48ad8bb3e785aa011003ff1b",
    ("figure_eight_knot", "ep"):
        "52329165bdce74891e68d47fd173bb3f358c1ffbcfd0caf3408098cf218f737b",
    ("figure_eight_knot", "cutlocus"):
        "765afb3c257b7e09fd5fb46ab09bac7325f32ca6de5e0a5e27764ec365fc479b",
}
SVG_SHA256 = {
    "thrice_punctured_sphere":
        "31fde5c90f2ca13a0761984c03dc86569292719d995bcc793dbbcc2f7474e79e",
    "once_punctured_torus":
        "31fde5c90f2ca13a0761984c03dc86569292719d995bcc793dbbcc2f7474e79e",
    "figure3_surface":
        "eefc3c36a33aa2526117fd4ce945529a1ba6169a765907bfd738297276108c21",
}


class TestGoldenRoutes:
    @pytest.mark.parametrize("name, algorithm", sorted(ROUTE_SHA256))
    def test_single_route_json_unchanged(self, name, algorithm):
        spec = load_spec(fixture_path(name))
        spec.options.algorithm = algorithm
        assert _sha256(run(spec)) == ROUTE_SHA256[name, algorithm]

    @pytest.mark.parametrize("name", sorted(SVG_SHA256))
    def test_svg_unchanged(self, name, all_reports):
        svg = emit(all_reports[name], "svg")
        assert hashlib.sha256(svg).hexdigest() == SVG_SHA256[name]


def _no_constant(name):
    raise ValueError(f"non-JSON constant {name}")


@pytest.mark.parametrize("name", sorted(NAMES))
def test_fixture_json_is_strict_json(name, all_reports):
    doc = json.loads(emit(all_reports[name], "json"),
                     parse_constant=_no_constant)
    assert doc["options"]["tol"] == all_reports[name].spec.options.tol


class TestCli:
    def test_input_error_exit_3(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert main(["--input", str(missing)]) == 3
        assert "input error" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["--word-bound", "-1"], ["--height-bound", "0"],
        ["--length-bound", "-2"], ["--tol", "0"]])
    def test_invalid_bound_exit_3(self, args, capsys):
        code = main(["--input", str(fixture_path("once_punctured_torus"))]
                    + args)
        assert code == 3
        assert "input error:" in capsys.readouterr().err

    # a non-finite bound, tolerance or margin would certify vacuously
    # (or be ignored) and leave a bare inf/nan in the JSON report
    @pytest.mark.parametrize("args", [
        ["--tol", "inf"], ["--height-bound", "inf"],
        ["--length-bound", "inf"], ["--margin", "nan"], ["--margin", "inf"],
        ["--margin=-inf"], ["--height-bound", "nan"], ["--tol", "nan"]])
    def test_non_finite_option_exit_3(self, args, capsys):
        code = main(["--input", str(fixture_path("once_punctured_torus"))]
                    + args)
        assert code == 3
        assert "input error:" in capsys.readouterr().err

    @pytest.mark.parametrize("options", [
        {"word_bound": "5"}, {"word_bound": 2.5}, {"word_bound": True},
        {"tol": "x"}, {"height_bound": -1.0}, {"exact": "yes"},
        {"length_bound": float("inf")}, {"margin": float("nan")},
        {"height_bound": 10 ** 400},
        # instance attributes that are not options
        {"__class__": 1}, {"__dict__": {}}, {"__init__": 1}, {"__doc__": "x"}])
    def test_invalid_option_block_exit_3(self, options, tmp_path, capsys):
        doc = json.loads(fixture_path("once_punctured_torus").read_text())
        doc["options"].update(options)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        assert main(["--input", str(path)]) == 3
        assert "input error:" in capsys.readouterr().err

    # malformed numeric arrays, a float dimension and a wrongly typed
    # options or reflections block used to escape as a traceback (exit 1)
    @pytest.mark.parametrize("edit", [
        {"decoration_scales": ["a"]}, {"cusps": [["a", 1, 0]]},
        {"generators": [[["x"]]]}, {"generators": [[[1, 0, 0], [0, 1]]]},
        {"options": []}, {"reflections": None},
        {"cusps": [[10 ** 400, 1, 0]]}, {"dimension": 2.0},
        # an object where a list belongs would be iterated by its keys
        {"generators": {}}, {"cusps": {}}, {"decoration_scales": {}},
        {"name": ["x"]}])
    def test_malformed_spec_exit_3(self, edit, tmp_path, capsys):
        doc = json.loads(fixture_path("once_punctured_torus").read_text())
        doc.update(edit)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        assert main(["--input", str(path)]) == 3
        assert "input error:" in capsys.readouterr().err

    # a top-level string holds the required field names as substrings
    @pytest.mark.parametrize("doc", [
        "dimension generators cusps", ["dimension", "generators", "cusps"]])
    def test_non_object_spec_exit_3(self, doc, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        assert main(["--input", str(path)]) == 3
        assert "input error:" in capsys.readouterr().err

    def test_svg_for_n3_exit_3(self, tmp_path):
        code = main(["--input", str(fixture_path("figure_eight_knot")),
                     "--svg", str(tmp_path / "out.svg")])
        assert code == 3

    def test_certificate_failure_exit_2(self, tmp_path, capsys):
        code = main(["--input", str(fixture_path("thrice_punctured_sphere")),
                     "--algorithm", "ep", "--word-bound", "0"])
        assert code == 2
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("name", NAMES)
    def test_empty_orbit_fails_certificates(self, name, capsys):
        # no decorated point lies under the height bound: both routes
        # fail their certificates instead of raising; the torus's cusp
        # lies at 0.5 until disjointness scales it to 1, above the bound,
        # which the symmetrization refuses
        code = main(["--input", str(fixture_path(name)),
                     "--height-bound", "0.5"])
        assert code == 2
        out = capsys.readouterr().out
        if name == "once_punctured_torus":
            assert ("[FAIL] decoration_symmetry  (margin 1 lifts cusp 0 to "
                    "height 1, above the height bound 0.5)") in out
        else:
            assert "[FAIL] ep_stability" in out
            assert "[FAIL] cutlocus_stability" in out

    @pytest.mark.parametrize("name", NAMES)
    def test_wide_margin_runs_to_a_verdict(self, name, capsys):
        # a margin of 100 from the walls would scale figure3's decorations
        # above the height bound, where no orbit holds them, so the
        # symmetrization refuses it; fixtures without walls are unaffected
        code = main(["--input", str(fixture_path(name)), "--margin", "100"])
        out = capsys.readouterr().out
        if name == "figure3_surface":
            assert code == 2
            assert "[FAIL] decoration_symmetry  (margin 100 lifts" in out
        else:
            assert code == 0

    def test_full_run_exit_0(self, tmp_path, capsys):
        out_json = tmp_path / "out.json"
        out_svg = tmp_path / "out.svg"
        code = main(["--input", str(fixture_path("thrice_punctured_sphere")),
                     "--json", str(out_json), "--svg", str(out_svg)])
        assert code == 0
        assert out_json.exists() and out_svg.exists()
        doc = json.loads(out_json.read_text())
        assert len(doc["cells"]) == 2

    def test_module_entry_point_writes_the_ledger_report(self, tmp_path):
        out_json = tmp_path / "out.json"
        out_svg = tmp_path / "out.svg"
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        subprocess.run([sys.executable, "-m", "hypdecomp",
                        "--input", str(fixture_path("figure3_surface")),
                        "--json", str(out_json), "--svg", str(out_svg)],
                       env=env, check=True, capture_output=True)
        assert out_svg.exists()
        assert (hashlib.sha256(out_json.read_bytes()).hexdigest()
                == shipped_lines()["figure3_surface"]["sha256"])

    @pytest.mark.parametrize("name", NAMES)
    def test_exact_predicates_same_cells(self, name, tmp_path, all_reports):
        # --exact is accepted and echoed, and every hull test is exact anyway
        out_json = tmp_path / "exact.json"
        code = main(["--input", str(fixture_path(name)), "--exact",
                     "--json", str(out_json)])
        assert code == 0
        doc = json.loads(out_json.read_text())
        ref = json.loads(emit(all_reports[name], "json"))
        assert doc["options"]["exact"] and not ref["options"]["exact"]
        for key in ("certificates", "cells", "pairings"):
            assert doc[key] == ref[key]
