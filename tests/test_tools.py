"""The work-count tools that CI gates on."""

import json

from conftest import TOOLS, load_tool

check_counts = load_tool("check_counts")
match_counts = load_tool("match_counts")


def test_gate_flags_growth_new_records_and_bad_counts():
    old = [{"orbit": "a", "points": 3, "bad_pairs": 0}]
    assert check_counts.worse(old, old) == []
    assert check_counts.worse([{"orbit": "a", "points": 2, "bad_pairs": 0}],
                              old) == []
    assert check_counts.worse([{"orbit": "a", "points": 4, "bad_pairs": 0}],
                              old) == [("a", "points", 4)]
    bad = [{"orbit": "a", "points": 3, "bad_pairs": 1}]
    assert check_counts.worse(bad, bad) == [("a", "bad_pairs", 1)]
    assert check_counts.worse([{"orbit": "b", "points": 1}], old) == [
        ("b", "points", 1)]


def test_committed_match_counts_are_current():
    committed = {r["setting"]: r for r in
                 json.loads((TOOLS / "match_counts.json").read_text())}
    for name in ("once_punctured_torus", "figure_eight_knot"):
        record = match_counts.count(name, {})
        assert record == committed[record["setting"]]
        assert 0 < record["hits"] <= record["survivors"] <= record["candidates"]
        assert 0 < record["kept_points"] <= record["low_images"]
