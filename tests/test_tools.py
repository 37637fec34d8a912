"""The work-count tools and the output ledger that CI gates on."""

import json
from types import SimpleNamespace

from conftest import TOOLS, ledger, load_tool, shipped_lines
from hypdecomp import io_cli
from hypdecomp.minkowski import GeometryError

check_counts = load_tool("check_counts")
hull_counts = load_tool("hull_counts")
match_counts = load_tool("match_counts")
output_digests = load_tool("output_digests")

OLD = [{"orbit": "a", "points": 3, "bad_pairs": 0}]


def _gate(tmp_path, new, old=OLD):
    """Exit status of check_counts.py on the two record lists."""
    paths = [tmp_path / "new.json", tmp_path / "old.json"]
    for path, records in zip(paths, (new, old)):
        path.write_text(json.dumps(records))
    return check_counts.main([str(path) for path in paths])


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


def test_gate_reports_a_new_count(tmp_path, capsys):
    new = [{"orbit": "a", "points": 3, "bad_pairs": 0, "merges": 0}]
    assert check_counts.worse(new, OLD) == [("a", "merges", 0)]
    assert _gate(tmp_path, new) == 1
    assert "('a', 'merges', 0)" in capsys.readouterr().out


def test_gate_fails_on_a_missing_record(tmp_path, capsys):
    assert _gate(tmp_path, OLD) == 0
    old = OLD + [{"orbit": "b", "points": 1}]
    assert check_counts.worse(OLD, old) == []
    assert _gate(tmp_path, OLD, old) == 1
    assert "missing record: b" in capsys.readouterr().out


def test_gate_fails_on_a_rising_count(tmp_path):
    assert _gate(tmp_path, [{"orbit": "a", "points": 4, "bad_pairs": 0}]) == 1
    assert _gate(tmp_path, [{"orbit": "a", "points": 2, "bad_pairs": 0}]) == 0


def test_gate_fails_on_a_nonzero_bad_count(tmp_path):
    bad = [{"orbit": "a", "points": 3, "bad_pairs": 1}]
    assert _gate(tmp_path, bad, bad) == 1


def test_committed_match_counts_are_current():
    committed = {r["setting"]: r for r in
                 json.loads((TOOLS / "match_counts.json").read_text())}
    for name in ("once_punctured_torus", "figure_eight_knot"):
        record = match_counts.count(name, {})
        assert record == committed[record["setting"]]
        assert 0 < record["hits"] <= record["survivors"] <= record["candidates"]
        assert 0 < record["searches_made"] <= record["searches"]
        assert 0 < record["kept_points"] <= record["low_images"]


def test_committed_hull_counts_are_current():
    # CI gates the hull counts against rises only; a fall must be recorded
    records = hull_counts.records()
    assert records == json.loads((TOOLS / "hull_counts.json").read_text())
    for record in records:
        assert all(v == 0 for k, v in record.items() if k.startswith("bad_"))


def test_output_digests_cover_every_benchmark_input():
    W = output_digests.W
    names = [name for name, _, _ in output_digests.inputs()]
    specs = sum(len(specs) for specs in W.WORKLOADS.values())
    assert len(names) == len(set(names)) == (
        specs * sum(W.input_count(seed) for seed in output_digests.SEEDS)
        + len(output_digests.EXTRAS))
    assert "ladder seed=12 draw=5 figure_eight_knot --height-bound 12" in names
    assert list(ledger()) == names


def test_committed_ledger_holds_every_unrotated_run():
    # the shipped coordinates: every seed-0 spec, knot H = 16 and
    # figure3 H = 320; CI reruns the rotated lines
    W = output_digests.W
    shipped = [(name, path, overrides)
               for name, path, overrides in output_digests.inputs()
               if path.parent == W.FIXTURES]
    assert len(shipped) == (sum(map(len, W.WORKLOADS.values()))
                            + len(output_digests.EXTRAS))
    for name, path, overrides in shipped:
        assert output_digests.digest(io_cli, name, path,
                                     overrides) == ledger()[name]


def test_output_digest_is_the_golden_hash_or_the_raised_error():
    # the ledger's seed-0 lines agree with bench/golden.json: the same
    # verdicts, and the same bytes where the golden spec certifies
    W = output_digests.W
    golden = W.load_golden()["specs"]
    seed0 = shipped_lines()
    assert seed0.keys() == golden.keys()
    for label, spec in golden.items():
        assert seed0[label]["verdicts"] == spec["verdicts"], label
        assert seed0[label]["ok"] == spec["certifies"], label
        if spec["certifies"]:
            assert seed0[label]["sha256"] == spec["sha256"], label

    path = W.FIXTURES / "figure3_surface.json"

    def fails(spec):
        raise GeometryError("no orbit")

    broken = SimpleNamespace(load_spec=io_cli.load_spec, run=fails)
    assert output_digests.digest(broken, "x", path, {}) == {
        "input": "x", "raised": "GeometryError: no orbit"}
