"""Command-line interface: exit codes, JSON output, parameter parsing."""
import json

import pytest

from chered.cli import main


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_group_info(capsys):
    code, out, _ = run(capsys, "group", "b2", "info", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 8
    assert data["parameters"] == {"C": ["A", "B"],
                                  "K": ["Ks0", "Ks1", "Kt0", "Kt1"]}
    assert {c["name"]: c["degree"] for c in data["characters"]} == {
        "1": 1, "eps_s": 1, "eps_t": 1, "eps": 1, "chi": 2}


def test_verify_center_and_relations(capsys):
    code, out, _ = run(capsys, "verify", "center", "--group", "cyclic:3")
    assert code == 0 and "status: True" in out
    code, out, _ = run(capsys, "verify", "relations", "--group", "b2",
                       "--json")
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 9 and all(r["status"] for r in reports)


def test_verify_minpoly(capsys):
    code, out, _ = run(capsys, "verify", "minpoly", "--group", "b2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["block_congruence"] is True
    assert "t^8" in data["minimal_polynomial"]


def test_families_b2_inline_params(capsys):
    code, out, _ = run(capsys, "families", "--group", "b2",
                       "--params", "a=1,b=1", "--json")
    assert code == 0
    data = json.loads(out)
    fams = sorted(sorted(f) for f in data["families"])
    assert fams == [["1"], ["chi", "eps_s", "eps_t"], ["eps"]]


def test_cells_cyclic_k_zero(capsys):
    code, out, _ = run(capsys, "cells", "--group", "cyclic:4",
                       "--params", "K=0,0,0,0", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["cells"]["two_sided"] == [["1", "s", "s^2", "s^3"]]
    assert data["sum_rules"]["all"] is True


def test_cells_b2_sum_rules(capsys):
    code, out, _ = run(capsys, "cells", "--group", "b2",
                       "--params", "a=2,b=1", "--json")
    assert code == 0
    data = json.loads(out)
    assert len(data["cells"]["two_sided"]) == 5
    assert data["sum_rules"]["all"] is True


def test_usage_errors_exit_2(capsys):
    code, _, err = run(capsys, "families", "--group", "b2",
                       "--params", "q=3")
    assert code == 2 and "unknown parameter" in err
    code, _, err = run(capsys, "verify", "relations", "--group", "cyclic:3")
    assert code == 2
    code, _, err = run(capsys, "geometry", "rank1", "--d", "2",
                       "--point", "0,0,1,1,3")
    assert code == 2 and "does not lie" in err


@pytest.mark.parametrize("argv", [
    ("group", "cyclic:abc", "info"),
    ("group", "a3", "info"),
    ("families", "--group", "b2", "--params", "a=x,b=1"),
    ("hilbert", "--group", "b2", "--order", "-3"),
    ("hilbert", "--group", "b2", "--order", "0"),
    ("verify", "center", "--group", "cyclic:9"),
    ("geometry", "rank1", "--d", "-1", "--point", "1,2"),
], ids=["bad-cyclic-order", "unknown-group", "bad-rational",
        "negative-order", "zero-order", "rank1-out-of-range",
        "geometry-bad-degree"])
def test_usage_error_exit_code(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and err.startswith("error: ") and not out


@pytest.mark.parametrize("value", ["abc", "0"])
def test_bad_order_variable_exit_2(capsys, monkeypatch, value):
    monkeypatch.setenv("CHERED_ORDER", value)
    code, _, err = run(capsys, "hilbert", "--group", "b2")
    assert code == 2 and "CHERED_ORDER" in err


def test_rank1_range_error_names_missing_piece(capsys):
    code, _, err = run(capsys, "verify", "center", "--group", "cyclic:7")
    assert code == 2 and "2 <= d <= 6" in err and "ROADMAP item 2" in err


def test_json_output_deterministic(capsys):
    argv = ("omega-table", "--group", "b2", "--json")
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2


def test_param_file(tmp_path, capsys):
    f = tmp_path / "params.txt"
    f.write_text("# equal parameters\na=1\nb=1\n")
    code, out, _ = run(capsys, "families", "--group", "b2",
                       "--params", str(f), "--json")
    assert code == 0
    data = json.loads(out)
    assert sorted(sorted(x) for x in data["families"]) == [
        ["1"], ["chi", "eps_s", "eps_t"], ["eps"]]


def test_geometry_rank1(capsys):
    code, out, _ = run(capsys, "geometry", "rank1", "--d", "2",
                       "--point", "0,0,0,0,0", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["singular"]["singular"] is True
    assert data["ramified"]["ramified"] is True


def test_poisson_euler_eigenvector(capsys):
    code, out, _ = run(capsys, "poisson", "--group", "b2",
                       "--lhs", "eu", "--rhs", "eu'", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["rhs_z_degree"] == 2
    assert data["euler_eigenvector"] is True


def test_hilbert_check(capsys):
    code, out, _ = run(capsys, "hilbert", "--group", "b2", "--order", "6",
                       "--check", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["molien_equals_fake_degree_series"] is True
    assert data["center_matches_basis"] is True


def test_fake_degrees(capsys):
    code, out, _ = run(capsys, "fake-degrees", "--group", "cyclic:3",
                       "--json")
    assert code == 0
    rows = json.loads(out)
    assert [r["b_invariant"] for r in rows] == [0, 1, 2]


def test_galois_cli(capsys):
    code, out, _ = run(capsys, "galois", "b2-certificate", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True and data["group"] == "W4'"
