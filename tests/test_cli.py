"""Command-line interface: exit codes, JSON output, parameter parsing."""
import argparse
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from chered import cli
from chered.cherednik import PBWElement
from chered.cli import UsageError, main
from chered.reflgrp import build_group
from oracles import replace_fields

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).parent.parent / "src"


def run(capsys, *argv):
    """Exit code, stdout and stderr of one command line; argparse's own
    errors raise SystemExit, every other outcome is main's return value."""
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
    # b2 checks the centrality of its four generators
    code, out, _ = run(capsys, "verify", "center", "--group", "b2", "--json")
    assert code == 0
    reports = json.loads(out)
    assert [r["relation"] for r in reports] == [
        "central(eu)", "central(eu')", "central(eu'')", "central(delta)"]
    assert all(r["status"] is True for r in reports)
    code, out, _ = run(capsys, "verify", "relations", "--group", "b2",
                       "--json")
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 9 and all(r["status"] for r in reports)


@pytest.mark.parametrize("d", range(2, 11))
def test_rank1_tables_and_cells_on_the_tested_range(capsys, d):
    """omega-table, families and cells on cyclic:2..10, at a point whose
    last two K-values agree and the others differ: one family of two
    characters and d - 2 singletons."""
    group = f"cyclic:{d}"
    code, out, _ = run(capsys, "omega-table", "--group", group, "--json")
    assert code == 0
    table = json.loads(out)
    assert len(table) == d
    assert all(row["X"] == row["Y"] == "0" for row in table.values())
    ks = list(range(2, 2 * d - 2, 2))
    params = "K=" + ",".join(map(str, ks + [-sum(ks) // 2] * 2))
    code, out, _ = run(capsys, "families", "--group", group,
                       "--params", params, "--json")
    assert code == 0
    families = json.loads(out)["families"]
    assert sorted(map(len, families)) == [1] * (d - 2) + [2]
    code, out, _ = run(capsys, "cells", "--group", group,
                       "--params", params, "--json")
    assert code == 0
    data = json.loads(out)
    assert data["families"] == families and data["sum_rules"]["all"]


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


@pytest.mark.parametrize("group, params, golden", [
    ("b2", "a=1,b=1", "cells_b2_a1_b1.txt"),
    ("b2", "a=1,b=-1", "cells_b2_a1_bm1.txt"),
    ("cyclic:3", "K=-2,1,1", "cells_cyclic3_Km2_1_1.txt"),
])
def test_cells_text_output_is_pinned(capsys, group, params, golden):
    """The text output of `cells`, including the term order of each
    cellular character, byte for byte."""
    code, out, err = run(capsys, "cells", "--group", group, "--params", params)
    assert (code, err) == (0, "")
    assert out == (GOLDEN / golden).read_text()


def test_galois_certificate_text_output_is_pinned(capsys):
    """The text output of `galois b2-certificate`, byte for byte."""
    code, out, err = run(capsys, "galois", "b2-certificate")
    assert (code, err) == (0, "")
    assert out == (GOLDEN / "galois_b2_certificate.txt").read_text()


@pytest.mark.parametrize("group, order, golden", [
    ("b2", "6", "hilbert_b2_order6.txt"),
    ("cyclic:5", "12", "hilbert_cyclic5_order12.txt"),
])
def test_hilbert_check_text_output_is_pinned(capsys, group, order, golden):
    """The text output of `hilbert --check`, byte for byte."""
    code, out, err = run(capsys, "hilbert", "--group", group, "--order",
                         order, "--check")
    assert (code, err) == (0, "")
    assert out == (GOLDEN / golden).read_text()


@pytest.mark.parametrize("command, golden", [
    ("verify minpoly --group b2", "verify_minpoly_b2.txt"),
    ("verify minpoly --group cyclic:5", "verify_minpoly_cyclic5.txt"),
    ("verify relations --group b2 --json", "verify_relations_b2.json"),
    ("verify center --group cyclic:5 --json", "verify_center_cyclic5.json"),
    ("group b2 info --json", "group_info_b2.json"),
    ("group cyclic:5 info --json", "group_info_cyclic5.json"),
    ("fake-degrees --group b2 --json", "fake_degrees_b2.json"),
    ("fake-degrees --group cyclic:5 --json", "fake_degrees_cyclic5.json"),
    ("omega-table --group b2 --json", "omega_table_b2.json"),
    ("omega-table --group cyclic:5 --json", "omega_table_cyclic5.json"),
])
def test_verify_output_is_pinned(capsys, command, golden):
    """The output of `verify minpoly`, `verify relations` and `verify
    center`, byte for byte: the minimal polynomial's term order and the
    relation names; and of `group info`, `fake-degrees` and `omega-table`,
    which read the character table and the realizations of the
    characters."""
    code, out, err = run(capsys, *command.split())
    assert (code, err) == (0, "")
    assert out == (GOLDEN / golden).read_text()


def parser_tree(parser, path="chered"):
    """Every parser under `parser`, keyed by its command path: its prog,
    description and handler's name, and each action's class, option
    strings, dest, required, default, type name, choices, help, nargs and
    const.  A subcommand's choices are its (name, help) pairs."""
    func = parser.get_default("func")
    entry = {"prog": parser.prog, "description": parser.description,
             "handler": func and func.__name__, "actions": []}
    tree = {path: entry}
    for action in parser._actions:
        choices = action.choices
        if isinstance(action, argparse._SubParsersAction):
            choices = [[c.dest, c.help] for c in action._choices_actions]
            for name, child in action.choices.items():
                tree.update(parser_tree(child, f"{path} {name}"))
        elif choices is not None:
            choices = list(choices)
        entry["actions"].append({
            "class": type(action).__name__,
            "option_strings": action.option_strings, "dest": action.dest,
            "required": action.required, "default": action.default,
            "type": getattr(action.type, "__name__", action.type),
            "choices": choices, "help": action.help, "nargs": action.nargs,
            "const": action.const})
    return tree


def test_parser_tree_is_pinned():
    """`build_parser` declares every subcommand, option and handler as
    `tests/golden/parser_tree.json` records them, in the same order."""
    tree = json.loads(json.dumps(parser_tree(cli.build_parser())))
    golden = json.loads((GOLDEN / "parser_tree.json").read_text())
    assert list(tree) == list(golden)
    assert tree == golden


def test_cells_b2_sum_rules(capsys):
    code, out, _ = run(capsys, "cells", "--group", "b2",
                       "--params", "a=2,b=1", "--json")
    assert code == 0
    data = json.loads(out)
    assert len(data["cells"]["two_sided"]) == 5
    assert data["sum_rules"]["all"] is True


def test_cells_family_mismatch_exits_1(capsys, monkeypatch):
    # the tabulated cells claim families; a computed partition that merges
    # two of them must fail the run
    real = cli.cm_families

    def merged(W, params):
        fp = real(W, params)
        blocks = (fp.blocks[0] + fp.blocks[1],) + fp.blocks[2:]
        return replace_fields(fp, blocks=blocks)

    monkeypatch.setattr("chered.cli.cm_families", merged)
    for group, params in (("b2", "a=2,b=1"), ("cyclic:4", "K=1,1,-1,-1")):
        code, out, _ = run(capsys, "cells", "--group", group,
                           "--params", params, "--json")
        assert code == 1, group
        assert json.loads(out)["sum_rules"]["all"] is True


def _b2_k_input(a, b):
    return f"Ks0={-a / 2},Ks1={a / 2},Kt0={-b / 2},Kt1={b / 2}"


# (group, C-input, the same point as K-input); the cyclic points have C_i
# depending only on gcd(i, d), so their K-coordinates are rational
_SAME_POINT = [("b2", f"a={a},b={b}", _b2_k_input(Fraction(a), Fraction(b)))
               for a, b in ((2, 1), (1, 1), (1, -1), (0, 1), (0, 0))] + [
    (f"cyclic:{d}", ",".join(f"C{i}=0" for i in range(1, d)),
     "K=" + ",".join(["0"] * d)) for d in range(2, 7)] + [
    ("cyclic:2", "C1=1", "K=-1/2,1/2"),
    ("cyclic:3", "C1=1,C2=1", "K=-1/3,2/3,-1/3"),
    ("cyclic:4", "C1=1,C2=0,C3=1", "K=0,1/2,0,-1/2"),
    ("cyclic:4", "C1=1,C2=2,C3=1", "K0=-1/2,K1=1,K2=-1/2,K3=0"),
    ("cyclic:5", "C1=1,C2=1,C3=1,C4=1", "K=-1/5,4/5,-1/5,-1/5,-1/5"),
    ("cyclic:6", "C1=1,C2=2,C3=3,C4=2,C5=1", "K=-2/3,3/2,-2/3,0,-1/6,0"),
]


@pytest.mark.parametrize("group,c_input,k_input", _SAME_POINT)
def test_k_input_equals_c_input(capsys, group, c_input, k_input):
    # the K-point is converted to C once, when the command line is read, so
    # both inputs must print the same parameters, families and cells
    for cmd in ("families", "cells"):
        by_c = run(capsys, cmd, "--group", group, "--params", c_input, "--json")
        by_k = run(capsys, cmd, "--group", group, "--params", k_input, "--json")
        assert by_c[0] == 0 and by_c == by_k, (cmd, group)


def test_integral_parameters_are_ints():
    # one representation of a rational: an integral value is an int, never
    # a Fraction with denominator 1
    W = build_group("cyclic:6")
    values = cli._parse_params(W, "C1=-5/3,C2=-5,C3=1,C4=-5,C5=-5/3")
    assert values == {"C1": Fraction(-5, 3), "C2": -5, "C3": 1, "C4": -5,
                      "C5": Fraction(-5, 3)}
    assert [type(values[c]) for c in ("C2", "C3", "C4")] == [int] * 3


def test_usage_errors_exit_2(capsys):
    code, _, err = run(capsys, "families", "--group", "b2",
                       "--params", "q=3")
    assert code == 2 and "unknown parameter" in err
    code, _, err = run(capsys, "families", "--group", "cyclic:3",
                       "--params", "K1=1,K=0,0,0")
    assert code == 2 and "parameter 'K1' is given more than once" in err
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
    ("verify", "center", "--group", "cyclic:11"),
    ("geometry", "rank1", "--d", "-1", "--point", "1,2"),
    ("families", "--group", "b2", "--params", "a=1,a=2,b=1"),
    ("cells", "--group", "b2", "--params", "a=1,A=2,b=1"),
    ("families", "--group", "cyclic:3", "--params", "C1=1,C2=1,C1=5"),
    ("families", "--group", "cyclic:3", "--params", "K1=1,K=0,0,0"),
    ("families", "--group", "b2", "--params", "a1"),
    ("families", "--group", "cyclic:3", "--params", "K=0,0"),
    ("families", "--group", "b2", "--params", ","),
    ("families", "--group", "cyclic:3", "--params", "K=1,1,1"),
    ("families", "--group", "cyclic:3", "--params", "C1=1,K1=0"),
    ("cells", "--group", "cyclic:4", "--params", "C1=1,C2=0,C3=0"),
    ("families", "--group", "b2", "--params", "Ks0=-1,Ks1=1,Kt0=1,Kt1=1"),
    ("families", "--group", "cyclic:3", "--params", "K0=5,K1=0,K2=0"),
    ("galois", "foo"),
    ("geometry", "rank1", "--d", "2", "--point", "1,2"),
    ("poisson", "--group", "b2", "--lhs", "eu", "--rhs", "foo"),
    ("families", "--group", "cyclic:4", "--params", "K=1,,2,-3,0"),
    ("geometry", "rank1", "--d", "2", "--point=1,-1,,0,0,2"),
], ids=["bad-cyclic-order", "unknown-group", "bad-rational",
        "negative-order", "zero-order", "rank1-out-of-range",
        "geometry-bad-degree", "repeated-param", "repeated-param-alias",
        "repeated-c-param", "repeated-k-param", "malformed-param",
        "short-k-vector", "no-params", "k-sum-nonzero", "mixed-c-k",
        "cells-irrational-k", "b2-k-sum-nonzero", "k0-off-constraint",
        "galois-unknown", "geometry-short-point",
        "poisson-unknown-rhs", "empty-k-value", "geometry-empty-entry"])
def test_usage_error_exit_code(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and err.startswith("error: ") and not out


def _namespace(**fields):
    return argparse.Namespace(json=False, **fields)


@pytest.mark.parametrize("call, message", [
    (lambda: cli._parse_params(build_group("b2"), "a=1,a=2,b=1"),
     "is given more than once"),
    (lambda: cli._parse_params(build_group("b2"), "a1"),
     "malformed parameter entry"),
    (lambda: cli._parse_params(build_group("cyclic:3"), "K=0,0"),
     "K-values, got"),
    (lambda: cli._parse_params(build_group("b2"), "q=3"),
     "unknown parameter"),
    (lambda: cli._parse_params(build_group("b2"), ","),
     "no parameters given"),
    (lambda: cli._parse_params(build_group("cyclic:3"), "K=1,1,1"),
     "do not sum to zero"),
    (lambda: cli._rational("x"), "not a rational number"),
    (lambda: cli.cmd_group_info(_namespace(spec="a3")),
     "unknown group descriptor"),
    (lambda: cli._parse_params(build_group("cyclic:3"), "C1=1,K1=0"),
     "cannot mix C- and K-coordinates"),
    (lambda: cli.cmd_verify_center(_namespace(group="cyclic:11")),
     "2 <= d <= 10"),
    (lambda: cli.cmd_verify_relations(_namespace(group="cyclic:3")),
     "relations are only defined for --group b2"),
    (lambda: cli.cmd_cells(_namespace(group="cyclic:4",
                                      params="C1=1,C2=0,C3=0")),
     "cyclic cells need rational K-coordinates"),
    (lambda: cli.cmd_hilbert(_namespace(group="b2", order=0, check=False)),
     "--order must be >= 1"),
    (lambda: cli.cmd_galois(_namespace(what="foo")),
     "supported: galois b2-certificate"),
    (lambda: cli.cmd_geometry_rank1(_namespace(d=1, point="1")),
     "--d must be >= 2"),
    (lambda: cli.cmd_geometry_rank1(_namespace(d=2, point="1,2")),
     "--point needs"),
    (lambda: cli.cmd_geometry_rank1(_namespace(d=2, point="0,0,1,1,3")),
     "does not lie on the variety"),
    (lambda: cli.cmd_poisson(_namespace(group="b2", lhs="eu", rhs="foo")),
     "must be one of"),
    (lambda: cli._parse_params(build_group("cyclic:4"), "K=1,,2,-3,0"),
     "empty entry in the K-values: K=1,,2,-3,0"),
    (lambda: cli._parse_params(build_group("cyclic:3"), "K= ,1,-1"),
     "empty entry in the K-values"),
    (lambda: cli._parse_params(build_group("cyclic:3"), "K=1,-1,0,"),
     "empty entry in the K-values"),
    (lambda: cli.cmd_geometry_rank1(_namespace(d=2, point="1,-1,,0,0,2")),
     "empty entry in --point 1,-1,,0,0,2"),
    (lambda: cli.cmd_geometry_rank1(_namespace(d=2, point="1,-1,0,0,")),
     "empty entry in --point"),
], ids=["repeated-param", "malformed-param", "short-k-vector",
        "unknown-param", "no-params", "k-sum-nonzero", "bad-rational",
        "unknown-group", "mixed-c-k", "rank1-out-of-range",
        "relations-not-b2", "cells-irrational-k", "zero-order",
        "galois-unknown", "geometry-bad-degree", "geometry-short-point",
        "geometry-off-variety", "poisson-unknown-rhs", "empty-k-value",
        "blank-k-value", "trailing-k-comma", "geometry-empty-entry",
        "geometry-trailing-comma"])
def test_usage_error_names_its_message(call, message):
    """Each `raise UsageError` of the command line, provoked below `main`
    and matched by a literal run of its message: a library ValueError
    passed on as a usage error by the run of its own message."""
    with pytest.raises(UsageError, match=message):
        call()


def test_rank1_range_error_names_missing_piece(capsys):
    code, _, err = run(capsys, "verify", "center", "--group", "cyclic:11")
    assert code == 2 and "2 <= d <= 10" in err


def test_handlers_return_data_and_print_nothing(capsys):
    cases = [
        (cli.cmd_families, dict(group="b2", params="a=1,b=1")),
        (cli.cmd_cells, dict(group="cyclic:4", params="K=0,0,0,0")),
        (cli.cmd_geometry_rank1, dict(d=2, point="0,0,0,0,0")),
    ]
    for handler, fields in cases:
        result = handler(argparse.Namespace(json=False, **fields))
        assert isinstance(result, tuple) and len(result) == 2
        data, ok = result
        assert isinstance(data, dict) and ok is True
        out = capsys.readouterr()
        assert out.out == "" and out.err == "", handler.__name__


def test_library_error_exits_1(capsys, monkeypatch):
    def failing(W):
        raise ArithmeticError("central element failed the nilpotency check")

    monkeypatch.setattr("chered.cli.omega_table", failing)
    code, out, err = run(capsys, "omega-table", "--group", "b2")
    assert code == 1 and err.startswith("error: ") and out == ""


def test_successive_calls_do_not_leak_state(capsys):
    first = run(capsys, "cells", "--group", "b2", "--params", "a=2,b=1",
                "--json")
    other = run(capsys, "families", "--group", "cyclic:3",
                "--params", "C1=1,C2=1")
    third = run(capsys, "cells", "--group", "b2", "--params", "a=2,b=1",
                "--json")
    assert first[0] == other[0] == 0
    assert third == first and other[1] != first[1]


def test_json_output_deterministic(capsys):
    argv = ("omega-table", "--group", "b2", "--json")
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2


def test_param_file(tmp_path, capsys):
    f = tmp_path / "params.txt"
    # blank lines are allowed, and so is an empty entry between named ones
    f.write_text("# equal parameters\n\na=1,\n  \nb=1\n\n")
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


def test_poisson_failed_eigenvector_check_exits_1(capsys, monkeypatch):
    monkeypatch.setattr("chered.cli.poisson_bracket",
                        lambda z1, z2: PBWElement.zero(z1.basis))
    code, out, _ = run(capsys, "poisson", "--group", "b2",
                       "--lhs", "eu", "--rhs", "eu'", "--json")
    assert code == 1
    assert json.loads(out)["euler_eigenvector"] is False


def test_hilbert_check(capsys):
    code, out, _ = run(capsys, "hilbert", "--group", "b2", "--order", "6",
                       "--check", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["molien_equals_fake_degree_series"] is True
    assert data["center_matches_basis"] is True


def test_hilbert_check_builds_fake_degree_series_once(capsys, monkeypatch):
    """`hilbert --check` and `hilbert_center` share one fake-degree series."""
    from chered import series
    calls = []
    table = series.character_table

    def counting(W):
        calls.append(W.spec)
        return table(W)

    monkeypatch.setattr(series, "character_table", counting)
    series.fantome_bigraded.cache_clear()
    code, _, _ = run(capsys, "hilbert", "--group", "cyclic:5", "--order",
                     "24", "--check")
    assert code == 0
    assert calls == ["cyclic:5"]


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


def _modules_loaded(code):
    """The modules in sys.modules after `code` runs in a fresh interpreter
    with the package on its path."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys\nprint(*sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    return set(proc.stdout.split())


def test_cold_import_loads_no_introspection_modules():
    # every command line is a fresh interpreter, and `dataclasses` would
    # bring `inspect` and `ast` into each one; comparing with a bare
    # interpreter started the same way leaves out what a site hook preloads
    bare = _modules_loaded("")
    cold = _modules_loaded("import chered.cli")
    assert "chered.cli" in cold
    assert [m for m in ("dataclasses", "inspect", "ast")
            if m in cold and m not in bare] == []
