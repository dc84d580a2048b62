"""Calogero-Moser families, cells, cellular characters, sum rules."""
import random
from fractions import Fraction

import pytest

from chered.reflgrp import build_group, character_table, param_convert
from chered.cmcells import (CellPartition, b2_cells, cm_families,
                            partition_to_json, rank1_cells, sum_rule_check,
                            tensor_with_linear)
from chered.verma import omega_table
from oracles import minimal_b_character, twist_family_partition


W2 = build_group("b2")


def _families_b2(a, b):
    return cm_families(W2, {"A": Fraction(a), "B": Fraction(b)})


def _blocks(fp):
    return sorted(tuple(sorted(b)) for b in fp.blocks)


def test_family_table_all_six_rows():
    expected = {
        (0, 1): [("1", "eps_s"), ("chi",), ("eps", "eps_t")],
        (1, 0): [("1", "eps_t"), ("chi",), ("eps", "eps_s")],
        (1, 1): [("1",), ("chi", "eps_s", "eps_t"), ("eps",)],
        (1, -1): [("1", "chi", "eps"), ("eps_s",), ("eps_t",)],
        (2, 1): [("1",), ("chi",), ("eps",), ("eps_s",), ("eps_t",)],
        (0, 0): [("1", "chi", "eps", "eps_s", "eps_t")],
    }
    for (a, b), rows in expected.items():
        assert _blocks(_families_b2(a, b)) == sorted(rows), (a, b)


@pytest.mark.parametrize("point, message", [
    ({"Ks0": -1, "Ks1": 1, "Kt0": -1, "Kt1": 1}, r"missing .*\['A', 'B'\]"),
    ({"A": 1}, r"missing parameter entries \['B'\]"),
    ({"A": 1, "B": 1, "C": 5}, r"unknown parameter entries \['C'\]"),
], ids=["k-point", "missing-label", "extra-label"])
def test_cm_families_checks_labels(point, message):
    with pytest.raises(ValueError, match=message):
        cm_families(W2, point)


def test_cm_families_rejects_an_inexact_value():
    with pytest.raises(TypeError, match=r"must be exact, got \{'A': 0.5\}"):
        cm_families(W2, {"A": 0.5, "B": 1})


@pytest.mark.parametrize("call", [
    lambda: b2_cells(0.1 + 0.2, Fraction(3, 10)),
    lambda: rank1_cells(2, [0.1 + 0.2, -0.3]),
], ids=["b2", "rank1"])
def test_cells_reject_inexact_values(call):
    # 0.1 + 0.2 is not 3/10, so a float would put b2 on the wrong stratum
    with pytest.raises(TypeError, match="expected an int or a Fraction"):
        call()


def _cyclic4_point(*ks):
    W = build_group("cyclic:4")
    return param_convert(W, {f"K{j}": Fraction(k) for j, k in enumerate(ks)},
                         "C")


@pytest.mark.parametrize("spec, cvals", [
    ("b2", {"A": 2, "B": 1}), ("b2", {"A": 1, "B": 1}),
    ("b2", {"A": 1, "B": -1}), ("b2", {"A": 0, "B": 1}),
    ("b2", {"A": 1, "B": 0}), ("b2", {"A": 0, "B": 0}),
    ("cyclic:4", _cyclic4_point(1, -1, 1, -1)),
    ("cyclic:4", _cyclic4_point(0, 1, 2, -3)),
], ids=["b2-generic", "b2-a=b", "b2-a=-b", "b2-a=0", "b2-b=0", "b2-zero",
        "cyclic4-two-pairs", "cyclic4-distinct"])
def test_families_are_classes_of_equal_central_characters(spec, cvals):
    """Two characters share a family exactly when their central characters
    agree at the point on every named generator of the center."""
    W = build_group(spec)
    fp = cm_families(W, cvals)
    names = [chi.name for chi in character_table(W)]
    assert sorted(n for block in fp.blocks for n in block) == sorted(names)
    family_of = {n: k for k, block in enumerate(fp.blocks) for n in block}
    at_point = {n: {g: v.substitute(cvals) for g, v in row.items()}
                for n, row in omega_table(W).items()}
    for x in names:
        for y in names:
            assert ((family_of[x] == family_of[y])
                    == (at_point[x] == at_point[y])), (x, y)


def test_families_cyclic_distinct_k():
    W = build_group("cyclic:3")
    k = {"K0": Fraction(0), "K1": Fraction(1), "K2": Fraction(-1)}
    fp = cm_families(W, param_convert(W, k, "C"))
    assert len(fp.blocks) == 3
    k0 = {f"K{j}": Fraction(0) for j in range(3)}
    assert len(cm_families(W, param_convert(W, k0, "C")).blocks) == 1


@pytest.mark.parametrize("call, message", [
    (lambda: rank1_cells(3, [1, -1]), "expected 3 K-values"),
    (lambda: rank1_cells(3, [1, 1, -1]), "K-values must sum to zero"),
    (lambda: tensor_with_linear(W2, "1", "chi"),
     "second factor must be linear"),
], ids=["rank1-length", "rank1-sum", "tensor-not-linear"])
def test_cells_reject_malformed_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_rank1_cells_examples():
    cp = rank1_cells(3, [0, 1, -1])
    assert cp.two_sided == (("1",), ("s",), ("s^2",))
    cp = rank1_cells(3, [Fraction(-2), 1, 1])
    assert cp.two_sided == (("1",), ("s", "s^2"))
    assert cp.cellular[1] == {"eps^1": 1, "eps^2": 1}
    cp = rank1_cells(4, [0, 0, 0, 0])
    assert cp.two_sided == (("1", "s", "s^2", "s^3"),)
    assert cp.cellular[0] == {f"eps^{i}": 1 for i in range(4)}


@pytest.mark.parametrize("d", range(2, 11))
def test_rank1_cells_fiber_structure_random(d):
    rng = random.Random(d * 1009)
    W = build_group(f"cyclic:{d}")
    for _ in range(10):
        ks = [Fraction(rng.randint(-2, 2)) for _ in range(d - 1)]
        ks.append(-sum(ks))
        cp = rank1_cells(d, ks)
        # cells are exactly the fibers of i -> k_i
        index = {W.names[i]: i for i in range(d)}
        for cell in cp.two_sided:
            vals = {ks[index[n]] for n in cell}
            assert len(vals) == 1
        assert sum(len(c) for c in cp.two_sided) == d
        # families attached to cells match the Omega-based partition
        k = {f"K{j}": ks[j] for j in range(d)}
        fp = cm_families(W, param_convert(W, k, "C"))
        assert (sorted(tuple(sorted(f)) for f in cp.families)
                == _blocks(fp))
        assert sum_rule_check(W, cp)["all"]


def test_b2_cells_generic_stratum():
    cp = b2_cells(2, 1)
    assert len(cp.two_sided) == 5
    assert len(cp.left) == 6
    assert ("t", "st", "ts", "sts") in cp.two_sided
    assert ("t", "st") in cp.left and ("ts", "sts") in cp.left
    assert list(cp.cellular).count({"chi": 1}) == 2
    assert sum_rule_check(W2, cp)["all"]


def test_b2_cells_equal_parameters():
    cp = b2_cells(1, 1)
    assert cp.two_sided == (("1",), ("w0",),
                            ("s", "t", "st", "ts", "sts", "tst"))
    assert ("s", "ts", "sts") in cp.left and ("t", "st", "tst") in cp.left
    gamma_s = cp.left.index(("s", "ts", "sts"))
    assert cp.cellular[gamma_s] == {"eps_s": 1, "chi": 1}
    assert sum_rule_check(W2, cp)["all"]
    # |Gamma| = 6 = 1 + 1 + 4 over its family
    assert cp.families[2] == ("chi", "eps_s", "eps_t")


def test_b2_cells_opposite_parameters_is_twist():
    cp = b2_cells(1, -1)
    base = b2_cells(1, 1)
    assert cp.two_sided == base.two_sided and cp.left == base.left
    assert sorted(cp.families) == sorted(
        tuple(sorted(tensor_with_linear(W2, n, "eps_t") for n in fam))
        for fam in base.families)
    gamma_s = cp.left.index(("s", "ts", "sts"))
    assert cp.cellular[gamma_s] == {"eps": 1, "chi": 1}
    gamma_t = cp.left.index(("t", "st", "tst"))
    assert cp.cellular[gamma_t] == {"1": 1, "chi": 1}
    assert sum_rule_check(W2, cp)["all"]


def test_b2_cells_zero_parameters():
    cp = b2_cells(0, 0)
    assert cp.two_sided == (("1", "s", "t", "st", "ts", "sts", "tst", "w0"),)
    assert cp.cellular[0] == {"1": 1, "eps": 1, "eps_s": 1,
                                        "eps_t": 1, "chi": 2}
    assert sum_rule_check(W2, cp)["all"]


def test_cell_partition_takes_each_field_once():
    # every field is given, by position or by name, and none twice
    cases = [(((), (), (), ()), {}, r"missing fields \['supported', 'note'\]"),
             (((), (), (), (), True, ""), {"size": 0},
              r"unknown fields \['size'\]"),
             (((), (), (), (), True), {"supported": False, "note": ""},
              r"repeated fields \['supported'\]"),
             (((), (), (), (), True, "", 0), {}, "got 7 values by position")]
    for args, named, message in cases:
        with pytest.raises(TypeError, match=message):
            CellPartition(*args, **named)
    cells = CellPartition((), (), (), (), note="", supported=False)
    assert (cells.supported, cells.note) == (False, "")


def test_b2_cells_axis_strata_unsupported():
    for (a, b) in ((0, 1), (1, 0), (0, -3), (Fraction(5, 2), 0)):
        cp = b2_cells(a, b)
        assert not cp.supported
        assert "unsupported" in cp.note
        assert cp.two_sided == () and cp.left == ()
        report = sum_rule_check(W2, cp)
        assert report["all"] is None
    # families still filled in per the table
    assert sorted(b2_cells(0, 1).families) == sorted(
        (("1", "eps_s"), ("eps", "eps_t"), ("chi",)))
    assert sorted(b2_cells(1, 0).families) == sorted(
        (("1", "eps_t"), ("eps", "eps_s"), ("chi",)))


def test_families_agree_with_cells_on_all_strata():
    for (a, b) in ((2, 1), (1, 1), (1, -1), (0, 0), (3, -2), (5, 5)):
        cp = b2_cells(a, b)
        fp = _families_b2(a, b)
        assert sorted(tuple(sorted(f)) for f in cp.families) == _blocks(fp)


def test_twist_covariance_of_families():
    # chi -> chi (x) gamma maps families at (a, b) onto families at the
    # gamma-twisted parameters
    samples = [(2, 1), (1, 1), (0, 1), (1, 0), (1, -1), (0, 0), (3, 2)]
    twists = {"eps": lambda a, b: (-a, -b),
              "eps_t": lambda a, b: (a, -b),
              "eps_s": lambda a, b: (-a, b)}
    for gamma, move in twists.items():
        for (a, b) in samples:
            fp = _families_b2(a, b)
            fq = _families_b2(*move(a, b))
            assert list(twist_family_partition(W2, fp, gamma)) == _blocks(fq), \
                (gamma, a, b)


def test_generic_linear_characters_alone():
    # at a generic rational point every linear character is a singleton
    fp = _families_b2(7, 3)
    for chi in character_table(W2):
        if chi.degree == 1:
            assert (chi.name,) in fp.blocks


def test_minimal_b_character_unique_per_family():
    expected_min = {
        (2, 1): {"1", "eps_s", "eps_t", "eps", "chi"},
        (1, 1): {"1", "chi", "eps"},
        (1, -1): {"1", "eps_s", "eps_t"},
        (0, 1): {"1", "eps_t", "chi"},
        (1, 0): {"1", "eps_s", "chi"},
        (0, 0): {"1"},
    }
    for (a, b), names in expected_min.items():
        fp = _families_b2(a, b)
        got = {minimal_b_character(W2, blk) for blk in fp.blocks}
        assert got == names, (a, b)
    for d in (3, 4, 5):
        W = build_group(f"cyclic:{d}")
        ks = [Fraction(0)] * d
        k = {f"K{j}": ks[j] for j in range(d)}
        fp = cm_families(W, param_convert(W, k, "C"))
        assert {minimal_b_character(W, blk) for blk in fp.blocks} == {"eps^0"}


def test_json_schema():
    fp = cm_families(W2, {"A": Fraction(1), "B": Fraction(1)})
    cp = b2_cells(1, 1)
    data = partition_to_json(fp, cp)
    assert set(data) == {"parameters", "families", "cells",
                         "cellular_characters"}
    assert set(data["cells"]) == {"two_sided", "left"}
    assert all(set(e) == {"cell", "character"}
               for e in data["cellular_characters"])


def test_tensor_with_linear_refuses_a_product_outside_the_table(monkeypatch):
    # without eps in the table, eps_s (x) eps_t has no row to land on
    table = tuple(c for c in character_table(W2) if c.name != "eps")
    monkeypatch.setattr("chered.cmcells.character_table", lambda W: table)
    with pytest.raises(ArithmeticError,
                       match="tensor product left the character table"):
        tensor_with_linear(W2, "eps_s", "eps_t")
