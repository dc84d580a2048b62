"""Center of the algebra: generators, relations, minimal polynomial of the
Euler element, and its congruence with the central characters."""
import pytest

from chered.multipoly import MPoly
from chered.reflgrp import build_group
from chered.cherednik import PBWElement, multiply, named_center_generators
from chered.center import (euler_charpoly_congruence, minpoly_euler,
                           rank1_center_product, verify_b2_center,
                           verify_rank1_center)
from oracles import rank1_center_product_per_factor, substitute_params


@pytest.mark.parametrize("d", (2, 3, 4, 5, 6))
def test_rank1_center_relation(d):
    report = verify_rank1_center(d)
    assert report["status"] is True, report


@pytest.mark.parametrize("d", (2, 3, 4, 5))
def test_rank1_k_native_product_matches_per_factor_oracle(d):
    new = rank1_center_product(d)
    old = rank1_center_product_per_factor(d)
    assert new.basis == "K" and old.basis == "C"
    assert set(new.terms) == set(old.terms)
    for key, coeff in new.terms.items():
        assert coeff == old.terms[key], key


@pytest.mark.parametrize("d", (1, 7, 8))
def test_rank1_center_range(d):
    with pytest.raises(ValueError, match="ROADMAP item 2"):
        verify_rank1_center(d)


@pytest.mark.parametrize("d", (2, 3, 4))
def test_rank1_undeformed_specialization(d):
    # at C = 0 the relation degenerates to eu^d = X Y
    W = build_group(f"cyclic:{d}")
    g = named_center_generators(W)
    residue = g["eu"] ** d - multiply(g["X"], g["Y"])
    zeros = {f"C{i}": MPoly.zero() for i in range(1, d)}
    assert substitute_params(residue, zeros).is_zero()


def test_b2_center_all_reports_pass():
    reports = verify_b2_center()
    assert len(reports) == 13
    names = [r["relation"] for r in reports]
    for z in ("Z1", "Z2", "Z3", "Z4", "Z5", "Z6", "Z7", "Z8", "Z9"):
        assert z in names
    for r in reports:
        assert r["status"] is True, r


def test_minpoly_euler_rank1():
    W = build_group("cyclic:3")
    f = minpoly_euler(W)
    assert f.degree_in("t") == 3
    # K = 0 gives t^3 - X Y
    t, X, Y = (MPoly.var(n) for n in ("t", "X", "Y"))
    zeros = {f"K{j}": MPoly.zero() for j in range(3)}
    assert f.substitute(zeros) == t ** 3 - X * Y


def test_minpoly_euler_b2_shape():
    W = build_group("b2")
    f = minpoly_euler(W)  # internally asserted equal to the closed form
    assert f.degree_in("t") == 8
    # even polynomial in t
    for k in (1, 3, 5, 7):
        assert f.coefficient("t", k).is_zero()
    # constant term is the square of sigma^2 Pi - Sigma^2 pi
    sg, pi, Sg, Pi = (MPoly.var(n) for n in ("sigma", "pi", "Sigma", "Pi"))
    assert f.coefficient("t", 0) == (sg ** 2 * Pi - Sg ** 2 * pi) ** 2
    # at A = B = 0 the odd-degree-in-parameters corrections vanish
    spec = f.substitute({"A": MPoly.zero(), "B": MPoly.zero()})
    t = MPoly.var("t")
    assert spec == ((t ** 2) ** 4 - 2 * sg * Sg * (t ** 2) ** 3
                    + (sg ** 2 * Sg ** 2 + 2 * sg ** 2 * Pi
                       + 2 * Sg ** 2 * pi - 16 * pi * Pi) * (t ** 2) ** 2
                    - 2 * (sg * Sg * (sg ** 2 * Pi + Sg ** 2 * pi)
                           - 8 * sg * Sg * pi * Pi) * t ** 2
                    + (sg ** 2 * Pi - Sg ** 2 * pi) ** 2)


def _eval_in_pbw(f, assignments, W):
    """Evaluate an MPoly at PBW-element values for some of its variables;
    the remaining variables stay in the coefficient ring."""
    result = PBWElement.zero(W)
    for exp, c in f.terms.items():
        coeff = MPoly.const(c)
        term = PBWElement.one(W)
        for name, e in zip(f.vars, exp):
            if not e:
                continue
            if name in assignments:
                term = multiply(term, assignments[name] ** e)
            else:
                coeff = coeff * MPoly.var(name) ** e
        result = result + term.scale(coeff)
    return result


def test_minpoly_annihilates_euler_in_pbw_form():
    W = build_group("b2")
    f = minpoly_euler(W)
    g = named_center_generators(W)
    assignments = {"t": g["eu"], "sigma": g["sigma"], "pi": g["pi"],
                   "Sigma": g["Sigma"], "Pi": g["Pi"]}
    assert _eval_in_pbw(f, assignments, W).is_zero()


@pytest.mark.parametrize("spec", ("cyclic:2", "cyclic:3", "cyclic:4",
                                  "cyclic:5", "cyclic:6", "b2"))
def test_euler_charpoly_congruence(spec):
    W = build_group(spec)
    assert euler_charpoly_congruence(W) is True

