"""Center of the algebra: generators, relations, minimal polynomial of the
Euler element, and its congruence with the central characters."""
import pytest

from chered.multipoly import MPoly
from chered.reflgrp import build_group
from chered.cherednik import (PBWElement, algebra_generators, commutator,
                              multiply, named_center_generators,
                              residue_summary)
from chered.center import (_rank1_factors, euler_charpoly_congruence,
                           minpoly_euler, rank1_center_product,
                           verify_b2_center, verify_b2_centrality,
                           verify_rank1_center)
from chered.verma import omega_table
from oracles import (rank1_c_to_k, rank1_partial_products_per_factor,
                     substitute_params)


@pytest.mark.parametrize("d", (2, 3, 4, 5, 6, 7))
def test_rank1_center_relation(d):
    report = verify_rank1_center(d)
    assert report["status"] is True, report


@pytest.mark.parametrize("d", (2, 3, 4, 5))
def test_rank1_k_native_product_matches_per_factor_oracle(d):
    """For every m <= d, the product of the first m C-coordinate factors,
    mapped to K, equals the oracle's first m factors term by term; the
    full product is the one of `rank1_center_product`."""
    W = build_group(f"cyclic:{d}")
    partial = []
    prod = PBWElement.one(W)
    for factor in _rank1_factors(W)[:-1]:
        prod = multiply(prod, factor)
        partial.append(prod)
    partial.append(rank1_center_product(d))
    expected = rank1_partial_products_per_factor(d)
    assert len(partial) == len(expected) == d
    to_k = rank1_c_to_k(d)
    for m, (got, want) in enumerate(zip(partial, expected), start=1):
        got = substitute_params(got, to_k)
        assert set(got.terms) == set(want.terms), m
        for key, coeff in got.terms.items():
            assert coeff == want.terms[key], (m, key)


@pytest.mark.parametrize("d", (1, 8, 9))
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


def test_failed_centrality_reports_generator_and_residue(monkeypatch):
    # eu' replaced by the V-coordinate x, which does not commute with the
    # V*-coordinates: only its report fails, and it names the first
    # generator x fails to commute with and summarises that commutator
    real = named_center_generators

    def with_x(W):
        gens = dict(real(W))
        gens["eu'"] = PBWElement.v_gen(W, 0)
        return gens

    monkeypatch.setattr("chered.center.named_center_generators", with_x)
    reports = verify_b2_centrality()
    assert [r["status"] for r in reports] == [True, False, True, True]
    for r in reports[:1] + reports[2:]:
        assert set(r) == {"relation", "status"}
    failed = reports[1]
    assert failed["relation"] == "central(eu')"
    W = build_group("b2")
    x = PBWElement.v_gen(W, 0)
    gens = algebra_generators(W)
    first = next(name for name, gen in gens.items()
                 if not commutator(x, gen).is_zero())
    assert failed["generator"] == first
    assert failed["residue"] == residue_summary(commutator(x, gens[first]))


def test_failed_centrality_takes_one_commutator_per_generator(monkeypatch):
    # with x for eu', the failing report searches the generators once: two
    # products per generator tried, up to the first that x does not
    # commute with, after the full walks of the three central elements
    import chered.cherednik as cherednik
    real_gens, real_multiply = named_center_generators, cherednik.multiply
    calls = []

    def with_x(W):
        gens = dict(real_gens(W))
        gens["eu'"] = PBWElement.v_gen(W, 0)
        return gens

    def counted(a, b, **kwargs):
        calls.append(1)
        return real_multiply(a, b, **kwargs)

    monkeypatch.setattr("chered.center.named_center_generators", with_x)
    monkeypatch.setattr(cherednik, "multiply", counted)
    W = build_group("b2")
    x = PBWElement.v_gen(W, 0)
    gens = list(algebra_generators(W).values())
    tried = 1 + next(i for i, gen in enumerate(gens)
                     if not commutator(x, gen).is_zero())
    calls.clear()
    assert verify_b2_centrality()[1]["status"] is False
    assert len(calls) == 2 * (3 * len(gens) + tried)


@pytest.mark.parametrize("spec", ("b2", "cyclic:5"))
def test_congruence_leaves_the_omega_table_unbuilt(spec):
    # the congruence reads Omega_chi(eu) alone, not the whole table
    W = build_group(spec)
    omega_table.cache_clear()
    try:
        assert euler_charpoly_congruence(W) is True
        assert omega_table.cache_info().currsize == 0
    finally:
        omega_table.cache_clear()


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

