"""Center of the algebra: generators, relations, minimal polynomial of the
Euler element, and its congruence with the central characters."""
import pytest

from chered.multipoly import MPoly
from chered.reflgrp import build_group, idempotent_basis
from chered.cherednik import (PBWElement, algebra_generators,
                              center_presentation, commutator, multiply,
                              named_center_generators, residue_summary)
from chered.center import (_b2_multiplication_matrix,
                           _b2_relations, _rank1_relation,
                           euler_charpoly_congruence, minpoly_euler,
                           verify_b2_center, verify_b2_centrality,
                           verify_b2_relations, verify_rank1_center)
from chered.reflgrp import param_map
from chered.verma import omega_table
from oracles import (b2_euler_matrix_by_hand, idempotents_to_group,
                     rank1_c_to_k, rank1_k_variables,
                     rank1_partial_products_per_factor, substitute_params)

# eu, eu', eu'' and delta: the generators of Z over P that the B2 basis uses
_, _Z_NAMES, _ = center_presentation(build_group("b2"))


@pytest.mark.parametrize("d", (2, 3, 4, 5, 6, 7, 8, 9, 10))
def test_rank1_center_relation(d):
    report = verify_rank1_center(d)
    assert report["status"] is True, report


@pytest.mark.parametrize("d", (2, 3, 4, 5))
def test_rank1_k_native_product_matches_per_factor_oracle(d):
    """For every m <= d, the product of the first m C-coordinate factors
    eu - d K_j, with K_j built from the rows of `param_map`, mapped to K,
    equals the oracle's first m factors term by term; the full product is
    the one of `_rank1_relation` plus X Y."""
    W = build_group(f"cyclic:{d}")
    g = named_center_generators(W)
    ks = []
    for _, row in param_map(W).k_rows:
        k = MPoly.zero()
        for label, coeff in row:
            k = k + MPoly.var(label) * coeff
        ks.append(k)
    partial = []
    prod = PBWElement.one(W)
    for k in ks[:-1]:
        prod = multiply(prod, g["eu"] - PBWElement.one(W).scale(d * k))
        partial.append(prod)
    partial.append(_rank1_relation(g["eu"], ks, g["X"], g["Y"])
                   + multiply(g["X"], g["Y"]))
    expected = rank1_partial_products_per_factor(d)
    assert len(partial) == len(expected) == d
    to_k = rank1_c_to_k(d)
    for m, (got, want) in enumerate(zip(partial, expected), start=1):
        got = substitute_params(got, to_k)
        assert set(got.terms) == set(want.terms), m
        for key, coeff in got.terms.items():
            assert coeff == want.terms[key], (m, key)


@pytest.mark.parametrize("d", (2, 3, 4, 5, 6, 7))
def test_rank1_idempotent_product_matches_per_factor_oracle(d):
    """For every m <= d, the product of the first m factors eu - d K_j over
    the idempotent basis, rewritten over the group elements, equals the
    oracle's first m factors term by term."""
    B = idempotent_basis(build_group(f"cyclic:{d}"))
    eu = named_center_generators(B)["eu"]
    expected = rank1_partial_products_per_factor(d)
    prod = PBWElement.one(B)
    for m, (k, want) in enumerate(zip(rank1_k_variables(d), expected),
                                  start=1):
        prod = multiply(prod, eu - PBWElement.one(B).scale(d * k))
        got = idempotents_to_group(prod)
        assert set(got.terms) == set(want.terms), m
        for key, coeff in got.terms.items():
            assert coeff == want.terms[key], (m, key)


@pytest.mark.parametrize("d", (1, 11))
def test_rank1_center_range(d):
    with pytest.raises(ValueError, match="2 <= d <= 10"):
        verify_rank1_center(d)


def test_rank1_center_range_names_its_claim():
    with pytest.raises(ValueError,
                       match="supported, and tested, for 2 <= d <= 10"):
        verify_rank1_center(1)


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


def test_b2_euler_matrix_matches_hand_oracle():
    # the matrix rewritten from Z1-Z9 is the one folded by hand, entry by
    # entry
    got, want = _b2_multiplication_matrix("eu"), b2_euler_matrix_by_hand()
    for i in range(8):
        for j in range(8):
            assert got[i][j] == want[i][j], (i, j)


def _free_generators():
    return {name: MPoly.var(name) for name in
            ("eu", "eu'", "eu''", "delta", "sigma", "pi", "Sigma", "Pi")}


def test_b2_rewriting_ignores_the_order_of_the_rules(monkeypatch):
    # Z is free over P on the basis, so any order of rewriting ends at the
    # same coefficients
    import chered.center as center
    real = center._b2_relations
    forward = _b2_multiplication_matrix("eu")
    monkeypatch.setattr(center, "_b2_relations",
                        lambda g: dict(reversed(list(real(g).items()))))
    assert list(center._b2_relations(_free_generators())) == [
        f"Z{k}" for k in range(9, 0, -1)]
    backward = _b2_multiplication_matrix("eu")
    assert all(backward[i][j] == forward[i][j]
               for i in range(8) for j in range(8))


def _weighted_lex_key(exp: dict):
    """The rewriting order: weighted degree (eu 1; delta, eu', eu'' 2),
    then lex with eu' > eu'' > eu > delta."""
    weight = {"eu": 1, "delta": 2, "eu'": 2, "eu''": 2}
    lex = ("eu'", "eu''", "eu", "delta")
    return (sum(weight[n] * e for n, e in exp.items()),
            tuple(exp.get(n, 0) for n in lex))


def test_b2_rules_decrease_in_the_documented_order():
    # every lhs exceeds each monomial in eu, eu', eu'', delta of its rhs,
    # which is why rewriting ends
    for name, (lhs, rhs) in _b2_relations(_free_generators()).items():
        (exp, _), = lhs.terms.items()
        top = _weighted_lex_key(dict(zip(lhs.vars, exp)))
        for exp in rhs.terms:
            mono = {n: e for n, e in zip(rhs.vars, exp) if n in _Z_NAMES}
            assert _weighted_lex_key(mono) < top, (name, mono)


def _mat_product(a, b):
    return [[sum((a[i][k] * b[k][j] for k in range(8)), MPoly.zero())
             for j in range(8)] for i in range(8)]


def test_b2_multiplication_matrices_commute():
    # eu, delta, eu' and eu'' commute in Z, so their matrices on the
    # P-basis, built by the same rewriting, commute pairwise
    mats = {z: _b2_multiplication_matrix(z) for z in _Z_NAMES}
    names = list(mats)
    for p, first in enumerate(names):
        for second in names[p + 1:]:
            a, b = mats[first], mats[second]
            assert _mat_product(a, b) == _mat_product(b, a), (first, second)


class _Matrix:
    """8x8 matrices over P with the ring operations of `_b2_relations`; a
    scalar stands for its multiple of the identity."""

    def __init__(self, rows):
        self.rows = rows

    @staticmethod
    def _lift(x):
        if isinstance(x, _Matrix):
            return x
        return _Matrix([[x if i == j else MPoly.zero() for j in range(8)]
                        for i in range(8)])

    def __add__(self, other):
        other = self._lift(other)
        return _Matrix([[a + b for a, b in zip(r, s)]
                        for r, s in zip(self.rows, other.rows)])

    __radd__ = __add__

    def __sub__(self, other):
        return self + self._lift(other) * -1

    def __mul__(self, other):
        if isinstance(other, _Matrix):
            return _Matrix(_mat_product(self.rows, other.rows))
        return _Matrix([[a * other for a in r] for r in self.rows])

    __rmul__ = __mul__


def test_b2_multiplication_matrices_satisfy_the_relations():
    # z -> (its matrix on the P-basis) is a ring map out of Z, so the
    # matrices of eu, eu', eu'' and delta satisfy Z1-Z9 with the invariants
    # acting as scalars
    g = {name: MPoly.var(name) for name in ("sigma", "pi", "Sigma", "Pi")}
    g.update({z: _Matrix(_b2_multiplication_matrix(z)) for z in _Z_NAMES})
    for name, (lhs, rhs) in _b2_relations(g).items():
        residue = (lhs - rhs).rows
        assert all(e.is_zero() for row in residue for e in row), name


def test_b2_rewriting_refuses_a_term_outside_the_basis(monkeypatch):
    # without Z9, eu^3 has no rule and stays outside the basis
    import chered.center as center
    real = center._b2_relations

    def without_z9(g):
        rel = dict(real(g))
        del rel["Z9"]
        return rel

    monkeypatch.setattr(center, "_b2_relations", without_z9)
    with pytest.raises(ArithmeticError, match="outside the basis"):
        _b2_multiplication_matrix("eu")


def test_b2_wrong_relation_coefficient_fails_both_checks(monkeypatch):
    # Z1 with sigma*Pi doubled: its PBW report fails, the others pass, and
    # the characteristic polynomial no longer meets the closed form
    import chered.center as center
    real = center._b2_relations

    def patched(g):
        rel = dict(real(g))
        lhs, rhs = rel["Z1"]
        rel["Z1"] = (lhs, rhs + g["sigma"] * g["Pi"])
        return rel

    monkeypatch.setattr(center, "_b2_relations", patched)
    reports = verify_b2_relations()
    assert [r["relation"] for r in reports if not r["status"]] == ["Z1"]
    assert reports[0]["residue"]["terms"] > 0
    minpoly_euler.cache_clear()
    try:
        with pytest.raises(ArithmeticError, match="mismatch"):
            minpoly_euler(build_group("b2"))
    finally:
        minpoly_euler.cache_clear()


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


@pytest.mark.parametrize("spec", [f"cyclic:{d}" for d in range(2, 11)]
                         + ["b2"])
def test_euler_charpoly_congruence(spec):
    W = build_group(spec)
    assert euler_charpoly_congruence(W) is True

