"""PBW engine: straightening, associativity, Euler element, gradings,
Poisson bracket."""
import random

import pytest

from chered.multipoly import MPoly
from chered.reflgrp import build_group, character_table
from chered.cherednik import (PBWElement, algebra_generators, bidegree,
                              commutator, euler_element, euler_element_T,
                              is_central, multiply, named_center_generators,
                              poisson_bracket, residue_summary,
                              twist_by_linear_char, z_degree)


GROUPS = ("cyclic:2", "cyclic:3", "cyclic:4", "b2")


def random_element(W, rng, nterms=2, with_T=False):
    elem = PBWElement.zero(W, with_T)
    for _ in range(nterms):
        vexp = tuple(rng.randint(0, 2) for _ in range(W.dim))
        dexp = tuple(rng.randint(0, 2) for _ in range(W.dim))
        g = rng.randrange(W.order())
        coeff = rng.randint(-3, 3)
        if coeff:
            elem = elem + PBWElement.monomial(W, vexp, g, dexp, coeff, with_T)
    return elem


@pytest.mark.parametrize("spec", GROUPS)
def test_associativity_random_triples(spec):
    W = build_group(spec)
    rng = random.Random(hash(spec) % (2 ** 31))
    for _ in range(30):
        a = random_element(W, rng)
        b = random_element(W, rng)
        c = random_element(W, rng)
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


@pytest.mark.parametrize("spec", GROUPS)
def test_group_algebra_embedding(spec):
    W = build_group(spec)
    for g in range(W.order()):
        for h in range(W.order()):
            lhs = multiply(PBWElement.group_gen(W, g),
                           PBWElement.group_gen(W, h))
            assert lhs == PBWElement.group_gen(W, W.mult_table[g][h])


def test_straightening_cyclic2():
    # [v, xi] = sum_s C_s <s(v) - v, xi> s: for the order-2 cyclic group
    # with s acting by -1, <s(v) - v, xi> = -2, so [v, xi] = -2 C1 s
    W = build_group("cyclic:2")
    v = PBWElement.v_gen(W, 0)
    xi = PBWElement.dual_gen(W, 0)
    s = PBWElement.group_gen(W, 1)
    assert commutator(v, xi) == s.scale(-2 * MPoly.var("C1"))


@pytest.mark.parametrize("spec", GROUPS)
def test_euler_element_central(spec):
    W = build_group(spec)
    assert is_central(euler_element(W))


def test_b2_named_generators_central():
    W = build_group("b2")
    gens = named_center_generators(W)
    for name in ("eu", "eu'", "eu''", "delta"):
        assert is_central(gens[name]), name


def test_bidegrees_b2():
    W = build_group("b2")
    gens = named_center_generators(W)
    expected = {"eu": (1, 1), "eu'": (1, 3), "eu''": (3, 1),
                "delta": (2, 2), "sigma": (2, 0), "pi": (4, 0),
                "Sigma": (0, 2), "Pi": (0, 4)}
    for name, bd in expected.items():
        assert bidegree(gens[name]) == bd, name
        assert z_degree(gens[name]) == bd[1] - bd[0]


def test_deformed_euler_grading():
    # [eu~, h] = (Z-degree of h) T h for the algebra generators
    for spec in ("cyclic:3", "b2"):
        W = build_group(spec)
        euT = euler_element_T(W)
        T = MPoly.var("T")
        for name, h in algebra_generators(W, with_T=True).items():
            i = z_degree(h)
            assert commutator(euT, h) == h.scale(i * T), (spec, name)


def test_poisson_euler_eigenvalues():
    W = build_group("b2")
    gens = named_center_generators(W)
    eu = gens["eu"]
    for name, z in gens.items():
        expected = z_degree(z)
        assert poisson_bracket(eu, z) == z.scale(expected), name


def test_poisson_antisymmetry_and_leibniz():
    W = build_group("b2")
    g = named_center_generators(W)
    pairs = [("eu", "delta"), ("eu'", "eu''"), ("sigma", "Pi"),
             ("delta", "eu'")]
    for a, b in pairs:
        assert poisson_bracket(g[a], g[b]) == -poisson_bracket(g[b], g[a])
    # {a, bc} = {a,b} c + b {a,c}
    a, b, c = g["eu'"], g["delta"], g["sigma"]
    lhs = poisson_bracket(a, multiply(b, c))
    rhs = multiply(poisson_bracket(a, b), c) + multiply(b, poisson_bracket(a, c))
    assert lhs == rhs


def test_poisson_jacobi():
    W = build_group("b2")
    g = named_center_generators(W)
    a, b, c = g["eu'"], g["eu''"], g["delta"]
    total = (poisson_bracket(a, poisson_bracket(b, c))
             + poisson_bracket(b, poisson_bracket(c, a))
             + poisson_bracket(c, poisson_bracket(a, b)))
    assert total.is_zero()


def test_twist_by_linear_character():
    # twisting is an algebra automorphism on sampled products
    W = build_group("b2")
    chars = {c.name: c for c in character_table(W)}
    eps_t = chars["eps_t"]
    rng = random.Random(4242)
    for _ in range(5):
        a = random_element(W, rng)
        b = random_element(W, rng)
        lhs = twist_by_linear_char(eps_t, multiply(a, b))
        rhs = multiply(twist_by_linear_char(eps_t, a),
                       twist_by_linear_char(eps_t, b))
        assert lhs == rhs
    # involutive
    a = random_element(W, rng)
    assert twist_by_linear_char(eps_t, twist_by_linear_char(eps_t, a)) == a


def test_k_coordinates_are_part_of_the_algebra():
    W = build_group("cyclic:3")
    eu_k = euler_element(W, basis="K")
    assert eu_k.basis == "K" and is_central(eu_k)
    assert bidegree(eu_k) == (1, 1)
    with pytest.raises(ValueError, match="algebra mismatch"):
        eu_k + euler_element(W)
    with pytest.raises(ValueError):
        twist_by_linear_char(character_table(W)[1], eu_k)
    with pytest.raises(ValueError):
        named_center_generators(build_group("b2"), basis="K")


def test_residue_summary():
    W = build_group("cyclic:2")
    s = W.index_of("s")
    elem = (PBWElement.monomial(W, (1,), W.identity, (2,))
            + PBWElement.monomial(W, (0,), s, (0,), MPoly.var("C1")))
    assert residue_summary(elem) == {"terms": 2,
                                     "leading_words": ["y*x^2", "s"],
                                     "bidegrees": [(1, 1), (1, 2)]}
    # a larger nonzero element: eu^4 - XY away from C = 0
    W = build_group("cyclic:4")
    g = named_center_generators(W)
    residue = g["eu"] ** 4 - multiply(g["X"], g["Y"])
    report = residue_summary(residue)
    assert set(report) == {"terms", "leading_words", "bidegrees"}
    assert report["terms"] == len(residue.terms) > 3
    assert len(report["leading_words"]) == 3
    assert all(isinstance(w, str) for w in report["leading_words"])
    assert report["bidegrees"] == sorted(report["bidegrees"])
    assert report["bidegrees"] == [(4, 4)]
    assert len(str(report)) < len(str(residue))
