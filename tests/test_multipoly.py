"""Sparse multivariate polynomials, resultants, discriminants, series."""
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from chered.multipoly import (MPoly, TruncSeries2, canon_scalar,
                              charpoly_berkowitz, discriminant, parse_poly,
                              poly_sqrt, resultant)
from oracles import sylvester_resultant


x, y, t = MPoly.var("x"), MPoly.var("y"), MPoly.var("t")


def test_basic_arithmetic():
    p = (x + y) ** 2
    assert p == x ** 2 + 2 * x * y + y ** 2
    assert p.coefficient("x", 1) == 2 * y
    assert (p - p).is_zero()
    assert str(x ** 2 - y) == "x^2 - y"


def test_divexact():
    p = (x + y) * (x - y)
    assert p.divexact(x + y) == x - y
    with pytest.raises(ArithmeticError):
        (x ** 2 + y).divexact(x + y)


def test_substitute():
    p = x ** 2 + 3 * x * y
    assert p.substitute({"x": 2}) == 4 + 6 * y
    assert p.substitute({"x": y}) == y ** 2 + 3 * y ** 2


def test_parse_poly_roundtrip():
    p = parse_poly("x^2 - 3/2*x*y + 7")
    assert p == x ** 2 - Fraction(3, 2) * x * y + 7
    assert parse_poly(str(p)) == p


def _random_poly(rng, nvars=2, deg=3, nterms=4):
    names = ["x", "y", "z"][:nvars]
    p = MPoly.zero()
    for _ in range(nterms):
        c = rng.randint(-5, 5)
        mono = MPoly.const(c)
        for n in names:
            mono = mono * MPoly.var(n) ** rng.randint(0, deg)
        p = p + mono
    return p


def test_resultant_matches_sylvester_oracle():
    import random
    rng = random.Random(20240817)
    for _ in range(20):
        f = _random_poly(rng) + x ** 4
        g = _random_poly(rng) + x ** 3
        assert resultant(f, g, "x") == sylvester_resultant(f, g, "x")


def test_resultant_of_products():
    f = x - y
    g = x - 2 * y
    h = x + y ** 2
    lhs = resultant(f * g, h, "x")
    assert lhs == resultant(f, h, "x") * resultant(g, h, "x")


def _random_monic(rng, d):
    p = t ** d
    for k in range(d):
        c = Fraction(rng.randint(-6, 6))
        p = p + MPoly.const(c) * t ** k
    return p


def test_discriminant_even_square_identity():
    # disc(f(t^2)) = (-4)^d disc(f)^2 f(0) on 20 random monic polynomials
    import random
    rng = random.Random(96321)
    for trial in range(20):
        d = rng.randint(1, 4)
        f = _random_monic(rng, d)
        F = MPoly.zero()
        for k in range(d + 1):
            F = F + f.coefficient("t", k) * t ** (2 * k)
        lhs = discriminant(F, "t")
        rhs = ((-4) ** d) * discriminant(f, "t") ** 2 * f.coefficient("t", 0)
        assert lhs == rhs, (trial, str(f))


def test_discriminant_shift_identity():
    # disc(t f(t)) = disc(f) f(0)^2 on 20 random monic polynomials
    import random
    rng = random.Random(40511)
    for trial in range(20):
        d = rng.randint(1, 4)
        f = _random_monic(rng, d)
        assert (discriminant(t * f, "t")
                == discriminant(f, "t") * f.coefficient("t", 0) ** 2), trial


def test_discriminant_known_values():
    # quadratic and cubic formulas
    a, b = MPoly.var("a"), MPoly.var("b")
    assert discriminant(t ** 2 + a * t + b, "t") == a ** 2 - 4 * b
    p, q = MPoly.var("p"), MPoly.var("q")
    assert discriminant(t ** 3 + p * t + q, "t") == -4 * p ** 3 - 27 * q ** 2


def test_poly_sqrt():
    p = (x ** 2 - 2 * x * y + 3) ** 2
    r = poly_sqrt(p)
    assert r is not None and r * r == p
    assert poly_sqrt(x ** 2 + y) is None
    assert poly_sqrt(MPoly.const(Fraction(9, 4))) == MPoly.const(Fraction(3, 2))


def test_charpoly_berkowitz():
    mat = [[MPoly.const(2), MPoly.const(1)],
           [MPoly.const(0), MPoly.const(3)]]
    cp = charpoly_berkowitz(mat, "t")
    assert cp == (t - 2) * (t - 3)
    a = MPoly.var("a")
    mat = [[a, MPoly.const(1)], [MPoly.const(1), a]]
    assert charpoly_berkowitz(mat, "t") == (t - a) ** 2 - 1


def test_trunc_series():
    geom = TruncSeries2(6, {(0, 0): 1, (1, 0): -1}).invert()
    assert all(geom.get(i, 0) == 1 for i in range(7))
    s = TruncSeries2(4, {(0, 0): 1, (1, 1): 1})
    assert (s * s.invert()).coeffs == {(0, 0): 1}


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(-3, 3), min_size=2, max_size=4),
       st.lists(st.integers(-3, 3), min_size=2, max_size=4))
def test_mul_commutes(cs, ds):
    p = sum((MPoly.const(c) * x ** i for i, c in enumerate(cs)), MPoly.zero())
    q = sum((MPoly.const(c) * y ** i for i, c in enumerate(ds)), MPoly.zero())
    assert p * q == q * p
    assert (p + q) ** 2 == p ** 2 + 2 * p * q + q ** 2
