"""Sparse multivariate polynomials, resultants, discriminants."""
from fractions import Fraction

import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from chered.exactnum import Cyclotomic, canon_scalar, primitive_root
from chered.multipoly import (MPoly, charpoly_berkowitz, discriminant,
                              resultant)
from oracles import (dense_charpoly_berkowitz, parse_poly, schoolbook_product,
                     substitute_per_term, sylvester_resultant)


x, y, t = MPoly.var("x"), MPoly.var("y"), MPoly.var("t")


def test_basic_arithmetic():
    p = (x + y) ** 2
    assert p == x ** 2 + 2 * x * y + y ** 2
    assert p.coefficient("x", 1) == 2 * y
    assert (p - p).is_zero()
    assert str(x ** 2 - y) == "x^2 - y"


def test_constant_value_and_negative_power_are_refused():
    assert (x - x + 3).constant_value() == 3
    with pytest.raises(ValueError, match="not a constant polynomial"):
        (x + 1).constant_value()
    with pytest.raises(ValueError, match="negative power of a polynomial"):
        x ** -1


def test_repeated_variable_is_rejected():
    # on ("x", "x") the term x*x would multiply by x to x^2 and add x to 2*x
    with pytest.raises(ValueError, match="repeated variable"):
        MPoly(("x", "x"), {(1, 1): 1})
    with pytest.raises(ValueError, match="repeated variable"):
        MPoly(("x", "y", "x"))


def test_exponent_of_another_length_is_rejected():
    for exp in ((), (1,), (1, 2, 3)):
        for c in (1, 0):
            with pytest.raises(ValueError, match="does not match"):
                MPoly(("x", "y"), {exp: c})
    with pytest.raises(ValueError, match="does not match"):
        MPoly((), {(0,): 5})


def test_printed_form():
    z3 = primitive_root(3)
    assert str(MPoly.zero()) == "0"
    assert str(z3 * x - 1) == "(z3)*x - 1"
    assert str(-x ** 2 + (1 + z3) * x) == "-x^2 + (1 + z3)*x"


def test_divexact():
    p = (x + y) * (x - y)
    assert p.divexact(x + y) == x - y
    with pytest.raises(ArithmeticError, match="not exact"):
        (x ** 2 + y).divexact(x + y)
    # exponents past 64 bits pack into wider fields
    big = x ** (2 ** 64) * y ** (2 ** 70) - 3
    assert (big * (x + y)).divexact(x + y) == big
    with pytest.raises(ArithmeticError, match="not exact"):
        (big * (x + y) + y).divexact(big)


@pytest.mark.parametrize("num, den", [
    (x, x + y ** 5),           # the remainder gains y^5, past x's exponents
    (1, x),
    (x ** 2, x + y ** 200),    # a quotient term y^200 past the dividend's
    (x ** 3, x + y ** 100),    # ... whose products would pass the fields
    (x ** 4 * y, x + y ** 60),
    # rejected at its second quotient term, not after 2^20 of them
    (x ** 2 ** 20, x + y ** (2 ** 20 + 1)),
    (x * y + 1, y),
    (x ** 3 - y ** 3, x + y),
    (x + y, 2 * x * y),
])
def test_divexact_rejects_inexact(num, den):
    with pytest.raises(ArithmeticError, match="not exact"):
        MPoly._coerce(num).divexact(den)
    with pytest.raises(ZeroDivisionError):
        MPoly._coerce(num).divexact(MPoly.zero())


def test_substitute_rejects_an_inexact_value():
    with pytest.raises(TypeError, match="cannot substitute 0.5 for x"):
        (x * y + 1).substitute({"x": 0.5})


def test_substitute():
    p = x ** 2 + 3 * x * y
    assert p.substitute({"x": 2}) == 4 + 6 * y
    assert p.substitute({"x": y}) == y ** 2 + 3 * y ** 2


@pytest.mark.parametrize("field", ["int", "Fraction", "Q(z5)"])
def test_substitute_matches_per_term_sum(field):
    """One map of all terms gives the running sum of the terms: the same
    variables, the same canonical coefficients and the same text, for
    scalar, polynomial and zero values, a value that shares a variable
    with the kept ones, and one whose terms cancel."""
    import random
    rng = random.Random({"int": 361, "Fraction": 362, "Q(z5)": 363}[field])
    z5 = primitive_root(5)
    draw = {"int": lambda: rng.randint(-3, 3),
            "Fraction": lambda: Fraction(rng.randint(-3, 3),
                                         rng.randint(1, 3)),
            "Q(z5)": lambda: rng.randint(-2, 2) + rng.randint(-2, 2) * z5
            + rng.randint(-1, 1) * z5 ** 3}[field]
    names = ("w", "x", "y", "z")
    a, b, u = MPoly.var("a"), MPoly.var("b"), MPoly.var("u")
    values = (draw(), 0, MPoly.zero(), a * draw() + b ** 2, u - y,
              z5 * a + 1, (x + b) * draw(), x - x + 2 * u)
    for _ in range(12):
        p = MPoly(names, {tuple(rng.randint(0, 3) for _ in names): draw()
                          for _ in range(rng.randint(0, 10))})
        for _ in range(4):
            chosen = rng.sample(names, rng.randint(1, 3))
            subs = {name: rng.choice(values) for name in chosen}
            got, want = p.substitute(subs), substitute_per_term(p, subs)
            assert got.vars == want.vars and got.terms == want.terms
            assert str(got) == str(want)
            assert all(map(is_canonical, got.terms.values()))
    # terms that cancel, and a variable that no term uses
    p = MPoly(names, {(0, 1, 1, 0): 1, (0, 1, 0, 1): -1, (0, 0, 0, 0): 3})
    for subs in ({"y": u, "z": u}, {"y": 2, "z": 2, "q": u}, {"w": u}):
        got, want = p.substitute(subs), substitute_per_term(p, subs)
        assert got.vars == want.vars and got.terms == want.terms


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


RESULTANT_CASES = {
    "swap-odd-degrees": (x ** 3 + y, x ** 5 + x + 2),
    "swap": (x ** 2 + y, x ** 5 + y * x + 1),
    "delta-3": (x ** 5 + y * x + 1, x ** 2 + y),
    "delta-0": (x ** 3 + y * x + 1, 2 * x ** 3 - x + y),
    "common-factor": ((x - y) * (x + 1), (x - y) * (x ** 2 + 3)),
    "constant-operand": (x ** 3 + y, 5 + y),
    "zero-operand": (x ** 2 + y, MPoly.zero()),
    "even-odd": (x ** 4 - y, x ** 2 + 1),
}


@pytest.mark.parametrize("case", RESULTANT_CASES)
def test_resultant_branches_match_sylvester_oracle(case):
    """The operand swap, Lazard's step for a degree drop of 2 or more,
    a constant or zero operand and a zero resultant, each against the
    oracle."""
    f, g = RESULTANT_CASES[case]
    assert resultant(f, g, "x") == sylvester_resultant(f, g, "x")


def _sparse_poly(rng, degree, draw, density=0.5):
    """A polynomial in x of the given degree over Z[y] or its extensions:
    each coefficient below the top one is present with the given density,
    a scalar from draw() times a power of y."""
    p = MPoly.const(draw() or 1) * x ** degree
    for k in range(degree):
        if rng.random() < density:
            p = p + MPoly.const(draw()) * y ** rng.randint(0, 2) * x ** k
    return p


def test_resultant_over_degree_gaps_and_common_factors(monkeypatch):
    """Against the oracle, in both degree orders: P = Q M + R with Q sparse
    and deg Q - deg R - 1 = 2..5, so that Lazard's step squares and
    multiplies by the odd bits, and operands with a common factor, so that
    a subresultant in the middle of the sequence is zero; over int,
    Fraction and Q(zeta_5) coefficients."""
    import random
    import chered.multipoly as multipoly
    rng = random.Random(20261020)
    z5 = primitive_root(5)
    draws = {
        "int": lambda: rng.randint(-3, 3),
        "Fraction": lambda: Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
        "Cyclotomic": lambda: (rng.randint(-2, 2)
                               + rng.randint(1, 2) * z5 ** rng.randint(1, 4)),
    }
    real, gaps = multipoly._lazard, set()

    def counted(x_, y_, n):
        gaps.add(n)
        return real(x_, y_, n)

    monkeypatch.setattr(multipoly, "_lazard", counted)
    for draw in draws.values():
        pairs = []
        for gap in (2, 3, 4, 5):
            e = rng.randint(1, 2)
            q = e + gap + 1
            Q = x ** q + MPoly.const(draw() or 1) * y
            R = _sparse_poly(rng, e, draw) + y
            pairs.append((Q * (x + draw() * y) + R, Q))
        for _ in range(2):
            h = _sparse_poly(rng, rng.randint(1, 2), draw, 1.0)
            pairs.append((h * _sparse_poly(rng, rng.randint(2, 4), draw),
                          h * _sparse_poly(rng, rng.randint(1, 3), draw)))
        for f, g in pairs:
            assert resultant(f, g, "x") == sylvester_resultant(f, g, "x")
            assert resultant(g, f, "x") == sylvester_resultant(g, f, "x")
        assert all(resultant(f, g, "x") == 0 for f, g in pairs[4:])
    assert gaps >= {2, 3, 4, 5}


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
    # disc(f(t^2)) = (-4)^d disc(f)^2 f(0) on the generic monic polynomial
    # of each degree d = 1..4, then on 20 random monic polynomials
    import random
    rng = random.Random(96321)
    generic = [t ** d + sum((MPoly.var(f"a{k}") * t ** k for k in range(d)),
                            MPoly.zero())
               for d in range(1, 5)]
    random_cases = [_random_monic(rng, rng.randint(1, 4)) for _ in range(20)]
    for trial, f in enumerate(generic + random_cases):
        d = f.degree_in("t")
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


@pytest.mark.parametrize("f, message", [
    (2 * t ** 2 + 1, "monic"), (MPoly.var("a") * t + 1, "monic"),
    (MPoly.const(3), "degree"), (MPoly.var("a") + 1, "degree"),
    (MPoly.zero(), "degree"),
])
def test_discriminant_rejects_non_monic_and_degree_0(f, message):
    with pytest.raises(ValueError, match=message):
        discriminant(f, "t")


def test_charpoly_berkowitz():
    mat = [[MPoly.const(2), MPoly.const(1)],
           [MPoly.const(0), MPoly.const(3)]]
    cp = charpoly_berkowitz(mat, "t")
    assert cp == (t - 2) * (t - 3)
    a = MPoly.var("a")
    mat = [[a, MPoly.const(1)], [MPoly.const(1), a]]
    assert charpoly_berkowitz(mat, "t") == (t - a) ** 2 - 1


NONZERO_ENTRIES = st.one_of(
    st.integers(-3, 3).filter(bool),
    st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(2, 3)),
    st.builds(lambda c, e, f: c + e * x + f * x * y, st.integers(-2, 2),
              st.integers(-2, 2), st.integers(-1, 1)).filter(bool))
ZERO_ENTRIES = st.sampled_from([0, Fraction(0), MPoly.zero(), x - x])


@st.composite
def sparse_matrices(draw):
    """An n x n matrix, 1 <= n <= 5, of int, Fraction and polynomial
    entries, most of them zero in one of their forms, with some rows and
    columns wholly zero."""
    n = draw(st.integers(1, 5))
    cells = draw(st.lists(st.one_of(ZERO_ENTRIES, ZERO_ENTRIES,
                                    NONZERO_ENTRIES),
                          min_size=n * n, max_size=n * n))
    rows = draw(st.sets(st.integers(0, n - 1), max_size=2))
    cols = draw(st.sets(st.integers(0, n - 1), max_size=2))
    return [[0 if i in rows or j in cols else cells[i * n + j]
             for j in range(n)] for i in range(n)]


@settings(max_examples=80, deadline=None)
@given(sparse_matrices())
@example([[0]])
@example([[x - 1]])
@example([[MPoly.zero()] * 4 for _ in range(4)])
@example([[0, 1, 0], [0, 0, 1], [Fraction(1, 2), 0, 0]])
def test_sparse_berkowitz_matches_dense_oracle(mat):
    # skipping the products with a zero factor changes no coefficient
    assert charpoly_berkowitz(mat, "t") == dense_charpoly_berkowitz(mat, "t")


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(-3, 3), min_size=2, max_size=4),
       st.lists(st.integers(-3, 3), min_size=2, max_size=4))
def test_mul_commutes(cs, ds):
    p = sum((MPoly.const(c) * x ** i for i, c in enumerate(cs)), MPoly.zero())
    q = sum((MPoly.const(c) * y ** i for i, c in enumerate(ds)), MPoly.zero())
    assert p * q == q * p
    assert (p + q) ** 2 == p ** 2 + 2 * p * q + q ** 2


# exponents around the 8-, 16- and 32-bit field boundaries of the packed
# product kernel, small ones that push a sum across them, and large ones
BOUNDARY_EXPONENTS = sorted({2 ** k + d for k in (7, 8, 15, 16, 31, 32)
                             for d in (-1, 0, 1)})
exponents = st.one_of(st.integers(0, 3), st.sampled_from(BOUNDARY_EXPONENTS),
                      st.integers(0, 2 ** 20))
scalars = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.sampled_from([primitive_root(4), 1 - primitive_root(4) / 2])
).filter(lambda c: c != 0)
NAMES = tuple("abcdefgh")


@st.composite
def polys(draw, nterms, exponents=exponents):
    """A polynomial with nterms terms on 1 to 8 variables in a drawn
    order."""
    names = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=8,
                          unique=True))
    terms = draw(st.dictionaries(
        st.tuples(*[exponents] * len(names)), scalars,
        min_size=nterms, max_size=nterms))
    return MPoly(names, terms)


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.integers(0, 4).flatmap(
                     lambda n: polys(n, st.integers(0, 5))),
                 scalars.map(MPoly.const), st.just(MPoly.zero())),
       st.sampled_from(NAMES + ("t",)))
def test_univariate_view_round_trip(p, name):
    # the zero polynomial, constants on no variables, and a variable that p
    # lacks ("t" always, a drawn letter often) are all drawn
    coeffs = p.as_univariate(name)
    assert MPoly.from_univariate(coeffs, name) == p
    assert len(coeffs) == p.degree_in(name) + 1
    assert not coeffs or not coeffs[-1].is_zero()
    assert all(c.degree_in(name) <= 0 for c in coeffs)


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.integers(0, 4).flatmap(
                     lambda n: polys(n, st.integers(0, 5))),
                 scalars.map(MPoly.const), st.just(MPoly.zero())),
       st.sampled_from(NAMES + ("t",)))
def test_coefficient_reads_the_univariate_view(p, name):
    # each coefficient is also the sum of the terms of p of that degree in
    # name, with name dropped; absent variables count as degree 0
    coeffs = p.as_univariate(name)
    i = p.vars.index(name) if name in p.vars else None
    rest = tuple(v for v in p.vars if v != name)
    for k in range(len(coeffs)):
        assert p.coefficient(name, k) == coeffs[k]
        assert coeffs[k] == MPoly(rest, {
            exp[:i] + exp[i + 1:] if i is not None else exp: c
            for exp, c in p.terms.items()
            if (exp[i] if i is not None else 0) == k})
    for k in (-1, p.degree_in(name) + 1):
        assert p.coefficient(name, k).is_zero()


def test_from_univariate_rejects_the_variable_in_a_coefficient():
    with pytest.raises(ValueError, match="involves t"):
        MPoly.from_univariate([1, t], "t")


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(polys(n), polys(n))))
def test_divexact_undoes_a_product(pair):
    # exponents up to 2^20 and around the 8-, 16- and 32-bit field limits,
    # on variables in a drawn order, over int, Fraction and Cyclotomic
    a, b = pair
    product = a * b
    assert product.divexact(b) == a
    assert product.divexact(a) == b
    if not b.is_constant():
        with pytest.raises(ArithmeticError, match="not exact"):
            (product + 1).divexact(b)


# a failing example is reported as drawn: each example costs tens of
# milliseconds of exact arithmetic, and shrinking a failure of a kernel with
# too narrow fields ran into Hypothesis's five-minute limit per test
@pytest.mark.parametrize("many_pairs", [False, True],
                         ids=["few-pairs", "many-pairs"])
@settings(max_examples=30, deadline=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(data=st.data())
def test_mul_matches_schoolbook_oracle(many_pairs, data):
    # operands of fewer than 64 term pairs, or of at least 64
    if many_pairs:
        la = data.draw(st.integers(8, 10))
        lb = data.draw(st.integers(-(-64 // la), 10))
    else:
        la = data.draw(st.integers(0, 7))
        lb = data.draw(st.integers(0, 63 // max(la, 1)))
    a, b = data.draw(polys(la)), data.draw(polys(lb))
    # (a - b)(a + b) cancels its cross terms; a one-term factor, the
    # constant 1 and the zero polynomial take the shift-and-scale path, and
    # p * p the packed product like any other pair; the zero polynomial and
    # a constant on no variables are squared on the shift-and-scale path
    m, one, zero, s = data.draw(polys(1)), MPoly.const(1), MPoly.zero(), a + b
    k, several = MPoly.const(data.draw(scalars)), data.draw(polys(2))
    for lhs, rhs in ((a, b), (b, a), (a - b, a + b), (m, a), (b, m), (m, m),
                     (one, a), (b, one), (zero, a), (b, zero),
                     (a, a), (b, b), (s, s), (k, k), (zero, zero),
                     (zero, several)):
        product, expected = lhs * rhs, schoolbook_product(lhs, rhs)
        assert product.vars == expected.vars
        assert product.terms == expected.terms
        assert all(map(is_canonical, product.terms.values()))
    c = data.draw(st.one_of(scalars, st.just(0)))
    for product in (a * c, c * a):
        expected = schoolbook_product(MPoly.const(c), a)
        assert product.vars == expected.vars
        assert product.terms == expected.terms
        assert all(map(is_canonical, product.terms.values()))


def is_canonical(c) -> bool:
    """A nonzero scalar in its one representation: an integral Fraction
    must be an int."""
    return c != 0 and (type(c) in (int, Cyclotomic)
                       or type(c) is Fraction and c.denominator > 1)


def test_products_store_integral_fractions_as_int():
    h, z4 = Fraction(1, 2), primitive_root(4)
    ys = sum((y ** k for k in range(11)), MPoly.zero())
    eights = sum((2 * x ** k for k in range(8)), MPoly.zero())
    halves = sum((h * y ** k for k in range(8)), MPoly.zero())
    cases = [
        ((2 * x) * (h * y + h), {(1, 1): 1, (1, 0): 1}),     # one term
        (MPoly.const(2) * (h * x), {(1,): 1}),               # constant
        ((2 * x + 2) * (h * x + h), {(2,): 1, (1,): 2, (0,): 1}),
        ((h * x + y) * (h * x + y), {(2, 0): Fraction(1, 4), (1, 1): 1,
                                     (0, 2): 1}),
        ((z4 * x) * (z4 * y), {(1, 1): -1}),                 # Cyclotomic
    ]
    for product, terms in cases:
        assert product.terms == terms
        assert all(map(is_canonical, product.terms.values()))
    packed = eights * halves                                 # 64 pairs
    assert set(packed.terms.values()) == {1}
    p = h * x + ys                                           # 78 pairs
    square = p * p
    assert square.terms == schoolbook_product(p, p).terms
    assert square.terms[(1, 0)] == 1
    for q in (packed, square):
        assert all(map(is_canonical, q.terms.values()))


@pytest.mark.parametrize("bits", [8, 16, 32, 64])
def test_square_exponent_one_past_a_field(bits):
    # the square doubles the largest exponent, 2^(bits - 1), to 2^bits
    a = x ** (2 ** (bits - 1)) * sum((y ** k for k in range(12)), MPoly.zero())
    square = a * a
    assert square.terms == schoolbook_product(a, a).terms
    assert square.terms[(2 ** bits, 22)] == 1
    assert a ** 2 == square


@pytest.mark.parametrize("bits", [8, 16, 32, 64])
def test_mul_exponent_sum_one_past_a_field(bits):
    # the largest exponent of the product, (2^bits - 1) + 1, takes one bit
    # more than a field of `bits` bits holds; past 64 bits the fields are
    # packed by shifts
    z = MPoly.var("z")
    a = x ** (2 ** bits - 1) * sum((y ** k for k in range(8)), MPoly.zero())
    b = (1 + x) * (1 + y) * (1 + z)
    product = a * b
    assert product.terms == schoolbook_product(a, b).terms
    assert product.terms[(2 ** bits, 8, 1)] == 1
