"""Cyclotomic and rational arithmetic, and the one representation of each
number: int for integers, Fraction for the other rationals, Cyclotomic for
irrationals only."""
import copy
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from chered.exactnum import (Cyclotomic, _polydiv_exact, canon_scalar,
                             cyclotomic_polynomial, power, primitive_root,
                             scalar_div, scalar_pow, trace_pairing)
from chered.multipoly import MPoly
from chered.reflgrp import build_group, character_table, param_map
from chered.verma import omega_table
from oracles import (cyclotomic_coordinates, cyclotomic_galois,
                     cyclotomic_inverse, cyclotomic_lift, cyclotomic_mul)


@pytest.mark.parametrize("num, den", [([1, 1], [0, 2]), ([1, 0, 1], [1, 1])],
                         ids=["leading-coefficient", "remainder"])
def test_polydiv_exact_refuses_an_inexact_division(num, den):
    # 1 + x by 2x fails at the leading coefficient, 1 + x^2 by 1 + x leaves
    # the remainder 2
    with pytest.raises(ArithmeticError, match="non-exact division"):
        _polydiv_exact(num, den)


def test_inverse_refuses_a_norm_that_is_not_rational(monkeypatch):
    # with the Galois conjugate of z3 forged to z3 itself, the norm is z3^2
    import chered.exactnum as exactnum
    monkeypatch.setattr(exactnum, "_galois", lambda e, num, a: num)
    with pytest.raises(ArithmeticError, match="norm of z3 is not rational"):
        primitive_root(3).inverse()


def assert_canonical(x):
    """x is an int when integral, a Fraction with denominator > 1 when
    rational, and otherwise a Cyclotomic of order >= 3 (never 2 mod 4, whose
    field is that of order/2) with phi(order) integer coordinates, a nonzero
    one past the first, over a denominator >= 1 that shares no factor with
    all of them."""
    if isinstance(x, Cyclotomic):
        assert x.order >= 3 and x.order % 4 != 2, x
        assert len(x.num) == len(cyclotomic_polynomial(x.order)) - 1, x
        assert all(type(c) is int for c in x.num), x
        assert type(x.den) is int and x.den >= 1, x
        assert math.gcd(x.den, *x.num) == 1, x
        assert any(x.num[1:]), x
    elif isinstance(x, Fraction):
        assert x.denominator > 1, x
    else:
        assert type(x) is int, x


def test_primitive_root_powers_cycle():
    for e in (1, 2, 3, 4, 6, 8, 12):
        z = primitive_root(e)
        assert z ** e == 1
        for k in range(1, e):
            assert z ** k != 1


def test_orders_and_exponents_below_1_are_refused():
    for order_of in (cyclotomic_polynomial, primitive_root):
        with pytest.raises(ValueError, match="order must be positive"):
            order_of(0)
    with pytest.raises(ValueError, match="power needs an exponent >= 1"):
        power(primitive_root(3), 0)


def test_scalar_pow_is_exact():
    # a negative power of an int was a float: primitive_root(2) ** -1 == -1.0
    z3, z4 = primitive_root(3), primitive_root(4)
    cases = [(primitive_root(2), -1, -1), (primitive_root(1), -3, 1),
             (-1, -4, 1), (2, -2, Fraction(1, 4)), (-3, 3, -27), (5, 0, 1),
             (0, 0, 1), (0, 3, 0), (Fraction(2, 3), -2, Fraction(9, 4)),
             (Fraction(4, 2), 3, 8), (Fraction(-1, 2), -3, -8),
             (z4, 2, -1), (z4, -2, -1), (z4, -1, -z4), (z4, -3, z4),
             (z3, -1, z3 ** 2), (z3, -4, z3 ** 2), (z3, 6, 1),
             (1 + z3, -1, -z3)]
    for c, n, expected in cases:
        value = scalar_pow(c, n)
        assert value == expected and type(value) is type(expected), (c, n)
        assert_canonical(value)
    for e in range(1, 9):
        z = primitive_root(e)
        for k in range(-2 * e, 2 * e + 1):
            assert scalar_pow(z, k) == scalar_pow(z, k % e)
    with pytest.raises(ZeroDivisionError):
        scalar_pow(0, -1)


def test_minimal_polynomial_is_satisfied():
    for e in (3, 4, 5, 6, 8):
        z = primitive_root(e)
        phi = cyclotomic_polynomial(e)
        acc = 0
        for k, c in enumerate(phi):
            acc = acc + z ** k * c
        assert acc == 0


def test_order_demotion():
    # powers that land in a smaller field come back with the smaller order
    z6 = primitive_root(6)
    assert (z6 ** 2).order == 3
    z12 = primitive_root(12)
    assert (z12 ** 4).order == 3
    assert (z12 ** 3).order == 4
    assert (z12 ** 6) == -1
    # Q(z_3) and Q(z_5) inside Q(z_15), whose power basis does not contain
    # theirs
    z15 = primitive_root(15)
    assert (z15 ** 5).order == 3 and (z15 ** 3).order == 5
    assert (z15 ** 3 + z15 ** 12).order == 5
    assert z15 ** 5 + z15 ** 10 == -1
    # a sum over a denominator that lands in a subfield keeps its denominator
    a = z15 ** 3 / 3 + z15
    b = z15 ** 12 / 3 - z15
    z5 = primitive_root(5)
    assert a + b == (z5 + z5 ** 4) / 3 and str(a + b) == "-1/3 - 1/3*z5^2 - 1/3*z5^3"


def test_tower_coherence():
    # zeta_d = zeta_e^(e/d) whenever d divides e
    for e, d in ((6, 3), (6, 2), (12, 4), (12, 6), (8, 4), (15, 3), (15, 5)):
        assert primitive_root(e) ** (e // d) == primitive_root(d)


def test_inverse_and_conjugate():
    z = primitive_root(5)
    x = 1 + z + z ** 3
    assert x * x.inverse() == 1
    # conjugation is the automorphism zeta -> zeta^(-1)
    assert z.conjugate() == z ** 4
    y = x * x.conjugate()
    assert y == y.conjugate()


def test_known_values():
    z3 = primitive_root(3)
    assert 1 + z3 + z3 ** 2 == 0
    z4 = primitive_root(4)
    assert z4 * z4 == -1
    z8 = primitive_root(8)
    sqrt2 = z8 + z8 ** 7
    assert sqrt2 * sqrt2 == 2


small_cyclo = st.builds(
    lambda e, coeffs: sum((primitive_root(e) ** k * c for k, c in
                           enumerate(coeffs)), 0),
    st.sampled_from([1, 2, 3, 4, 6]),
    st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=4),
)


@settings(max_examples=40, deadline=None)
@given(small_cyclo, small_cyclo, small_cyclo)
def test_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * (b * c) == (a * b) * c
    assert a + b == b + a
    assert a * b == b * a


@settings(max_examples=30, deadline=None)
@given(small_cyclo)
def test_inverse_roundtrip(a):
    if a == 0:
        with pytest.raises(ZeroDivisionError):
            scalar_div(1, a)
    elif isinstance(a, Cyclotomic):
        assert a * a.inverse() == 1
    else:
        assert a * scalar_div(1, a) == 1


# sums of integer multiples of products of powers of roots of unity; Python
# keeps int (+, -, *) int, so every rational result is canonical only if
# each Cyclotomic operation and scalar_div return canonical scalars.  Q(z_15)
# has subfields Q(z_3) and Q(z_5) whose power bases are not sub-bases of its
# own, so finding a sum's smallest field there needs a row reduction.  One
# example mixes at most three orders with lcm <= 120 (an inverse costs
# phi(lcm) - 1 products, and phi(840) = 192).
ORDERS = [1, 2, 3, 4, 5, 6, 7, 8, 12, 15]


def _sums_of_products(orders):
    root_power = st.tuples(st.sampled_from(orders),
                           st.integers(min_value=0, max_value=24))
    monomial = st.tuples(st.integers(min_value=-3, max_value=3),
                         st.lists(root_power, min_size=1, max_size=3))
    return st.lists(monomial, min_size=1, max_size=4)


sums_of_products = (
    st.lists(st.sampled_from(ORDERS), min_size=1, max_size=3, unique=True)
    .filter(lambda orders: math.lcm(*orders) <= 120)
    .flatmap(_sums_of_products))


def _evaluate(terms, check=lambda x: None):
    total = 0
    for q, powers in terms:
        prod = q
        for e, k in powers:
            factor = primitive_root(e) ** k
            check(factor)
            prod = prod * factor
            check(prod)
        total = total + prod
        check(total)
        check(total - prod)
    return total


@settings(max_examples=60, deadline=None)
@given(sums_of_products)
def test_results_are_canonical(terms):
    total = _evaluate(terms, assert_canonical)
    assert_canonical(scalar_div(total, 2))
    assert_canonical(total.conjugate())
    if total != 0:
        assert_canonical(scalar_div(1, total))


@settings(max_examples=40, deadline=None)
@given(sums_of_products)
def test_inverse_is_exact(terms):
    x = _evaluate(terms)
    if isinstance(x, Cyclotomic):
        y = x.inverse()
        assert x * y == 1
        assert y.order == x.order


# The integer-coordinate kernel against the Fraction-coordinate oracle: an
# operand is a rational (order 1) or an element of Q(z_e) given by rational
# coordinates, built with the kernel's own arithmetic; every result is
# compared coordinate by coordinate once both sides are lifted into the
# field of the lcm of the operand orders.  The operands reach each fast
# path of the kernel: a same-order pair, a pair over one denominator, a
# single-coordinate factor c*z^k (c = 1 and -1 among them), and int and
# Fraction operands (0, 1 and -1 among them).
KERNEL_ORDERS = [3, 4, 5, 7, 8, 9, 12, 15]

rationals = st.one_of(
    st.sampled_from([0, 1, -1]),
    st.integers(min_value=-6, max_value=6),
    st.fractions(min_value=-5, max_value=5, max_denominator=12))
small_ints = st.integers(min_value=-4, max_value=4)


def _phi(e):
    return len(cyclotomic_polynomial(e)) - 1


def _single(phi, k, c):
    return [0] * k + [c] + [0] * (phi - 1 - k)


def _coordinates(e):
    """Rational, integer or single-coordinate coordinates in Q(z_e)."""
    phi = _phi(e)
    return st.one_of(
        st.lists(rationals, min_size=phi, max_size=phi),
        st.lists(small_ints, min_size=phi, max_size=phi),
        st.builds(_single, st.just(phi),
                  st.integers(min_value=0, max_value=phi - 1),
                  st.one_of(st.sampled_from([1, -1]), rationals)))


def _element_of_order(e):
    return _coordinates(e).map(lambda coords: (e, coords))


def _over_one_denominator(e, den, u, v):
    """Two elements of Q(z_e) with integer coordinates u and v over den;
    the last coordinate is 1, so neither has a content factor in common
    with den and both keep den once built."""
    return tuple((e, [Fraction(c, den) for c in w[:-1]] + [Fraction(1, den)])
                 for w in (u, v))


field_elements = st.sampled_from(KERNEL_ORDERS).flatmap(_element_of_order)
kernel_operands = st.one_of(
    rationals.map(lambda q: (1, [Fraction(q)])), field_elements)
kernel_pairs = st.one_of(
    st.tuples(kernel_operands, kernel_operands),
    st.sampled_from(KERNEL_ORDERS).flatmap(
        lambda e: st.tuples(_element_of_order(e), _element_of_order(e))),
    st.sampled_from(KERNEL_ORDERS).flatmap(
        lambda e: st.builds(
            _over_one_denominator, st.just(e),
            st.integers(min_value=1, max_value=12),
            st.lists(small_ints, min_size=_phi(e), max_size=_phi(e)),
            st.lists(small_ints, min_size=_phi(e), max_size=_phi(e)))))


def _build(e, coords):
    if e == 1:
        return canon_scalar(Fraction(coords[0]))
    x = 0
    for k, c in enumerate(coords):
        x = x + c * primitive_root(e) ** k
    assert cyclotomic_coordinates(x, e) == [Fraction(c) for c in coords]
    return x


def _oracle_power(e, vec, n):
    if n < 0:
        vec, n = cyclotomic_inverse(e, vec), -n
    out = cyclotomic_coordinates(1, e)
    for _ in range(n):
        out = cyclotomic_mul(e, out, vec)
    return out


def _agrees(result, e, expected):
    assert_canonical(result)
    assert cyclotomic_coordinates(result, e) == expected, (result, e)


def _check_against_oracle(a, b, n):
    (da, va), (db, vb) = a, b
    x, y = _build(da, va), _build(db, vb)
    if not (isinstance(x, Cyclotomic) or isinstance(y, Cyclotomic)):
        return False
    e = math.lcm(da, db)
    ca, cb = cyclotomic_lift(va, da, e), cyclotomic_lift(vb, db, e)
    _agrees(x + y, e, [u + v for u, v in zip(ca, cb)])
    _agrees(x - y, e, [u - v for u, v in zip(ca, cb)])
    _agrees(x * y, e, cyclotomic_mul(e, ca, cb))
    if y != 0:
        inv_b = cyclotomic_lift(cyclotomic_inverse(db, vb), db, e)
        _agrees(x / y, e, cyclotomic_mul(e, ca, inv_b))
    for z, d, v in ((x, da, va), (y, db, vb)):
        if isinstance(z, Cyclotomic):
            _agrees(z.conjugate(), d, cyclotomic_galois(d, v, -1))
            _agrees(z.inverse(), d, cyclotomic_inverse(d, v))
            _agrees(z ** n, d, _oracle_power(d, v, n))
    return True


@settings(max_examples=120, deadline=None)
@given(kernel_pairs, st.integers(min_value=-3, max_value=3))
def test_kernel_matches_fraction_oracle(pair, n):
    assume(_check_against_oracle(*pair, n))


# one example of each fast path, so that none rests on what the search draws
F = Fraction
FAST_PATH_CASES = {
    "same order": ((5, [1, 2, 0, -1]), (5, [0, 3, 1, 1])),
    "same order, one denominator": ((8, [F(1, 3), 0, F(2, 3), F(1, 3)]),
                                    (8, [0, F(1, 3), 0, F(-1, 3)])),
    "same order, sum drops to Q(z4)": ((8, [1, 1, 1, 0]), (8, [0, -1, 0, 0])),
    "same order, sum is rational": ((5, [2, 1, 0, 3]), (5, [0, -1, 0, -3])),
    "z^k factor": ((7, [1, -2, 3, 0, 1, 5]), (7, [0, 0, 0, 0, 1, 0])),
    "-z^k factor": ((9, [1, 0, 2, 0, 0, -1]), (9, [0, 0, 0, 0, 0, -1])),
    "c*z^k factor": ((12, [F(1, 2), 1, 0, 3]), (12, [0, F(-3, 4), 0, 0])),
    "z^k product drops to Q(z3)": ((12, [0, 1, 0, 0]), (12, [0, 2, 0, 0])),
    "z^k product is rational": ((5, [0, 0, 0, 1]), (5, [0, 1, 0, 0])),
    "mixed orders": ((15, [1, 0, 2, 0, 0, 1, 0, -1]), (5, [0, 1, 0, 0])),
    "int": ((5, [1, 2, 0, -1]), (1, [F(3)])),
    "int sharing a factor with den": ((7, [F(1, 6), 0, F(5, 6), 0, 0, 0]),
                                      (1, [F(-3)])),
    "int 1": ((5, [1, 2, 0, -1]), (1, [F(1)])),
    "int -1": ((4, [F(1, 2), 1]), (1, [F(-1)])),
    "int 0": ((3, [0, F(5, 6)]), (1, [F(0)])),
    "Fraction": ((7, [0, 1, 0, 0, 0, 2]), (1, [F(-2, 9)])),
    "rational on the left": ((1, [F(3, 2)]), (8, [0, 1, 0, 1])),
}


@pytest.mark.parametrize("case", sorted(FAST_PATH_CASES))
def test_fast_paths_match_fraction_oracle(case):
    a, b = FAST_PATH_CASES[case]
    for n in (-2, 0, 1, 3):
        assert _check_against_oracle(a, b, n)


def test_equal_values_hash_equal_across_fields():
    z3, z4, z6, z8 = (primitive_root(e) for e in (3, 4, 6, 8))
    # z6**2 is computed in Q(z6), the Q(z8) sum drops into Q(z4)
    pairs = [(z6 ** 2, z3), ((z8 + 1 + z8 ** 2) + (-z8), 1 + z4),
             (z8 ** 2 * 3, 3 * z4), ((z8 + z8 ** 3) * (z8 - z8 ** 3), 2 * z4)]
    for x, y in pairs:
        assert x == y and hash(x) == hash(y), (x, y)
        assert (x.order, x.num, x.den) == (y.order, y.num, y.den)
        assert len({x, y}) == 1 and {x: 1}[y] == 1


def test_cyclotomic_is_immutable():
    x = (1 + primitive_root(5)) / 3
    for name in ("order", "num", "den", "other"):
        with pytest.raises(AttributeError):
            setattr(x, name, 1)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert (x.order, x.num, x.den) == (5, (1, 1, 0, 0), 3)
    assert copy.deepcopy(x) == x and pickle.loads(pickle.dumps(x)) == x


# The eleven arithmetic methods the benchmark's tracer patches on the class
# (perfbench/layers.py), each with expressions that must call it, over
# every fast path; a division or a negative power inverts through
# `inverse`, and a power or a division multiplies through `__mul__`.  A
# rewrite that routes an operation around one of them hides its cost from
# the per-layer counts.
_z5, _z8 = primitive_root(5), primitive_root(8)
_x, _y = 1 + 2 * _z5, _z5 ** 2 - _z5 ** 3
OPERATIONS = {
    "__add__": [lambda: _x + _y, lambda: _x + _z8, lambda: _x + 0,
                lambda: _x + 2, lambda: _x + Fraction(1, 2), lambda: _x + (-_x)],
    "__radd__": [lambda: 0 + _x, lambda: 2 + _x, lambda: Fraction(1, 2) + _x],
    "__mul__": [lambda: _x * _y, lambda: _x * _z5, lambda: _x * _z8,
                lambda: _x * 1, lambda: _x * 0, lambda: _x * -3,
                lambda: _x * Fraction(2, 3), lambda: _x ** 3, lambda: _x / _y],
    "__rmul__": [lambda: 1 * _x, lambda: -1 * _x, lambda: Fraction(2, 3) * _x],
    "inverse": [lambda: _x.inverse(), lambda: _x / _y, lambda: 1 / _x,
                lambda: _x ** -2],
    "__sub__": [lambda: _x - _y, lambda: _x - 1, lambda: _x - Fraction(1, 3)],
    "__rsub__": [lambda: 1 - _x, lambda: Fraction(1, 3) - _x],
    "__neg__": [lambda: -_x],
    "__truediv__": [lambda: _x / _y, lambda: _x / 2, lambda: _x / Fraction(2, 3)],
    "__rtruediv__": [lambda: 1 / _x, lambda: Fraction(2, 3) / _x],
    "__pow__": [lambda: _x ** 0, lambda: _x ** 1, lambda: _x ** 3,
                lambda: _x ** -2],
}


@pytest.mark.parametrize("name", sorted(OPERATIONS))
def test_operations_run_through_their_method(name, monkeypatch):
    original = vars(Cyclotomic)[name]
    expected = [expr() for expr in OPERATIONS[name]]
    calls = []

    def traced(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(Cyclotomic, name, traced)
    for expr, value in zip(OPERATIONS[name], expected):
        calls.clear()
        assert expr() == value
        assert calls, (name, value)


def test_printed_form():
    z5, z8 = primitive_root(5), primitive_root(8)
    assert str((1 + z5) / 3) == "1/3 + 1/3*z5"
    assert str(-z8 / 2) == "-1/2*z8"
    assert str(z5 / 3) == "1/3*z5"
    assert str(Fraction(-2, 3) * z5 ** 2 + z5 ** 3 - 2) == "-2 - 2/3*z5^2 + z5^3"
    assert str(2 * z8 - z8 ** 3) == "2*z8 - z8^3"
    assert str((1 + z5).inverse()) == "-z5 - z5^3"
    assert str((2 + 3 * z8 ** 2) / Fraction(7, 4)) == "8/7 + 12/7*z4"


# trace_pairing against the sum of the Galois conjugates of each product,
# taken on Fraction coordinates.  The entries are ints, Fractions and
# elements of Q(z_d) for the divisors d of the order (sums of rational
# multiples of powers of z_e, which normalize to their smallest field); a
# list of rationals alone takes the phi(e) x y path.  One nonzero entry from
# a field outside Q(z_e), placed in either list, must raise.
TRACE_ORDERS = [1, 2, 3, 4, 5, 6, 8, 12]


def _trace_entries(e):
    in_field = st.builds(
        lambda cs: sum((c * primitive_root(e) ** k for k, c in enumerate(cs)),
                       0),
        st.lists(st.one_of(small_ints, st.fractions(min_value=-2, max_value=2,
                                                    max_denominator=4)),
                 min_size=1, max_size=4))
    entry = st.one_of(small_ints, rationals, in_field)
    return st.lists(entry, max_size=4)


def _trace_oracle(x, y, e):
    prod = cyclotomic_mul(e, cyclotomic_coordinates(x, e),
                          cyclotomic_coordinates(y, e))
    total = [Fraction(0)] * len(prod)
    for a in range(e):
        if math.gcd(a, e) == 1:
            total = [s + c for s, c in
                     zip(total, cyclotomic_galois(e, prod, a))]
    assert not any(total[1:]), (x, y, e)
    return canon_scalar(total[0])


def _outside_field(e):
    d = 5 if e % 5 else 8
    return 1 + 2 * primitive_root(d)


trace_cases = st.sampled_from(TRACE_ORDERS).flatmap(
    lambda e: st.tuples(st.just(e), _trace_entries(e), _trace_entries(e),
                        st.sampled_from([None, "xs", "ys"]),
                        st.integers(min_value=0, max_value=4)))


@settings(max_examples=120, deadline=None)
@given(trace_cases)
@example((4, [1, Fraction(-1, 2)], [3, 0, Fraction(2, 3)], None, 0))
@example((12, [primitive_root(3), primitive_root(4)], [primitive_root(12)],
          None, 0))
@example((6, [primitive_root(3)], [0, 1], "ys", 1))
@example((1, [], [], "xs", 0))
def test_trace_pairing_matches_galois_conjugates(case):
    e, xs, ys, outside, at = case
    xs, ys = list(xs), list(ys)
    if outside is not None:
        seq = xs if outside == "xs" else ys
        seq.insert(min(at, len(seq)), _outside_field(e))
        with pytest.raises(ArithmeticError, match=r"is not in Q\(z"):
            trace_pairing(xs, ys, e)
        return
    result = trace_pairing(xs, ys, e)
    for (i, j), t in result.items():
        assert t != 0 and not isinstance(t, Cyclotomic), (i, j, t)
        assert_canonical(t)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            assert result.get((i, j), 0) == _trace_oracle(x, y, e), (i, j)


def _scalars(obj):
    if isinstance(obj, MPoly):
        yield from obj.terms.values()
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from _scalars(value)
    elif isinstance(obj, (tuple, list)):
        for value in obj:
            yield from _scalars(value)
    elif not isinstance(obj, str):
        yield obj


@pytest.mark.parametrize("spec", ["b2"] + [f"cyclic:{d}" for d in range(2, 8)])
def test_group_data_is_canonical(spec):
    W = build_group(spec)
    pm = param_map(W)
    data = [W.matrices, W.dual_matrices,
            [chi.values for chi in character_table(W)],
            dict(pm.k_forms), dict(pm.c_forms), pm.c_rows, pm.k_rows,
            omega_table(W)]
    seen = list(_scalars(data))
    assert seen
    for x in seen:
        assert_canonical(x)
