"""Exact arithmetic: arbitrary-precision rationals, cyclotomic numbers, and
the package's one exact row reduction.

Each number has one representation.  A rational is an ``int`` when it is an
integer and a ``fractions.Fraction`` (reduced, positive denominator, > 1)
otherwise; ``canon_scalar`` turns an integral Fraction into an int,
``scalar_div`` divides two scalars and ``scalar_pow`` raises one to any
integer power.  A ``Cyclotomic`` only ever holds an
irrational number, in the power basis of a fixed primitive e-th root of unity
``z_e`` with coordinates reduced modulo the e-th cyclotomic polynomial.  The
coordinates are integers over one common denominator (``num`` and ``den``,
with the content gcd divided out), so no arithmetic builds a ``Fraction``
per coordinate.  The roots are chosen coherently: whenever d divides e,
``z_d = z_e**(e//d)``.

Cyclotomic arithmetic is built from two primitives on integer coordinate
vectors: reduction modulo the e-th cyclotomic polynomial
(``_reduce_mod_cyclotomic``; the polynomial is monic with integer
coefficients, so it keeps vectors integral; a product is the schoolbook
product of the coordinates, reduced) and the Galois automorphism sigma_a:
z_e -> z_e**a (``_galois``, a prime to e).  Complex conjugation is
sigma_{-1}; the inverse is the product of the other conjugates sigma_a(x)
divided by the norm, an integer for integer coordinates.

Every Cyclotomic operation returns the canonical scalar: a result that is
rational comes back as an int or a Fraction, and an irrational one as a
Cyclotomic in the smallest cyclotomic field (smallest divisor of the order)
that contains it.  Q(z_d) is the subfield of Q(z_e) fixed by every sigma_a
with a = 1 mod d, so the smallest field is found by testing that (as linear
equations on the coordinates, cached per order), and only then solving for
the coordinates over Q(z_d) with ``row_reduce``.  A rational shift or a
nonzero rational multiple of an irrational number has its smallest field,
so those operations skip the search.  Two equal numbers therefore always
have identical representations, regardless of how they were computed.

A Cyclotomic is an immutable ``__slots__`` object built by one internal
constructor, so an operation costs little beyond its coordinates.  Each
operation takes the cheapest exact path: operands of one order skip the
lift into a common field, operands over one denominator skip its gcd, an
int or a Fraction operand scales or shifts the coordinates (``x * 1`` is
``x``), and a factor with one nonzero coordinate c*z**k shifts, scales and
reduces the other.

``trace_pairing`` takes the trace from Q(z_m) to Q of every product x*y
of two lists of scalars on their integer coordinates: the trace is a
rational bilinear form, so each product costs one integer dot product and
builds no Cyclotomic.

``row_reduce`` (reduced row echelon form, in place) is the one Gaussian
elimination of the package; the coinvariant normal forms and the
reflection test use it as well.

``format_sum`` and ``format_power`` own the text of a sum of terms, such as
"2*x - y^3": the sign, unit and join rules that ``Cyclotomic``, ``MPoly``
and ``PBWElement`` print with.  This is the lowest module, so it is the one
owner every printer can import.

>>> z4 = primitive_root(4)
>>> z4 * z4
-1
>>> (1 + primitive_root(3)).inverse()
Cyclotomic(order=3, num=(0, -1), den=1)
>>> primitive_root(6) ** 2 == primitive_root(3)
True
"""
from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction

__all__ = ["Cyclotomic", "primitive_root", "canon_scalar", "scalar_div",
           "scalar_pow", "power", "row_reduce", "trace_pairing",
           "format_power", "format_sum", "check_rational"]


def canon_scalar(c):
    """Normalize a scalar: an integral Fraction becomes an int.

    >>> canon_scalar(Fraction(4, 2)), canon_scalar(Fraction(1, 2))
    (2, Fraction(1, 2))
    """
    if type(c) is Fraction and c.denominator == 1:
        return int(c)
    return c


def check_rational(values) -> None:
    """Raise TypeError unless every value is an int or a Fraction.

    >>> check_rational([1, Fraction(1, 2), 0.5])
    Traceback (most recent call last):
    ...
    TypeError: expected an int or a Fraction, got 0.5
    """
    for v in values:
        if not isinstance(v, (int, Fraction)):
            raise TypeError(f"expected an int or a Fraction, got {v!r}")


def scalar_div(a, b):
    """Exact division of scalars.

    >>> scalar_div(3, 6), scalar_div(Fraction(3, 2), Fraction(1, 2))
    (Fraction(1, 2), 3)
    """
    if isinstance(a, int):
        a = Fraction(a)
    return canon_scalar(a / b)


def scalar_pow(c, n: int):
    """c**n, exact for every scalar c and every integer n: a negative power
    of an int is a Fraction (or an int), never a float, and a Cyclotomic
    power is inverted first.  A negative power of 0 raises
    ZeroDivisionError.

    >>> scalar_pow(primitive_root(2), -1), scalar_pow(2, -2)
    (-1, Fraction(1, 4))
    >>> scalar_pow(primitive_root(3), -1) == primitive_root(3) ** 2
    True
    """
    if n < 0:
        c, n = scalar_div(1, c), -n
    return canon_scalar(c ** n)


def power(x, n: int):
    """x**n for n >= 1 by square-and-multiply, x^n = (x^2)^(n//2) * x^(n%2);
    x itself for n = 1.  No product has a unit as a factor: each `__pow__`
    returns its own unit for n = 0.

    >>> power(3, 5), power(Fraction(1, 2), 1)
    (243, Fraction(1, 2))
    >>> power(3, 0)
    Traceback (most recent call last):
    ...
    ValueError: power needs an exponent >= 1, got 0
    """
    if n < 1:
        raise ValueError(f"power needs an exponent >= 1, got {n}")
    if n == 1:
        return x
    half = power(x * x, n >> 1)
    return half * x if n & 1 else half


def format_power(name: str, e: int) -> str:
    """The text of name**e for e >= 1.

    >>> format_power("x", 1), format_power("x", 3)
    ('x', 'x^3')
    """
    return name if e == 1 else f"{name}^{e}"


def format_sum(pairs) -> str:
    """The text of a sum from its (coefficient text, monomial text) pairs.
    An empty monomial is the unit, so its coefficient prints alone; a
    coefficient "1" prints the monomial alone and "-1" prints "-mono".
    Negative parts are subtracted, and the empty sum is "0".

    >>> format_sum([("2", "x"), ("-1", "y^2"), ("1", "z"), ("-3", "")])
    '2*x - y^2 + z - 3'
    >>> format_sum([])
    '0'
    """
    parts = []
    for coeff, mono in pairs:
        if not mono:
            parts.append(coeff)
        elif coeff == "1":
            parts.append(mono)
        elif coeff == "-1":
            parts.append(f"-{mono}")
        else:
            parts.append(f"{coeff}*{mono}")
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"


def row_reduce(rows: list[list]) -> list[int]:
    """Bring a matrix of scalars (a list of equal-length rows) to reduced row
    echelon form in place and return its pivot columns.

    Afterwards rows[i] for i < len(pivots) has entry 1 in column pivots[i]
    and 0 in every other pivot column; the remaining rows are zero.

    >>> rows = [[2, 4, 2], [1, 2, 3]]
    >>> row_reduce(rows), rows
    ([0, 2], [[1, 2, 0], [0, 0, 1]])
    """
    pivots: list[int] = []
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        r = len(pivots)
        if r == len(rows):
            break
        p = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if p is None:
            continue
        inv = scalar_div(1, rows[p][col])
        pivot_row = [canon_scalar(v * inv) for v in rows[p]]
        rows[p] = rows[r]
        rows[r] = pivot_row
        for i, row in enumerate(rows):
            f = row[col]
            if i != r and f != 0:
                rows[i] = [canon_scalar(a - f * b) for a, b in zip(row, pivot_row)]
        pivots.append(col)
    return pivots


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(e: int) -> tuple[int, ...]:
    """Dense integer coefficients (constant first) of the e-th cyclotomic
    polynomial, computed by dividing x^e - 1 by the polynomials of the
    proper divisors of e.

    >>> cyclotomic_polynomial(4)
    (1, 0, 1)
    """
    if e < 1:
        raise ValueError("order must be positive")
    poly = [-1] + [0] * (e - 1) + [1]
    for d in range(1, e):
        if e % d == 0:
            poly = _polydiv_exact(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


def _polydiv_exact(num: list[int], den: list[int]) -> list[int]:
    num = list(num)
    quot = [0] * (len(num) - len(den) + 1)
    for shift in range(len(num) - len(den), -1, -1):
        c = num[shift + len(den) - 1]
        if c % den[-1] != 0:
            raise ArithmeticError("non-exact division")
        q = c // den[-1]
        quot[shift] = q
        for i, d in enumerate(den):
            num[shift + i] -= q * d
    if any(num):
        raise ArithmeticError("non-exact division")
    return quot


@functools.lru_cache(maxsize=None)
def _reduction_terms(e: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """phi(e) and the nonzero (power, coefficient) pairs of the e-th
    cyclotomic polynomial below its leading term."""
    cyc = cyclotomic_polynomial(e)
    phi = len(cyc) - 1
    return phi, tuple((i, c) for i, c in enumerate(cyc[:phi]) if c)


def _reduce_mod_cyclotomic(e: int, vec: list[int]) -> list[int]:
    """Reduce an integer coordinate vector of arbitrary length (powers of
    z_e) to length phi(e), in place; the caller hands over the list.  The
    cyclotomic polynomial is monic with integer coefficients, so the result
    is integral."""
    phi, terms = _reduction_terms(e)
    if len(vec) < phi:
        vec += [0] * (phi - len(vec))
    for k in range(len(vec) - 1, phi - 1, -1):
        c = vec[k]
        if c:
            for i, t in terms:
                vec[k - phi + i] -= c * t
    del vec[phi:]
    return vec


def _mul(e: int, a, b) -> list[int]:
    """Integer coordinates of the product of two elements of Z[z_e] given by
    their coordinates, reduced modulo the e-th cyclotomic polynomial.  A
    factor with one nonzero coordinate c at k shifts the other by k and
    scales it by c; otherwise the product is the schoolbook one.  Exponents
    are taken mod e (z_e**e = 1) before the reduction."""
    if b.count(0) < a.count(0):
        a, b = b, a
    out = [0] * e
    if len(b) - b.count(0) == 1:
        for k, c in enumerate(b):
            if c:
                break
        for i, x in enumerate(a, k):
            out[i % e] = x * c
        return _reduce_mod_cyclotomic(e, out)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b, i):
                if cb:
                    out[j % e] += ca * cb
    return _reduce_mod_cyclotomic(e, out)


def _galois(e: int, vec, a: int) -> list[int]:
    """Integer coordinates of sigma_a(x), where sigma_a: z_e -> z_e**a (a
    prime to e, so k -> a*k mod e is injective) and vec holds the coordinates
    of x."""
    out = [0] * e
    for k, c in enumerate(vec):
        out[a * k % e] = c
    return _reduce_mod_cyclotomic(e, out)


class Cyclotomic:
    """An irrational element of a cyclotomic field: the integer coordinates
    num in the power basis of z_order, over the one denominator den.

    Always stored in normalized form: order is the smallest divisor of any
    ambient order whose field contains the element (so order >= 3), num has
    length phi(order) with a nonzero coordinate past the first, den >= 1 and
    gcd(den, *num) == 1.  The form is unique, so equality and the hash
    compare (order, num, den), and a Cyclotomic never equals a rational.

    The number is immutable: setting or deleting an attribute raises
    AttributeError.  Only arithmetic builds one (through ``_new``, which
    fills the slots directly), so every instance is in normalized form.
    """

    __slots__ = ("order", "num", "den")

    def __setattr__(self, name, value):
        raise AttributeError(f"Cyclotomic is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"Cyclotomic is immutable: cannot delete {name!r}")

    def __eq__(self, other):
        if isinstance(other, Cyclotomic):
            return (self.order == other.order and self.den == other.den
                    and self.num == other.num)
        if isinstance(other, (int, Fraction)):
            return False
        return NotImplemented

    def __hash__(self):
        return hash((self.order, self.num, self.den))

    def __repr__(self):
        return f"Cyclotomic(order={self.order}, num={self.num}, den={self.den})"

    def __reduce__(self):
        return _new, (self.order, self.num, self.den)

    # -- conversions -----------------------------------------------------

    def _lift(self, e: int):
        """Integer coordinates of den * self as powers of z_e (self.order
        must divide e)."""
        if e == self.order:
            return self.num
        step = e // self.order
        vec = [0] * ((len(self.num) - 1) * step + 1)
        vec[::step] = self.num
        return _reduce_mod_cyclotomic(e, vec)

    def _common(self, other):
        """Q(z_e) for e the lcm of the orders of self and the Cyclotomic
        other, which differ, and the coordinates of both lifted there."""
        e = math.lcm(self.order, other.order)
        return e, self._lift(e), other._lift(e)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Cyclotomic):
            e = self.order
            if other.order == e:
                a, b = self.num, other.num
            else:
                e, a, b = self._common(other)
            da, db = self.den, other.den
            if da == db:
                return _normalize(e, list(map(operator.add, a, b)), da)
            g = math.gcd(da, db)
            fa, fb = db // g, da // g
            return _normalize(e, [x * fa + y * fb for x, y in zip(a, b)],
                              da * fa)
        # a rational shift keeps the smallest field
        if isinstance(other, int):
            if not other:
                return self
            # adding a multiple of den keeps gcd(den, *num) == 1
            num = list(self.num)
            num[0] += other * self.den
            return _new(self.order, tuple(num), self.den)
        if isinstance(other, Fraction):
            p, r = other.numerator, other.denominator
            num = [c * r for c in self.num]
            num[0] += p * self.den
            return _make(self.order, num, self.den * r)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return _new(self.order, tuple([-c for c in self.num]), self.den)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Cyclotomic):
            e = self.order
            if other.order == e:
                a, b = self.num, other.num
            else:
                e, a, b = self._common(other)
            return _normalize(e, _mul(e, a, b), self.den * other.den)
        # a nonzero rational multiple keeps the smallest field
        if isinstance(other, int):
            if other == 1:
                return self
            if not other:
                return 0
            # gcd(den, p * num) is gcd(den, p), since gcd(den, *num) == 1
            den = self.den
            g = math.gcd(den, other)
            if g != 1:
                den //= g
                other //= g
            return _new(self.order, tuple([c * other for c in self.num]), den)
        if isinstance(other, Fraction):
            p, r = other.numerator, other.denominator
            if not p:
                return 0
            return _make(self.order, [c * p for c in self.num], self.den * r)
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        """The inverse: den times the product of the other Galois conjugates
        of num, divided by the integer norm of num.  It lies in the same
        smallest field."""
        e = self.order
        prod = [1]
        for a in range(2, e):
            if math.gcd(a, e) == 1:
                prod = _mul(e, prod, _galois(e, self.num, a))
        norm = _mul(e, prod, self.num)
        if any(norm[1:]):
            raise ArithmeticError(f"norm of {self} is not rational")
        # Q(z_e), e >= 3, is a CM field, so the norm of x != 0 is positive
        return _make(e, [c * self.den for c in prod], norm[0])

    def __truediv__(self, other):
        if isinstance(other, Cyclotomic):
            return self * other.inverse()
        if isinstance(other, (int, Fraction)):
            return self * (1 / Fraction(other))
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.inverse() * other
        return NotImplemented

    def __pow__(self, n: int):
        if n == 0:
            return 1
        return power(self.inverse(), -n) if n < 0 else power(self, n)

    def conjugate(self) -> "Cyclotomic":
        """Complex conjugation z_e -> z_e**(-1), an automorphism of the
        element's smallest field."""
        return _make(self.order, _galois(self.order, self.num, -1), self.den)

    def __str__(self):
        z = f"z{self.order}"
        return format_sum((str(Fraction(n, self.den)),
                           format_power(z, k) if k else "")
                          for k, n in enumerate(self.num) if n)


_new_object = object.__new__
_set_order = Cyclotomic.order.__set__
_set_num = Cyclotomic.num.__set__
_set_den = Cyclotomic.den.__set__


def _new(order: int, num: tuple[int, ...], den: int) -> Cyclotomic:
    """The Cyclotomic with these slots, taken as they are: the one
    constructor, for a form that is already normalized."""
    x = _new_object(Cyclotomic)
    _set_order(x, order)
    _set_num(x, num)
    _set_den(x, den)
    return x


def _make(e: int, num: list[int], den: int) -> Cyclotomic:
    """The Cyclotomic num/den of order e (den > 0), for an irrational number
    whose smallest field is known to be Q(z_e): the content gcd is divided
    out once (there is none over den == 1)."""
    if den != 1:
        g = math.gcd(den, *num)
        if g != 1:
            num = [c // g for c in num]
            den //= g
    return _new(e, tuple(num), den)


@functools.lru_cache(maxsize=None)
def _subfield_tests(e: int) -> tuple[tuple[int, tuple], ...]:
    """(d, equations) for each proper divisor 3 <= d < e, smallest first.
    Q(z_d) is the subfield of Q(z_e) fixed by sigma_a for each a = 1 mod d,
    1 < a < e, prime to e.  sigma_a - 1 is linear in the coordinates, so an
    element lies in Q(z_d) exactly when its coordinates satisfy every
    nonzero row of those matrices; each row is a tuple of (index,
    coefficient) pairs, shortest first.  A d = 2 mod 4 is left out, as
    Q(z_d) = Q(z_{d/2}) is tested before it."""
    phi = _reduction_terms(e)[0]
    tests = []
    for d in range(3, e):
        if e % d or d % 4 == 2:
            continue
        rows = set()
        for a in range(1 + d, e, d):
            if math.gcd(a, e) == 1:
                # column k: sigma_a(z_e**k) - z_e**k
                cols = [_galois(e, [0] * k + [1], a) for k in range(phi)]
                for k in range(phi):
                    cols[k][k] -= 1
                for i in range(phi):
                    row = [(k, col[i]) for k, col in enumerate(cols) if col[i]]
                    if row:
                        # one row per line: divide out content and sign
                        g = math.gcd(*(c for _, c in row))
                        if row[0][1] < 0:
                            g = -g
                        rows.add(tuple((k, c // g) for k, c in row))
        tests.append((d, tuple(sorted(rows, key=lambda row: (len(row), row)))))
    return tuple(tests)


def _normalize(e: int, vec: list[int], den: int):
    """The canonical scalar vec/den, vec holding integer coordinates (length
    phi(e), powers of z_e) and den > 0: a rational when every coordinate past
    the first is zero, otherwise a Cyclotomic in the smallest field Q(z_d),
    d | e, that holds it.  Orders 1 and 2 hold only rationals, so the search
    starts at 3.  The test of a subfield is a few cached linear equations
    that do not depend on den, so only a member pays for the row reduction
    that finds its coordinates there."""
    if not any(vec[1:]):
        return vec[0] if den == 1 else canon_scalar(Fraction(vec[0], den))
    for d, equations in _subfield_tests(e):
        for row in equations:
            if sum([c * vec[k] for k, c in row]):
                break
        else:
            # columns: z_d**k = z_e**(k*e/d) for k < phi(d), then vec
            step = e // d
            cols = [_reduce_mod_cyclotomic(e, [0] * (k * step) + [1])
                    for k in range(len(cyclotomic_polynomial(d)) - 1)]
            rows = [[col[i] for col in cols] + [vec[i]]
                    for i in range(len(vec))]
            row_reduce(rows)
            # the solution is integral, as Z[z_e] meets Q(z_d) in Z[z_d]
            return _make(d, [row[-1] for row in rows[:len(cols)]], den)
    return _make(e, vec, den)


@functools.lru_cache(maxsize=None)
def _trace_form(m: int) -> tuple[int, ...]:
    """Tr(z_m**k) from Q(z_m) to Q for 0 <= k <= 2 phi(m) - 2, the powers a
    product of two coordinate vectors reaches.  z_m**k is a primitive n-th
    root of unity, n = m / gcd(m, k).  Its trace over Q(z_n) is mu(n), the
    sum of the primitive n-th roots, which is minus the coefficient below
    the leading one of the n-th cyclotomic polynomial; Q(z_m) has degree
    phi(m) / phi(n) over Q(z_n).  So the trace is the Ramanujan sum
    mu(n) phi(m) / phi(n)."""
    phi = _reduction_terms(m)[0]
    form = []
    for k in range(2 * phi - 1):
        cyc = cyclotomic_polynomial(m // math.gcd(m, k))
        form.append(-cyc[-2] * phi // (len(cyc) - 1))
    return tuple(form)


def _trace_coordinates(x, m: int, width: int):
    """(integer coordinates of den * x as powers of z_m, den) for a
    canonical scalar x; a rational takes width coordinates."""
    if isinstance(x, int):
        return [x] + [0] * (width - 1), 1
    if isinstance(x, Fraction):
        return [x.numerator] + [0] * (width - 1), x.denominator
    if m % x.order:
        raise ArithmeticError(f"{x} is not in Q(z{m})")
    return x._lift(m), x.den


def trace_pairing(xs, ys, m: int) -> dict:
    """{(i, j): Tr(xs[i] * ys[j])} over the nonzero traces, Tr the trace
    from Q(z_m) to Q, for two sequences of canonical scalars of Q(z_m).

    The trace of x*y is a rational bilinear form in the coordinates of x and
    y.  Each row x is lifted once to integer coordinates over one
    denominator and multiplied once by the trace form into the vector
    (Tr(den * x * z_m**b))_b, so each entry is one integer dot product; a
    Fraction is built only for an entry that is not an integer.  An entry
    whose field is not inside Q(z_m) raises ArithmeticError.

    >>> z = primitive_root(5)
    >>> trace_pairing([1, z, 0], [z ** 4, Fraction(1, 2)], 5)
    {(0, 0): -1, (0, 1): 2, (1, 0): 4, (1, 1): Fraction(-1, 2)}
    >>> trace_pairing([Fraction(1, 3)], [6], 4)
    {(0, 0): 4}
    """
    width, form = _reduction_terms(m)[0], _trace_form(m)
    rows = []
    for i, x in enumerate(xs):
        if x != 0:
            num, den = _trace_coordinates(x, m, width)
            rows.append((i, [sum([c * form[a + b]
                                  for a, c in enumerate(num) if c])
                             for b in range(width)], den))
    cols = [(j, *_trace_coordinates(y, m, width))
            for j, y in enumerate(ys) if y != 0]
    out = {}
    for i, row, dx in rows:
        for j, col, dy in cols:
            t = sum(map(operator.mul, row, col))
            if t:
                den = dx * dy
                if den == 1:
                    out[(i, j)] = t
                else:
                    q, r = divmod(t, den)
                    out[(i, j)] = Fraction(t, den) if r else q
    return out


def primitive_root(e: int):
    """The canonical primitive e-th root of unity, with the coherence
    property primitive_root(d) == primitive_root(e) ** (e // d) for d | e.

    >>> primitive_root(2)
    -1
    >>> primitive_root(4) ** 2 == primitive_root(2)
    True
    """
    if e < 1:
        raise ValueError("order must be positive")
    return _normalize(e, _reduce_mod_cyclotomic(e, [0, 1]), 1)
