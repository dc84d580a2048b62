"""Exact arithmetic: arbitrary-precision rationals, cyclotomic numbers, and
the package's one exact row reduction.

Each number has one representation.  A rational is an ``int`` when it is an
integer and a ``fractions.Fraction`` (reduced, positive denominator, > 1)
otherwise; ``canon_scalar`` turns an integral Fraction into an int and
``scalar_div`` divides two scalars.  A ``Cyclotomic`` only ever holds an
irrational number, in the power basis of a fixed primitive e-th root of unity
``z_e`` with coordinates reduced modulo the e-th cyclotomic polynomial.  The
roots are chosen coherently: whenever d divides e, ``z_d = z_e**(e//d)``.

Cyclotomic arithmetic is built from two primitives on coordinate vectors:
reduction modulo the e-th cyclotomic polynomial (``_reduce_mod_cyclotomic``;
a product is the schoolbook product of the coordinates, reduced) and the
Galois automorphism sigma_a: z_e -> z_e**a (``_galois``, a prime to e).
Complex conjugation is sigma_{-1}; the inverse is the product of the other
conjugates sigma_a(x) divided by the norm.

Every Cyclotomic operation returns the canonical scalar: a result that is
rational comes back as an int or a Fraction, and an irrational one as a
Cyclotomic in the smallest cyclotomic field (smallest divisor of the order)
that contains it.  Q(z_d) is the subfield of Q(z_e) fixed by every sigma_a
with a = 1 mod d, so the smallest field is found by testing that, and only
then solving for the coordinates over Q(z_d) with ``row_reduce``.  Two equal
numbers therefore always have identical representations, regardless of how
they were computed.

``row_reduce`` (reduced row echelon form, in place) is the one Gaussian
elimination of the package; the coinvariant normal forms and the
reflection test use it as well.

>>> z4 = primitive_root(4)
>>> z4 * z4
-1
>>> (1 + primitive_root(3)).inverse()
Cyclotomic(order=3, coeffs=(Fraction(0, 1), Fraction(-1, 1)))
>>> primitive_root(6) ** 2 == primitive_root(3)
True
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

__all__ = ["Cyclotomic", "primitive_root", "canon_scalar", "scalar_div", "row_reduce"]


def canon_scalar(c):
    """Normalize a scalar: an integral Fraction becomes an int.

    >>> canon_scalar(Fraction(4, 2)), canon_scalar(Fraction(1, 2))
    (2, Fraction(1, 2))
    """
    if type(c) is Fraction and c.denominator == 1:
        return int(c)
    return c


def scalar_div(a, b):
    """Exact division of scalars.

    >>> scalar_div(3, 6), scalar_div(Fraction(3, 2), Fraction(1, 2))
    (Fraction(1, 2), 3)
    """
    if isinstance(a, int):
        a = Fraction(a)
    return canon_scalar(a / b)


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


def _reduce_mod_cyclotomic(e: int, vec: list[Fraction]) -> list[Fraction]:
    """Reduce a coordinate vector of arbitrary length (powers of z_e) to
    length phi(e)."""
    cyc = cyclotomic_polynomial(e)
    phi = len(cyc) - 1
    terms = [(i, c) for i, c in enumerate(cyc[:phi]) if c]
    vec = list(vec)
    if len(vec) < phi:
        vec += [Fraction(0)] * (phi - len(vec))
    for k in range(len(vec) - 1, phi - 1, -1):
        c = vec[k]
        if c:
            for i, t in terms:
                vec[k - phi + i] -= c * t
    return vec[:phi]


def _mul(e: int, a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """Coordinates of the product of two elements of Q(z_e) given by their
    coordinates: the schoolbook product, with exponents taken mod e
    (z_e**e = 1), reduced modulo the e-th cyclotomic polynomial."""
    out = [Fraction(0)] * min(e, len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                if cb:
                    out[(i + j) % e] += ca * cb
    return _reduce_mod_cyclotomic(e, out)


def _galois(e: int, vec: list[Fraction], a: int) -> list[Fraction]:
    """Coordinates of sigma_a(x), where sigma_a: z_e -> z_e**a (a prime to
    e, so k -> a*k mod e is injective) and vec holds the coordinates of x."""
    out = [Fraction(0)] * e
    for k, c in enumerate(vec):
        out[a * k % e] = c
    return _reduce_mod_cyclotomic(e, out)


@dataclass(frozen=True)
class Cyclotomic:
    """An irrational element of a cyclotomic field in the power basis of
    z_order.

    Always stored in normalized form: order is the smallest divisor of any
    ambient order whose field contains the element (so order >= 3), and
    coeffs has length phi(order) with a nonzero coordinate past the first.
    The generated equality and hash compare (order, coeffs); a Cyclotomic
    never equals a rational.
    """

    order: int
    coeffs: tuple[Fraction, ...]

    # -- conversions -----------------------------------------------------

    def _lift_vec(self, e: int) -> list[Fraction]:
        """Coordinates of self as powers of z_e (self.order must divide e)."""
        step = e // self.order
        vec = [Fraction(0)] * ((len(self.coeffs) - 1) * step + 1)
        vec[::step] = self.coeffs
        return _reduce_mod_cyclotomic(e, vec)

    def _operands(self, other):
        """(e, coordinates of self, coordinates of other) in the power basis
        of the smallest common field; a rational other is lifted straight
        into self's field.  None when other is not a scalar."""
        if isinstance(other, Cyclotomic):
            e = math.lcm(self.order, other.order)
            return e, self._lift_vec(e), other._lift_vec(e)
        if isinstance(other, (int, Fraction)):
            zeros = [Fraction(0)] * (len(self.coeffs) - 1)
            return self.order, list(self.coeffs), [Fraction(other)] + zeros
        return None

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        operands = self._operands(other)
        if operands is None:
            return NotImplemented
        e, a, b = operands
        return _normalize(e, [x + y for x, y in zip(a, b)])

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.order, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        operands = self._operands(other)
        if operands is None:
            return NotImplemented
        e, a, b = operands
        return _normalize(e, _mul(e, a, b))

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        """The inverse: the product of the other Galois conjugates divided by
        the norm.  It lies in the same smallest field."""
        e = self.order
        prod = [Fraction(1)]
        for a in range(2, e):
            if math.gcd(a, e) == 1:
                prod = _mul(e, prod, _galois(e, self.coeffs, a))
        norm = _mul(e, prod, list(self.coeffs))
        if any(norm[1:]):
            raise ArithmeticError(f"norm of {self} is not rational")
        return Cyclotomic(e, tuple(c / norm[0] for c in prod))

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
        if n < 0:
            return self.inverse() ** (-n)
        result = 1
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conjugate(self) -> "Cyclotomic":
        """Complex conjugation z_e -> z_e**(-1), an automorphism of the
        element's smallest field."""
        return Cyclotomic(self.order, tuple(_galois(self.order, self.coeffs, -1)))

    def __str__(self):
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                mono = f"z{self.order}" if k == 1 else f"z{self.order}^{k}"
                if c == 1:
                    parts.append(mono)
                elif c == -1:
                    parts.append(f"-{mono}")
                else:
                    parts.append(f"{c}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")


def _normalize(e: int, vec: list[Fraction]):
    """The canonical scalar with coordinates vec (length phi(e), powers of
    z_e): a rational when every coordinate past the first is zero, otherwise
    a Cyclotomic in the smallest field Q(z_d), d | e, that holds it.  Orders 1
    and 2 hold only rationals, so the search starts at 3.  Q(z_d) is the
    subfield fixed by every z_e -> z_e**a with a = 1 mod d, so only a member
    pays for the row reduction that finds its coordinates there."""
    if not any(vec[1:]):
        return canon_scalar(vec[0])
    for d in range(3, e):
        if e % d or any(_galois(e, vec, a) != vec
                        for a in range(1 + d, e, d) if math.gcd(a, e) == 1):
            continue
        # columns: z_d**k = z_e**(k*e/d) for k < phi(d), then vec
        step = e // d
        cols = [_reduce_mod_cyclotomic(e, [0] * (k * step) + [Fraction(1)])
                for k in range(len(cyclotomic_polynomial(d)) - 1)]
        rows = [[col[i] for col in cols] + [vec[i]] for i in range(len(vec))]
        row_reduce(rows)
        return Cyclotomic(d, tuple(Fraction(row[-1]) for row in rows[:len(cols)]))
    return Cyclotomic(e, tuple(vec))


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
    return _normalize(e, _reduce_mod_cyclotomic(e, [Fraction(0), Fraction(1)]))


if __name__ == "__main__":
    import doctest

    doctest.testmod()
