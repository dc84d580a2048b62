"""Exact arithmetic: arbitrary-precision rationals and cyclotomic numbers.

Each number has one representation.  A rational is an ``int`` when it is an
integer and a ``fractions.Fraction`` (reduced, positive denominator, > 1)
otherwise; ``canon_scalar`` turns an integral Fraction into an int.  A
``Cyclotomic`` only ever holds an irrational number, in the power basis of a
fixed primitive e-th root of unity ``z_e`` with coordinates reduced modulo the
e-th cyclotomic polynomial.  The roots are chosen coherently: whenever d
divides e, ``z_d = z_e**(e//d)``.

Every Cyclotomic operation returns the canonical scalar: a result that is
rational comes back as an int or a Fraction, and an irrational one as a
Cyclotomic in the smallest cyclotomic field (smallest divisor of the order)
that contains it.  Two equal numbers therefore always have identical
representations, regardless of how they were computed.

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

__all__ = ["Cyclotomic", "primitive_root", "canon_scalar"]


def canon_scalar(c):
    """Normalize a scalar: an integral Fraction becomes an int.

    >>> canon_scalar(Fraction(4, 2)), canon_scalar(Fraction(1, 2))
    (2, Fraction(1, 2))
    """
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


def _euler_phi(e: int) -> int:
    count = 0
    for k in range(1, e + 1):
        if math.gcd(k, e) == 1:
            count += 1
    return count


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
def _power_table(e: int) -> tuple[tuple[Fraction, ...], ...]:
    """Power-basis coordinates of z_e**k for k = 0 .. 2*phi(e) - 2."""
    phi = _euler_phi(e)
    cyc = cyclotomic_polynomial(e)
    rows: list[tuple[Fraction, ...]] = []
    for k in range(phi):
        rows.append(tuple(Fraction(1) if i == k else Fraction(0) for i in range(phi)))
    # z**phi = -(c_0 + c_1 z + ... + c_{phi-1} z^{phi-1}); iterate upward.
    for k in range(phi, 2 * phi - 1):
        prev = rows[k - 1]
        shifted = [Fraction(0)] + [c for c in prev[:-1]]
        top = prev[-1]
        if top:
            for i in range(phi):
                shifted[i] -= top * cyc[i]
        rows.append(tuple(shifted))
    return tuple(rows)


def _reduce_mod_cyclotomic(e: int, vec: list[Fraction]) -> list[Fraction]:
    """Reduce a coordinate vector of arbitrary length (powers of z_e) to
    length phi(e)."""
    phi = _euler_phi(e)
    cyc = cyclotomic_polynomial(e)
    vec = list(vec)
    if len(vec) < phi:
        vec += [Fraction(0)] * (phi - len(vec))
    for k in range(len(vec) - 1, phi - 1, -1):
        c = vec[k]
        if c:
            vec[k] = Fraction(0)
            for i in range(phi):
                vec[k - phi + i] -= c * cyc[i]
    return vec[:phi]


def _solve_linear(matrix: list[list[Fraction]], rhs: list[Fraction]):
    """Solve matrix * x = rhs exactly; return None if inconsistent.

    The matrix is rectangular (rows >= cols) with full column rank.
    """
    rows = [list(r) + [b] for r, b in zip(matrix, rhs)]
    ncols = len(matrix[0]) if matrix and matrix[0] else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    for i in range(r, len(rows)):
        if rows[i][-1] != 0:
            return None
    solution = [Fraction(0)] * ncols
    for row_idx, c in enumerate(pivots):
        solution[c] = rows[row_idx][-1]
    return solution


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
        for k, c in enumerate(self.coeffs):
            vec[k * step] += c
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
        phi = len(a)
        table = _power_table(e)
        out = [Fraction(0)] * phi
        for i, ca in enumerate(a):
            if not ca:
                continue
            for j, cb in enumerate(b):
                if not cb:
                    continue
                prod = ca * cb
                for idx, t in enumerate(table[i + j]):
                    if t:
                        out[idx] += prod * t
        return _normalize(e, out)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        """The inverse, which lies in the same smallest field."""
        e = self.order
        phi = len(self.coeffs)
        table = _power_table(e)
        # column j of the multiplication matrix: self * z**j
        matrix = [[Fraction(0)] * phi for _ in range(phi)]
        for j in range(phi):
            col = [Fraction(0)] * phi
            for i, c in enumerate(self.coeffs):
                if c:
                    for idx, t in enumerate(table[i + j]):
                        if t:
                            col[idx] += c * t
            for i in range(phi):
                matrix[i][j] = col[i]
        rhs = [Fraction(1)] + [Fraction(0)] * (phi - 1)
        sol = _solve_linear(matrix, rhs)
        if sol is None:
            raise ZeroDivisionError("inversion failed (zero divisor?)")
        return Cyclotomic(e, tuple(sol))

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
        e = self.order
        vec = [Fraction(0)] * e
        for k, c in enumerate(self.coeffs):
            vec[(-k) % e] += c
        return Cyclotomic(e, tuple(_reduce_mod_cyclotomic(e, vec)))

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
    and 2 hold only rationals, so the search starts at 3."""
    if not any(vec[1:]):
        return canon_scalar(vec[0])
    for d in range(3, e):
        if e % d:
            continue
        # columns: z_d**k = z_e**(k*e/d) for k < phi(d)
        phi_d = _euler_phi(d)
        step = e // d
        cols = []
        for k in range(phi_d):
            col = [Fraction(0)] * (k * step + 1)
            col[k * step] = Fraction(1)
            cols.append(_reduce_mod_cyclotomic(e, col))
        matrix = [[cols[k][i] for k in range(phi_d)] for i in range(len(vec))]
        sol = _solve_linear(matrix, vec)
        if sol is not None:
            return Cyclotomic(d, tuple(sol))
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
