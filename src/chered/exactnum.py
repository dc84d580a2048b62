"""Exact arithmetic: arbitrary-precision rationals and cyclotomic numbers.

Rationals are ``fractions.Fraction`` values (always reduced, positive
denominator).  Cyclotomic numbers are represented in the power basis of a
fixed primitive e-th root of unity ``z_e``, with coordinates reduced modulo
the e-th cyclotomic polynomial.  The roots are chosen coherently: whenever
d divides e, ``z_d = z_e**(e//d)``.

Every value is normalized on construction: the coordinate vector is reduced
modulo the cyclotomic polynomial and the element is demoted to the smallest
cyclotomic field (smallest divisor of the order) that contains it.  Two equal
field elements therefore always have identical representations, regardless of
how they were computed.

>>> z4 = primitive_root(4)
>>> z4 * z4
Cyclotomic(order=1, coeffs=(Fraction(-1, 1),))
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

Rational = Fraction

__all__ = ["Rational", "Cyclotomic", "primitive_root", "cyclo", "parse_rational"]


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


def _divisors(e: int) -> list[int]:
    return [d for d in range(1, e + 1) if e % d == 0]


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
    """An element of a cyclotomic field in the power basis of z_order.

    Always stored in normalized form: order is the smallest divisor of any
    ambient order whose field contains the element, and coeffs has length
    phi(order).
    """

    order: int
    coeffs: tuple[Fraction, ...]

    # -- construction ----------------------------------------------------

    @staticmethod
    def make(e: int, vec) -> "Cyclotomic":
        """Build and normalize from a coordinate vector (powers of z_e)."""
        vec = [Fraction(v) for v in vec]
        vec = _reduce_mod_cyclotomic(e, vec)
        return Cyclotomic._demote(e, vec)

    @staticmethod
    def from_rational(q) -> "Cyclotomic":
        return Cyclotomic(1, (Fraction(q),))

    @staticmethod
    def _demote(e: int, vec: list[Fraction]) -> "Cyclotomic":
        if all(c == 0 for c in vec[1:]):
            return Cyclotomic(1, (vec[0],))
        for d in _divisors(e):
            phi_d = _euler_phi(d)
            if d == e:
                return Cyclotomic(e, tuple(vec))
            if phi_d > len(vec):
                continue
            # columns: z_d**k = z_e**(k*e/d) for k < phi(d)
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
        raise AssertionError("unreachable: d == e always succeeds")

    # -- conversions -----------------------------------------------------

    def _lift_vec(self, e: int) -> list[Fraction]:
        """Coordinates of self as powers of z_e (self.order must divide e)."""
        step = e // self.order
        vec = [Fraction(0)] * ((len(self.coeffs) - 1) * step + 1)
        for k, c in enumerate(self.coeffs):
            vec[k * step] += c
        return _reduce_mod_cyclotomic(e, vec)

    def is_rational(self) -> bool:
        return self.order == 1

    # -- arithmetic ------------------------------------------------------

    @staticmethod
    def _coerce(value):
        if isinstance(value, Cyclotomic):
            return value
        if isinstance(value, (int, Fraction)):
            return Cyclotomic.from_rational(value)
        return NotImplemented

    def __add__(self, other):
        other = Cyclotomic._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.order == 1 and other.order == 1:
            return Cyclotomic(1, (self.coeffs[0] + other.coeffs[0],))
        e = math.lcm(self.order, other.order)
        a = self._lift_vec(e)
        b = other._lift_vec(e)
        return Cyclotomic._demote(e, [x + y for x, y in zip(a, b)])

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.order, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = Cyclotomic._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = Cyclotomic._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.order == 1 and other.order == 1:
            return Cyclotomic(1, (self.coeffs[0] * other.coeffs[0],))
        e = math.lcm(self.order, other.order)
        a = self._lift_vec(e)
        b = other._lift_vec(e)
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
        return Cyclotomic._demote(e, out)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        if self == 0:
            raise ZeroDivisionError("inversion of zero cyclotomic number")
        if self.order == 1:
            return Cyclotomic(1, (1 / self.coeffs[0],))
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
        return Cyclotomic._demote(e, sol)

    def __truediv__(self, other):
        other = Cyclotomic._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = Cyclotomic._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = Cyclotomic.from_rational(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conjugate(self) -> "Cyclotomic":
        """Complex conjugation: z_e -> z_e**(-1)."""
        e = self.order
        if e == 1:
            return self
        vec = [Fraction(0)] * e
        for k, c in enumerate(self.coeffs):
            vec[(-k) % e] += c
        return Cyclotomic.make(e, vec)

    # -- comparisons -----------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Cyclotomic):
            return self.order == other.order and self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.order == 1 and self.coeffs[0] == other
        return NotImplemented

    def __hash__(self):
        if self.order == 1:
            return hash(self.coeffs[0])
        return hash((self.order, self.coeffs))

    def __bool__(self):
        return self.order != 1 or self.coeffs[0] != 0

    def __str__(self):
        if self.order == 1:
            return str(self.coeffs[0])
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
        text = " + ".join(parts) if parts else "0"
        return text.replace("+ -", "- ")


def primitive_root(e: int) -> Cyclotomic:
    """The canonical primitive e-th root of unity, with the coherence
    property primitive_root(d) == primitive_root(e) ** (e // d) for d | e.

    >>> primitive_root(2)
    Cyclotomic(order=1, coeffs=(Fraction(-1, 1),))
    >>> primitive_root(4) ** 2 == primitive_root(2)
    True
    """
    if e < 1:
        raise ValueError("order must be positive")
    if e == 1:
        return Cyclotomic.from_rational(1)
    vec = [Fraction(0), Fraction(1)]
    return Cyclotomic.make(e, vec)


def cyclo(value) -> Cyclotomic:
    """Coerce an int, Fraction, or Cyclotomic into a Cyclotomic."""
    if isinstance(value, Cyclotomic):
        return value
    return Cyclotomic.from_rational(Fraction(value))


def parse_rational(text: str) -> Fraction:
    """Parse a rational literal such as "3", "-5/7"."""
    return Fraction(text.strip())


if __name__ == "__main__":
    import doctest

    doctest.testmod()
