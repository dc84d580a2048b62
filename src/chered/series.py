"""Bigraded Hilbert series: the Molien formula for k[V x V*]^W, the fake
degree expansion, and the series of the center with its explicit module
basis over the invariant subalgebra P.

The Molien series is summed over the Galois orbits {g^b : gcd(b, m) = 1}
of the group elements g of order m (`reflgrp.galois_orbits`).  The summand
of g^b is sigma_b of the summand of g, so an orbit contributes the trace
from Q(z_m) to Q of the outer product a(t) b(u) at its representative,
where a and b are the univariate series 1/det(1 - t g) and
1/det(1 - u g^-1).  `exactnum.trace_pairing` takes those traces on integer
coordinates, so the double loop over the coefficients does no cyclotomic
arithmetic.  Each fake degree (`reflgrp.fake_degree`) stays a plain sum
over every element of W, and the fake-degree numerator a plain sum over the
characters; neither uses the orbits, so `hilbert --check` compares the
orbit sum with a computation that does not depend on them.

The fake-degree series and the series of the center's basis share one
denominator, prod_i (1 - t^d_i)(1 - u^d_i): each is a numerator divided by
it in `_over_invariant_denominator`, so nothing here inverts a series.  The
center's series has a further factor (1 - tu)^(-m) from the parameter ring,
a unit on the truncated square, so `hilbert_center` compares the two sides
without it.
"""
from __future__ import annotations

import functools
from collections import Counter

from .exactnum import canon_scalar, trace_pairing
from .reflgrp import (ReflectionGroup, character_table, fake_degree,
                      galois_orbits, inverse_det_series)
from .cherednik import _bidegrees, center_presentation

__all__ = [
    "DEFAULT_ORDER",
    "TruncSeries2",
    "molien_bigraded",
    "fantome_bigraded",
    "hilbert_center",
    "center_basis_bidegrees",
    "series_table",
]

DEFAULT_ORDER = 12


class TruncSeries2:
    """Power series in (t, u) truncated to the square 0 <= i, j <= order,
    stored as {(i, j): nonzero canonical coefficient}."""

    __slots__ = ("coeffs",)

    def __init__(self, order: int, coeffs: dict):
        if order < 0:
            raise ValueError(f"truncation order must be >= 0, got {order}")
        self.coeffs = {}
        for key, c in coeffs.items():
            c = canon_scalar(c)
            if c != 0:
                self.coeffs[key] = c


def molien_bigraded(W: ReflectionGroup, order: int = DEFAULT_ORDER) -> TruncSeries2:
    """(1/|W|) sum_w 1 / (det(1 - t w) det(1 - u w^-1)), truncated.

    The sum runs over the Galois orbits of `galois_orbits`: an orbit of
    elements of order m adds Tr_{Q(z_m)/Q} of a(t) b(u) at its
    representative g, with a = 1/det(1 - t g) and b = 1/det(1 - u g^-1).
    Each coefficient is the dimension of a space of invariants, so every
    coefficient of the sum is an integer multiple of |W|; a remainder raises
    ArithmeticError.

    >>> from chered.reflgrp import build_group
    >>> series_table(molien_bigraded(build_group("cyclic:3"), 3))
    [(0, 0, 1), (0, 3, 1), (1, 1, 1), (2, 2, 1), (3, 0, 1), (3, 3, 1)]
    """
    acc = {}
    for g, m in galois_orbits(W):
        a = inverse_det_series(W.matrices[g], order)
        b = inverse_det_series(W.matrices[W.inverse[g]], order)
        for key, c in trace_pairing(a, b, m).items():
            acc[key] = acc.get(key, 0) + c
    n = W.order()
    coeffs = {}
    for key, c in acc.items():
        q, r = divmod(c, n)
        if r:
            raise ArithmeticError(f"Molien coefficient {key} of {W.spec} is"
                                  f" {c}/{n}, not an integer")
        coeffs[key] = q
    return TruncSeries2(order, coeffs)


def _over_invariant_denominator(W: ReflectionGroup, num, order: int) -> TruncSeries2:
    """num / prod_i (1 - t^d_i)(1 - u^d_i) on the square 0 <= i, j <= order,
    for a numerator {(i, j): coefficient}.  Dividing by 1 - t^d adds to each
    coefficient the one d steps below it in t, taken in increasing t, and
    dividing by 1 - u^d does the same in u."""
    size = order + 1
    grid = [[0] * size for _ in range(size)]
    for (i, j), c in num.items():
        if i < size and j < size:
            grid[i][j] += c
    for d in W.degrees:
        for i in range(d, size):
            grid[i] = [a + b for a, b in zip(grid[i], grid[i - d])]
        for row in grid:
            for j in range(d, size):
                row[j] += row[j - d]
    return TruncSeries2(order, {(i, j): c for i, row in enumerate(grid)
                                for j, c in enumerate(row)})


@functools.lru_cache(maxsize=None)
def fantome_bigraded(W: ReflectionGroup, order: int = DEFAULT_ORDER) -> TruncSeries2:
    """sum_chi f_chi(t) f_chi(u) / prod_i (1 - t^d_i)(1 - u^d_i), cached per
    (group, order); the returned series is shared and must not be changed."""
    num = {}
    for chi in character_table(W):
        f = [c.constant_value() for c in fake_degree(W, chi).as_univariate("t")]
        for i, a in enumerate(f):
            for j, b in enumerate(f):
                num[(i, j)] = num.get((i, j), 0) + a * b
    return _over_invariant_denominator(W, num, order)


def center_basis_bidegrees(W: ReflectionGroup) -> tuple:
    """Bidegrees of the explicit basis of the center as a module over the
    invariant subalgebra P = k[V]^W (x) k[V*]^W (x) k[params]
    (`cherednik.center_presentation`): each basis element adds up the
    bidegrees of its generators, each read off the generator's terms.  A
    generator with other than one bidegree raises ArithmeticError."""
    gens, names, basis = center_presentation(W)
    degs = []
    for name in names:
        found = _bidegrees(gens[name])
        if len(found) != 1:
            raise ArithmeticError(f"center generator {name} has bidegrees"
                                  f" {sorted(found)}, not one")
        degs.append(found.pop())
    return tuple((sum(e * i for e, (i, _) in zip(exp, degs)),
                  sum(e * j for e, (_, j) in zip(exp, degs)))
                 for exp in basis)


def hilbert_center(W: ReflectionGroup, order: int = DEFAULT_ORDER) -> dict:
    """Whether the explicit P-module basis of the center has the series of
    the center, through `order` in t and in u.

    The series of the center is the fake-degree series times (1 - tu)^(-m),
    m the number of reflection classes, for the parameter ring; the basis
    gives sum_b t^i u^j over its bidegrees (i, j), over the same invariant
    denominator and times the same factor.  That factor is a unit on the
    truncated square, so it is left off both sides.
    Returns {"match", "basis_bidegrees"}.
    """
    bidegrees = center_basis_bidegrees(W)
    basis = _over_invariant_denominator(W, Counter(bidegrees), order)
    return {"match": basis.coeffs == fantome_bigraded(W, order).coeffs,
            "basis_bidegrees": bidegrees}


def series_table(s: TruncSeries2) -> list:
    """Sorted (i, j, value) rows of a truncated series."""
    return [(i, j, s.coeffs[(i, j)])
            for (i, j) in sorted(s.coeffs)]
