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
over every element of W, and the fake-degree series a plain sum of outer
products over the characters; neither uses the orbits, so `hilbert
--check` compares the orbit sum with a computation that does not depend on
them.

The only inversion is univariate (`reflgrp.ser_inv`), and the diagonal
(1 - tu)^(-m) of the parameter ring for the center has a closed form, so
no bivariate series is ever inverted.
"""
from __future__ import annotations

import functools

from .exactnum import canon_scalar, trace_pairing
from .reflgrp import (ReflectionGroup, character_table, fake_degree,
                      galois_orbits, inverse_det_series, ser_inv)

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

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: dict):
        self.order = order
        self.coeffs = {}
        for key, c in coeffs.items():
            c = canon_scalar(c)
            if c != 0:
                self.coeffs[key] = c


def _outer_sum(pairs, order: int) -> dict:
    """Coefficients of sum over (a, b) in pairs of a(t) b(u), for
    univariate coefficient lists a, b truncated at degree order."""
    out = {}
    for a, b in pairs:
        b = [(j, bj) for j, bj in enumerate(b[:order + 1]) if bj != 0]
        for i, ai in enumerate(a[:order + 1]):
            if ai != 0:
                for j, bj in b:
                    out[(i, j)] = out.get((i, j), 0) + ai * bj
    return out


def _invariant_series(W: ReflectionGroup, order: int) -> list:
    """Coefficients 0..order of 1/prod_i (1 - t^d_i)."""
    den = [1] + [0] * order
    for d in W.degrees:
        den = [den[k] - (den[k - d] if k >= d else 0) for k in range(order + 1)]
    return ser_inv(den, order)


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


@functools.lru_cache(maxsize=None)
def fantome_bigraded(W: ReflectionGroup, order: int = DEFAULT_ORDER) -> TruncSeries2:
    """sum_chi f_chi(t) f_chi(u) / prod_i (1 - t^d_i)(1 - u^d_i), cached per
    (group, order); the returned series is shared and must not be changed."""
    inv = _invariant_series(W, order)
    pieces = []
    for chi in character_table(W):
        f = [c.constant_value()
             for c in fake_degree(W, chi).as_univariate("t")[:order + 1]]
        f += [0] * (order + 1 - len(f))
        pieces.append([sum(f[i] * inv[k - i] for i in range(k + 1))
                       for k in range(order + 1)])
    return TruncSeries2(order, _outer_sum(((p, p) for p in pieces), order))


def _times_param_diagonal(s: TruncSeries2, m: int) -> TruncSeries2:
    """s * (1 - tu)^(-m), using (1 - tu)^(-m) = sum_k C(k+m-1, k) (tu)^k."""
    n = s.order
    diag = [1]
    for k in range(1, n + 1):
        diag.append(diag[-1] * (k + m - 1) // k)
    out = {}
    for (i, j), c in s.coeffs.items():
        for k in range(n + 1 - max(i, j)):
            key = (i + k, j + k)
            out[key] = out.get(key, 0) + diag[k] * c
    return TruncSeries2(n, out)


def center_basis_bidegrees(W: ReflectionGroup) -> tuple:
    """Bidegrees of the explicit basis of the center as a module over the
    invariant subalgebra P = k[V]^W (x) k[V*]^W (x) k[params].

    Rank 1, order d: {1, eu, ..., eu^(d-1)}.
    B2: {1, eu, eu^2, delta, delta eu, delta eu^2, eu', eu''}.
    """
    if W.spec.startswith("cyclic:"):
        d = W.order()
        return tuple((i, i) for i in range(d))
    if W.spec == "b2":
        return ((0, 0), (1, 1), (2, 2), (2, 2), (3, 3), (4, 4), (1, 3), (3, 1))
    raise ValueError(f"unsupported group {W.spec}")


def hilbert_center(W: ReflectionGroup, order: int = DEFAULT_ORDER) -> dict:
    """The bigraded series of the center, with a consistency report.

    Computed two ways: (a) the fake-degree numerator over the invariant
    denominator times 1/(1-tu)^(number of reflection classes) for the
    parameter ring; (b) the explicit P-module basis with its bidegrees.
    Returns {"series", "basis_series", "match", "basis_bidegrees"}.
    """
    nclasses = len(W.param_names())
    series = _times_param_diagonal(fantome_bigraded(W, order), nclasses)

    inv = _invariant_series(W, order)
    shifted = (([0] * i + inv, [0] * j + inv)
               for (i, j) in center_basis_bidegrees(W))
    basis = _outer_sum(shifted, order)
    basis_series = _times_param_diagonal(TruncSeries2(order, basis), nclasses)
    return {
        "series": series,
        "basis_series": basis_series,
        "match": series.coeffs == basis_series.coeffs,
        "basis_bidegrees": center_basis_bidegrees(W),
    }


def series_table(s: TruncSeries2) -> list:
    """Sorted (i, j, value) rows of a truncated series."""
    return [(i, j, s.coeffs[(i, j)])
            for (i, j) in sorted(s.coeffs)]
