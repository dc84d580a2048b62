"""Bigraded Hilbert series: the Molien formula for k[V x V*]^W, the fake
degree expansion, and the series of the center with its explicit module
basis over the invariant subalgebra P."""
from __future__ import annotations

import os

from .multipoly import MPoly, TruncSeries2, canon_scalar, scalar_div
from .reflgrp import (ReflectionGroup, build_group, character_table,
                      fake_degree, mat_inverse)

__all__ = [
    "DEFAULT_ORDER",
    "default_order",
    "molien_bigraded",
    "fantome_bigraded",
    "hilbert_center",
    "center_basis_bidegrees",
    "series_table",
]

DEFAULT_ORDER = 12
ORDER_ENV_VAR = "CHERED_ORDER"


def default_order() -> int:
    """Truncation order, overridable through the CHERED_ORDER variable."""
    value = os.environ.get(ORDER_ENV_VAR)
    if value is None:
        return DEFAULT_ORDER
    if not value.strip().isdecimal() or int(value) < 1:
        raise ValueError(f"{ORDER_ENV_VAR} must be an integer >= 1, got {value!r}")
    return int(value)


def _det_one_minus(mat, var: str, order: int) -> TruncSeries2:
    """det(1 - var * mat) as a bigraded series factor."""
    n = len(mat)
    if n == 1:
        poly = {(0, 0): 1}
        key = (1, 0) if var == "t" else (0, 1)
        poly[key] = -mat[0][0]
        return TruncSeries2(order, poly)
    tr = canon_scalar(mat[0][0] + mat[1][1])
    det = canon_scalar(mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0])
    one = (1, 0) if var == "t" else (0, 1)
    two = (2, 0) if var == "t" else (0, 2)
    return TruncSeries2(order, {(0, 0): 1, one: -tr, two: det})


def molien_bigraded(W: ReflectionGroup, order: int | None = None) -> TruncSeries2:
    """(1/|W|) sum_w 1 / (det(1 - t w) det(1 - u w^-1)), truncated."""
    if order is None:
        order = default_order()
    acc = TruncSeries2(order)
    for g in range(W.order()):
        f1 = _det_one_minus(W.matrices[g], "t", order)
        f2 = _det_one_minus(W.matrices[W.inverse[g]], "u", order)
        acc = acc + (f1 * f2).invert()
    return acc.scale(scalar_div(1, W.order()))


def _invariant_denominator(W: ReflectionGroup, order: int) -> TruncSeries2:
    den = TruncSeries2.one(order)
    for d in W.degrees:
        den = den * TruncSeries2(order, {(0, 0): 1, (d, 0): -1})
        den = den * TruncSeries2(order, {(0, 0): 1, (0, d): -1})
    return den


def fantome_bigraded(W: ReflectionGroup, order: int | None = None) -> TruncSeries2:
    """sum_chi f_chi(t) f_chi(u) / prod_i (1 - t^d_i)(1 - u^d_i)."""
    if order is None:
        order = default_order()
    num = TruncSeries2(order)
    for chi in character_table(W):
        ft = TruncSeries2.from_poly(fake_degree(W, chi), order, "t", "t")
        # reuse as u-series by transposing exponents
        fu = TruncSeries2(order, {(j, i): c for (i, j), c in ft.coeffs.items()})
        num = num + ft * fu
    return num * _invariant_denominator(W, order).invert()


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


def hilbert_center(W: ReflectionGroup, order: int | None = None) -> dict:
    """The bigraded series of the center, with a consistency report.

    Computed two ways: (a) the fake-degree numerator over the invariant
    denominator times 1/(1-tu)^(number of reflection classes) for the
    parameter ring; (b) the explicit P-module basis with its bidegrees.
    Returns {"series", "basis_series", "match", "basis_bidegrees"}.
    """
    if order is None:
        order = default_order()
    nclasses = len(W.param_names())
    param_factor = TruncSeries2(order, {(0, 0): 1, (1, 1): -1}).invert()
    pf = TruncSeries2.one(order)
    for _ in range(nclasses):
        pf = pf * param_factor
    series = fantome_bigraded(W, order) * pf

    basis_num = TruncSeries2(order)
    for (i, j) in center_basis_bidegrees(W):
        basis_num = basis_num + TruncSeries2(order, {(i, j): 1})
    basis_series = basis_num * _invariant_denominator(W, order).invert() * pf
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


if __name__ == "__main__":
    import doctest

    doctest.testmod()
