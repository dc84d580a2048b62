"""Bigraded Hilbert series: Molien sums, fake-degree sums, center basis."""

import pytest

from chered.reflgrp import build_group, character_table, fake_degree
from chered.series import (DEFAULT_ORDER, center_basis_bidegrees,
                           fantome_bigraded, hilbert_center, molien_bigraded,
                           series_table)


@pytest.mark.parametrize("spec", ("cyclic:2", "cyclic:3", "cyclic:5", "b2"))
def test_molien_equals_character_sum(spec):
    W = build_group(spec)
    order = 12
    assert molien_bigraded(W, order).coeffs == \
        fantome_bigraded(W, order).coeffs


def test_b2_anchor_coefficients():
    W = build_group("b2")
    s = molien_bigraded(W, 6)
    assert s.get(0, 0) == 1
    assert s.get(1, 1) == 1
    assert s.get(2, 2) == 3
    assert s.get(1, 0) == 0 and s.get(0, 1) == 0
    # symmetric under swapping the two gradings
    for (i, j), c in s.coeffs.items():
        assert s.get(j, i) == c


def test_cyclic_diagonal_structure():
    W = build_group("cyclic:4")
    s = molien_bigraded(W, 10)
    for (i, j), c in s.coeffs.items():
        # nonzero entries only where i = j mod 4 (Z-grading by eps-weight)
        assert (i - j) % 4 == 0 or c == 0


def test_u_zero_row_is_invariant_series():
    # setting the second variable to zero leaves the Hilbert series of the
    # invariant ring k[V]^W
    W = build_group("b2")
    s = molien_bigraded(W, 10)
    # k[V]^W = k[f2, f4] -> coefficients of 1/((1-t^2)(1-t^4))
    inv = {0: 1, 1: 0, 2: 1, 3: 0, 4: 2, 5: 0, 6: 2, 7: 0, 8: 3, 9: 0, 10: 3}
    for i, c in inv.items():
        assert s.get(i, 0) == c, i


@pytest.mark.parametrize("spec", ("cyclic:3", "cyclic:4", "b2"))
def test_center_basis_matches_hilbert_series(spec):
    W = build_group(spec)
    report = hilbert_center(W, 8)
    assert report["match"] is True
    assert report["series"].coeffs == report["basis_series"].coeffs


def test_center_basis_bidegrees():
    W = build_group("b2")
    assert sorted(center_basis_bidegrees(W)) == sorted(
        [(0, 0), (1, 1), (2, 2), (2, 2), (3, 3), (4, 4), (1, 3), (3, 1)])
    for d in (2, 3, 5):
        Wc = build_group(f"cyclic:{d}")
        assert sorted(center_basis_bidegrees(Wc)) == [(i, i)
                                                      for i in range(d)]


def test_series_table_sorted_rows():
    W = build_group("cyclic:2")
    rows = series_table(molien_bigraded(W, 4))
    assert rows == sorted(rows)
    assert (0, 0, 1) in rows


def test_default_order():
    W = build_group("cyclic:2")
    assert molien_bigraded(W).order == DEFAULT_ORDER
