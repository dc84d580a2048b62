"""Bigraded Hilbert series: Molien sums, fake-degree sums, center basis,
and the series 1/det(1 - t g) of one group element."""
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from chered.exactnum import primitive_root
from chered.cherednik import PBWElement, center_presentation
from chered.reflgrp import build_group, galois_orbits, inverse_det_series
from chered.series import (DEFAULT_ORDER, center_basis_bidegrees,
                           fantome_bigraded, hilbert_center, molien_bigraded,
                           series_table)
from oracles import fantome_bivariate, hilbert_center_bivariate, molien_bivariate


@pytest.mark.parametrize("spec", ("cyclic:2", "cyclic:3", "cyclic:5", "b2"))
def test_molien_equals_character_sum(spec):
    W = build_group(spec)
    order = 12
    assert molien_bigraded(W, order).coeffs == \
        fantome_bigraded(W, order).coeffs


def test_molien_rejects_a_sum_that_is_not_a_multiple_of_the_order(monkeypatch):
    # without the orbit of the generator, the sum over cyclic:5 is the term
    # of the identity alone, 1/((1 - t)(1 - u)), whose coefficients are 1
    W = build_group("cyclic:5")
    orbits = galois_orbits(W)
    assert [W.names[g] for g, _ in orbits] == ["1", "s"]
    monkeypatch.setattr("chered.series.galois_orbits",
                        lambda W: [o for o in orbits if W.names[o[0]] != "s"])
    with pytest.raises(ArithmeticError, match="not an integer"):
        molien_bigraded(W, 4)


def test_b2_anchor_coefficients():
    W = build_group("b2")
    s = molien_bigraded(W, 6)
    assert s.coeffs.get((0, 0), 0) == 1
    assert s.coeffs.get((1, 1), 0) == 1
    assert s.coeffs.get((2, 2), 0) == 3
    assert s.coeffs.get((1, 0), 0) == 0 and s.coeffs.get((0, 1), 0) == 0
    # symmetric under swapping the two gradings
    for (i, j), c in s.coeffs.items():
        assert s.coeffs.get((j, i), 0) == c


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
        assert s.coeffs.get((i, 0), 0) == c, i


@pytest.mark.parametrize("spec", ("cyclic:3", "cyclic:4", "b2"))
def test_center_basis_matches_hilbert_series(spec):
    W = build_group(spec)
    report = hilbert_center(W, 8)
    assert set(report) == {"match", "basis_bidegrees"}
    assert report["match"] is True
    series, basis_series = hilbert_center_bivariate(W, 8)
    assert report["match"] is (series.coeffs == basis_series.coeffs)


@pytest.mark.parametrize("order", range(8))
def test_center_check_fails_without_a_basis_bidegree(monkeypatch, order):
    # without (4, 4), the basis of b2 is one short in bidegree (4, 4), so
    # the series differ from order 4 on; the oracle multiplies both sides by
    # (1 - tu)^-2, which hilbert_center leaves off
    W = build_group("b2")
    perturbed = tuple(b for b in center_basis_bidegrees(W) if b != (4, 4))
    for module in ("chered.series", "oracles"):
        monkeypatch.setattr(f"{module}.center_basis_bidegrees",
                            lambda W: perturbed)
    report = hilbert_center(W, order)
    series, basis_series = hilbert_center_bivariate(W, order)
    assert report["match"] is (order < 4)
    assert report["match"] is (series.coeffs == basis_series.coeffs)
    assert report["basis_bidegrees"] == perturbed


@pytest.mark.parametrize("fn", (molien_bigraded, fantome_bigraded,
                                hilbert_center))
def test_negative_order_is_rejected(fn):
    W = build_group("b2")
    with pytest.raises(ValueError, match="order must be >= 0"):
        fn(W, -1)
    assert molien_bigraded(W, 0).coeffs == fantome_bigraded(W, 0).coeffs \
        == {(0, 0): 1}
    assert hilbert_center(W, 0)["match"] is True


def test_center_basis_bidegrees():
    W = build_group("b2")
    assert sorted(center_basis_bidegrees(W)) == sorted(
        [(0, 0), (1, 1), (2, 2), (2, 2), (3, 3), (4, 4), (1, 3), (3, 1)])
    for d in (2, 3, 5):
        Wc = build_group(f"cyclic:{d}")
        assert sorted(center_basis_bidegrees(Wc)) == [(i, i)
                                                      for i in range(d)]


def test_center_basis_bidegrees_refuses_a_generator_of_two_bidegrees(
        monkeypatch):
    # eu + y has the bidegree (1, 1) of eu and the bidegree (1, 0) of y
    W = build_group("cyclic:3")
    gens, names, basis = center_presentation(W)
    forged = dict(gens, eu=gens["eu"] + PBWElement.v_gen(W, 0))
    monkeypatch.setattr("chered.series.center_presentation",
                        lambda W: (forged, names, basis))
    with pytest.raises(ArithmeticError, match=r"center generator eu has"
                       r" bidegrees \[\(1, 0\), \(1, 1\)\], not one"):
        center_basis_bidegrees(W)


def test_series_table_sorted_rows():
    W = build_group("cyclic:2")
    rows = series_table(molien_bigraded(W, 4))
    assert rows == sorted(rows)
    assert (0, 0, 1) in rows


def test_default_order():
    W = build_group("cyclic:2")
    # cyclic:2 has a term at (i, j) whenever i + j is even, so the highest
    # key is the corner of the truncation square
    assert max(molien_bigraded(W).coeffs) == (DEFAULT_ORDER, DEFAULT_ORDER)


# orders 1 and 2 cut the series right after their first terms, and the
# oracle's (1 - tu)^-m too; order 12 is the CLI default.  The Molien sum runs
# over Galois orbits, and molien_bivariate over the elements: cyclic:8 has
# orbits of sizes 1, 1, 2 and 4 in Q(z8), and order 24 reaches each root of
# unity of cyclic:5 and cyclic:8 several times
@pytest.mark.parametrize("spec, order", [
    (spec, order)
    for spec in ("b2",) + tuple(f"cyclic:{d}" for d in range(2, 9))
    for order in (1, 2, 12)] + [("cyclic:5", 24), ("cyclic:8", 24)])
def test_series_match_bivariate_oracle(spec, order):
    W = build_group(spec)
    assert molien_bigraded(W, order).coeffs == molien_bivariate(W, order).coeffs
    assert fantome_bigraded(W, order).coeffs == \
        fantome_bivariate(W, order).coeffs
    series, basis_series = hilbert_center_bivariate(W, order)
    report = hilbert_center(W, order)
    assert report["match"] is (series.coeffs == basis_series.coeffs)
    assert report["basis_bidegrees"] == center_basis_bidegrees(W)


series_scalars = st.one_of(
    st.integers(min_value=-4, max_value=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
    st.builds(lambda e, cs: sum((c * primitive_root(e) ** k
                                 for k, c in enumerate(cs)), 0),
              st.sampled_from([3, 4, 5]),
              st.lists(st.integers(min_value=-3, max_value=3),
                       min_size=1, max_size=3)))


def _square_matrices(n):
    row = st.tuples(*[series_scalars] * n)
    return st.tuples(*[row] * n)


@settings(max_examples=60, deadline=None)
@given(st.one_of(_square_matrices(1), _square_matrices(2)),
       st.integers(min_value=0, max_value=8))
@example(((primitive_root(5),),), 6)
@example(((0, 1), (1, 0)), 5)
@example(((Fraction(1, 2), 0), (0, 0)), 0)
def test_inverse_det_series_inverts_det_mod_t_power(mat, n):
    # det(1 - t M), expanded from the entries of M
    if len(mat) == 1:
        det = [1, -mat[0][0]]
    else:
        (a, b), (c, d) = mat
        det = [1, -(a + d), a * d - b * c]
    inv = inverse_det_series(mat, n)
    assert len(inv) == n + 1
    for k in range(n + 1):
        coeff = sum((det[j] * inv[k - j]
                     for j in range(min(k, len(det) - 1) + 1)), 0)
        assert coeff == (1 if k == 0 else 0), k
