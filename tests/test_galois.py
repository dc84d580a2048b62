"""Galois-group certificate for the Euler minimal polynomial and the
geometry of the rank-1 center variety."""
import random
from fractions import Fraction

import pytest

from chered.galois import (_even_part, b2_galois_certificate,
                           rank1_point_analysis)
from chered.multipoly import MPoly, discriminant


def test_b2_certificate_passes():
    cert = b2_galois_certificate()
    assert cert["pass"] is True
    assert cert["group"] == "W4'"
    assert "certificate-consistent" in cert["identification"]
    assert len(cert["steps"]) == 3
    s1, s2, s3 = cert["steps"]
    assert s1["constant_term_is_marker_square"] is True
    assert s1["root_squares_to_disc"] is True
    assert s2["pass"] is True
    assert s3["direct_equals_target"] is True
    assert s3["factorized_equals_target"] is True
    assert s3["is_square"] is False


def test_even_part():
    a, t = MPoly.var("a"), MPoly.var("t")
    assert _even_part(t ** 4 + a * t ** 2 + 3, "t") == t ** 2 + a * t + 3
    with pytest.raises(ArithmeticError, match="odd-degree"):
        _even_part(t ** 4 + a * t ** 3 + 1, "t")


def test_b2_certificate_even_order_at_pi_is_undecided(monkeypatch):
    # step (iii) proves non-squareness by the odd order of disc(fbar) at
    # pi = 0; target * pi vanishes to order 8, which decides nothing, so
    # is_square is None and neither the step nor the certificate passes
    pi = MPoly.var("pi")
    target = 2 ** 24 * pi ** 7 * (pi - 4) * (2 * pi + 1) ** 2

    def even_order(p, name):
        value = discriminant(p, name)
        return target * pi if set(p.vars) == {"pi", "t"} else value

    monkeypatch.setattr("chered.galois.discriminant", even_order)
    cert = b2_galois_certificate()
    s3 = cert["steps"][2]
    assert s3["is_square"] is None
    assert s3["pass"] is False
    assert cert["pass"] is False


def test_b2_certificate_takes_three_discriminants(monkeypatch):
    # the generic octic g(t^2), the generic quartic g and fbar; none of the
    # Euler polynomial f over the parameters A, B, sigma, pi, Sigma, Pi
    inputs = []

    def spy(p, name):
        inputs.append(p)
        return discriminant(p, name)

    monkeypatch.setattr("chered.galois.discriminant", spy)
    cert = b2_galois_certificate()
    assert cert["pass"] is True
    assert [(p.degree_in("t"), set(p.vars)) for p in inputs] == [
        (8, set("abcdt")), (4, set("abcdt")), (4, {"pi", "t"})]
    assert str(inputs[2]) == cert["steps"][1]["value"]


def test_b2_certificate_fails_on_a_wrong_even_discriminant(monkeypatch):
    # step (i) rests on disc(g(t^2)) = 256 disc(g)^2 g(0); a discriminant of
    # degree-8 input that is off by one breaks it and the certificate
    def off_by_one(p, name):
        value = discriminant(p, name)
        return value + 1 if p.degree_in(name) == 8 else value

    monkeypatch.setattr("chered.galois.discriminant", off_by_one)
    cert = b2_galois_certificate()
    s1 = cert["steps"][0]
    assert s1["constant_term_is_marker_square"] is True
    assert s1["root_squares_to_disc"] is False
    assert s1["pass"] is False
    assert cert["pass"] is False


def test_singular_examples():
    # origin of the quadric cone xy = e^2 (d = 2, K = 0)
    rep = rank1_point_analysis(2, (0, 0), 0, 0, 0)["singular"]
    assert rep["singular"] is True
    # smooth point with x != 0
    rep = rank1_point_analysis(2, (1, -1), 1, 5, 3)["singular"]
    assert rep["singular"] is False
    # x = y = 0 but e a simple root of the product: still smooth
    rep = rank1_point_analysis(2, (1, -1), 0, 0, 2)["singular"]
    assert rep["singular"] is False
    assert "factor d" in rep["notes"]


def test_ramification_examples():
    # K = 0: F_p(t) = t^d - x y; e = 0 over x y = 0 is totally ramified
    rep = rank1_point_analysis(3, (0, 0, 0), 0, 4, 0)["ramified"]
    assert rep["ramified"] is True
    # distinct d K_j: simple root, unramified
    rep = rank1_point_analysis(2, (-1, 1), 0, 0, 2)["ramified"]
    assert rep["ramified"] is False
    # double point of t^2 - x y at e = 1 over x y = 1... not on variety:
    rep = rank1_point_analysis(2, (0, 0), 1, 1, 1)["ramified"]
    assert rep["ramified"] is False


def test_off_variety_raises():
    with pytest.raises(ValueError, match="does not lie"):
        rank1_point_analysis(2, (0, 0), 1, 1, 3)
    with pytest.raises(ValueError, match="summing to zero"):
        rank1_point_analysis(2, (1, 1), 0, 0, 2)


def test_singular_matches_closed_description_random():
    rng = random.Random(555)
    for _ in range(40):
        d = rng.randint(2, 4)
        ks = [Fraction(rng.randint(-2, 2)) for _ in range(d - 1)]
        ks.append(-sum(ks))
        e = d * ks[rng.randrange(d)] if rng.random() < 0.7 else \
            Fraction(rng.randint(-6, 6))
        # choose x, y on the variety
        val = Fraction(1)
        for k in ks:
            val *= e - d * k
        if val == 0:
            x, y = Fraction(0), Fraction(rng.randint(-3, 3))
            if rng.random() < 0.5:
                x, y = y, x
            if rng.random() < 0.5:
                x = y = Fraction(0)
        else:
            x, y = Fraction(1), val
        rep = rank1_point_analysis(d, ks, x, y, e)["singular"]
        multiple_root = sum(1 for k in ks if d * k == e) >= 2
        assert rep["singular"] == (x == 0 and y == 0 and multiple_root), \
            (d, ks, x, y, e)


def test_point_analysis_rejects_inexact_values():
    with pytest.raises(TypeError, match="expected an int or a Fraction"):
        rank1_point_analysis(2, (1, -1), 0.0, 0.0, 2.0)
