"""Reflection groups, characters, fake degrees, parameter coordinates."""
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from chered.exactnum import primitive_root
from chered.multipoly import MPoly, canon_scalar
from chered.reflgrp import (ParamVector, build_group, b_invariant,
                            character_table, fake_degree, inner_product,
                            param_convert, param_map, value_on_element)
from oracles import rank1_c_to_k, rank1_k_variables


def test_cyclic_group_structure():
    for d in (2, 3, 4, 5, 6):
        W = build_group(f"cyclic:{d}")
        assert W.order() == d
        assert len(W.reflections) == d - 1
        assert W.degrees == (d,)
        assert len(W.conj_classes) == d
        z = primitive_root(d)
        assert W.matrices[W.index_of("s")][0][0] == canon_scalar(z)


def test_b2_group_structure():
    W = build_group("b2")
    assert W.order() == 8
    assert W.names == ("1", "s", "t", "st", "ts", "sts", "tst", "w0")
    assert len(W.reflections) == 4
    assert sorted(W.names[r.index] for r in W.reflections) == [
        "s", "sts", "t", "tst"]
    assert W.degrees == (2, 4)
    # two hyperplane orbits, parameters A (s-type) and B (t-type)
    assert W.param_names() == ("A", "B")
    assert len(W.conj_classes) == 5


def test_b2_multiplication():
    W = build_group("b2")

    def mul(a, b):
        return W.names[W.mult_table[W.index_of(a)][W.index_of(b)]]

    assert mul("s", "s") == "1"
    assert mul("t", "t") == "1"
    assert mul("s", "t") == "st"
    assert mul("st", "st") == "w0"
    assert mul("w0", "w0") == "1"
    assert mul("sts", "t") == "w0"  # stst = w0
    # w0 is central
    for name in W.names:
        assert mul("w0", name) == mul(name, "w0")


def test_character_tables_orthonormal():
    for spec in ("cyclic:3", "cyclic:5", "b2"):
        W = build_group(spec)
        chars = character_table(W)
        assert sum(chi.degree ** 2 for chi in chars) == W.order()
        for i, chi in enumerate(chars):
            for j, psi in enumerate(chars):
                assert inner_product(W, chi, psi) == (1 if i == j else 0)


def test_b2_character_values():
    W = build_group("b2")
    chars = {c.name: c for c in character_table(W)}
    chi = chars["chi"]
    assert chi.degree == 2
    assert value_on_element(W, chi, W.index_of("w0")) == -2
    assert value_on_element(W, chi, W.index_of("s")) == 0
    assert value_on_element(W, chars["eps_s"], W.index_of("s")) == -1
    assert value_on_element(W, chars["eps_s"], W.index_of("t")) == 1
    assert value_on_element(W, chars["eps"], W.index_of("st")) == 1


def test_fake_degrees_b2():
    W = build_group("b2")
    t = MPoly.var("t")
    expected = {"1": MPoly.const(1), "eps_s": t ** 2, "eps_t": t ** 2,
                "eps": t ** 4, "chi": t + t ** 3}
    for chi in character_table(W):
        f = fake_degree(W, chi)
        assert f == expected[chi.name]
        assert f.substitute({"t": 1}).constant_value() == chi.degree


def test_fake_degrees_cyclic():
    for d in (2, 3, 4, 6):
        W = build_group(f"cyclic:{d}")
        t = MPoly.var("t")
        for i, chi in enumerate(character_table(W)):
            assert fake_degree(W, chi) == t ** i
            assert b_invariant(W, chi) == i


def test_param_convert_roundtrip_cyclic():
    import random
    rng = random.Random(777)
    for d in (3, 4, 5, 6):
        W = build_group(f"cyclic:{d}")
        for _ in range(3):
            ks = [Fraction(rng.randint(-9, 9)) for _ in range(d - 1)]
            ks.append(-sum(ks))
            pv = ParamVector.make(W, "K",
                                  {f"K{j}": ks[j] for j in range(d)})
            back = param_convert(W, param_convert(W, pv, "C"), "K")
            assert dict(back.entries) == dict(pv.entries)


def test_param_convert_b2():
    W = build_group("b2")
    pv = ParamVector.make(W, "C", {"A": Fraction(1), "B": Fraction(2)})
    kv = param_convert(W, pv, "K")
    vals = dict(kv.entries)
    # per-orbit Fourier transform with zeta_2 = -1:
    # K_{orbit,0} = -C/2, K_{orbit,1} = C/2
    assert vals == {"Ks0": Fraction(-1, 2), "Ks1": Fraction(1, 2),
                    "Kt0": Fraction(-1), "Kt1": Fraction(1)}
    back = param_convert(W, kv, "C")
    assert dict(back.entries) == {"A": 1, "B": 2}


def test_k_constraint_enforced():
    W = build_group("cyclic:3")
    with pytest.raises(ValueError):
        ParamVector.make(W, "K", {"K0": Fraction(1), "K1": Fraction(0),
                                  "K2": Fraction(0)})


def test_act_monomial_duality():
    W = build_group("b2")
    s = W.index_of("s")
    # s swaps the two coordinates on V and on V*
    coeff, mono = W.act_monomial(s, (2, 1), dual=False)
    assert (coeff, mono) == (1, (1, 2))
    coeff, mono = W.act_monomial(s, (2, 1), dual=True)
    assert (coeff, mono) == (1, (1, 2))
    Wc = build_group("cyclic:3")
    z = primitive_root(3)
    sc = Wc.index_of("s")
    coeff, mono = Wc.act_monomial(sc, (2,), dual=False)
    assert mono == (2,) and coeff == canon_scalar(z ** 2)
    coeff, mono = Wc.act_monomial(sc, (2,), dual=True)
    assert mono == (2,) and coeff == canon_scalar(z.inverse() ** 2)


def test_param_map_eliminates_k0():
    W = build_group("cyclic:3")
    subst = param_map(W).c_forms
    for val in subst.values():
        assert val.degree_in("K0") == 0


@pytest.mark.parametrize("d", (2, 3, 4, 5, 6))
def test_param_map_matches_rank1_oracle(d):
    pm = param_map(build_group(f"cyclic:{d}"))
    assert dict(pm.c_forms) == rank1_c_to_k(d)
    assert list(pm.k_forms.values()) == rank1_k_variables(d)


_SPECS = ("cyclic:2", "cyclic:3", "cyclic:4", "cyclic:5", "cyclic:6", "b2")


@settings(max_examples=60, deadline=None)
@given(spec=st.sampled_from(_SPECS), data=st.data())
def test_param_convert_c_k_c_roundtrip(spec, data):
    W = build_group(spec)
    q = st.fractions(min_value=-20, max_value=20, max_denominator=12)
    cv = ParamVector.make(W, "C", {lab: data.draw(q, label=lab)
                                   for lab in W.param_names()})
    kv = param_convert(W, cv, "K")
    assert param_convert(W, kv, "C") == cv
    # the owner's linear forms, evaluated at the K-point, give C back
    pm = param_map(W)
    kvals = kv.as_dict()
    for lab, value in cv.entries:
        got = pm.c_forms[lab].substitute(kvals)
        assert canon_scalar(got.constant_value()) == value
    for lab, form in pm.k_forms.items():
        got = form.substitute(kvals)
        assert canon_scalar(got.constant_value()) == kvals[lab]


def test_certificate_checks_survive_python_O():
    # a character table with a repeated row is not orthonormal
    code = ("import sys\n"
            "from chered.reflgrp import (_check_character_table, build_group,"
            " character_table)\n"
            "W = build_group('cyclic:3')\n"
            "chars = character_table(W)\n"
            "print(sys.flags.optimize)\n"
            "_check_character_table(W, (chars[0], chars[0], chars[2]))\n")
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.stdout.strip() == "1"
    assert proc.returncode != 0
    assert "ArithmeticError" in proc.stderr and "orthonormal" in proc.stderr
