"""Reflection groups, characters, fake degrees, parameter coordinates."""
import math
import os
import random
import subprocess
import sys
import zlib
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from chered.exactnum import canon_scalar, primitive_root
from chered.multipoly import MPoly
from chered import reflgrp
from chered.cherednik import euler_element
from chered.cmcells import b2_cells, cm_families
from chered.reflgrp import (_Record, build_group, b_invariant,
                            character_table, fake_degree, galois_orbits,
                            idempotent_basis, inner_product, k_forms,
                            param_convert, param_map, value_on_element)
from chered.verma import omega, omega_table
from oracles import (c_forms, rank1_c_to_k, rank1_k_variables,
                     replace_fields)


def test_cyclic_group_structure():
    for d in (2, 3, 4, 5, 6):
        W = build_group(f"cyclic:{d}")
        assert W.order() == d
        assert len(W.reflections) == d - 1
        assert W.degrees == (d,)
        assert len(W.conj_classes) == d
        z = primitive_root(d)
        assert W.matrices[W.index_of("s")][0][0] == canon_scalar(z)


@pytest.mark.parametrize("spec", ["b2"] + [f"cyclic:{d}" for d in range(2, 13)])
def test_galois_orbits_partition_the_group(spec):
    W = build_group(spec)
    mult = W.mult_table
    covered = []
    for g, m in galois_orbits(W):
        powers = [W.identity]
        for _ in range(m - 1):
            powers.append(mult[powers[-1]][g])
        # g has order m
        assert mult[powers[-1]][g] == W.identity
        assert W.identity not in powers[1:]
        orbit = {powers[b] for b in range(m) if math.gcd(b, m) == 1}
        phi = sum(math.gcd(b, m) == 1 for b in range(m))
        assert len(orbit) == phi
        assert g == min(orbit)
        # closed under h -> h^b for every b prime to m
        for h in orbit:
            x = W.identity
            for b in range(1, m + 1):
                x = mult[x][h]
                if math.gcd(b, m) == 1:
                    assert x in orbit, (W.names[h], b)
        covered += orbit
    assert sorted(covered) == list(range(W.order()))


def test_b2_group_structure():
    W = build_group("b2")
    assert W.order() == 8
    assert W.names == ("1", "s", "t", "st", "ts", "sts", "tst", "w0")
    assert len(W.reflections) == 4
    assert sorted(W.names[r.index] for r in W.reflections) == [
        "s", "sts", "t", "tst"]
    assert W.degrees == (2, 4)
    # two hyperplane orbits, parameters A (s-type) and B (t-type)
    assert W.param_names == ("A", "B")
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


def test_character_table_refuses_a_missing_character():
    # a B2 builder that forgot chi: the four sign characters stay
    # orthonormal, but their degrees squared add up to 4, not |W| = 8
    W = build_group("b2")
    assert W.representations[-1][0] == "chi"
    forged = replace_fields(W, representations=W.representations[:-1])
    # a record is equal only to itself, so the forged group reads none of
    # the results cached for W
    assert forged != W
    with pytest.raises(ArithmeticError,
                       match=r"sum of chi\(1\)\^2 differs from \|W\|"):
        character_table(forged)


# one record of each immutable class, built from the b2 group (the
# idempotent basis, which b2 does not have, from cyclic:3)
RECORDS = {"group": lambda W: W,
           "character": lambda W: character_table(W)[4],
           "reflection": lambda W: W.reflections[0],
           "param map": param_map,
           "families": lambda W: cm_families(W, {"A": 1, "B": 2}),
           "cells": lambda W: b2_cells(1, 2),
           "idempotent basis":
               lambda W: idempotent_basis(build_group("cyclic:3"))}


@pytest.mark.parametrize("kind", RECORDS)
def test_records_are_immutable(kind):
    record = RECORDS[kind](build_group("b2"))
    for name in type(record).__slots__:
        value = getattr(record, name)
        with pytest.raises(AttributeError, match=f"cannot set '{name}'"):
            setattr(record, name, value)
        with pytest.raises(AttributeError, match=f"cannot delete '{name}'"):
            delattr(record, name)
        assert getattr(record, name) is value
    with pytest.raises(AttributeError):
        record.extra = 1
    # a copy with every field the same is still another record
    assert replace_fields(record) != record


def test_records_name_every_record_class():
    # the concrete records are the descendants of _Record that no class
    # derives from (`_Basis` is the base of the two bases)
    def descendants(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from descendants(sub)

    W = build_group("b2")
    assert ({type(make(W)) for make in RECORDS.values()}
            == {cls for cls in descendants(_Record)
                if not cls.__subclasses__()})


def test_a_forged_record_reads_no_cached_result():
    # the results cached for the built b2 group and its character chi are
    # not those of a group or character forged from them
    W = build_group("b2")
    chi = character_table(W)[4]
    eu = euler_element(W)
    assert omega(eu, [chi]) == {"chi": 0}
    forged = replace_fields(W, representations=W.representations[:-1])
    with pytest.raises(ArithmeticError,
                       match=r"sum of chi\(1\)\^2 differs from \|W\|"):
        character_table(forged)
    forged = replace_fields(chi, matrices=(((1,),),) * W.order())
    with pytest.raises(ArithmeticError,
                       match="realization of chi has dimension 1"):
        omega(eu, [forged])


def test_builder_refuses_degrees_against_chevalley(monkeypatch):
    # invariant degrees (2, 2) multiply to 4, not |W| = 8; the uncached
    # builder is called, so no cached group is replaced
    monkeypatch.setattr("chered.reflgrp._degrees_from_molien",
                        lambda dim, mats, order: (2, 2))
    with pytest.raises(ArithmeticError, match=r"invariant degrees \(2, 2\)"
                       r" violate Chevalley's \|W\| = 8"):
        reflgrp._build_b2.__wrapped__()


def test_degree_extraction_refuses_a_leftover_series():
    # read in dimension 1, the Molien series 1/((1 - t^2)(1 - t^4)) of B2
    # keeps 1/(1 - t^4) after its one factor is taken off
    W = build_group("b2")
    with pytest.raises(ArithmeticError,
                       match="invariant-degree extraction failed"):
        reflgrp._degrees_from_molien(1, W.matrices, W.order())


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


def test_fake_degree_refuses_a_foreign_or_reducible_character():
    W = build_group("b2")
    foreign = character_table(build_group("cyclic:3"))[1]
    with pytest.raises(ValueError,
                       match="character does not belong to the group"):
        fake_degree(W, foreign)
    # the values of 1 + eps_s, whose norm is 2
    one, eps_s = character_table(W)[:2]
    forged = replace_fields(one, values=tuple(
        a + b for a, b in zip(one.values, eps_s.values)))
    with pytest.raises(ValueError, match="character is not irreducible"):
        fake_degree(W, forged)


def test_b_invariant_refuses_a_zero_fake_degree():
    # a (eps_s - eps_t) with a = (z8 - z8^3)/2 = sqrt(2)/2 has norm 1, so it
    # passes the checks of `fake_degree`, and its fake degree is
    # a t^2 - a t^2 = 0
    W = build_group("b2")
    chars = {chi.name: chi for chi in character_table(W)}
    z = primitive_root(8)
    a = canon_scalar((z - z ** 3) / 2)
    forged = replace_fields(chars["eps_s"], values=tuple(
        canon_scalar(a * (s - t)) for s, t in zip(chars["eps_s"].values,
                                                  chars["eps_t"].values)))
    assert fake_degree(W, forged).is_zero()
    with pytest.raises(ValueError, match="zero fake degree"):
        b_invariant(W, forged)


@pytest.mark.parametrize("spec", ["cyclic:1", "cyclic:0"])
def test_build_group_refuses_a_cyclic_order_below_2(spec):
    with pytest.raises(ValueError, match="cyclic group needs order >= 2"):
        build_group(spec)


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
            k = {f"K{j}": ks[j] for j in range(d)}
            back = param_convert(W, param_convert(W, k, "C"), "K")
            assert back == k


def test_param_convert_b2():
    W = build_group("b2")
    kv = param_convert(W, {"A": Fraction(1), "B": Fraction(2)}, "K")
    # per-orbit Fourier transform with zeta_2 = -1:
    # K_{orbit,0} = -C/2, K_{orbit,1} = C/2
    assert kv == {"Ks0": Fraction(-1, 2), "Ks1": Fraction(1, 2),
                    "Kt0": Fraction(-1), "Kt1": Fraction(1)}
    assert param_convert(W, kv, "C") == {"A": 1, "B": 2}


def test_k_constraint_enforced():
    W = build_group("cyclic:3")
    with pytest.raises(ValueError):
        param_convert(W, {"K0": Fraction(1), "K1": Fraction(0),
                          "K2": Fraction(0)}, "C")


def test_param_convert_names_missing_label():
    with pytest.raises(ValueError, match=r"missing parameter entries \['B'\]"):
        param_convert(build_group("b2"), {"A": 1}, "K")
    with pytest.raises(ValueError, match=r"missing parameter entries \['K2'\]"):
        param_convert(build_group("cyclic:3"), {"K0": 0, "K1": 0}, "C")
    with pytest.raises(ValueError, match=r"unknown parameter entries \['C'\]"):
        param_convert(build_group("b2"), {"A": 1, "B": 1, "C": 5}, "K")


@pytest.mark.parametrize("orbit", ["s", "t"])
def test_param_convert_names_off_constraint_orbit(orbit):
    # the C-rows never read K_{orbit,0}, so only the sum check can see it
    W = build_group("b2")
    k = {"Ks0": -1, "Ks1": 1, "Kt0": -2, "Kt1": 2}
    k[f"K{orbit}0"] = 5
    with pytest.raises(ValueError,
                       match=f"K-coordinates of orbit {orbit} do not sum"):
        param_convert(W, k, "C")


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
    subst = c_forms(W)
    for val in subst.values():
        assert val.degree_in("K0") == 0


@pytest.mark.parametrize("d", (2, 3, 4, 5, 6))
def test_param_map_matches_rank1_oracle(d):
    W = build_group(f"cyclic:{d}")
    assert c_forms(W) == rank1_c_to_k(d)
    assert list(k_forms(W).values()) == rank1_k_variables(d)


_SPECS = ("cyclic:2", "cyclic:3", "cyclic:4", "cyclic:5", "cyclic:6", "b2")


@settings(max_examples=60, deadline=None)
@given(spec=st.sampled_from(_SPECS), data=st.data())
def test_param_convert_c_k_c_roundtrip(spec, data):
    W = build_group(spec)
    q = st.fractions(min_value=-20, max_value=20, max_denominator=12)
    cv = {lab: data.draw(q, label=lab) for lab in W.param_names}
    kv = param_convert(W, cv, "K")
    assert param_convert(W, kv, "C") == cv
    # the owner's C-rows, as linear forms evaluated at the K-point, give C
    # back
    forms = c_forms(W)
    for lab, value in cv.items():
        got = forms[lab].substitute(kv)
        assert canon_scalar(got.constant_value()) == value
    for lab, form in k_forms(W).items():
        got = form.substitute(kv)
        assert canon_scalar(got.constant_value()) == kv[lab]


@pytest.mark.parametrize("spec", ["b2"] + [f"cyclic:{d}" for d in range(2, 13)])
def test_param_convert_matches_the_oracle_forms(spec):
    """K -> C at seeded rational K-points is the oracle's C-forms evaluated
    there (`rank1_c_to_k`; on each orbit of b2, whose reflections have
    order 2, C = K_1 - K_0 = 2 K_1), and C -> K -> C gives seeded rational
    C-points back, and a Cyclotomic one."""
    W = build_group(spec)
    if spec == "b2":
        forms = {"A": 2 * MPoly.var("Ks1"), "B": 2 * MPoly.var("Kt1")}
    else:
        forms = rank1_c_to_k(W.order())
    rng = random.Random(zlib.crc32(f"convert/{spec}".encode()))

    def q():
        return canon_scalar(Fraction(rng.randint(-20, 20), rng.randint(1, 6)))

    for _ in range(3):
        names, kv = iter(W.k_param_names()), {}
        for _, e in W.hyperplane_orbits:
            labs = [next(names) for _ in range(e)]
            rest = [q() for _ in labs[1:]]
            kv.update(zip(labs, [canon_scalar(-sum(rest)), *rest]))
        assert param_convert(W, kv, "C") == {
            lab: canon_scalar(form.substitute(kv).constant_value())
            for lab, form in forms.items()}
        cv = {lab: q() for lab in W.param_names}
        assert param_convert(W, param_convert(W, cv, "K"), "C") == cv
    z = primitive_root(W.order())
    cv = {lab: z ** (i + 1) + q() for i, lab in enumerate(W.param_names)}
    assert param_convert(W, param_convert(W, cv, "K"), "C") == cv


def test_character_table_refuses_a_repeated_character():
    W = build_group("cyclic:3")
    chars = character_table(W)
    assert chars[0].name == "eps^0"
    with pytest.raises(ArithmeticError,
                       match=r"characters eps\^0, eps\^0 are not orthonormal"):
        reflgrp._check_character_table(W, (chars[0], chars[0], chars[2]))


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


def test_specs_of_one_group_build_one_object():
    # one object per group, so every spelling of its spec reads the results
    # cached for it
    A = build_group("cyclic:03")
    table = omega_table(build_group("cyclic:3"))
    chi = character_table(A)[1]
    assert omega(euler_element(A), [chi])[chi.name] == table[chi.name]["eu"]
    assert A is build_group("cyclic:3")


@pytest.mark.parametrize("values, target", [
    ({"A": 0.1, "B": 0.2}, "K"),
    ({"Ks0": -0.5, "Ks1": 0.5, "Kt0": 0, "Kt1": 0}, "C"),
])
def test_param_convert_rejects_inexact_values(values, target):
    with pytest.raises(TypeError, match="must be exact"):
        param_convert(build_group("b2"), values, target)


@pytest.mark.parametrize("spec, message", [
    ("cyclic:x", "cyclic group order must be a positive integer, got 'x'"),
    ("cyclic:2.5", "cyclic group order must be a positive integer,"
     " got '2.5'"),
    ("a2", "unknown group descriptor 'a2'"),
], ids=["letter", "fraction", "unknown"])
def test_build_group_refuses_a_malformed_spec(spec, message):
    with pytest.raises(ValueError, match=message):
        build_group(spec)


def test_param_convert_refuses_a_k_point_off_the_constraint():
    # K0 is eliminated from the C-rows, so only the sum check sees it
    with pytest.raises(ValueError,
                       match="K-coordinates of orbit s do not sum to zero"):
        param_convert(build_group("cyclic:3"), {"K0": 1, "K1": 0, "K2": 0},
                      "C")


@pytest.mark.parametrize("spec", ["b2"] + [f"cyclic:{d}" for d in range(2, 9)])
def test_k_forms_equal_param_maps(spec):
    """The K-forms built without the C<->K table are those of the table:
    each K-row of `param_map`, read over its C-rows, gives the K-form."""
    W = build_group(spec)
    pm = param_map(W)
    ks = k_forms(W)
    forms = c_forms(W)
    assert [lab for lab, _ in pm.k_rows] == list(ks) == list(W.k_param_names())
    assert [lab for lab, _ in pm.c_rows] == list(W.param_names)
    for lab, row in pm.k_rows:
        form = sum((forms[c] * coeff for c, coeff in row), MPoly.zero())
        assert form == ks[lab], lab
    assert k_forms(W) is ks


def test_param_convert_rejects_an_unknown_target():
    with pytest.raises(ValueError, match="target basis must be 'C' or 'K'"):
        param_convert(build_group("b2"), {"A": 1, "B": 1}, "Q")
