"""Baby Verma modules and central characters."""
from collections import Counter
from fractions import Fraction

import pytest

from chered.exactnum import canon_scalar
from chered.multipoly import MPoly
from chered.reflgrp import (build_group, character_table, fake_degree,
                            param_convert)
from chered.cherednik import (PBWElement, euler_element, multiply,
                              named_center_generators)
from chered.verma import (BabyVermaModule, _reynolds_invariants,
                          build_baby_verma, coinvariant_basis, omega,
                          omega_table)
from oracles import (dense_act, dense_columns, dense_omega,
                     graded_character_eM, omega_euler_closed_form,
                     replace_fields)


def test_coinvariant_basis_dimensions():
    for spec in ("cyclic:2", "cyclic:4", "b2"):
        W = build_group(spec)
        monomials, _ = coinvariant_basis(W)
        assert len(monomials) == W.order()
    monomials, _ = coinvariant_basis(build_group("b2"))
    assert Counter(sum(m) for m in monomials) == {0: 1, 1: 2, 2: 2, 3: 2,
                                                  4: 1}


def _monomials(n, k):
    if n == 1:
        return [(k,)]
    return [(i,) + rest for i in range(k + 1) for rest in _monomials(n - 1, k - i)]


@pytest.mark.parametrize("spec", ["b2"] + [f"cyclic:{d}" for d in range(2, 7)])
def test_coinvariant_reduction_kills_the_invariant_ideal(spec):
    """The normal forms, extended linearly, kill m * f for every
    fundamental invariant f, and fix each basis monomial."""
    W = build_group(spec)
    monomials, normal_forms = coinvariant_basis(W)
    for m in monomials:
        assert normal_forms[m] == {m: 1}
    top = sum(d - 1 for d in W.degrees)
    for f, d in zip(_reynolds_invariants(W), W.degrees):
        for k in range(top + 2 - d):
            for m in _monomials(W.dim, k):
                total: dict = {}
                for fm, c in f.items():
                    prod = tuple(a + b for a, b in zip(m, fm))
                    for bm, bc in normal_forms[prod].items():
                        total[bm] = total.get(bm, 0) + c * bc
                assert all(v == 0 for v in total.values()), (m, f)


def test_module_dimensions():
    W = build_group("b2")
    for chi in character_table(W):
        mod = build_baby_verma(W, chi)
        assert mod.dim == W.order() * chi.degree


def test_invariants_refuse_a_degree_without_one():
    # cyclic:3 forged with the invariant degree 2: x^2 averages to 0
    W = replace_fields(build_group("cyclic:3"), degrees=(2,))
    with pytest.raises(ArithmeticError, match="no invariant of degree 2"):
        _reynolds_invariants(W)


# b2 forged with the degrees (2, 2) finds x^2 + y^2 twice, whose quotient
# has the graded dimension 1, 2, 2; cyclic:2 forged with the degree 4 gets
# the right graded dimension of a quotient of dimension 4, not |W| = 2.
# A forged group differs from the built one, so the cache misses it.
@pytest.mark.parametrize("spec, degrees, got, expect", [
    ("b2", (2, 2), "1, 2, 2", "1, 2, 1"),
    ("cyclic:2", (4,), "1, 1, 1, 1", "1, 1, 1, 1"),
], ids=["b2", "cyclic:2"])
def test_coinvariant_basis_refuses_a_wrong_graded_dimension(spec, degrees,
                                                            got, expect):
    W = replace_fields(build_group(spec), degrees=degrees)
    with pytest.raises(ArithmeticError,
                       match="coinvariant basis has graded dimension") as info:
        coinvariant_basis(W)
    assert str(info.value).endswith(
        f" [{got}], expected [{expect}] (|W| = {W.order()})")


def test_modules_compare_by_identity():
    W = build_group("cyclic:2")
    mod = build_baby_verma(W, character_table(W)[1])
    twin = BabyVermaModule(W, mod.basis, mod.normal_forms, mod.chi_mats)
    assert twin.v_maps == mod.v_maps
    assert twin != mod and twin == twin


def test_module_rejects_a_realization_of_the_wrong_dimension():
    # a 1x1 realization of the 2-dimensional b2 character chi would give an
    # 8-dimensional module where chi needs 16
    W = build_group("b2")
    chi = next(c for c in character_table(W) if c.name == "chi")
    forged = replace_fields(chi, matrices=(((1,),),) * W.order())
    with pytest.raises(ArithmeticError, match="realization of chi has"
                       " dimension 1, expected 2"):
        build_baby_verma(W, forged)


def _poly(expr_vars):
    a, b = MPoly.var("A"), MPoly.var("B")
    return expr_vars(a, b)


def test_omega_table_b2():
    """The central characters of (eu, eu', eu'', delta) on each character."""
    W = build_group("b2")
    table = omega_table(W)
    A, B = MPoly.var("A"), MPoly.var("B")
    zero = MPoly.zero()
    expected = {
        "1": (-2 * (B + A), zero, zero, 2 * B * (B + A)),
        "eps_s": (-2 * (B - A), zero, zero, 2 * B * (B - A)),
        "eps_t": (2 * (B - A), zero, zero, 2 * B * (B - A)),
        "eps": (2 * (B + A), zero, zero, 2 * B * (B + A)),
        "chi": (zero, zero, zero, zero),
    }
    for name, (v_eu, v_eu1, v_eu2, v_delta) in expected.items():
        row = table[name]
        assert row["eu"] == v_eu, name
        assert row["eu'"] == v_eu1, name
        assert row["eu''"] == v_eu2, name
        assert row["delta"] == v_delta, name
        # the embedded invariants act by zero on every baby Verma module
        for gen in ("sigma", "pi", "Sigma", "Pi"):
            assert row[gen].is_zero(), (name, gen)


@pytest.mark.parametrize("spec", ("cyclic:2", "cyclic:3", "cyclic:4",
                                  "cyclic:5", "cyclic:6", "b2"))
def test_omega_euler_closed_form(spec):
    W = build_group(spec)
    eu = euler_element(W)
    for chi in character_table(W):
        assert omega(eu, chi) == \
            omega_euler_closed_form(W, chi)


@pytest.mark.parametrize("d", (2, 3, 4, 5, 6))
def test_omega_euler_cyclic_is_d_K_minus_i(d):
    import random
    rng = random.Random(d * 31 + 7)
    W = build_group(f"cyclic:{d}")
    eu = euler_element(W)
    cvals = {f"C{i}": Fraction(rng.randint(-5, 5)) for i in range(1, d)}
    kmap = param_convert(W, cvals, "K")
    for i, chi in enumerate(character_table(W)):
        val = omega(eu, chi).substitute(cvals)
        expected = canon_scalar(d * kmap[f"K{(-i) % d}"])
        assert canon_scalar(val.constant_value()) == expected, (d, i)


def test_nilpotency_certificates_delta():
    W = build_group("b2")
    delta = named_center_generators(W)["delta"]
    for chi in character_table(W):
        omega(delta, chi)  # raises on failure


def test_graded_character_matches_fake_degree():
    for spec in ("cyclic:3", "cyclic:5", "b2"):
        W = build_group(spec)
        for chi in character_table(W):
            assert graded_character_eM(W, chi) == fake_degree(W, chi), \
                (spec, chi.name)


def test_omega_requires_scalar_action():
    # a non-central element has no central character; the trace-average is
    # still computable, but the nilpotency certificate must reject it
    W = build_group("b2")
    chars = character_table(W)
    s = PBWElement.group_gen(W, W.index_of("s"))
    with pytest.raises(ArithmeticError, match="nilpotency check"):
        omega(s, chars[4])


def test_omega_rejects_non_central_at_a_rational_point(monkeypatch):
    # y*s^2 + y*x on cyclic:5 took 2.45 s to reject when only the symbolic
    # powers of N = z - Omega were tested; the powers at a rational point
    # reject it, and a returned value still has its symbolic certificate
    import chered.verma as verma
    top_power = verma._top_power
    symbolic = []

    def spy(cols, dim):
        symbolic.append(any(isinstance(x, MPoly)
                            for col in cols for x in col.values()))
        return top_power(cols, dim)

    monkeypatch.setattr(verma, "_top_power", spy)
    W = build_group("cyclic:5")
    y, x = PBWElement.v_gen(W, 0), PBWElement.dual_gen(W, 0)
    z = y * PBWElement.group_gen(W, W.index_of("s^2")) + y * x
    for chi in character_table(W):
        with pytest.raises(ArithmeticError, match="nilpotency"):
            omega(z, chi)
    assert symbolic == [False] * 5
    symbolic.clear()
    omega(euler_element(W), character_table(W)[1])
    assert symbolic == [False, True]


@pytest.mark.parametrize("d", (2, 3, 4, 5, 6, 7))
def test_omega_table_cyclic_invariants_act_by_zero(d):
    table = omega_table(build_group(f"cyclic:{d}"))
    for name, row in table.items():
        assert row["X"].is_zero() and row["Y"].is_zero(), name


def _mat_product(a, b):
    n = len(a)
    return [[sum((a[i][k] * b[k][j] for k in range(n)), MPoly.zero())
             for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("spec", ("cyclic:2", "cyclic:3", "cyclic:4", "b2"))
def test_action_is_multiplicative(spec):
    """The module action (V through V*-monomials) agrees with the product of
    the PBW engine (V* through V-monomials) on all pairs of generators and
    group elements."""
    W = build_group(spec)
    elems = ([PBWElement.v_gen(W, i) for i in range(W.dim)]
             + [PBWElement.dual_gen(W, i) for i in range(W.dim)]
             + [PBWElement.group_gen(W, g) for g in range(W.order())])
    for chi in character_table(W):
        mod = build_baby_verma(W, chi)
        mats = [dense_columns(mod.act(z)) for z in elems]
        for a, ma in zip(elems, mats):
            for b, mb in zip(elems, mats):
                assert dense_columns(mod.act(multiply(a, b))) == \
                    _mat_product(ma, mb), \
                    (chi.name, str(a), str(b))


def test_act_rejects_other_algebras():
    W = build_group("cyclic:3")
    chi = character_table(W)[1]
    mod = build_baby_verma(W, chi)
    other = build_group("cyclic:4")
    with pytest.raises(ValueError, match="another group"):
        mod.act(euler_element(other))
    # a character of another group is refused, not silently misread
    # (cyclic:3 with a cyclic:4 character) or an IndexError (b2)
    for spec in ("cyclic:3", "b2"):
        z = euler_element(build_group(spec))
        with pytest.raises(ValueError, match="does not belong to the group"):
            omega(z, character_table(other)[1])


def _random_element(W, rng):
    """A few random normal words with small exponents and random parameter
    coefficients; central only by accident."""
    params = [MPoly.var(p) for p in W.param_names]
    z = PBWElement.zero(W)
    for _ in range(rng.randint(1, 3)):
        p = tuple(rng.randint(0, 2) for _ in range(W.dim))
        q = tuple(rng.randint(0, 2) for _ in range(W.dim))
        coeff = MPoly.const(rng.randint(-3, 3)) + rng.choice(params) * rng.randint(-2, 2)
        z = z + PBWElement.monomial(W, p, rng.randrange(W.order()), q, coeff)
    return z


def _high_word(W, rng):
    """A random normal word whose V*-part has degree top - 1, top or
    top + 1, top the degree of the top coinvariant: `act` skips it on the
    basis vectors it would carry past the top."""
    top = sum(d - 1 for d in W.degrees)
    q = [0] * W.dim
    for _ in range(rng.randint(top - 1, top + 1)):
        q[rng.randrange(W.dim)] += 1
    p = tuple(rng.randint(0, 2) for _ in range(W.dim))
    coeff = MPoly.var(rng.choice(W.param_names)) + rng.randint(-3, 3)
    return PBWElement.monomial(W, p, rng.randrange(W.order()), q, coeff)


@pytest.mark.parametrize("spec", ["b2"] + [f"cyclic:{d}" for d in range(2, 7)])
def test_sparse_action_matches_dense_oracle(spec):
    """act equals the dense matrix product entry by entry on random elements,
    on random words whose V*-part reaches past the top degree, and on the
    named generators; omega returns the oracle's trace / dim on the named
    generators and rejects the non-central s, as the oracle's nilpotency
    check does.  (Squaring a generic non-central action is too costly for a
    test, so random elements only exercise act.)"""
    import random
    rng = random.Random(sum(map(ord, spec)))
    W = build_group(spec)
    named = list(named_center_generators(W).values())
    s = PBWElement.group_gen(W, W.index_of("s"))
    elems = (named + [s] + [_random_element(W, rng) for _ in range(3)]
             + [_high_word(W, rng) for _ in range(3)])
    for chi in character_table(W):
        mod = build_baby_verma(W, chi)
        for z in elems:
            assert dense_columns(mod.act(z)) == dense_act(mod, z), \
                (chi.name, str(z))
        for z in named:
            assert dense_omega(z, chi) == (omega(z, chi), True), \
                (chi.name, str(z))
        assert dense_omega(s, chi)[1] is False, chi.name
        with pytest.raises(ArithmeticError, match="nilpotency"):
            omega(s, chi)


def test_omega_table_certifies_every_entry(monkeypatch):
    """A non-central generator in the table fails its nilpotency check."""
    import chered.verma as verma
    named = verma.named_center_generators

    def with_s(W):
        gens = dict(named(W))
        gens["s"] = PBWElement.group_gen(W, W.index_of("s"))
        return gens

    W = build_group("b2")
    monkeypatch.setattr(verma, "named_center_generators", with_s)
    omega_table.cache_clear()
    try:
        with pytest.raises(ArithmeticError, match="nilpotency"):
            omega_table(W)
    finally:
        omega_table.cache_clear()


@pytest.mark.parametrize("d", range(3, 9))
def test_act_skips_words_that_leave_the_graded_module(d, monkeypatch):
    """Y = y^d lowers the degree by d, past every degree 0..d-1 of the
    module, so `act` applies none of its letters."""
    import chered.verma as verma
    calls = []
    real = verma._apply

    def counted(columns, vec):
        calls.append(1)
        return real(columns, vec)

    monkeypatch.setattr(verma, "_apply", counted)
    W = build_group(f"cyclic:{d}")
    Y = named_center_generators(W)["Y"]
    for chi in character_table(W):
        assert build_baby_verma(W, chi).act(Y) == [{}] * d, chi.name
    assert calls == []
