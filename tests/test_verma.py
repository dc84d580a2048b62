"""Baby Verma modules and central characters."""
from collections import Counter
from fractions import Fraction

import pytest

from chered.exactnum import canon_scalar
from chered.multipoly import MPoly
from chered.reflgrp import (build_group, character_table, fake_degree,
                            idempotent_basis, param_convert)
from chered.cherednik import (PBWElement, euler_element, multiply,
                              named_center_generators)
from chered.verma import (BabyVermaModule, _reynolds_invariants,
                          build_baby_verma, coinvariant_basis, omega,
                          omega_table)
from oracles import (c_forms, dense_act, dense_omega, graded_character_eM,
                     omega_euler_closed_form, on_character, replace_fields)


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


def _identity(n):
    return [[MPoly.const(int(i == j)) for j in range(n)] for i in range(n)]


def test_module_dimensions():
    """The module of the regular representation has one column per
    coinvariant monomial, on which the unit acts with the label of the
    identity; on the module of chi it is the identity of size
    |W| * chi(1)."""
    W = build_group("b2")
    one = build_baby_verma(W).act(PBWElement.one(W))
    assert one == [{(i, W.identity): 1} for i in range(W.order())]
    for chi in character_table(W):
        assert on_character(one, W, chi) == _identity(W.order() * chi.degree)


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
    mod = build_baby_verma(W)
    twin = BabyVermaModule(W)
    assert twin.v_maps == mod.v_maps
    assert twin != mod and twin == twin
    assert build_baby_verma(W) is mod


def test_module_rejects_a_realization_of_the_wrong_dimension():
    # a 1x1 realization of the 2-dimensional b2 character chi would give an
    # 8-dimensional module where chi needs 16
    W = build_group("b2")
    chi = next(c for c in character_table(W) if c.name == "chi")
    forged = replace_fields(chi, matrices=(((1,),),) * W.order())
    with pytest.raises(ArithmeticError, match="realization of chi has"
                       " dimension 1, expected 2"):
        omega(euler_element(W), [forged])


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
    values = omega(euler_element(W), character_table(W))
    for chi in character_table(W):
        assert values[chi.name] == omega_euler_closed_form(W, chi)


@pytest.mark.parametrize("d", range(2, 11))
def test_omega_euler_cyclic_is_d_K_minus_i(d):
    import random
    rng = random.Random(d * 31 + 7)
    W = build_group(f"cyclic:{d}")
    values = omega(euler_element(W), character_table(W))
    cvals = {f"C{i}": Fraction(rng.randint(-5, 5)) for i in range(1, d)}
    kmap = param_convert(W, cvals, "K")
    for i, chi in enumerate(character_table(W)):
        val = values[chi.name].substitute(cvals)
        expected = canon_scalar(d * kmap[f"K{(-i) % d}"])
        assert canon_scalar(val.constant_value()) == expected, (d, i)


def test_nilpotency_certificates_delta():
    W = build_group("b2")
    delta = named_center_generators(W)["delta"]
    omega(delta, character_table(W))  # raises on failure


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
        omega(s, [chars[4]])


def test_omega_rejects_non_central_at_a_rational_point(monkeypatch):
    # y*s^2 + y*x on cyclic:5 took 2.45 s to reject when only the symbolic
    # powers of N = z - Omega were tested; the powers at a rational point
    # reject it, and a returned value still has its symbolic certificate.
    # An entry of N is a term map, whose exponents are () at the point and
    # tuples over the variables of z when symbolic.
    import chered.verma as verma
    top_power = verma._top_power
    symbolic = []

    def spy(cols, dim):
        symbolic.append(any(exp for col in cols for terms in col.values()
                            for exp in terms))
        return top_power(cols, dim)

    monkeypatch.setattr(verma, "_top_power", spy)
    W = build_group("cyclic:5")
    chars = character_table(W)
    y, x = PBWElement.v_gen(W, 0), PBWElement.dual_gen(W, 0)
    z = y * PBWElement.group_gen(W, W.index_of("s^2")) + y * x
    with pytest.raises(ArithmeticError, match="nilpotency"):
        omega(z, chars)
    assert symbolic == [False]
    symbolic.clear()
    for chi in chars:
        with pytest.raises(ArithmeticError, match="nilpotency"):
            omega(z, [chi])
    assert symbolic == [False] * 5
    symbolic.clear()
    # x raises the degree, so eu + x is Omega(eu) plus a nonzero nilpotent
    value = omega(euler_element(W) + x, chars)
    assert symbolic == [False, True] * 5
    assert value == omega(euler_element(W), chars)


@pytest.mark.parametrize("d", range(2, 11))
def test_omega_table_cyclic_invariants_act_by_zero(d):
    table = omega_table(build_group(f"cyclic:{d}"))
    for name, row in table.items():
        assert row["X"].is_zero() and row["Y"].is_zero(), name


@pytest.mark.parametrize("spec",
                         ["b2"] + [f"cyclic:{d}" for d in range(2, 11)])
def test_omega_table_values_and_variables(spec):
    """Omega(eu) is the closed form of every character, and each entry is
    over the sorted parameters of the group, or the zero polynomial over
    no variables."""
    W = build_group(spec)
    params = tuple(sorted(W.param_names))
    for chi in character_table(W):
        row = omega_table(W)[chi.name]
        assert row["eu"] == omega_euler_closed_form(W, chi), chi.name
        for name, value in row.items():
            assert value.vars == (() if value.is_zero() else params), \
                (chi.name, name)


@pytest.mark.parametrize("d", (7, 8))
def test_omega_table_matches_the_dense_oracle(d):
    W = build_group(f"cyclic:{d}")
    table = omega_table(W)
    gens = named_center_generators(W)
    for chi in character_table(W):
        for name in ("eu", "X", "Y"):
            assert dense_omega(gens[name], chi) == (table[chi.name][name],
                                                    True), (chi.name, name)


@pytest.mark.parametrize("spec", ("b2", "cyclic:3", "cyclic:6"))
def test_omega_table_acts_once_per_generator(spec, monkeypatch):
    """One module of the regular representation per basis, and one action
    per named generator, whatever the number of characters."""
    import chered.verma as verma
    built, acted = [], []
    init, act = BabyVermaModule.__init__, BabyVermaModule.act

    def spy_init(self, B):
        built.append(B)
        init(self, B)

    def spy_act(self, z):
        acted.append(self)
        return act(self, z)

    monkeypatch.setattr(BabyVermaModule, "__init__", spy_init)
    monkeypatch.setattr(BabyVermaModule, "act", spy_act)
    W = build_group(spec)
    omega_table.cache_clear()
    verma.build_baby_verma.cache_clear()
    try:
        omega_table(W)
    finally:
        omega_table.cache_clear()
        verma.build_baby_verma.cache_clear()
    assert built == [W]
    assert len(acted) == len(named_center_generators(W))
    assert len(set(map(id, acted))) == 1


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
    mod = build_baby_verma(W)
    acts = [mod.act(z) for z in elems]
    products = [[mod.act(multiply(a, b)) for b in elems] for a in elems]
    for chi in character_table(W):
        mats = [on_character(cols, W, chi) for cols in acts]
        for a, ma, row in zip(elems, mats, products):
            for b, mb, ab in zip(elems, mats, row):
                assert on_character(ab, W, chi) == \
                    _mat_product(ma, mb), \
                    (chi.name, str(a), str(b))


def test_act_rejects_other_algebras():
    W = build_group("cyclic:3")
    mod = build_baby_verma(W)
    other = build_group("cyclic:4")
    with pytest.raises(ValueError, match="another group"):
        mod.act(euler_element(other))
    # a character of another group is refused, not silently misread
    # (cyclic:3 with a cyclic:4 character) or an IndexError (b2)
    for spec in ("cyclic:3", "b2"):
        z = euler_element(build_group(spec))
        with pytest.raises(ValueError, match="does not belong to the group"):
            omega(z, [character_table(other)[1]])


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
    on random words whose V*-part reaches past the top degree, on a word
    with a coefficient outside the parameters and on the named generators;
    omega returns the oracle's trace / dim on the named generators and
    rejects the non-central s, as the oracle's nilpotency check does.
    (Squaring a generic non-central action is too costly for a test, so
    random elements only exercise act.)"""
    import random
    rng = random.Random(sum(map(ord, spec)))
    W = build_group(spec)
    named = list(named_center_generators(W).values())
    s = PBWElement.group_gen(W, W.index_of("s"))
    # a coefficient in variables that are not parameters, one sorting
    # among them and one after them
    zeros = (0,) * (W.dim - 1)
    foreign = PBWElement.monomial(W, (1,) + zeros, W.index_of("s"),
                                  zeros + (1,),
                                  MPoly.var("B0") * MPoly.var("u") + 1)
    elems = (named + [s, foreign] + [_random_element(W, rng) for _ in range(3)]
             + [_high_word(W, rng) for _ in range(3)])
    chars = character_table(W)
    mod = build_baby_verma(W)
    acts = [mod.act(z) for z in elems]
    values = [omega(z, chars) for z in named]
    for chi in chars:
        for z, cols in zip(elems, acts):
            assert on_character(cols, W, chi) == dense_act(z, chi), \
                (chi.name, str(z))
        for z, value in zip(named, values):
            assert dense_omega(z, chi) == (value[chi.name], True), \
                (chi.name, str(z))
        assert dense_omega(s, chi)[1] is False, chi.name
        with pytest.raises(ArithmeticError, match="nilpotency"):
            omega(s, [chi])


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
    assert build_baby_verma(W).act(Y) == [{}] * d
    assert calls == []


# ---------------------------------------------------------------------------
# the same module over a cyclic group's idempotents
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d", range(2, 9))
def test_omega_over_idempotents_matches_the_group_basis(d):
    """Omega_chi(eu) over the idempotent basis, in the K-labels, is Omega_chi
    of the group's eu, in the C-labels, with each C-label replaced by its
    K-form; and it is rational."""
    W = build_group(f"cyclic:{d}")
    B = idempotent_basis(W)
    forms = c_forms(W)
    chars = character_table(W)
    over_idem = omega(euler_element(B), chars)
    over_group = omega(euler_element(W), chars)
    for chi in chars:
        value = over_idem[chi.name]
        assert value == over_group[chi.name].substitute(forms), chi.name
        assert all(isinstance(c, (int, Fraction))
                   for c in value.terms.values()), chi.name


@pytest.mark.parametrize("d", (3, 4))
def test_action_over_idempotents_is_multiplicative(d):
    """On the module over the idempotent basis, act(a b) = act(a) act(b) on
    seeded random pairs and on all pairs of generators, and act agrees
    with the dense oracle."""
    import random
    rng = random.Random(1000 + d)
    W = build_group(f"cyclic:{d}")
    B = idempotent_basis(W)
    gens = ([PBWElement.v_gen(B, 0), PBWElement.dual_gen(B, 0)]
            + [PBWElement.group_gen(B, j) for j in range(d)])
    pairs = ([(_random_element(B, rng), _random_element(B, rng))
              for _ in range(6)]
             + [(a, b) for a in gens for b in gens])
    mod = build_baby_verma(B)
    acts = [(mod.act(multiply(a, b)), mod.act(a), mod.act(b))
            for a, b in pairs]
    for chi in character_table(W):
        for (a, b), (ab, ma, mb) in zip(pairs, acts):
            assert on_character(ab, B, chi) == _mat_product(
                on_character(ma, B, chi), on_character(mb, B, chi)), \
                (chi.name, str(a), str(b))
        for (a, b), (_, ma, mb) in zip(pairs[:6], acts):
            assert on_character(ma, B, chi) == dense_act(a, chi), \
                (chi.name, str(a))
            assert on_character(mb, B, chi) == dense_act(b, chi), \
                (chi.name, str(b))


def test_omega_over_idempotents_refuses_non_central_elements():
    # x raises the degree, so it acts nilpotently and Omega(x) = 0 holds;
    # each e_j acts as a projector of rank 1 and x y as a non-scalar
    # diagonal, so neither is a scalar plus a nilpotent
    W = build_group("cyclic:3")
    B = idempotent_basis(W)
    x, y = PBWElement.dual_gen(B, 0), PBWElement.v_gen(B, 0)
    chars = character_table(W)
    assert all(v.is_zero() for v in omega(x, chars).values())
    for chi in chars:
        for z in [x * y] + [PBWElement.group_gen(B, j) for j in range(3)]:
            with pytest.raises(ArithmeticError,
                               match="central element failed the nilpotency"
                               " check"):
                omega(z, [chi])


def test_idempotents_act_on_a_linear_character_by_its_exponent():
    W = build_group("cyclic:4")
    B = idempotent_basis(W)
    for m, chi in enumerate(character_table(W)):
        assert B.matrices_in(chi) == tuple(((int(j == m),),)
                                           for j in range(4)), chi.name


def test_idempotent_basis_refuses_a_forged_linear_character():
    W = build_group("cyclic:4")
    B = idempotent_basis(W)
    chi = character_table(W)[1]
    mats = chi.matrices
    forged = [
        # s -> z, but s^2 -> z^3 where z^2 belongs
        replace_fields(chi, matrices=(mats[0], mats[1], mats[3], mats[3])),
        # s -> 1/2, no power of z
        replace_fields(chi, matrices=tuple(((Fraction(1, 2 ** k),),)
                                           for k in range(4))),
        # one matrix too few
        replace_fields(chi, matrices=mats[:3]),
    ]
    for psi in forged:
        with pytest.raises(ValueError,
                           match=r"eps\^1 is not a linear character"):
            B.matrices_in(psi)
        with pytest.raises(ValueError, match="is not a linear character"):
            omega(euler_element(B), [psi])


def test_idempotent_module_refuses_a_character_of_another_group():
    B = idempotent_basis(build_group("cyclic:3"))
    for spec in ("cyclic:4", "b2"):
        chi = character_table(build_group(spec))[1]
        with pytest.raises(ValueError, match="does not belong to the group"):
            omega(euler_element(B), [chi])
