"""PBW engine: straightening, associativity, Euler element, gradings,
Poisson bracket."""
import operator
import random
import zlib
from fractions import Fraction

import pytest

from chered.multipoly import MPoly
from chered.reflgrp import build_group, character_table, idempotent_basis
from chered.cherednik import (PBWElement, _deformed, algebra_generators,
                              commutator, euler_element, multiply,
                              named_center_generators, noncommuting_generator,
                              poisson_bracket, residue_summary, z_degree)
from oracles import (idempotents_to_group, multiply_per_term, rank1_c_to_k,
                     replace_fields, substitute_params, twist_by_linear_char)


GROUPS = ("cyclic:2", "cyclic:3", "cyclic:4", "b2")


def random_element(W, rng, nterms=2):
    elem = PBWElement.zero(W)
    for _ in range(nterms):
        vexp = tuple(rng.randint(0, 2) for _ in range(W.dim))
        dexp = tuple(rng.randint(0, 2) for _ in range(W.dim))
        g = rng.randrange(W.order())
        coeff = rng.randint(-3, 3)
        if coeff:
            elem = elem + PBWElement.monomial(W, vexp, g, dexp, coeff)
    return elem


@pytest.mark.parametrize("spec", GROUPS)
def test_associativity_random_triples(spec):
    W = build_group(spec)
    rng = random.Random(zlib.crc32(spec.encode()))
    for _ in range(30):
        a = random_element(W, rng)
        b = random_element(W, rng)
        c = random_element(W, rng)
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


def over(B, elem):
    """elem, its terms kept, as an element over the basis B."""
    return PBWElement(B, elem.terms)


def deformed_product(a, b):
    """a * b in the T-deformation, over the basis of a and b."""
    D = _deformed(a.basis)
    return over(a.basis, multiply(over(D, a), over(D, b)))


def bases(W):
    """W and the basis of its T-deformation."""
    return W, _deformed(W)


def sharing_element(W, rng):
    """An element of 4 to 6 terms that take their V*-parts from two
    choices, so several terms share one, with coefficients linear in the
    parameters of the basis W (T among them over `_deformed`), and in K1
    and sigma, which are not parameters of the group, so a product's
    variable tuple is wider than the group's."""
    names = W.param_names + ("K1", "sigma")
    duals = [tuple(rng.randint(0, 2) for _ in range(W.dim)) for _ in range(2)]
    terms = {}
    size = rng.randint(4, 6)
    while len(terms) < size:
        key = (tuple(rng.randint(0, 2) for _ in range(W.dim)),
               rng.randrange(W.order()), rng.choice(duals))
        terms[key] = (rng.choice([-2, -1, 1, 3])
                      + rng.randint(-2, 2) * MPoly.var(rng.choice(names)))
    return PBWElement(W, terms)


@pytest.mark.parametrize("with_T", [False, True], ids=["False-C", "True-C"])
@pytest.mark.parametrize("spec", GROUPS)
def test_multiply_matches_per_term_oracle(spec, with_T):
    W = build_group(spec)
    W = _deformed(W) if with_T else W
    rng = random.Random(zlib.crc32(f"{spec}/{with_T}/C".encode()))
    for _ in range(4):
        a = sharing_element(W, rng)
        b = sharing_element(W, rng)
        duals = [q for _, _, q in a.terms]
        assert len(duals) >= 4 and len(set(duals)) < len(duals)
        for lhs, rhs in ((a, b), (b, a), (a, a)):
            assert (multiply(lhs, rhs).terms
                    == multiply_per_term(lhs, rhs).terms)


@pytest.mark.parametrize("spec", GROUPS)
def test_results_hold_only_nonzero_polynomial_coefficients(spec):
    # sums, negations and products build their results from finished terms
    # without coercing them again, so each must come out finished
    W = build_group(spec)
    rng = random.Random(zlib.crc32(f"{spec}/finished".encode()))
    for _ in range(4):
        a = sharing_element(W, rng)
        b = sharing_element(W, rng)
        for value in (a + b, a + (-a), -a, a - b, multiply(a, b),
                      multiply(a, -a), a * b, a.scale(MPoly.var("A") - 1),
                      3 * a, a * 0):
            assert value.basis is W
            assert all(type(c) is MPoly and not c.is_zero()
                       for c in value.terms.values())
        assert (a + (-a)).is_zero() and not (a + (-a)).terms
        assert a.scale(0).is_zero() and not a.scale(MPoly.zero()).terms


@pytest.mark.parametrize("with_T", [False, True])
def test_product_ignores_unused_coefficient_variables(with_T):
    # c + K1 - K1 equals c but carries K1 among its variables; a product
    # may also carry a variable it does not use, such as T
    W = build_group("b2")
    W = _deformed(W) if with_T else W
    rng = random.Random(zlib.crc32(f"unused/{with_T}".encode()))
    k1 = MPoly.var("K1")
    for _ in range(3):
        a, b = sharing_element(W, rng), sharing_element(W, rng)
        wide_a, wide_b = (PBWElement(W, {key: c + k1 - k1 for key, c in e.terms.items()})
                          for e in (a, b))
        assert all("K1" in c.vars for c in wide_a.terms.values())
        product = multiply(a, b)
        wide = multiply(wide_a, wide_b)
        reference = multiply_per_term(a, b)
        assert wide == product == reference
        assert str(wide) == str(product) == str(reference)


def term_weight(key, coeff: MPoly) -> int:
    """|p| + |q| + 2 deg(e), largest over the coefficient monomials e."""
    p, _, q = key
    return sum(p) + sum(q) + 2 * max(map(sum, coeff.terms))


def max_weight(elem: PBWElement) -> int:
    return max(term_weight(key, c) for key, c in elem.terms.items())


@pytest.mark.parametrize("spec", GROUPS + ("cyclic:7", "cyclic:8"))
def test_product_weight_is_subadditive(spec):
    # the premise of the field widths of `multiply`: no term of a product
    # weighs more than the heaviest term of a plus the heaviest of b
    rng = random.Random(zlib.crc32(f"weight/{spec}".encode()))
    for W in bases(build_group(spec)):
        for _ in range(6):
            a = sharing_element(W, rng)
            b = sharing_element(W, rng)
            product = multiply(a, b)
            assert product.terms
            assert max_weight(product) <= max_weight(a) + max_weight(b)


# the weight bound of a product just below and just above the largest
# value of a field of 8, 16, 32 and 64 bits: the unit word with coefficient
# A^k (weight 2k) or the word x^k (weight k), times eu (weight 2); the
# largest exponent of the product is k + 1, of A^(k + 1) from the A*s terms
# of eu or of x^(k + 1) from x*xi, and at offset 1 it is 2^bits
@pytest.mark.parametrize("offset", [-2, -1, 0, 1])
@pytest.mark.parametrize("bits", [8, 16, 32, 64])
def test_product_weight_bound_at_a_field_limit(bits, offset):
    W = build_group("b2")
    eu = euler_element(W)
    bound = 2 ** bits + offset
    if offset % 2 == 0:
        k = (bound - 2) // 2
        a = PBWElement.one(W).scale(MPoly.var("A") ** k)
    else:
        k = bound - 2
        a = PBWElement.monomial(W, (k, 0), W.identity, (0, 0))
    assert max_weight(a) + max_weight(eu) == bound
    product = multiply(a, eu)
    assert product.terms == multiply_per_term(a, eu).terms
    if offset % 2 == 0:
        assert max(c.degree_in("A") for c in product.terms.values()) == k + 1
    else:
        assert max(p[0] for p, _, _ in product.terms) == k + 1


def test_b2_euler_powers_match_oracle():
    W = build_group("b2")
    eu = euler_element(W)
    eu2 = multiply(eu, eu)
    assert eu2.terms == multiply_per_term(eu, eu).terms
    eu4 = multiply(eu2, eu2)
    assert eu4.terms == multiply_per_term(eu2, eu2).terms
    assert multiply(eu4, eu).terms == multiply_per_term(eu4, eu).terms
    assert multiply(eu, eu4).terms == multiply_per_term(eu, eu4).terms


@pytest.mark.parametrize("spec", ["cyclic:7", "cyclic:8"])
def test_cyclic_products_match_oracle(spec):
    # Cyclotomic scalars from the group action, and a group field that
    # carries 7 or 8 elements
    rng = random.Random(zlib.crc32(f"oracle/{spec}".encode()))
    for W in bases(build_group(spec)):
        eu = euler_element(W)
        for _ in range(3):
            a = sharing_element(W, rng)
            b = sharing_element(W, rng)
            for lhs, rhs in ((a, b), (b, a), (a, eu), (eu, b)):
                assert (multiply(lhs, rhs).terms
                        == multiply_per_term(lhs, rhs).terms)


@pytest.mark.parametrize("d", range(2, 11))
def test_idempotent_basis_matches_group_engine(d):
    """Every structure constant of the idempotent basis, and a few products
    with T off and on, rewritten over the group elements, equal the
    C-coordinate engine's after C -> K."""
    W = build_group(f"cyclic:{d}")
    B = idempotent_basis(W)
    to_k = rank1_c_to_k(d)

    def agree(in_b, in_w):
        assert idempotents_to_group(in_b) == substitute_params(in_w, to_k)

    x, y = PBWElement.dual_gen(B, 0), PBWElement.v_gen(B, 0)
    xw, yw = PBWElement.dual_gen(W, 0), PBWElement.v_gen(W, 0)
    es = [PBWElement.group_gen(B, j) for j in range(d)]
    ews = [idempotents_to_group(e) for e in es]
    agree(PBWElement.one(B), PBWElement.one(W))
    for e, ew in zip(es, ews):
        agree(multiply(e, y), multiply(ew, yw))
        agree(multiply(e, x), multiply(ew, xw))
        agree(multiply(x, e), multiply(xw, ew))
        for f, fw in zip(es, ews):
            agree(multiply(e, f), multiply(ew, fw))
    agree(commutator(x, y), commutator(xw, yw))
    gens, gens_w = named_center_generators(B), named_center_generators(W)
    for name in ("eu", "X", "Y"):
        agree(gens[name], gens_w[name])
    eu = gens["eu"]
    k1 = MPoly.var("K1")
    a = PBWElement.monomial(B, (2,), 1, (1,), k1) + multiply(x, x)
    for product in (multiply, deformed_product):
        for lhs, rhs in ((eu, a), (a, eu), (a, a)):
            agree(product(lhs, rhs),
                  product(idempotents_to_group(lhs), idempotents_to_group(rhs)))


@pytest.mark.parametrize("spec", ["cyclic:2", "cyclic:5"])
def test_idempotent_euler_element_central(spec):
    B = idempotent_basis(build_group(spec))
    assert noncommuting_generator(euler_element(B)) is None


def test_idempotent_basis_is_not_its_group():
    W = build_group("cyclic:3")
    B = idempotent_basis(W)
    assert B != W and W != B and B is idempotent_basis(W)
    assert named_center_generators(B)["eu"].basis is B
    with pytest.raises(ValueError, match="different bases"):
        PBWElement.one(B) + PBWElement.one(W)
    with pytest.raises(ValueError, match="characters are all linear"):
        idempotent_basis(build_group("b2"))


def test_straightening_is_kept_per_group_not_per_spec():
    """A group forged from cyclic:3, each matrix replaced by its inverse's,
    and its Euler part sum_s C_s s and bracket [xi, v] derived from the
    forged matrices, shares the spec but not the algebra: its product x y^2
    is the same whether or not the built group multiplied the same words
    first, and it gets no idempotent basis, whose rules read the built
    group's matrices, even once the built group has one."""
    import chered.cherednik as cherednik
    W = build_group("cyclic:3")
    mats = tuple(W.matrices[g] for g in W.inverse)
    # a reflection's parameter follows its matrix: the forged s^k acts as
    # the built s^-k, so it takes the parameter of s^-k
    param = {r.index: MPoly.var(r.param) for r in W.reflections}
    euler = tuple((param[W.inverse[r.index]], r.index) for r in W.reflections)
    brackets = ((tuple((c * -(mats[s][0][0] - 1), s) for c, s in euler),),)
    forged = replace_fields(
        W, matrices=mats,
        dual_matrices=tuple(W.dual_matrices[g] for g in W.inverse),
        brackets=brackets, euler=euler)
    assert forged.euler != W.euler and forged.brackets != W.brackets

    def x_y2(G):
        return multiply(PBWElement.dual_gen(G, 0), PBWElement.v_gen(G, 0) ** 2)

    def fresh():
        cherednik._STRAIGHTEN_CACHE.clear()
        cherednik._frame.cache_clear()

    fresh()
    before = x_y2(forged)
    fresh()
    built = x_y2(W)
    assert built.terms != before.terms
    assert x_y2(forged).terms == before.terms
    idempotent_basis(W)
    with pytest.raises(ValueError, match="act as z\\^k on V"):
        idempotent_basis(forged)
    # the forged fields agree with each other: its Euler element is central
    assert noncommuting_generator(euler_element(forged)) is None


def test_scale_matches_coefficient_products():
    W = build_group("b2")
    rng = random.Random(zlib.crc32(b"scale"))
    elem = over(W, sharing_element(_deformed(W), rng)) + euler_element(W) ** 2
    for c in (MPoly.var("A") ** 2 * 3, MPoly.var("T"), MPoly.const(-1),
              MPoly.var("K1") * MPoly.var("B"), MPoly.var("A") + 1, 5):
        want = {k: MPoly._coerce(c) * v for k, v in elem.terms.items()}
        got = elem.scale(c).terms
        assert got == want
        assert all(got[k].vars == want[k].vars for k in want)
    assert elem.scale(0).terms == {}


def frame_cases():
    """(a, b) of products of fourteen packing shapes: b2 and cyclic:7, over
    the group and over its T-deformation, and three kinds of pair: integer
    coefficients (8-bit fields), the same with a K1 the coefficients do not
    use, and a factor scaled by the 255th power of a parameter (16-bit
    fields); over the group, also a factor scaled by T, whose variable tuple
    is that of the integer pair over the T-deformation."""
    k1, t = MPoly.var("K1"), MPoly.var("T")
    cases = []
    for spec in ("b2", "cyclic:7"):
        G = build_group(spec)
        heavy = MPoly.var(G.param_names[0]) ** 255
        rng = random.Random(zlib.crc32(f"frames/{spec}".encode()))
        for W in bases(G):
            a, b = random_element(W, rng, 3), random_element(W, rng, 3)
            wide = PBWElement(W, {key: c + k1 - k1 for key, c in a.terms.items()})
            cases += [(a, b), (wide, b), (a.scale(heavy), b),
                      (b, a.scale(heavy))]
            if W is G:
                cases.append((a.scale(t), b))
    return cases


@pytest.mark.parametrize("order", ["forward", "reversed"])
def test_products_of_interleaved_shapes_match_oracle(order, monkeypatch):
    # each shape keeps its own frame, and a frame's tables do not depend on
    # the products that filled them before
    import chered.cherednik as cherednik
    cherednik._frame.cache_clear()
    real, shapes = cherednik._frame, []

    def recording(W, nv, bits):
        shapes.append((W, nv, bits))
        return real(W, nv, bits)

    monkeypatch.setattr(cherednik, "_frame", recording)
    cases = frame_cases()
    if order == "reversed":
        cases.reverse()
    for a, b in cases:
        assert multiply(a, b).terms == multiply_per_term(a, b).terms
    assert len(set(shapes)) == 14
    assert {bits for _, _, bits in shapes} == {8, 16}
    assert any("K1" in nv for _, nv, _ in shapes)


def table_sizes(frame) -> dict:
    """The number of entries of each table of a frame."""
    sizes = {}
    for name in type(frame).__slots__:
        table = getattr(frame, name)
        if isinstance(table, dict):
            sizes[name] = len(table)
        elif isinstance(table, list):
            sizes[name] = [len(t) for t in table]
    return sizes


@pytest.mark.parametrize("with_T", [False, True])
def test_repeated_product_adds_no_table_entry(with_T, monkeypatch):
    import chered.cherednik as cherednik
    real, frames = cherednik._frame, []

    def recording(*shape):
        frames.append(real(*shape))
        return frames[-1]

    monkeypatch.setattr(cherednik, "_frame", recording)
    W = build_group("b2")
    W = _deformed(W) if with_T else W
    eu = euler_element(W)
    eu2 = multiply(eu, eu)
    for a, b in ((eu, eu), (eu2, eu), (eu, eu2)):
        product = multiply(a, b)
        sizes = table_sizes(frames[-1])
        assert sizes["corrections"] and any(sizes["dual_steps"])
        assert multiply(a, b) == product
        assert frames[-1] is frames[-2]
        assert table_sizes(frames[-1]) == sizes


@pytest.mark.parametrize("spec", GROUPS)
def test_group_algebra_embedding(spec):
    W = build_group(spec)
    for g in range(W.order()):
        for h in range(W.order()):
            lhs = multiply(PBWElement.group_gen(W, g),
                           PBWElement.group_gen(W, h))
            assert lhs == PBWElement.group_gen(W, W.mult_table[g][h])


def test_straightening_cyclic2():
    # [v, xi] = sum_s C_s <s(v) - v, xi> s: for the order-2 cyclic group
    # with s acting by -1, <s(v) - v, xi> = -2, so [v, xi] = -2 C1 s
    W = build_group("cyclic:2")
    v = PBWElement.v_gen(W, 0)
    xi = PBWElement.dual_gen(W, 0)
    s = PBWElement.group_gen(W, 1)
    assert commutator(v, xi) == s.scale(-2 * MPoly.var("C1"))


@pytest.mark.parametrize("spec", GROUPS)
def test_euler_element_central(spec):
    W = build_group(spec)
    assert noncommuting_generator(euler_element(W)) is None


def test_b2_named_generators_central():
    W = build_group("b2")
    gens = named_center_generators(W)
    for name in ("eu", "eu'", "eu''", "delta"):
        assert noncommuting_generator(gens[name]) is None, name


def test_bidegrees_b2():
    W = build_group("b2")
    gens = named_center_generators(W)
    expected = {"eu": (1, 1), "eu'": (1, 3), "eu''": (3, 1),
                "delta": (2, 2), "sigma": (2, 0), "pi": (4, 0),
                "Sigma": (0, 2), "Pi": (0, 4)}
    for name, bd in expected.items():
        assert residue_summary(gens[name])["bidegrees"] == [bd], name
        assert z_degree(gens[name]) == bd[1] - bd[0]


def test_deformed_euler_grading():
    # [eu~, h] = (Z-degree of h) T h for the algebra generators
    for spec in ("cyclic:3", "b2"):
        W = _deformed(build_group(spec))
        T = MPoly.var("T")
        euT = euler_element(W) - PBWElement.one(W).scale(W.dim * T)
        for name, h in algebra_generators(W).items():
            i = z_degree(h)
            assert commutator(euT, h) == h.scale(i * T), (spec, name)


def test_multiply_takes_no_mode():
    x = PBWElement.v_gen(build_group("b2"), 0)
    with pytest.raises(TypeError):
        multiply(x, x, with_T=True)


@pytest.mark.parametrize("kind", ["b2", "cyclic:3", "idempotents"])
def test_deformed_basis_adds_the_T_term(kind):
    # [xi_i, v_j] over the T-deformation is [xi_i, v_j] at t = 0 minus
    # delta_ij T, and the deformation is one basis per basis
    W = build_group("cyclic:3" if kind == "idempotents" else kind)
    B = idempotent_basis(W) if kind == "idempotents" else W
    D = _deformed(B)
    assert D is _deformed(B) and D is not B and type(D) is type(B)
    assert D.param_names == B.param_names + ("T",)
    T = MPoly.var("T")
    for i in range(B.dim):
        for j in range(B.dim):
            at_0 = commutator(PBWElement.dual_gen(B, i), PBWElement.v_gen(B, j))
            want = over(D, at_0) - PBWElement.one(D).scale(T if i == j else 0)
            assert not at_0.is_zero()
            assert commutator(PBWElement.dual_gen(D, i),
                              PBWElement.v_gen(D, j)) == want


def test_poisson_euler_eigenvalues():
    W = build_group("b2")
    gens = named_center_generators(W)
    eu = gens["eu"]
    for name, z in gens.items():
        expected = z_degree(z)
        assert poisson_bracket(eu, z) == z.scale(expected), name


def test_poisson_antisymmetry_and_leibniz():
    W = build_group("b2")
    g = named_center_generators(W)
    pairs = [("eu", "delta"), ("eu'", "eu''"), ("sigma", "Pi"),
             ("delta", "eu'")]
    for a, b in pairs:
        assert poisson_bracket(g[a], g[b]) == -poisson_bracket(g[b], g[a])
    # {a, bc} = {a,b} c + b {a,c}
    a, b, c = g["eu'"], g["delta"], g["sigma"]
    lhs = poisson_bracket(a, multiply(b, c))
    rhs = multiply(poisson_bracket(a, b), c) + multiply(b, poisson_bracket(a, c))
    assert lhs == rhs


def test_poisson_jacobi():
    W = build_group("b2")
    g = named_center_generators(W)
    a, b, c = g["eu'"], g["eu''"], g["delta"]
    total = (poisson_bracket(a, poisson_bracket(b, c))
             + poisson_bracket(b, poisson_bracket(c, a))
             + poisson_bracket(c, poisson_bracket(a, b)))
    assert total.is_zero()


def test_twist_by_linear_character():
    # twisting is an algebra automorphism on sampled products
    W = build_group("b2")
    chars = {c.name: c for c in character_table(W)}
    eps_t = chars["eps_t"]
    rng = random.Random(4242)
    for _ in range(5):
        a = random_element(W, rng)
        b = random_element(W, rng)
        lhs = twist_by_linear_char(eps_t, multiply(a, b))
        rhs = multiply(twist_by_linear_char(eps_t, a),
                       twist_by_linear_char(eps_t, b))
        assert lhs == rhs
    # involutive
    a = random_element(W, rng)
    assert twist_by_linear_char(eps_t, twist_by_linear_char(eps_t, a)) == a


def test_residue_summary():
    W = build_group("cyclic:2")
    s = W.index_of("s")
    elem = (PBWElement.monomial(W, (1,), W.identity, (2,))
            + PBWElement.monomial(W, (0,), s, (0,), MPoly.var("C1")))
    assert residue_summary(elem) == {"terms": 2,
                                     "leading_words": ["y*x^2", "s"],
                                     "bidegrees": [(1, 1), (1, 2)]}
    # a larger nonzero element: eu^4 - XY away from C = 0
    W = build_group("cyclic:4")
    g = named_center_generators(W)
    residue = g["eu"] ** 4 - multiply(g["X"], g["Y"])
    report = residue_summary(residue)
    assert set(report) == {"terms", "leading_words", "bidegrees"}
    assert report["terms"] == len(residue.terms) > 3
    assert len(report["leading_words"]) == 3
    assert all(isinstance(w, str) for w in report["leading_words"])
    assert report["bidegrees"] == sorted(report["bidegrees"])
    assert report["bidegrees"] == [(4, 4)]
    assert len(str(report)) < len(str(residue))


def test_printed_form():
    W = build_group("b2")
    g = algebra_generators(W)
    A, B = MPoly.var("A"), MPoly.var("B")
    one = PBWElement.one(W)
    elem = g["s"].scale(A + B) + one.scale(A) - g["x"] * g["Y"] + g["y"] ** 2
    assert str(elem) == "A + (A + B)*s + y^2 - x*Y"
    assert str(-one - g["s"]) == "-1 - s"
    assert str(PBWElement.zero(W)) == "0"


def test_negative_power_raises():
    W = build_group("cyclic:2")
    x = PBWElement.v_gen(W, 0)
    with pytest.raises(ValueError, match="negative power"):
        x ** -1
    assert x ** 0 == PBWElement.one(W)
    assert x ** 3 == multiply(x, multiply(x, x))


def test_power_never_multiplies_by_the_unit(monkeypatch):
    # repeated multiplication starts from the base: eu^8 is seven products
    # eu^(k-1) * eu, and the unit is returned only for the exponent 0
    import chered.cherednik as cherednik
    from chered.exactnum import power
    W = build_group("b2")
    eu, one = euler_element(W), PBWElement.one(W)
    chain = [eu]
    for _ in range(7):
        chain.append(multiply(chain[-1], eu))
    real = cherednik.multiply
    factors = []

    def counted(a, b):
        factors.append((a, b))
        return real(a, b)

    monkeypatch.setattr(cherednik, "multiply", counted)
    assert eu ** 8 == chain[7]
    assert factors == [(chain[k - 2], eu) for k in range(2, 9)]
    assert all(b is eu for _, b in factors)
    assert all(a != one and b != one for a, b in factors)
    assert eu ** 0 == one
    assert power(eu, 1) is eu


def test_power_equals_the_multiply_chain():
    W = build_group("b2")
    B = idempotent_basis(build_group("cyclic:4"))
    rng = random.Random(zlib.crc32(b"power chain"))
    for x in (euler_element(W), sharing_element(build_group("cyclic:3"), rng),
              named_center_generators(B)["eu"]):
        chain = x
        for n in range(1, 9):
            assert x ** n == chain, n
            chain = multiply(chain, x)


def test_power_is_formed_once_per_element(monkeypatch):
    # every power the ladder forms is kept: after eu^8 no power up to 8
    # costs a product, and eu^10 costs two, from eu^8
    import chered.cherednik as cherednik
    W = build_group("b2")
    g = named_center_generators(W)
    first = g["eu"] ** 8
    real, calls = cherednik.multiply, []

    def counted(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(cherednik, "multiply", counted)
    assert g["eu"] ** 8 is first and calls == []
    assert all(g["eu"] ** k is g["eu"].powers[k] for k in range(2, 9))
    assert calls == [] and set(g["eu"].powers) == set(range(2, 9))
    tenth = g["eu"] ** 10
    assert calls == [(first, g["eu"]), (g["eu"] ** 9, g["eu"])]
    assert tenth == multiply(multiply(first, g["eu"]), g["eu"])
    # an equal element that is another object keeps its own powers
    calls.clear()
    eu = euler_element(W)
    assert eu == g["eu"] and eu.powers is None
    assert eu ** 8 == first and eu ** 8 is not first and len(calls) == 7
    assert eu.powers is not g["eu"].powers
    x, y = PBWElement.v_gen(W, 0), PBWElement.v_gen(W, 1)
    assert x ** 2 != y ** 2 and (x ** 2) ** 2 == x ** 4 != y ** 4


def test_power_builds_its_unit_only_for_the_exponent_0(monkeypatch):
    x = MPoly.var("x")
    W = build_group("b2")
    eu = euler_element(W)
    units = []

    def spy(cls, name):
        real = getattr(cls, name)

        def counted(*args):
            units.append(name)
            return real(*args)
        monkeypatch.setattr(cls, name, staticmethod(counted)
                            if isinstance(cls.__dict__[name], staticmethod)
                            else counted)

    spy(MPoly, "const")
    spy(PBWElement, "one")
    spy(PBWElement, "_scalar")
    squares = x ** 2, eu ** 2
    assert units == []
    zeroth = x ** 0, eu ** 0
    # PBWElement.one builds its coefficient with MPoly.const
    assert units == ["const", "one", "const"]
    monkeypatch.undo()
    assert squares == (x * x, multiply(eu, eu))
    assert zeroth == (1, PBWElement.one(W))


UNIT_BASES = {
    "b2": lambda: build_group("b2"),
    "cyclic:3": lambda: build_group("cyclic:3"),
    "idempotents:4": lambda: idempotent_basis(build_group("cyclic:4")),
    "deformed:b2": lambda: _deformed(build_group("b2")),
}


@pytest.mark.parametrize("kind", UNIT_BASES)
def test_unit_factor_gives_the_packed_product(kind):
    """one * x and x * one take the one product path: each is x, agrees
    with `multiply_per_term`, and is born packed, its coefficients over
    the variables of both factors; so does a unit whose coefficient
    carries a variable it does not use.  An element of the unit's words
    that is not the unit, its last coefficient 2, agrees with the oracle
    too."""
    B = UNIT_BASES[kind]()
    agrees = product_check(kind, B)
    rng = random.Random(zlib.crc32(f"unit/{kind}".encode()))
    zeros = (0,) * B.dim
    units = (PBWElement.one(B), PBWElement.unit_monomial(
        B, zeros, zeros, MPoly._of(("sigma",), {(0,): 1})))
    near = PBWElement.one(B) + PBWElement.monomial(B, zeros, B.unit[-1], zeros)
    xs = (sharing_element(B, rng), euler_element(B) ** 2, units[0])
    for u in (*units, near):
        for x in xs:
            for a, b in ((u, x), (x, u)):
                got = multiply(a, b)
                nv = tuple(sorted(set(a.variables) | set(b.variables)))
                assert got.basis is B and got._terms is None
                assert got.frame.nv == nv and agrees(a, b, got)
                assert all(c.vars == nv for c in got.terms.values())
                assert u is near or got.terms == x.terms


def test_elements_of_two_groups_do_not_mix():
    a = PBWElement.v_gen(build_group("cyclic:2"), 0)
    b = PBWElement.v_gen(build_group("cyclic:3"), 0)
    with pytest.raises(ValueError, match="different groups"):
        a + b
    with pytest.raises(ValueError, match="different groups"):
        multiply(a, b)


def test_poisson_bracket_rejects_bad_input():
    W = build_group("b2")
    gens = algebra_generators(W)
    # x and X do not commute, so their commutator has a T-free part
    with pytest.raises(ArithmeticError, match="not divisible by T"):
        poisson_bracket(gens["x"], gens["X"])
    # the inputs live in the t = 0 algebra: a coefficient in T is refused
    eu = euler_element(W)
    deformed = eu - PBWElement.one(W).scale(W.dim * MPoly.var("T"))
    with pytest.raises(ValueError, match="T-deformation"):
        poisson_bracket(eu, deformed)
    with pytest.raises(ValueError, match="T-deformation"):
        poisson_bracket(deformed, eu)


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul],
                         ids=["add", "sub", "mul"])
@pytest.mark.parametrize("side", ["left", "right"])
def test_inexact_operand_is_unsupported(op, side):
    # an operand that is not an exact scalar leaves the operator to Python,
    # which raises its own TypeError; equality with one is False, as for
    # MPoly
    eu = euler_element(build_group("b2"))
    with pytest.raises(TypeError, match="unsupported operand type"):
        op(eu, 0.5) if side == "left" else op(0.5, eu)
    assert (eu == 0.5) is False and (0.5 == eu) is False and eu != 0.5
    assert (MPoly.var("A") == 0.5) is False
    with pytest.raises(TypeError, match="cannot scale"):
        eu.scale(0.5)


def per_word(a, b, op) -> dict:
    """op of the coefficients of a and b on each word, in MPoly arithmetic,
    with the zero results dropped."""
    zero = MPoly.zero()
    out = {}
    for key in set(a.terms) | set(b.terms):
        c = op(a.terms.get(key, zero), b.terms.get(key, zero))
        if not c.is_zero():
            out[key] = c
    return out


def product_check(kind, B):
    """check(a, b, product): whether product has the terms of a * b by
    `multiply_per_term`; over the idempotent basis of cyclic:d, after both
    are rewritten over the group elements, the oracle's C-coordinates in
    K-coordinates."""
    if not kind.startswith("idempotents"):
        return lambda a, b, product: (
            product.terms == multiply_per_term(a, b).terms)
    to_k = rank1_c_to_k(B.order())
    return lambda a, b, product: (
        idempotents_to_group(product).terms == substitute_params(
            multiply_per_term(idempotents_to_group(a),
                              idempotents_to_group(b)), to_k).terms)


def forms(*elems) -> list:
    """The frame, packed form and left multiples of each element, by
    identity."""
    return [(id(e.frame), id(e.packed), id(e.multiples)) for e in elems]


@pytest.mark.parametrize("kind", UNIT_BASES)
def test_packed_arithmetic_matches_oracles(kind, monkeypatch):
    """Products, sums, differences and scalings of elements that hold only
    their packed forms agree with `multiply_per_term` and with per-word
    MPoly arithmetic: in one frame, in a 16-bit frame, after a repack into
    a wider variable tuple, across two frames, and for a product equal to
    the unit.  An operation in a frame other than an operand's packs that
    operand for itself only, and leaves its frame, packed form and left
    multiples as they were."""
    import chered.cherednik as cherednik
    B = UNIT_BASES[kind]()
    agrees = product_check(kind, B)
    rng = random.Random(zlib.crc32(f"packed/{kind}".encode()))
    # variables that no coefficient of sharing_element carries
    u, w = MPoly.var("u"), MPoly.var("w")
    heavy = MPoly.var(B.param_names[0]) ** 130
    real, widths = cherednik._frame, []
    monkeypatch.setattr(cherednik, "_frame", lambda *shape: widths.append(
        shape[2]) or real(*shape))
    for _ in range(2):
        terms = [sharing_element(B, rng) for _ in range(4)]
        a, b = terms[0] + terms[1], terms[2] - terms[3]
        assert a._terms is None and b._terms is None
        for lhs, rhs in ((a, b), (b, a), (a, a)):
            assert agrees(lhs, rhs, multiply(lhs, rhs))
        assert a.terms == per_word(terms[0], terms[1], operator.add)
        assert b.terms == per_word(terms[2], terms[3], operator.sub)
        product = multiply(a, b)
        before = forms(a, b, product)
        # a 16-bit frame: the weight bound of the product passes 255
        widths.clear()
        big = a.scale(heavy)
        assert big.weight + b.weight > 255
        assert agrees(big, b, multiply(big, b)) and set(widths) == {16}
        assert big.frame is not a.frame and big.frame is not b.frame
        # u is outside the frame of a product, which is packed again for
        # each scaling
        for c in (u, u * w - 3, Fraction(-2, 3)):
            scaled = product.scale(c)
            assert scaled.terms == {key: MPoly._coerce(c) * v
                                    for key, v in product.terms.items()}
            assert ("u" in scaled.frame.nv) == (c != Fraction(-2, 3))
        # a sum of two elements packed in different frames
        wide = a.scale(w)
        assert wide.frame is not b.frame
        for op in (operator.add, operator.sub):
            assert op(wide, b).terms == per_word(wide, b, op)
            assert op(b, wide).terms == per_word(b, wide, op)
        assert (wide - wide).is_zero() and (wide - wide).terms == {}
        assert forms(a, b, product) == before
    # a product equal to the unit, while packed, multiplies as the unit
    one = PBWElement.one(B)
    unit = multiply(one.scale(2), one.scale(Fraction(1, 2)))
    assert unit._terms is None and unit == one
    x = sharing_element(B, rng) + one
    assert multiply(unit, x).terms == x.terms == multiply(x, unit).terms


def test_right_factor_forms_each_left_multiple_once(monkeypatch):
    """A right factor keeps its left multiples xi^q b and g xi^q b for its
    own frame: a second left factor with the same (g, q) parts forms none,
    nor does a product after the frames are dropped, whose new frame has
    the same shape.  A product in another frame forms them on each call,
    equal, and keeps none; the generators that a centrality search
    multiplies by keep theirs too."""
    import chered.cherednik as cherednik
    W = build_group("b2")
    eu = euler_element(W)
    first = eu ** 2
    second = first.scale(MPoly.var("A") + 2) - first
    b = euler_element(W)
    formed = []

    def counted(name):
        real = getattr(cherednik, name)
        return lambda *args: formed.append(name) or real(*args)

    for name in ("_lmul_dual", "_lmul_basis"):
        monkeypatch.setattr(cherednik, name, counted(name))
    product = multiply(first, b)
    assert b.frame is product.frame
    multiples = b.multiples
    chains, pieces = multiples
    sizes = len(chains), len(pieces)
    assert "_lmul_dual" in formed and "_lmul_basis" in formed
    formed.clear()
    again = multiply(second, b)
    assert formed == [] and (len(chains), len(pieces)) == sizes
    assert again.terms == multiply_per_term(second, b).terms
    assert product.terms == multiply_per_term(first, b).terms
    frame = b.frame
    cherednik._frame.cache_clear()
    after = multiply(second, b)
    assert after.frame is not frame and after.frame.shape == frame.shape
    assert formed == [] and after == again and after.terms == again.terms
    # u is in no frame of b, so each product packs b and forms its left
    # multiples for itself
    left = second.scale(MPoly.var("u"))
    for _ in range(2):
        formed.clear()
        wide = multiply(left, b)
        assert formed and wide.terms == multiply_per_term(left, b).terms
        assert forms(b) == [(id(frame), id(b.packed), id(multiples))]
    assert (len(chains), len(pieces)) == sizes
    # the algebra generators are shared per basis, so a second centrality
    # search straightens nothing
    assert algebra_generators(W) is algebra_generators(W)
    assert noncommuting_generator(eu) is None
    formed.clear()
    assert noncommuting_generator(eu) is None and formed == []
