"""Reference computations kept for the tests only: cyclotomic arithmetic on
Fraction coordinates, the per-factor change of coordinates for the rank-1
center identity, with its own C -> K table, the C-forms of a group read
from its C-rows, the resultant as a Sylvester determinant, the Berkowitz
characteristic polynomial with every product formed, the schoolbook
polynomial product with tuple keys, the substitution into a polynomial
summed one term at a time, the PBW
product computed one term of the left factor at a time in `MPoly`
arithmetic (with the element-level left multiplications by a V* coordinate
and by a group element), the change from the idempotent basis of a cyclic
group algebra to its group elements, the twist of an element by a linear character
and of the families by its tensor product, the b-minimal character of a
family, the closed form of the central character of eu, the
multiplication matrix of eu on the P-basis of the B2 center folded by hand
from Z1-Z9, an infix
polynomial parser, the dense action matrices of the baby Verma module of
a character, built from the coinvariants and the character's matrices
alone, with the trace and nilpotency certificate of a central character,
the graded character of the invariants of a baby Verma module, and the bigraded
Hilbert series computed with bivariate series arithmetic and a bivariate
series inverse; and `replace_fields`, which copies a record of the package
with some fields forged."""
import math
import re
from fractions import Fraction

from chered.cherednik import (PBWElement, _straighten, euler_element,
                              multiply)
from chered.exactnum import (Cyclotomic, canon_scalar, cyclotomic_polynomial,
                             primitive_root, scalar_div)
from chered.multipoly import MPoly
from chered.cmcells import tensor_with_linear
from chered.reflgrp import (b_invariant, build_group, character_table,
                            fake_degree, k_forms, param_map, value_on_element)
from chered.series import center_basis_bidegrees
from chered.verma import coinvariant_basis


def replace_fields(record, **changes):
    """A new record of the class of `record`, whose `__init__` takes its
    slots by name, with the fields in `changes` replaced and every other
    field taken from `record`."""
    fields = {name: getattr(record, name) for name in type(record).__slots__}
    return type(record)(**{**fields, **changes})


def reduce_mod_cyclotomic(e: int, vec: list) -> list:
    """Reduce a Fraction coordinate vector of arbitrary length (powers of
    z_e) to length phi(e)."""
    cyc = cyclotomic_polynomial(e)
    phi = len(cyc) - 1
    terms = [(i, c) for i, c in enumerate(cyc[:phi]) if c]
    vec = list(vec)
    if len(vec) < phi:
        vec += [Fraction(0)] * (phi - len(vec))
    for k in range(len(vec) - 1, phi - 1, -1):
        c = vec[k]
        if c:
            for i, t in terms:
                vec[k - phi + i] -= c * t
    return vec[:phi]


def cyclotomic_mul(e: int, a: list, b: list) -> list:
    """Fraction coordinates of a product in Q(z_e): the schoolbook product,
    with exponents taken mod e, reduced modulo the e-th cyclotomic
    polynomial."""
    out = [Fraction(0)] * min(e, len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                if cb:
                    out[(i + j) % e] += ca * cb
    return reduce_mod_cyclotomic(e, out)


def cyclotomic_galois(e: int, vec: list, a: int) -> list:
    """Fraction coordinates of sigma_a(x), sigma_a: z_e -> z_e**a."""
    out = [Fraction(0)] * e
    for k, c in enumerate(vec):
        out[a * k % e] = c
    return reduce_mod_cyclotomic(e, out)


def cyclotomic_inverse(e: int, vec: list) -> list:
    """Fraction coordinates of 1/x in Q(z_e): the product of the other
    Galois conjugates divided by the norm."""
    prod = [Fraction(1)]
    for a in range(2, e):
        if math.gcd(a, e) == 1:
            prod = cyclotomic_mul(e, prod, cyclotomic_galois(e, vec, a))
    norm = cyclotomic_mul(e, prod, vec)
    if any(norm[1:]):
        raise ArithmeticError("norm is not rational")
    return [c / norm[0] for c in prod]


def cyclotomic_lift(vec: list, d: int, e: int) -> list:
    """Fraction coordinates in Q(z_e) of the element with coordinates vec in
    Q(z_d), d | e, using z_d = z_e**(e/d)."""
    step = e // d
    out = [Fraction(0)] * ((len(vec) - 1) * step + 1)
    out[::step] = vec
    return reduce_mod_cyclotomic(e, out)


def cyclotomic_coordinates(x, e: int) -> list:
    """Fraction coordinates in Q(z_e) of a scalar: an int, a Fraction, or a
    Cyclotomic whose order divides e."""
    if isinstance(x, Cyclotomic):
        return cyclotomic_lift([Fraction(n, x.den) for n in x.num],
                               x.order, e)
    return reduce_mod_cyclotomic(e, [Fraction(x)])


def substitute_params(elem: PBWElement, mapping: dict) -> PBWElement:
    """Apply a substitution to every parameter coefficient of an element."""
    terms = {}
    for key, coeff in elem.terms.items():
        new = coeff.substitute(mapping)
        if not new.is_zero():
            terms[key] = new
    return PBWElement(elem.basis, terms)


def c_forms(W) -> dict:
    """{C-label: MPoly}: each C-row of `param_map(W)` as a linear form in
    the K-forms of `k_forms(W)`."""
    ks = k_forms(W)
    return {lab: sum((ks[src] * c for src, c in row), MPoly.zero())
            for lab, row in param_map(W).c_rows}


def rank1_k_variables(d: int) -> list:
    """K_0, ..., K_{d-1} with K_0 = -(K_1 + ... + K_{d-1})."""
    kvars = [MPoly.var(f"K{j}") for j in range(d)]
    head = MPoly.zero()
    for v in kvars[1:]:
        head = head - v
    kvars[0] = head
    return kvars


def rank1_c_to_k(d: int) -> dict:
    """C_i -> sum_j zeta_d^(i(j-1)) K_j, with K_0 eliminated."""
    z = primitive_root(d)
    kvars = rank1_k_variables(d)
    out = {}
    for i in range(1, d):
        acc = MPoly.zero()
        for j in range(d):
            acc = acc + kvars[j] * canon_scalar(z ** (i * (j - 1) % d))
        out[f"C{i}"] = acc
    return out


def idempotents_to_group(elem: PBWElement) -> PBWElement:
    """An element over the idempotent basis of cyclic:d rewritten over the
    group elements s^i, with e_j = (1/d) sum_i z_d^(-ij) s^i and the
    coefficients (polynomials in the K_j) kept."""
    W = build_group(elem.basis.spec)
    d, s = W.order(), W.index_of("s")
    z = primitive_root(d)
    powers = [W.identity]
    while len(powers) < d:
        powers.append(W.mult_table[s][powers[-1]])
    out: dict = {}
    for (p, j, q), c in elem.terms.items():
        for i, g in enumerate(powers):
            term = c * scalar_div(canon_scalar(z ** (-i * j % d)), d)
            prev = out.get((p, g, q))
            out[(p, g, q)] = term if prev is None else prev + term
    return PBWElement(W, out)


def rank1_partial_products_per_factor(d: int) -> list:
    """prod_{j<m} (eu - d K_j) for m = 1..d, straightened in C-coordinates,
    with C -> K re-applied after every factor."""
    W = build_group(f"cyclic:{d}")
    eu = euler_element(W)
    kvars = rank1_k_variables(d)
    subst = rank1_c_to_k(d)
    prod = PBWElement.one(W)
    partial = []
    for j in range(d):
        prod = multiply(prod, eu - PBWElement.one(W).scale(kvars[j] * d))
        prod = substitute_params(prod, subst)
        partial.append(prod)
    return partial


def sylvester_resultant(f: MPoly, g: MPoly, name: str) -> MPoly:
    """Resultant via the Bareiss fraction-free determinant of the Sylvester
    matrix; an independent cross-check of `multipoly.resultant`."""
    A, B = f.as_univariate(name), g.as_univariate(name)
    m, n = len(A) - 1, len(B) - 1
    if m < 0 or n < 0:
        return MPoly.zero()
    size = m + n
    if size == 0:
        return MPoly.const(1)
    rows = []
    for coeffs, shifts in ((A, n), (B, m)):
        for i in range(shifts):
            row = [MPoly.zero()] * size
            for j, c in enumerate(reversed(coeffs)):
                row[i + j] = c
            rows.append(row)
    return _bareiss_det(rows)


def _bareiss_det(mat: list) -> MPoly:
    n = len(mat)
    mat = [row[:] for row in mat]
    sign = 1
    prev = MPoly.const(1)
    for k in range(n - 1):
        if mat[k][k].is_zero():
            pivot = next((i for i in range(k + 1, n) if not mat[i][k].is_zero()), None)
            if pivot is None:
                return MPoly.zero()
            mat[k], mat[pivot] = mat[pivot], mat[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = mat[k][k] * mat[i][j] - mat[i][k] * mat[k][j]
                mat[i][j] = num.divexact(prev)
            mat[i][k] = MPoly.zero()
        prev = mat[k][k]
    return mat[n - 1][n - 1] if sign > 0 else -mat[n - 1][n - 1]


def dense_charpoly_berkowitz(mat: list, name: str) -> MPoly:
    """det(tI - M) by the Berkowitz algorithm with every product formed,
    zero factors included; the reference for `multipoly.charpoly_berkowitz`,
    which skips the products with a zero factor."""
    n = len(mat)
    if n == 0:
        return MPoly.const(1)
    # vectors of charpoly coefficients, highest degree first
    coeffs = [MPoly.const(1), -mat[0][0]]
    for k in range(1, n):
        a = mat[k][k]
        row = [mat[k][j] for j in range(k)]     # R (1 x k)
        col = [mat[i][k] for i in range(k)]     # C (k x 1)
        sub = [[mat[i][j] for j in range(k)] for i in range(k)]
        # Toeplitz column: [1, -a, -R C, -R A C, -R A^2 C, ...]
        tvals = [MPoly.const(1), -a]
        vec = col
        for _ in range(k):
            tvals.append(-sum((r * v for r, v in zip(row, vec)), MPoly.zero()))
            vec = [sum((sub[i][j] * vec[j] for j in range(k)), MPoly.zero())
                   for i in range(k)]
        newc = []
        for i in range(k + 2):
            acc = MPoly.zero()
            for j in range(len(coeffs)):
                d = i - j
                if 0 <= d < len(tvals):
                    acc = acc + tvals[d] * coeffs[j]
            newc.append(acc)
        coeffs = newc
    return MPoly.from_univariate(coeffs[::-1], name)


def schoolbook_product(a: MPoly, b: MPoly) -> MPoly:
    """a * b term by term with tuple exponent keys, on the variables of the
    operands when they agree and on their sorted union otherwise; the
    reference for the product kernels of `MPoly.__mul__`."""
    names = (a.vars if a.vars == b.vars
             else tuple(sorted(set(a.vars) | set(b.vars))))

    def spread(p):
        return [(tuple(dict(zip(p.vars, exp)).get(n, 0) for n in names), c)
                for exp, c in p.terms.items()]

    out: dict = {}
    for ea, ca in spread(a):
        for eb, cb in spread(b):
            key = tuple(i + j for i, j in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return MPoly(names, out)


def substitute_per_term(p: MPoly, assignments: dict) -> MPoly:
    """p with polynomials or scalars substituted for its variables, each
    term a product of powers added to the running sum by `MPoly.__add__`:
    the reference for `MPoly.substitute`, which adds every term into one
    map."""
    relevant = {k: v for k, v in assignments.items() if k in p.vars}
    if not relevant:
        return p
    result = MPoly.zero()
    for exp, c in p.terms.items():
        piece = MPoly.const(c)
        for name, k in zip(p.vars, exp):
            if k:
                base = MPoly._coerce(relevant.get(name, MPoly.var(name)))
                piece = piece * base ** k
        result = result + piece
    return result


def _lmul_dual(W, xi: int, elem: PBWElement) -> PBWElement:
    """Left multiplication by the xi-th V* coordinate, over the group basis
    W (the group, or its T-deformation)."""
    out: dict = {}

    def add(key, c):
        prev = out.get(key)
        out[key] = c if prev is None else prev + c

    for (p, g, q), c in elem.terms.items():
        # xi * p = p * xi + corrections
        # main term: p * (xi * g) * q = p * g * (g^{-1}(xi)) * q
        ginv = W.inverse[g]
        scalar, image = W.act_monomial(ginv, tuple(1 if i == xi else 0
                                                   for i in range(W.dim)), dual=True)
        newq = tuple(a + b for a, b in zip(q, image))
        add((p, g, newq), c * scalar if scalar != 1 else c)
        for cc, mono, s in _straighten(W, "dual", xi, p):
            add((mono, W.mult_table[s][g], q), cc * c)
    return PBWElement(elem.basis, out)


def _lmul_group(W, g: int, elem: PBWElement) -> PBWElement:
    out: dict = {}
    for (p, w, q), c in elem.terms.items():
        scalar, image = W.act_monomial(g, p, dual=False)
        key = (image, W.mult_table[g][w], q)
        cc = c * scalar if scalar != 1 else c
        prev = out.get(key)
        out[key] = cc if prev is None else prev + cc
    return PBWElement(elem.basis, out)


def multiply_per_term(a: PBWElement, b: PBWElement) -> PBWElement:
    """Exact product in PBW normal form, one term of a at a time, with the
    element-level left multiplications by a V* coordinate and by a group
    element, and the terms summed word by word, all in `MPoly` arithmetic,
    so no packed operation of the engine takes part: the reference for
    `multiply`, which shares work between the terms of a and sums
    coefficients in flat maps.
    The basis of a and b is a group, or its T-deformation
    (`cherednik._deformed`)."""
    a._check_compat(b)
    W = a.basis
    out: dict = {}
    for (p, g, q), c in a.terms.items():
        piece = b
        for xi in reversed(range(W.dim)):
            for _ in range(q[xi]):
                piece = _lmul_dual(W, xi, piece)
        if g != W.identity:
            piece = _lmul_group(W, g, piece)
        for (pp, w, qq), cc in piece.terms.items():
            key = (tuple(i + j for i, j in zip(p, pp)), w, qq)
            prev = out.get(key)
            out[key] = c * cc if prev is None else prev + c * cc
    return PBWElement(a.basis, out)


# ---------------------------------------------------------------------------
# linear-character twists, b-minimal characters, the closed form of Omega(eu)
# ---------------------------------------------------------------------------


def twist_by_linear_char(gamma, z: PBWElement) -> PBWElement:
    """The automorphism attached to a linear character: fixes V and V*,
    multiplies a group term w by gamma(w), and rescales C_s by gamma(s)^{-1}."""
    W = z.basis
    if gamma.degree != 1:
        raise ValueError("twist requires a linear character")
    subs = {}
    for refl in W.reflections:
        gs = value_on_element(W, gamma, refl.index)
        inv = scalar_div(1, gs)
        if inv != 1:
            subs[refl.param] = MPoly.var(refl.param) * inv
    out = {}
    for (p, g, q), c in z.terms.items():
        cc = c.substitute(subs) if subs else c
        gval = value_on_element(W, gamma, g)
        if gval != 1:
            cc = cc * gval
        prev = out.get((p, g, q))
        out[(p, g, q)] = cc if prev is None else prev + cc
    return PBWElement(z.basis, out)


def twist_family_partition(W, fp, gamma_name: str) -> tuple:
    """The image of each family under chi -> chi (x) gamma, as a sorted
    tuple of sorted blocks."""
    blocks = []
    for b in fp.blocks:
        blocks.append(tuple(sorted(tensor_with_linear(W, n, gamma_name)
                                   for n in b)))
    return tuple(sorted(blocks))


def minimal_b_character(W, block) -> str:
    """The unique character of minimal b-invariant in a family; raises
    ArithmeticError unless it is unique and its fake degree has coefficient
    1 at t^b."""
    chars = {c.name: c for c in character_table(W)}
    bs = [(b_invariant(W, chars[name]), name) for name in block]
    bmin = min(b for b, _ in bs)
    winners = [name for b, name in bs if b == bmin]
    if len(winners) != 1:
        raise ArithmeticError(f"minimal b-invariant not unique in {block}")
    f = fake_degree(W, chars[winners[0]])
    if f.coefficient("t", bmin).constant_value() != 1:
        raise ArithmeticError("leading coefficient of the fake degree is not 1")
    return winners[0]


def omega_euler_closed_form(W, chi) -> MPoly:
    """Omega_chi(eu) = (1/chi(1)) sum over reflections of eps(s) chi(s) C_s."""
    acc = MPoly.zero()
    for refl in W.reflections:
        m = W.matrices[refl.index]
        det = m[0][0] if W.dim == 1 else m[0][0] * m[1][1] - m[0][1] * m[1][0]
        weight = canon_scalar(det * value_on_element(W, chi, refl.index))
        if weight != 0:
            acc = acc + MPoly.var(refl.param) * weight
    return acc.divexact(MPoly.const(chi.degree))


def b2_euler_matrix_by_hand() -> list:
    """The 8x8 multiplication matrix of eu on the P-basis
    {1, eu, eu^2, delta, delta*eu, delta*eu^2, eu', eu''} of the B2 center,
    folded into the basis by hand: eu^3 by Z9, delta*eu^3 by Z9 then Z5, Z3
    and Z4, and eu*eu', eu*eu'' by Z1, Z2.  Rows index the basis, columns
    the image of each basis element."""
    sg, pi, Sg, Pi = (MPoly.var(n) for n in ("sigma", "pi", "Sigma", "Pi"))
    A2 = MPoly.var("A") ** 2
    B2 = MPoly.var("B") ** 2
    clin = sg * Sg + 4 * A2 - 4 * B2  # eu^3 = 4d eu + clin eu - sg eu1 - Sg eu2
    cols = [
        {1: MPoly.const(1)},                                # eu * 1
        {2: MPoly.const(1)},                                # eu * eu
        {4: MPoly.const(4), 1: clin, 6: -sg, 7: -Sg},       # eu^3
        {4: MPoly.const(1)},                                # eu * delta
        {5: MPoly.const(1)},                                # eu * delta eu
        {                                                   # delta * eu^3
            1: 4 * pi * Pi + 4 * B2 * clin - 2 * B2 * sg * Sg,
            4: MPoly.const(16) * B2 + clin,
            6: -4 * B2 * sg - Sg * pi,
            7: -4 * B2 * Sg - sg * Pi,
        },
        {0: sg * Pi, 3: Sg},                                # Z1
        {0: Sg * pi, 3: sg},                                # Z2
    ]
    return [[cols[j].get(i, MPoly.zero()) for j in range(8)] for i in range(8)]


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(\d+/\d+|\d+|[A-Za-z_][A-Za-z_0-9]*|\*\*|[-+*^()])")


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValueError(f"cannot tokenize {text[pos:]!r}")
            break
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


def parse_poly(text: str) -> MPoly:
    """Parse an infix polynomial expression with +, -, *, ^ and parentheses.

    Variable names are identifiers; "z<e>" denotes the primitive e-th root
    of unity (a scalar, not a variable).

    >>> print(parse_poly("(sigma + Pi)^2 - 2"))
    Pi^2 + 2*Pi*sigma + sigma^2 - 2
    """
    tokens = _tokenize(text)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def advance():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    def parse_expr() -> MPoly:
        sign = 1
        while peek() in ("+", "-"):
            if advance() == "-":
                sign = -sign
        node = parse_term()
        if sign < 0:
            node = -node
        while peek() in ("+", "-"):
            op = advance()
            rhs = parse_term()
            node = node + rhs if op == "+" else node - rhs
        return node

    def parse_term() -> MPoly:
        node = parse_power()
        while True:
            tok = peek()
            if tok == "*":
                advance()
                node = node * parse_power()
            elif tok is not None and tok not in ("+", "-", ")", "^", "**"):
                # implicit multiplication, e.g. "2x" or ")("
                node = node * parse_power()
            else:
                return node

    def parse_power() -> MPoly:
        base = parse_atom()
        if peek() in ("^", "**"):
            advance()
            exp_tok = advance()
            if not exp_tok.isdigit():
                raise ValueError("exponent must be a nonnegative integer")
            return base ** int(exp_tok)
        return base

    def parse_atom() -> MPoly:
        tok = peek()
        if tok is None:
            raise ValueError("unexpected end of expression")
        if tok == "(":
            advance()
            node = parse_expr()
            if peek() != ")":
                raise ValueError("missing closing parenthesis")
            advance()
            return node
        if tok == "-":
            advance()
            return -parse_atom()
        advance()
        if re.fullmatch(r"\d+/\d+", tok) or tok.isdigit():
            return MPoly.const(Fraction(tok))
        if re.fullmatch(r"z\d+", tok):
            return MPoly.const(primitive_root(int(tok[1:])))
        return MPoly.var(tok)

    node = parse_expr()
    if pos != len(tokens):
        raise ValueError(f"trailing input near {tokens[pos:]!r}")
    return node


# ---------------------------------------------------------------------------
# dense baby Verma actions and the fake degree from the Verma side
# ---------------------------------------------------------------------------


def _zero_matrix(n):
    return [[MPoly.zero() for _ in range(n)] for _ in range(n)]


def _identity_matrix(n):
    return [[MPoly.const(1) if i == j else MPoly.zero() for j in range(n)]
            for i in range(n)]


def _mat_mul(a, b):
    n = len(a)
    out = _zero_matrix(n)
    for i in range(n):
        for k in range(n):
            c = a[i][k]
            if c.is_zero():
                continue
            for j in range(n):
                if not b[k][j].is_zero():
                    out[i][j] = out[i][j] + c * b[k][j]
    return out


def _dense_generators(B, chi):
    """The basis of the baby Verma module of chi over B, a basis of the
    group algebra, (coinvariant monomial of `B.group`, index in the chi
    space), and the dense matrices on it of the V*-coordinates, the
    elements of B, each acting on the chi space through
    `B.matrices_in(chi)`, and the V-coordinates, each entry found by
    searching the basis list."""
    monomials, normal_forms = coinvariant_basis(B.group)
    reps = B.matrices_in(chi)
    basis = [(m, j) for m in monomials for j in range(len(reps[0]))]
    n = len(basis)

    dual = []
    for xi in range(B.dim):
        mat = _zero_matrix(n)
        for col, (mono, j) in enumerate(basis):
            newmono = tuple(e + (1 if i == xi else 0) for i, e in enumerate(mono))
            for m, c in normal_forms[newmono].items():
                mat[basis.index((m, j))][col] = MPoly.const(c)
        dual.append(mat)
    group = []
    for g in range(B.order()):
        mat = _zero_matrix(n)
        for col, (mono, j) in enumerate(basis):
            # g mono = scalar * image * g2, and g2 acts through its matrix
            scalar, image, g2 = B.b_mono(g, mono, True)
            rep = reps[g2]
            for m, c in normal_forms[image].items():
                for jp in range(len(rep)):
                    v = rep[jp][j]
                    if v != 0:
                        row = basis.index((m, jp))
                        mat[row][col] = mat[row][col] + MPoly.const(
                            canon_scalar(scalar * c * v))
        group.append(mat)
    vmats = []
    for vj in range(B.dim):
        mat = _zero_matrix(n)
        for col, (mono, j) in enumerate(basis):
            for coeff, m, g in _straighten(B, "v", vj, mono):
                rep = reps[g]
                for mm, c in normal_forms[m].items():
                    for jp in range(len(rep)):
                        v = rep[jp][j]
                        if v != 0:
                            row = basis.index((mm, jp))
                            mat[row][col] = mat[row][col] + coeff * canon_scalar(c * v)
        vmats.append(mat)
    return basis, dual, group, vmats


def dense_act(z: PBWElement, chi) -> list:
    """The dense action matrix of a PBW element of the t = 0 algebra on the
    baby Verma module of chi over the basis of z, one matrix product per
    letter of each normal word."""
    B = z.basis
    basis, dual, group, vmats = _dense_generators(B, chi)
    n = len(basis)
    total = _zero_matrix(n)
    for (p, g, q), c in z.terms.items():
        mat = _identity_matrix(n)
        for xi in range(B.dim):
            for _ in range(q[xi]):
                mat = _mat_mul(dual[xi], mat)
        mat = _mat_mul(group[g], mat)
        for vj in range(B.dim):
            for _ in range(p[vj]):
                mat = _mat_mul(vmats[vj], mat)
        for r in range(n):
            for s in range(n):
                if not mat[r][s].is_zero():
                    total[r][s] = total[r][s] + c * mat[r][s]
    return total


def on_character(cols: list, B, chi) -> list:
    """The dense matrix of sum_b K_b (x) rho_chi(b) on the baby Verma module
    of chi, in the basis order of `dense_act`, from the labelled columns
    {(row, b): MPoly} of the K_b that `BabyVermaModule.act` returns over B;
    rho_chi(b) is `B.matrices_in(chi)`."""
    reps = B.matrices_in(chi)
    deg = len(reps[0])
    mat = _zero_matrix(len(cols) * deg)
    for i, col in enumerate(cols):
        for (r, b), x in col.items():
            for j in range(deg):
                for jp in range(deg):
                    v = reps[b][jp][j]
                    if v != 0:
                        row, c = r * deg + jp, i * deg + j
                        mat[row][c] = mat[row][c] + x * v
    return mat


def dense_omega(z: PBWElement, chi):
    """(trace / dim of the dense action, whether z - trace / dim acts
    nilpotently), the nilpotency found by squaring until the exponent
    reaches the dimension."""
    mat = dense_act(z, chi)
    n = len(mat)
    tr = MPoly.zero()
    for i in range(n):
        tr = tr + mat[i][i]
    value = tr.divexact(MPoly.const(n))
    power = [[mat[i][j] - (value if i == j else MPoly.zero())
              for j in range(n)] for i in range(n)]
    steps = 1
    while steps < n:
        power = _mat_mul(power, power)
        steps *= 2
    return value, all(x.is_zero() for row in power for x in row)


def graded_character_eM(W, chi) -> MPoly:
    """Graded dimension of the W-invariant part of the baby Verma module of
    chi; equals the fake degree f_chi(t)."""
    basis, _, group, _ = _dense_generators(W, chi)
    # averaged projector onto invariants, then trace per degree
    t = MPoly.var("t")
    poly = MPoly.zero()
    for i, (mono, _) in enumerate(basis):
        diag = sum((mat[i][i] for mat in group), MPoly.zero())
        if not diag.is_zero():
            poly = poly + (diag.divexact(MPoly.const(W.order()))
                           * t ** sum(mono))
    return poly


# ---------------------------------------------------------------------------
# bigraded Hilbert series with bivariate arithmetic and a bivariate inverse
# ---------------------------------------------------------------------------


class BivariateSeries:
    """Power series in (t, u) truncated to the square 0 <= i, j <= order,
    with sum, product, scaling and inverse."""

    def __init__(self, order: int, coeffs=None):
        self.order = order
        self.coeffs = {}
        for (i, j), c in (coeffs or {}).items():
            if i <= order and j <= order:
                c = canon_scalar(c)
                if c != 0:
                    self.coeffs[(i, j)] = c

    def get(self, i: int, j: int):
        return self.coeffs.get((i, j), 0)

    def __add__(self, other):
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            out[key] = out.get(key, 0) + c
        return BivariateSeries(min(self.order, other.order), out)

    def __mul__(self, other):
        n = min(self.order, other.order)
        out = {}
        for (i1, j1), c1 in self.coeffs.items():
            for (i2, j2), c2 in other.coeffs.items():
                if i1 + i2 <= n and j1 + j2 <= n:
                    key = (i1 + i2, j1 + j2)
                    out[key] = out.get(key, 0) + c1 * c2
        return BivariateSeries(n, out)

    def scale(self, c):
        return BivariateSeries(self.order,
                               {k: c * v for k, v in self.coeffs.items()})

    def invert(self) -> "BivariateSeries":
        c0 = self.get(0, 0)
        if c0 == 0:
            raise ZeroDivisionError("series has no invertible constant term")
        n = self.order
        inv_c0 = scalar_div(1, c0)
        out = {(0, 0): inv_c0}
        for total in range(1, 2 * n + 1):
            for i in range(max(0, total - n), min(n, total) + 1):
                j = total - i
                acc = 0
                for (a, b), c in self.coeffs.items():
                    if (a, b) != (0, 0) and a <= i and b <= j:
                        prev = out.get((i - a, j - b), 0)
                        if prev != 0:
                            acc = acc + c * prev
                if acc != 0:
                    out[(i, j)] = canon_scalar(-1 * acc * inv_c0)
        return BivariateSeries(n, out)


def _det_one_minus_bivariate(mat, var: str, order: int) -> BivariateSeries:
    """det(1 - var * mat) for a matrix of dimension 1 or 2."""
    if len(mat) == 1:
        det = [1, -mat[0][0]]
    else:
        det = [1, -(mat[0][0] + mat[1][1]),
               mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]]
    return BivariateSeries(order, {((k, 0) if var == "t" else (0, k)): c
                                   for k, c in enumerate(det)})


def _invariant_denominator_bivariate(W, order: int) -> BivariateSeries:
    den = BivariateSeries(order, {(0, 0): 1})
    for d in W.degrees:
        den = den * BivariateSeries(order, {(0, 0): 1, (d, 0): -1})
        den = den * BivariateSeries(order, {(0, 0): 1, (0, d): -1})
    return den


def molien_bivariate(W, order: int) -> BivariateSeries:
    """(1/|W|) sum_w (det(1 - t w) det(1 - u w^-1))^-1, one bivariate
    inverse per group element."""
    acc = BivariateSeries(order)
    for g in range(W.order()):
        f1 = _det_one_minus_bivariate(W.matrices[g], "t", order)
        f2 = _det_one_minus_bivariate(W.matrices[W.inverse[g]], "u", order)
        acc = acc + (f1 * f2).invert()
    return acc.scale(scalar_div(1, W.order()))


def fantome_bivariate(W, order: int) -> BivariateSeries:
    """sum_chi f_chi(t) f_chi(u) times the bivariate inverse of
    prod_i (1 - t^d_i)(1 - u^d_i)."""
    num = BivariateSeries(order)
    for chi in character_table(W):
        terms = {sum(exp): c for exp, c in fake_degree(W, chi).terms.items()}
        ft = BivariateSeries(order, {(k, 0): c for k, c in terms.items()})
        fu = BivariateSeries(order, {(0, k): c for k, c in terms.items()})
        num = num + ft * fu
    return num * _invariant_denominator_bivariate(W, order).invert()


def hilbert_center_bivariate(W, order: int) -> tuple:
    """(series, basis_series) of the center: both multiplied by the
    bivariate inverse of (1 - tu), once per reflection class."""
    param_factor = BivariateSeries(order, {(0, 0): 1, (1, 1): -1}).invert()
    pf = BivariateSeries(order, {(0, 0): 1})
    for _ in W.param_names:
        pf = pf * param_factor
    basis_num = BivariateSeries(order)
    for (i, j) in center_basis_bidegrees(W):
        basis_num = basis_num + BivariateSeries(order, {(i, j): 1})
    inv_den = _invariant_denominator_bivariate(W, order).invert()
    return fantome_bivariate(W, order) * pf, basis_num * inv_den * pf
