"""Reference computations kept for the tests only: cyclotomic arithmetic on
Fraction coordinates, the per-factor change of coordinates for the rank-1
center identity, with its own C -> K table, the resultant as a Sylvester
determinant, the schoolbook polynomial product with tuple keys, and the PBW
product computed one term of the left factor at a time."""
import math
from fractions import Fraction

from chered.cherednik import (PBWElement, _lmul_dual, _lmul_group,
                              euler_element, multiply)
from chered.exactnum import Cyclotomic, cyclotomic_polynomial, primitive_root
from chered.multipoly import MPoly, canon_scalar
from chered.reflgrp import build_group


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
    return PBWElement(elem.group, elem.with_T, terms)


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


def multiply_per_term(a: PBWElement, b: PBWElement) -> PBWElement:
    """Exact product in PBW normal form, one term of a at a time: the
    reference for `multiply`, which shares work between the terms of a."""
    a._check_compat(b)
    W = a.group
    result = a._like({})
    for (p, g, q), c in a.terms.items():
        piece = b
        for xi in reversed(range(W.dim)):
            for _ in range(q[xi]):
                piece = _lmul_dual(W, xi, piece)
        if g != W.identity:
            piece = _lmul_group(W, g, piece)
        for j in range(W.dim):
            if p[j]:
                piece = a._like({(tuple(e + (p[j] if i == j else 0)
                                        for i, e in enumerate(pp)), w, qq): cc
                                 for (pp, w, qq), cc in piece.terms.items()})
        result = result + piece.scale(c)
    return result
