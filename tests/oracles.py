"""Reference computations kept for the tests only: the per-factor change of
coordinates that the rank-1 center identity used before the PBW engine could
straighten in K-coordinates, with its own C -> K table, and the resultant as
a Sylvester determinant."""
from chered.cherednik import PBWElement, euler_element, multiply
from chered.exactnum import primitive_root
from chered.multipoly import MPoly, canon_scalar
from chered.reflgrp import build_group


def substitute_params(elem: PBWElement, mapping: dict) -> PBWElement:
    """Apply a substitution to every parameter coefficient of an element."""
    terms = {}
    for key, coeff in elem.terms.items():
        new = coeff.substitute(mapping)
        if not new.is_zero():
            terms[key] = new
    return PBWElement(elem.group, elem.with_T, terms, elem.basis)


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


def rank1_center_product_per_factor(d: int) -> PBWElement:
    """prod_j (eu - d K_j) straightened in C-coordinates, with C -> K
    re-applied after every factor."""
    W = build_group(f"cyclic:{d}")
    eu = euler_element(W)
    kvars = rank1_k_variables(d)
    subst = rank1_c_to_k(d)
    prod = PBWElement.one(W)
    for j in range(d):
        prod = multiply(prod, eu - PBWElement.one(W).scale(kvars[j] * d))
        prod = substitute_params(prod, subst)
    return prod


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
