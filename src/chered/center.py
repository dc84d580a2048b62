"""Verification of the presentations of the center Z inside the PBW engine,
and minimal/characteristic polynomials of the Euler element over the
invariant subalgebra P."""
from __future__ import annotations

import functools

from .multipoly import MPoly, charpoly_berkowitz
from .reflgrp import ReflectionGroup, build_group, character_table, param_map
from .cherednik import (PBWElement, euler_element, multiply,
                        named_center_generators, noncommuting_generator,
                        residue_summary)
from .verma import omega

__all__ = [
    "rank1_center_product",
    "verify_rank1_center",
    "verify_b2_center",
    "verify_b2_centrality",
    "verify_b2_relations",
    "minpoly_euler",
    "euler_charpoly_congruence",
]


RANK1_DEGREES = range(2, 8)


def rank1_center_product(d: int) -> PBWElement:
    """prod_{j=0}^{d-1} (eu - d K_j) in the cyclic algebra of order d, for d
    in RANK1_DEGREES.  The product is taken in C-coordinates, with each K_j
    written as its C-linear form from the rows of `param_map`."""
    if d not in RANK1_DEGREES:
        raise ValueError(
            "the rank-1 center identity is supported for"
            f" {RANK1_DEGREES[0]} <= d <= {RANK1_DEGREES[-1]}, got d = {d};"
            " d = 8 waits for the idempotent basis of the group algebra"
            " (ROADMAP item 2)")
    W = build_group(f"cyclic:{d}")
    prod = PBWElement.one(W)
    for factor in _rank1_factors(W):
        prod = multiply(prod, factor)
    return prod


def _rank1_factors(W: ReflectionGroup) -> list:
    """The factors eu - d K_j, j = 0..d-1, of the rank-1 identity in
    C-coordinates."""
    d = W.order()
    eu = euler_element(W)
    one = PBWElement.one(W)
    factors = []
    for _, row in param_map(W).k_rows:
        k = MPoly.zero()
        for label, coeff in row:
            k = k + MPoly.var(label) * coeff
        factors.append(eu - one.scale(d * k))
    return factors


def verify_rank1_center(d: int) -> dict:
    """Check prod_{j=0}^{d-1} (eu - d K_j) = X Y (see rank1_center_product)."""
    prod = rank1_center_product(d)
    gens = named_center_generators(prod.group)
    return _report(f"prod(eu - {d}*K_j) = X*Y",
                   prod - multiply(gens["X"], gens["Y"]))


def _report(relation: str, residue: PBWElement, **failure) -> dict:
    """The report {relation, status} of the identity residue = 0; a failed
    one also carries the failure context and the summary of its residue."""
    status = residue.is_zero()
    report = {"relation": relation, "status": status}
    if not status:
        report.update(failure, residue=residue_summary(residue))
    return report


def _b2_relation_residues(W: ReflectionGroup) -> dict:
    g = named_center_generators(W)
    eu, eu1, eu2, dl = g["eu"], g["eu'"], g["eu''"], g["delta"]
    sg, pi, Sg, Pi = g["sigma"], g["pi"], g["Sigma"], g["Pi"]
    A2 = MPoly.var("A") ** 2
    B2 = MPoly.var("B") ** 2
    one = PBWElement.one(W)
    core = (4 * dl - multiply(eu, eu) + multiply(sg, Sg)
            + one.scale(4 * A2 - 4 * B2))
    return {
        "Z1": multiply(eu, eu1) - multiply(sg, Pi) - multiply(Sg, dl),
        "Z2": multiply(eu, eu2) - multiply(Sg, pi) - multiply(sg, dl),
        "Z3": multiply(dl, eu1) - multiply(Pi, eu2) - multiply(Sg, eu).scale(B2),
        "Z4": multiply(dl, eu2) - multiply(pi, eu1) - multiply(sg, eu).scale(B2),
        "Z5": multiply(dl, dl) - multiply(pi, Pi) - multiply(eu, eu).scale(B2),
        "Z6": (multiply(eu1, eu1) - multiply(Pi, core)
               - multiply(Sg, Sg).scale(B2)),
        "Z7": (multiply(eu2, eu2) - multiply(pi, core)
               - multiply(sg, sg).scale(B2)),
        "Z8": (multiply(eu1, eu2) - multiply(dl, core)
               + multiply(sg, Sg).scale(B2)),
        "Z9": (multiply(eu, core) - multiply(sg, eu1) - multiply(Sg, eu2)),
    }


def verify_b2_centrality() -> list:
    """Centrality of eu, eu', eu'' and delta, as exact PBW identities.
    Returns a list of {relation, status[, generator, residue]} reports: a
    failed one names the first algebra generator that the element does not
    commute with and summarises that commutator."""
    g = named_center_generators(build_group("b2"))
    return [_report(f"central({name})", **_centrality_residue(g[name]))
            for name in ("eu", "eu'", "eu''", "delta")]


def _centrality_residue(z: PBWElement) -> dict:
    """{"residue": 0} for a central z, else its first non-zero commutator
    with an algebra generator as "residue" and that generator's name as
    "generator", from one search (`noncommuting_generator`), which computes
    one commutator per generator tried."""
    found = noncommuting_generator(z)
    if found is None:
        return {"residue": PBWElement.zero(z.group)}
    name, comm = found
    return {"residue": comm, "generator": name}


def verify_b2_relations() -> list:
    """The nine algebraic relations Z1-Z9 among eu, eu', eu'', delta and
    the embedded invariants, as exact PBW identities.  Returns a list of
    {relation, status[, residue]} reports."""
    return [_report(name, residue) for name, residue
            in _b2_relation_residues(build_group("b2")).items()]


def verify_b2_center() -> list:
    """The centrality reports followed by the relation reports."""
    return verify_b2_centrality() + verify_b2_relations()


# ---------------------------------------------------------------------------
# minimal polynomial of the Euler element over P
# ---------------------------------------------------------------------------


def _b2_euler_matrix():
    """The 8x8 multiplication matrix of eu on the P-basis
    {1, eu, eu^2, delta, delta*eu, delta*eu^2, eu', eu''} of Z, obtained by
    rewriting each product back to the basis with Z1-Z9."""
    sg, pi, Sg, Pi = (MPoly.var(n) for n in ("sigma", "pi", "Sigma", "Pi"))
    A2 = MPoly.var("A") ** 2
    B2 = MPoly.var("B") ** 2
    zero = MPoly.zero()
    clin = sg * Sg + 4 * A2 - 4 * B2     # eu^3 = 4 d.eu + clin eu - sg eu' - Sg eu''
    cols = [[zero] * 8 for _ in range(8)]

    def setcol(j, entries):
        for i, v in entries.items():
            cols[j][i] = v

    setcol(0, {1: MPoly.const(1)})                        # eu * 1
    setcol(1, {2: MPoly.const(1)})                        # eu * eu
    setcol(2, {4: MPoly.const(4), 1: clin, 6: -sg, 7: -Sg})   # eu^3
    setcol(3, {4: MPoly.const(1)})                        # eu * delta
    setcol(4, {5: MPoly.const(1)})                        # eu * delta eu
    setcol(5, {                                           # delta * eu^3
        1: 4 * pi * Pi + 4 * B2 * clin - 2 * B2 * sg * Sg,
        4: MPoly.const(16) * B2 + clin,
        6: -4 * B2 * sg - Sg * pi,
        7: -4 * B2 * Sg - sg * Pi,
    })
    setcol(6, {0: sg * Pi, 3: Sg})                        # Z1
    setcol(7, {0: Sg * pi, 3: sg})                        # Z2
    # transpose: matrix rows index the basis, columns the image
    return [[cols[j][i] for j in range(8)] for i in range(8)]


def _b2_euler_minpoly_closed_form() -> MPoly:
    sg, pi, Sg, Pi = (MPoly.var(n) for n in ("sigma", "pi", "Sigma", "Pi"))
    A2 = MPoly.var("A") ** 2
    B2 = MPoly.var("B") ** 2
    t = MPoly.var("t")
    c6 = -2 * (sg * Sg + 4 * A2 + 4 * B2)
    c4 = (sg ** 2 * Sg ** 2 + 2 * (sg ** 2 * Pi + Sg ** 2 * pi - 8 * pi * Pi)
          + 8 * (A2 + B2) * sg * Sg + 16 * (A2 - B2) ** 2)
    c2 = -2 * ((sg * Sg + 4 * A2 - 4 * B2) * (sg ** 2 * Pi + Sg ** 2 * pi)
               - 8 * sg * Sg * pi * Pi + 2 * B2 * sg ** 2 * Sg ** 2)
    c0 = (sg ** 2 * Pi - Sg ** 2 * pi) ** 2
    return t ** 8 + c6 * t ** 6 + c4 * t ** 4 + c2 * t ** 2 + c0


@functools.lru_cache(maxsize=None)
def minpoly_euler(W: ReflectionGroup) -> MPoly:
    """Minimal polynomial of eu over P, in the variable t.

    Rank 1 (order d): prod_j (t - d K_j) - X Y, in the K-coordinates of
    `param_map` (sum_j K_j = 0 encoded by eliminating K_0).  B2: the
    characteristic polynomial of the 8x8 multiplication matrix on the
    explicit P-basis of Z, asserted equal to the explicit closed form of
    degree 8.
    """
    if W.spec.startswith("cyclic:"):
        d = W.order()
        t = MPoly.var("t")
        k = param_map(W).k_forms
        prod = MPoly.const(1)
        for label in W.k_param_names():
            prod = prod * (t - d * k[label])
        return prod - MPoly.var("X") * MPoly.var("Y")
    if W.spec == "b2":
        charpoly = charpoly_berkowitz(_b2_euler_matrix(), "t")
        closed = _b2_euler_minpoly_closed_form()
        if charpoly != closed:
            raise ArithmeticError("characteristic polynomial mismatch:\n"
                                  f"{charpoly}\nvs\n{closed}")
        return charpoly
    raise ValueError(f"unsupported group {W.spec}")


def euler_charpoly_congruence(W: ReflectionGroup) -> bool:
    """charpoly(eu) = prod_chi (t - Omega_chi(eu))^(chi(1)^2) modulo the
    ideal generated by the positive-degree invariants.  It computes
    Omega_chi of eu alone, each value certified by `omega`, and not the
    whole `omega_table`."""
    f = minpoly_euler(W)
    t = MPoly.var("t")
    eu = euler_element(W)
    omega_vals = [omega(eu, chi) for chi in character_table(W)]
    if W.spec.startswith("cyclic:"):
        subst = {"X": MPoly.zero(), "Y": MPoly.zero()}
        # express Omega values in the same eliminated K-coordinates
        c_forms = param_map(W).c_forms
        omega_vals = [val.substitute(c_forms) for val in omega_vals]
    else:
        subst = {n: MPoly.zero() for n in ("sigma", "pi", "Sigma", "Pi")}
    reduced = f.substitute(subst)
    prod = MPoly.const(1)
    for chi, val in zip(character_table(W), omega_vals):
        prod = prod * (t - val) ** (chi.degree ** 2)
    return reduced == prod
