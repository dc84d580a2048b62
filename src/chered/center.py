"""Verification of the presentations of the center Z inside the PBW engine,
and minimal/characteristic polynomials of the Euler element over the
invariant subalgebra P.

Each relation of Z is written once, as a function of its generators that
works in any ring with +, - and *:

- `_rank1_relation(t, ks, x, y)` is prod_j (t - d K_j) - x y.  With t = eu,
  x, y = X, Y in the PBW algebra over the idempotent basis of the group
  algebra and the K-forms of `k_forms` it is the residue that
  `verify_rank1_center` checks; with t, X and Y variables and the same
  K-forms it is the rank-1 minimal polynomial.
- `_b2_relations(g)` gives Z1-Z9 as pairs (lhs, rhs), each lhs a monomial
  in eu, eu', eu'' and delta.  With the PBW generators,
  `verify_b2_relations` reports lhs - rhs; with `MPoly.var` generators,
  `_b2_multiplication_matrix` uses each pair as a rewrite rule lhs -> rhs.

Rewriting ends.  Order the monomials in eu, eu', eu'' and delta by
weighted degree (eu 1; delta, eu' and eu'' 2), then lex with
eu' > eu'' > eu > delta.  This is a monomial order, and a well-order; in it
every lhs exceeds each monomial in eu, eu', eu'' and delta of its rhs, so a
rewriting step replaces a term by smaller ones.
"""
from __future__ import annotations

import functools
from operator import ge, mul, sub

from .multipoly import MPoly, charpoly_berkowitz
from .reflgrp import (ReflectionGroup, build_group, character_table,
                      idempotent_basis, k_forms)
from .cherednik import (PBWElement, center_presentation,
                        named_center_generators, noncommuting_generator,
                        residue_summary)
from .verma import omega

__all__ = [
    "verify_rank1_center",
    "verify_b2_center",
    "verify_b2_centrality",
    "verify_b2_relations",
    "minpoly_euler",
    "euler_charpoly_congruence",
]


RANK1_DEGREES = range(2, 11)


def _rank1_relation(t, ks, x, y):
    """prod_j (t - d K_j) - x y over the d = len(ks) values K_j, in any ring
    with +, - and *; the product starts from its first factor."""
    d = len(ks)
    return functools.reduce(mul, [t - d * k for k in ks]) - x * y


def verify_rank1_center(d: int) -> dict:
    """Check prod_{j=0}^{d-1} (eu - d K_j) = X Y in the cyclic algebra of
    order d, for d in RANK1_DEGREES.  The product is taken over the
    idempotent basis of the group algebra (`idempotent_basis`), where every
    structure constant is a rational linear form in the K-coordinates and
    each K_j is its form from `k_forms`."""
    if d not in RANK1_DEGREES:
        raise ValueError(
            "the rank-1 center identity is supported, and tested, for"
            f" {RANK1_DEGREES[0]} <= d <= {RANK1_DEGREES[-1]}, got d = {d}")
    W = build_group(f"cyclic:{d}")
    g = named_center_generators(idempotent_basis(W))
    ks = list(k_forms(W).values())
    return _report(f"prod(eu - {d}*K_j) = X*Y",
                   _rank1_relation(g["eu"], ks, g["X"], g["Y"]))


def _report(relation: str, residue: PBWElement, **failure) -> dict:
    """The report {relation, status} of the identity residue = 0; a failed
    one also carries the failure context and the summary of its residue."""
    status = residue.is_zero()
    report = {"relation": relation, "status": status}
    if not status:
        report.update(failure, residue=residue_summary(residue))
    return report


def _b2_relations(g: dict) -> dict:
    """Z1-Z9 as {name: (lhs, rhs)} in the generators g["eu"], g["eu'"],
    g["eu''"], g["delta"], g["sigma"], g["pi"], g["Sigma"] and g["Pi"] of
    any ring with +, - and * that the parameters A and B act on.  Each lhs
    is a monomial in eu, eu', eu'' and delta; eu^2 and sigma*Sigma are
    formed once, and Pi, pi and delta each multiply
    core = 4 delta - eu^2 + sigma Sigma + 4A^2 - 4B^2 in one product."""
    eu, eu1, eu2, dl = g["eu"], g["eu'"], g["eu''"], g["delta"]
    sg, pi, Sg, Pi = g["sigma"], g["pi"], g["Sigma"], g["Pi"]
    A2 = MPoly.var("A") ** 2
    B2 = MPoly.var("B") ** 2
    eu_sq, sg_Sg = eu * eu, sg * Sg
    lin = 4 * dl + sg_Sg + (4 * A2 - 4 * B2)
    core = lin - eu_sq
    return {
        "Z1": (eu * eu1, sg * Pi + Sg * dl),
        "Z2": (eu * eu2, Sg * pi + sg * dl),
        "Z3": (dl * eu1, Pi * eu2 + B2 * (Sg * eu)),
        "Z4": (dl * eu2, pi * eu1 + B2 * (sg * eu)),
        "Z5": (dl * dl, pi * Pi + B2 * eu_sq),
        "Z6": (eu1 * eu1, Pi * core + B2 * (Sg * Sg)),
        "Z7": (eu2 * eu2, pi * core + B2 * (sg * sg)),
        "Z8": (eu1 * eu2, dl * core - B2 * sg_Sg),
        "Z9": (eu * eu_sq, eu * lin - sg * eu1 - Sg * eu2),
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
        return {"residue": PBWElement.zero(z.basis)}
    name, comm = found
    return {"residue": comm, "generator": name}


def verify_b2_relations() -> list:
    """The nine algebraic relations Z1-Z9 among eu, eu', eu'', delta and
    the embedded invariants, as exact PBW identities.  Returns a list of
    {relation, status[, residue]} reports."""
    g = named_center_generators(build_group("b2"))
    return [_report(name, lhs - rhs)
            for name, (lhs, rhs) in _b2_relations(g).items()]


def verify_b2_center() -> list:
    """The centrality reports followed by the relation reports."""
    return verify_b2_centrality() + verify_b2_relations()


# ---------------------------------------------------------------------------
# minimal polynomial of the Euler element over P
# ---------------------------------------------------------------------------


def _b2_multiplication_matrix(z: str) -> list:
    """The 8x8 multiplication matrix of the generator z (one of eu, eu',
    eu'' and delta) on the P-basis of Z of `center_presentation`.  Column j
    is z*b_j rewritten with the rules lhs -> rhs of `_b2_relations` until no
    lhs divides a term, and row i holds the coefficient of b_i, a
    polynomial in A, B, sigma, pi, Sigma and Pi.  Raises ArithmeticError if
    a monomial outside the basis is left."""
    _, z_names, basis = center_presentation(build_group("b2"))
    k = len(z_names)
    names = z_names + ("A", "B", "Pi", "Sigma", "pi", "sigma")
    g = {name: MPoly.var(name) for name in names}
    rules = [(next(iter(lhs._aligned(names))), rhs - lhs)
             for lhs, rhs in _b2_relations(g).values()]
    cols = []
    for b in basis:
        col = [{} for _ in basis]
        f = _rewrite(g[z] * MPoly(z_names, {b: 1}), rules, names)
        for exp, c in f._aligned(names).items():
            if exp[:k] not in basis:
                raise ArithmeticError(f"{z} times a basis element leaves"
                                      f" {MPoly(names, {exp: c})} outside"
                                      " the basis")
            col[basis.index(exp[:k])][exp[k:]] = c
        cols.append([MPoly(names[k:], terms) for terms in col])
    return [list(row) for row in zip(*cols)]


def _rewrite(f: MPoly, rules: list, names: tuple) -> MPoly:
    """f after each term q*lhs is replaced by q*rhs, for rules (exponent of
    lhs, rhs - lhs) with exponents aligned to names, until no lhs divides a
    term (see the module docstring for why this ends)."""
    while True:
        steps = (MPoly(names, {tuple(map(sub, exp, top)): c}) * rest
                 for exp, c in f._aligned(names).items()
                 for top, rest in rules if all(map(ge, exp, top)))
        step = next(steps, None)
        if step is None:
            return f
        f = f + step


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

    Rank 1 (order d): prod_j (t - d K_j) - X Y (`_rank1_relation`), in the
    K-coordinates of `k_forms` (sum_j K_j = 0 encoded by eliminating K_0).
    B2: the characteristic polynomial of the multiplication matrix of eu on
    the P-basis of Z, rewritten from Z1-Z9, checked equal to the explicit
    closed form of degree 8 (ArithmeticError otherwise).
    """
    if W.spec != "b2":
        t, X, Y = (MPoly.var(name) for name in ("t", "X", "Y"))
        return _rank1_relation(t, list(k_forms(W).values()), X, Y)
    charpoly = charpoly_berkowitz(_b2_multiplication_matrix("eu"), "t")
    closed = _b2_euler_minpoly_closed_form()
    if charpoly != closed:
        raise ArithmeticError("characteristic polynomial mismatch:\n"
                              f"{charpoly}\nvs\n{closed}")
    return charpoly


def euler_charpoly_congruence(W: ReflectionGroup) -> bool:
    """charpoly(eu) = prod_chi (t - Omega_chi(eu))^(chi(1)^2) modulo the
    ideal generated by the positive-degree invariants.  It computes
    Omega_chi of eu alone, every character from one action of eu and each
    value certified by `omega`, and not the whole `omega_table`.

    Both sides are read in the coordinates of f = `minpoly_euler(W)`.
    Omega is computed over the basis of the group algebra whose parameters
    are variables of f, so it needs no change of coordinates: the group
    when f is in its C-labels (B2), else the idempotent basis, whose
    K-labels a rank-1 f uses and whose structure constants are rational.
    The invariants set to zero are the named generators among the variables
    of f."""
    f = minpoly_euler(W)
    t = MPoly.var("t")
    B = W if set(W.param_names) <= set(f.vars) else idempotent_basis(W)
    gens = named_center_generators(B)
    reduced = f.substitute({n: MPoly.zero() for n in f.vars if n in gens})
    chars = character_table(W)
    values = omega(gens["eu"], chars)
    prod = MPoly.const(1)
    for chi in chars:
        prod = prod * (t - values[chi.name]) ** (chi.degree ** 2)
    return reduced == prod
