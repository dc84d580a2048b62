"""Baby Verma modules over the generic parameter ring, their exact actions,
and central characters Omega_chi computed from traces.

The baby Verma module Delta(chi) of an irreducible character chi is induced
from the subalgebra generated by V, the group algebra and the parameters,
on which V acts by zero and the group algebra through chi; it is spanned by
(coinvariant V*-side monomial) (x) (chi space) and has dimension
|W| * chi(1).  It represents the t = 0 algebra only, and its V-action comes
from the commutation rule of the PBW engine (`cherednik._straighten`).

One module serves every character: the module of the regular
representation, spanned by (coinvariant monomial) (x) b over a basis B of
the group algebra (`reflgrp._Basis`), built once per basis
(`build_baby_verma`).  It reads the group algebra only through B, as
`cherednik.multiply` does: its unit, its products `B.mult_table` and its
moves past a monomial.  Over the group the coefficients are polynomials in
the C-labels; over a cyclic group's idempotents
(`reflgrp.idempotent_basis`) they are rational polynomials in the K-labels,
so no `Cyclotomic` arithmetic is done.

The coinvariant side belongs to the group `B.group`; it is what
`coinvariant_basis` returns, and all that the module reads of it: the basis
monomials, and the normal form {basis monomial: scalar} of every monomial
of degree at most one past the top.

An action is labelled: with 1 the sum of `B.unit`,

    z (m (x) 1) = sum_b K_b(z)(m) (x) b,

stored as one sparse column per coinvariant monomial m, {(row, b):
coefficient}.  Right multiplication by the group algebra commutes with the
action, so a generator sends m (x) b' to its image of m (x) 1 with each
label b replaced by b b' (`B.mult_table`, where None is 0).  The
V*-coordinates, the elements of B and the V-coordinates act through
labelled columns built once per module, and a PBW word acts by applying
them in turn.  The module is graded by the degree of the coinvariant
monomial, from 0 to top = sum(d_i - 1): a V*-coordinate raises it by one,
an element of B keeps it, and a V-coordinate lowers it by one and kills the
degree-0 line.  So a word (p, g, q) sends a vector of degree k to zero
unless |p| <= k + |q| <= top, and `act` applies it nowhere else.

One action of z gives every central character.  The regular
representation is the sum of chi(1) copies of each chi, so the module of
the regular representation is the sum of chi(1) copies of each Delta(chi),
on which z acts by sum_b K_b(z) (x) rho_chi(b), with rho_chi =
`B.matrices_in(chi)`; Omega_chi(z) is its trace over its dimension, and the
trace of a tensor product is the product of the traces:

    Omega_chi(z) = sum_b tr K_b(z) * tr rho_chi(b) / (|W| chi(1)).

Every value carries its certificate: for each character `omega` checks
that N_chi = sum_b K_b(z) (x) rho_chi(b) - Omega_chi(z) is nilpotent, first
at a seeded rational parameter point, which rejects a non-central z without
the symbolic powers, then symbolically, and raises ArithmeticError when it
is not.
"""
from __future__ import annotations

import functools
import random
from fractions import Fraction
from math import prod

from .exactnum import canon_scalar, row_reduce, scalar_div
from .multipoly import MPoly, _add_into, _product
from .reflgrp import ReflectionGroup, _Basis, character_table
from .cherednik import PBWElement, _straighten, named_center_generators

__all__ = [
    "BabyVermaModule",
    "build_baby_verma",
    "omega",
    "omega_table",
]


# ---------------------------------------------------------------------------
# coinvariant algebra of the V*-side coordinates
# ---------------------------------------------------------------------------


def _monomials(nvars: int, degree: int):
    if nvars == 1:
        yield (degree,)
        return
    for first in range(degree, -1, -1):
        for rest in _monomials(nvars - 1, degree - first):
            yield (first,) + rest


def _reynolds_invariants(W: ReflectionGroup) -> list[dict]:
    """Fundamental invariants of the V*-side polynomial ring, one per
    invariant degree, found by averaging monomials over the group."""
    invariants = []
    for d in W.degrees:
        found = None
        for mono in _monomials(W.dim, d):
            avg: dict = {}
            for g in range(W.order()):
                scalar, image = W.act_monomial(g, mono, dual=True)
                avg[image] = canon_scalar(avg.get(image, 0) + scalar)
            avg = {m: c for m, c in avg.items() if c != 0}
            if avg:
                found = avg
                break
        if found is None:
            raise ArithmeticError(f"no invariant of degree {d}")
        invariants.append(found)
    return invariants


@functools.lru_cache(maxsize=None)
def coinvariant_basis(W: ReflectionGroup) -> tuple:
    """(monomials, normal_forms): the greedy monomial basis of the V*-side
    coinvariant algebra, by degree, then ascending, selected by exact linear
    algebra degree by degree and validated against the graded dimension
    prod(1 + t + ... + t^(d_i - 1)); and the normal form {basis monomial:
    scalar} modulo the positive-degree invariants of every monomial of
    degree at most top + 1: top is the degree of the top coinvariant, so a
    V*-coordinate takes a basis monomial no higher.  The result is cached
    and shared and must not be changed."""
    invariants = _reynolds_invariants(W)
    top = sum(d - 1 for d in W.degrees)
    basis: list = []
    normal_forms: dict = {}
    for k in range(top + 2):
        monos = sorted(_monomials(W.dim, k), reverse=True)
        index = {m: i for i, m in enumerate(monos)}
        rows = []
        for inv, d in zip(invariants, W.degrees):
            if k < d:
                continue
            for m in _monomials(W.dim, k - d):
                row = [0] * len(monos)
                for imono, c in inv.items():
                    prod = tuple(a + b for a, b in zip(m, imono))
                    row[index[prod]] = c
                rows.append(row)
        # in reduced row echelon form each pivot row is its monomial minus
        # that monomial's normal form over the free (basis) monomials
        pivots = row_reduce(rows)
        free_cols = [c for c in range(len(monos)) if c not in pivots]
        # monos descends, so this lists the degree's basis ascending
        basis += [monos[c] for c in reversed(free_cols)]
        for c in free_cols:
            normal_forms[monos[c]] = {monos[c]: 1}
        for row, col in zip(rows, pivots):
            normal_forms[monos[col]] = {monos[c]: -row[c]
                                        for c in free_cols if row[c] != 0}
    # validation of the graded dimension
    expect = [1]
    for d in W.degrees:
        new = [0] * (len(expect) + d - 1)
        for i, c in enumerate(expect):
            for j in range(d):
                new[i + j] += c
        expect = new
    got = [sum(1 for m in basis if sum(m) == k) for k in range(len(expect))]
    if got != expect or len(basis) != W.order():
        raise ArithmeticError(f"coinvariant basis has graded dimension {got},"
                              f" expected {expect} (|W| = {W.order()})")
    return tuple(basis), normal_forms


# ---------------------------------------------------------------------------
# baby Verma module
# ---------------------------------------------------------------------------


class BabyVermaModule:
    """The baby Verma module of the regular representation of one basis of
    the group algebra: the group, or a cyclic group's idempotents (see the
    module docstring).  One class serves both bases, and reads nothing of a
    basis but its fields and moves."""

    group_basis: _Basis        # the basis of the elements the module acts by
    monomials: tuple           # the coinvariant basis of `B.group`
    # the generator actions built once as labelled sparse columns
    # {(row, b): MPoly}: each V*-side coordinate, each element of the group
    # basis, each V-side coordinate
    dual_maps: list
    group_maps: list
    v_maps: list
    top: int                   # the highest degree of the coinvariant basis

    __slots__ = ("group_basis", "monomials", "dual_maps", "group_maps",
                 "v_maps", "top")

    def __init__(self, group_basis):
        self.group_basis = B = group_basis
        self.monomials, normal_forms = coinvariant_basis(B.group)
        index = {m: i for i, m in enumerate(self.monomials)}
        # a coefficient times one is over the sorted parameters, the
        # variables of an element with parameter coefficients, which `act`
        # then reads without realigning
        params = tuple(sorted(B.param_names))
        one = MPoly._of(params, {(0,) * len(params): 1})

        def labelled(images):
            """Columns {(row, b): MPoly over params} of the map sending
            m (x) 1 to sum c * (normal form of m') (x) b over the (c, m', b)
            in images(m)."""
            columns = []
            for mono in self.monomials:
                col: dict = {}
                for c, m, b in images(mono):
                    for mm, cm in normal_forms[m].items():
                        key, term = (index[mm], b), c * cm
                        col[key] = term if key not in col else col[key] + term
                columns.append({key: one * x for key, x in col.items() if x})
            return columns

        # xi * mono is the raised monomial times the unit, the sum of B.unit
        self.dual_maps = [
            labelled(lambda mono, xi=xi: tuple(
                (1, tuple(e + (i == xi) for i, e in enumerate(mono)), u)
                for u in B.unit))
            for xi in range(B.dim)]
        self.group_maps = [
            labelled(lambda mono, g=g: (B.b_mono(g, mono, True),))
            for g in range(B.order())]
        # v * mono = mono * v + the corrections of `_straighten`, and
        # mono * v kills the generator line
        self.v_maps = [
            labelled(lambda mono, vj=vj: _straighten(B, "v", vj, mono))
            for vj in range(B.dim)]
        self.top = max(map(sum, self.monomials))

    def act(self, z: PBWElement) -> list:
        """z (m (x) 1) = sum_b K_b(z)(m) (x) b for each coinvariant monomial
        m, as the list of labelled columns {(row, b): MPoly} over
        `z.variables`: the columns of every K_b(z) at once.

        A word (p, g, q) takes a basis vector of degree k through degree
        k + |q| to degree k + |q| - |p|, so it is applied only where
        |p| <= k + |q| <= top, top the highest degree of the coinvariant
        basis; elsewhere its image is zero."""
        B = self.group_basis
        if z.basis is not B:
            raise ValueError("element belongs to another group")
        nv, n, top = z.variables, B.dim, self.top
        words = []
        for (p, g, q), c in z.terms.items():
            maps = [self.dual_maps[xi] for xi in range(n)
                    for _ in range(q[xi])]
            maps.append(self.group_maps[g])
            maps += [self.v_maps[vj] for vj in range(n) for _ in range(p[vj])]
            words.append((maps, c._aligned(nv), sum(p), sum(q)))
        columns = []
        for i, mono in enumerate(self.monomials):
            k = sum(mono)
            col: dict = {}
            for maps, c, dp, dq in words:
                if not dp <= k + dq <= top:
                    continue
                vec = {(i, u): c for u in B.unit}
                for m in maps:
                    vec = _apply(m, vec, B.mult_table, nv)
                for key, t in vec.items():
                    _add_into(col.setdefault(key, {}), t)
            columns.append({key: MPoly._of(nv, t)
                            for key, t in col.items() if t})
        return columns


def _apply(columns, vec: dict, mult: tuple, nv: tuple) -> dict:
    """The image of the labelled vector vec {(i, b): terms over nv} under
    the map with these labelled columns: m_i (x) b goes to the image of
    m_i (x) 1 with each label b' replaced by b' b, from mult, the basis's
    `mult_table`."""
    out: dict = {}
    for (k, b), a in vec.items():
        for (r, b2), x in columns[k].items():
            lab = mult[b2][b]
            if lab is not None:
                t = _product(x._aligned(nv), a)
                prev = out.get((r, lab))
                if prev is None:
                    out[(r, lab)] = t
                else:
                    _add_into(prev, t)
    return {key: t for key, t in out.items() if t}


@functools.lru_cache(maxsize=None)
def build_baby_verma(B: _Basis) -> BabyVermaModule:
    """The baby Verma module of the regular representation of B, a basis
    of a group algebra, with the coinvariants of `B.group`: built once per
    basis and shared by every character."""
    return BabyVermaModule(B)


# ---------------------------------------------------------------------------
# central characters
# ---------------------------------------------------------------------------


# seed of the rational parameter point at which `omega` tests nilpotency
# before it certifies
_PROBE_SEED = 20130211


def omega(z: PBWElement, chars) -> dict:
    """{chi.name: Omega_chi(z)} for the irreducible characters chars of the
    group of z's basis, z in the t = 0 algebra over any basis of the group
    algebra (each value in that basis's parameters), from one action of z
    (see the module docstring).  Each value is certified by checking that
    N_chi = sum_b K_b(z) (x) rho_chi(b) - Omega_chi(z) is nilpotent: first
    at a seeded rational parameter point, then symbolically.

    >>> from chered.reflgrp import build_group
    >>> from chered.cherednik import euler_element
    >>> W = build_group("cyclic:2")
    >>> omega(euler_element(W), character_table(W))
    {'eps^0': MPoly(-C1), 'eps^1': MPoly(C1)}
    """
    B = z.basis
    cols = build_baby_verma(B).act(z)
    nv = z.variables
    zeros = (0,) * len(nv)
    traces: dict = {}          # b -> the trace of K_b(z), as terms over nv
    for i, col in enumerate(cols):
        for (r, b), x in col.items():
            if r == i:
                _add_into(traces.setdefault(b, {}), x.terms)
    rng = random.Random(_PROBE_SEED)
    point = [Fraction(rng.randint(-99, 99), rng.randint(1, 99)) for _ in nv]
    values = {}
    for chi in chars:
        if chi.group_spec != B.spec:
            raise ValueError("character does not belong to the group")
        mats, deg = B.matrices_in(chi), chi.degree
        if len(mats[0]) != deg:
            raise ArithmeticError(f"the realization of {chi.name} has"
                                  f" dimension {len(mats[0])}, expected {deg}")
        value: dict = {}
        for b, t in traces.items():
            s = scalar_div(sum(mats[b][j][j] for j in range(deg)),
                           len(cols) * deg)
            if s:
                _add_into(value, _product({zeros: s}, t))
        # N_chi on (m_i (x) e_j), the (i * deg + j)-th basis vector
        nil = []
        for i, col in enumerate(cols):
            for j in range(deg):
                image = {i * deg + j: {e: -c for e, c in value.items()}}
                for (r, b), x in col.items():
                    for jp, row in enumerate(mats[b]):
                        if row[j]:
                            t = _product({zeros: row[j]}, x.terms)
                            _add_into(image.setdefault(r * deg + jp, {}), t)
                nil.append({r: t for r, t in image.items() if t})
        # N is nilpotent at every parameter point when it is nilpotent, so
        # N at one rational point rejects most non-central z before the
        # symbolic powers, whose entries grow, are computed
        probe = []
        for col in nil:
            at = {r: sum(c * prod(map(pow, point, e)) for e, c in t.items())
                  for r, t in col.items()}
            probe.append({r: {(): canon_scalar(v)}
                          for r, v in at.items() if v})
        for n in (probe, nil):
            if _top_power(n, len(nil)):
                raise ArithmeticError(
                    "central element failed the nilpotency check")
        values[chi.name] = MPoly._of(nv, value) if value else MPoly.zero()
    return values


def _top_power(cols: list, dim: int) -> list:
    """The nonzero columns of N^(2^k) for the least 2^k >= dim: none
    exactly when the dim x dim matrix N, as sparse columns {row: terms}, is
    nilpotent."""
    steps = 1
    while steps < dim and any(cols):
        cols = [_times(cols, col) for col in cols]
        steps *= 2
    return [col for col in cols if col]


def _times(cols: list, vec: dict) -> dict:
    """The image of the sparse vector vec {row: terms} under the map with
    these columns."""
    out: dict = {}
    for k, a in vec.items():
        for r, x in cols[k].items():
            t = _product(x, a)
            prev = out.get(r)
            if prev is None:
                out[r] = t
            else:
                _add_into(prev, t)
    return {r: t for r, t in out.items() if t}


@functools.lru_cache(maxsize=None)
def omega_table(W: ReflectionGroup) -> dict:
    """Symbolic central characters of the named center generators:
    {character name: {generator name: MPoly}}, from one action of each
    generator."""
    gens = named_center_generators(W)
    chars = character_table(W)
    values = {name: omega(z, chars) for name, z in gens.items()}
    return {chi.name: {name: values[name][chi.name] for name in gens}
            for chi in chars}
