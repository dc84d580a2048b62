"""Baby Verma modules over the generic parameter ring, their exact actions,
and central characters Omega_chi computed from the trace of z on the
module.

The module attached to an irreducible character chi is induced from the
subalgebra generated by V, W and the parameters, on which V acts by zero and
W through chi; it is spanned by (coinvariant V*-side monomial) (x) (chi
space) and has dimension |W| * chi(1).  It represents the t = 0 algebra
only, and its V-action comes from the commutation rule of the PBW engine
(`cherednik._straighten`).

A module is built over a basis B of the group algebra (`reflgrp._Basis`),
the basis of the elements it acts by, and reads the group algebra only
through B, as `cherednik.multiply` does: its unit, its moves past a
monomial, and `B.matrices_in(chi)`, the matrix of each basis element in
chi.  Over the group these are chi's matrices and the coefficients are
polynomials in the C-labels; over a cyclic group's idempotents
(`reflgrp.idempotent_basis`) e_j acts on the line of eps^m as 1 if j = m
and 0 otherwise, and the coefficients are rational polynomials in the
K-labels, so no `Cyclotomic` arithmetic is done.

The coinvariant side belongs to the group `B.group`; it is what
`coinvariant_basis` returns, and all that the module reads of it: the basis
monomials, and the normal form {basis monomial: scalar} of every monomial
of degree at most one past the top.

An action is stored as sparse columns: the image of the i-th basis vector
is a dict {row index: coefficient}.  The V*-coordinates, the elements of B
and the V-coordinates act through columns built once per module, and a PBW
word acts on a basis vector by applying them in turn.  The module is graded
by the degree of the coinvariant monomial, from 0 to top = sum(d_i - 1): a
V*-coordinate raises it by one, an element of B keeps it, and a
V-coordinate lowers it by one and kills the degree-0 line.  So a word
(p, g, q) sends a vector of degree k to zero unless |p| <= k + |q| <= top,
and `act` applies it nowhere else.

Every value Omega_chi(z) carries its certificate: `omega` checks that
z - Omega_chi(z) acts nilpotently, and raises ArithmeticError when it does
not.  It tests the matrix at a seeded rational parameter point first, which
rejects a non-central z without the symbolic powers.
"""
from __future__ import annotations

import functools
import random
from fractions import Fraction

from .exactnum import canon_scalar, row_reduce
from .multipoly import MPoly
from .reflgrp import Character, ReflectionGroup, _Basis, character_table
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
    """The baby Verma module of one character, over one basis of the group
    algebra: the group, or a cyclic group's idempotents (see the module
    docstring).  One class serves both bases, and reads nothing of a basis
    but its fields and moves."""

    group_basis: _Basis        # the basis of the elements the module acts by
    basis: tuple               # of (coinvariant monomial, chi-space index)
    normal_forms: dict         # monomial -> {basis monomial: scalar}
    chi_mats: tuple            # the matrix of each element of group_basis
    # position of each basis vector, and the generator actions built once as
    # sparse columns: each V*-side coordinate, each element of the group
    # basis, each V-side coordinate
    index: dict
    dual_maps: list
    group_maps: list
    v_maps: list
    top: int                   # the highest degree of the coinvariant basis
    identities: frozenset      # the elements of group_basis acting as 1

    __slots__ = ("group_basis", "basis", "normal_forms", "chi_mats", "index",
                 "dual_maps", "group_maps", "v_maps", "top", "identities")

    def __init__(self, group_basis, basis, normal_forms, chi_mats):
        self.group_basis = B = group_basis
        self.basis = basis
        self.normal_forms = normal_forms
        self.chi_mats = chi_mats
        self.index = {b: i for i, b in enumerate(basis)}
        # xi * mono is the raised monomial times the unit, the sum of B.unit
        self.dual_maps = [
            self._map(lambda mono, xi=xi: tuple(
                (1, tuple(e + (i == xi) for i, e in enumerate(mono)), u)
                for u in B.unit))
            for xi in range(B.dim)]
        self.group_maps = [
            self._map(lambda mono, g=g: (B.b_mono(g, mono, True),))
            for g in range(B.order())]
        # v * mono = mono * v + the corrections of `_straighten`, and
        # mono * v kills the generator line
        self.v_maps = [
            self._map(lambda mono, vj=vj: _straighten(B, "v", vj, mono))
            for vj in range(B.dim)]
        self.top = max(sum(mono) for mono, _ in basis)
        one = [{i: 1} for i in range(len(basis))]
        self.identities = frozenset(
            g for g, cols in enumerate(self.group_maps) if cols == one)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def _map(self, images):
        """Columns {row: coefficient} of the map sending (mono, j) to
        sum c * (normal form of m) (x) chi(g) e_j over the (c, m, g) in
        images(mono)."""
        columns = []
        for mono, j in self.basis:
            col: dict = {}
            for c, m, g in images(mono):
                rep = self.chi_mats[g]
                for mm, cm in self.normal_forms[m].items():
                    for jp in range(len(rep)):
                        v = rep[jp][j]
                        if v != 0:
                            row = self.index[(mm, jp)]
                            term = c * canon_scalar(cm * v)
                            col[row] = term if row not in col else col[row] + term
            columns.append({r: x for r, x in col.items() if x})
        return columns

    def act(self, z: PBWElement) -> list:
        """The action of a PBW element of the t = 0 algebra, as the list of
        the images {row: MPoly} of the basis vectors.

        A word (p, g, q) takes a basis vector of degree k through degree
        k + |q| to degree k + |q| - |p|, so it is applied only where
        |p| <= k + |q| <= top, top the highest degree of the coinvariant
        basis; elsewhere its image is zero.  A basis element that acts as
        the identity (the group's identity) is not applied."""
        if z.basis is not self.group_basis:
            raise ValueError("element belongs to another group")
        n = self.group_basis.dim
        top = self.top
        words = []
        for (p, g, q), c in z.terms.items():
            maps = [self.dual_maps[xi] for xi in range(n)
                    for _ in range(q[xi])]
            if g not in self.identities:
                maps.append(self.group_maps[g])
            maps += [self.v_maps[vj] for vj in range(n)
                     for _ in range(p[vj])]
            words.append((maps, c, sum(p), sum(q)))
        columns = []
        for i, (mono, _) in enumerate(self.basis):
            k = sum(mono)
            col: dict = {}
            for maps, c, dp, dq in words:
                if not dp <= k + dq <= top:
                    continue
                vec = {i: 1}
                for m in maps:
                    vec = _apply(m, vec)
                for r, x in vec.items():
                    term = c * x
                    col[r] = term if r not in col else col[r] + term
            columns.append({r: x for r, x in col.items() if x})
        return columns


def _apply(columns, vec: dict) -> dict:
    """The image of the sparse vector vec under the map with these columns."""
    out: dict = {}
    for k, a in vec.items():
        for r, x in columns[k].items():
            term = a * x
            out[r] = term if r not in out else out[r] + term
    return {r: x for r, x in out.items() if x}


@functools.lru_cache(maxsize=None)
def build_baby_verma(B: _Basis, chi: Character) -> BabyVermaModule:
    """Build the baby Verma module attached to an irreducible character of
    the group of B, a basis of its group algebra, with each basis element
    acting through its matrix `B.matrices_in(chi)` in a representation
    whose traces are the values of chi, and the coinvariants of `B.group`."""
    if chi.group_spec != B.spec:
        raise ValueError("character does not belong to the group")
    monomials, normal_forms = coinvariant_basis(B.group)
    mats = B.matrices_in(chi)
    if len(mats[0]) != chi.degree:
        raise ArithmeticError(f"the realization of {chi.name} has dimension"
                              f" {len(mats[0])}, expected {chi.degree}")
    basis = tuple((m, j) for m in monomials for j in range(chi.degree))
    return BabyVermaModule(B, basis, normal_forms, mats)


# ---------------------------------------------------------------------------
# central characters
# ---------------------------------------------------------------------------


def omega(z: PBWElement, chi: Character) -> MPoly:
    """Omega_chi(z) = trace(z acting on the baby Verma module) / dim, for z
    in the t = 0 algebra over any basis of the group algebra (the value is
    in that basis's parameters), certified by checking that
    z - Omega_chi(z) acts nilpotently."""
    mod = build_baby_verma(z.basis, chi)
    cols = mod.act(z)
    tr = MPoly.zero()
    for i, col in enumerate(cols):
        tr = tr + col.get(i, 0)
    value = tr.divexact(MPoly.const(mod.dim))
    nil = [dict(col) for col in cols]
    for i, col in enumerate(nil):
        col[i] = col.get(i, 0) - value
    # N = z - value is nilpotent at every parameter point when it is
    # nilpotent, so N at one rational point rejects most non-central z
    # before the symbolic powers, whose entries grow, are computed
    for n in (_at_probe_point(nil), nil):
        if _top_power(n, mod.dim):
            raise ArithmeticError("central element failed the nilpotency check")
    return value


# seed of the rational parameter point at which `omega` tests nilpotency
# before it certifies
_PROBE_SEED = 20130211


def _at_probe_point(cols: list) -> list:
    """Sparse columns of MPoly entries evaluated at a seeded point with
    rational coordinates, one for each variable that occurs."""
    names = sorted({v for col in cols for x in col.values() for v in x.vars})
    rng = random.Random(_PROBE_SEED)
    point = {name: Fraction(rng.randint(-99, 99), rng.randint(1, 99))
             for name in names}
    return [{r: x.substitute(point).constant_value() for r, x in col.items()}
            for col in cols]


def _top_power(cols: list, dim: int) -> list:
    """The nonzero columns of N^(2^k) for the least 2^k >= dim: none
    exactly when the dim x dim matrix N is nilpotent."""
    steps = 1
    while steps < dim:
        cols = [_apply(cols, col) for col in cols]
        steps *= 2
    return [col for col in cols if col]


@functools.lru_cache(maxsize=None)
def omega_table(W: ReflectionGroup) -> dict:
    """Symbolic central characters of the named center generators:
    {character name: {generator name: MPoly}}."""
    gens = named_center_generators(W)
    table = {}
    for chi in character_table(W):
        row = {}
        for name, z in gens.items():
            row[name] = omega(z, chi)
        table[chi.name] = row
    return table
