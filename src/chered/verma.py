"""Baby Verma modules over the generic parameter ring, exact action
matrices, and central characters Omega_chi computed both by the trace oracle
and by the closed formula (1/chi(1)) sum_s eps(s) chi(s) C_s.

The module attached to an irreducible character chi is induced from the
subalgebra generated by V, W and the parameters, on which V acts by zero and
W through chi; it is spanned by (coinvariant V*-side monomial) (x) (chi
space) and has dimension |W| * chi(1).  It represents the t = 0 algebra
only, and its V-action comes from the commutation rule of the PBW engine
(`cherednik._straighten`).
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

from .exactnum import canon_scalar, row_reduce
from .multipoly import MPoly
from .reflgrp import (Character, ReflectionGroup, character_table,
                      value_on_element)
from .cherednik import PBWElement, _straighten

__all__ = [
    "CoinvariantBasis",
    "BabyVermaModule",
    "build_baby_verma",
    "omega",
    "omega_euler_closed_form",
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


@dataclass
class CoinvariantBasis:
    group: ReflectionGroup
    monomials: tuple           # basis monomials of the coinvariant algebra
    _invariants: list
    _reduction: dict           # monomial -> {basis monomial: scalar}

    def degree_counts(self) -> dict:
        out: dict = {}
        for m in self.monomials:
            out[sum(m)] = out.get(sum(m), 0) + 1
        return out

    def reduce(self, mono: tuple) -> dict:
        """Normal form of a monomial modulo the positive-degree invariants."""
        if mono in self._reduction:
            return self._reduction[mono]
        _extend_reduction(self, sum(mono))
        return self._reduction[mono]


@functools.lru_cache(maxsize=None)
def coinvariant_basis(W: ReflectionGroup) -> CoinvariantBasis:
    """Greedy monomial basis of the V*-side coinvariant algebra, selected by
    exact linear algebra degree by degree and validated against the graded
    dimension prod(1 + t + ... + t^(d_i - 1))."""
    cb = CoinvariantBasis(W, (), _reynolds_invariants(W), {})
    top = sum(d - 1 for d in W.degrees)
    _extend_reduction(cb, top)
    # validation of the graded dimension
    expect = [1]
    for d in W.degrees:
        new = [0] * (len(expect) + d - 1)
        for i, c in enumerate(expect):
            for j in range(d):
                new[i + j] += c
        expect = new
    counts = cb.degree_counts()
    got = [counts.get(k, 0) for k in range(len(expect))]
    if got != expect or len(cb.monomials) != W.order():
        raise ArithmeticError(f"coinvariant basis has graded dimension {got},"
                              f" expected {expect} (|W| = {W.order()})")
    return cb


def _extend_reduction(cb: CoinvariantBasis, max_degree: int):
    W = cb.group
    known = {sum(m) for m in cb._reduction}
    start = (max(known) + 1) if known else 0
    basis = list(cb.monomials)
    for k in range(start, max_degree + 1):
        monos = sorted(_monomials(W.dim, k), reverse=True)
        index = {m: i for i, m in enumerate(monos)}
        rows = []
        for inv, d in zip(cb._invariants, W.degrees):
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
        for c in free_cols:
            basis.append(monos[c])
            cb._reduction[monos[c]] = {monos[c]: 1}
        for row, col in zip(rows, pivots):
            cb._reduction[monos[col]] = {monos[c]: -row[c] for c in free_cols
                                         if row[c] != 0}
    cb.monomials = tuple(sorted(basis, key=lambda m: (sum(m), m)))


# ---------------------------------------------------------------------------
# baby Verma module
# ---------------------------------------------------------------------------


def _chi_matrices(W: ReflectionGroup, chi: Character):
    """An explicit matrix realization of chi: scalars for linear characters,
    the reflection representation itself for the 2-dimensional one."""
    if chi.is_linear():
        return [((value_on_element(W, chi, g),),) for g in range(W.order())]
    if W.spec == "b2" and chi.name == "chi":
        return list(W.matrices)
    raise ValueError(f"no matrix realization available for {chi.name}")


@dataclass(eq=False)
class BabyVermaModule:
    group: ReflectionGroup
    character: Character
    basis: tuple               # of (coinvariant monomial, chi-space index)
    coin: CoinvariantBasis
    chi_mats: list
    # the generator actions, built once: each V*-side coordinate, each
    # group element, each V-side coordinate
    dual_mats: list = field(init=False)
    group_mats: list = field(init=False)
    v_mats: list = field(init=False)

    def __post_init__(self):
        W = self.group
        self.dual_mats = [self._matrix_dual(xi) for xi in range(W.dim)]
        self.group_mats = [self._matrix_group(g) for g in range(W.order())]
        self.v_mats = [self._matrix_v(vj) for vj in range(W.dim)]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def basis_index(self, mono, j) -> int:
        return self.basis.index((mono, j))

    # -- generator actions ----------------------------------------------

    def _matrix_dual(self, xi: int):
        """Action of the xi-th V*-side coordinate: multiply, then reduce."""
        mat = _zero_matrix(self.dim)
        for col, (mono, j) in enumerate(self.basis):
            newmono = tuple(e + (1 if i == xi else 0) for i, e in enumerate(mono))
            for m, c in self.coin.reduce(newmono).items():
                mat[self.basis_index(m, j)][col] = MPoly.const(c)
        return mat

    def _matrix_group(self, g: int):
        mat = _zero_matrix(self.dim)
        rep = self.chi_mats[g]
        W = self.group
        for col, (mono, j) in enumerate(self.basis):
            scalar, image = W.act_monomial(g, mono, dual=True)
            for m, c in self.coin.reduce(image).items():
                for jp in range(len(rep)):
                    v = rep[jp][j]
                    if v != 0:
                        row = self.basis_index(m, jp)
                        mat[row][col] = mat[row][col] + MPoly.const(
                            canon_scalar(scalar * c * v))
        return mat

    def _matrix_v(self, vj: int):
        """Action of the vj-th V coordinate: v * mono = mono * v + the
        corrections of `_straighten`, and mono * v kills the generator line."""
        W = self.group
        mat = _zero_matrix(self.dim)
        for col, (mono, j) in enumerate(self.basis):
            for coeff, m, g in _straighten(W, "v", vj, mono, False):
                rep = self.chi_mats[g]
                for mm, c in self.coin.reduce(m).items():
                    for jp in range(len(rep)):
                        v = rep[jp][j]
                        if v != 0:
                            row = self.basis_index(mm, jp)
                            mat[row][col] = mat[row][col] + coeff * canon_scalar(c * v)
        return mat

    def act(self, z: PBWElement):
        """The action matrix of a PBW element of the t = 0 algebra."""
        if z.group is not self.group:
            raise ValueError("element belongs to another group")
        if z.with_T:
            raise ValueError("baby Verma modules represent the t = 0 algebra"
                             " in C-coordinates")
        W = self.group
        total = _zero_matrix(self.dim)
        for (p, g, q), c in z.terms.items():
            mat = _identity_matrix(self.dim)
            for xi in range(W.dim):
                for _ in range(q[xi]):
                    mat = _mat_mul(self.dual_mats[xi], mat)
            if g != W.identity:
                mat = _mat_mul(self.group_mats[g], mat)
            for vj in range(W.dim):
                for _ in range(p[vj]):
                    mat = _mat_mul(self.v_mats[vj], mat)
            for r in range(self.dim):
                for s_ in range(self.dim):
                    if not mat[r][s_].is_zero():
                        total[r][s_] = total[r][s_] + c * mat[r][s_]
        return total


def _zero_matrix(n):
    return [[MPoly.zero() for _ in range(n)] for _ in range(n)]


def _identity_matrix(n):
    return [[MPoly.const(1) if i == j else MPoly.zero() for j in range(n)]
            for i in range(n)]


def _mat_mul(a, b):
    n = len(a)
    out = _zero_matrix(n)
    for i in range(n):
        ai = a[i]
        for k in range(n):
            c = ai[k]
            if c.is_zero():
                continue
            bk = b[k]
            row = out[i]
            for j in range(n):
                if not bk[j].is_zero():
                    row[j] = row[j] + c * bk[j]
    return out


@functools.lru_cache(maxsize=None)
def build_baby_verma(W: ReflectionGroup, chi: Character) -> BabyVermaModule:
    """Build the baby Verma module attached to an irreducible character."""
    coin = coinvariant_basis(W)
    mats = _chi_matrices(W, chi)
    dim_chi = len(mats[0])
    basis = tuple((m, j) for m in coin.monomials for j in range(dim_chi))
    if len(basis) != W.order() * dim_chi:
        raise ArithmeticError(f"baby Verma module of {chi.name} has dimension"
                              f" {len(basis)}, expected {W.order() * dim_chi}")
    return BabyVermaModule(W, chi, basis, coin, mats)


# ---------------------------------------------------------------------------
# central characters
# ---------------------------------------------------------------------------


def omega(z: PBWElement, chi: Character, check_nilpotent: bool = True) -> MPoly:
    """Omega_chi(z) = trace(z acting on the baby Verma module) / dim, for z
    in the t = 0 algebra.

    When requested, certifies that z - Omega_chi(z) acts nilpotently."""
    W = z.group
    mod = build_baby_verma(W, chi)
    mat = mod.act(z)
    tr = MPoly.zero()
    for i in range(mod.dim):
        tr = tr + mat[i][i]
    value = tr.divexact(MPoly.const(mod.dim))
    if check_nilpotent:
        n = mod.dim
        nil = [[mat[i][j] - (value if i == j else MPoly.zero())
                for j in range(n)] for i in range(n)]
        power = nil
        steps = 1
        while steps < n:
            power = _mat_mul(power, power)
            steps *= 2
        if any(not power[i][j].is_zero() for i in range(n) for j in range(n)):
            raise ArithmeticError("central element failed the nilpotency check")
    return value


def omega_euler_closed_form(W: ReflectionGroup, chi: Character) -> MPoly:
    """(1/chi(1)) sum over reflections of eps(s) chi(s) C_s."""
    acc = MPoly.zero()
    for refl in W.reflections:
        weight = canon_scalar(refl.det * value_on_element(W, chi, refl.index))
        if weight != 0:
            acc = acc + MPoly.var(refl.param) * weight
    return acc.divexact(MPoly.const(chi.degree))


@functools.lru_cache(maxsize=None)
def omega_table(W: ReflectionGroup) -> dict:
    """Symbolic central characters of the named center generators:
    {character name: {generator name: MPoly}}."""
    from .cherednik import named_center_generators

    gens = named_center_generators(W)
    table = {}
    for chi in character_table(W):
        row = {}
        for name, z in gens.items():
            row[name] = omega(z, chi, check_nilpotent=False)
        table[chi.name] = row
    return table


if __name__ == "__main__":
    import doctest

    doctest.testmod()
