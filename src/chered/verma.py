"""Baby Verma modules over the generic parameter ring, exact action
matrices, and central characters Omega_chi computed both by the trace oracle
and by the closed formula (1/chi(1)) sum_s eps(s) chi(s) C_s.

The module attached to an irreducible character chi is induced from the
subalgebra generated by V, W and the parameters, on which V acts by zero and
W through chi; it is spanned by (coinvariant V*-side monomial) (x) (chi
space) and has dimension |W| * chi(1).
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .exactnum import Cyclotomic
from .multipoly import MPoly, canon_scalar, scalar_div
from .reflgrp import (Character, ReflectionGroup, build_group, character_table,
                      fake_degree, value_on_element)
from .cherednik import PBWElement, is_central

__all__ = [
    "CoinvariantBasis",
    "BabyVermaModule",
    "build_baby_verma",
    "omega",
    "omega_euler_closed_form",
    "omega_table",
    "graded_character_eM",
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
        # row reduce; pivot monomials are reducible, the rest form the basis
        pivots = {}
        for row in rows:
            for col in range(len(monos)):
                if row[col] != 0:
                    if col in pivots:
                        f = row[col]
                        row[:] = [canon_scalar(a - f * b)
                                  for a, b in zip(row, pivots[col])]
                    else:
                        inv_c = scalar_div(1, row[col])
                        row[:] = [canon_scalar(a * inv_c) for a in row]
                        pivots[col] = row
                        break
        free_cols = [c for c in range(len(monos)) if c not in pivots]
        for c in free_cols:
            basis.append(monos[c])
            cb._reduction[monos[c]] = {monos[c]: 1}
        # back-substitute each pivot row to express its monomial in basis ones
        for col in sorted(pivots, reverse=True):
            row = pivots[col]
            expansion: dict = {}
            for c2 in range(col + 1, len(monos)):
                if row[c2] != 0:
                    if c2 in pivots:
                        sub = cb._reduction[monos[c2]]
                        for m, cc in sub.items():
                            expansion[m] = canon_scalar(
                                expansion.get(m, 0) - row[c2] * cc)
                    else:
                        expansion[monos[c2]] = canon_scalar(
                            expansion.get(monos[c2], 0) - row[c2])
            cb._reduction[monos[col]] = {m: c for m, c in expansion.items() if c != 0}
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


@dataclass
class BabyVermaModule:
    group: ReflectionGroup
    character: Character
    basis: tuple               # of (coinvariant monomial, chi-space index)
    coin: CoinvariantBasis
    chi_mats: list

    @property
    def dim(self) -> int:
        return len(self.basis)

    def basis_index(self, mono, j) -> int:
        return self.basis.index((mono, j))

    # -- generator actions ----------------------------------------------

    @functools.lru_cache(maxsize=None)
    def matrix_dual(self, xi: int):
        """Action of the xi-th V*-side coordinate: multiply, then reduce."""
        mat = _zero_matrix(self.dim)
        for col, (mono, j) in enumerate(self.basis):
            newmono = tuple(e + (1 if i == xi else 0) for i, e in enumerate(mono))
            for m, c in self.coin.reduce(newmono).items():
                mat[self.basis_index(m, j)][col] = MPoly.const(c)
        return mat

    @functools.lru_cache(maxsize=None)
    def matrix_group(self, g: int):
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

    @functools.lru_cache(maxsize=None)
    def matrix_v(self, vj: int):
        """Action of the vj-th V coordinate, by commuting it through the
        V*-side monomial; it kills the generator line."""
        W = self.group
        mat = _zero_matrix(self.dim)
        for col, (mono, j) in enumerate(self.basis):
            for coeff, m, g in _v_through_mono(W, vj, mono):
                rep = self.chi_mats[g]
                for mm, c in self.coin.reduce(m).items():
                    for jp in range(len(rep)):
                        v = rep[jp][j]
                        if v != 0:
                            row = self.basis_index(mm, jp)
                            mat[row][col] = mat[row][col] + coeff * canon_scalar(c * v)
        return mat

    def act(self, z: PBWElement):
        """The action matrix of a PBW element."""
        if z.group is not self.group:
            raise ValueError("element belongs to another group")
        W = self.group
        total = _zero_matrix(self.dim)
        for (p, g, q), c in z.terms.items():
            mat = _identity_matrix(self.dim)
            for xi in range(W.dim):
                for _ in range(q[xi]):
                    mat = _mat_mul(self.matrix_dual(xi), mat)
            if g != W.identity:
                mat = _mat_mul(self.matrix_group(g), mat)
            for vj in range(W.dim):
                for _ in range(p[vj]):
                    mat = _mat_mul(self.matrix_v(vj), mat)
            for r in range(self.dim):
                for s_ in range(self.dim):
                    if not mat[r][s_].is_zero():
                        total[r][s_] = total[r][s_] + c * mat[r][s_]
        return total

    def __hash__(self):
        return id(self)

    def __eq__(self, other):
        return self is other


@functools.lru_cache(maxsize=None)
def _v_through_mono(W: ReflectionGroup, vj: int, mono: tuple):
    """v * mono rewritten as sum of coeff * mono' * g with g in W; the
    residual term mono * v acts by zero on the generator line and is dropped.

    Recursion: v (xi rest) = xi (v rest) + [v, xi] rest, with
    [v, xi] = sum_s C_s <s(v) - v, xi> s   and   s rest = s(rest) s.
    """
    if not any(mono):
        return ()
    xi = next(i for i, e in enumerate(mono) if e)
    rest = tuple(e - (1 if i == xi else 0) for i, e in enumerate(mono))
    out: dict = {}

    def add(key, c):
        prev = out.get(key)
        out[key] = c if prev is None else prev + c

    for refl in W.reflections:
        pair = canon_scalar(W.matrices[refl.index][xi][vj] - (1 if xi == vj else 0))
        if pair == 0:
            continue
        scalar, image = W.act_monomial(refl.index, rest, dual=True)
        add((image, refl.index), MPoly.var(refl.param) * canon_scalar(pair * scalar))
    for coeff, m, g in _v_through_mono(W, vj, rest):
        lifted = tuple(e + (1 if i == xi else 0) for i, e in enumerate(m))
        add((lifted, g), coeff)
    return tuple((c, m, g) for (m, g), c in out.items() if not c.is_zero())


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
    mod = BabyVermaModule(W, chi, basis, coin, mats)
    if mod.dim != W.order() * dim_chi:
        raise ArithmeticError(f"baby Verma module of {chi.name} has dimension"
                              f" {mod.dim}, expected {W.order() * dim_chi}")
    return mod


# ---------------------------------------------------------------------------
# central characters
# ---------------------------------------------------------------------------


def omega(z: PBWElement, chi: Character, check_nilpotent: bool = True,
          check_central: bool = False) -> MPoly:
    """Omega_chi(z) = trace(z acting on the baby Verma module) / dim.

    When requested, certifies that z - Omega_chi(z) acts nilpotently."""
    W = z.group
    if check_central and not is_central(z):
        raise ValueError("omega requires a central element")
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


def graded_character_eM(W: ReflectionGroup, chi: Character) -> MPoly:
    """Graded dimension of the W-invariant part of the baby Verma module;
    equals the fake degree f_chi(t)."""
    mod = build_baby_verma(W, chi)
    n = mod.dim
    # averaged projector onto invariants, then trace per degree
    proj = _zero_matrix(n)
    for g in range(W.order()):
        mg = mod.matrix_group(g)
        for i in range(n):
            for j in range(n):
                if not mg[i][j].is_zero():
                    proj[i][j] = proj[i][j] + mg[i][j]
    t = MPoly.var("t")
    poly = MPoly.zero()
    for i, (mono, j) in enumerate(mod.basis):
        if not proj[i][i].is_zero():
            poly = poly + proj[i][i].divexact(MPoly.const(W.order())) * t ** sum(mono)
    return poly


if __name__ == "__main__":
    import doctest

    doctest.testmod()
