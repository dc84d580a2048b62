"""Calogero-Moser families, cells, and cellular characters.

Families are computed exactly: two irreducible characters lie in the same
family if and only if their central characters agree on a generating set of
the center.  `cm_families` compares every named generator of `omega_table`
({eu, X, Y} for cyclic groups; {eu, eu', eu'', delta, sigma, pi, Sigma, Pi}
for B2).  The invariants X, Y, sigma, pi, Sigma, Pi never split a family:
positive-degree invariants act by zero on every baby Verma module, so their
Omega is 0 for every chi (`test_omega_table_cyclic_invariants_act_by_zero`,
`test_omega_table_b2`).  Cells for cyclic groups are the fibers of
i -> K_i; cells for B2 follow the explicit case analysis over the strata of
the (a, b) parameter plane.

The cellular character of a left cell, sum m_chi chi, is the dict
{character name: m_chi}; its insertion order is the order of the text
output.

A parameter point is a dict {C-label: value}, the form in which
`cm_families` reads it; `reflgrp.param_convert` gives the K-values that
`rank1_cells` takes.
"""
from __future__ import annotations

from .exactnum import canon_scalar, check_rational
from .reflgrp import (ReflectionGroup, _Record, build_group,
                      character_table, check_param_labels)
from .verma import omega_table

__all__ = [
    "FamilyPartition",
    "CellPartition",
    "cm_families",
    "rank1_cells",
    "b2_cells",
    "sum_rule_check",
    "tensor_with_linear",
    "partition_to_json",
]


# ---------------------------------------------------------------------------
# result types
# ---------------------------------------------------------------------------


class FamilyPartition(_Record):
    parameters: tuple            # of (C-label, value) pairs, sorted
    blocks: tuple                # of tuples of character names

    __slots__ = ("parameters", "blocks")


class CellPartition(_Record):
    two_sided: tuple             # of tuples of element names
    left: tuple                  # of tuples of element names
    families: tuple              # per two-sided cell, tuple of char names
    cellular: tuple              # per left cell, {character name: mult}
    supported: bool              # False where no cells are described
    note: str                    # why not, when unsupported; else ""

    __slots__ = ("two_sided", "left", "families", "cellular", "supported",
                 "note")


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------


def cm_families(W: ReflectionGroup, cvals: dict) -> FamilyPartition:
    """Partition Irr(W) by equality of the central characters Omega_chi on
    every named generator of the center in `omega_table`, evaluated at the
    parameter point cvals = {C-label: value}, which has every C-label of W
    and no other key.  The Omega of an embedded invariant (X, Y; sigma, pi,
    Sigma, Pi) is 0 for every chi, so it never splits a family and the
    partition is the one of {eu} (cyclic) or {eu, eu', eu'', delta} (B2).

    >>> fp = cm_families(build_group("b2"), {"A": 1, "B": 1})
    >>> sorted(sorted(b) for b in fp.blocks)
    [['1'], ['chi', 'eps_s', 'eps_t'], ['eps']]
    """
    check_param_labels(W, cvals, "C")
    table = omega_table(W)
    gen_names = sorted(table[next(iter(table))])
    blocks: dict[tuple, list[str]] = {}
    for chi in character_table(W):
        sig = tuple((g, table[chi.name][g].substitute(cvals).constant_value())
                    for g in gen_names)
        blocks.setdefault(sig, []).append(chi.name)
    return FamilyPartition(tuple(sorted(cvals.items())),
                           tuple(tuple(b) for b in blocks.values()))


def tensor_with_linear(W: ReflectionGroup, chi_name: str, gamma_name: str) -> str:
    """Name of chi tensored with a linear character."""
    chars = character_table(W)
    by_name = {c.name: c for c in chars}
    chi, gamma = by_name[chi_name], by_name[gamma_name]
    if gamma.degree != 1:
        raise ValueError("second factor must be linear")
    values = tuple(canon_scalar(a * b) for a, b in zip(chi.values, gamma.values))
    for c in chars:
        if c.values == values:
            return c.name
    raise ArithmeticError("tensor product left the character table")


# ---------------------------------------------------------------------------
# cells
# ---------------------------------------------------------------------------


def rank1_cells(d: int, k_values) -> CellPartition:
    """Cells of the cyclic group of order d at K = (k_0, ..., k_{d-1}).

    Left, right and two-sided cells coincide: s^i and s^j lie in the same
    cell iff k_i = k_j.  The family of a cell omega is {eps^{-i} : i in
    omega} and its cellular character is sum_{i in omega} eps^{-i}.
    """
    W = build_group(f"cyclic:{d}")
    chars = character_table(W)
    ks = list(k_values)
    check_rational(ks)
    if len(ks) != d:
        raise ValueError(f"expected {d} K-values")
    if sum(ks) != 0:
        raise ValueError("K-values must sum to zero")
    fibers: dict = {}
    for i, k in enumerate(ks):
        fibers.setdefault(k, []).append(i)
    cells = sorted(fibers.values())
    names = W.names
    two_sided = tuple(tuple(names[i] for i in cell) for cell in cells)
    families = tuple(tuple(sorted(chars[(-i) % d].name for i in cell))
                     for cell in cells)
    cellular = tuple(dict.fromkeys(family, 1) for family in families)
    return CellPartition(two_sided, two_sided, families, cellular, True, "")


def b2_cells(a, b) -> CellPartition:
    """Cells and cellular characters of B2 at (a, b) = (C_s, C_t), by the
    explicit case analysis over the parameter strata.

    On the strata a=0 xor b=0 no cell description is implemented; the
    partition is returned with supported=False and only the families filled
    in.  The element-labeling of cells on the other strata depends on a
    normalization choice and is only canonical up to relabeling; the tables
    used here fix one such choice.
    """
    check_rational((a, b))
    if a == 0 and b == 0:
        whole = ("1", "s", "t", "st", "ts", "sts", "tst", "w0")
        regular = {"1": 1, "eps": 1, "eps_s": 1, "eps_t": 1, "chi": 2}
        return CellPartition((whole,), (whole,),
                             (("1", "chi", "eps", "eps_s", "eps_t"),),
                             (regular,), True, "")
    if a != 0 and b != 0 and a * a != b * b:
        two_sided = (("1",), ("s",), ("tst",), ("w0",),
                     ("t", "st", "ts", "sts"))
        families = (("1",), ("eps_s",), ("eps_t",), ("eps",), ("chi",))
        left = (("1",), ("s",), ("tst",), ("w0",),
                ("t", "st"), ("ts", "sts"))
        cellular = ({"1": 1}, {"eps_s": 1}, {"eps_t": 1}, {"eps": 1},
                    {"chi": 1}, {"chi": 1})
        return CellPartition(two_sided, left, families, cellular, True, "")
    if a != 0 and a == b:
        two_sided = (("1",), ("w0",), ("s", "t", "st", "ts", "sts", "tst"))
        families = (("1",), ("eps",), ("chi", "eps_s", "eps_t"))
        left = (("1",), ("w0",), ("s", "ts", "sts"), ("t", "st", "tst"))
        cellular = ({"1": 1}, {"eps": 1}, {"chi": 1, "eps_s": 1},
                    {"chi": 1, "eps_t": 1})
        return CellPartition(two_sided, left, families, cellular, True, "")
    if a != 0 and a == -b:
        # obtained from the a = b stratum by tensoring with eps_t
        base = b2_cells(a, a)
        W = build_group("b2")
        families = tuple(tuple(sorted(tensor_with_linear(W, n, "eps_t")
                                      for n in fam))
                         for fam in base.families)
        cellular = tuple(
            dict(sorted((tensor_with_linear(W, n, "eps_t"), m)
                        for n, m in cc.items()))
            for cc in base.cellular)
        return CellPartition(base.two_sided, base.left, families, cellular,
                             True, "")
    # a = 0 xor b = 0
    if a == 0:
        families = (("1", "eps_s"), ("eps", "eps_t"), ("chi",))
    else:
        families = (("1", "eps_t"), ("eps", "eps_s"), ("chi",))
    return CellPartition(
        (), (), families, (), supported=False,
        note="unsupported: no cell description is implemented on this stratum")


# ---------------------------------------------------------------------------
# sum rules
# ---------------------------------------------------------------------------


def sum_rule_check(W: ReflectionGroup, cells: CellPartition) -> dict:
    """Verify the three numerical sum rules:
      (i)  |Gamma| = sum over its family of chi(1)^2, per two-sided cell;
      (ii) sum_chi mult * chi(1) = |C|, per left cell;
      (iii) sum over left cells of mult_{C,chi} = chi(1), per character.
    Returns the four keys "two_sided_squares", "left_dimensions" and
    "multiplicity_columns", one bool per rule, and "all", their conjunction;
    each is None when the cells are not supported.
    """
    if not cells.supported:
        return {"two_sided_squares": None, "left_dimensions": None,
                "multiplicity_columns": None, "all": None}
    degs = {chi.name: chi.degree for chi in character_table(W)}
    ok1 = all(len(cell) == sum(degs[n] ** 2 for n in fam)
              for cell, fam in zip(cells.two_sided, cells.families))
    ok2 = all(len(cell) == sum(m * degs[name] for name, m in cc.items())
              for cell, cc in zip(cells.left, cells.cellular))
    totals = {name: 0 for name in degs}
    for cc in cells.cellular:
        for name, m in cc.items():
            totals[name] += m
    ok3 = all(total == degs[name] for name, total in totals.items())
    return {"two_sided_squares": ok1, "left_dimensions": ok2,
            "multiplicity_columns": ok3, "all": ok1 and ok2 and ok3}


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def partition_to_json(families: FamilyPartition, cells: CellPartition | None) -> dict:
    out = {
        "parameters": {k: str(v) for k, v in families.parameters},
        "families": [sorted(b) for b in families.blocks],
        "cells": {"two_sided": [], "left": []},
        "cellular_characters": [],
    }
    if cells is not None:
        out["cells"] = {
            "two_sided": [list(c) for c in cells.two_sided],
            "left": [list(c) for c in cells.left],
        }
        out["cellular_characters"] = [
            {"cell": list(cell), "character": dict(cc)}
            for cell, cc in zip(cells.left, cells.cellular)
        ]
        if not cells.supported:
            out["note"] = cells.note
    return out
