"""Representation-independent canonical forms of program outputs.

Golden outputs are stored in these forms, so a change of internal
representation (packed exponents, a new scalar type, a new term order)
does not read as a wrong answer.  Polynomials are reduced through the public
`vars`, `degree_in`, `coefficient` and `constant_value` API to terms keyed by
variable name and exponent; scalars become exact rational strings.  Values
that are not rational are replaced by a marker, because their printed form
depends on the field representation.
"""
from __future__ import annotations

from fractions import Fraction

IRRATIONAL = "<irrational>"


def scalar(c) -> str:
    """Exact rational string of a scalar, or the irrational marker."""
    if isinstance(c, (int, Fraction)):
        return str(Fraction(c))
    try:
        return str(Fraction(str(c)))
    except (ValueError, ZeroDivisionError):
        return IRRATIONAL


def poly(p) -> list:
    """Sorted [[[name, exponent], ...], coefficient] terms of an MPoly."""
    names = sorted(v for v in p.vars if p.degree_in(v) > 0)
    terms = []

    def walk(q, i, mono):
        if q.is_zero():
            return
        if i == len(names):
            terms.append([mono, scalar(q.constant_value())])
            return
        name = names[i]
        for k in range(q.degree_in(name) + 1):
            walk(q.coefficient(name, k), i + 1,
                 mono + [[name, k]] if k else mono)

    walk(p, 0, [])
    return sorted(terms)


def blocks(bs) -> list:
    """A partition as sorted sorted blocks."""
    return sorted(sorted(b) for b in bs)


def partition_output(data: dict) -> dict:
    """Canonical form of the `families` / `cells` JSON output."""
    out = {
        "parameters": {k: scalar(v) for k, v in data["parameters"].items()},
        "families": blocks(data["families"]),
        "two_sided": blocks(data["cells"]["two_sided"]),
        "left": blocks(data["cells"]["left"]),
        "cellular": sorted([sorted(cc["cell"]),
                            sorted([k, v] for k, v in cc["character"].items())]
                           for cc in data["cellular_characters"]),
    }
    if "sum_rules" in data:
        out["sum_rules"] = dict(sorted(data["sum_rules"].items()))
    if "note" in data:
        out["supported"] = False
    return out


def geometry_output(data: dict) -> dict:
    """Canonical form of the `geometry rank1` JSON output."""
    sing, ram = data["singular"], data["ramified"]
    return {"singular": sing["singular"],
            "gradient": [scalar(g) for g in sing["gradient"]],
            "ramified": ram["ramified"],
            "derivative": scalar(ram["derivative"])}


def query_output(argv: list, data: dict) -> dict:
    if argv[0] == "geometry":
        return geometry_output(data)
    return partition_output(data)
