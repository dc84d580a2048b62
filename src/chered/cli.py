"""Command-line interface.

Subcommands cover the verification and computation entry points:

  chered group <spec> info
  chered verify center --group <spec>
  chered verify relations --group b2
  chered verify minpoly --group <spec>
  chered families --group <spec> --params <file|inline> [--json]
  chered cells --group <spec> --params <file|inline> [--json]
  chered fake-degrees --group <spec>
  chered hilbert --group <spec> [--order N] [--check]
  chered omega-table --group <spec>
  chered galois b2-certificate
  chered geometry rank1 --d <d> --point k1,...,kd,x,y,e
  chered poisson --group b2 --lhs <name> --rhs <name>

``build_parser`` declares each subcommand in one ``_command`` call: its
arguments, ``--json`` and its handler.  Each ``cmd_*`` handler computes and
prints nothing: it returns its result and whether every requested check
passed, as ``(data, ok)``, or raises ``UsageError``.  ``main`` alone prints,
as text or with ``--json``, and owns the exit codes: 0 all requested checks
pass, 1 a check failed or the library raised ValueError or ArithmeticError
(its message on stderr, nothing on stdout), 2 usage error.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .exactnum import canon_scalar
from .reflgrp import (build_group, character_table, check_param_labels,
                      fake_degree, b_invariant, param_convert)
from .cherednik import named_center_generators, poisson_bracket, z_degree
from .verma import omega_table
from .cmcells import (b2_cells, cm_families, partition_to_json, rank1_cells,
                      sum_rule_check)
from .series import (DEFAULT_ORDER, fantome_bigraded, hilbert_center,
                     molien_bigraded, series_table)
from .center import (euler_charpoly_congruence, minpoly_euler,
                     verify_b2_centrality, verify_b2_relations,
                     verify_rank1_center)
from .galois import b2_galois_certificate, rank1_point_analysis

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


class UsageError(Exception):
    """A command line that names no valid request; `main` exits 2."""


def _emit(data, as_json: bool):
    if as_json:
        print(json.dumps(data, sort_keys=True, indent=2, default=str))
    else:
        _emit_text(data)


def _emit_text(data, indent=0):
    pad = "  " * indent
    if isinstance(data, dict):
        for k in data:
            v = data[k]
            if isinstance(v, (dict, list)):
                print(f"{pad}{k}:")
                _emit_text(v, indent + 1)
            else:
                print(f"{pad}{k}: {v}")
    elif isinstance(data, list):
        for v in data:
            if isinstance(v, list):
                print(f"{pad}- [{', '.join(str(x) for x in v)}]")
            elif isinstance(v, dict):
                _emit_text(v, indent)
                print()
            else:
                print(f"{pad}- {v}")
    else:
        print(f"{pad}{data}")


def _parse_params(W, text: str) -> dict:
    """Inline "a=1,b=1", "C1=2", "K=0,1,-1", or a flat key=value file; the
    point is returned in C-coordinates.  An empty entry between named ones
    is skipped, and one inside the K-list refused."""
    if os.path.isfile(text):
        pairs = []
        with open(text) as fh:
            for line in fh:
                line = line.strip()
                if line and not line.startswith("#"):
                    pairs.append(line)
        text = ",".join(pairs)
    entries = [e.strip() for e in text.split(",")]
    values: dict = {}
    basis = None

    def put(name, val):
        if name in values:
            raise UsageError(f"parameter {name!r} is given more than once")
        values[name] = _rational(val)

    i = 0
    while i < len(entries):
        if not entries[i]:
            i += 1
            continue
        if "=" not in entries[i]:
            raise UsageError(f"malformed parameter entry {entries[i]!r}")
        key, val = entries[i].split("=", 1)
        key = key.strip()
        if key == "K":
            # comma list: the remaining entries are the tail of the list
            vals = [val.strip()] + entries[i + 1:]
            if not all(vals):
                raise UsageError("empty entry in the K-values:"
                                 f" K={','.join(vals)}")
            labels = W.k_param_names()
            if len(vals) != len(labels):
                raise UsageError(
                    f"expected {len(labels)} K-values, got {len(vals)}")
            for lab, v in zip(labels, vals):
                put(lab, v)
            basis = _merge_basis(basis, "K")
            break
        alias = {"a": "A", "b": "B"}.get(key, key)
        if alias in W.param_names:
            put(alias, val)
            basis = _merge_basis(basis, "C")
        elif alias in W.k_param_names():
            put(alias, val)
            basis = _merge_basis(basis, "K")
        else:
            raise UsageError(f"unknown parameter {key!r} for {W.spec}")
        i += 1
    if basis is None:
        raise UsageError("no parameters given")
    try:
        if basis == "K":
            return param_convert(W, values, "C")
        check_param_labels(W, values, "C")
    except ValueError as exc:
        raise UsageError(str(exc))
    return values


def _rational(text: str):
    """The rational number a command line gives, as an int when integral."""
    try:
        return canon_scalar(Fraction(text))
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"not a rational number: {text!r}")


def _group(spec: str):
    try:
        return build_group(spec)
    except ValueError as exc:
        raise UsageError(str(exc))


def _merge_basis(basis, new):
    if basis is not None and basis != new:
        raise UsageError("cannot mix C- and K-coordinates")
    return new


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def cmd_group_info(args) -> tuple:
    W = _group(args.spec)
    data = {
        "spec": W.spec,
        "order": W.order(),
        "elements": list(W.names),
        "reflections": [W.names[r.index] for r in W.reflections],
        "hyperplane_orbits": [
            {"label": lab, "order": e} for lab, e in W.hyperplane_orbits],
        "invariant_degrees": list(W.degrees),
        "conjugacy_classes": [[W.names[g] for g in cls]
                              for cls in W.conj_classes],
        "parameters": {"C": list(W.param_names),
                       "K": list(W.k_param_names())},
        "characters": [{"name": chi.name, "degree": chi.degree}
                       for chi in character_table(W)],
    }
    return data, True


def cmd_verify_center(args) -> tuple:
    W = _group(args.group)
    if W.spec == "b2":
        reports = verify_b2_centrality()
    else:
        try:
            reports = [verify_rank1_center(W.order())]
        except ValueError as exc:   # the order is outside the supported range
            raise UsageError(str(exc))
    return reports, all(r["status"] for r in reports)


def cmd_verify_relations(args) -> tuple:
    if args.group != "b2":
        raise UsageError("relations are only defined for --group b2")
    reports = verify_b2_relations()
    return reports, all(r["status"] for r in reports)


def cmd_verify_minpoly(args) -> tuple:
    W = _group(args.group)
    poly = minpoly_euler(W)
    congruent = euler_charpoly_congruence(W)
    data = {"minimal_polynomial": str(poly),
            "block_congruence": congruent}
    return data, congruent


def cmd_families(args) -> tuple:
    W = _group(args.group)
    fp = cm_families(W, _parse_params(W, args.params))
    return partition_to_json(fp, None), True


def _cells_for(W, cvals):
    if W.spec == "b2":
        return b2_cells(cvals["A"], cvals["B"])
    kvals = list(param_convert(W, cvals, "K").values())
    if not all(isinstance(v, (int, Fraction)) for v in kvals):
        raise UsageError(
            "cyclic cells need rational K-coordinates; the given point"
            " converts to irrational values")
    return rank1_cells(W.order(), kvals)


def cmd_cells(args) -> tuple:
    W = _group(args.group)
    cvals = _parse_params(W, args.params)
    cells = _cells_for(W, cvals)
    fp = cm_families(W, cvals)
    data = partition_to_json(fp, cells)
    report = sum_rule_check(W, cells)
    data["sum_rules"] = report
    same_families = (sorted(sorted(b) for b in fp.blocks)
                     == sorted(sorted(f) for f in cells.families))
    return data, not cells.supported or (report["all"] and same_families)


def cmd_fake_degrees(args) -> tuple:
    W = _group(args.group)
    ok = True
    rows = []
    for chi in character_table(W):
        f = fake_degree(W, chi)
        at_one = f.substitute({"t": 1}).constant_value()
        ok = ok and at_one == chi.degree
        rows.append({"character": chi.name, "fake_degree": str(f),
                     "b_invariant": b_invariant(W, chi),
                     "value_at_1": int(at_one)})
    return rows, ok


def cmd_hilbert(args) -> tuple:
    W = _group(args.group)
    order = args.order
    if order < 1:
        raise UsageError(f"--order must be >= 1, got {order}")
    molien = molien_bigraded(W, order)
    data = {"order": order,
            "invariants_bigraded": series_table(molien)}
    ok = True
    if args.check:
        fantome = fantome_bigraded(W, order)
        hc = hilbert_center(W, order)
        data["molien_equals_fake_degree_series"] = molien.coeffs == fantome.coeffs
        data["center_matches_basis"] = hc["match"]
        data["center_basis_bidegrees"] = [list(b)
                                          for b in hc["basis_bidegrees"]]
        ok = data["molien_equals_fake_degree_series"] and hc["match"]
    return data, ok


def cmd_omega_table(args) -> tuple:
    W = _group(args.group)
    table = omega_table(W)
    data = {chi: {gen: str(v) for gen, v in row.items()}
            for chi, row in table.items()}
    return data, True


def cmd_galois(args) -> tuple:
    if args.what != "b2-certificate":
        raise UsageError("supported: galois b2-certificate")
    report = b2_galois_certificate()
    return report, report["pass"]


def cmd_geometry_rank1(args) -> tuple:
    if args.d < 2:
        raise UsageError(f"--d must be >= 2, got {args.d}")
    parts = [p.strip() for p in args.point.split(",")]
    if not all(parts):
        raise UsageError(f"empty entry in --point {args.point}")
    if len(parts) != args.d + 3:
        raise UsageError(
            f"--point needs {args.d} K-values followed by x,y,e")
    ks = [_rational(p) for p in parts[:args.d]]
    x, y, e = (_rational(p) for p in parts[args.d:])
    try:
        return rank1_point_analysis(args.d, ks, x, y, e), True
    except ValueError as exc:
        raise UsageError(str(exc))


def cmd_poisson(args) -> tuple:
    W = _group(args.group)
    gens = named_center_generators(W)
    for side, name in (("--lhs", args.lhs), ("--rhs", args.rhs)):
        if name not in gens:
            raise UsageError(
                f"{side} must be one of {sorted(gens)}")
    bracket = poisson_bracket(gens[args.lhs], gens[args.rhs])
    data = {"lhs": args.lhs, "rhs": args.rhs, "bracket": str(bracket)}
    if args.lhs == "eu":
        expected = z_degree(gens[args.rhs])
        data["rhs_z_degree"] = expected
        data["euler_eigenvector"] = (
            bracket == gens[args.rhs].scale(expected))
    return data, data.get("euler_eigenvector", True)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


_GROUP = (("--group",), {"required": True})


def _command(sub, name, handler, help, *arguments):
    """Declare subcommand `name` under `sub`: its parser, then each
    (flags, options) pair of `arguments` in order, then --json; `handler`
    runs it."""
    p = sub.add_parser(name, help=help)
    for flags, options in arguments:
        p.add_argument(*flags, **options)
    p.add_argument("--json", action="store_true",
                   help="emit machine-readable JSON")
    p.set_defaults(func=handler)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chered",
        description="Exact workbench for rational Cherednik algebras at t=0"
                    " (cyclic groups and B2).")
    sub = parser.add_subparsers(dest="command", required=True)
    _command(sub, "group", cmd_group_info, "group data",
             (("spec",), {"help": 'group spec, e.g. "cyclic:4" or "b2"'}),
             (("action",), {"choices": ["info"]}))
    vsub = sub.add_parser("verify", help="verification suites"
                          ).add_subparsers(dest="what", required=True)
    _command(vsub, "center", cmd_verify_center,
             "centrality / center identity", _GROUP)
    _command(vsub, "relations", cmd_verify_relations,
             "the nine B2 center relations", _GROUP)
    _command(vsub, "minpoly", cmd_verify_minpoly, "Euler minimal polynomial",
             _GROUP)
    params = (("--params",), {"required": True})
    _command(sub, "families", cmd_families, "Calogero-Moser families",
             _GROUP, params)
    _command(sub, "cells", cmd_cells, "cells and cellular characters",
             _GROUP, params)
    _command(sub, "fake-degrees", cmd_fake_degrees,
             "fake degrees and b-invariants", _GROUP)
    _command(sub, "hilbert", cmd_hilbert, "bigraded Hilbert series", _GROUP,
             (("--order",), {"type": int, "default": DEFAULT_ORDER}),
             (("--check",), {"action": "store_true",
                             "help": "cross-check all series computations"}))
    _command(sub, "omega-table", cmd_omega_table, "central characters table",
             _GROUP)
    _command(sub, "galois", cmd_galois, "Galois certificates",
             (("what",), {"help": "b2-certificate"}))
    gsub = sub.add_parser("geometry", help="rank-1 geometry tests"
                          ).add_subparsers(dest="what", required=True)
    _command(gsub, "rank1", cmd_geometry_rank1,
             "singular locus and ramification",
             (("--d",), {"type": int, "required": True}),
             (("--point",), {"required": True,
                             "help": "comma list: k_0..k_{d-1},x,y,e"}))
    _command(sub, "poisson", cmd_poisson, "Poisson bracket of center elements",
             _GROUP, (("--lhs",), {"required": True}),
             (("--rhs",), {"required": True}))
    return parser


def main(argv=None) -> int:
    """Run one command line: print its result to stdout, or its error to
    stderr, and return its exit code.  argparse exits 2 by itself on a
    command line it cannot parse."""
    args = build_parser().parse_args(argv)
    try:
        data, ok = args.func(args)
    except (UsageError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, UsageError) else EXIT_FAIL
    _emit(data, args.json)
    return EXIT_PASS if ok else EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
