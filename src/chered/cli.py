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

Exit codes: 0 all requested checks pass, 1 a check failed, 2 usage error.
The default truncation order for series comes from the CHERED_ORDER
environment variable (fallback 12).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .reflgrp import (ParamVector, build_group, character_table, fake_degree,
                      b_invariant, param_convert)
from .exactnum import parse_rational
from .multipoly import MPoly, canon_scalar
from .cherednik import named_center_generators, poisson_bracket, z_degree
from .verma import omega_table
from .cmcells import (b2_cells, cm_families, partition_to_json, rank1_cells,
                      sum_rule_check)
from .series import (default_order, fantome_bigraded, hilbert_center,
                     molien_bigraded, series_table)
from .center import (euler_charpoly_congruence, minpoly_euler,
                     verify_b2_center, verify_rank1_center)
from .galois import (b2_galois_certificate, rank1_ramification_test,
                     rank1_singular_test)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


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


def _parse_params(W, text: str) -> ParamVector:
    """Inline "a=1,b=1", "C1=2", "K=0,1,-1", or a flat key=value file."""
    if os.path.isfile(text):
        pairs = []
        with open(text) as fh:
            for line in fh:
                line = line.strip()
                if line and not line.startswith("#"):
                    pairs.append(line)
        text = ",".join(pairs)
    entries = [e.strip() for e in text.split(",") if e.strip()]
    values: dict = {}
    basis = None
    i = 0
    while i < len(entries):
        if "=" not in entries[i]:
            raise SystemExit_usage(f"malformed parameter entry {entries[i]!r}")
        key, val = entries[i].split("=", 1)
        key = key.strip()
        if key == "K":
            # comma list: the remaining entries are the tail of the list
            vals = [val] + entries[i + 1:]
            labels = W.k_param_names()
            if len(vals) != len(labels):
                raise SystemExit_usage(
                    f"expected {len(labels)} K-values, got {len(vals)}")
            for lab, v in zip(labels, vals):
                values[lab] = _rational(v)
            basis = _merge_basis(basis, "K")
            break
        alias = {"a": "A", "b": "B"}.get(key, key)
        if alias in W.param_names():
            values[alias] = _rational(val)
            basis = _merge_basis(basis, "C")
        elif alias in W.k_param_names():
            values[alias] = _rational(val)
            basis = _merge_basis(basis, "K")
        else:
            raise SystemExit_usage(f"unknown parameter {key!r} for {W.spec}")
        i += 1
    if basis is None:
        raise SystemExit_usage("no parameters given")
    try:
        return ParamVector.make(W, basis, values)
    except ValueError as exc:
        raise SystemExit_usage(str(exc))


def _rational(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except (ValueError, ZeroDivisionError):
        raise SystemExit_usage(f"not a rational number: {text!r}")


def _group(spec: str):
    try:
        return build_group(spec)
    except ValueError as exc:
        raise SystemExit_usage(str(exc))


def _merge_basis(basis, new):
    if basis is not None and basis != new:
        raise SystemExit_usage("cannot mix C- and K-coordinates")
    return new


class SystemExit_usage(SystemExit):
    def __init__(self, message: str):
        print(f"error: {message}", file=sys.stderr)
        super().__init__(EXIT_USAGE)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def cmd_group_info(args) -> int:
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
        "parameters": {"C": list(W.param_names()),
                       "K": list(W.k_param_names())},
        "characters": [{"name": chi.name, "degree": chi.degree}
                       for chi in character_table(W)],
    }
    _emit(data, args.json)
    return EXIT_PASS


def cmd_verify_center(args) -> int:
    W = _group(args.group)
    if W.spec == "b2":
        reports = [r for r in verify_b2_center()
                   if r["relation"].startswith("central")]
    else:
        try:
            reports = [verify_rank1_center(W.order())]
        except ValueError as exc:   # the order is outside the supported range
            raise SystemExit_usage(str(exc))
    _emit(reports, args.json)
    return EXIT_PASS if all(r["status"] for r in reports) else EXIT_FAIL


def cmd_verify_relations(args) -> int:
    if args.group != "b2":
        raise SystemExit_usage("relations are only defined for --group b2")
    reports = [r for r in verify_b2_center()
               if not r["relation"].startswith("central")]
    _emit(reports, args.json)
    return EXIT_PASS if all(r["status"] for r in reports) else EXIT_FAIL


def cmd_verify_minpoly(args) -> int:
    W = _group(args.group)
    poly = minpoly_euler(W)
    congruent = euler_charpoly_congruence(W)
    data = {"minimal_polynomial": str(poly),
            "block_congruence": congruent}
    _emit(data, args.json)
    return EXIT_PASS if congruent else EXIT_FAIL


def cmd_families(args) -> int:
    W = _group(args.group)
    params = _parse_params(W, args.params)
    fp = cm_families(W, params)
    data = partition_to_json(fp, None)
    cvals = param_convert(W, params, "C")
    data["parameters"] = {k: str(v) for k, v in cvals.entries}
    _emit(data, args.json)
    return EXIT_PASS


def _cells_for(W, params):
    if W.spec == "b2":
        cvals = dict(param_convert(W, params, "C").entries)
        return b2_cells(cvals["A"], cvals["B"])
    kv = param_convert(W, params, "K")
    kvals = []
    for lab, v in kv.entries:
        v = canon_scalar(v)
        if not isinstance(v, (int, Fraction)):
            raise SystemExit_usage(
                "cyclic cells need rational K-coordinates; the given point"
                " converts to irrational values")
        kvals.append(Fraction(v))
    return rank1_cells(W.order(), kvals)


def cmd_cells(args) -> int:
    W = _group(args.group)
    params = _parse_params(W, args.params)
    cells = _cells_for(W, params)
    fp = cm_families(W, params)
    data = partition_to_json(fp, cells)
    report = sum_rule_check(W, cells)
    data["sum_rules"] = {k: report[k] for k in
                        ("two_sided_squares", "left_dimensions",
                         "multiplicity_columns", "all")}
    _emit(data, args.json)
    if not cells.supported:
        return EXIT_PASS
    return EXIT_PASS if report["all"] else EXIT_FAIL


def cmd_fake_degrees(args) -> int:
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
    _emit(rows, args.json)
    return EXIT_PASS if ok else EXIT_FAIL


def cmd_hilbert(args) -> int:
    W = _group(args.group)
    if args.order is not None and args.order < 1:
        raise SystemExit_usage(f"--order must be >= 1, got {args.order}")
    try:
        order = args.order if args.order is not None else default_order()
    except ValueError as exc:
        raise SystemExit_usage(str(exc))
    molien = molien_bigraded(W, order)
    data = {"order": order,
            "invariants_bigraded": series_table(molien)}
    status = EXIT_PASS
    if args.check:
        fantome = fantome_bigraded(W, order)
        hc = hilbert_center(W, order)
        data["molien_equals_fake_degree_series"] = molien.coeffs == fantome.coeffs
        data["center_matches_basis"] = hc["match"]
        data["center_basis_bidegrees"] = [list(b)
                                          for b in hc["basis_bidegrees"]]
        if not (data["molien_equals_fake_degree_series"] and hc["match"]):
            status = EXIT_FAIL
    _emit(data, args.json)
    return status


def cmd_omega_table(args) -> int:
    W = _group(args.group)
    table = omega_table(W)
    data = {chi: {gen: str(v) for gen, v in row.items()}
            for chi, row in table.items()}
    _emit(data, args.json)
    return EXIT_PASS


def cmd_galois(args) -> int:
    if args.what != "b2-certificate":
        raise SystemExit_usage("supported: galois b2-certificate")
    report = b2_galois_certificate()
    _emit(report, args.json)
    return EXIT_PASS if report["pass"] else EXIT_FAIL


def cmd_geometry_rank1(args) -> int:
    if args.d < 2:
        raise SystemExit_usage(f"--d must be >= 2, got {args.d}")
    parts = [p.strip() for p in args.point.split(",") if p.strip()]
    if len(parts) != args.d + 3:
        raise SystemExit_usage(
            f"--point needs {args.d} K-values followed by x,y,e")
    ks = [_rational(p) for p in parts[:args.d]]
    x, y, e = (_rational(p) for p in parts[args.d:])
    try:
        singular = rank1_singular_test(args.d, ks, x, y, e)
        ramified = rank1_ramification_test(args.d, ks, x, y, e)
    except ValueError as exc:
        raise SystemExit_usage(str(exc))
    data = {"singular": singular, "ramified": ramified}
    _emit(data, args.json)
    return EXIT_PASS


def cmd_poisson(args) -> int:
    W = _group(args.group)
    gens = named_center_generators(W)
    for side, name in (("--lhs", args.lhs), ("--rhs", args.rhs)):
        if name not in gens:
            raise SystemExit_usage(
                f"{side} must be one of {sorted(gens)}")
    bracket = poisson_bracket(gens[args.lhs], gens[args.rhs])
    data = {"lhs": args.lhs, "rhs": args.rhs, "bracket": str(bracket)}
    if args.lhs == "eu":
        expected = z_degree(gens[args.rhs])
        data["rhs_z_degree"] = expected
        data["euler_eigenvector"] = (
            bracket == gens[args.rhs].scale(expected))
    _emit(data, args.json)
    return EXIT_PASS


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chered",
        description="Exact workbench for rational Cherednik algebras at t=0"
                    " (cyclic groups and B2).")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true",
                       help="emit machine-readable JSON")

    p = sub.add_parser("group", help="group data")
    p.add_argument("spec", help='group spec, e.g. "cyclic:4" or "b2"')
    p.add_argument("action", choices=["info"])
    add_json(p)
    p.set_defaults(func=cmd_group_info)

    p = sub.add_parser("verify", help="verification suites")
    vsub = p.add_subparsers(dest="what", required=True)
    pv = vsub.add_parser("center", help="centrality / center identity")
    pv.add_argument("--group", required=True)
    add_json(pv)
    pv.set_defaults(func=cmd_verify_center)
    pv = vsub.add_parser("relations", help="the nine B2 center relations")
    pv.add_argument("--group", required=True)
    add_json(pv)
    pv.set_defaults(func=cmd_verify_relations)
    pv = vsub.add_parser("minpoly", help="Euler minimal polynomial")
    pv.add_argument("--group", required=True)
    add_json(pv)
    pv.set_defaults(func=cmd_verify_minpoly)

    p = sub.add_parser("families", help="Calogero-Moser families")
    p.add_argument("--group", required=True)
    p.add_argument("--params", required=True)
    add_json(p)
    p.set_defaults(func=cmd_families)

    p = sub.add_parser("cells", help="cells and cellular characters")
    p.add_argument("--group", required=True)
    p.add_argument("--params", required=True)
    add_json(p)
    p.set_defaults(func=cmd_cells)

    p = sub.add_parser("fake-degrees", help="fake degrees and b-invariants")
    p.add_argument("--group", required=True)
    add_json(p)
    p.set_defaults(func=cmd_fake_degrees)

    p = sub.add_parser("hilbert", help="bigraded Hilbert series")
    p.add_argument("--group", required=True)
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--check", action="store_true",
                   help="cross-check all series computations")
    add_json(p)
    p.set_defaults(func=cmd_hilbert)

    p = sub.add_parser("omega-table", help="central characters table")
    p.add_argument("--group", required=True)
    add_json(p)
    p.set_defaults(func=cmd_omega_table)

    p = sub.add_parser("galois", help="Galois certificates")
    p.add_argument("what", help="b2-certificate")
    add_json(p)
    p.set_defaults(func=cmd_galois)

    p = sub.add_parser("geometry", help="rank-1 geometry tests")
    gsub = p.add_subparsers(dest="what", required=True)
    pg = gsub.add_parser("rank1", help="singular locus and ramification")
    pg.add_argument("--d", type=int, required=True)
    pg.add_argument("--point", required=True,
                    help="comma list: k_0..k_{d-1},x,y,e")
    add_json(pg)
    pg.set_defaults(func=cmd_geometry_rank1)

    p = sub.add_parser("poisson", help="Poisson bracket of center elements")
    p.add_argument("--group", required=True)
    p.add_argument("--lhs", required=True)
    p.add_argument("--rhs", required=True)
    add_json(p)
    p.set_defaults(func=cmd_poisson)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit:
        raise
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
