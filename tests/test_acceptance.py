"""Acceptance suite: the fourteen headline guarantees, one pass/fail line
each.  All arithmetic is exact; every comparison is bit-exact equality."""
import random
import zlib
from fractions import Fraction

import pytest

from chered.exactnum import canon_scalar
from chered.multipoly import MPoly, discriminant
from chered.reflgrp import (build_group, b_invariant, character_table,
                            fake_degree, param_convert)
from chered.cherednik import (PBWElement, euler_element, multiply,
                              named_center_generators, poisson_bracket,
                              z_degree)
from chered.verma import omega, omega_table
from chered.cmcells import b2_cells, cm_families, rank1_cells, sum_rule_check
from chered.series import (center_basis_bidegrees, fantome_bigraded,
                           hilbert_center, molien_bigraded)
from chered.center import (RANK1_DEGREES, euler_charpoly_congruence,
                           minpoly_euler, verify_b2_center,
                           verify_rank1_center)
from chered.galois import b2_galois_certificate
from oracles import (minimal_b_character, omega_euler_closed_form,
                     substitute_params, twist_family_partition)


def report(n, label, ok):
    print(f"criterion {n:2d} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {n} ({label}) failed"


def test_criterion_01_b2_centrality():
    reports = [r for r in verify_b2_center()
               if r["relation"].startswith("central")]
    ok = len(reports) == 4 and all(r["status"] for r in reports)
    report(1, "B2 central generators commute exactly", ok)


def test_criterion_02_b2_relations():
    reports = [r for r in verify_b2_center()
               if not r["relation"].startswith("central")]
    ok = len(reports) == 9 and all(r["status"] for r in reports)
    report(2, "nine B2 center relations as exact PBW identities", ok)


def test_criterion_03_b2_euler_minpoly():
    W = build_group("b2")
    # minpoly_euler internally asserts matrix charpoly == closed form
    f = minpoly_euler(W)
    g = named_center_generators(W)
    value = PBWElement.zero(W)
    for exp, c in f.terms.items():
        coeff = MPoly.const(c)
        term = PBWElement.one(W)
        for name, e in zip(f.vars, exp):
            if not e:
                continue
            if name == "t":
                term = multiply(term, g["eu"] ** e)
            elif name in g:
                term = multiply(term, g[name] ** e)
            else:
                coeff = coeff * MPoly.var(name) ** e
        value = value + term.scale(coeff)
    ok = f.degree_in("t") == 8 and value.is_zero()
    report(3, "Euler minimal polynomial and F(eu) = 0 in the algebra", ok)


def test_criterion_04_rank1_center():
    ok = all(verify_rank1_center(d)["status"] for d in RANK1_DEGREES)
    if ok:
        W = build_group("cyclic:3")
        g = named_center_generators(W)
        residue = g["eu"] ** 3 - multiply(g["X"], g["Y"])
        zeros = {f"C{i}": MPoly.zero() for i in (1, 2)}
        ok = substitute_params(residue, zeros).is_zero()
    report(4, f"rank-1 center identity for d = {RANK1_DEGREES[0]}.."
           f"{RANK1_DEGREES[-1]} and eu^d = XY at K = 0", ok)


def test_criterion_05_omega_table():
    ok = True
    W = build_group("b2")
    table = omega_table(W)
    A, B = MPoly.var("A"), MPoly.var("B")
    expected_eu = {"1": -2 * (B + A), "eps_s": -2 * (B - A),
                   "eps_t": 2 * (B - A), "eps": 2 * (B + A),
                   "chi": MPoly.zero()}
    expected_delta = {"1": 2 * B * (B + A), "eps_s": 2 * B * (B - A),
                      "eps_t": 2 * B * (B - A), "eps": 2 * B * (B + A),
                      "chi": MPoly.zero()}
    for name in expected_eu:
        ok = ok and table[name]["eu"] == expected_eu[name]
        ok = ok and table[name]["delta"] == expected_delta[name]
        ok = ok and table[name]["eu'"].is_zero()
        ok = ok and table[name]["eu''"].is_zero()
    for spec in ("cyclic:2", "cyclic:3", "cyclic:4", "cyclic:5",
                 "cyclic:6", "b2"):
        Ws = build_group(spec)
        values = omega(euler_element(Ws), character_table(Ws))
        for chi in character_table(Ws):
            ok = ok and (values[chi.name]
                         == omega_euler_closed_form(Ws, chi))
    rng = random.Random(20260823)
    for d in range(2, 7):
        Ws = build_group(f"cyclic:{d}")
        values = omega(euler_element(Ws), character_table(Ws))
        cvals = {f"C{i}": Fraction(rng.randint(-4, 4)) for i in range(1, d)}
        kmap = param_convert(Ws, cvals, "K")
        for i, chi in enumerate(character_table(Ws)):
            val = values[chi.name].substitute(cvals)
            ok = ok and (canon_scalar(val.constant_value())
                         == canon_scalar(d * kmap[f"K{(-i) % d}"]))
    report(5, "central character table and Euler closed forms", ok)


_FAMILY_TABLE = {
    (0, 1): [("1", "eps_s"), ("chi",), ("eps", "eps_t")],
    (1, 0): [("1", "eps_t"), ("chi",), ("eps", "eps_s")],
    (1, 1): [("1",), ("chi", "eps_s", "eps_t"), ("eps",)],
    (1, -1): [("1", "chi", "eps"), ("eps_s",), ("eps_t",)],
    (2, 1): [("1",), ("chi",), ("eps",), ("eps_s",), ("eps_t",)],
    (0, 0): [("1", "chi", "eps", "eps_s", "eps_t")],
}


def _families(W, a, b):
    return cm_families(W, {"A": Fraction(a), "B": Fraction(b)})


def test_criterion_06_family_table():
    W = build_group("b2")
    ok = True
    for (a, b), rows in _FAMILY_TABLE.items():
        got = sorted(tuple(sorted(blk))
                     for blk in _families(W, a, b).blocks)
        ok = ok and got == sorted(rows)
    report(6, "all six rows of the B2 family table", ok)


def test_criterion_07_cells():
    ok = True
    generic = b2_cells(2, 1)
    ok = ok and len(generic.two_sided) == 5
    ok = ok and ("t", "st", "ts", "sts") in generic.two_sided
    ok = ok and ("t", "st") in generic.left and ("ts", "sts") in generic.left
    equal = b2_cells(1, 1)
    ok = ok and equal.two_sided == (("1",), ("w0",),
                                    ("s", "t", "st", "ts", "sts", "tst"))
    gs = equal.left.index(("s", "ts", "sts"))
    ok = ok and equal.cellular[gs] == {"eps_s": 1, "chi": 1}
    opp = b2_cells(1, -1)
    ok = ok and opp.two_sided == equal.two_sided and opp.left == equal.left
    gs = opp.left.index(("s", "ts", "sts"))
    ok = ok and opp.cellular[gs] == {"eps": 1, "chi": 1}
    rng = random.Random(2026)
    for d in range(3, 7):
        W = build_group(f"cyclic:{d}")
        index = {W.names[i]: i for i in range(d)}
        for _ in range(10):
            ks = [Fraction(rng.randint(-2, 2)) for _ in range(d - 1)]
            ks.append(-sum(ks))
            cp = rank1_cells(d, ks)
            for cell in cp.two_sided:
                ok = ok and len({ks[index[n]] for n in cell}) == 1
            ok = ok and sum(len(c) for c in cp.two_sided) == d
    report(7, "B2 cell tables and rank-1 fiber structure", ok)


def test_criterion_08_sum_rules():
    ok = True
    W2 = build_group("b2")
    for (a, b) in ((2, 1), (1, 1), (1, -1), (0, 0), (3, -2)):
        cells = b2_cells(a, b)
        if cells.supported:
            ok = ok and sum_rule_check(W2, cells)["all"]
    rng = random.Random(88)
    for d in (3, 4, 5):
        W = build_group(f"cyclic:{d}")
        for _ in range(5):
            ks = [Fraction(rng.randint(-2, 2)) for _ in range(d - 1)]
            ks.append(-sum(ks))
            ok = ok and sum_rule_check(W, rank1_cells(d, ks))["all"]
    report(8, "cell/family sum rules on every computed stratum", ok)


def test_criterion_09_hilbert_series():
    ok = True
    for spec in ("cyclic:2", "cyclic:3", "cyclic:4", "cyclic:5",
                 "cyclic:6", "b2"):
        W = build_group(spec)
        ok = ok and (molien_bigraded(W, 12).coeffs
                     == fantome_bigraded(W, 12).coeffs)
        ok = ok and hilbert_center(W, 8)["match"]
    W = build_group("b2")
    s = molien_bigraded(W, 12)
    ok = ok and s.coeffs.get((1, 1), 0) == 1
    ok = ok and s.coeffs.get((2, 2), 0) == 3
    ok = ok and sorted(center_basis_bidegrees(W)) == sorted(
        [(0, 0), (1, 1), (2, 2), (2, 2), (3, 3), (4, 4), (1, 3), (3, 1)])
    report(9, "bigraded Hilbert series agree to order 12", ok)


def test_criterion_10_fake_degrees():
    ok = True
    W = build_group("b2")
    t = MPoly.var("t")
    expected = {"1": MPoly.const(1), "eps_s": t ** 2, "eps_t": t ** 2,
                "eps": t ** 4, "chi": t + t ** 3}
    for chi in character_table(W):
        f = fake_degree(W, chi)
        ok = ok and f == expected[chi.name]
        ok = ok and f.substitute({"t": 1}).constant_value() == chi.degree
    for d in (2, 3, 4, 5, 6):
        Wc = build_group(f"cyclic:{d}")
        for i, chi in enumerate(character_table(Wc)):
            ok = ok and fake_degree(Wc, chi) == t ** i
            ok = ok and b_invariant(Wc, chi) == i
    for (a, b) in _FAMILY_TABLE:
        fp = _families(W, a, b)
        for blk in fp.blocks:
            minimal_b_character(W, blk)  # asserts uniqueness internally
    report(10, "fake degrees and minimal-b characters", ok)


def test_criterion_11_discriminant_identities():
    t = MPoly.var("t")
    rng = random.Random(96321)
    ok = True
    for _ in range(20):
        d = rng.randint(1, 4)
        f = t ** d
        for k in range(d):
            f = f + MPoly.const(Fraction(rng.randint(-6, 6))) * t ** k
        F = MPoly.zero()
        for k in range(d + 1):
            F = F + f.coefficient("t", k) * t ** (2 * k)
        ok = ok and (discriminant(F, "t")
                     == ((-4) ** d) * discriminant(f, "t") ** 2
                     * f.coefficient("t", 0))
        ok = ok and (discriminant(t * f, "t")
                     == discriminant(f, "t") * f.coefficient("t", 0) ** 2)
    report(11, "discriminant identities on 20 random monic polynomials", ok)


def test_criterion_12_galois_certificate():
    cert = b2_galois_certificate()
    s3 = cert["steps"][2]
    ok = (cert["pass"] and s3["direct_equals_target"]
          and s3["is_square"] is False)
    report(12, "three-step Galois certificate including non-square verdict",
           ok)


def test_criterion_13_charpoly_congruence():
    ok = all(euler_charpoly_congruence(build_group(spec))
             for spec in ("cyclic:2", "cyclic:3", "cyclic:4", "cyclic:5",
                          "cyclic:6", "b2"))
    report(13, "characteristic-polynomial block congruence", ok)


def test_criterion_14_property_suites():
    ok = True
    # PBW associativity on 30 random triples per group
    for spec in ("cyclic:2", "cyclic:3", "cyclic:4", "b2"):
        W = build_group(spec)
        rng = random.Random(zlib.crc32(spec.encode()))

        def rand():
            elem = PBWElement.zero(W)
            for _ in range(2):
                vexp = tuple(rng.randint(0, 2) for _ in range(W.dim))
                dexp = tuple(rng.randint(0, 2) for _ in range(W.dim))
                g = rng.randrange(W.order())
                c = rng.randint(-3, 3)
                if c:
                    elem = elem + PBWElement.monomial(W, vexp, g, dexp, c)
            return elem

        for _ in range(30):
            a, b, c = rand(), rand(), rand()
            ok = ok and multiply(multiply(a, b), c) == multiply(
                a, multiply(b, c))
    # Poisson structure on the B2 center
    W = build_group("b2")
    g = named_center_generators(W)
    for name, z in g.items():
        ok = ok and poisson_bracket(g["eu"], z) == z.scale(z_degree(z))
    a, b, c = g["eu'"], g["eu''"], g["delta"]
    ok = ok and poisson_bracket(a, b) == -poisson_bracket(b, a)
    lhs = poisson_bracket(a, multiply(b, c))
    rhs = (multiply(poisson_bracket(a, b), c)
           + multiply(b, poisson_bracket(a, c)))
    ok = ok and lhs == rhs
    jac = (poisson_bracket(a, poisson_bracket(b, c))
           + poisson_bracket(b, poisson_bracket(c, a))
           + poisson_bracket(c, poisson_bracket(a, b)))
    ok = ok and jac.is_zero()
    # twist covariance of families
    twists = {"eps": lambda x, y: (-x, -y), "eps_t": lambda x, y: (x, -y)}
    for gamma, move in twists.items():
        for (x, y) in ((2, 1), (1, 1), (1, -1), (0, 0)):
            fp = _families(W, x, y)
            fq = _families(W, *move(x, y))
            ok = ok and (list(twist_family_partition(W, fp, gamma))
                         == sorted(tuple(sorted(blk)) for blk in fq.blocks))
    report(14, "property suites: associativity, Poisson, twist covariance",
           ok)
