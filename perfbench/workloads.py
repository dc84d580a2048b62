"""Workload definitions: the cold certificate jobs and the point-query stream.

Cold jobs run in a fresh interpreter each, because the program's caches are
process-global and a command-line user pays them on every invocation.  Each
job returns (ok, canonical output): `ok` is the program's own exact check,
the canonical output is compared with the golden file.

Point queries are sampled from a fixed pool of requests whose golden outputs
were recorded with the pool (golden/queries.json.gz).  The pool is grouped in
categories: group x command x coordinates x parameter stratum.  One pass
holds one request of every category, so every seed sees the same mix and only
the points and their order change with the seed.
"""
from __future__ import annotations

import gzip
import json
import os
import random
from fractions import Fraction

import canon

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join(HERE, "golden")
COLD_GOLDEN = os.path.join(GOLDEN_DIR, "cold.json")
QUERY_GOLDEN = os.path.join(GOLDEN_DIR, "queries.json.gz")

RANK1_DEGREES = (2, 3, 4, 5)
HILBERT = ("hilbert12", "hilbert24")   # `hilbert --check` at these orders
QUERY_GROUPS = ("b2",) + tuple(f"cyclic:{d}" for d in range(2, 7))

COLD_KINDS = {
    "rank1-center": ("center", "minpoly") + HILBERT,
    "b2-center": ("center", "minpoly", "feu", "galois", "poisson") + HILBERT,
}


def cold_jobs(workload: str) -> list:
    """Job ids "<group>/<kind>" of one pass over a cold workload."""
    if workload == "rank1-center":
        specs = [f"cyclic:{d}" for d in RANK1_DEGREES]
    else:
        specs = ["b2"]
    return [f"{spec}/{kind}" for spec in specs
            for kind in COLD_KINDS[workload]]


# ---------------------------------------------------------------------------
# cold jobs (run inside the child, after `chered` is imported)
# ---------------------------------------------------------------------------


def _job_center(W):
    from chered.center import verify_b2_center, verify_rank1_center
    if W.spec == "b2":
        reports = verify_b2_center()
    else:
        reports = [verify_rank1_center(W.order())]
    ok = all(r["status"] for r in reports)
    return ok, {"relations": len(reports), "all_hold": ok}


def _job_minpoly(W):
    from chered.center import euler_charpoly_congruence, minpoly_euler
    f = minpoly_euler(W)
    congruent = euler_charpoly_congruence(W)
    return congruent, {"minpoly": canon.poly(f), "congruence": congruent}


def _job_feu(W):
    """F(eu) = 0 evaluated in the algebra for the degree-8 minimal polynomial
    F, with the invariants replaced by the named central elements."""
    from chered.center import minpoly_euler
    from chered.cherednik import (PBWElement, multiply,
                                  named_center_generators)
    from chered.multipoly import MPoly
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
    degree = f.degree_in("t")
    vanishes = value.is_zero()
    return degree == 8 and vanishes, {"degree": degree, "vanishes": vanishes}


def _job_galois(W):
    from chered.galois import b2_galois_certificate
    report = b2_galois_certificate()
    steps = [dict(sorted((k, v) for k, v in s.items()
                         if k == "step" or isinstance(v, bool)))
             for s in report["steps"]]
    return report["pass"], {"pass": report["pass"], "steps": steps}


def _job_poisson(W):
    """{eu, z} = deg(z) z for every named central generator z."""
    from chered.cherednik import (named_center_generators, poisson_bracket,
                                  z_degree)
    gens = named_center_generators(W)
    out = {}
    for name in sorted(gens):
        z = gens[name]
        deg = z_degree(z)
        holds = deg is not None and poisson_bracket(gens["eu"], z) == z.scale(deg)
        out[name] = [deg, holds]
    return all(h for _, h in out.values()), out


def _job_hilbert(W, order):
    """The `hilbert --check` computation at an explicit order."""
    from chered.series import (fantome_bigraded, hilbert_center,
                               molien_bigraded, series_table)
    molien = molien_bigraded(W, order)
    fantome = fantome_bigraded(W, order)
    hc = hilbert_center(W, order)
    equal = molien.coeffs == fantome.coeffs
    out = {"order": order,
           "molien": [[i, j, canon.scalar(v)]
                      for i, j, v in series_table(molien)],
           "molien_equals_fake_degree_series": equal,
           "center_matches_basis": hc["match"],
           "basis_bidegrees": sorted(list(b) for b in hc["basis_bidegrees"])}
    return equal and hc["match"], out


def run_job(W, kind: str):
    if kind.startswith("hilbert"):
        return _job_hilbert(W, int(kind[len("hilbert"):]))
    return {"center": _job_center, "minpoly": _job_minpoly, "feu": _job_feu,
            "galois": _job_galois, "poisson": _job_poisson}[kind](W)


# ---------------------------------------------------------------------------
# point queries
# ---------------------------------------------------------------------------


def load_query_pool() -> dict:
    """{category: [[argv, canonical output], ...]} as recorded."""
    with gzip.open(QUERY_GOLDEN, "rt") as fh:
        return json.load(fh)


def request_passes(pool: dict, seed: int):
    """Endless seeded passes; each pass is a shuffled list of
    (category, index) with one request from every category.  Each category
    cycles through a seeded permutation of its requests, so every request
    is sent about equally often and the latency tail does not hang on which
    points a seed happened to draw."""
    rng = random.Random(seed)
    cats = sorted(pool)
    orders = {c: rng.sample(range(len(pool[c])), len(pool[c])) for c in cats}
    k = 0
    while True:
        batch = [(c, orders[c][k % len(orders[c])]) for c in cats]
        rng.shuffle(batch)
        yield batch
        k += 1


def requests_for(pool: dict, seed: int, count: int) -> list:
    out = []
    for batch in request_passes(pool, seed):
        out.extend(batch)
        if len(out) >= count:
            return out


def geometry_point_on_variety(argv: list) -> bool:
    """prod_i (e - d k_i) = x y and sum k_i = 0 for a `geometry rank1` request."""
    d = int(argv[argv.index("--d") + 1])
    point = next(a for a in argv if a.startswith("--point="))
    vals = [Fraction(v) for v in point[len("--point="):].split(",")]
    ks, (x, y, e) = vals[:d], vals[d:]
    prod = Fraction(1)
    for k in ks:
        prod *= e - d * k
    return len(vals) == d + 3 and sum(ks) == 0 and prod == x * y
