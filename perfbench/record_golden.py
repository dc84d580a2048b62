"""Record the golden outputs: the canonical output of every cold job, and the
point-query pool with the canonical output of every request.

  python3 perfbench/record_golden.py

Run it from the root of a checkout whose outputs are known to be right.  The
benchmark compares every run with these files, so re-recording them belongs in
a change to the benchmark, never in a change that claims a speed-up.
"""
from __future__ import annotations

import contextlib
import gzip
import io
import json
import os
import random
import sys
from fractions import Fraction

import canon
import run
import workloads

POOL_SEED = 20130211
POOL_PER_CATEGORY = 16


def _q(rng, lo=-6, hi=6):
    return Fraction(rng.randint(lo, hi), rng.choice((1, 1, 1, 2, 3)))


def _nonzero(rng, avoid=()):
    while True:
        v = _q(rng)
        if v != 0 and v not in avoid:
            return v


def _join(values) -> str:
    return ",".join(str(v) for v in values)


def _b2_point(rng, stratum):
    """(a, b) on a stratum of the B2 parameter plane."""
    a = _nonzero(rng)
    if stratum == "generic":
        return a, _nonzero(rng, (a, -a))
    return rng.choice([(a, a), (a, -a), (a, Fraction(0)), (Fraction(0), a),
                       (Fraction(0), Fraction(0))])


def _b2_params(rng, coords, stratum):
    a, b = _b2_point(rng, stratum)
    if coords == "C":
        return f"a={a},b={b}"
    # C = 2 K_1 per orbit, with K_0 = -K_1
    return "K=" + _join((-a / 2, a / 2, -b / 2, b / 2))


def _k_point(rng, d, stratum):
    """d rational K-values summing to zero; the special stratum repeats
    values (or is the origin), which merges cells and families."""
    if stratum == "special" and rng.random() < 0.2:
        return [Fraction(0)] * d
    while True:
        ks = [_q(rng) for _ in range(d - 1)]
        if stratum == "special":
            i, j = rng.sample(range(d - 1), 2) if d > 2 else (0, 0)
            ks[j] = ks[i]
            ks.append(-sum(ks))
            if d == 2:
                ks = [Fraction(0), Fraction(0)]
            return ks
        ks.append(-sum(ks))
        if len(set(ks)) == d:
            return ks


def _cyclic_params(rng, d, coords, stratum):
    if coords == "K":
        return "K=" + _join(_k_point(rng, d, stratum))
    if stratum == "symmetric":
        # C_i = C_{d-i}: the K-coordinates are rational for d in 2, 3, 4, 6
        half = [_q(rng) for _ in range(d // 2)]
        cs = [half[min(i, d - i) - 1] for i in range(1, d)]
    else:
        cs = [_q(rng) for _ in range(1, d)]
    return ",".join(f"C{i}={c}" for i, c in enumerate(cs, 1))


def _geometry_point(rng, d, stratum):
    """k_0..k_{d-1}, x, y, e on prod_i (e - d k_i) = x y."""
    ks = _k_point(rng, d, "special" if stratum == "singular" else "generic")
    if stratum == "singular":
        counts = {k: ks.count(k) for k in ks}
        k = rng.choice([k for k, n in counts.items() if n > 1])
        x = y = Fraction(0)
        e = d * k
    elif stratum == "x0":
        e = d * rng.choice(ks)
        x, y = Fraction(0), _q(rng)
    else:
        e = _q(rng)
        x = _nonzero(rng)
        prod = Fraction(1)
        for k in ks:
            prod *= e - d * k
        y = prod / x
    return _join(ks + [x, y, e])


def categories() -> dict:
    """{category name: request generator(rng)}."""
    cats = {}
    for cmd in ("families", "cells"):
        for coords in ("C", "K"):
            for stratum in ("generic", "special"):
                cats[f"b2/{cmd}/{coords}/{stratum}"] = (
                    lambda rng, c=cmd, co=coords, s=stratum:
                    [c, "--group", "b2", "--params=" + _b2_params(rng, co, s),
                     "--json"])
    for d in range(2, 7):
        spec = f"cyclic:{d}"
        rows = [("families", "C", "generic"), ("families", "K", "generic"),
                ("families", "K", "special"), ("cells", "K", "generic"),
                ("cells", "K", "special")]
        if d in (2, 3, 4, 6):
            rows.append(("cells", "C", "symmetric"))
        for cmd, coords, stratum in rows:
            cats[f"{spec}/{cmd}/{coords}/{stratum}"] = (
                lambda rng, c=cmd, g=spec, dd=d, co=coords, s=stratum:
                [c, "--group", g,
                 "--params=" + _cyclic_params(rng, dd, co, s), "--json"])
        for stratum in ("generic", "singular", "x0"):
            cats[f"geometry/rank1/{d}/{stratum}"] = (
                lambda rng, dd=d, s=stratum:
                ["geometry", "rank1", "--d", str(dd),
                 "--point=" + _geometry_point(rng, dd, s), "--json"])
    return cats


def record_queries() -> dict:
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    from chered import cli
    rng = random.Random(POOL_SEED)
    pool = {}
    for name, make in categories().items():
        entries = []
        for _ in range(POOL_PER_CATEGORY):
            argv = make(rng)
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            if code != 0:
                raise SystemExit(f"{argv} exited {code}")
            entries.append([argv, canon.query_output(argv,
                                                     json.loads(buf.getvalue()))])
        pool[name] = entries
    return pool


def record_cold() -> dict:
    golden = {}
    for workload in ("rank1-center", "b2-center"):
        for job in workloads.cold_jobs(workload):
            res = run.spawn(["job", job])
            if not res["ok"]:
                raise SystemExit(f"{job}: the program's own check failed")
            golden[job] = res["canon"]
    return golden


def main():
    os.environ.pop("CHERED_ORDER", None)
    os.makedirs(workloads.GOLDEN_DIR, exist_ok=True)
    pool = record_queries()
    with gzip.GzipFile(workloads.QUERY_GOLDEN, "wb", mtime=0) as fh:
        fh.write(json.dumps(pool, sort_keys=True).encode())
    golden = record_cold()
    with open(workloads.COLD_GOLDEN, "w") as fh:
        fh.write("{\n" + ",\n".join(
            f"{json.dumps(job)}: {json.dumps(golden[job], sort_keys=True)}"
            for job in sorted(golden)) + "\n}\n")


if __name__ == "__main__":
    main()
