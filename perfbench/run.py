"""Benchmark of the chered package: time to certificate, end to end and per layer.

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a source checkout; the program is imported from
./src.  Workloads:

  rank1-center   cold jobs on cyclic:2..5, one fresh interpreter per job:
                 the rank-1 center identity, minpoly + congruence, and the
                 `hilbert --check` computation at orders 12 and 24
  b2-center      cold jobs on b2: the centrality suite and Z1-Z9, minpoly +
                 congruence, F(eu) = 0 in the algebra, the Galois certificate,
                 {eu, z} for every named generator, `hilbert --check` at 12, 24
  point-queries  one warm process; a closed loop (one client, no think time)
                 of `families`, `cells` and `geometry rank1` requests through
                 chered.cli.main

With --trace 0 the run measures the end-to-end metrics with tracing off.
With --trace 1 it makes one untraced and one traced pass over the same inputs
and reports the per-layer metrics and the tracing overhead.  Times are scaled
to a reference machine speed by a probe in every child (see probe.py).  Every
output is compared with the golden files; the last line of stdout is the JSON
result and the exit code is 0 only if every check passed.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import select
import statistics
import subprocess
import sys
import time

import layers
import probe
import workloads

ROOT = os.getcwd()
CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")
MIN_REQUESTS = 1000       # p99 then has ten samples beyond it
QUERY_SETUP_SAMPLES = 3   # warm processes set up per point-queries run
CHILD_TIMEOUT_S = 170

END_TO_END = {            # name -> unit
    "setup_s": "s",
    "wall_s": "s",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
    "queries_per_s": "1/s",
    "peak_rss_mb": "MB",
}


class ChildFailed(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("CHERED_ORDER", None)      # orders are passed explicitly
    env.pop("PYTHONDONTWRITEBYTECODE", None)   # the warm-up writes the .pyc
    env["PYTHONHASHSEED"] = "0"        # set/frozenset order inside MPoly
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def spawn(args: list) -> dict:
    """Run one child; its JSON result plus "setup": [spawn, READY] times."""
    t0 = time.perf_counter()
    # unbuffered, so the READY line is read without reading ahead of it
    with subprocess.Popen([sys.executable, CHILD, *args], cwd=ROOT,
                          env=child_env(), stdout=subprocess.PIPE,
                          bufsize=0) as proc:
        try:
            ready, _, _ = select.select([proc.stdout], [], [], CHILD_TIMEOUT_S)
            line = proc.stdout.readline() if ready else b""
            t_ready = time.perf_counter()
            rest, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise ChildFailed(f"{args}: timed out")
    if line.strip() != b"READY" or proc.returncode != 0 or not rest.strip():
        raise ChildFailed(f"{args}: exit {proc.returncode}")
    res = json.loads(rest.strip().splitlines()[-1])
    res["setup"] = [t0, t_ready]
    return res


def nearest_rank(values: list, p: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


class Checks:
    """Checks attempted and failed; every failure is printed to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", file=sys.stderr)


def timers(children: list, scaled: bool) -> list:
    """One (t0, t1) -> seconds function per child, raw or scaled by its
    speed probe."""
    if not scaled:
        return [lambda t0, t1: t1 - t0 for _ in children]
    return [probe.Scaler(c["probes"]) for c in children]


def describe(children: list, what: str) -> str:
    durations = [d for c in children for _, d in c["probes"]]
    return (f"{what}; speed probe median {statistics.median(durations) * 1e3:.4f}"
            f" ms against {probe.REFERENCE_S * 1e3} ms reference,"
            f" {len(durations)} probes")


# ---------------------------------------------------------------------------
# cold workloads
# ---------------------------------------------------------------------------


def run_cold_job(job: str, golden: dict, checks: Checks, traced=False):
    args = ["job", job] + (["--trace"] if traced else [])
    try:
        res = spawn(args)
    except ChildFailed as exc:
        checks.record(False, str(exc))
        return None
    good = res["ok"] and res["canon"] == golden.get(job)
    checks.record(good, f"{job}: ok={res['ok']} canonical output "
                        f"{json.dumps(res['canon'])[:400]}")
    return res if good else None


def cold_metrics(children: list, scaled: bool) -> dict:
    """A job's latency, its time to certificate, is the run's median set-up
    plus the job's median time."""
    per_job: dict = {}
    setups = []
    for c, timer in zip(children, timers(children, scaled)):
        setups.append(timer(*c["setup"]))
        per_job.setdefault(c["job"], []).append((timer(*c["span"]),
                                                 c["rss_mb"]))
    setup = statistics.median(setups)
    jobs = [(statistics.median(t for t, _ in xs),
             statistics.median(m for _, m in xs)) for xs in per_job.values()]
    latencies = [setup + t for t, _ in jobs]
    return {
        "setup_s": setup,
        "wall_s": sum(t for t, _ in jobs),
        "query_p50_ms": statistics.median(latencies) * 1e3,
        "query_p99_ms": nearest_rank(latencies, 0.99) * 1e3,
        "queries_per_s": len(latencies) / sum(latencies),
        "peak_rss_mb": max(m for _, m in jobs),
    }, describe(children, f"{len(children)} processes, {len(jobs)} jobs")


def cold(workload: str, seed: int, seconds: int, traced: bool, checks):
    with open(workloads.COLD_GOLDEN) as fh:
        golden = json.load(fh)
    jobs = workloads.cold_jobs(workload)
    random.Random(seed).shuffle(jobs)
    spawn(["warmup"])
    if traced:
        return cold_traced(workload, jobs, golden, checks)
    children = []
    start = time.perf_counter()
    i = 0
    # one whole pass, then more jobs in the same order until time is up
    while i < len(jobs) or time.perf_counter() - start < seconds:
        res = run_cold_job(jobs[i % len(jobs)], golden, checks)
        i += 1
        if res is not None:
            children.append(res)
    if {c["job"] for c in children} != set(jobs):
        return None
    return cold_metrics(children, True), cold_metrics(children, False)


def cold_traced(workload, jobs, golden, checks):
    pairs = []
    for job in jobs:
        plain = run_cold_job(job, golden, checks)
        res = run_cold_job(job, golden, checks, traced=True)
        if plain is None or res is None:
            continue
        checks.record(res["canon"] == plain["canon"],
                      f"{job}: traced output differs from untraced")
        pairs += [plain, res]
    if len(pairs) != 2 * len(jobs):
        return None
    stats, cache_entries = {}, 0
    total = [0.0, 0.0]
    for i, (c, timer) in enumerate(zip(pairs, timers(pairs, True))):
        total[i % 2] += timer(*c["setup"]) + timer(*c["span"])
        if i % 2:
            layers.merge(stats, c["trace"], probe.mean_factor(c["probes"]))
            cache_entries += c["straighten_cache_entries"]
            report_missing(c)
    return layer_result(workload, stats, cache_entries, *total)


# ---------------------------------------------------------------------------
# point queries
# ---------------------------------------------------------------------------


def query_self_checks(pool: dict, seed: int, checks: Checks):
    first = workloads.requests_for(pool, seed, MIN_REQUESTS)
    checks.record(first == workloads.requests_for(pool, seed, MIN_REQUESTS),
                  "the seed does not reproduce the request list")
    geometry = [pool[c][i][0] for c, i in first if c.startswith("geometry")]
    checks.record(bool(geometry) and all(
        workloads.geometry_point_on_variety(argv) for argv in geometry),
        "a geometry point is off the variety prod(e - d k_i) = x y")


def query_child(seed, seconds, checks, traced=False, exact=False):
    args = ["queries", "--seed", str(seed), "--seconds", str(seconds),
            "--min-requests", str(MIN_REQUESTS)]
    if exact:
        args += ["--max-requests", str(MIN_REQUESTS)]
    if traced:
        args.append("--trace")
    try:
        res = spawn(args)
    except ChildFailed as exc:
        checks.record(False, str(exc))
        return None
    checks.attempted += res["requests"]
    checks.failed += res["failed"]
    for f in res["failures"]:
        print(f"FAILED: query {json.dumps(f)[:600]}", file=sys.stderr)
    return res


def query_metrics(setups: list, res: dict, scaled: bool) -> dict:
    children = setups + [res]
    clocks = timers(children, scaled)
    timer = clocks[-1]
    lat = [timer(*span) for span in res["spans"]]
    return {
        "setup_s": statistics.median(t(*c["setup"])
                                     for c, t in zip(children, clocks)),
        "wall_s": statistics.fmean(lat) * MIN_REQUESTS,
        "query_p50_ms": statistics.median(lat) * 1e3,
        "query_p99_ms": nearest_rank(lat, 0.99) * 1e3,
        "queries_per_s": len(lat) / timer(*res["loop"]),
        "peak_rss_mb": res["rss_mb"],
    }, describe(children, f"{len(children)} set-ups, {len(lat)} requests")


def queries(seed: int, seconds: int, traced: bool, checks):
    pool = workloads.load_query_pool()
    query_self_checks(pool, seed, checks)
    spawn(["warmup"])
    if traced:
        plain = query_child(seed, 0, checks, exact=True)
        res = query_child(seed, 0, checks, traced=True, exact=True)
        if plain is None or res is None:
            return None
        report_missing(res)
        t_plain, t_res = timers([plain, res], True)
        stats = {}
        layers.merge(stats, res["trace"], probe.mean_factor(res["probes"]))
        return layer_result(
            "point-queries", stats, res["straighten_cache_entries"],
            t_plain(*plain["setup"]) + t_plain(*plain["loop"]),
            t_res(*res["setup"]) + t_res(*res["loop"]))
    start = time.perf_counter()
    setups = [spawn(["queries-setup"]) for _ in range(QUERY_SETUP_SAMPLES - 1)]
    left = max(0.0, seconds - (time.perf_counter() - start))
    res = query_child(seed, left, checks)
    if res is None:
        return None
    return query_metrics(setups, res, True), query_metrics(setups, res, False)


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def report_missing(res: dict):
    for name in res.get("trace_missing", ()):
        print(f"note: trace target {name} is not in the program",
              file=sys.stderr)


def layer_result(workload, stats, cache_entries, untraced_s, traced_s):
    values = layers.layer_values(stats, cache_entries)
    missed = layers.unfired(stats, workload)
    for key in missed:
        print(f"note: wrapper {key} never fired on {workload}",
              file=sys.stderr)
    values.update({"trace.untraced_s": untraced_s,
                   "trace.overhead_s": traced_s - untraced_s,
                   "trace.overhead_share": (traced_s - untraced_s) / untraced_s,
                   "trace.unfired": len(missed)})
    return values


def environment() -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env={**os.environ,
                 "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return {"python": platform.python_version(), "git_sha": sha,
            "src_sha256": digest.hexdigest(), "nproc": os.cpu_count(),
            "loadavg_1m": os.getloadavg()[0]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("rank1-center", "b2-center", "point-queries"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "chered", "__init__.py")):
        print("error: run from the root of a chered checkout (no src/chered)",
              file=sys.stderr)
        return 2

    print("env " + json.dumps(environment(), sort_keys=True), flush=True)
    checks = Checks()
    if args.workload == "point-queries":
        measured = queries(args.seed, args.seconds, bool(args.trace), checks)
    else:
        measured = cold(args.workload, args.seed, args.seconds,
                        bool(args.trace), checks)
    if measured is None:
        print("error: no complete measurement", file=sys.stderr)
        return 1

    metrics = {}
    if args.trace:
        for name, value in measured.items():
            unit = layers.LAYER_METRICS[name][0]
            metrics[name] = {"value": value, "unit": unit}
            print(f"{name}: {value} {unit}")
    else:
        (scaled, samples), (raw, _) = measured
        print(f"samples: {samples}")
        for name, unit in END_TO_END.items():
            metrics[name] = {"value": scaled[name], "unit": unit}
            print(f"{name}: {scaled[name]:.6g} {unit} (raw {raw[name]:.6g})")
    ratio = checks.failed / checks.attempted if checks.attempted else 1.0
    print(f"fail_ratio: {ratio} ({checks.failed} of {checks.attempted} checks)")
    correct = checks.failed == 0 and checks.attempted > 0
    print(json.dumps({"correct": correct, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
