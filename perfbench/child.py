"""One benchmark child process.

  child.py warmup                      import everything once (compiles .pyc)
  child.py job <group>/<kind> [--trace]
  child.py queries --seed N --seconds S --min-requests N [--max-requests N] [--trace]
  child.py queries-setup               set up the warm process and exit

The child prints "READY" when its set-up is done and then one JSON line with
its results: the perf_counter spans it timed and the samples of its speed
probe, which runs from the start of the child.  The program's own stdout is
sent to stderr meanwhile, so the protocol lines cannot mix with it.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import sys
import time

import canon
import layers
import probe
import workloads


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _import_program():
    import chered
    import chered.cli  # noqa: F401  (imports every module, as the CLI does)
    src = os.path.join(os.getcwd(), "src")
    if not os.path.abspath(chered.__file__).startswith(src + os.sep):
        raise SystemExit(f"chered imported from {chered.__file__}, not {src}")


def _ready(out):
    out.write("READY\n")
    out.flush()


def _setup_queries():
    from chered.reflgrp import build_group, character_table
    from chered.verma import omega_table
    for spec in workloads.QUERY_GROUPS:
        W = build_group(spec)
        character_table(W)
        omega_table(W)


def run_job(job_id: str, out) -> dict:
    from chered.reflgrp import build_group
    spec, kind = job_id.split("/")
    W = build_group(spec)
    _ready(out)
    t0 = time.perf_counter()
    ok, result = workloads.run_job(W, kind)
    t1 = time.perf_counter()
    return {"job": job_id, "span": [t0, t1], "ok": bool(ok),
            "canon": result, "rss_mb": _rss_mb()}


def run_queries(args, out) -> dict:
    from chered import cli
    pool = workloads.load_query_pool()
    _setup_queries()
    _ready(out)
    spans, done = [], []
    t_start = time.perf_counter()
    deadline = t_start + args.seconds
    limit = args.max_requests or math.inf
    for batch in workloads.request_passes(pool, args.seed):
        if len(done) >= args.min_requests and (
                len(done) >= limit or time.perf_counter() >= deadline):
            break
        for cat, idx in batch:
            argv = pool[cat][idx][0]
            buf = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(buf):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
            spans.append([t0, time.perf_counter()])
            done.append((cat, idx, code, buf.getvalue()))
    loop = [t_start, time.perf_counter()]
    failures = []
    for cat, idx, code, text in done:
        argv, golden = pool[cat][idx]
        try:
            # through JSON, as the golden file was
            got = json.loads(json.dumps(
                canon.query_output(argv, json.loads(text))))
        except (ValueError, KeyError, TypeError) as exc:
            got = f"unparsable output: {exc}"
        if code != 0 or got != golden:
            failures.append({"argv": argv, "exit": code, "got": got,
                             "golden": golden})
    return {"spans": spans, "loop": loop,
            "requests": len(done), "failures": failures[:5],
            "failed": len(failures), "rss_mb": _rss_mb()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("warmup", "job", "queries",
                                         "queries-setup"))
    parser.add_argument("job", nargs="?")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-requests", type=int, default=1)
    parser.add_argument("--max-requests", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    out = sys.stdout
    sys.stdout = sys.stderr
    speed = probe.SpeedProbe()
    speed.start()
    _import_program()
    tracer = None
    if args.trace:
        tracer = layers.Tracer()
        tracer.install()
    if args.mode == "warmup":
        _ready(out)
        result = {}
    elif args.mode == "queries-setup":
        _setup_queries()
        _ready(out)
        result = {}
    elif args.mode == "job":
        result = run_job(args.job, out)
    else:
        result = run_queries(args, out)
    speed.stop()
    result["probes"] = speed.samples
    if tracer is not None:
        result["trace"] = tracer.snapshot()
        result["trace_missing"] = tracer.missing
        result["straighten_cache_entries"] = layers.straighten_cache_entries()
    out.write(json.dumps(result) + "\n")
    out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
