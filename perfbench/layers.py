"""Per-layer tracing of the program, from the benchmark's own files.

`Tracer.install` wraps the public entry points of each `chered` module.  A
module-level function is rebound in its defining module and in every `chered`
module that imported it by name (`center.multiply`, `galois.discriminant`,
`cli.cm_families`, ...), because patching only the defining module misses
those calls.  Methods are patched on their class.

Each wrapper counts calls and self time: its span minus the spans of the
wrapped calls nested inside it.  Some also record a size (terms of the result)
or a useful-work ratio.  The layers are single-threaded and have no queues,
so there is no wait time to record.
"""
from __future__ import annotations

import sys
import time

# (module, attribute, layer key, extra measure); aliases such as __radd__
# are separate class attributes and get their own wrapper on the same key
TARGETS = (
    ("chered.exactnum", "Cyclotomic.__add__", "exactnum.cyclo_add", "rational"),
    ("chered.exactnum", "Cyclotomic.__radd__", "exactnum.cyclo_add", "rational"),
    ("chered.exactnum", "Cyclotomic.__mul__", "exactnum.cyclo_mul", "rational"),
    ("chered.exactnum", "Cyclotomic.__rmul__", "exactnum.cyclo_mul", "rational"),
    ("chered.exactnum", "Cyclotomic.inverse", "exactnum.cyclo_inverse", "rational"),
    ("chered.exactnum", "Cyclotomic.__sub__", "exactnum.cyclo_other", None),
    ("chered.exactnum", "Cyclotomic.__rsub__", "exactnum.cyclo_other", None),
    ("chered.exactnum", "Cyclotomic.__neg__", "exactnum.cyclo_other", None),
    ("chered.exactnum", "Cyclotomic.__truediv__", "exactnum.cyclo_other", None),
    ("chered.exactnum", "Cyclotomic.__rtruediv__", "exactnum.cyclo_other", None),
    ("chered.exactnum", "Cyclotomic.__pow__", "exactnum.cyclo_other", None),
    ("chered.multipoly", "MPoly.__add__", "multipoly.add", None),
    ("chered.multipoly", "MPoly.__radd__", "multipoly.add", None),
    ("chered.multipoly", "MPoly.__mul__", "multipoly.mul", "terms"),
    ("chered.multipoly", "MPoly.__rmul__", "multipoly.mul", "terms"),
    ("chered.multipoly", "MPoly.substitute", "multipoly.substitute", None),
    ("chered.multipoly", "resultant", "multipoly.resultant", None),
    ("chered.multipoly", "discriminant", "multipoly.resultant", None),
    ("chered.multipoly", "poly_sqrt", "multipoly.poly_sqrt", None),
    ("chered.multipoly", "charpoly_berkowitz", "multipoly.berkowitz", None),
    ("chered.multipoly", "TruncSeries2.invert", "multipoly.series_invert", None),
    ("chered.center", "substitute_params", "center.substitute_params", None),
    ("chered.series", "molien_bigraded", "series.molien", None),
    ("chered.series", "fantome_bigraded", "series.fantome", None),
    ("chered.series", "hilbert_center", "series.hilbert_center", None),
    ("chered.cherednik", "multiply", "cherednik.multiply", "terms"),
    ("chered.verma", "BabyVermaModule.act", "verma.act", None),
    ("chered.verma", "omega_table", "verma.omega_table", None),
    ("chered.galois", "b2_galois_certificate", "galois.b2_certificate", None),
    ("chered.cmcells", "cm_families", "cmcells.cm_families", None),
    ("chered.cmcells", "b2_cells", "cmcells.cells", None),
    ("chered.cmcells", "rank1_cells", "cmcells.cells", None),
    ("chered.cmcells", "sum_rule_check", "cmcells.cells", None),
    ("chered.reflgrp", "param_convert", "reflgrp.param_convert", None),
    ("chered.reflgrp", "build_group", "reflgrp.build_group", None),
)

# per-layer metric -> (unit, better, the workloads whose end-to-end numbers
# it is predicted to move; the wrapper behind it must fire on each of them)
LAYER_METRICS = {
    "exactnum.cyclo_add.calls": ("count", "lower", ("rank1-center", "point-queries")),
    "exactnum.cyclo_mul.calls": ("count", "lower", ("rank1-center", "point-queries")),
    "exactnum.cyclo_inverse.calls": ("count", "lower", ("rank1-center", "point-queries")),
    "exactnum.cyclo.self_s": ("s", "lower", ("rank1-center", "point-queries")),
    "exactnum.cyclo.rational_share": ("ratio", "lower", ("rank1-center", "point-queries")),
    "center.substitute_params.calls": ("count", "lower", ("rank1-center",)),
    "center.substitute_params.self_s": ("s", "lower", ("rank1-center",)),
    "multipoly.mul.calls": ("count", "lower", ("b2-center", "rank1-center")),
    "multipoly.mul.self_s": ("s", "lower", ("b2-center", "rank1-center")),
    "multipoly.mul.terms_out": ("count", "lower", ("b2-center", "rank1-center")),
    "multipoly.add.calls": ("count", "lower", ("b2-center", "rank1-center")),
    "multipoly.add.self_s": ("s", "lower", ("b2-center", "rank1-center")),
    "multipoly.substitute.calls": ("count", "lower", ("b2-center", "rank1-center")),
    "multipoly.substitute.self_s": ("s", "lower", ("b2-center", "rank1-center")),
    "multipoly.resultant.self_s": ("s", "lower", ("b2-center",)),
    "multipoly.poly_sqrt.self_s": ("s", "lower", ("b2-center",)),
    "multipoly.berkowitz.self_s": ("s", "lower", ("b2-center",)),
    "multipoly.series_invert.calls": ("count", "lower", ("rank1-center",)),
    "multipoly.series_invert.self_s": ("s", "lower", ("rank1-center",)),
    "series.molien.self_s": ("s", "lower", ("rank1-center",)),
    "series.fantome.self_s": ("s", "lower", ("rank1-center",)),
    "series.hilbert_center.self_s": ("s", "lower", ("rank1-center",)),
    "cherednik.multiply.calls": ("count", "lower", ("b2-center", "rank1-center")),
    "cherednik.multiply.self_s": ("s", "lower", ("b2-center", "rank1-center")),
    "cherednik.multiply.terms_out": ("count", "lower", ("b2-center", "rank1-center")),
    "cherednik.straighten_cache.entries": ("count", "lower", ("b2-center", "rank1-center")),
    "verma.act.calls": ("count", "lower", ("point-queries", "b2-center")),
    "verma.act.self_s": ("s", "lower", ("point-queries", "b2-center")),
    "verma.omega_table.self_s": ("s", "lower", ("point-queries", "b2-center")),
    "galois.b2_certificate.self_s": ("s", "lower", ("b2-center",)),
    "cmcells.cm_families.self_s": ("s", "lower", ("point-queries",)),
    "cmcells.cells.self_s": ("s", "lower", ("point-queries",)),
    "reflgrp.param_convert.calls": ("count", "lower", ("point-queries",)),
    "reflgrp.param_convert.self_s": ("s", "lower", ("point-queries",)),
    "reflgrp.build_group.self_s": ("s", "lower", ("point-queries",)),
    "trace.untraced_s": ("s", "lower", ()),
    "trace.overhead_s": ("s", "lower", ()),
    "trace.overhead_share": ("ratio", "lower", ()),
    "trace.unfired": ("count", "lower", ()),
}


class Tracer:
    """Call counts, self time and sizes per layer key, for one process."""

    def __init__(self):
        self.stats: dict = {}   # key -> [calls, self_s, terms_out, results, rational]
        self.missing: list = []
        self._stack: list = []

    def _wrap(self, key, fn, extra):
        rec = self.stats.setdefault(key, [0, 0.0, 0, 0, 0])
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - t0
                nested = stack.pop()
                if stack:
                    stack[-1] += span
                rec[0] += 1
                rec[1] += span - nested
            if extra == "terms":
                rec[2] += len(getattr(result, "terms", ()))
            elif extra == "rational" and hasattr(result, "is_rational"):
                rec[3] += 1
                rec[4] += result.is_rational()
            return result

        return wrapper

    def install(self):
        """Wrap every target; a target the program no longer has is listed
        in `missing` and its metrics read 0."""
        mods = [m for name, m in list(sys.modules.items())
                if name == "chered" or name.startswith("chered.")]
        for modname, path, key, extra in TARGETS:
            mod = sys.modules.get(modname)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            orig = vars(owner).get(attr) if owner is not None else None
            if orig is None:
                self.missing.append(f"{modname}.{path}")
                continue
            wrapper = self._wrap(key, orig, extra)
            if owner_name:
                setattr(owner, attr, wrapper)
                continue
            for m in mods:
                for name, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, name, wrapper)

    def snapshot(self) -> dict:
        return {k: list(v) for k, v in self.stats.items()}


def straighten_cache_entries() -> int:
    """Size of the PBW straightening cache, read from outside (0 if the
    program has no such cache)."""
    mod = sys.modules.get("chered.cherednik")
    return len(getattr(mod, "_STRAIGHTEN_CACHE", ()))


def merge(total: dict, snap: dict, time_factor: float):
    """Add one process's stats, its self times multiplied by time_factor."""
    for key, vals in snap.items():
        acc = total.setdefault(key, [0, 0.0, 0, 0, 0])
        for i, v in enumerate(vals):
            acc[i] += v * time_factor if i == 1 else v


def layer_values(stats: dict, cache_entries: int) -> dict:
    """Per-layer metric values from merged wrapper stats."""
    def get(key, i):
        return stats.get(key, [0, 0.0, 0, 0, 0])[i]

    cyclo = ("exactnum.cyclo_add", "exactnum.cyclo_mul",
             "exactnum.cyclo_inverse", "exactnum.cyclo_other")
    results = sum(get(k, 3) for k in cyclo)
    out = {"exactnum.cyclo.self_s": sum(get(k, 1) for k in cyclo),
           "exactnum.cyclo.rational_share":
               sum(get(k, 4) for k in cyclo) / results if results else 0.0,
           "cherednik.straighten_cache.entries": cache_entries}
    for name in LAYER_METRICS:
        if name in out or name.startswith("trace."):
            continue
        key, _, what = name.rpartition(".")
        out[name] = {"calls": get(key, 0), "self_s": get(key, 1),
                     "terms_out": get(key, 2)}[what]
    return out


def unfired(stats: dict, workload: str) -> list:
    """Wrapped layer keys predicted for this workload that never fired."""
    keys = {name.rpartition(".")[0]
            for name, (_, _, workloads) in LAYER_METRICS.items()
            if workload in workloads}
    wrapped = {key for _, _, key, _ in TARGETS}
    return sorted(k for k in keys & wrapped if stats.get(k, [0])[0] == 0)
