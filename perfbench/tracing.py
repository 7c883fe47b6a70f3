"""Spans and counts at the pscert layer boundaries, recorded from the
benchmark's side.

`Tracer.install` replaces every public function of the span layers with a
wrapper that records a span (name, start, end, parent, run id), wherever
callers look the function up: in its own module and in every module that
imported it by name.  Internal calls are therefore recorded too, such as
`max_modulus` calling `isolate_segment_roots`.  The interval layer
(`exactnum`) gets count-only wrappers, because its operations are too
small and too many to time one by one.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
from collections import Counter

SPAN_LAYERS = ("pipeline", "powersum", "unipoly", "analytic", "membership",
               "criteria")
INTERVAL_METHODS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                    "__rmul__", "__truediv__", "__rtruediv__", "__neg__",
                    "__abs__", "__pow__")
INTERVAL_FUNCTIONS = ("pi_interval", "iexp", "ilog", "icos", "isin", "isqrt",
                      "iatan2", "nearest_integer_distance")


def _unknowns(args, kwargs, _out) -> int:
    """Columns of the linear system `graded_membership` solves: one per
    (generator, complementary monomial) pair."""
    target = args[0] if args else kwargs["target"]
    gens = args[1] if len(args) > 1 else kwargs["generators"]
    if target.is_zero():
        return 0
    deg, n = target.degree(), target.nvars
    return sum(math.comb(deg - g.degree() + n - 1, n - 1) for g in gens
               if not g.is_zero() and deg >= g.degree())


# span name -> (count name, amount taken from the call and its result)
COUNT_HOOKS = {
    "pipeline.Certificate.json_bytes":
        ("cert_bytes", lambda args, kwargs, out: len(out)),
    "unipoly.certify_irreducible":
        ("irreducible_primes", lambda args, kwargs, out: len(out.primes)),
    "analytic.close_window":
        ("window_m_count",
         lambda args, kwargs, out: out.details.get("m_count", 0)),
    "membership.graded_membership": ("unknowns", _unknowns),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, run]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._runs = 0
        self._restore: list[tuple] = []

    # -- wrappers -------------------------------------------------------------

    def _span(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        hook = COUNT_HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack:
                parent = stack[-1]
                run = spans[parent][4]
            else:
                parent, run = None, self._runs
                self._runs += 1
            rec = [name, time.perf_counter(), 0.0, parent, run]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                counts[hook[0]] += hook[1](args, kwargs, out)
            return out
        return traced

    def _counted(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts["interval_ops"] += 1
            return fn(*args, **kwargs)
        return counted

    def _set(self, owner, attr: str, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        from pscert import exactnum, pipeline
        wrappers = {}  # id(original) -> (original, wrapper)
        for layer in SPAN_LAYERS:
            mod = sys.modules[f"pscert.{layer}"]
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not name.startswith("_")
                        and fn.__module__ == mod.__name__):
                    wrappers[id(fn)] = (fn, self._span(f"{layer}.{name}", fn))
        for name in INTERVAL_FUNCTIONS:
            fn = getattr(exactnum, name)
            wrappers[id(fn)] = (fn, self._counted(fn))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "pscert" or mod_name.startswith("pscert."):
                for attr, value in list(vars(mod).items()):
                    hit = wrappers.get(id(value))
                    if hit is not None and hit[0] is value:
                        self._set(mod, attr, hit[1])
        for name in INTERVAL_METHODS:
            self._set(exactnum.RealInterval, name,
                      self._counted(getattr(exactnum.RealInterval, name)))
        self._set(pipeline.Certificate, "json_bytes",
                  self._span("pipeline.Certificate.json_bytes",
                             pipeline.Certificate.json_bytes))

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- analysis -------------------------------------------------------------

    def _self_times(self) -> list[float]:
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def _outermost(self, match) -> float:
        """Summed duration of the matching spans that have no matching
        ancestor, so nested calls are not counted twice."""
        total = 0.0
        for name, start, end, parent, _ in self.spans:
            if not match(name):
                continue
            while parent is not None and not match(self.spans[parent][0]):
                parent = self.spans[parent][3]
            if parent is None:
                total += end - start
        return total

    def metrics(self, pass_wall_s: float) -> dict:
        """Per-layer metrics of one traced pass."""
        calls = Counter(span[0] for span in self.spans)

        def incl(name):
            return self._outermost(lambda n: n == name)

        overhead = 0.0
        for i, (name, start, end, _, _) in enumerate(self.spans):
            if name == "pipeline.run_sweep":
                overhead += end - start - sum(
                    e - s for n, s, e, p, _ in self.spans
                    if p == i and n.startswith("pipeline.certify_"))
        layer_self = Counter()
        for (name, *_), own in zip(self.spans, self._self_times()):
            layer_self[name.split(".")[0]] += own
        top = sum(end - start for _, start, end, parent, _ in self.spans
                  if parent is None)
        out = {
            "pipeline.json_bytes_ms":
                1000 * incl("pipeline.Certificate.json_bytes"),
            "pipeline.sweep_overhead_s": overhead,
            "pipeline.cert_bytes": self.counts["cert_bytes"],
            "powersum.build_pq_calls": calls["powersum.build_pq"],
            "unipoly.irreducible_primes": self.counts["irreducible_primes"],
            "unipoly.factor_mod_p_calls": calls["unipoly.factor_mod_p"],
            "unipoly.poly_gcd_calls": calls["unipoly.poly_gcd"],
            "analytic.window_m_count": self.counts["window_m_count"],
            "analytic.isolate_segment_roots_calls":
                calls["analytic.isolate_segment_roots"],
            "exactnum.interval_ops": self.counts["interval_ops"],
            "membership.unknowns": self.counts["unknowns"],
            "criteria.s": self._outermost(lambda n: n.startswith("criteria.")),
            "trace.span_cover": top / pass_wall_s,
        }
        for name in ("powersum.build_pq", "powersum.pair_zset",
                     "powersum.regseq3_rational", "powersum.regseq3_mod_p",
                     "unipoly.certify_irreducible", "unipoly.factor_mod_p",
                     "unipoly.poly_gcd", "unipoly.resultant_bivariate",
                     "unipoly.quotient_poly_gcd", "analytic.close_window",
                     "analytic.isolate_segment_roots", "analytic.max_modulus",
                     "analytic.lmn3_c_max", "membership.graded_membership"):
            out[f"{name}_s"] = incl(name)
        for layer in SPAN_LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer]
        return out

    def write_sidecar(self, path, header: dict):
        """One JSON line for the header, then one per span, with times in
        seconds from the first span's start."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for i, ((name, start, end, parent, run), own) in enumerate(
                    zip(self.spans, self._self_times())):
                fh.write(json.dumps({"id": i, "name": name, "run": run,
                                     "parent": parent, "start": start - t0,
                                     "end": end - t0, "self": own}) + "\n")
