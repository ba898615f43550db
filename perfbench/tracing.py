"""Run-time spans and counters around the public layers of ``hopfly``.

``Tracer.install()`` replaces the layer entry points with wrappers that
record a span per call (name, parent span, start and end in ns) and a few
counts.  Spans are kept in flat in-memory arrays and written out only after
the measured pass; ``uninstall()`` puts every original back.  Nothing in the
package source is edited.

A name is replaced in every ``hopfly`` module that bound it (``from ...
import`` copies), and a method is replaced under every alias in its class
(``__rmul__ = __mul__``).  Entry points a later version of the package no
longer has are skipped, and their metrics read 0.
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
import time
from array import array
from collections import Counter

CHECK_NAMES = (
    "symmetry", "closed-form", "series-inverse", "series-products", "recursions",
    "curl", "multiplicativity", "content-ratio", "routes", "vanishing",
    "minor-symmetry", "bialternant", "sl2", "homogeneity", "naturality", "index-sets",
)

# (metric suffix, lru-cached function in hopfly.hopf)
CACHES = (("pairing", "_hopf_value"), ("elementary_series", "elementary_series"),
          ("eval_unknot", "eval_unknot"))

PER_LAYER = (
    ("ring.poly_mul.calls", "count", "lower"),
    ("ring.poly_mul.term_products", "count", "lower"),
    ("ring.poly_mul.mean_term_product", "count", "lower"),
    ("ring.poly_mul.self_s", "s", "lower"),
    ("ring.poly_mul.term_products_per_s", "1/s", "higher"),
    ("ring.exact_div.calls", "count", "lower"),
    ("ring.exact_div.failed", "count", "lower"),
    ("ring.exact_div.success_ratio", "ratio", "higher"),
    ("ring.exact_div.self_s", "s", "lower"),
    ("ring.elem_add.calls", "count", "lower"),
    ("ring.elem_add.mismatched_den", "count", "lower"),
    ("ring.elem_add.self_s", "s", "lower"),
    ("ring.reduced.calls", "count", "lower"),
    ("ring.reduced.brackets_cancelled_ratio", "ratio", "higher"),
    ("ring.reduced.self_s", "s", "lower"),
    ("ring.det_fractions.calls", "count", "lower"),
    ("ring.det_fractions.self_s", "s", "lower"),
    ("ring.determinant.expansion_calls", "count", "lower"),
    ("ring.determinant.bareiss_calls", "count", "lower"),
    ("ring.determinant.max_order", "count", "lower"),
    ("ring.determinant.self_s", "s", "lower"),
    ("ring.substitute_v.calls", "count", "lower"),
    ("ring.substitute_v.self_s", "s", "lower"),
    ("series.mul.calls", "count", "lower"),
    ("series.mul.self_s", "s", "lower"),
    ("series.invert.calls", "count", "lower"),
    ("series.invert.self_s", "s", "lower"),
    ("series.linear_factor.self_s", "s", "lower"),
    ("series.schur_of_series.calls", "count", "lower"),
    ("series.schur_of_series.max_order", "count", "lower"),
    ("series.schur_of_series.self_s", "s", "lower"),
    ("hopf.hopf_invariant.calls", "count", "lower"),
    ("hopf.hopf_invariant.self_s", "s", "lower"),
    ("hopf.elementary_series.self_s", "s", "lower"),
    *[(f"hopf.cache.{c}.{k}", u, b) for c, _ in CACHES
      for k, u, b in (("hits", "count", "higher"), ("misses", "count", "lower"),
                      ("hit_ratio", "ratio", "higher"))],
    ("hopf.result_terms", "count", "lower"),
    ("sln.vandermonde_minor.calls", "count", "lower"),
    ("sln.vandermonde_minor.max_n", "count", "lower"),
    ("sln.vandermonde_minor.self_s", "s", "lower"),
    ("sln.hopf_sln_minor.self_s", "s", "lower"),
    ("sln.hopf_sln_substitution.self_s", "s", "lower"),
    *[(f"verify.check.{name}.s", "s", "lower") for name in CHECK_NAMES],
    ("partitions.self_s", "s", "lower"),
    ("cli.emit.self_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

# Counts that must repeat exactly between two traced passes on one input.
EXACT_COUNTS = (
    "ring.poly_mul.calls", "ring.poly_mul.term_products", "ring.exact_div.calls",
    "ring.exact_div.failed", "ring.elem_add.calls", "ring.elem_add.mismatched_den",
    "ring.reduced.calls", "ring.determinant.expansion_calls",
    "ring.determinant.bareiss_calls", "series.mul.calls", "hopf.result_terms",
    *[f"hopf.cache.{c}.{k}" for c, _ in CACHES for k in ("hits", "misses")],
)


def _nterms(x) -> int:
    items = getattr(x, "items", None)
    return len(items()) if callable(items) else 1


def _ratio(num, den) -> float:
    return num / den if den else 0.0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.stack = [-1]
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []
        self._caches: dict[str, object] = {}

    # -- wrapping -----------------------------------------------------------

    def _span(self, name: str, fn, hook=None):
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if hook is not None and result is not NotImplemented:
                hook(args, kwargs, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _replace(self, orig, new):
        """Bind ``new`` wherever a hopfly module binds ``orig``."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "hopfly" or modname.startswith("hopfly.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, new)
                    self._patches.append((mod, attr, orig))

    def function(self, module, attr: str, name: str, hook=None):
        orig = getattr(module, attr, None)
        if callable(orig):
            self._replace(orig, self._span(name, orig, hook))

    def method(self, cls, attr: str, name: str, hook=None):
        raw = cls.__dict__.get(attr)
        if isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(self._span(name, raw.__func__, hook))
        elif inspect.isfunction(raw):
            new = self._span(name, raw, hook)
        else:
            return
        for alias, value in list(cls.__dict__.items()):
            if value is raw:
                setattr(cls, alias, new)
                self._patches.append((cls, alias, raw))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- the hopfly layers ----------------------------------------------------

    def install(self):
        import hopfly.cli as cli
        import hopfly.hopf as hopf
        import hopfly.partitions as partitions
        import hopfly.ring as ring
        import hopfly.series as series
        import hopfly.sln as sln
        import hopfly.verify as verify

        counts = self.counts
        stack, span_name, names = self.stack, self.span_name, self.names

        def on_mul(args, kwargs, result):
            counts["term_products"] += _nterms(args[0]) * _nterms(args[1])

        def on_div(args, kwargs, result):
            if result is None:
                counts["div_failed"] += 1

        def on_add(args, kwargs, result):
            other = args[1]
            if tuple(args[0].den) != tuple(getattr(other, "den", ())):
                counts["add_mismatched"] += 1

        def on_reduced(args, kwargs, result):
            before = len(args[0].den)
            counts["reduced_in"] += before
            counts["reduced_cancelled"] += before - len(result.den)

        def on_determinant(args, kwargs, result):
            order = len(args[0])
            counts["det_max_order"] = max(counts["det_max_order"], order)
            if any(i >= 0 and names[span_name[i]] == "series.schur_of_series" for i in stack):
                counts["schur_max_order"] = max(counts["schur_max_order"], order)

        def on_minor(args, kwargs, result):
            n = args[2] if len(args) > 2 else kwargs.get("n", 0)
            counts["vdm_max_n"] = max(counts["vdm_max_n"], n)

        def on_hopf(args, kwargs, result):
            parent = stack[-1]
            if parent < 0 or names[span_name[parent]] != "hopf.hopf_invariant":
                counts["hopf_result_terms"] += _nterms(getattr(result, "value", result).num)

        for cls in vars(ring).values():
            if isinstance(cls, type) and cls.__module__ == ring.__name__ \
                    and "exact_div" in cls.__dict__:
                self.method(cls, "__mul__", "ring.poly_mul", on_mul)
                self.method(cls, "exact_div", "ring.exact_div", on_div)
                self.method(cls, "substitute_v", "ring.substitute_v")
        elem = getattr(ring, "RingElem", None)
        if isinstance(elem, type):
            self.method(elem, "__add__", "ring.elem_add", on_add)
            self.method(elem, "reduced", "ring.reduced", on_reduced)
            self.method(elem, "substitute_v", "ring.substitute_v")
        self.function(ring, "det_fractions", "ring.det_fractions")
        self.function(ring, "determinant", "ring.determinant", on_determinant)
        for attr, key in (("_det_expansion", "det_expansion"), ("_det_bareiss", "det_bareiss")):
            orig = getattr(ring, attr, None)
            if callable(orig):
                self._replace(orig, self._counter(key, orig))

        ts = getattr(series, "TruncatedSeries", None)
        if isinstance(ts, type):
            self.method(ts, "mul", "series.mul")
            self.method(ts, "invert", "series.invert")
            self.method(ts, "linear_factor", "series.linear_factor")
        self.function(series, "schur_of_series", "series.schur_of_series")

        for key, attr in CACHES:
            if hasattr(getattr(hopf, attr, None), "cache_info"):
                self._caches[key] = getattr(hopf, attr)
        # verify reaches the pairing through _hopf_value, not hopf_invariant.
        self.function(hopf, "hopf_invariant", "hopf.hopf_invariant", on_hopf)
        self.function(hopf, "_hopf_value", "hopf.hopf_invariant", on_hopf)
        self.function(hopf, "elementary_series", "hopf.elementary_series")

        self.function(sln, "vandermonde_minor", "sln.vandermonde_minor", on_minor)
        self.function(sln, "hopf_sln_minor", "sln.hopf_sln_minor")
        self.function(sln, "hopf_sln_substitution", "sln.hopf_sln_substitution")

        for name, fn in getattr(verify, "ALL_CHECKS", ()):
            self._replace(fn, self._span(f"verify.check.{name}", fn))
        self.function(verify, "run_all", "verify.run_all")

        for attr, value in list(vars(partitions).items()):
            if attr.startswith("_") or getattr(value, "__module__", None) != partitions.__name__:
                continue
            if inspect.isfunction(value) and not inspect.isgeneratorfunction(value):
                self.function(partitions, attr, "partitions")
            elif isinstance(value, type):
                for mattr, raw in list(value.__dict__.items()):
                    func = getattr(raw, "__func__", raw)
                    if not mattr.startswith("_") and inspect.isfunction(func) \
                            and not inspect.isgeneratorfunction(func):
                        self.method(value, mattr, "partitions")

        self.function(cli, "run", "cli.emit")
        return self

    # -- results --------------------------------------------------------------

    def cache_stats(self) -> dict:
        out = {}
        for key, fn in self._caches.items():
            info = fn.cache_info()
            out[key] = (info.hits, info.misses)
        return out

    def totals(self):
        """Per span name: self ns, inclusive ns of outermost calls, and the
        number of outermost calls (a direct re-entry into the same layer
        counts once)."""
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        n = len(names)
        child = [0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        self_ns, incl_ns, calls = Counter(), Counter(), Counter()
        for i in range(n):
            nid = names[i]
            dur = ends[i] - starts[i]
            self_ns[nid] += dur - child[i]
            p = parents[i]
            if p < 0 or names[p] != nid:
                calls[nid] += 1
                incl_ns[nid] += dur
        label = self.names
        return ({label[k]: v for k, v in self_ns.items()},
                {label[k]: v for k, v in incl_ns.items()},
                {label[k]: v for k, v in calls.items()})

    def layer_metrics(self) -> dict:
        """Every per-layer metric except trace.overhead_ratio, as plain numbers."""
        self_ns, incl_ns, calls = self.totals()
        c = self.counts

        def s(name):
            return self_ns.get(name, 0) / 1e9

        m = {
            "ring.poly_mul.calls": calls.get("ring.poly_mul", 0),
            "ring.poly_mul.term_products": c["term_products"],
            "ring.poly_mul.mean_term_product": _ratio(c["term_products"], calls.get("ring.poly_mul", 0)),
            "ring.poly_mul.self_s": s("ring.poly_mul"),
            "ring.poly_mul.term_products_per_s": _ratio(c["term_products"], s("ring.poly_mul")),
            "ring.exact_div.calls": calls.get("ring.exact_div", 0),
            "ring.exact_div.failed": c["div_failed"],
            "ring.exact_div.success_ratio": _ratio(calls.get("ring.exact_div", 0) - c["div_failed"],
                                                   calls.get("ring.exact_div", 0)),
            "ring.exact_div.self_s": s("ring.exact_div"),
            "ring.elem_add.calls": calls.get("ring.elem_add", 0),
            "ring.elem_add.mismatched_den": c["add_mismatched"],
            "ring.elem_add.self_s": s("ring.elem_add"),
            "ring.reduced.calls": calls.get("ring.reduced", 0),
            "ring.reduced.brackets_cancelled_ratio": _ratio(c["reduced_cancelled"], c["reduced_in"]),
            "ring.reduced.self_s": s("ring.reduced"),
            "ring.det_fractions.calls": calls.get("ring.det_fractions", 0),
            "ring.det_fractions.self_s": s("ring.det_fractions"),
            "ring.determinant.expansion_calls": c["det_expansion"],
            "ring.determinant.bareiss_calls": c["det_bareiss"],
            "ring.determinant.max_order": c["det_max_order"],
            "ring.determinant.self_s": s("ring.determinant"),
            "ring.substitute_v.calls": calls.get("ring.substitute_v", 0),
            "ring.substitute_v.self_s": s("ring.substitute_v"),
            "series.mul.calls": calls.get("series.mul", 0),
            "series.mul.self_s": s("series.mul"),
            "series.invert.calls": calls.get("series.invert", 0),
            "series.invert.self_s": s("series.invert"),
            "series.linear_factor.self_s": s("series.linear_factor"),
            "series.schur_of_series.calls": calls.get("series.schur_of_series", 0),
            "series.schur_of_series.max_order": c["schur_max_order"],
            "series.schur_of_series.self_s": s("series.schur_of_series"),
            "hopf.hopf_invariant.calls": calls.get("hopf.hopf_invariant", 0),
            "hopf.hopf_invariant.self_s": s("hopf.hopf_invariant"),
            "hopf.elementary_series.self_s": s("hopf.elementary_series"),
            "hopf.result_terms": c["hopf_result_terms"],
            "sln.vandermonde_minor.calls": calls.get("sln.vandermonde_minor", 0),
            "sln.vandermonde_minor.max_n": c["vdm_max_n"],
            "sln.vandermonde_minor.self_s": s("sln.vandermonde_minor"),
            "sln.hopf_sln_minor.self_s": s("sln.hopf_sln_minor"),
            "sln.hopf_sln_substitution.self_s": s("sln.hopf_sln_substitution"),
            "partitions.self_s": s("partitions"),
            "cli.emit.self_s": s("cli.emit"),
        }
        stats = self.cache_stats()
        for key, _ in CACHES:
            hits, misses = stats.get(key, (0, 0))
            m[f"hopf.cache.{key}.hits"] = hits
            m[f"hopf.cache.{key}.misses"] = misses
            m[f"hopf.cache.{key}.hit_ratio"] = _ratio(hits, hits + misses)
        for name in CHECK_NAMES:
            m[f"verify.check.{name}.s"] = incl_ns.get(f"verify.check.{name}", 0) / 1e9
        return m

    def dump(self, path: str):
        """Write every span, columnar, as gzip-compressed JSON."""
        data = {
            "names": self.names,
            "name": self.span_name.tolist(),
            "parent": self.span_parent.tolist(),
            "start_ns": self.span_start.tolist(),
            "end_ns": self.span_end.tolist(),
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(data, fh)
