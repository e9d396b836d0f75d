"""In-memory span tracer for the ljchain layers, installed from outside.

The tracer never edits the package's source.  It walks the namespace of
every loaded ``ljchain`` module and replaces each name that refers to a
routine of another layer module with a wrapper that records a span.
Because the walk goes by namespace and not by a fixed list of names, a
refactor that moves or renames functions is still traced.

Layers are the package's modules.  ``transition`` and ``hardcore`` hold
two layers each (the L3 solvers and the L4 sweeps and fits), so calls
between the public functions of those modules are boundaries as well and
their own public names are wrapped too.  Calls inside any other module
stay inside one layer and are not spans; this also keeps the per-term
``riemann_zeta`` lookups of the odd series out of the trace.

Every callable argument passed into ``quadrature`` is an integrand; it is
wrapped as a span of the module that defined it, which both counts
integrand evaluations and keeps integrand time out of the integrator's
self time.
"""

from __future__ import annotations

import sys
import time

LAYERS = ("specfun", "quadrature", "energy", "landau", "transition", "hardcore", "oracle")
MULTI_LAYER = ("transition", "hardcore")
PACKAGE = "ljchain"


def layer_of(obj) -> str | None:
    """Layer module name of the module that defined obj, or None."""
    mod = getattr(obj, "__module__", None) or ""
    short = mod[len(PACKAGE) + 1:] if mod.startswith(PACKAGE + ".") else ""
    return short if short in LAYERS else None


def _routine(obj) -> bool:
    return callable(obj) and not isinstance(obj, type)


class Tracer:
    """Spans and per-callee counters for one traced phase.

    Spans are (span, parent, name id, start ns, end ns, task id) tuples
    held in memory; past `max_spans` only the aggregates keep counting.
    Self time is a span's duration minus the time its child spans cover.
    """

    def __init__(self, max_spans: int = 200_000):
        self.max_spans = max_spans
        self.names: list[str] = []          # callee, e.g. "specfun.theta2"
        self.layers: list[str] = []
        self.sites: list[str] = []          # module whose namespace held the name
        self.calls: list[int] = []
        self.errors: list[int] = []
        self.self_ns: list[int] = []
        self.spans: list[tuple[int, int, int, int, int, int]] = []
        self.dropped = 0
        self.task = -1
        self._ids: dict[tuple[str, str], int] = {}
        self._stack: list[list[int]] = []
        self._next_span = 0
        self._patches: list[tuple[dict, str, object]] = []

    def _name_id(self, name: str, layer: str, site: str) -> int:
        key = (site, name)
        nid = self._ids.get(key)
        if nid is None:
            nid = self._ids[key] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
            self.sites.append(site)
            self.calls.append(0)
            self.errors.append(0)
            self.self_ns.append(0)
        return nid

    def span(self, fn, name: str, layer: str, site: str):
        """fn wrapped so that every call records one span."""
        nid = self._name_id(name, layer, site)
        stack = self._stack
        calls, errors, self_ns, spans = self.calls, self.errors, self.self_ns, self.spans
        clock = time.perf_counter_ns
        tracer = self
        integrator = layer == "quadrature"

        def traced(*args, **kwargs):
            if integrator:
                args = tuple(tracer.integrand(a) if _routine(a) else a for a in args)
            sid = tracer._next_span
            tracer._next_span = sid + 1
            parent = stack[-1][2] if stack else -1
            frame = [0, 0, sid]                 # start, child time, span id
            stack.append(frame)
            frame[0] = start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[nid] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                self_ns[nid] += dur - frame[1]
                calls[nid] += 1
                if stack:
                    stack[-1][1] += dur
                if len(spans) < tracer.max_spans:
                    spans.append((sid, parent, nid, start, end, tracer.task))
                else:
                    tracer.dropped += 1

        traced.__wrapped__ = fn
        return traced

    def integrand(self, g):
        layer = layer_of(g) or "bench"
        return self.span(g, f"{layer}.integrand", layer, "quadrature")

    def install(self) -> None:
        """Wrap every cross-layer name in every loaded ljchain module."""
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            site = modname[len(PACKAGE) + 1:] if modname != PACKAGE else PACKAGE
            ns = vars(mod)
            public = set(getattr(mod, "__all__", ()))
            for name, obj in list(ns.items()):
                layer = layer_of(obj)
                if layer is None or not _routine(obj):
                    continue
                if layer == site and not (site in MULTI_LAYER and name in public):
                    continue
                callee = f"{layer}.{getattr(obj, '__name__', name)}"
                ns[name] = self.span(obj, callee, layer, site)
                self._patches.append((ns, name, obj))

    def uninstall(self) -> None:
        while self._patches:
            ns, name, obj = self._patches.pop()
            ns[name] = obj

    # ---------------------------------------------------------- summaries

    def totals(self) -> dict[str, list[int]]:
        """callee name -> [calls, errors, self ns], summed over call sites."""
        out: dict[str, list[int]] = {}
        for i, name in enumerate(self.names):
            t = out.setdefault(name, [0, 0, 0])
            t[0] += self.calls[i]
            t[1] += self.errors[i]
            t[2] += self.self_ns[i]
        return out

    def site_calls(self, site: str, names) -> int:
        return sum(self.calls[i] for i, s in enumerate(self.sites)
                   if s == site and self.names[i] in names)

    def write_spans(self, fh) -> None:
        """CSV rows span,parent,name,layer,start_ns,end_ns,task (no header)."""
        for sid, parent, nid, start, end, task in self.spans:
            fh.write(f"{sid},{parent},{self.names[nid]},{self.layers[nid]},"
                     f"{start},{end},{task}\n")


def cache_state(module_name: str, match: str) -> tuple[int, int, int]:
    """(hits, misses, entries) summed over the lru caches of a module.

    Caches are found by walking the module namespace for objects with the
    public ``cache_info()``, keeping those whose name contains `match`.
    A module that drops its cache reports zeros.  Read it while no tracer
    is installed: a wrapped name hides its cache.
    """
    mod = sys.modules.get(f"{PACKAGE}.{module_name}")
    hits = misses = entries = 0
    if mod is None:
        return 0, 0, 0
    for name, obj in vars(mod).items():
        info = getattr(obj, "cache_info", None)
        if info is None or match not in name:
            continue
        ci = info()
        hits += ci.hits
        misses += ci.misses
        entries += ci.currsize
    return hits, misses, entries


# ------------------------------------------------- per-layer metrics

CACHES = {"specfun.riemann_zeta": ("specfun", "riemann_zeta"),
          "hardcore.junction": ("hardcore", "junction")}
ODD_SERIES = ("specfun.half_point_odd_series", "specfun.small_gap_odd_series")
INTEGRAND = ".integrand"


def caches() -> dict[str, tuple[int, int, int]]:
    return {key: cache_state(*where) for key, where in CACHES.items()}


def summary(tracer: Tracer, caches_before: dict) -> dict:
    """What one traced phase leaves: per-callee totals and cache growth."""
    after = caches()
    return {
        "totals": tracer.totals(),
        "odd_series_in_transition": tracer.site_calls("transition", ODD_SERIES),
        "caches": {k: [after[k][0] - caches_before[k][0],
                       after[k][1] - caches_before[k][1], after[k][2]] for k in after},
        "spans": len(tracer.spans),
        "spans_dropped": tracer.dropped,
    }


def merge(summaries: list[dict]) -> dict:
    out = {"totals": {}, "odd_series_in_transition": 0,
           "caches": {k: [0, 0, 0] for k in CACHES}, "spans": 0, "spans_dropped": 0}
    for s in summaries:
        for name, vals in s["totals"].items():
            t = out["totals"].setdefault(name, [0, 0, 0])
            for i, v in enumerate(vals):
                t[i] += v
        for k, vals in s["caches"].items():
            out["caches"][k] = [a + b for a, b in zip(out["caches"][k], vals)]
        for k in ("odd_series_in_transition", "spans", "spans_dropped"):
            out[k] += s[k]
    return out


def counts(s: dict) -> dict:
    """The part of a summary that must repeat exactly for one seed."""
    return {"calls": {k: v[:2] for k, v in sorted(s["totals"].items())},
            "odd_series_in_transition": s["odd_series_in_transition"],
            "caches": s["caches"]}


def layer_metrics(counted: dict, timed: dict, timed_tasks: int) -> dict[str, float]:
    """Per-layer metrics: counts from the fixed count pass, self time per
    task from the traced timed phase."""
    tot = counted["totals"]

    def calls(layer: str) -> int:
        return sum(v[0] for k, v in tot.items()
                   if k.startswith(layer + ".") and not k.endswith(INTEGRAND))

    def self_s(pred) -> float:
        ns = sum(v[2] for k, v in timed["totals"].items() if pred(k))
        return ns / 1e9 / timed_tasks if timed_tasks else 0.0

    def per_layer(layer: str) -> float:
        return self_s(lambda k: k.startswith(layer + "."))

    solve = tot.get("transition.solve_delta", [0, 0, 0])
    zeta_hits, zeta_misses, zeta_entries = counted["caches"]["specfun.riemann_zeta"]
    quad_calls = calls("quadrature")
    evals = sum(v[0] for k, v in tot.items() if k.endswith(INTEGRAND))
    return {
        "transition.solves": solve[0],
        "transition.self_s": per_layer("transition"),
        "transition.odd_series_calls_per_solve":
            counted["odd_series_in_transition"] / solve[0] if solve[0] else 0.0,
        "transition.failed": solve[1],
        "specfun.calls": calls("specfun"),
        "specfun.self_s": per_layer("specfun"),
        "specfun.odd_series.self_s": self_s(lambda k: k in ODD_SERIES),
        "specfun.riemann_zeta.hit_ratio":
            zeta_hits / (zeta_hits + zeta_misses) if zeta_hits + zeta_misses else 0.0,
        "specfun.riemann_zeta.cache_entries": zeta_entries,
        "hardcore.junction.calls": tot.get("hardcore.junction", [0])[0],
        "hardcore.self_s": per_layer("hardcore"),
        "hardcore.junction.cache_entries": counted["caches"]["hardcore.junction"][2],
        "quadrature.calls": quad_calls,
        "quadrature.self_s": per_layer("quadrature"),
        "quadrature.integrand_evals_per_call": evals / quad_calls if quad_calls else 0.0,
        "energy.calls": calls("energy"),
        "energy.self_s": per_layer("energy"),
        "landau.calls": calls("landau"),
        "landau.self_s": per_layer("landau"),
        "oracle.calls": calls("oracle"),
        "oracle.self_s": per_layer("oracle"),
    }
