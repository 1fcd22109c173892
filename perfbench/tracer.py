"""Outside-in layer trace for the ratmap benchmark.

The tracer wraps public functions and methods of the ``ratmap`` modules from
here, without touching the package source.  A module-level function is
replaced in every ``ratmap`` module that holds a reference to it, because
several modules import names directly (``report``, ``restricted`` and
``atlas`` each bind ``orbit_fate`` and ``asymptotic_valency`` at import).
A method is replaced on its class.  Spans stay in memory until the end of
the run; ``metrics`` aggregates them into per-layer totals and self times.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

# (span name, module, attribute); several attributes may share one span name
SPAN_POINTS = (
    ("roots.find_roots", "ratmap.roots", "find_roots"),
    ("poly.squarefree", "ratmap.poly", "squarefree_decomposition_exact"),
    ("poly.gcd_exact", "ratmap.poly", "Polynomial.gcd_exact"),
    ("poly.vanishing_order", "ratmap.poly", "vanishing_order_exact"),
    ("rational.iterated_pair", "ratmap.rational", "RationalMap.iterated_pair"),
    ("rational.valency_at", "ratmap.rational", "RationalMap.valency_at"),
    ("rational.preimages", "ratmap.rational", "RationalMap.preimages"),
    ("dynamics.critical_points", "ratmap.dynamics", "critical_points"),
    ("dynamics.periodic_cycles", "ratmap.dynamics", "periodic_cycles"),
    ("dynamics.orbit_fate", "ratmap.dynamics", "orbit_fate"),
    ("dynamics.asymptotic_valency", "ratmap.dynamics", "asymptotic_valency"),
    ("restricted.exposed_orbits", "ratmap.restricted", "exposed_orbits"),
    ("restricted.ro_related", "ratmap.restricted", "ro_related"),
    ("atlas.build_atlas", "ratmap.atlas", "build_atlas"),
    ("synth.full_decomposition", "ratmap.synth", "full_decomposition"),
    ("primitive.primitive_catalog", "ratmap.primitive", "primitive_catalog"),
    ("report.parse_map", "ratmap.report", "parse_map"),
    ("report.run_analysis", "ratmap.report", "run_analysis"),
    ("report.emit", "ratmap.report", "Report.to_json_bytes"),
    ("report.emit", "ratmap.report", "Report.to_text"),
    ("render.render_julia", "ratmap.render", "render_julia"),
    ("cli.main", "ratmap.cli", "main"),
)

# the hot per-step call: counted, never timed
COUNT_POINTS = (
    ("rational.evaluate", "ratmap.rational", "RationalMap.evaluate"),
)

# periodic_cycles spans nested in render_julia: the cycle solve for the image
CYCLE_SOLVE = "render.cycle_solve"

SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in SPAN_POINTS)) + (CYCLE_SOLVE,)
CALL_COUNTS = (
    "roots.find_roots", "poly.squarefree", "poly.gcd_exact", "rational.valency_at",
    "rational.preimages", "rational.evaluate", "dynamics.orbit_fate",
    "restricted.ro_related",
)


def metric_units():
    """Every metric ``Tracer.metrics`` reports, with its unit."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}_s"] = "s"
        units[f"{name}_self_s"] = "s"
    for name in CALL_COUNTS:
        units[f"{name}_calls"] = "count"
    units.update({
        "roots.degree_sum": "count",
        "roots.degree_max": "count",
        "roots.failures": "count",
        "roots.exact_root_ratio": "ratio",
        "dynamics.orbit_steps": "count",
        "render.mpix_per_s": "Mpix/s",
        "trace.overhead_s": "s",
        "trace.missing_layers": "count",
    })
    return units


# span record fields
_NAME, _START, _END, _PARENT, _CHILD, _NESTED = range(6)


class Tracer:
    """Installs the wrappers, records spans and counts, and restores the originals."""

    def __init__(self):
        self.spans = []
        self.calls = Counter()
        self.failures = Counter()
        self.missing = []
        self.roots_degree_sum = 0
        self.roots_degree_max = 0
        self.exact_roots = 0
        self.exact_input_roots = 0
        self.orbit_steps = 0
        self.pixels = 0
        self._stack = []
        self._active = Counter()
        self._restore = []

    # -- observation hooks, called after a wrapped call returns -----------

    def _observe(self, name, args, result):
        if name == "roots.find_roots":
            if args[0].is_exact:
                self.exact_input_roots += len(result)
                self.exact_roots += sum(not isinstance(root, complex) for root, _, _ in result)
        elif name == "dynamics.orbit_fate":
            self.orbit_steps += result.steps_used
        elif name == "render.render_julia":
            cfg = args[1]
            self.pixels += cfg.width * cfg.height

    def _wrap_span(self, name, fn):
        spans, stack, active, clock = self.spans, self._stack, self._active, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "roots.find_roots":
                degree = args[0].degree
                self.roots_degree_sum += degree
                self.roots_degree_max = max(self.roots_degree_max, degree)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0, active[name] > 0]
            spans.append(rec)
            stack.append(len(spans) - 1)
            active[name] += 1
            rec[_START] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.failures[name] += 1
                raise
            finally:
                end = clock()
                rec[_END] = end
                active[name] -= 1
                stack.pop()
                if rec[_PARENT] >= 0:
                    spans[rec[_PARENT]][_CHILD] += end - rec[_START]
            self._observe(name, args, result)
            return result

        return wrapper

    def _wrap_count(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ------------------------------------------------------------

    def _patch(self, name, module_name, attr, make):
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            module = None
        owner_name, _, fn_name = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = getattr(owner, fn_name, None) if owner is not None else None
        if not callable(original):
            self.missing.append(f"{name} ({module_name}.{attr})")
            return
        wrapper = make(name, original)
        if owner_name:
            self._restore.append((owner, fn_name, original))
            setattr(owner, fn_name, wrapper)
            return
        # a function: replace every binding of it in the package's modules
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "ratmap" or mod_name.startswith("ratmap.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def install(self):
        self.missing = []
        for name, module_name, attr in SPAN_POINTS:
            self._patch(name, module_name, attr, self._wrap_span)
        for name, module_name, attr in COUNT_POINTS:
            self._patch(name, module_name, attr, self._wrap_count)

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- aggregation -----------------------------------------------------------

    def metrics(self, passes: int, overhead_s: float):
        """Per-layer metrics, each total divided by the number of traced passes."""
        total = Counter()
        self_time = Counter()
        calls = Counter(self.calls)
        spans = self.spans
        for rec in spans:
            name = rec[_NAME]
            dur = rec[_END] - rec[_START]
            names = [name]
            if name == "dynamics.periodic_cycles" and _has_ancestor(spans, rec, "render.render_julia"):
                names.append(CYCLE_SOLVE)
            for n in names:
                calls[n] += 1
                self_time[n] += dur - rec[_CHILD]
                if not rec[_NESTED]:
                    total[n] += dur
        per = 1.0 / max(1, passes)
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}_s"] = total[name] * per
            out[f"{name}_self_s"] = self_time[name] * per
        for name in CALL_COUNTS:
            out[f"{name}_calls"] = calls[name] * per
        render_s = total["render.render_julia"]
        out.update({
            "roots.degree_sum": self.roots_degree_sum * per,
            "roots.degree_max": self.roots_degree_max,
            "roots.failures": self.failures["roots.find_roots"] * per,
            "roots.exact_root_ratio": (
                self.exact_roots / self.exact_input_roots if self.exact_input_roots else 0.0
            ),
            "dynamics.orbit_steps": self.orbit_steps * per,
            "render.mpix_per_s": self.pixels / 1e6 / render_s if render_s > 0 else 0.0,
            "trace.overhead_s": overhead_s,
            "trace.missing_layers": len(self.missing),
        })
        return out


def _has_ancestor(spans, rec, name):
    parent = rec[_PARENT]
    while parent >= 0:
        if spans[parent][_NAME] == name:
            return True
        parent = spans[parent][_PARENT]
    return False
