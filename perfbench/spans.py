"""Span tracing of plumbsw from the outside, for the per-layer metrics.

The tracer replaces the public entry points of each plumbsw module with
wrappers that record one span per call: name, start, end, parent span and
operation id.  A function imported by name into another module (``from
.graph import dual_restrict``) is replaced wherever it is looked up.  Spans
stay in memory until the run writes them out; nothing inside plumbsw
changes, and uninstall() puts every original back.
"""

from __future__ import annotations

import json
import sys
import time
import weakref

# span name -> (module, attribute path); a dotted path names a class method
ENTRY_POINTS = {
    # graph: the lattice core
    "graph.load": ("graph", "load_graph"),
    "graph.build": ("graph", "PlumbingGraph.__init__"),
    "graph.classes": ("graph", "PlumbingGraph.classes"),
    "graph.class_key": ("graph", "PlumbingGraph.class_key"),
    "graph.laufer": ("graph", "PlumbingGraph.laufer"),
    "graph.deep_point": ("graph", "PlumbingGraph.deep_point"),
    "graph.components": ("graph", "PlumbingGraph.components_minus"),
    "graph.pair": ("graph", "LatticeVector.pair"),
    "graph.chi": ("graph", "PlumbingGraph.chi"),
    "graph.dual_restrict": ("graph", "dual_restrict"),
    "graph.minimal_s_rep": ("graph", "minimal_s_rep"),
    "graph.class_of": ("graph", "class_of"),
    "graph.is_rational": ("graph", "is_rational"),
    # series: coefficients and the counting engine
    "series.coefficient": ("series", "coefficient"),
    "series.counting": ("series", "counting"),
    "series.single_hist": ("series", "single_histogram"),
    "series.sweep": ("series", "sweep_histogram"),
    "series.univariate": ("series", "UnivariateTable.__init__"),
    "series.support_store": ("series", "SupportStore.__init__"),
    # sw: invariant assembly
    "sw.sw_table": ("sw", "sw_table"),
    "sw.sw_invariant": ("sw", "sw_invariant"),
    "sw.sweep_hist": ("sw", "sweep_hist"),
    "sw.quad_term": ("sw", "quad_term"),
    "sw.component_term": ("sw", "component_term"),
    "sw.records": ("sw", "SwRecord.as_dict"),
    # sw: identity verification
    "sw.verify_counting_surgery": ("sw", "verify_counting_surgery"),
    "sw.counting_surgery_sweep": ("sw", "counting_surgery_sweep"),
    "sw.verify_pc_surgery": ("sw", "verify_pc_surgery"),
    "sw.reduction_rational": ("sw", "reduction_rational"),
    "sw.pc_reduced": ("sw", "pc_reduced"),
    "sw.pc_closed_form": ("sw", "pc_closed_form"),
    "sw.pc_univariate_fit": ("sw", "pc_univariate_fit"),
    "sw.pc_gorenstein": ("sw", "pc_gorenstein"),
    "sw.univariate_step": ("sw", "univariate_step"),
    "sw.surgery_report": ("sw", "SurgeryReport.as_dict"),
    # sw: quasipolynomials
    "sw.quasipoly_build": ("sw", "QuasiPoly.__post_init__"),
    "sw.quasipoly_eval": ("sw", "QuasiPoly.evaluate"),
    # cubes: the weighted-cube oracle
    "cubes.gorenstein_pc": ("cubes", "gorenstein_pc"),
    "cubes.swbar_via_cubes": ("cubes", "swbar_via_cubes"),
    "cubes.coefficient_via_cubes": ("cubes", "coefficient_via_cubes"),
    "cubes.swbar": ("cubes", "swbar"),
    "cubes.s_function": ("cubes", "s_function"),
    # cli: the command-line front end
    "cli.run": ("cli", "run"),
}

SW_ASSEMBLY = ("sw.sw_table", "sw.sw_invariant", "sw.sweep_hist", "sw.quad_term",
               "sw.component_term", "sw.records")
SW_VERIFY = ("sw.verify_counting_surgery", "sw.counting_surgery_sweep",
             "sw.verify_pc_surgery", "sw.reduction_rational", "sw.pc_reduced",
             "sw.pc_closed_form", "sw.pc_univariate_fit", "sw.pc_gorenstein",
             "sw.univariate_step", "sw.surgery_report")
SW_QUASIPOLY = ("sw.quasipoly_build", "sw.quasipoly_eval")


class Tracer:
    """In-memory span recorder.  Each span is a tuple
    (id, name, start, end, parent id or -1, operation id, self seconds)."""

    def __init__(self):
        self.spans = []
        self.counts = {"graph.classes.count": 0, "graph.laufer.steps": 0,
                       "graph.components.returned": 0, "graph.components.reused": 0,
                       "series.sweep.classes": 0, "series.univariate.cells": 0,
                       "cli.report_bytes": 0}
        self.op = -1
        self.wrapper_s = 0.0      # the wrappers' own time, outside every span
        self._stack = []          # [span id, child seconds] of open spans
        self._next = 0
        self._patches = []
        self._tables = weakref.WeakSet()
        self._components = weakref.WeakSet()

    # -- wrappers ---------------------------------------------------------------

    def _wrap(self, fn, name, after=None):
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            t_in = clock()
            sid = self._next
            self._next = sid + 1
            parent = stack[-1] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            returned = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                returned = True
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, name, t0, t1, parent[0] if parent else -1, self.op,
                              t1 - t0 - frame[1]))
                if returned and after is not None:
                    after(args, result)
                # the parent's child time covers this wrapper's own work too, so
                # no layer's self time holds tracer time; that goes to wrapper_s
                t_out = clock()
                if parent is not None:
                    parent[1] += t_out - t_in
                self.wrapper_s += (t_out - t_in) - (t1 - t0)
            return result

        traced.__wrapped__ = fn
        return traced

    def _after(self, name):
        """Work counters recorded at the same boundaries as the spans."""
        c = self.counts
        if name == "graph.classes":
            def after(args, table):
                if table not in self._tables:
                    self._tables.add(table)
                    c["graph.classes.count"] += table.order
            return after
        if name == "graph.laufer":
            def after(args, x):
                start = args[1]
                c["graph.laufer.steps"] += int(sum(a - b for a, b in zip(x.coords, start.coords)))
            return after
        if name == "graph.components":
            def after(args, forest):
                for comp in forest.components:
                    c["graph.components.returned"] += 1
                    if comp in self._components:
                        c["graph.components.reused"] += 1
                    else:
                        self._components.add(comp)
            return after
        if name == "series.sweep":
            def after(args, hist):
                c["series.sweep.classes"] += len(hist)
            return after
        if name == "series.univariate":
            def after(args, _none):
                table = args[0]
                c["series.univariate.cells"] += table.S * len(table.class_index)
            return after
        return None

    def install(self, package):
        """Wrap every entry point of the imported plumbsw package."""
        modules = {name: sys.modules[package.__name__ + "." + name]
                   for name in ("graph", "series", "sw", "cubes", "cli")}
        family = [m for k, m in sys.modules.items()
                  if k == package.__name__ or k.startswith(package.__name__ + ".")]
        for name, (mod_name, path) in ENTRY_POINTS.items():
            mod = modules[mod_name]
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._patches.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(orig, name, self._after(name)))
                continue
            orig = getattr(mod, path)
            wrapped = self._wrap(orig, name, self._after(name))
            for m in family:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        self._patches.append((m, attr, orig))
                        setattr(m, attr, wrapped)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches = []

    # -- results ----------------------------------------------------------------

    def write(self, path, t_origin):
        """One JSON list per line: [id, name, start_s, end_s, parent, op]."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, t0, t1, parent, op, _self in self.spans:
                fh.write(json.dumps([sid, name, round(t0 - t_origin, 7),
                                     round(t1 - t_origin, 7), parent, op]) + "\n")

    def metrics(self):
        """Per-layer metrics: self seconds, calls and work counters."""
        calls, self_s = {}, {}
        layer_self = {"graph": 0.0, "series": 0.0, "sw": 0.0, "cubes": 0.0, "cli": 0.0}
        for _sid, name, _t0, _t1, _parent, _op, own in self.spans:
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + own
            layer_self[name.split(".", 1)[0]] += own

        # an sw_invariant call "hits" when no series span ran beneath it
        by_id = {s[0]: s for s in self.spans}
        missed = set()
        for sid, name, _t0, _t1, parent, _op, _own in self.spans:
            if not name.startswith("series."):
                continue
            p = parent
            while p != -1:
                anc = by_id[p]
                if anc[1] == "sw.sw_invariant":
                    missed.add(p)
                p = anc[4]
        inv_calls = calls.get("sw.sw_invariant", 0)

        def n(name):
            return calls.get(name, 0)

        def s(*names):
            return sum(self_s.get(x, 0.0) for x in names)

        c = self.counts
        returned = c["graph.components.returned"]
        return {
            "graph.self_s": (layer_self["graph"], "s"),
            "graph.build.calls": (n("graph.build"), "count"),
            "graph.build.self_s": (s("graph.build"), "s"),
            "graph.classes.count": (c["graph.classes.count"], "count"),
            "graph.laufer.calls": (n("graph.laufer"), "count"),
            "graph.laufer.steps": (c["graph.laufer.steps"], "count"),
            "graph.laufer.self_s": (s("graph.laufer"), "s"),
            "graph.dual_restrict.calls": (n("graph.dual_restrict"), "count"),
            "graph.dual_restrict.self_s": (s("graph.dual_restrict"), "s"),
            "graph.components.calls": (n("graph.components"), "count"),
            "graph.components.reuse_ratio": (
                c["graph.components.reused"] / returned if returned else 0.0, "ratio"),
            "series.self_s": (layer_self["series"], "s"),
            "series.sweep.calls": (n("series.sweep"), "count"),
            "series.sweep.classes": (c["series.sweep.classes"], "count"),
            "series.sweep.self_s": (s("series.sweep"), "s"),
            "series.single_hist.calls": (n("series.single_hist"), "count"),
            "series.single_hist.self_s": (s("series.single_hist"), "s"),
            "series.counting.calls": (n("series.counting"), "count"),
            "series.counting.self_s": (s("series.counting"), "s"),
            "series.univariate.calls": (n("series.univariate"), "count"),
            "series.univariate.cells": (c["series.univariate.cells"], "count"),
            "series.univariate.self_s": (s("series.univariate"), "s"),
            "series.coefficient.calls": (n("series.coefficient"), "count"),
            "series.coefficient.self_s": (s("series.coefficient"), "s"),
            "sw.assembly.self_s": (s(*SW_ASSEMBLY), "s"),
            "sw.quad_term.calls": (n("sw.quad_term"), "count"),
            "sw.sw_invariant.calls": (inv_calls, "count"),
            "sw.sw_invariant.hit_ratio": (
                (inv_calls - len(missed)) / inv_calls if inv_calls else 0.0, "ratio"),
            "sw.verify.calls": (sum(n(x) for x in SW_VERIFY), "count"),
            "sw.verify.self_s": (s(*SW_VERIFY), "s"),
            "sw.quasipoly.calls": (n("sw.quasipoly_eval"), "count"),
            "sw.quasipoly.self_s": (s(*SW_QUASIPOLY), "s"),
            "sw.pc_method.univariate_fit": (n("sw.pc_univariate_fit"), "count"),
            "sw.pc_method.gorenstein": (n("sw.pc_gorenstein"), "count"),
            "cubes.self_s": (layer_self["cubes"], "s"),
            "cubes.gorenstein_pc.calls": (n("cubes.gorenstein_pc"), "count"),
            "cubes.gorenstein_pc.self_s": (s("cubes.gorenstein_pc"), "s"),
            "cubes.swbar_via_cubes.self_s": (s("cubes.swbar_via_cubes"), "s"),
            "cubes.coefficient_via_cubes.calls": (n("cubes.coefficient_via_cubes"), "count"),
            "cubes.coefficient_via_cubes.self_s": (s("cubes.coefficient_via_cubes"), "s"),
            "cli.self_s": (layer_self["cli"], "s"),
            "cli.run.calls": (n("cli.run"), "count"),
            "cli.report_bytes": (c["cli.report_bytes"], "B"),
            "trace.spans": (len(self.spans), "count"),
            "trace.wrapper_s": (self.wrapper_s, "s"),
        }
