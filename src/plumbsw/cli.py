"""Command-line front end: JSON reports over the library API.

Every verb maps to one library entry point; reports are deterministic,
with all rationals rendered as exact "p/q" strings.  Exit codes: 0 on
success or verified identity, 1 on identity violation, 2 on usage or
validation errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from . import cubes, fixtures, series, sw
from .errors import IdentityViolation, PlumbingError
from .graph import (
    LatticeVector,
    class_of,
    fraction_text,
    is_rational,
    load_graph,
    vector_text,
)

SCHEMA = 1


def _parse_vector(g, text) -> LatticeVector:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != g.n:
        raise PlumbingError("expected %d coordinates, got %d" % (g.n, len(parts)))
    try:
        return g.vector([Fraction(p) for p in parts])
    except ZeroDivisionError:
        raise PlumbingError("a coordinate of %r has a zero denominator" % text) from None


def _parse_subset(g, text):
    if text in ("all", "V"):
        return tuple(range(g.n))
    if text == "nodes":
        sub = g.nodes
        if not sub:
            raise PlumbingError("graph has no nodes (every valency is at most 2)")
        return sub
    if text == "leaves":
        return tuple(v for v in range(g.n) if g.delta[v] == 1)
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if tok not in g.index:
            raise PlumbingError("unknown vertex id %r" % tok)
        out.append(g.index[tok])
    return g.vertices(out)


def _parse_classes(g, sel, graph_path):
    """Class selector: 'all', 'auto' (manifest), '#k', or an explicit vector."""
    if sel == "all":
        return list(g.classes().reps_scaled)
    if sel == "auto":
        mpath = os.path.join(os.path.dirname(os.path.abspath(graph_path)),
                             "manifest.json")
        if not os.path.exists(mpath):
            raise PlumbingError("--class auto needs a manifest.json beside the graph")
        with open(mpath, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
        base = os.path.basename(graph_path)
        for entry in manifest.get("fixtures", []):
            if entry.get("file") == base and "showcase_class" in entry:
                return [g.class_key(g.vector([Fraction(c) for c in entry["showcase_class"]]))]
        raise PlumbingError("manifest has no recorded class for %s" % base)
    if sel.startswith("#"):
        tbl = g.classes()
        idx = int(sel[1:])
        if not 0 <= idx < tbl.order:
            raise PlumbingError("class index out of range (order %d)" % tbl.order)
        return [tbl.reps_scaled[idx]]
    return [g.class_key(_parse_vector(g, sel))]


_ascii = json.encoder.encode_basestring_ascii


def _json(obj, pad="\n"):
    """The text json's dumps writes for obj with an indent of 2 and sorted
    keys, for dict keys that are all str (every report key is one; any
    other key raises TypeError).  Strings go through json's own ASCII
    escaper and an int through int.__repr__, as json writes them; every
    other leaf goes through json.dumps, so a value json refuses raises the
    same TypeError.  pad is the newline and indent of the enclosing level."""
    if isinstance(obj, str):
        return _ascii(obj)
    inner = pad + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [_ascii(k) + ": " + (_ascii(v) if isinstance(v, str) else _json(v, inner))
                 for k, v in sorted(obj.items())]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [_ascii(v) if isinstance(v, str) else _json(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if type(obj) is int:
        return int.__repr__(obj)
    return json.dumps(obj)


def _emit(report, output):
    text = _json(report)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)


def _cmd_validate(args):
    g = load_graph(args.graph)
    return {
        "vertices": list(g.ids),
        "eulers": list(g.eulers),
        "edges": [[g.ids[a], g.ids[b]] for a, b in g.edges],
        "det": g.det,
        "valid": True,
    }


def _cmd_info(args):
    g = load_graph(args.graph)
    dual = [vector_text(g.dual_vector(v)) for v in range(g.n)]
    return {
        "vertices": list(g.ids),
        "det": g.det,
        "canonical_cycle": vector_text(g.K),
        "anticanonical_cycle": vector_text(g.ZK),
        "numerically_gorenstein": g.numerically_gorenstein,
        "rational": is_rational(g),
        "nodes": [g.ids[v] for v in g.nodes],
        "dual_basis": dual,
        "class_count": g.det,
    }


def _cmd_coeff(args):
    g = load_graph(args.graph)
    x = _parse_vector(g, args.exponent)
    return {"exponent": vector_text(x), "coefficient": series.coefficient(g, x)}


def _cmd_count(args):
    g = load_graph(args.graph)
    x = _parse_vector(g, args.threshold)
    subset = _parse_subset(g, args.subset) if args.subset else tuple(range(g.n))
    value = series.counting(g, args.mode, x, subset)
    return {
        "mode": args.mode,
        "threshold": vector_text(x),
        "subset": [g.ids[v] for v in subset],
        "class": vector_text(class_of(x)),
        "value": value,
    }


def _cmd_sw(args):
    g = load_graph(args.graph)
    if args.class_sel == "all":
        recs = sw.sw_table(g, args.depth).values()      # one enumeration for every class
    else:
        recs = [sw.sw_invariant(g, ck, depth=args.depth)
                for ck in _parse_classes(g, args.class_sel, args.graph)]
    return {"invariants": [rec.as_dict() for rec in recs]}


def _cmd_pc(args):
    g = load_graph(args.graph)
    subset = _parse_subset(g, args.subset)
    if args.class_sel == "all" and args.method == "closed_form":
        sw.sw_table(g, subset=subset)   # the records of g and its pieces
    out = []
    for ck in _parse_classes(g, args.class_sel, args.graph):
        val = sw.pc_reduced(g, ck, subset, method=args.method)
        out.append({
            "class": vector_text(g.rep_from_key(ck)),
            "subset": [g.ids[v] for v in subset],
            "method": args.method,
            "pc": fraction_text(val),
        })
    return {"periodic_constants": out}


def _cmd_surgery(args):
    g = load_graph(args.graph)
    subset = _parse_subset(g, args.subset)
    depths = tuple(int(t) for t in args.depth.split(","))
    if args.mode == "counting" and args.class_sel == "all":
        # one histogram pass of the parent graph for every class and depth
        reps = list(sw.counting_surgery_sweep(g, subset, depths=depths).values())
    else:
        if args.class_sel == "all" and (args.mode == "pc" or all(
                is_rational(comp) for comp, _ in g.components_minus(subset))):
            # records of g and its pieces, unless red1/red2 will refuse a piece
            sw.sw_table(g, subset=subset)
        reps = []
        for ck in _parse_classes(g, args.class_sel, args.graph):
            if args.mode == "counting":
                reps.append(sw.verify_counting_surgery(g, ck, subset, depths=depths))
            elif args.mode == "pc":
                reps.append(sw.verify_pc_surgery(g, ck, subset))
            elif args.mode in ("red1", "red2"):
                reps.append(sw.reduction_rational(g, ck, subset, which=args.mode))
            else:
                raise PlumbingError("unknown surgery mode %r" % args.mode)
    reports = [rep.as_dict() for rep in reps]
    return {"reports": reports, "verified": all(r["verdict"] == "equal" for r in reports)}


def _cmd_gorenstein(args):
    g = load_graph(args.graph)
    subset = _parse_subset(g, args.subset)
    pc = cubes.gorenstein_pc(g, subset)
    b = g.ZK
    return {
        "subset": [g.ids[v] for v in subset],
        "pc": fraction_text(pc),
        "swbar_cubes": fraction_text(cubes.swbar_via_cubes(g, b)),
        "swbar_counting": fraction_text(cubes.swbar(g)),
    }


def _cmd_fixtures(args):
    manifest = fixtures.write_corpus(args.out)
    return {"written": len(manifest["fixtures"]), "out": args.out}


def build_parser():
    p = argparse.ArgumentParser(
        prog="plumbsw",
        description="Exact invariants of negative-definite plumbing trees.",
    )
    p.add_argument("--output", help="also write the JSON report to this path")
    sub = p.add_subparsers(dest="verb", required=True)

    def add(name, fn):
        sp = sub.add_parser(name)
        sp.set_defaults(fn=fn)
        return sp

    sp = add("validate", _cmd_validate)
    sp.add_argument("--graph", required=True)

    sp = add("info", _cmd_info)
    sp.add_argument("--graph", required=True)

    sp = add("coeff", _cmd_coeff)
    sp.add_argument("--graph", required=True)
    sp.add_argument("--exponent", required=True,
                    help="comma-separated rational coordinates")

    sp = add("count", _cmd_count)
    sp.add_argument("--graph", required=True)
    sp.add_argument("--threshold", required=True)
    sp.add_argument("--mode", default="full", choices=("full", "reduced", "modified"))
    sp.add_argument("--subset", help="vertex ids, or 'nodes'/'leaves'/'all'")

    sp = add("sw", _cmd_sw)
    sp.add_argument("--graph", required=True)
    sp.add_argument("--class", dest="class_sel", required=True,
                    help="'all', 'auto', '#k', or an explicit vector")
    sp.add_argument("--depth", type=int, default=sw.DEFAULT_DEPTH)

    sp = add("pc", _cmd_pc)
    sp.add_argument("--graph", required=True)
    sp.add_argument("--class", dest="class_sel", required=True)
    sp.add_argument("--subset", required=True)
    sp.add_argument("--method", default="closed_form",
                    choices=("closed_form", "univariate_fit", "gorenstein"))

    sp = add("surgery", _cmd_surgery)
    sp.add_argument("--graph", required=True)
    sp.add_argument("--class", dest="class_sel", required=True)
    sp.add_argument("--subset", required=True)
    sp.add_argument("--mode", default="counting",
                    choices=("counting", "pc", "red1", "red2"))
    sp.add_argument("--depth", default="%d,%d" % (sw.DEFAULT_DEPTH, sw.DEFAULT_DEPTH + 1))

    sp = add("gorenstein", _cmd_gorenstein)
    sp.add_argument("--graph", required=True)
    sp.add_argument("--subset", required=True)

    sp = add("fixtures", _cmd_fixtures)
    sp.add_argument("--out", required=True)
    return p


@functools.lru_cache(maxsize=None)
def _parser():
    # parsing leaves the parser as it was, so one per process serves every run
    return build_parser()


def run(argv) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 2
    try:
        report = args.fn(args)
    except IdentityViolation as exc:
        _emit({"schema": SCHEMA, "verb": args.verb, "error": "IdentityViolation",
               "detail": str(exc),
               "report": exc.report.as_dict() if exc.report else None},
              args.output)
        return 1
    except (PlumbingError, ValueError, OSError) as exc:
        _emit({"schema": SCHEMA, "verb": args.verb,
               "error": type(exc).__name__, "detail": str(exc)}, args.output)
        return 2
    out = {"schema": SCHEMA, "verb": args.verb}
    out.update(report)
    _emit(out, args.output)
    return 0


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
