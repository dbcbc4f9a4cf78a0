"""Source-level contracts: guards that survive python -O, and the names the
benchmark tracer patches."""

import ast
import importlib.util
import os
import sys

import plumbsw  # noqa: F401  (loads graph, series, sw and cubes)
import plumbsw.cli  # noqa: F401  (the tracer patches cli.run)

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
PACKAGE = os.path.join(ROOT, "src", "plumbsw")


def _package_trees():
    """(file name, parsed module) for every module of the package."""
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            path = os.path.join(PACKAGE, name)
            with open(path, encoding="utf-8") as fh:
                yield name, ast.parse(fh.read(), filename=path)


def test_no_assert_statements_in_package():
    # python -O strips assert statements; guards must raise typed errors
    found = []
    for name, tree in _package_trees():
        found += ["%s:%d" % (name, node.lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def _uses(node, name, scope):
    """(scope, node kind) of every Name, Attribute or import naming name below
    node, scope the dotted path of the enclosing functions and classes."""
    for child in ast.iter_child_nodes(node):
        if (getattr(child, "id", None) == name or getattr(child, "attr", None) == name
                or isinstance(child, ast.alias) and child.name == name):
            yield scope, type(child).__name__
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = scope + "." + child.name
        yield from _uses(child, name, inner)


def test_every_walk_passes_the_guards():
    # the int64 and POINT_LIMIT refusals sit in series._walk, so it must be
    # the only reader of the enumerator.  It looks the enumerator up by its
    # module-global name, so a patched series._iter_batches sees every walk,
    # and it is a plain function, so it refuses when called, before any work
    found = [use for name, tree in _package_trees()
             for use in _uses(tree, "_iter_batches", name[:-3])]
    assert found == [("series._walk", "Name")]
    series = dict(_package_trees())["series.py"]
    walk = next(node for node in series.body
                if isinstance(node, ast.FunctionDef) and node.name == "_walk")
    assert not any(isinstance(node, (ast.Yield, ast.YieldFrom)) for node in ast.walk(walk))


def test_histograms_are_counted_through_one_cache():
    # sw reaches the histogram pass only through _hist_rows, so every row it
    # counts lands in the per-graph cache that later callers read back
    sw = dict(_package_trees())["sw.py"]
    assert list(_uses(sw, "sweep_histogram", "sw")) == [("sw._hist_rows", "Attribute")]


def _resolve(mod_name, path):
    """The object Tracer.install replaces for one entry point, or None."""
    mod = sys.modules["plumbsw." + mod_name]
    if "." in path:
        cls_name, meth = path.split(".")
        return getattr(mod, cls_name, object).__dict__.get(meth)
    return getattr(mod, path, None)


def test_tracer_entry_points_resolve():
    # the benchmark's traced run patches these names; one missing breaks it
    path = os.path.join(ROOT, "perfbench", "spans.py")
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = ["%s -> %s.%s" % (span, mod, attr)
               for span, (mod, attr) in spans.ENTRY_POINTS.items()
               if not callable(_resolve(mod, attr))]
    assert missing == []
