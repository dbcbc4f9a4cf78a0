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


def test_no_assert_statements_in_package():
    # python -O strips assert statements; guards must raise typed errors
    found = []
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        found += ["%s:%d" % (name, node.lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


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
