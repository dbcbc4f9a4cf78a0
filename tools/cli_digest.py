"""Byte-identity check of the command-line reports on the fixture corpus.

Writes the ``plumbsw fixtures`` corpus to a temporary directory, runs a
fixed command set in-process through ``plumbsw.cli.run`` and prints one line
per command: the exit code, the SHA-256 of everything the command printed,
and its argv, with the corpus directory written as ``<corpus>`` in both.
Run it on two source trees and compare:

    PYTHONPATH=<old>/src python3 tools/cli_digest.py > old.txt
    PYTHONPATH=<new>/src python3 tools/cli_digest.py > new.txt
    diff old.txt new.txt

The command set, per fixture: ``validate``, ``info``, ``sw`` for every
class at the default depth and at depth 0 (the smallest legal depth), for
``#0`` at depth 2 and for the manifest class; ``pc`` in three
methods for two classes, plus ``--class all`` in closed form on the nodes;
``surgery`` in four modes over three subsets for two classes, plus
``--class all`` in counting mode per subset, in the ``pc``, ``red1`` and
``red2`` modes on the nodes and in the ``pc`` mode on the leaves, plus
``#0`` in counting mode on the first vertex at depths 1, 2 and 3 (three
depths of one walk);
``gorenstein`` on two subsets; ``count`` in three modes; ``coeff``.  Then
usage errors on ``a2``, two over-long thresholds on ``a1`` (one that
would overflow int64 and one that asks for about 10^15 points), and two
malformed inputs: an exponent with a zero denominator and a JSON graph
whose vertex has no Euler number.  Last, on a JSON graph whose vertex ids
hold non-ASCII, quote and backslash characters: ``validate``, ``info``,
``sw`` for every class, and a ``count`` whose subset names an unknown id.  An exception that escapes ``cli.run`` is
recorded as exit 1, the interpreter's code for it, with its type hashed
after the output.  The 814 commands take about 50 s on one core, most of it
on ``ex_graph1``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

from plumbsw import cli

# a JSON graph whose one vertex has no Euler number, written beside the corpus
NO_EULER = ("no_euler.json", '{"vertices": [{"id": "a"}], "edges": []}')
# a D4 star, as JSON, whose vertex ids carry non-ASCII, quote and backslash
# characters, so the digest sees how the reports escape them
ESCAPES = ("escapes.json", json.dumps({
    "vertices": [{"id": i, "euler": -2} for i in ("\u2603", "\u00e9", 'q"t', "b\\s")],
    "edges": [["\u2603", "\u00e9"], ["\u2603", 'q"t'], ["\u2603", "b\\s"]]}))


def commands(corpus):
    """The argv lists, in a fixed order, for a corpus written to `corpus`."""
    with open(os.path.join(corpus, "manifest.json"), encoding="utf-8") as fh:
        entries = json.load(fh)["fixtures"]
    out = []
    for entry in entries:
        path = os.path.join(corpus, entry["file"])
        n, det = entry["vertices"], entry["det"]
        with open(path, encoding="utf-8") as fh:
            first = fh.readline().split()[1]          # id of the first vertex
        classes = ["#0"] + (["#%d" % (det // 2)] if det > 1 else [])
        subsets = ["nodes", "leaves", first]
        ones = ",".join(["1"] * n)
        g = ["--graph", path]
        out += [["validate"] + g, ["info"] + g,
                ["sw"] + g + ["--class", "all"],
                ["sw"] + g + ["--class", "all", "--depth", "0"],
                ["sw"] + g + ["--class", "#0", "--depth", "2"],
                ["sw"] + g + ["--class", "auto"]]
        for cls in classes:
            for method, subset in (("closed_form", "nodes"), ("univariate_fit", first),
                                   ("gorenstein", "all")):
                out.append(["pc"] + g + ["--class", cls, "--subset", subset,
                                         "--method", method])
        out.append(["pc"] + g + ["--class", "all", "--subset", "nodes",
                                 "--method", "closed_form"])
        for mode in ("pc", "red1", "red2"):
            out.append(["surgery"] + g + ["--class", "all", "--subset", "nodes",
                                          "--mode", mode])
        # every class on the leaves: the multi-vertex pc route on every fixture
        out.append(["surgery"] + g + ["--class", "all", "--subset", "leaves",
                                      "--mode", "pc"])
        for subset in subsets:
            for mode in ("counting", "pc", "red1", "red2"):
                for cls in classes:
                    out.append(["surgery"] + g + ["--class", cls, "--subset", subset,
                                                  "--mode", mode])
            out.append(["surgery"] + g + ["--class", "all", "--subset", subset])
        out.append(["surgery"] + g + ["--class", "#0", "--subset", first,
                                      "--mode", "counting", "--depth", "1,2,3"])
        for subset in ("all", "leaves"):
            out.append(["gorenstein"] + g + ["--subset", subset])
        for mode in ("full", "reduced", "modified"):
            out.append(["count"] + g + ["--threshold", ones, "--mode", mode,
                                        "--subset", "leaves"])
        out.append(["coeff"] + g + ["--exponent", ones])
    a1, a2 = (["--graph", os.path.join(corpus, name)] for name in ("a1.pg", "a2.pg"))
    out += [["count"] + a2 + ["--threshold", "1,1", "--mode", "reduced", "--subset", "zzz"],
            ["count"] + a2 + ["--threshold", "1"],
            ["sw"] + a2 + ["--class", "#99"],
            ["surgery"] + a2 + ["--class", "#0", "--subset", "v1", "--mode", "bogus"],
            ["info", "--graph", os.path.join(corpus, "missing.pg")],
            ["count"] + a1 + ["--threshold", "100000000000000000000000"],
            ["count"] + a1 + ["--threshold", "1000000000000000"],
            ["coeff"] + a2 + ["--exponent", "1/0,1"],
            ["validate", "--graph", os.path.join(corpus, NO_EULER[0])]]
    esc = ["--graph", os.path.join(corpus, ESCAPES[0])]
    out += [["validate"] + esc, ["info"] + esc, ["sw"] + esc + ["--class", "all"],
            ["count"] + esc + ["--threshold", "1,1,1,1", "--mode", "reduced",
                               "--subset", '\u00e9,n\u00f6"\\pe']]
    return out


def run_one(argv, corpus):
    """(exit code, SHA-256 hex digest of the printed output) of one command,
    with the corpus directory in the output written as <corpus>."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.run(argv)
        except Exception as exc:                # what the interpreter exits 1 on
            code = 1
            buf.write(type(exc).__name__)
    text = buf.getvalue().replace(corpus, "<corpus>")
    return code, hashlib.sha256(text.encode("utf-8")).hexdigest()


def main():
    with tempfile.TemporaryDirectory() as corpus:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.run(["fixtures", "--out", corpus])
        for name, text in (NO_EULER, ESCAPES):
            with open(os.path.join(corpus, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        for argv in commands(corpus):
            code, digest = run_one(argv, corpus)
            shown = " ".join(a.replace(corpus, "<corpus>") for a in argv)
            print(code, digest, shown, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
