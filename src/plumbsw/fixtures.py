"""Fixture graphs: showcase trees, the du Val families, strings, random trees."""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

from .errors import NotNegativeDefinite, PlumbingError
from .graph import PlumbingGraph, emit_graph_text, fraction_text, is_rational, validate


def showcase_two_nodes() -> PlumbingGraph:
    """Spine of three -2 vertices, two -4 leaves on each end node."""
    ids = ["s1", "s2", "s3", "l1", "l2", "l3", "l4"]
    eulers = [-2, -2, -2, -4, -4, -4, -4]
    edges = [("s1", "s2"), ("s2", "s3"),
             ("s1", "l1"), ("s1", "l2"), ("s3", "l3"), ("s3", "l4")]
    return validate(ids, eulers, edges)


def showcase_star() -> PlumbingGraph:
    """-3 center with four -2 leaves."""
    ids = ["c", "p1", "p2", "p3", "p4"]
    return validate(ids, [-3, -2, -2, -2, -2], [("c", p) for p in ids[1:]])


def gorenstein_star() -> PlumbingGraph:
    """-3 center with five -2 leaves; integral anticanonical cycle."""
    ids = ["c", "p1", "p2", "p3", "p4", "p5"]
    return validate(ids, [-3] + [-2] * 5, [("c", p) for p in ids[1:]])


# distinguished classes of the showcase graphs, in declaration coordinate order
SHOWCASE_TWO_NODES_CLASS = (Fraction(1, 2), Fraction(0), Fraction(1, 2),
                            Fraction(1, 8), Fraction(7, 8), Fraction(1, 8), Fraction(7, 8))
SHOWCASE_STAR_CLASS = (Fraction(0), Fraction(1, 2), Fraction(1, 2),
                       Fraction(1, 2), Fraction(1, 2))


def string_graph(eulers) -> PlumbingGraph:
    ids = ["v%d" % i for i in range(1, len(eulers) + 1)]
    edges = [(ids[i], ids[i + 1]) for i in range(len(eulers) - 1)]
    return validate(ids, list(eulers), edges)


def ade_graph(name: str) -> PlumbingGraph:
    """A_n, D_n, E_6, E_7, E_8 with all Euler numbers -2."""
    kind, rank = name[0].upper(), int(name[1:])
    ids = ["v%d" % i for i in range(1, rank + 1)]
    if kind == "A":
        edges = [(ids[i], ids[i + 1]) for i in range(rank - 1)]
    elif kind == "D":
        if rank < 4:
            raise PlumbingError("D_n needs rank at least 4, got %d" % rank)
        # chain v3..vn with the fork v1, v2 attached at v3
        edges = [(ids[0], ids[2]), (ids[1], ids[2])]
        edges += [(ids[i], ids[i + 1]) for i in range(2, rank - 1)]
    elif kind == "E":
        if rank not in (6, 7, 8):
            raise PlumbingError("E_n needs rank 6, 7 or 8, got %d" % rank)
        # chain of rank-1 vertices with the last vertex hanging off the third
        edges = [(ids[i], ids[i + 1]) for i in range(rank - 2)]
        edges.append((ids[2], ids[rank - 1]))
    else:
        raise ValueError("unknown family %r" % name)
    return validate(ids, [-2] * rank, edges)


ADE_NAMES = ("A1", "A2", "A3", "A4", "A5", "D4", "D5", "E6", "E7", "E8")


def all_strings(max_len=4, euler_range=(-5, -2)):
    """Every string with Euler numbers in the range, up to the length."""
    lo, hi = euler_range
    out = []
    stack = [()]
    while stack:
        pref = stack.pop()
        if pref:
            out.append(string_graph(pref))
        if len(pref) < max_len:
            for e in range(lo, hi + 1):
                stack.append(pref + (e,))
    return out


COST_DEPTH = 3      # the depth of the deep point enumeration_cost measures

# the draw of the corpus's random trees, which its manifest records
CORPUS_DRAW = {"seed": 2024, "count": 3, "n_range": (3, 7), "euler_range": (-5, -2),
               "max_det": 500, "max_cost": 20_000_000}


def enumeration_cost(g: PlumbingGraph) -> int:
    """Upper estimate of the lattice-point count a deep counting query visits.

    Box product of the free-vertex exponent bounds, per coordinate slab.
    Used to rejection-sample generated trees down to desk scale: the
    identities hold graph by graph, but the enumeration cost of a deep
    query grows with the inverse dual-basis entries, which explodes on
    high-determinant trees.
    """
    xs = g.deep_point(tuple([0] * g.n), COST_DEPTH).scaled()
    free = [v for v in range(g.n) if g.delta[v] <= 1]
    total = 0
    for w in range(g.n):
        p = 1
        for v in free:
            p *= xs[w] // g.dual_scaled[v][w] + 1
        total += p
    return total


def random_tree(rng: random.Random, n_range=(3, 7), euler_range=(-5, -2),
                max_det=None, max_cost=None) -> PlumbingGraph:
    """One negative-definite random tree; rejection-sampled.

    Shape: vertex i attaches to a uniformly random earlier vertex; Euler
    numbers uniform in the range.  max_det rejects large class groups
    (used where every class is swept); max_cost rejects trees whose deep
    counting queries would not be enumerable at desk scale.
    """
    while True:
        n = rng.randint(*n_range)
        ids = ["v%d" % i for i in range(1, n + 1)]
        edges = [(ids[rng.randrange(i)], ids[i]) for i in range(1, n)]
        eulers = [rng.randint(euler_range[0], euler_range[1]) for _ in range(n)]
        try:
            g = validate(ids, eulers, edges)
        except NotNegativeDefinite:
            continue
        if max_det is not None and g.det > max_det:
            continue
        if max_cost is not None and enumeration_cost(g) > max_cost:
            continue
        return g


def random_trees(seed: int, count: int, **kw):
    rng = random.Random(seed)
    return [random_tree(rng, **kw) for _ in range(count)]


def corpus():
    """The named fixture list: (name, graph, distinguished class or None)."""
    entries = [
        ("ex_graph1", showcase_two_nodes(), SHOWCASE_TWO_NODES_CLASS),
        ("ex_graph2", showcase_star(), SHOWCASE_STAR_CLASS),
        ("gor_star", gorenstein_star(), None),
    ]
    for name in ADE_NAMES:
        entries.append((name.lower(), ade_graph(name), None))
    for i, g in enumerate(random_trees(**CORPUS_DRAW)):
        entries.append(("random_%d" % i, g, None))
    return entries


def write_corpus(outdir) -> dict:
    """Write every fixture as a graph file plus a manifest; deterministic."""
    os.makedirs(outdir, exist_ok=True)
    manifest = {"schema": 1, "generator": CORPUS_DRAW, "fixtures": []}
    for name, g, cls in corpus():
        fname = name + ".pg"
        with open(os.path.join(outdir, fname), "w", encoding="utf-8") as fh:
            fh.write(emit_graph_text(g))
        entry = {
            "id": name,
            "file": fname,
            "vertices": g.n,
            "det": g.det,
            "numerically_gorenstein": g.numerically_gorenstein,
            "rational": is_rational(g),
        }
        if cls is not None:
            entry["showcase_class"] = [fraction_text(c) for c in cls]
        manifest["fixtures"].append(entry)
    with open(os.path.join(outdir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest
