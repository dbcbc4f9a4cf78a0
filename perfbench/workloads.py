"""The four benchmark workloads: seeded inputs, operations and output checks.

Each workload builds a fixed list of operations from the run's seed.  An
operation is a callable taking the round context and returning its output;
all but the cube operations are in-process ``plumbsw`` command lines, so
they take the path a CLI user takes, graph loading included.  The checks
never compare against stored outputs: they test properties the method must
have and recompute a seeded sample with the independent oracle.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import time
from fractions import Fraction

import oracle as O

# Fixed seed of the tree families and of the classes and subsets requested
# of them.  --seed writes each tree with its own vertex order, edge order and
# edge orientation and shuffles the operations; the mathematical requests,
# and so the work asked of the program, are the same for every seed.  This
# machine's run-to-run noise (about 10% on identical work) leaves no room
# for a second source of spread.
FAMILY_SEED = 4242

# Oracle samples per run, and the largest expansion one may cost.
ORACLE_SAMPLES = 8
ORACLE_CAP = 400_000


class Op:
    __slots__ = ("kind", "run", "meta")

    def __init__(self, kind, run, meta):
        self.kind = kind
        self.run = run
        self.meta = meta


class Failed(Exception):
    """An operation the program refused at run time; `wrong` when the refusal
    is one of the program's own cross-checks failing."""

    def __init__(self, message, wrong):
        super().__init__(message)
        self.wrong = wrong


# errors by which the program reports that two of its own routes disagree
DISAGREEMENTS = ("IdentityViolation", "InternalDisagreement", "FitInconsistent",
                 "DepthNotStable")


# -- trees --------------------------------------------------------------------


def string_spec(eulers, name=None):
    ids = ["v%d" % i for i in range(1, len(eulers) + 1)]
    edges = [(ids[i], ids[i + 1]) for i in range(len(ids) - 1)]
    return O.Spec(name or "string" + "".join(str(e) for e in eulers), ids, eulers, edges)


def ade_spec(name):
    kind, rank = name[0], int(name[1:])
    ids = ["v%d" % i for i in range(1, rank + 1)]
    if kind == "A":
        edges = [(ids[i], ids[i + 1]) for i in range(rank - 1)]
    elif kind == "D":
        edges = [(ids[0], ids[2]), (ids[1], ids[2])]
        edges += [(ids[i], ids[i + 1]) for i in range(2, rank - 1)]
    else:
        edges = [(ids[i], ids[i + 1]) for i in range(rank - 2)] + [(ids[2], ids[rank - 1])]
    return O.Spec(name, ids, [-2] * rank, edges)


ADE = ("A1", "A2", "A3", "A4", "A5", "D4", "D5", "E6", "E7", "E8")


def star_spec(name, center, leaves):
    ids = ["c"] + ["p%d" % i for i in range(1, len(leaves) + 1)]
    return O.Spec(name, ids, [center] + list(leaves), [("c", p) for p in ids[1:]])


def ex_graph1_spec():
    """Spine of three -2 vertices, two -4 leaves on each end node."""
    ids = ["s1", "s2", "s3", "l1", "l2", "l3", "l4"]
    edges = [("s1", "s2"), ("s2", "s3"), ("s1", "l1"), ("s1", "l2"),
             ("s3", "l3"), ("s3", "l4")]
    return O.Spec("ex_graph1", ids, [-2, -2, -2, -4, -4, -4, -4], edges)


def random_spec(rng, name, n_range, euler_range=(-5, -2), max_det=None, max_cost=None):
    """Vertex i hangs off a uniform earlier vertex; rejection on definiteness
    and on the optional caps.  Draws as plumbsw.fixtures.random_tree does."""
    while True:
        n = rng.randint(*n_range)
        ids = ["v%d" % i for i in range(1, n + 1)]
        edges = [(ids[rng.randrange(i)], ids[i]) for i in range(1, n)]
        eulers = [rng.randint(*euler_range) for _ in range(n)]
        spec = O.Spec(name, ids, eulers, edges)
        if not O.negative_definite(spec):
            continue
        lat = O.Lattice(spec)
        if max_det is not None and lat.det > max_det:
            continue
        if max_cost is not None and lat.enumeration_cost() > max_cost:
            continue
        return spec


def enumeration_proxy(lat):
    """Monomials a deep full count of the trivial class may expand."""
    return lat.counting_cost(lat.deep_point(tuple([0] * lat.n), 2), range(lat.n))


# -- the harness ------------------------------------------------------------------


class Harness:
    """The plumbsw modules under test, the graph directory and the tracer."""

    def __init__(self, plumbsw, graph_dir):
        import plumbsw.cli
        import plumbsw.cubes
        import plumbsw.graph

        self.cli = plumbsw.cli
        self.cubes = plumbsw.cubes
        self.graph = plumbsw.graph
        self.error = plumbsw.PlumbingError
        self.graph_dir = graph_dir
        self.tracer = None
        self.write_s = 0.0
        self._count = 0

    def write(self, spec):
        t0 = time.perf_counter()
        self._count += 1
        path = os.path.join(self.graph_dir, "g%04d_%s.pg" % (self._count, spec.name))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(spec.text())
        self.write_s += time.perf_counter() - t0
        return path

    def cli_op(self, kind, argv, meta):
        def run(_ctx):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = self.cli.run(argv)
            text = buf.getvalue()
            if self.tracer is not None:
                self.tracer.counts["cli.report_bytes"] += len(text.encode())
            if code != 0:
                error = json.loads(text).get("error")
                raise Failed("exit %d, %s: %s" % (code, error, text[-300:]),
                             error in DISAGREEMENTS)
            return text
        return Op(kind, run, meta)


def _key(lat, coords):
    return lat.key(O.scaled(lat, coords))


class Checker:
    """Collects failed checks and the number of oracle recomputations."""

    def __init__(self, rng):
        self.rng = rng
        self.errors = []
        self.properties = 0
        self.oracle = 0

    def expect(self, cond, what):
        self.properties += 1
        if not cond:
            self.errors.append(what)

    def sample(self, candidates, k=ORACLE_SAMPLES):
        """A seeded sample of k (item, cost function) candidates whose oracle
        expansion stays under the cost cap."""
        order = list(range(len(candidates)))
        self.rng.shuffle(order)
        out = []
        for i in order:
            item, cost = candidates[i]
            if cost() <= ORACLE_CAP:
                out.append(item)
                if len(out) == k:
                    break
        return out

    def matches(self, got, want, what):
        self.oracle += 1
        if got != want:
            self.errors.append("%s: program %s, oracle %s" % (what, got, want))


# -- sw_tables ------------------------------------------------------------------------

# Every LEN4_STRIDE-th string of length 4, in lexicographic order of the
# Euler numbers.  The 256 strings of length 4 are 93% of the time of the full
# list (about 28 s of 30 s); with a thirteenth of them a round takes about
# 4.5 s, so a run repeats every operation several times.
LEN4_STRIDE = 13


def sw_family():
    """The ADE family, every string of length <= 3 with Euler numbers -5..-2
    and every LEN4_STRIDE-th one of length 4: 114 rational trees."""
    strings = [string_spec(list(e)) for k in range(1, 4)
               for e in itertools.product(range(-5, -1), repeat=k)]
    strings += [string_spec(list(e)) for e in
                list(itertools.product(range(-5, -1), repeat=4))[::LEN4_STRIDE]]
    return [ade_spec(n) for n in ADE] + strings


def build_sw_tables(h, rng):
    ops = []
    for spec in sw_family():
        rel = spec.relabeled(rng)
        ops.append(h.cli_op("sw", ["sw", "--graph", h.write(rel), "--class", "all"],
                            {"spec": rel}))
    rng.shuffle(ops)
    return ops


def check_sw_tables(ops, outputs, ck):
    candidates = []
    for op, text in zip(ops, outputs):
        if text is None:
            continue
        spec = op.meta["spec"]
        lat = O.Lattice(spec)
        invs = json.loads(text)["invariants"]
        keys = [_key(lat, r["class"]) for r in invs]
        ck.expect(len(invs) == lat.det == len(set(keys)),
                  "%s: %d classes reported, cofactor det %d" % (spec.name, len(invs), lat.det))
        ck.expect(all(Fraction(r["normalized_s"]) == 0 for r in invs),
                  "%s: normalized s_h invariant nonzero on a rational tree" % spec.name)
        if spec.name == "E8":
            ck.expect(Fraction(invs[0]["sw"]) == -1, "E8: trivial class sw %s" % invs[0]["sw"])
        for r, key in zip(invs, keys):
            candidates.append(((lat, key, r), lambda lat=lat, key=key: lat.sw_cost(key)))
    for lat, key, r in ck.sample(candidates):
        sw = lat.sw(key)
        what = "%s class %s" % (lat.spec.name, key)
        ck.matches(Fraction(r["sw"]), sw, what + " sw")
        ck.matches(Fraction(r["normalized_r"]), sw + lat.quad(key), what + " normalized_r")
        ck.matches(Fraction(r["normalized_s"]), sw + lat.quad(lat.s_rep(key)),
                   what + " normalized_s")


# -- counting_surgery ---------------------------------------------------------------

# Trees drawn as acceptance criterion 4 draws them: n 3-7, Euler -5..-2,
# rejected only when not negative definite or when the enumeration-cost
# estimate of a deep query exceeds COST_CAP.  They are the first
# SINGLE_TREES of criterion 4's 50: those 25 take about 4 s a round, all 50
# about 8 s and 150 about 20 s.
COST_CAP = 50_000_000
SINGLE_TREES = 25
CLASS_ALL_TREES = 4
CLASS_ALL_MAX_DET = 12


def counting_family():
    """Fixed requests: random trees, each with one class and one vertex
    subset; then random trees with small class groups, and D5, E6, E7, each
    with one subset, for the --class all requests."""
    rng = random.Random(FAMILY_SEED)
    trees = [random_spec(rng, "tree%03d" % i, (3, 7), max_cost=COST_CAP)
             for i in range(SINGLE_TREES)]
    small = [random_spec(rng, "small%d" % i, (3, 7), max_det=CLASS_ALL_MAX_DET,
                         max_cost=COST_CAP) for i in range(CLASS_ALL_TREES)]
    single = []
    for spec in trees:
        classes = O.Lattice(spec).classes()
        subset = sorted(rng.sample(spec.ids, rng.randint(1, len(spec.ids))))
        single.append((spec, classes, rng.choice(classes), subset))
    class_all = []
    for spec in small + [ade_spec("D5"), ade_spec("E6"), ade_spec("E7")]:
        class_all.append((spec, sorted(rng.sample(spec.ids, rng.randint(1, len(spec.ids))))))
    return single, class_all


def class_index(spec, classes, key, rel):
    """Index, in the sorted class table of the relabeled tree, of the class
    whose representative has the given coordinates in the original order."""
    perm = [spec.ids.index(v) for v in rel.ids]
    moved = sorted(tuple(c[i] for i in perm) for c in classes)
    return moved.index(tuple(key[i] for i in perm))


def build_counting_surgery(h, rng):
    single, class_all = counting_family()
    ops = []
    for spec, classes, key, subset in single:
        rel = spec.relabeled(rng)
        ops.append(h.cli_op("single", [
            "surgery", "--graph", h.write(rel),
            "--class", "#%d" % class_index(spec, classes, key, rel),
            "--subset", ",".join(subset), "--mode", "counting"], {"spec": rel}))
    for spec, subset in class_all:
        rel = spec.relabeled(rng)
        ops.append(h.cli_op("all", [
            "surgery", "--graph", h.write(rel), "--class", "all",
            "--subset", ",".join(subset), "--mode", "counting"], {"spec": rel}))
    rng.shuffle(ops)
    return ops


def deep(lat, report, item):
    """The deep point of the report's class at the item's depth."""
    return lat.deep_point(_key(lat, report["class"]), item["depth"])


def check_counting_surgery(ops, outputs, ck):
    candidates = []
    for op, text in zip(ops, outputs):
        if text is None:
            continue
        spec = op.meta["spec"]
        lat = O.Lattice(spec)
        rep = json.loads(text)
        reports = rep["reports"]
        ck.expect(rep["verified"], "%s: surgery not verified" % spec.name)
        if op.kind == "all":
            ck.expect(len(reports) == lat.det,
                      "%s: %d classes, cofactor det %d" % (spec.name, len(reports), lat.det))
        for r in reports:
            ck.expect(r["verdict"] == "equal" and len(r["items"]) == 2,
                      "%s: verdict %s" % (spec.name, r["verdict"]))
            for item in r["items"]:
                ck.expect(item["full"] == item["reduced"] + sum(item["components"]),
                          "%s: full != reduced + components at depth %d"
                          % (spec.name, item["depth"]))
                candidates.append(((lat, r, item), lambda lat=lat, r=r, item=item:
                                   lat.counting_cost(deep(lat, r, item), range(lat.n))))
    for lat, r, item in ck.sample(candidates):
        key = _key(lat, r["class"])
        x = deep(lat, r, item)
        subset = [lat.spec.ids.index(v) for v in r["subset"]]
        what = "%s class %s depth %d" % (lat.spec.name, key, item["depth"])
        ck.matches(item["full"], lat.counting(x, range(lat.n)), what + " full")
        ck.matches(item["reduced"], lat.counting(x, subset), what + " reduced")
        comps = []
        for comp, origin in lat.components_minus(subset):
            comps.append(comp.counting(lat.restrict(x, comp, origin), range(comp.n)))
        ck.matches(sorted(item["components"]), sorted(comps), what + " components")


# -- cube_oracle -------------------------------------------------------------------

# coefficient_via_cubes runs on every second slice of COEFF_SLICE points
COEFF_SLICE = 128
# one trivial-class oracle invariant per graph: gor_star fits, ex_graph1
# (det 384, ~16 s in the oracle) does not
SWBAR_ORACLE_CAP = 20_000_000


# Largest ex_graph1 subset: its 63 subsets of size <= 3 take about 7 s,
# the 35 of size 4 another 9 s, and all 127 about 39 s, more than a run.
EX_GRAPH1_MAX_SUBSET = 3
# Every SUBSET_STRIDE-th subset of each graph, in order of size, and the
# whole vertex set: all 571 subsets take about 20 s, an eighth about 3 s.
SUBSET_STRIDE = 8


def cube_family():
    """Per graph: every SUBSET_STRIDE-th nonempty vertex subset (on
    ex_graph1 of at most EX_GRAPH1_MAX_SUBSET vertices) and the whole
    vertex set where that is within the size limit."""
    graphs = [(ade_spec("E6"), 6), (ade_spec("E7"), 7), (ade_spec("E8"), 8),
              (star_spec("gor_star", -3, [-2] * 5), 6),
              (ex_graph1_spec(), EX_GRAPH1_MAX_SUBSET)]
    out = []
    for spec, top in graphs:
        subsets = [ids for r in range(1, top + 1)
                   for ids in itertools.combinations(spec.ids, r)]
        picked = subsets[::SUBSET_STRIDE]
        if top == len(spec.ids) and subsets[-1] not in picked:
            picked.append(subsets[-1])
        out.append((spec, picked))
    return out


def build_cube_oracle(h, rng):
    """gorenstein_pc over the family's subsets, then swbar at two bounds and
    coefficient_via_cubes over every second slice of R(0, Z_K + sum E_v).
    Each graph is loaded once per round and shared by its operations."""
    cubes, graph = h.cubes, h.graph
    ops = []
    for spec, subsets in cube_family():
        rel = spec.relabeled(rng)
        path = h.write(rel)
        lat = O.Lattice(rel)

        def load(ctx, path=path):
            if path not in ctx:
                ctx[path] = graph.load_graph(path)
            return ctx[path]

        for ids in subsets:
            s = tuple(sorted(rel.ids.index(v) for v in ids))
            ops.append(Op("gorenstein_pc",
                          lambda ctx, load=load, s=s: cubes.gorenstein_pc(load(ctx), s),
                          {"spec": rel, "subset": s}))
        for extra in (0, 1):
            def swbar(ctx, load=load, extra=extra):
                g = load(ctx)
                return cubes.swbar_via_cubes(g, g.ZK + g.vector([extra] * g.n))
            ops.append(Op("swbar_via_cubes", swbar, {"spec": rel, "extra": extra}))
        # R(0, Z_K + sum E_v); Z_K = -K is integral on these trees
        hi = [-c // lat.det + 1 for c in lat.K]
        points = list(itertools.product(*[range(x + 1) for x in hi]))
        for i in range(0, len(points), 2 * COEFF_SLICE):
            chunk = points[i:i + COEFF_SLICE]

            def coeff(ctx, load=load, chunk=chunk):
                g = load(ctx)
                return [cubes.coefficient_via_cubes(g, g.vector(p)) for p in chunk]
            ops.append(Op("coefficient_via_cubes", coeff, {"spec": rel, "points": chunk}))
    rng.shuffle(ops)
    return ops


def check_cube_oracle(ops, outputs, ck):
    lats, swbars, candidates = {}, {}, []
    for op, out in zip(ops, outputs):
        if out is None:
            continue
        spec = op.meta["spec"]
        if spec.name not in lats:
            lats[spec.name] = O.Lattice(spec)
        lat = lats[spec.name]
        if op.kind == "gorenstein_pc":
            s = op.meta["subset"]
            if spec.name[0] in "ADE":
                ck.expect(out == 0, "%s: pc %s on subset %s" % (spec.name, out, s))
            if len(s) == lat.n:
                swbars.setdefault(spec.name, []).append(out)
            zk = tuple(-c for c in lat.K)
            candidates.append(((lat, zk, s, out),
                               lambda lat=lat, zk=zk, s=s: lat.counting_cost(zk, s)))
        elif op.kind == "swbar_via_cubes":
            swbars.setdefault(spec.name, []).append(out)
        else:
            ck.oracle += 1
            want = lat.coefficients(op.meta["points"])
            ck.expect(out == want, "%s: coefficient_via_cubes differs from the series"
                      % spec.name)
    for name, vals in swbars.items():
        lat = lats[name]
        ck.expect(len(set(vals)) == 1, "%s: swbar values %s depend on b or route"
                  % (name, sorted(set(vals))))
        zero = tuple([0] * lat.n)
        if lat.sw_cost(zero) <= SWBAR_ORACLE_CAP:
            # swbar = -sw(0) - (K^2 + |V|)/8
            ck.matches(vals[0], -lat.sw(zero) - (lat.pair(lat.K, lat.K) + lat.n) / 8,
                       name + " swbar")
    for lat, zk, s, out in ck.sample(candidates):
        ck.matches(out, lat.counting(zk, s), "%s pc on subset %s" % (lat.spec.name, s))


# -- pc_surgery ------------------------------------------------------------------

PC_TREES_WITH_NODE = 4
PC_TREES_STRINGS = 3
PC_MAX_DET = 40


def pc_family():
    """Fixed small trees (a few with a node, a few strings; det <= 40), each
    with two surgery vertices and two (class, vertex) pc pairs."""
    rng = random.Random(FAMILY_SEED + 1)
    noded, strings = [], []
    while len(noded) < PC_TREES_WITH_NODE or len(strings) < PC_TREES_STRINGS:
        spec = random_spec(rng, "tree%d" % (len(noded) + len(strings)), (3, 5))
        lat = O.Lattice(spec)
        if lat.det > PC_MAX_DET or enumeration_proxy(lat) > 10 ** 6.5:
            continue
        if max(lat.delta) >= 3 and len(noded) < PC_TREES_WITH_NODE:
            noded.append(spec)
        elif max(lat.delta) < 3 and len(strings) < PC_TREES_STRINGS:
            strings.append(spec)
    out = []
    for spec in [star_spec("ex_graph2", -3, [-2] * 4), ade_spec("D5"), ade_spec("E7")] \
            + noded + strings:
        classes = O.Lattice(spec).classes()
        pairs = [(rng.choice(classes), rng.choice(spec.ids)) for _ in range(2)]
        out.append((spec, classes, rng.sample(spec.ids, 2), pairs))
    return out


def build_pc_surgery(h, rng):
    """Single-vertex pc surgery over all classes, rational reductions with
    the nodes deleted (string components only), and closed_form /
    univariate_fit pairs."""
    ops = []
    for spec, classes, vertices, pairs in pc_family():
        rel = spec.relabeled(rng)
        lat = O.Lattice(rel)
        path = h.write(rel)
        for v in vertices:
            ops.append(h.cli_op("surgery_pc", [
                "surgery", "--graph", path, "--class", "all", "--subset", v,
                "--mode", "pc"], {"spec": rel}))
        nodes = [rel.ids[v] for v in range(lat.n) if lat.delta[v] >= 3]
        if nodes:
            for mode in ("red1", "red2"):
                ops.append(h.cli_op(mode, [
                    "surgery", "--graph", path, "--class", "all",
                    "--subset", ",".join(nodes), "--mode", mode], {"spec": rel}))
        for j, (key, v) in enumerate(pairs):
            k = class_index(spec, classes, key, rel)
            for method in ("closed_form", "univariate_fit"):
                ops.append(h.cli_op("pc_" + method, [
                    "pc", "--graph", path, "--class", "#%d" % k, "--subset", v,
                    "--method", method], {"spec": rel, "pair": (path, j)}))
    rng.shuffle(ops)
    return ops


def check_pc_surgery(ops, outputs, ck):
    pairs, candidates = {}, []
    for op, text in zip(ops, outputs):
        if text is None:
            continue
        spec = op.meta["spec"]
        lat = O.Lattice(spec)
        rep = json.loads(text)
        if op.kind.startswith("pc_"):
            pairs.setdefault(op.meta["pair"], []).append(
                (op.kind, rep["periodic_constants"][0]))
            continue
        reports = rep["reports"]
        ck.expect(rep["verified"] and len(reports) == lat.det,
                  "%s %s: verified %s, %d classes, cofactor det %d"
                  % (spec.name, op.kind, rep["verified"], len(reports), lat.det))
        for r in reports:
            ck.expect(r["verdict"] == "equal" and Fraction(r["lhs"]) == Fraction(r["rhs"]),
                      "%s %s: lhs %s rhs %s" % (spec.name, op.kind, r["lhs"], r["rhs"]))
            if op.kind == "surgery_pc":
                key = _key(lat, r["class"])
                candidates.append(((lat, key, r), lambda lat=lat, key=key: lat.sw_cost(key)))
    for key, got in pairs.items():
        if len(got) < 2:
            continue        # the other method failed: counted in `failed`
        (m1, a), (m2, b) = got
        ck.expect(a["pc"] == b["pc"], "%s: %s pc %s, %s pc %s"
                  % (os.path.basename(key[0]), m1, a["pc"], m2, b["pc"]))
    for lat, key, r in ck.sample(candidates):
        # normalized_r(T) = sum_i term_i - pc: recompute both sides
        subset = [lat.spec.ids.index(v) for v in r["subset"]]
        lhs = lat.sw(key) + lat.quad(key)
        terms = sum((comp.component_term(lat.restrict(key, comp, origin))
                     for comp, origin in lat.components_minus(subset)), Fraction(0))
        pc = next(Fraction(i["pc"]) for i in r["items"] if "pc" in i)
        what = "%s class %s subset %s" % (lat.spec.name, key, r["subset"])
        ck.matches(Fraction(r["lhs"]), lhs, what + " normalized_r")
        ck.matches(pc, terms - lhs, what + " pc")


WORKLOADS = {
    "sw_tables": (build_sw_tables, check_sw_tables),
    "counting_surgery": (build_counting_surgery, check_counting_surgery),
    "cube_oracle": (build_cube_oracle, check_cube_oracle),
    "pc_surgery": (build_pc_surgery, check_pc_surgery),
}
