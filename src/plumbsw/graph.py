"""Negative-definite plumbing trees and their lattice apparatus.

A plumbing tree carries an integer Euler number on every vertex.  The
associated intersection lattice L is freely generated by the vertex
classes E_v with pairing matrix I (Euler numbers on the diagonal, 1 for
every edge).  Everything downstream -- the dual basis E*_v, the
discriminant group H = L'/L, the canonical cycle K, the distinguished
class representatives r_h and s_h -- is derived here with exact rational
arithmetic.  No floats anywhere.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import (
    DuplicateVertex,
    InternalDisagreement,
    IterationCapExceeded,
    NotATree,
    NotInDualLattice,
    NotNegativeDefinite,
    PlumbingError,
)

LAUFER_CAP = 10 ** 6


def _det_fraction(m):
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if a[r][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            det = -det
        det *= a[c][c]
        inv = Fraction(1) / a[c][c]
        for r in range(c + 1, n):
            if a[r][c]:
                f = a[r][c] * inv
                for j in range(c, n):
                    a[r][j] -= f * a[c][j]
    return det


def _invert_fraction(m):
    """Exact inverse of a nonsingular matrix over Q."""
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for c in range(n):
        p = next(r for r in range(c, n) if a[r][c] != 0)
        a[c], a[p] = a[p], a[c]
        piv = a[c][c]
        a[c] = [x / piv for x in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [row[n:] for row in a]


def fraction_text(x):
    """Exact "p/q" text of a rational; the denominator is always written."""
    f = Fraction(x)
    return "%d/%d" % (f.numerator, f.denominator)


class LatticeVector:
    """Element of L (x) Q in E-coordinates, tied to its graph.

    Supports the partial order of coordinatewise comparison and the exact
    membership tests for L and L'.
    """

    __slots__ = ("graph", "coords")

    def __init__(self, graph, coords):
        self.graph = graph
        self.coords = tuple(Fraction(c) for c in coords)

    def __eq__(self, other):
        return (
            isinstance(other, LatticeVector)
            and self.graph is other.graph
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((id(self.graph), self.coords))

    def __add__(self, other):
        assert self.graph is other.graph
        return LatticeVector(self.graph, [a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other):
        assert self.graph is other.graph
        return LatticeVector(self.graph, [a - b for a, b in zip(self.coords, other.coords)])

    def __neg__(self):
        return LatticeVector(self.graph, [-a for a in self.coords])

    def __rmul__(self, k):
        return LatticeVector(self.graph, [k * a for a in self.coords])

    def __ge__(self, other):
        return all(a >= b for a, b in zip(self.coords, other.coords))

    def __le__(self, other):
        return all(a <= b for a, b in zip(self.coords, other.coords))

    def is_zero(self):
        return all(c == 0 for c in self.coords)

    def pair(self, other):
        """Intersection pairing (self, other)."""
        return self.graph.pair(self.coords, other.coords)

    def pair_vertex(self, v):
        """(self, E_v) for a vertex index."""
        return self.graph.pair_vertex(self.coords, v)

    def dual_coords(self):
        """Coefficients a with self = sum_v a_v E*_v, i.e. a = -I x."""
        g = self.graph
        return tuple(-g.pair_vertex(self.coords, v) for v in range(g.n))

    def in_dual_lattice(self):
        return all(self.pair_vertex(v).denominator == 1 for v in range(self.graph.n))

    def is_integral(self):
        return all(c.denominator == 1 for c in self.coords)

    def scaled(self):
        """d-scaled integer coordinates; requires membership in (1/d)L."""
        d = self.graph.det
        out = []
        for c in self.coords:
            s = c * d
            if s.denominator != 1:
                raise NotInDualLattice("coordinate %s is not in (1/%d)Z" % (c, d))
            out.append(int(s))
        return tuple(out)

    def __repr__(self):
        return "LatticeVector(%s)" % (", ".join(str(c) for c in self.coords))


class ClassTable:
    """The group H = L'/L materialized as semi-open-cube representatives."""

    def __init__(self, graph, reps_scaled):
        self.graph = graph
        self.reps_scaled = reps_scaled          # sorted tuples of ints in [0, d)
        self.index = {r: i for i, r in enumerate(reps_scaled)}
        self.order = len(reps_scaled)

    @property
    def reps(self):
        d = self.graph.det
        return [LatticeVector(self.graph, [Fraction(c, d) for c in r])
                for r in self.reps_scaled]

    def rep_vector(self, i):
        d = self.graph.det
        return LatticeVector(self.graph, [Fraction(c, d) for c in self.reps_scaled[i]])

    def __len__(self):
        return self.order


class GraphForest:
    """Disjoint components of an induced subgraph, with origin maps."""

    def __init__(self, parent, components, origins):
        self.parent = parent
        self.components = components            # list of PlumbingGraph
        self.origins = origins                  # list of tuples of parent indices

    def __iter__(self):
        return iter(zip(self.components, self.origins))

    def __len__(self):
        return len(self.components)


class PlumbingGraph:
    """A validated negative-definite plumbing tree.

    Immutable after construction; all derived data is cached on the object,
    so sharing one instance across threads or repeated queries is safe.
    """

    def __init__(self, ids, eulers, edges):
        self.ids = tuple(str(i) for i in ids)
        self.index = {v: i for i, v in enumerate(self.ids)}
        self.eulers = tuple(int(e) for e in eulers)
        self.n = len(self.ids)
        self.edges = tuple(sorted(tuple(sorted(e)) for e in edges))
        adj = [[] for _ in range(self.n)]
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        self.adj = tuple(tuple(sorted(x)) for x in adj)
        self.delta = tuple(len(a) for a in self.adj)
        edge_set = set(self.edges)
        self.matrix = tuple(
            tuple(
                self.eulers[i] if i == j else int((min(i, j), max(i, j)) in edge_set)
                for j in range(self.n)
            )
            for i in range(self.n)
        )
        self._validate()
        neg = [[-x for x in row] for row in self.matrix]
        self.det = int(_det_fraction(neg))           # det(-I) = |H|
        inv_neg = _invert_fraction(neg)
        # E*_v is column v of (-I)^{-1}; entries are strictly positive.
        self.dual_basis_columns = tuple(
            tuple(inv_neg[w][v] for w in range(self.n)) for v in range(self.n)
        )
        # the enumeration is finite only because every entry is positive
        if not all(c > 0 for col in self.dual_basis_columns for c in col):
            raise InternalDisagreement("dual basis entry not strictly positive")
        # d * E*_v has integer coordinates (adjugate of -I).
        self.dual_scaled = tuple(
            tuple(int(c * self.det) for c in col) for col in self.dual_basis_columns
        )
        # canonical cycle: (K + E_v, E_v) + 2 = 0  <=>  (K, E_v) = -2 - e_v
        rhs = [Fraction(-2 - e) for e in self.eulers]
        kc = [sum(inv_neg[i][j] * (-rhs[j]) for j in range(self.n)) for i in range(self.n)]
        self.K = LatticeVector(self, kc)
        for v in range(self.n):
            assert self.K.pair_vertex(v) + 2 + self.eulers[v] == 0
        self.ZK = -self.K
        self.kpair = tuple(-2 - e for e in self.eulers)   # (K, E_v), always integers
        self.numerically_gorenstein = self.K.is_integral()
        self.nodes = tuple(v for v in range(self.n) if self.delta[v] >= 3)
        self.ends = tuple(v for v in range(self.n) if self.delta[v] <= 1)
        self._class_table = None
        self._cache = {}

    def _validate(self):
        if self.n == 0:
            raise PlumbingError("empty vertex list")
        if len(set(self.ids)) != self.n:
            raise DuplicateVertex("repeated vertex id")
        for a, b in self.edges:
            if a == b:
                raise NotATree("self-loop at %s" % self.ids[a])
        if len(set(self.edges)) != len(self.edges):
            raise NotATree("repeated edge")
        if len(self.edges) != self.n - 1:
            raise NotATree("a tree on %d vertices needs %d edges, got %d"
                           % (self.n, self.n - 1, len(self.edges)))
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for w in self.adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != self.n:
            raise NotATree("graph is disconnected")
        neg = [[-x for x in row] for row in self.matrix]
        for k in range(1, self.n + 1):
            minor = _det_fraction([row[:k] for row in neg[:k]])
            if minor <= 0:
                raise NotNegativeDefinite(k, minor)

    # -- basic lattice arithmetic -------------------------------------------

    def vector(self, coords):
        return LatticeVector(self, coords)

    def zero(self):
        return LatticeVector(self, [0] * self.n)

    def basis_vector(self, v):
        return LatticeVector(self, [int(i == v) for i in range(self.n)])

    def dual_vector(self, v):
        """E*_v as a lattice vector."""
        return LatticeVector(self, self.dual_basis_columns[v])

    def pair(self, x, y):
        m = self.matrix
        return sum(
            x[i] * sum(m[i][j] * y[j] for j in range(self.n) if m[i][j])
            for i in range(self.n)
        )

    def pair_vertex(self, x, v):
        s = self.eulers[v] * x[v]
        for w in self.adj[v]:
            s += x[w]
        return s

    def chi(self, x):
        """Riemann-Roch expression chi(x) = -(x, x + K)/2."""
        xk = sum(c * k for c, k in zip(x.coords, self.kpair))
        return -(x.pair(x) + xk) / 2

    def from_dual_coords(self, a):
        """sum_v a_v E*_v as a lattice vector."""
        coords = [Fraction(0)] * self.n
        for v, av in enumerate(a):
            if av:
                col = self.dual_basis_columns[v]
                for w in range(self.n):
                    coords[w] += av * col[w]
        return LatticeVector(self, coords)

    # -- classes --------------------------------------------------------------

    def class_key(self, x):
        """Scaled coordinates of x mod L: the hashable name of [x] in H."""
        if not x.in_dual_lattice():
            raise NotInDualLattice("vector pairs non-integrally with L")
        return tuple(c % self.det for c in x.scaled())

    def rep_from_key(self, key):
        d = self.det
        return LatticeVector(self, [Fraction(c, d) for c in key])

    def classes(self):
        """H enumerated by closure of {[E*_v]} under addition, sorted."""
        if self._class_table is None:
            d = self.det
            gens = [tuple(c % d for c in col) for col in self.dual_scaled]
            zero = tuple([0] * self.n)
            seen = {zero}
            frontier = [zero]
            while frontier:
                cur = frontier.pop()
                for gcol in gens:
                    nxt = tuple((a + b) % d for a, b in zip(cur, gcol))
                    if nxt not in seen:
                        seen.add(nxt)
                        frontier.append(nxt)
            reps = sorted(seen)
            if len(reps) != d:
                # the all-class sweeps rely on this table covering H
                raise InternalDisagreement(
                    "closure found %d classes, det is %d" % (len(reps), d))
            self._class_table = ClassTable(self, reps)
        return self._class_table

    # -- Laufer-style iterations ----------------------------------------------

    def laufer(self, start, demands, cap=LAUFER_CAP):
        """Minimal x >= start with x = start mod L and (x, E_v) <= -demands[v].

        Generalized Laufer loop: repeatedly add E_v at a violated vertex.
        Termination is guaranteed by negative definiteness; the cap converts
        bugs into diagnostics instead of hangs.
        """
        d = self.det
        x = list(start.scaled())
        # q_v = d * (x, E_v), maintained incrementally
        q = [self.eulers[v] * x[v] + sum(x[w] for w in self.adj[v]) for v in range(self.n)]
        lim = [-d * int(t) for t in demands]
        for _ in range(cap):
            v = next((v for v in range(self.n) if q[v] > lim[v]), None)
            if v is None:
                return LatticeVector(self, [Fraction(c, d) for c in x])
            x[v] += d
            q[v] += d * self.eulers[v]
            for w in self.adj[v]:
                q[w] += d
        raise IterationCapExceeded("Laufer iteration exceeded %d steps" % cap)

    def fundamental_cycle(self):
        if "zmin" not in self._cache:
            start = LatticeVector(self, [1] * self.n)
            self._cache["zmin"] = self.laufer(start, [0] * self.n)
        return self._cache["zmin"]

    def deep_demands(self, depth):
        """Dual-coordinate floor making every counting identity applicable.

        Per vertex: at least delta_v - 2 (convexity region), at least
        -1 - e_v (the cone where the counting function matches the
        quadratic), plus `depth` extra units.
        """
        return [max(self.delta[v] - 2, -1 - self.eulers[v]) + depth for v in range(self.n)]

    def deep_point(self, class_key, depth):
        """Minimal element of the class with all dual coordinates deep."""
        return self.laufer(self.rep_from_key(class_key), self.deep_demands(depth))

    # -- induced subgraphs ------------------------------------------------------

    def components_minus(self, subset):
        """Connected components of the full subgraph on V minus subset.

        Component graphs are pooled by their vertex set, so the same piece
        arising from different deletions shares one object (and its caches).
        """
        key = ("components", frozenset(subset))
        if key not in self._cache:
            pool = self._cache.setdefault("component_pool", {})
            keep = [v for v in range(self.n) if v not in set(subset)]
            seen = set()
            comps = []
            origins = []
            keepset = set(keep)
            for v in keep:
                if v in seen:
                    continue
                comp = []
                stack = [v]
                seen.add(v)
                while stack:
                    u = stack.pop()
                    comp.append(u)
                    for w in self.adj[u]:
                        if w in keepset and w not in seen:
                            seen.add(w)
                            stack.append(w)
                comp.sort()
                ckey = tuple(comp)
                if ckey not in pool:
                    sub_ids = [self.ids[u] for u in comp]
                    sub_eul = [self.eulers[u] for u in comp]
                    pos = {u: i for i, u in enumerate(comp)}
                    sub_edges = [
                        (pos[a], pos[b]) for a, b in self.edges if a in pos and b in pos
                    ]
                    pool[ckey] = PlumbingGraph(sub_ids, sub_eul, sub_edges)
                comps.append(pool[ckey])
                origins.append(ckey)
            self._cache[key] = GraphForest(self, comps, origins)
        return self._cache[key]


# -- module-level operations -------------------------------------------------


def validate(ids, eulers, edges) -> PlumbingGraph:
    """Validate raw vertex/euler/edge data into a PlumbingGraph.

    eulers may be a dict id -> int or a sequence aligned with ids;
    edges reference vertex ids.
    """
    ids = list(ids)
    if isinstance(eulers, dict):
        eulers = [eulers[i] for i in ids]
    if len(set(ids)) != len(ids):
        raise DuplicateVertex("repeated vertex id")
    index = {v: i for i, v in enumerate(ids)}
    idx_edges = []
    for a, b in edges:
        if a not in index or b not in index:
            raise PlumbingError("edge references undeclared vertex (%s, %s)" % (a, b))
        idx_edges.append((index[a], index[b]))
    return PlumbingGraph(ids, eulers, idx_edges)


def dual_basis(g: PlumbingGraph):
    """The anti-dual basis E*_v (columns of (-I)^{-1}) and d = det(-I)."""
    return [g.dual_vector(v) for v in range(g.n)], g.det


def canonical_cycle(g: PlumbingGraph):
    """K solving the adjunction system, Z_K = -K, and the K-in-L flag."""
    return g.K, g.ZK, g.numerically_gorenstein


def class_table(g: PlumbingGraph) -> ClassTable:
    return g.classes()


def class_of(x: LatticeVector) -> LatticeVector:
    """The semi-open-cube representative of [x]."""
    return x.graph.rep_from_key(x.graph.class_key(x))


def minimal_s_rep(g: PlumbingGraph, h: LatticeVector):
    """Minimal element s_h of the Lipman cone in the class of h.

    Returns (s_h, delta) with delta = s_h - r_h, an effective integral cycle.
    """
    r = class_of(h)
    s = g.laufer(r, [0] * g.n)
    delta = s - r
    assert delta.is_integral() and delta >= g.zero()
    return s, delta


def chi(x: LatticeVector):
    return x.graph.chi(x)


def components_minus(g: PlumbingGraph, subset) -> GraphForest:
    return g.components_minus(subset)


def dual_restrict(x: LatticeVector, comp: PlumbingGraph, origin) -> LatticeVector:
    """Restriction of x in L'(T) to L'(T_i) adjoint to the inclusion of lattices.

    Defined by (y, E_w)_{T_i} = (x, E_w)_T for every vertex w of the
    component; origin maps component positions to parent indices.
    """
    parent = x.graph
    pair = [parent.pair_vertex(x.coords, pv) for pv in origin]
    # solve I_i y = pair exactly: y = -(-I_i)^{-1} pair
    y = [Fraction(0)] * comp.n
    for i in range(comp.n):
        col = comp.dual_basis_columns[i]  # column i of (-I_i)^{-1}
        for w in range(comp.n):
            y[w] -= col[w] * pair[i]
    # columns of inv are symmetric here (I symmetric) but keep the solve honest
    res = LatticeVector(comp, y)
    for i in range(comp.n):
        assert res.pair_vertex(i) == pair[i]
    return res


def project_onto(x: LatticeVector, subset):
    """Coordinate restriction x|_subset, a plain tuple in subset order."""
    return tuple(x.coords[v] for v in sorted(subset))


def is_rational(g: PlumbingGraph) -> bool:
    """Artin criterion: chi of the fundamental cycle equals 1."""
    if "rational" not in g._cache:
        g._cache["rational"] = g.chi(g.fundamental_cycle()) == 1
    return g._cache["rational"]


def connected_closure(g: PlumbingGraph, subset):
    """Vertices of the minimal connected full subgraph containing subset."""
    subset = sorted(set(subset))
    if not subset:
        return []
    root = subset[0]
    parent = {root: None}
    stack = [root]
    while stack:
        u = stack.pop()
        for w in g.adj[u]:
            if w not in parent:
                parent[w] = u
                stack.append(w)
    keep = set()
    for v in subset:
        u = v
        while u is not None and u not in keep:
            keep.add(u)
            u = parent[u]
    # trim leaves of the induced subtree that are not required
    need = set(subset)
    changed = True
    while changed:
        changed = False
        for v in sorted(keep):
            if v in need:
                continue
            if sum(1 for w in g.adj[v] if w in keep) <= 1:
                keep.discard(v)
                changed = True
    return sorted(keep)


# -- graph file formats -------------------------------------------------------


def parse_graph_text(text: str) -> PlumbingGraph:
    """Parse the line format: `v <id> <euler>` then `e <id> <id>`, # comments."""
    ids, eulers, edges = [], [], []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "v" and len(parts) == 3:
            ids.append(parts[1])
            eulers.append(int(parts[2]))
        elif parts[0] == "e" and len(parts) == 3:
            edges.append((parts[1], parts[2]))
        else:
            raise PlumbingError("line %d: cannot parse %r" % (lineno, raw))
    return validate(ids, eulers, edges)


def parse_graph_json(text: str) -> PlumbingGraph:
    data = json.loads(text)
    ids = [str(v["id"]) for v in data["vertices"]]
    eulers = [int(v["euler"]) for v in data["vertices"]]
    edges = [(str(a), str(b)) for a, b in data["edges"]]
    return validate(ids, eulers, edges)


def parse_graph(text: str) -> PlumbingGraph:
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return parse_graph_json(text)
    return parse_graph_text(text)


def emit_graph_text(g: PlumbingGraph) -> str:
    lines = ["v %s %d" % (g.ids[v], g.eulers[v]) for v in range(g.n)]
    lines += ["e %s %s" % (g.ids[a], g.ids[b]) for a, b in g.edges]
    return "\n".join(lines) + "\n"


def load_graph(path) -> PlumbingGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())
