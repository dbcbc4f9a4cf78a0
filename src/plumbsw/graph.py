"""Negative-definite plumbing trees and their lattice apparatus.

A plumbing tree carries an integer Euler number on every vertex.  The
associated intersection lattice L is freely generated by the vertex
classes E_v with pairing matrix I (Euler numbers on the diagonal, 1 for
every edge).  Everything downstream -- the dual basis E*_v, the
discriminant group H = L'/L, the canonical cycle K, the distinguished
class representatives r_h and s_h -- is derived here with exact integer
arithmetic.  With d = det(-I), the dual lattice L' lies in (1/d)L, so
vectors are kept as d-scaled integer coordinates, and -I is eliminated once
by fraction-free integer (Bareiss) elimination, which yields the minors,
the determinant and the adjugate together.  Rationals are built only for
values handed back to the caller; no floats anywhere.
"""

from __future__ import annotations

import json
import math
import operator
from fractions import Fraction

import numpy as np

from .errors import (
    DuplicateVertex,
    InfeasibleQuery,
    InternalDisagreement,
    IterationCapExceeded,
    MethodPreconditionFailed,
    NotATree,
    NotInDualLattice,
    NotNegativeDefinite,
    PlumbingError,
)

LAUFER_CAP = 10 ** 6


def _bareiss(m):
    """Fraction-free integer elimination of a symmetric integer matrix.

    Bareiss's recurrence without pivoting: every division is exact and the
    k-th pivot is the k-th leading principal minor.  Returns (minors, adj):
    the leading principal minors up to the first one that is not positive,
    and the adjugate when all of them are positive (the matrix is then
    positive definite by Sylvester's criterion), else None.
    """
    n = len(m)
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    minors = []
    prev = 1
    for k in range(n):
        piv = a[k][k]
        minors.append(piv)
        if piv <= 0:
            return minors, None
        rk = a[k]
        for ri in a[k + 1:]:
            f = ri[k]
            ri[k] = 0
            for j in range(k + 1, 2 * n):
                ri[j] = (piv * ri[j] - f * rk[j]) // prev
        prev = piv
    # back substitution for adj = det * m^-1; its entries are integers, so
    # every division below is exact
    adj = [[0] * n for _ in range(n)]
    for i in range(n - 1, -1, -1):
        ri = a[i]
        for c in range(n):
            t = prev * ri[n + c] - sum(ri[j] * adj[j][c] for j in range(i + 1, n))
            adj[i][c] = t // ri[i]
    return minors, adj


def fraction_text(x):
    """Exact "p/q" text of a rational; the denominator is always written."""
    f = x if isinstance(x, Fraction) else Fraction(x)
    return "%d/%d" % (f.numerator, f.denominator)


def vector_text(x):
    """The coordinates of a vector as exact rational text, one string each:
    "p/q" in lowest terms, or "p" for an integer.  Written from the d-scaled
    coordinates c as c/d reduced by gcd(c, d), with no Fraction built."""
    d = x.graph.det
    out = []
    for c in x.scaled():
        g = math.gcd(c, d)
        out.append("%d" % (c // d) if g == d else "%d/%d" % (c // g, d // g))
    return out


def int_dtype(bound):
    """np.int64 for array work whose every value stays below bound in
    absolute value, when bound is below 2^63; object (Python ints) else."""
    return np.int64 if bound < 2 ** 63 else object


def int_rows(rows):
    """Rows of integers as a 2-d array: int64 where every entry fits, else an
    object array of Python ints."""
    try:
        return np.array(rows, dtype=np.int64)
    except OverflowError:
        return np.array(rows, dtype=object)


def _absmax(a):
    """The largest absolute value in an integer array, as a Python int."""
    return max(int(a.max()), -int(a.min()), 0) if a.size else 0


def _whole(values, d):
    """d-scaled coordinates as a tuple of ints; each must be a whole number."""
    out = []
    for s in values:
        if s.denominator != 1:
            raise NotInDualLattice("coordinate %s is not in (1/%d)Z" % (Fraction(s) / d, d))
        out.append(int(s.numerator))
    return tuple(out)


def _from_scaled(graph, scaled):
    """The vector with the given d-scaled integer coordinates (a tuple)."""
    x = object.__new__(LatticeVector)
    x.graph = graph
    x._s = scaled
    return x


class LatticeVector:
    """Element of (1/d)L in E-coordinates, tied to its graph (d = det(-I)).

    Stored as its d-scaled integer coordinates, so all arithmetic, pairings
    and membership tests are integer work; rationals are built only by
    `coords` and the pairing values handed back.  Every element of the dual
    lattice L' lies in (1/d)L.  Supports the partial order of coordinatewise
    comparison and the exact membership tests for L and L'.
    """

    __slots__ = ("graph", "_s")

    def __init__(self, graph, coords):
        d = graph.det
        self.graph = graph
        self._s = _whole([c * d if isinstance(c, int) else Fraction(c) * d
                          for c in coords], d)

    @property
    def coords(self):
        """Rational E-coordinates, for output."""
        d = self.graph.det
        return tuple(Fraction(c, d) for c in self._s)

    def __eq__(self, other):
        return (
            isinstance(other, LatticeVector)
            and self.graph is other.graph
            and self._s == other._s
        )

    def __hash__(self):
        return hash((id(self.graph), self._s))

    def __add__(self, other):
        s = self.graph.scaled_of(other)
        return _from_scaled(self.graph, tuple(a + b for a, b in zip(self._s, s)))

    def __sub__(self, other):
        s = self.graph.scaled_of(other)
        return _from_scaled(self.graph, tuple(a - b for a, b in zip(self._s, s)))

    def __neg__(self):
        return _from_scaled(self.graph, tuple(-a for a in self._s))

    def __rmul__(self, k):
        return _from_scaled(self.graph, _whole([k * a for a in self._s], self.graph.det))

    def __ge__(self, other):
        return all(a >= b for a, b in zip(self._s, self.graph.scaled_of(other)))

    def __le__(self, other):
        return all(a <= b for a, b in zip(self._s, self.graph.scaled_of(other)))

    def is_zero(self):
        return not any(self._s)

    def pair(self, other):
        """Intersection pairing (self, other)."""
        g = self.graph
        return Fraction(g.scaled_pair(self._s, g.scaled_of(other)), g.det * g.det)

    def scaled_pairings(self):
        """d (self, E_v) for every vertex v, as ints."""
        return self.graph.scaled_pairings(self._s)

    def pair_vertex(self, v):
        """(self, E_v) for a vertex index."""
        return Fraction(self.scaled_pairings()[v], self.graph.det)

    def dual_coords(self):
        """Coefficients a with self = sum_v a_v E*_v, i.e. a = -I x."""
        d = self.graph.det
        return tuple(Fraction(-q, d) for q in self.scaled_pairings())

    def in_dual_lattice(self):
        d = self.graph.det
        return not any(q % d for q in self.scaled_pairings())

    def is_integral(self):
        d = self.graph.det
        return not any(c % d for c in self._s)

    def scaled(self):
        """d-scaled integer coordinates."""
        return self._s

    def __repr__(self):
        return "LatticeVector(%s)" % (", ".join(str(c) for c in self.coords))


class ClassTable:
    """The group H = L'/L materialized as semi-open-cube representatives."""

    def __init__(self, reps_scaled):
        self.reps_scaled = reps_scaled          # sorted tuples of ints in [0, d)
        self.index = {r: i for i, r in enumerate(reps_scaled)}
        self.order = len(reps_scaled)

    def __len__(self):
        return self.order


class GraphForest:
    """Disjoint components of an induced subgraph, with origin maps."""

    def __init__(self, components, origins):
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
        # Sylvester: -I is positive definite iff every leading minor is positive
        minors, adjugate = _bareiss([[-x for x in row] for row in self.matrix])
        if adjugate is None:
            raise NotNegativeDefinite(len(minors), minors[-1])
        self.det = d = minors[-1]                    # det(-I) = |H|
        # d * E*_v is column v of the adjugate of -I: integer coordinates
        self.dual_scaled = tuple(
            tuple(adjugate[w][v] for w in range(self.n)) for v in range(self.n)
        )
        # the enumeration is finite only because every entry is positive
        if not all(c > 0 for col in self.dual_scaled for c in col):
            raise InternalDisagreement("dual basis entry not strictly positive")
        # canonical cycle: (K + E_v, E_v) + 2 = 0  <=>  (K, E_v) = -2 - e_v,
        # so K = (-I)^{-1} (2 + e) = sum_v (2 + e_v) E*_v
        self.kpair = tuple(-2 - e for e in self.eulers)   # (K, E_v), always integers
        kc = tuple(sum(-k * col[w] for k, col in zip(self.kpair, self.dual_scaled))
                   for w in range(self.n))
        if self.scaled_pairings(kc) != tuple(d * k for k in self.kpair):
            raise InternalDisagreement("canonical cycle fails the adjunction relations")
        # the graph keeps only coordinate tuples, never a vector of itself: a
        # vector points back at its graph, and that cycle would leave a dropped
        # graph to the cyclic garbage collector
        self._k = kc
        self.numerically_gorenstein = not any(c % d for c in kc)
        self.nodes = tuple(v for v in range(self.n) if self.delta[v] >= 3)
        # bounds for array work: |I x| <= width max|x|, and max d E*_v entry
        self.width = max(sum(map(abs, row)) for row in self.matrix)
        self.dual_max = max(map(max, self.dual_scaled))
        self._int64 = None
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

    @property
    def K(self):
        """The canonical cycle."""
        return _from_scaled(self, self._k)

    @property
    def ZK(self):
        """The anticanonical cycle Z_K = -K."""
        return _from_scaled(self, tuple(-c for c in self._k))

    # -- basic lattice arithmetic -------------------------------------------

    def vector(self, coords):
        return LatticeVector(self, coords)

    def zero(self):
        return _from_scaled(self, (0,) * self.n)

    def basis_vector(self, v):
        return _from_scaled(self, tuple(self.det if i == v else 0 for i in range(self.n)))

    def dual_vector(self, v):
        """E*_v as a lattice vector."""
        return _from_scaled(self, self.dual_scaled[v])

    def scaled_pair(self, x, y):
        """d^2 (x, y) from the d-scaled coordinate tuples of x and y."""
        total = sum(e * a * b for e, a, b in zip(self.eulers, x, y))
        for i, j in self.edges:
            total += x[i] * y[j] + x[j] * y[i]
        return total

    def scaled_pairings(self, x):
        """d (x, E_v) for every vertex v, from the d-scaled coordinates of x."""
        return tuple(e * c + sum(x[w] for w in nb)
                     for e, c, nb in zip(self.eulers, x, self.adj))

    def chi(self, x):
        """Riemann-Roch expression chi(x) = -(x, x + K)/2."""
        d = self.det
        s = self.scaled_of(x)
        xk = sum(c * k for c, k in zip(s, self.kpair))          # d (x, K)
        return Fraction(-(self.scaled_pair(s, s) + d * xk), 2 * d * d)

    def from_dual_coords(self, a):
        """sum_v a_v E*_v as a lattice vector."""
        s = [0] * self.n
        for av, col in zip(a, self.dual_scaled):
            if av:
                for w in range(self.n):
                    s[w] += av * col[w]
        return _from_scaled(self, _whole(s, self.det))

    # -- arguments and classes: the one rule for each kind of argument ------

    def scaled_of(self, x):
        """d-scaled coordinates of x, which must be a vector of this graph."""
        if getattr(x, "graph", None) is not self:
            raise MethodPreconditionFailed("vectors belong to different graphs")
        return x._s

    def class_key(self, h):
        """The hashable name of the class of h in H: its d-scaled coordinates
        mod d.  h is a vector of this graph or a tuple of n integers in
        d-scaled coordinates (a class key is one); either must lie in L'."""
        if not isinstance(h, tuple):
            s = self.scaled_of(h)
        else:
            try:
                s = tuple(map(operator.index, h))
            except TypeError:
                s = ()
            if len(s) != self.n:
                raise MethodPreconditionFailed("a class key is a tuple of %d integers, got %r"
                                               % (self.n, h))
        if any(q % self.det for q in self.scaled_pairings(s)):
            raise NotInDualLattice("vector pairs non-integrally with L")
        return tuple(c % self.det for c in s)

    def vertices(self, subset):
        """The vertex indices of subset, sorted and distinct, each in range."""
        out = set(subset)
        if not all(v in range(self.n) for v in out):
            raise MethodPreconditionFailed("vertex indices run from 0 to %d, got %r"
                                           % (self.n - 1, subset))
        return tuple(sorted(map(int, out)))

    def rep_from_key(self, key):
        return _from_scaled(self, tuple(key))

    def classes(self):
        """H generated by the classes [E*_v], by coset extension, sorted.

        For each generator g, k is the smallest k >= 1 with k g in the group S
        built so far (a divisor of the order of g), and S + {0, .., k - 1} g
        is the next group, k times as large, built in one broadcast.
        """
        if self._class_table is None:
            d = self.det
            if d * d >= 2 ** 62:
                # k g below reaches d^2 in int64, and d rows would not fit anyway
                raise InfeasibleQuery("%d classes are too many to tabulate" % d)
            group = np.zeros((1, self.n), dtype=np.int64)
            for col in self.dual_scaled:
                gen = np.array(col, dtype=np.int64) % d
                order = math.lcm(*(d // math.gcd(c, d) for c in col))
                k = next(k for k in range(1, order + 1)
                         if order % k == 0 and (group == k * gen % d).all(axis=1).any())
                group = ((np.arange(k)[:, None, None] * gen + group) % d).reshape(-1, self.n)
            if len(group) != d:
                # the all-class sweeps rely on this table covering H
                raise InternalDisagreement(
                    "the dual-basis classes generate %d classes, det is %d" % (len(group), d))
            group = group[np.lexsort(group.T[::-1])]
            self._class_table = ClassTable(list(map(tuple, group.tolist())))
        return self._class_table

    # -- Laufer-style iterations ----------------------------------------------

    def int_arrays(self, dtype):
        """(I, d E*) as numpy arrays of dtype (np.int64 or object), row v of
        the second being d E*_v; the int64 pair is built once and kept
        read-only on the graph."""
        if dtype is object:
            return np.array(self.matrix, dtype=object), np.array(self.dual_scaled, dtype=object)
        if self._int64 is None:
            self._int64 = tuple(np.array(a, dtype=np.int64) for a in (self.matrix, self.dual_scaled))
            for a in self._int64:
                a.flags.writeable = False
        return self._int64

    def laufer_rows(self, starts, demands):
        """For each row of starts (d-scaled coordinates, shape (k, n)), the
        minimal x >= start with x = start mod L and (x, E_v) <= -demands[v];
        one demand vector serves every row.  Returns the (k, n) array of the
        d-scaled points, int64 or object as below.

        Generalized Laufer loop, run on every violated (row, v) at once.  The
        feasible set of a row is closed under coordinatewise min, because the
        off-diagonal entries of I are nonnegative, so it has one minimal
        element x_min.  If x <= x_min and (x, E_v) > -demands[v], then
        x_v < x_min_v, since x_v = x_min_v would give (x_min, E_v) >= (x, E_v);
        so x + E_v <= x_min.  That holds for each violated v on its own, so
        adding E_v at all of them in one pass never passes x_min, and the
        loop stops at x_min.  It starts higher than start: every feasible x
        has -I x >= demands, so x >= x* = sum_v demands[v] E*_v, the entries
        of (-I)^-1 being positive, and the least point above both start and
        x* in the class of start lies below x_min too.

        dtype: y = start + sum_v c_v (d E*_v), with
        c_v = max(0, ceil(((start, E_v) + demands[v]) / d)), is feasible and
        in the class of start, so x_min <= y and every x of the loop lies
        between start and y.  Where a bound on |y|, on x*, or on the pairings
        and steps of points up to y could pass int64, the loop runs the same
        way on Python ints (object arrays).  A row that needs LAUFER_CAP unit
        steps or more from start is refused, as the one-vertex loop refused
        it, which converts bugs into diagnostics instead of hangs.
        """
        n, d = self.n, self.det
        x = int_rows(starts)
        if not x.size:
            return x.reshape(0, n)
        dem = [int(t) for t in demands]
        s_max, dem_max = _absmax(x), max(map(abs, dem))
        # c_v <= (s_max width + d dem_max) / d^2 + 1, so |y| <= reach
        reach = s_max + n * ((s_max * self.width + d * dem_max) // (d * d) + 1) * self.dual_max
        dt = int_dtype(max(reach, d) * (self.width + 2 * n) + d * dem_max
                       + n * dem_max * self.dual_max)
        m, dual = self.int_arrays(dt)
        x = x.astype(dt, copy=False)
        start = x.copy()
        dem = np.array(dem, dtype=dt)
        x += d * np.maximum((dem @ dual - x + (d - 1)) // d, 0)
        q = x @ m                                       # d (x, E_v)
        lim = -d * dem
        for _ in range(LAUFER_CAP):
            up = q > lim
            if not up.any():
                break
            step = d * up.astype(dt)
            x += step
            q += step @ m
        # a row still moving after LAUFER_CAP passes moved in every one of them
        if ((x - start).sum(axis=1) // d >= LAUFER_CAP).any():
            raise IterationCapExceeded("Laufer iteration exceeded %d steps" % LAUFER_CAP)
        return x

    def laufer(self, start, demands):
        """Minimal x >= start with x = start mod L and (x, E_v) <= -demands[v]:
        one row of laufer_rows."""
        x = self.laufer_rows([self.scaled_of(start)], demands)[0]
        return _from_scaled(self, tuple(x.tolist()))

    def fundamental_cycle(self):
        if "zmin" not in self._cache:
            start = _from_scaled(self, (self.det,) * self.n)
            self._cache["zmin"] = self.laufer(start, [0] * self.n).scaled()
        return _from_scaled(self, self._cache["zmin"])

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
        """Connected components of the full subgraph on V minus subset, whose
        vertex indices are read by vertices().

        Component graphs are pooled by their vertex set, so the same piece
        arising from different deletions shares one object (and its caches).
        """
        subset = self.vertices(subset)
        key = ("components", subset)
        if key not in self._cache:
            pool = self._cache.setdefault("component_pool", {})
            keep = [v for v in range(self.n) if v not in subset]
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
            self._cache[key] = GraphForest(comps, origins)
        return self._cache[key]


# -- module-level operations -------------------------------------------------


def validate(ids, eulers, edges) -> PlumbingGraph:
    """Validate raw vertex/euler/edge data into a PlumbingGraph.

    eulers may be a dict id -> int or a sequence aligned with ids;
    edges reference vertex ids.
    """
    ids = list(ids)
    if len(set(ids)) != len(ids):
        raise DuplicateVertex("repeated vertex id")
    if isinstance(eulers, dict):
        missing = [i for i in ids if i not in eulers]
        if missing:
            raise PlumbingError("no Euler number for vertex %s" % (missing[0],))
        eulers = [eulers[i] for i in ids]
    if len(eulers) != len(ids):
        raise PlumbingError("%d Euler numbers for %d vertices" % (len(eulers), len(ids)))
    index = {v: i for i, v in enumerate(ids)}
    idx_edges = []
    for a, b in edges:
        if a not in index or b not in index:
            raise PlumbingError("edge references undeclared vertex (%s, %s)" % (a, b))
        idx_edges.append((index[a], index[b]))
    return PlumbingGraph(ids, eulers, idx_edges)


def class_of(x: LatticeVector) -> LatticeVector:
    """The semi-open-cube representative of [x]."""
    return x.graph.rep_from_key(x.graph.class_key(x))


def minimal_s_rows(g: PlumbingGraph, keys):
    """s_h for each row of class keys r_h, as a d-scaled (k, n) array: the
    Laufer point of r_h at zero demands.  Each s_h - r_h must be an effective
    integral cycle."""
    r = int_rows(keys)
    s = g.laufer_rows(r, [0] * g.n)
    if (s < r).any() or ((s - r) % g.det).any():
        raise InternalDisagreement("s_h - r_h is not an effective integral cycle")
    return s


def minimal_s_rep(g: PlumbingGraph, h):
    """Minimal element s_h of the Lipman cone in the class of h.

    h is read by g.class_key.  Returns (s_h, delta) with delta = s_h - r_h,
    an effective integral cycle.
    """
    r = g.rep_from_key(g.class_key(h))
    s = _from_scaled(g, tuple(minimal_s_rows(g, [r.scaled()])[0].tolist()))
    return s, s - r


def dual_restrict(x: LatticeVector, comp: PlumbingGraph, origin) -> LatticeVector:
    """Restriction of x in L'(T) to L'(T_i) adjoint to the inclusion of lattices.

    Defined by (y, E_w)_{T_i} = (x, E_w)_T for every vertex w of the
    component; origin maps component positions to parent indices.  comp
    must be the piece of x's graph that components_minus pools for origin.
    """
    if x.graph._cache.get("component_pool", {}).get(tuple(origin)) is not comp:
        raise MethodPreconditionFailed("%s is not the piece of its graph on %r"
                                       % (comp.ids, origin))
    dp = x.graph.det
    q = x.scaled_pairings()
    pair = [q[pv] // dp for pv in origin]
    if any(q[pv] % dp for pv in origin):
        raise NotInDualLattice("vector pairs non-integrally with L")
    # solve I_i y = pair exactly: d_i y = -adj(-I_i) pair
    y = [0] * comp.n
    for p, col in zip(pair, comp.dual_scaled):
        if p:
            for w in range(comp.n):
                y[w] -= p * col[w]
    if comp.scaled_pairings(y) != tuple(comp.det * p for p in pair):
        raise InternalDisagreement("restriction to %s does not pair like x" % (comp.ids,))
    return _from_scaled(comp, tuple(y))


def is_rational(g: PlumbingGraph) -> bool:
    """Artin criterion: chi of the fundamental cycle equals 1."""
    if "rational" not in g._cache:
        g._cache["rational"] = g.chi(g.fundamental_cycle()) == 1
    return g._cache["rational"]


def connected_closure(g: PlumbingGraph, subset):
    """Vertices of the minimal connected full subgraph containing subset:
    the tree paths from every vertex of subset to the smallest one."""
    subset = g.vertices(subset)
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
    try:
        ids = [str(v["id"]) for v in data["vertices"]]
        eulers = [int(v["euler"]) for v in data["vertices"]]
        edges = [(str(a), str(b)) for a, b in data["edges"]]
    except (KeyError, TypeError) as exc:
        raise PlumbingError("malformed graph JSON: %r" % exc) from None
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
