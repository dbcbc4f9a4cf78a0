"""Independent reference arithmetic for checking plumbsw outputs.

Nothing here imports plumbsw.  The determinant is a cofactor (Laplace)
expansion, the series is expanded as a dictionary of monomials, and the
lattice quantities the checks need (dual basis, canonical cycle, class
keys, generalized Laufer points, restrictions to components) are derived
from the intersection matrix with this module's own exact arithmetic.

Vectors of L' are held as d-scaled integer tuples, d = det(-I): the
vector with scaled coordinates c has E-coordinates c / d.
"""

from __future__ import annotations

import math
from fractions import Fraction


def det_cofactor(m):
    """Determinant by Laplace expansion along rows, memoised on the set of
    columns still free, so an n x n matrix costs O(n 2^n) products."""
    n = len(m)
    memo = {}

    def rec(cols):
        row = n - len(cols)
        if row == n:
            return 1
        got = memo.get(cols)
        if got is not None:
            return got
        total = 0
        for j, c in enumerate(cols):
            a = m[row][c]
            if a:
                total += (-1) ** j * a * rec(cols[:j] + cols[j + 1:])
        memo[cols] = total
        return total

    return rec(tuple(range(n)))


def _adjugate(m):
    """adj(m) of a positive-definite integer matrix by fraction-free
    Gauss-Jordan elimination: [m | 1] becomes [det(m) 1 | adj(m)].  Every
    division is exact, and the leading minors (the pivots) are positive."""
    n = len(m)
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    prev = 1
    for k in range(n):
        pk = a[k]
        for i in range(n):
            if i != k:
                ai, f = a[i], a[i][k]
                a[i] = [(pk[k] * x - f * y) // prev for x, y in zip(ai, pk)]
        prev = pk[k]
    return [row[n:] for row in a]


class Spec:
    """A plumbing tree as the benchmark writes it: vertex ids in declaration
    order, their Euler numbers, and edges as id pairs."""

    def __init__(self, name, ids, eulers, edges):
        self.name = name
        self.ids = list(ids)
        self.eulers = list(eulers)
        self.edges = [tuple(e) for e in edges]

    def text(self):
        lines = ["# %s" % self.name]
        lines += ["v %s %d" % (v, e) for v, e in zip(self.ids, self.eulers)]
        lines += ["e %s %s" % e for e in self.edges]
        return "\n".join(lines) + "\n"

    def relabeled(self, rng):
        """Same tree with vertex declaration and edge order shuffled."""
        order = list(range(len(self.ids)))
        rng.shuffle(order)
        edges = [e if rng.random() < 0.5 else (e[1], e[0]) for e in self.edges]
        rng.shuffle(edges)
        return Spec(self.name, [self.ids[i] for i in order],
                    [self.eulers[i] for i in order], edges)


def negative_definite(spec):
    """Sylvester's criterion on -I with cofactor determinants."""
    neg = neg_matrix(spec)
    return all(det_cofactor([row[:k] for row in neg[:k]]) > 0
               for k in range(1, len(neg) + 1))


def neg_matrix(spec):
    index = {v: i for i, v in enumerate(spec.ids)}
    n = len(spec.ids)
    neg = [[0] * n for _ in range(n)]
    for i, e in enumerate(spec.eulers):
        neg[i][i] = -e
    for a, b in spec.edges:
        neg[index[a]][index[b]] = neg[index[b]][index[a]] = -1
    return neg


class Lattice:
    """Lattice data of a negative-definite tree, from its own arithmetic."""

    def __init__(self, spec):
        self.spec = spec
        self.n = n = len(spec.ids)
        self.eulers = list(spec.eulers)
        index = {v: i for i, v in enumerate(spec.ids)}
        self.adj = [[] for _ in range(n)]
        for a, b in spec.edges:
            self.adj[index[a]].append(index[b])
            self.adj[index[b]].append(index[a])
        self.delta = [len(x) for x in self.adj]
        neg = neg_matrix(spec)
        self.det = det_cofactor(neg)
        adj = _adjugate(neg)
        # dual[v][w] = d * (E*_v)_w, E*_v being column v of (-I)^{-1}
        self.dual = [[adj[w][v] for w in range(n)] for v in range(n)]
        kv = [-2 - e for e in self.eulers]                  # (K, E_v)
        # x = sum_v a_v E*_v with a_v = -(x, E_v)
        self.K = tuple(sum(-kv[v] * self.dual[v][w] for v in range(n)) for w in range(n))

    # -- arithmetic on d-scaled vectors ---------------------------------------

    def pairv(self, x, v):
        """d * (x, E_v)."""
        return self.eulers[v] * x[v] + sum(x[w] for w in self.adj[v])

    def pair(self, x, y):
        return Fraction(sum(x[v] * self.pairv(y, v) for v in range(self.n)),
                        self.det ** 2)

    def quad(self, x):
        """((K + 2x)^2 + |V|) / 8."""
        kx = [k + 2 * c for k, c in zip(self.K, x)]
        return (self.pair(kx, kx) + self.n) / 8

    def key(self, x):
        return tuple(c % self.det for c in x)

    def classes(self):
        """H = L'/L as the sorted d-scaled representatives in [0, d)^n.

        The subgroup generated by S and g is the union of the cosets
        S + m g for m below the order of g modulo S, so each class is
        produced once."""
        d = self.det
        group = {tuple([0] * self.n)}
        for col in self.dual:
            g = tuple(c % d for c in col)
            grown = set(group)
            step = g
            while step not in group:
                grown.update(tuple((a + b) % d for a, b in zip(x, step)) for x in group)
                step = tuple((a + b) % d for a, b in zip(step, g))
            group = grown
        return sorted(group)

    def laufer(self, start, demands):
        """Least x >= start, x = start mod L, with (x, E_v) <= -demands[v]."""
        d = self.det
        x = list(start)
        q = [self.pairv(x, v) for v in range(self.n)]
        while True:
            v = next((v for v in range(self.n) if q[v] > -d * demands[v]), None)
            if v is None:
                return tuple(x)
            x[v] += d
            q[v] += d * self.eulers[v]
            for w in self.adj[v]:
                q[w] += d

    def deep_point(self, key, depth):
        demands = [max(self.delta[v] - 2, -1 - self.eulers[v]) + depth
                   for v in range(self.n)]
        return self.laufer(key, demands)

    def s_rep(self, key):
        return self.laufer(key, [0] * self.n)

    # -- the dictionary-expanded series -------------------------------------

    def _factor(self, v, bound):
        """Taylor coefficients of (1 - t)^(delta_v - 2) below t^bound."""
        dv = self.delta[v]
        if dv == 0:
            return {k: k + 1 for k in range(bound)}
        if dv == 1:
            return {k: 1 for k in range(bound)}
        if dv == 2:
            return {0: 1}
        return {b: (-1) ** b * math.comb(dv - 2, b) for b in range(min(bound, dv - 1))}

    def series(self, bounds, live=None):
        """The series as a dictionary {d-scaled exponent: coefficient},
        expanded vertex by vertex with free exponents a_v < bounds[v].

        live(coords) may prune a partial product: factors only add
        nonnegative multiples of dual-basis vectors, so a monomial whose
        partial exponent already fails a monotone condition stays out.
        """
        zero = tuple([0] * self.n)
        out = {zero: 1}
        for v in range(self.n):
            col = self.dual[v]
            f = self._factor(v, bounds[v] if self.delta[v] <= 1 else self.delta[v])
            nxt = {}
            for c, z in out.items():
                for k, coef in f.items():
                    e = tuple(a + k * b for a, b in zip(c, col)) if k else c
                    if live is not None and not live(e):
                        break
                    nxt[e] = nxt.get(e, 0) + z * coef
            out = nxt
        return out

    def _bounds(self, x, subset):
        """Per-vertex exponent bounds that hold every support point with some
        coordinate of the subset below x (all dual-basis entries are > 0)."""
        out = []
        for v in range(self.n):
            col = self.dual[v]
            out.append(max([0] + [-(-x[w] // col[w]) for w in subset if x[w] > 0]))
        return out

    def enumeration_cost(self, depth=3):
        """Lattice points a deep counting query may visit, estimated as in
        the acceptance suite: per coordinate slab, the box product of the
        exponent bounds of the free (degree <= 1) vertices at the deep point
        of the trivial class."""
        x = self.deep_point(tuple([0] * self.n), depth)
        free = [v for v in range(self.n) if self.delta[v] <= 1]
        return sum(math.prod(x[w] // self.dual[v][w] + 1 for v in free)
                   for w in range(self.n))

    def counting_cost(self, x, subset):
        """Upper bound on the monomials counting(x, subset) expands."""
        cost = 1
        for v, b in enumerate(self._bounds(x, subset)):
            dv = self.delta[v]
            cost *= b if dv <= 1 else (1 if dv == 2 else dv - 1)
        return cost

    def counting(self, x, subset):
        """Coefficient sum over the class of x of the monomials l' whose
        coordinates are not all >= x on the subset."""
        subset = list(subset)
        key = self.key(x)
        d = self.det

        def below(c):
            return any(c[w] < x[w] for w in subset)

        total = 0
        for c, z in self.series(self._bounds(x, subset), below).items():
            if all((a - b) % d == 0 for a, b in zip(c, key)):
                total += z
        return total

    def coefficients(self, points):
        """Series coefficient at each integral exponent l (E-coordinates)."""
        d = self.det
        scaled_pts = [tuple(d * c for c in l) for l in points]
        bounds = []
        for v in range(self.n):
            # a_v = -(l, E_v) is the multiplicity of E*_v in l
            bounds.append(max([0] + [-self.pairv(p, v) // d + 1 for p in scaled_pts]))
        table = self.series(bounds)
        return [table.get(p, 0) for p in scaled_pts]

    # -- invariants ----------------------------------------------------------

    def sw(self, key, depth=1):
        """sw of the class from one deep counting value."""
        x = self.deep_point(key, depth)
        return -self.counting(x, range(self.n)) - self.quad(x)

    def sw_cost(self, key, depth=1):
        return self.counting_cost(self.deep_point(key, depth), range(self.n))

    def components_minus(self, subset):
        """[(Lattice, parent indices)] of the tree with the subset deleted."""
        keep = [v for v in range(self.n) if v not in set(subset)]
        seen, out = set(), []
        for v in keep:
            if v in seen:
                continue
            comp, stack = [], [v]
            seen.add(v)
            while stack:
                u = stack.pop()
                comp.append(u)
                for w in self.adj[u]:
                    if w in keep and w not in seen:
                        seen.add(w)
                        stack.append(w)
            comp.sort()
            ids = [self.spec.ids[u] for u in comp]
            edges = [(a, b) for a, b in self.spec.edges if a in ids and b in ids]
            spec = Spec(self.spec.name + "-part", ids, [self.eulers[u] for u in comp], edges)
            out.append((Lattice(spec), comp))
        return out

    def restrict(self, x, comp, origin):
        """y in L'(T_i) with (y, E_w) = (x, E_w) on the component, d_i-scaled."""
        p = []
        for v in origin:
            s = self.pairv(x, v)
            if s % self.det:
                raise ValueError("point is not in the dual lattice")
            p.append(s // self.det)
        return tuple(-sum(comp.dual[i][w] * p[i] for i in range(comp.n))
                     for w in range(comp.n))

    def component_term(self, y):
        """sw of the class of y, normalized at y itself."""
        return self.sw(self.key(y)) + self.quad(y)


def scaled(lat, coords):
    """d-scaled integer tuple of a vector given by Fraction coordinates."""
    out = []
    for c in coords:
        s = Fraction(c) * lat.det
        if s.denominator != 1:
            raise ValueError("coordinate %s is not in (1/%d)Z" % (c, lat.det))
        out.append(int(s))
    return tuple(out)
