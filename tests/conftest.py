"""Shared fixture graphs and independent oracles for the test suite.

Oracles here are deliberately naive re-implementations (cofactor
determinants, dictionary series expansion) so that every derived expected
value is computed by a second route before being asserted.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction

import pytest

from plumbsw import fixtures as fx
from plumbsw import series
from plumbsw.graph import LatticeVector, PlumbingGraph, validate


@pytest.fixture(scope="session")
def single3():
    return validate(["x"], [-3], [])


@pytest.fixture(scope="session")
def a2():
    return fx.string_graph([-2, -2])


@pytest.fixture(scope="session")
def e8():
    return fx.ade_graph("E8")


@pytest.fixture(scope="session")
def showcase1():
    return fx.showcase_two_nodes()


@pytest.fixture(scope="session")
def showcase2():
    return fx.showcase_star()


@pytest.fixture(scope="session")
def gor_star():
    return fx.gorenstein_star()


@pytest.fixture
def walks(monkeypatch):
    """(vertex ids, targeted) of every enumeration walk, in call order."""
    seen = []
    enumerate_batches = series._iter_batches

    def counted(g, plan):
        seen.append((g.ids, plan.target is not None))
        return enumerate_batches(g, plan)

    monkeypatch.setattr(series, "_iter_batches", counted)
    return seen


# -- oracles --------------------------------------------------------------------


def det_cofactor(m):
    """Determinant by cofactor expansion; independent of the library path."""
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        if m[0][j] == 0:
            continue
        minor = [[m[i][k] for k in range(n) if k != j] for i in range(1, n)]
        total += (-1) ** j * m[0][j] * det_cofactor(minor)
    return total


def leading_minors(m):
    """All leading principal minors of m, by cofactor expansion."""
    return [det_cofactor([row[:k] for row in m[:k]]) for k in range(1, len(m) + 1)]


def fraction_inverse(m):
    """Exact inverse over Q by Gauss-Jordan elimination with row swaps."""
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for c in range(n):
        p = next(r for r in range(c, n) if a[r][c] != 0)
        a[c], a[p] = a[p], a[c]
        a[c] = [x / a[c][c] for x in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [row[n:] for row in a]


class FractionLattice:
    """The lattice apparatus of a graph on plain Fraction coordinates.

    Dense pairings, a Gauss-Jordan inverse of -I and Laufer loops one unit
    step at a time: a reference for the library's d-scaled integer core.
    """

    def __init__(self, g: PlumbingGraph):
        self.g = g
        self.n = g.n
        self.det = det_cofactor([[-x for x in row] for row in g.matrix])
        self.inv = fraction_inverse([[-x for x in row] for row in g.matrix])
        # (K, E_v) = -2 - e_v, so K = (-I)^{-1} (2 + e)
        self.K = tuple(sum(self.inv[i][j] * (2 + g.eulers[j]) for j in range(g.n))
                       for i in range(g.n))

    def dual(self, v):
        return tuple(self.inv[w][v] for w in range(self.n))

    def pair_vertex(self, x, v):
        return sum(self.g.matrix[v][j] * x[j] for j in range(self.n))

    def pair(self, x, y):
        return sum(x[i] * self.pair_vertex(y, i) for i in range(self.n))

    def chi(self, x):
        return -(self.pair(x, x) + self.pair(x, self.K)) / 2

    def quad(self, x):
        kx = [k + 2 * c for k, c in zip(self.K, x)]
        return Fraction(self.pair(kx, kx) + self.n, 8)

    def class_key(self, x):
        assert all(self.pair_vertex(x, v).denominator == 1 for v in range(self.n))
        return tuple(int(c * self.det) % self.det for c in x)

    def laufer(self, x, demands):
        x = list(x)
        while True:
            v = next((v for v in range(self.n) if self.pair_vertex(x, v) > -demands[v]), None)
            if v is None:
                return tuple(x)
            x[v] += 1

    def deep_point(self, key, depth):
        g = self.g
        demands = [max(g.delta[v] - 2, -1 - g.eulers[v]) + depth for v in range(g.n)]
        return self.laufer([Fraction(c, self.det) for c in key], demands)

    def restrict(self, x, comp, origin):
        """y on the component with (y, E_w) = (x, E_w) for its vertices."""
        p = [self.pair_vertex(x, pv) for pv in origin]
        inv = FractionLattice(comp).inv
        return tuple(-sum(inv[w][i] * p[i] for i in range(comp.n)) for w in range(comp.n))


def closure_classes(g: PlumbingGraph):
    """H as the sorted closure of {[E*_v]} under addition, by breadth-first
    search over d-scaled class keys; independent of the coset extension."""
    d = g.det
    gens = [tuple(c % d for c in col) for col in g.dual_scaled]
    zero = tuple([0] * g.n)
    seen = {zero}
    frontier = [zero]
    while frontier:
        cur = frontier.pop()
        for gcol in gens:
            nxt = tuple((a + b) % d for a, b in zip(cur, gcol))
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return sorted(seen)


def brute_series(g: PlumbingGraph, depth: int):
    """Series coefficients by explicit product expansion.

    Returns {dual-coordinate tuple: coefficient} with free exponents up to
    depth; complete for every exponent whose free coordinates stay within
    the window.
    """
    factors = []
    for v in range(g.n):
        dv = g.delta[v]
        if dv == 0:
            factors.append([(k, k + 1) for k in range(depth + 1)])
        elif dv == 1:
            factors.append([(k, 1) for k in range(depth + 1)])
        elif dv == 2:
            factors.append([(0, 1)])
        else:
            from math import comb
            factors.append([(b, (-1) ** b * comb(dv - 2, b)) for b in range(dv - 1)])
    out = {}
    for combo in itertools.product(*factors):
        a = tuple(c[0] for c in combo)
        z = 1
        for c in combo:
            z *= c[1]
        out[a] = out.get(a, 0) + z
    return out


def brute_counting(g: PlumbingGraph, x, subset, strict_all=False):
    """Counting function from the dictionary oracle.

    Sums coefficients over the class of x with the coordinate condition on
    the subset; the expansion window is sized from the thresholds so the
    sum is provably complete.
    """
    xs = x.scaled()
    d = g.det
    cols = g.dual_scaled
    depth = 0
    for v in range(g.n):
        if g.delta[v] <= 1:
            bound = max(-(-xs[w] // cols[v][w]) for w in subset)
            depth = max(depth, bound + 1)
    table = brute_series(g, depth)
    key = g.class_key(x)
    total = 0
    for a, z in table.items():
        if z == 0:
            continue
        coords = tuple(sum(a[v] * cols[v][w] for v in range(g.n)) for w in range(g.n))
        if tuple(c % d for c in coords) != key:
            continue
        if strict_all:
            if all(coords[w] < xs[w] for w in subset):
                total += z
        else:
            if any(coords[w] < xs[w] for w in subset):
                total += z
    return total


@dataclass(frozen=True)
class Cube:
    """Lattice cube: base point plus a subset of unit directions."""

    base: LatticeVector
    directions: tuple

    def vertices(self):
        g = self.base.graph
        for sub in itertools.chain.from_iterable(
            itertools.combinations(self.directions, r)
            for r in range(len(self.directions) + 1)
        ):
            step = g.zero()
            for v in sub:
                step = step + g.basis_vector(v)
            yield self.base + step


@dataclass(frozen=True)
class Rectangle:
    lo: LatticeVector
    hi: LatticeVector

    def contains_cube(self, cube: Cube) -> bool:
        return all(self.lo <= p and p <= self.hi for p in cube.vertices())


def weight(g: PlumbingGraph, l: LatticeVector, directions) -> int:
    """max of chi over the vertices of the cube (l, directions)."""
    assert l.is_integral()
    best = None
    for p in Cube(l, tuple(directions)).vertices():
        c = g.chi(p)
        assert c.denominator == 1
        if best is None or c > best:
            best = c
    return int(best)
