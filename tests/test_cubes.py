import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import Cube, Rectangle, weight
from plumbsw import fixtures as fx
from plumbsw import series
from plumbsw.cubes import (
    _cube_sums,
    coefficient_via_cubes,
    gorenstein_pc,
    s_function,
    swbar,
    swbar_forest,
    swbar_via_cubes,
)
from plumbsw.errors import NotGorenstein, SubsetCapExceeded
from plumbsw.sw import sw_invariant, quad_term


def test_weight_examples(e8, gor_star):
    assert weight(e8, e8.zero(), ()) == 0
    for v in range(e8.n):
        assert weight(e8, e8.zero(), (v,)) == 1
    assert weight(gor_star, gor_star.ZK, ()) == gor_star.chi(gor_star.ZK) == 0


def test_cube_and_rectangle_types(e8):
    cube = Cube(e8.zero(), (0, 1))
    assert len(list(cube.vertices())) == 4
    rect = Rectangle(e8.zero(), e8.vector([1] * 8))
    assert rect.contains_cube(cube)
    assert not rect.contains_cube(Cube(e8.vector([1] * 8), (0,)))


def test_coefficient_via_cubes_a2(a2):
    assert coefficient_via_cubes(a2, a2.zero()) == 1
    l = a2.vector([1, 1])                      # equals the sum of both duals
    assert coefficient_via_cubes(a2, l) == series.coefficient(a2, l) == 1


def test_coefficient_dual_pipeline_small(gor_star):
    hi = [int(c) + 1 for c in gor_star.ZK.coords]
    for pt in itertools.product(*[range(h + 1) for h in hi]):
        l = gor_star.vector(pt)
        assert coefficient_via_cubes(gor_star, l) == series.coefficient(gor_star, l)


def test_swbar_e8(e8):
    assert swbar(e8) == 0
    assert swbar_via_cubes(e8, e8.vector([1] * 8)) == 0
    assert swbar_via_cubes(e8, e8.vector([2] * 8)) == 0


def test_swbar_b_independence(gor_star):
    g = gor_star
    v1 = swbar_via_cubes(g, g.ZK)
    v2 = swbar_via_cubes(g, g.ZK + g.vector([1] * g.n))
    assert v1 == v2 == swbar(g)


def test_swbar_equals_counting_value_at_anticanonical(gor_star):
    # the full counting function at the anticanonical cycle returns the
    # normalized invariant directly
    g = gor_star
    assert series.counting(g, "full", g.ZK) == swbar(g)


def test_swbar_rejects_nongorenstein(showcase2):
    with pytest.raises(NotGorenstein):
        swbar_via_cubes(showcase2, showcase2.vector([2, 1, 1, 1, 1]))


def test_swbar_rejects_low_bound(gor_star):
    with pytest.raises(NotGorenstein):
        swbar_via_cubes(gor_star, gor_star.ZK - gor_star.vector([1, 0, 0, 0, 0, 0]))


def test_gorenstein_pc_three_way(gor_star):
    for r in (1, 2, 3, 6):
        for subset in itertools.combinations(range(gor_star.n), r):
            gorenstein_pc(gor_star, subset)


def test_gorenstein_pc_full_subset_is_swbar(gor_star):
    val = gorenstein_pc(gor_star, tuple(range(gor_star.n)))
    assert val == swbar(gor_star)


def test_gorenstein_pc_ade_all_zero(e8):
    for subset in [(0,), (3, 5), tuple(range(8))]:
        assert gorenstein_pc(e8, subset) == 0


def test_s_function_single_vertex(single3):
    assert s_function(single3)[1] == swbar(single3)


def test_s_function_e8_resummation(e8):
    # checked inside s_function: defining recursion, Moebius agreement,
    # disconnected vanishing, and the total re-summation
    assert set(s_function(e8).values()) == {0}


def test_s_function_cap():
    g = fx.string_graph([-2, -2, -2])
    with pytest.raises(SubsetCapExceeded):
        s_function(g, cap=2)


def test_hsum_chain(gor_star):
    g = gor_star
    mob = s_function(g)
    for J in [(0,), (1,), (0, 1), (2, 3)]:
        jm = 0
        for v in J:
            jm |= 1 << v
        lhs = sum(mob[m] for m in range(1 << g.n) if m & jm == jm)
        assert lhs == series.counting(g, "modified", g.ZK, J)


def test_swbar_chain_matches_component_sum(gor_star):
    g = gor_star
    for subset in [(0,), (1, 2), (3,)]:
        deleted = subset
        chain = gorenstein_pc(g, deleted)
        assert chain == swbar(g) - swbar_forest(g.components_minus(deleted))


def test_showcase1_is_gorenstein_and_agrees(showcase1):
    g = showcase1
    assert g.numerically_gorenstein
    assert swbar_via_cubes(g, g.ZK) == swbar(g)
    rec = sw_invariant(g, tuple([0] * g.n))
    assert swbar(g) == -rec.normalized_r
    for subset in [(1,), (0, 2), (3, 4, 5, 6)]:
        gorenstein_pc(g, subset)


# -- the cube-sum kernel against the weight oracle -------------------------------

# chi evaluations the oracle may spend on one rectangle: a box with m_v
# bases along v holds prod(3 m_v - 2) cube vertices
ORACLE_CHI_CAP = 300


def _brute_cube_sum(g, lo, hi, skip):
    total = 0
    for base in itertools.product(*[range(a, b + 1) for a, b in zip(lo, hi)]):
        l = g.vector(base)
        for r in range(g.n + 1):
            for J in itertools.combinations(range(g.n), r):
                if any(base[v] == hi[v] for v in J):
                    continue                     # l + E_J leaves the rectangle
                if any(base[v] == hi[v] for v in skip if v not in J):
                    continue                     # inside a skipped top face
                total += (-1) ** (len(J) + 1) * weight(g, l, J)
    return total


def _pin_until_cheap(lo, hi):
    """Pin the longest sides of R(lo, hi) to their top face until the
    oracle's cost fits; a face lo stays a face lo."""
    lo = list(lo)
    while True:
        cost = 1
        for a, b in zip(lo, hi):
            cost *= max(3 * (b - a + 1) - 2, 1)
        if cost <= ORACLE_CHI_CAP:
            return lo
        v = max(range(len(lo)), key=lambda v: hi[v] - lo[v])
        lo[v] = hi[v]


@pytest.fixture(scope="module")
def kernel_graphs(a2, gor_star, showcase1):
    return [a2, fx.ade_graph("D4"), gor_star, showcase1]


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(data=st.data())
def test_cube_sums_match_weight_oracle(kernel_graphs, data):
    g = data.draw(st.sampled_from(kernel_graphs))
    n = g.n
    extra = data.draw(st.sampled_from([0, 1]))
    hi = [int(c) + extra for c in g.ZK.coords]            # Z_K or Z_K + sum E_v
    queries = []
    for _ in range(data.draw(st.integers(1, 4))):
        if data.draw(st.booleans()):
            mask = data.draw(st.integers(0, (1 << n) - 1))
            lo = [0 if mask >> v & 1 else hi[v] for v in range(n)]
        else:
            lo = [data.draw(st.integers(0, h)) for h in hi]
        lo = _pin_until_cheap(lo, hi)
        # skipping a face the box has room below keeps some cubes and drops
        # others; skipping one it lies in empties the box
        free = [v for v in range(n) if lo[v] < hi[v]]
        skip = data.draw(st.sets(st.sampled_from(free))) if free else set()
        skip |= data.draw(st.sets(st.integers(0, n - 1), max_size=1))
        queries.append((lo, tuple(sorted(skip))))
    v = data.draw(st.integers(0, n - 1))
    queries.append(([hi[v] + 1 if w == v else 0 for w in range(n)], ()))  # lo > hi
    want = [_brute_cube_sum(g, lo, hi, skip) for lo, skip in queries]
    assert _cube_sums(g, hi, queries) == want
    assert want[-1] == 0


# -- typed guards survive python -O -----------------------------------------------

GUARDS_UNDER_O = r"""
from fractions import Fraction
from plumbsw import cubes, fixtures as fx, graph, sw
from plumbsw.errors import (BoundViolation, InternalDisagreement,
                            MethodPreconditionFailed, PlumbingError)

def expect(exc, fn, *args, match=""):
    try:
        fn(*args)
    except exc as err:
        if match in str(err):
            return
        raise SystemExit("%s raised %r, not the %r check" % (fn.__name__, err, match))
    raise SystemExit("%s did not raise %s" % (fn.__name__, exc.__name__))

assert False, "run with python -O: every guard below must hold without asserts"
g = fx.gorenstein_star()
half = g.vector([Fraction(1, 2)] + [0] * (g.n - 1))
expect(MethodPreconditionFailed, cubes.coefficient_via_cubes, g, half)
expect(MethodPreconditionFailed, cubes.gorenstein_pc, g, ())
expect(MethodPreconditionFailed, sw.sw_table, g, -1)
expect(MethodPreconditionFailed, sw.sw_invariant, g, g.zero(), -3)
expect(MethodPreconditionFailed, sw.verify_counting_surgery, g, g.zero(), (0,), (1, -1))
# demands far below the cone leave each deep point at its class
# representative, outside -K + int(cone)
low_demands = fx.gorenstein_star()
low_demands.deep_demands = lambda depth: [-10 ** 6] * low_demands.n
expect(BoundViolation, sw.sw_invariant, low_demands, low_demands.zero())
# an odd shift of (K, E_v) makes chi half-integral on the lattice
odd = fx.gorenstein_star()
odd.kpair = tuple(k + 1 for k in odd.kpair)
expect(InternalDisagreement, cubes.coefficient_via_cubes, odd, odd.zero())
expect(InternalDisagreement, cubes.swbar_via_cubes, odd, odd.ZK)
# a class table that misses classes would let the all-class sweeps skip points
short = fx.gorenstein_star()
short.dual_scaled = tuple(tuple(0 for _ in col) for col in short.dual_scaled)
expect(InternalDisagreement, short.classes)
# a dual basis entry that is not positive would make the enumeration infinite
bareiss = graph._bareiss
def scaled_adjugate(k):
    return lambda m: (lambda minors, adj: (minors, [[k * x for x in row] for row in adj]))(
        *bareiss(m))
graph._bareiss = scaled_adjugate(-1)
expect(InternalDisagreement, fx.gorenstein_star, match="positive")
# a wrong adjugate gives a canonical cycle that fails the adjunction relations
graph._bareiss = scaled_adjugate(2)
expect(InternalDisagreement, fx.gorenstein_star, match="adjunction")
graph._bareiss = bareiss
# vectors of two graphs do not add, compare or pair
other = fx.string_graph([-2, -2])
expect(MethodPreconditionFailed, g.zero().__add__, other.zero())
expect(MethodPreconditionFailed, g.zero().__sub__, other.zero())
expect(MethodPreconditionFailed, g.zero().__ge__, other.zero())
expect(MethodPreconditionFailed, g.zero().pair, other.zero())
# a Laufer kernel that stepped below its start would leave s_h - r_h negative
low = fx.string_graph([-2, -2])
low.laufer_rows = lambda starts, demands: starts - [low.det, 0]
expect(InternalDisagreement, graph.minimal_s_rep, low, low.zero(), match="effective")
# a wrong component dual basis restricts to a vector that pairs differently
star = fx.showcase_star()
comp, origin = next(iter(star.components_minus([1])))
comp.dual_scaled = tuple(tuple(2 * c for c in col) for col in comp.dual_scaled)
expect(InternalDisagreement, graph.dual_restrict, star.basis_vector(origin[0]), comp, origin)
# quasipolynomials take integral arguments only
expect(MethodPreconditionFailed, sw.QuasiPoly(g, g.zero(), range(g.n)).evaluate,
       half)
# the du Val families exist only in their ranks
expect(PlumbingError, fx.ade_graph, "D3")
expect(PlumbingError, fx.ade_graph, "E9")
# subgraph values that do not vanish on the empty subgraph cannot re-sum
cubes.swbar_forest = lambda forest: Fraction(1)
try:
    cubes.s_function(fx.string_graph([-2, -2]))
except InternalDisagreement as exc:
    if "re-sum" not in str(exc):
        raise SystemExit("s_function failed another check first: %s" % exc)
else:
    raise SystemExit("s_function did not check its re-summation")
print("ok")
"""


def test_typed_guards_survive_optimized_mode():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run([sys.executable, "-O", "-c", GUARDS_UNDER_O], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip() == "ok"
