"""Acceptance suite: one test per criterion, exact equalities throughout.

Every check is an exact rational identity (tolerance zero); the stated
wall-clock budget of each criterion is asserted as well.  Run with -s to
see the one-line pass reports.
"""

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from plumbsw import cubes, fixtures as fx, series, sw
from plumbsw.graph import class_of, dual_restrict, is_rational, minimal_s_rep


@contextmanager
def budget(name, seconds):
    t0 = time.perf_counter()
    yield
    dt = time.perf_counter() - t0
    line = "[PASS] %s (%.2fs < %ds)" % (name, dt, seconds)
    print(line)
    assert dt < seconds, "%s exceeded its %ds budget (%.2fs)" % (name, seconds, dt)


@pytest.fixture(scope="module")
def showcase1():
    return fx.showcase_two_nodes()


@pytest.fixture(scope="module")
def showcase2():
    return fx.showcase_star()


def test_criterion_1_showcase_values(showcase1, showcase2):
    with budget("criterion 1: showcase lattice values reproduce", 1):
        g1 = showcase1
        tbl = g1.classes()
        rep = g1.vector(fx.SHOWCASE_TWO_NODES_CLASS)
        assert g1.class_key(rep) in tbl.index
        forest = g1.components_minus([v for v in range(g1.n) if v != 1])
        comp, origin = forest.components[0], forest.origins[0]
        y = dual_restrict(rep, comp, origin)
        assert y.coords == (Fraction(-1, 2),)

        g2 = showcase2
        rep2 = g2.vector(fx.SHOWCASE_STAR_CLASS)
        forest = g2.components_minus((1, 2, 3, 4))
        comp, origin = forest.components[0], forest.origins[0]
        y = dual_restrict(rep2, comp, origin)
        assert y.coords == (Fraction(-2, 3),)
        assert class_of(y).coords == (Fraction(1, 3),)


def test_criterion_2_single_vertex_value():
    with budget("criterion 2: one-vertex normalized value is -1", 1):
        g = fx.validate(["x"], [-3], [])
        v = g.from_dual_coords([-2])             # -(2/3) E
        rec = sw.sw_invariant(g, class_of(v))
        assert rec.sw + sw.quad_term(g, v) == -1


def test_criterion_3_rational_vanishing():
    with budget("criterion 3: rational vanishing on ADE and all strings", 30):
        for name in fx.ADE_NAMES:
            g = fx.ade_graph(name)
            assert is_rational(g)
            for rec in sw.sw_table(g).values():
                assert rec.normalized_s == 0
        for g in fx.all_strings(max_len=4, euler_range=(-5, -2)):
            assert is_rational(g)
            for rec in sw.sw_table(g).values():
                assert rec.normalized_s == 0


def test_criterion_4_counting_surgery(showcase1, showcase2):
    with budget("criterion 4: counting surgery identity", 600):
        for g in (showcase2, showcase1):
            for r in range(1, g.n + 1):
                for subset in itertools.combinations(range(g.n), r):
                    sw.counting_surgery_sweep(g, subset)   # all classes, depths 1+2
        rng = random.Random(4242)
        trees = fx.random_trees(seed=4242, count=50, n_range=(3, 7),
                                max_cost=50_000_000)
        for g in trees:
            key = g.class_key(g.from_dual_coords(
                [rng.randint(0, 5) for _ in range(g.n)]))
            subset = tuple(sorted(rng.sample(range(g.n), rng.randint(1, g.n))))
            sw.verify_counting_surgery(g, key, subset)     # depths 1 and 2


def test_criterion_5_node_reduction(showcase1, showcase2):
    with budget("criterion 5: node reduction preserves pc; string terms vanish", 60):
        graphs = [showcase1, showcase2, fx.gorenstein_star()]
        graphs += [fx.ade_graph(n) for n in ("D4", "D5", "E6", "E7", "E8")]
        graphs += [g for g in fx.random_trees(**fx.CORPUS_DRAW) if g.nodes]
        for g in graphs:
            assert g.nodes, "criterion applies to fixtures with nodes"
            everything = tuple(range(g.n))
            forest = g.components_minus(g.nodes)
            for key in sw.sw_table(g, subset=g.nodes):
                assert (sw.pc_reduced(g, key, g.nodes, "closed_form")
                        == sw.pc_reduced(g, key, everything, "closed_form"))
                r = g.rep_from_key(key)
                for comp, origin in forest:
                    assert comp.delta.count(2) + comp.delta.count(1) + \
                        comp.delta.count(0) == comp.n          # strings only
                    assert sw.component_term(
                        comp, dual_restrict(r, comp, origin)) == 0


def test_criterion_6_univariate_fit(showcase1, showcase2):
    with budget("criterion 6: one-variable fit agrees with closed form", 120):
        for g in (showcase2, showcase1):
            for v in range(g.n):
                for key in sw.sw_table(g, subset=(v,)):
                    assert (sw.pc_reduced(g, key, (v,), "closed_form")
                            == sw.pc_reduced(g, key, (v,), "univariate_fit"))
        for g in fx.random_trees(seed=606, count=10, n_range=(3, 6),
                                 max_det=150, max_cost=5_000_000):
            for v in range(g.n):
                for key in sw.sw_table(g, subset=(v,)):
                    assert (sw.pc_reduced(g, key, (v,), "closed_form")
                            == sw.pc_reduced(g, key, (v,), "univariate_fit"))


def test_criterion_7_gorenstein_suite(showcase1):
    with budget("criterion 7: anticanonical cube suite", 300):
        graphs = [fx.ade_graph(n) for n in fx.ADE_NAMES]
        graphs += [fx.gorenstein_star(), showcase1]
        rng = random.Random(7)
        zero_key = lambda g: tuple([0] * g.n)
        for g in graphs:
            assert g.numerically_gorenstein
            # (a) coefficient pipelines agree on R(0, Z_K + sum E_v)
            hi = [int(c) + 1 for c in g.ZK.coords]
            for pt in itertools.product(*[range(h + 1) for h in hi]):
                l = g.vector(pt)
                assert cubes.coefficient_via_cubes(g, l) == series.coefficient(g, l)
            # (b) cube invariant is b-independent and matches counting
            ref = cubes.swbar_via_cubes(g, g.ZK)
            assert ref == cubes.swbar_via_cubes(g, g.ZK + g.vector([1] * g.n))
            rec = sw.sw_invariant(g, zero_key(g))
            assert ref == -rec.normalized_r == cubes.swbar(g)
            # (c) three-way pc agreement for every nonempty subset
            for r in range(1, g.n + 1):
                for subset in itertools.combinations(range(g.n), r):
                    cubes.gorenstein_pc(g, subset)
            # (d) duality of the reduced closed form in 20 samples
            subsets = [(0,), tuple(g.nodes) or (0,), tuple(range(g.n))]
            samples = 0
            while samples < 20:
                subset = subsets[samples % len(subsets)]
                qp = sw.QuasiPoly(g, zero_key(g), subset)
                l = g.vector([rng.randint(-1, 2) for _ in range(g.n)])
                assert qp.evaluate(l) == qp.evaluate(g.ZK - l)
                samples += 1


def test_criterion_8_convexity_and_peel():
    with budget("criterion 8: closure convexity and one-vertex peel", 300):
        rng = random.Random(88)
        trees = fx.random_trees(seed=88, count=30, n_range=(3, 7),
                                max_cost=50_000_000)
        from plumbsw.graph import connected_closure

        for g in trees:
            key = g.class_key(g.from_dual_coords(
                [rng.randint(0, 4) for _ in range(g.n)]))
            x = g.deep_point(key, 1)            # inside the convexity region
            subset = tuple(sorted(rng.sample(range(g.n), min(g.n, 2))))
            closure = tuple(connected_closure(g, subset))
            assert (series.counting(g, "modified", x, subset)
                    == series.counting(g, "modified", x, closure))
            # peel one vertex off a modified count
            v = rng.randrange(g.n)
            forest = g.components_minus([v])
            if not len(forest):
                continue
            pick = rng.randrange(len(forest))
            comp, origin = forest.components[pick], forest.origins[pick]
            j = tuple(sorted(rng.sample(range(comp.n),
                                        rng.randint(1, comp.n))))
            j_parent = tuple(sorted(origin[i] for i in j))
            lhs = (series.counting(g, "modified", x, j_parent)
                   - series.counting(g, "modified", x, j_parent + (v,)))
            rhs = series.counting(comp, "modified", dual_restrict(x, comp, origin), j)
            assert lhs == rhs


def test_criterion_9_rational_reductions(showcase1, showcase2):
    with budget("criterion 9: rational-component reductions", 180):
        star5 = fx.gorenstein_star()
        cases = [
            (showcase2, (1, 2, 3, 4)),          # single -3 component
            (showcase1, (0, 2)),                # five one-vertex strings
            (showcase1, (1,)),                  # two rational claw components
            (star5, (0,)),                      # five -2 singletons
        ]
        for g, subset in cases:
            for comp, _ in g.components_minus(subset):
                assert is_rational(comp)
            for key in sw.sw_table(g, subset=subset):
                sw.reduction_rational(g, key, subset, "red1")
                sw.reduction_rational(g, key, subset, "red2")
