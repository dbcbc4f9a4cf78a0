"""Known values for the benchmark's oracle; run with
``python -m pytest perfbench/test_oracle.py``.  Nothing here imports plumbsw."""

from fractions import Fraction

import oracle as O
import workloads as wl


def test_cofactor_determinants_of_the_du_val_trees():
    dets = {name: O.Lattice(wl.ade_spec(name)).det for name in wl.ADE}
    assert dets == {"A1": 2, "A2": 3, "A3": 4, "A4": 5, "A5": 6,
                    "D4": 4, "D5": 4, "E6": 3, "E7": 2, "E8": 1}


def test_adjugate_inverts_the_intersection_form():
    lat = O.Lattice(wl.ex_graph1_spec())
    neg = O.neg_matrix(lat.spec)
    # (-I) . adj(-I) = det(-I) . 1, and every dual-basis entry is positive
    for v in range(lat.n):
        col = lat.dual[v]
        assert [sum(neg[i][j] * col[j] for j in range(lat.n)) for i in range(lat.n)] \
            == [lat.det * int(i == v) for i in range(lat.n)]
        assert min(col) > 0
    assert lat.det == 384 and len(lat.classes()) == 384


def test_invariants_of_small_trees():
    e8 = O.Lattice(wl.ade_spec("E8"))
    assert e8.sw((0,) * 8) == -1
    # one -3 vertex at x = -(2/3) E: normalized value -1
    one = O.Lattice(wl.string_spec([-3]))
    x = (-2,)
    assert one.sw(one.key(x)) + one.quad(x) == -1
    gor = O.Lattice(wl.star_spec("gor_star", -3, [-2] * 5))
    zero = (0,) * 6
    assert gor.sw(zero) == Fraction(-3, 2)
    assert gor.sw(zero) + gor.quad(zero) == -1


def test_rational_strings_have_vanishing_normalized_invariants():
    for eulers in ([-2, -3], [-5, -2, -4], [-3, -3, -2, -5]):
        lat = O.Lattice(wl.string_spec(eulers))
        for key in lat.classes():
            assert lat.sw(key) + lat.quad(lat.s_rep(key)) == 0


def test_counting_splits_over_a_deleted_vertex():
    lat = O.Lattice(wl.star_spec("ex_graph2", -3, [-2] * 4))
    key = lat.classes()[5]
    x = lat.deep_point(key, 1)
    subset = [0]
    comps = sum(comp.counting(lat.restrict(x, comp, origin), range(comp.n))
                for comp, origin in lat.components_minus(subset))
    assert lat.counting(x, range(lat.n)) == lat.counting(x, subset) + comps


def test_coefficients_match_the_factor_formula():
    lat = O.Lattice(wl.star_spec("gor_star", -3, [-2] * 5))
    # a = -(l, E_v): 0; (3, -1, ...) off the cone; at Z_K (1, 0, ...), and the
    # centre of valency 5 contributes the t^1 coefficient of (1 - t)^3
    pts = [(0,) * 6, (1, 0, 0, 0, 0, 0), (2, 1, 1, 1, 1, 1)]
    assert lat.coefficients(pts) == [1, 0, -3]


def test_counting_trees_are_drawn_as_criterion_4_draws_them():
    # plumbsw.fixtures.enumeration_cost of the first five trees of
    # fixtures.random_trees(seed=4242, count=5, n_range=(3, 7),
    # max_cost=50_000_000), the trees of acceptance criterion 4
    single, _class_all = wl.counting_family()
    assert [O.Lattice(spec).enumeration_cost() for spec, *_ in single[:5]] \
        == [4418794, 38986, 46998, 1177, 57742]
