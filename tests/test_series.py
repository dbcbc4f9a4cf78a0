import itertools
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from plumbsw import fixtures as fx
from plumbsw import series
from plumbsw.errors import BoundViolation, InfeasibleQuery, NotInDualLattice, PlumbingError
from plumbsw.graph import class_of, connected_closure, dual_restrict, minimal_s_rep, validate
from plumbsw.series import (
    SupportStore,
    UnivariateTable,
    _class_step,
    _coefficient_bound,
    _iter_batches,
    _point_bound,
    _walk_plan,
    coefficient,
    counting,
    hist_all_lt,
    hist_not_ge,
    single_histogram,
    support_bound_report,
    sweep_histogram,
)
from conftest import brute_counting, brute_series


def test_constant_term_is_one(single3, a2, showcase1, showcase2):
    for g in (single3, a2, showcase1, showcase2):
        assert coefficient(g, g.zero()) == 1


def test_single_vertex_coefficients_against_brute(single3):
    table = brute_series(single3, 10)
    for k in range(11):
        assert coefficient(single3, single3.from_dual_coords([k])) == table[(k,)] == k + 1


def test_a2_coefficients_against_brute(a2):
    table = brute_series(a2, 6)
    for a in range(7):
        for b in range(7):
            assert coefficient(a2, a2.from_dual_coords([a, b])) == table[(a, b)] == 1


def test_node_coefficients_are_signed_binomials(showcase2):
    # center has valency 4, so its factor contributes 1, -2, 1
    for b, expected in ((0, 1), (1, -2), (2, 1), (3, 0)):
        assert coefficient(showcase2, showcase2.from_dual_coords([b, 0, 0, 0, 0])) == expected


def test_coefficient_below_cone_is_zero(a2):
    assert coefficient(a2, a2.from_dual_coords([-1, 2])) == 0


def test_coefficient_requires_dual_lattice(a2):
    with pytest.raises(NotInDualLattice):
        coefficient(a2, a2.vector([Fraction(1, 2), 0]))


def test_support_is_strictly_positive_or_zero(showcase2):
    store = SupportStore(showcase2, [24] * showcase2.n)
    nz = store.z != 0
    assert nz.any()
    assert ((store.coords[nz] > 0).all(axis=1) | (store.coords[nz] == 0).all(axis=1)).all()


def test_support_store_refuses_queries_past_its_envelope(showcase2):
    g = showcase2
    store = SupportStore(g, [24] * g.n)
    zero = (0,) * g.n
    assert store.sum_not_ge(zero, [24] * g.n, [0, 1]) > 0
    # the store holds no point with coordinate 24 or more: a query reaching
    # past the envelope on its subset would quietly undercount
    with pytest.raises(PlumbingError):
        store.sum_not_ge(zero, [25] + [24] * (g.n - 1), [0, 1])
    assert store.sum_not_ge(zero, [24] + [25] * (g.n - 1), [0]) > 0


def test_counting_trivial_cases(single3, showcase2):
    assert counting(single3, "full", single3.zero()) == 0
    assert counting(single3, "full", single3.vector([3])) == 12
    for key in showcase2.classes().reps_scaled:
        s, _ = minimal_s_rep(showcase2, showcase2.rep_from_key(key))
        assert counting(showcase2, "full", s) == 0


def test_counting_matches_brute_oracle():
    rng = random.Random(41)
    for g in fx.random_trees(seed=17, count=4, n_range=(3, 4), euler_range=(-3, -2)):
        for _ in range(3):
            a = [rng.randint(0, 1) for _ in range(g.n)]
            x = g.from_dual_coords(a) + g.vector([rng.randint(0, 1) for _ in range(g.n)])
            subset = tuple(sorted(rng.sample(range(g.n), rng.randint(1, g.n))))
            assert counting(g, "reduced", x, subset) == brute_counting(g, x, subset)
            assert counting(g, "modified", x, subset) == brute_counting(
                g, x, subset, strict_all=True)
        full = tuple(range(g.n))
        x = g.from_dual_coords([1] * g.n)
        assert counting(g, "full", x) == brute_counting(g, x, full)


def test_counting_inclusion_exclusion(showcase2):
    g = showcase2
    x = g.deep_point(g.classes().reps_scaled[7], 1)
    subset = (0, 2, 3)
    direct = counting(g, "reduced", x, subset)
    via_ie = 0
    for r in range(1, len(subset) + 1):
        for J in itertools.combinations(subset, r):
            via_ie += (-1) ** (r + 1) * counting(g, "modified", x, J)
    assert direct == via_ie


def test_histogram_reads_take_an_array_of_rows(showcase2):
    # one read of an array of rows gives the per-row reads, as Python ints
    g = showcase2
    rows = sweep_histogram(g, [(key, [16] * g.n) for key in g.classes().reps_scaled])
    for read in (hist_not_ge, hist_all_lt):
        for subset in ((0,), (1, 2), range(g.n)):
            per_row = [read(row, subset) for row in rows]
            assert read(rows, subset) == per_row
            assert {type(q) for q in per_row} == {int}


def test_counting_class_decomposition(showcase2):
    # the class-split partial sums over a fixed region add up to the plain sum
    g = showcase2
    thr = [16] * g.n                            # scaled threshold (1,...,1)
    store = SupportStore(g, thr)
    keys = g.classes().reps_scaled
    sums = [store.sum_not_ge(key, thr, tuple(range(g.n))) for key in keys]
    split = sum(sums)
    # one multi-query sweep gives the same per-class sums
    rows = sweep_histogram(g, [(key, thr) for key in keys])
    assert [hist_not_ge(row, range(g.n)) for row in rows] == sums
    x = g.vector([1] * g.n)
    xs = x.scaled()
    window = brute_series(g, 20)
    cols = g.dual_scaled
    plain = 0
    for a, z in window.items():
        coords = tuple(sum(a[v] * cols[v][w] for v in range(g.n)) for w in range(g.n))
        if any(coords[w] < xs[w] for w in range(g.n)):
            plain += z
    assert split == plain


def test_overlong_threshold_raises_before_enumeration(a2, monkeypatch):
    def walk(*args):
        raise AssertionError("the enumeration ran")

    monkeypatch.setattr(series, "_iter_batches", walk)
    # 10^23 would leave int64; 10^15 fits, but asks for about 10^30 points.
    # Every entry to the walk refuses, whatever its threshold reads.
    for c in (10 ** 23, -10 ** 23, 10 ** 15):
        with pytest.raises(InfeasibleQuery):
            counting(a2, "full", a2.vector([c, 0]))
        with pytest.raises(InfeasibleQuery):
            support_bound_report(a2, [0, 1], a2.vector([c, 0]))
        with pytest.raises(InfeasibleQuery):
            SupportStore(a2, [c, 0])


def test_coefficient_sums_that_could_pass_int64_are_refused(monkeypatch):
    # at an isolated vertex the factor a + 1 grows with the threshold: below
    # 4 * 10^9 a walk yields up to 4 * 10^9 points with coefficients up to
    # 4 * 10^9, whose sum could pass int64, though the point bound is under
    # POINT_LIMIT; the walk is refused before it starts
    def walk(*args):
        raise AssertionError("the enumeration ran")

    monkeypatch.setattr(series, "_iter_batches", walk)
    g = validate(["x"], [-1], [])
    top = 4 * 10 ** 9
    plan = _walk_plan(g, [top])
    assert _point_bound(g, plan) == _coefficient_bound(g, plan) == top
    assert top <= series.POINT_LIMIT and top * top >= 2 ** 63
    with pytest.raises(InfeasibleQuery, match="coefficient sums"):
        counting(g, "full", g.vector([top]))


STAR6 = ("c", "l1", "l2", "l3", "l4", "l5", "l6")


@pytest.mark.parametrize("make", [
    fx.showcase_star, fx.gorenstein_star, lambda: fx.ade_graph("E8"),
    lambda: validate(STAR6, [-2] + [-4] * 6, [("c", v) for v in STAR6[1:]])],
    ids=["ex_graph2", "gor_star", "E8", "valency-6 star"])
def test_coefficient_bound_covers_every_walked_coefficient(make):
    # the int64 guard multiplies the point bound by this bound on |z|; at
    # the valency-6 node it is the middle binomial C(4, 2) = 6, reached
    g = make()
    plan = _walk_plan(g, [3 * g.dual_scaled[0][0]] + [0] * (g.n - 1))
    z = max(int(np.abs(z).max()) for _, z in _iter_batches(g, plan))
    assert z <= _coefficient_bound(g, plan)
    if g.n == len(STAR6):
        assert z == _coefficient_bound(g, plan) == 6


def test_query_validation(showcase2):
    g = showcase2
    x = g.vector([1, 0, 0, 0, 0])
    with pytest.raises(InfeasibleQuery):
        counting(g, "reduced", x, ())
    with pytest.raises(InfeasibleQuery):
        counting(g, "nonsense", x)


def test_convexity_closure_identity():
    # modified counts only see the connected closure of the subset, deep in the cone
    for seed in (3, 9):
        for g in fx.random_trees(seed=seed, count=3, n_range=(4, 6)):
            rng = random.Random(seed)
            key = g.class_key(g.from_dual_coords(
                [rng.randint(0, 3) for _ in range(g.n)]))
            x = g.deep_point(key, 1)
            subset = tuple(sorted(rng.sample(range(g.n), 2)))
            closure = tuple(connected_closure(g, subset))
            assert counting(g, "modified", x, subset) == counting(g, "modified", x, closure)


def test_one_vertex_peel_identity():
    # peeling one vertex off a modified count lands in a component count
    for seed in (21, 33):
        for g in fx.random_trees(seed=seed, count=3, n_range=(4, 6)):
            rng = random.Random(seed + 1)
            key = g.class_key(g.from_dual_coords(
                [rng.randint(0, 3) for _ in range(g.n)]))
            x = g.deep_point(key, 1)
            v = rng.randrange(g.n)
            forest = g.components_minus([v])
            comp, origin = forest.components[rng.randrange(len(forest))], None
            for c, o in forest:
                if c is comp:
                    origin = o
            j = tuple(sorted(rng.sample(range(comp.n), rng.randint(1, comp.n))))
            j_parent = tuple(sorted(origin[i] for i in j))
            lhs = counting(g, "modified", x, j_parent) - counting(
                g, "modified", x, j_parent + (v,))
            y = dual_restrict(x, comp, origin)
            rhs = counting(comp, "modified", y, j)
            assert lhs == rhs


def test_univariate_table_matches_enumeration(showcase2):
    g = showcase2
    uni = UnivariateTable(g, 0, gamma_max=130)
    for key in g.classes().reps_scaled[:6]:
        for gamma in (5, 17, 33, 64, 100):
            hist = single_histogram(g, key, [gamma, 0, 0, 0, 0])
            assert uni.value(key, gamma) == hist_all_lt(hist, (0,))


def test_univariate_table_single_vertex(single3):
    uni = UnivariateTable(single3, 0, gamma_max=20)
    assert uni.value((0,), 9) == 1 + 4 + 7
    assert uni.value((1,), 9) == 2 + 5 + 8
    assert uni.value((2,), 9) == 3 + 6 + 9


def test_support_bound_report_full_graph_is_trivial(showcase1):
    g = showcase1
    rep = support_bound_report(g, range(g.n), g.vector([1] * g.n))
    assert not rep.boundary_checked


def test_support_bound_report_showcase_middle(showcase1):
    # the spine alone: both boundary vertices have inner valency 1, so the
    # degree bound is vacuous there but the unique nonnegative decomposition
    # still gets checked on every fiber below the threshold
    g = showcase1
    rep = support_bound_report(g, [0, 1, 2], g.vector([4] * g.n))
    assert set(rep.boundary_skipped) == {"s1", "s3"}
    assert rep.checked >= 88


def test_support_bound_report_inner_valency_two(showcase1):
    # adding one leaf makes the left node's inner valency 2: bound applies
    g = showcase1
    rep = support_bound_report(g, [0, 1, 2, 3], g.vector([4] * g.n))
    assert "s1" in rep.boundary_checked
    assert "s3" in rep.boundary_skipped
    assert rep.checked >= 187


def test_support_bound_report_gates_low_inner_valency():
    g = fx.string_graph([-2, -3, -2])
    rep = support_bound_report(g, [1], g.vector([3] * g.n))
    assert rep.boundary_checked == ()
    assert set(rep.boundary_skipped) == {"v2"}
    assert rep.checked >= 9


def test_support_bound_report_rejects_disconnected(showcase1):
    with pytest.raises(PlumbingError):
        support_bound_report(showcase1, [3, 5], showcase1.vector([1] * showcase1.n))


@pytest.mark.parametrize("v2, checked", [((0, 1, 2), 28), ((0, 1, 2, 3), 77), ((1,), 8)])
def test_support_bound_report_checks_every_fiber_below_x(showcase1, v2, checked):
    # the report checks one fiber per nonzero coefficient sum of the
    # product-expansion oracle over the points whose every v2 coordinate
    # lies below x = (2, ..., 2); a free coordinate of such a point stays
    # below ceil(x_w / (d E*_v)_w) for each w in v2, which sizes the window
    g = showcase1
    xs = g.vector([2] * g.n).scaled()
    cols = g.dual_scaled
    depth = max(min(-(-xs[w] // cols[v][w]) for w in v2)
                for v in range(g.n) if g.delta[v] <= 1)
    fibers = {}
    for a, z in brute_series(g, depth).items():
        proj = tuple(sum(a[v] * cols[v][w] for v in range(g.n)) for w in v2)
        if all(p < xs[w] for p, w in zip(proj, v2)):
            fibers[proj] = fibers.get(proj, 0) + z
    assert sum(1 for z in fibers.values() if z) == checked
    assert support_bound_report(g, v2, g.vector([2] * g.n)).checked == checked


def test_support_terms_match_coefficient(showcase2):
    # the enumeration yields every support point below the cut once, with
    # its coefficient: on one node, on an isolated vertex (factor a + 1), on
    # a node-free string and on two nodes
    for g in (showcase2, fx.ade_graph("A1"), fx.string_graph([-3, -2, -2, -3, -2]),
              fx.showcase_two_nodes()):
        thr = g.vector([1] * g.n).scaled()
        seen = {}
        for coords, z in _iter_batches(g, _walk_plan(g, thr)):
            for row, zv in zip(coords.tolist(), z.tolist()):
                if all(c >= t for c, t in zip(row, thr)):
                    continue
                exponent = g.vector([Fraction(c, g.det) for c in row])
                assert zv != 0
                a = exponent.dual_coords()
                assert all(c.denominator == 1 and c >= 0 for c in a)
                assert coefficient(g, exponent) == zv
                assert exponent.coords not in seen      # each exponent appears once
                seen[exponent.coords] = zv
        assert seen[g.zero().coords] == 1
        assert len(seen) > 1


def test_enumeration_chunks_are_bounded():
    # a single run of a million points comes in chunks of at most 2^16 rows
    g = fx.ade_graph("A1")
    top = 10 ** 6
    sizes, total = [], 0
    for coords, z in _iter_batches(g, _walk_plan(g, [top])):
        sizes.append(len(coords))
        total += int(z.sum())
    assert max(sizes) <= 1 << 16
    assert sum(sizes) == top
    assert total == top * (top + 1) // 2          # coefficient a + 1 at a = 0..top-1


@pytest.mark.parametrize("build", [
    lambda: fx.string_graph([-3, -2, -2, -3, -2, -2, -3, -2, -2]),   # det 163
    lambda: fx.string_graph([-2, -2, -2, -3, -4, -2, -2, -2, -2]),   # det 124
    fx.showcase_star,
], ids=["masks_163", "masks_124", "radix"])
def test_sweep_matches_single_histograms(build):
    # the class sweep, over all classes or some, agrees with one-class
    # histograms on both of its ways of telling classes apart: a radix code
    # of the class, or a lookup of each distinct class of a batch where the
    # code would overflow int64 (d^9 >= 2^62 for d = 163 and 124).  With d = 124 no
    # single coordinate names the class, as it does for the prime 163.
    # One more call puts two queries on every class, at its depth-1 and
    # depth-2 thresholds, so each class owns a run of two rows.
    g = build()
    assert (g.det ** g.n >= 2 ** 62) == (g.n == 9)
    keys = g.classes().reps_scaled
    both = []
    for depth in (1, 2):
        thr = {k: g.deep_point(k, depth).scaled() for k in keys}
        both += thr.items()
        swept = sweep_histogram(g, list(thr.items()))
        assert len(swept) == len(keys)
        some = sweep_histogram(g, [(k, thr[k]) for k in keys[::3]])
        assert len(some) == len(keys[::3])
        for j, k in enumerate(keys):
            # entry 0 holds the points below the threshold on no coordinate;
            # it depends on the enumeration envelope and no query reads it
            single = single_histogram(g, k, thr[k])
            assert single[1:].any()
            assert (swept[j][1:] == single[1:]).all()
            if j % 3 == 0:
                assert (some[j // 3][1:] == single[1:]).all()
    rows = sweep_histogram(g, both)
    assert len(rows) == 2 * len(keys)
    for (k, t), row in zip(both, rows):
        assert (row[1:] == single_histogram(g, k, t)[1:]).all()


# fixed trees for the targeted walk: two nodes, one node with few classes,
# and a string where no single coordinate names the class (d = 124)
TARGET_TREES = {
    "ex_graph1": fx.showcase_two_nodes,
    "ex_graph2": fx.showcase_star,
    "gor_star": fx.gorenstein_star,
    "masks_124": lambda: fx.string_graph([-2, -2, -2, -3, -4, -2, -2, -2, -2]),
}


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(source=st.one_of(st.sampled_from(sorted(TARGET_TREES)), st.integers(0, 2 ** 32)),
       depth=st.integers(1, 2), pick=st.integers(0, 10 ** 6))
@example(source="ex_graph1", depth=1, pick=0)
@example(source="ex_graph1", depth=1, pick=101)
@example(source="ex_graph2", depth=2, pick=5)
@example(source="gor_star", depth=2, pick=0)
@example(source="gor_star", depth=1, pick=9)
@example(source="masks_124", depth=2, pick=37)
def test_targeted_histogram_matches_class_sweep(source, depth, pick):
    # a one-class histogram walks only the values that can land in its class;
    # the all-class sweep walks everything and tells the classes apart itself
    if isinstance(source, str):
        g = TARGET_TREES[source]()
    else:
        g = fx.random_tree(random.Random(source), max_det=200, max_cost=200_000)
    keys = g.classes().reps_scaled
    key = keys[pick % len(keys)]
    thr = g.deep_point(key, depth).scaled()
    swept = sweep_histogram(g, [(k, thr) for k in keys])
    single = single_histogram(g, key, thr)
    assert (single[1:] == swept[keys.index(key)][1:]).all()


def test_targeted_walk_skips_other_classes(monkeypatch):
    # the trivial class of ex_graph1 (det 384) at depth 2: the targeted walk
    # yields a small share of the rows the full walk yields, so a fallback to
    # the full walk fails here
    g = fx.showcase_two_nodes()
    zero = (0,) * g.n
    thr = g.deep_point(zero, 2).scaled()
    walk = series._iter_batches
    yielded = []

    def counted(*args):
        for coords, z in walk(*args):
            yielded.append(len(coords))
            yield coords, z

    monkeypatch.setattr(series, "_iter_batches", counted)
    hist = single_histogram(g, zero, thr)
    full = sum(len(coords) for coords, _ in walk(g, _walk_plan(g, thr)))
    assert 0 < sum(yielded) * 50 < full
    assert hist[1:].any()


def test_class_step_is_untargeted_where_the_residue_could_wrap():
    # r = (t / u) inv mod m needs m^2 < 2^62: at det 16,831,644,835 the last
    # vertex's step is left untargeted; at det 2,640 (the same string with
    # five vertices) it is not
    big = fx.string_graph([-5] * 15)
    assert big.det == 16_831_644_835
    zero = (0,) * big.n
    with pytest.raises(InfeasibleQuery):           # the public counts refuse it
        single_histogram(big, zero, big.vector([1] * big.n).scaled())
    assert [_class_step(big, v, [], zero) for v in (0, big.n - 1)] == [None, None]
    small = fx.string_graph([-5] * 5)
    w, hw, b, u, m, inv = _class_step(small, 0, [], (0,) * small.n)
    assert b == small.det and m > 1 and m * m < 2 ** 62
    assert _class_step(small, 0, [], None) is None
    # the targeted walk of the big string is the full walk: 1,000 points
    # below a bound on the first coordinate
    envelope = [1000] + [0] * (big.n - 1)
    full = sorted(map(tuple, np.concatenate(
        [c for c, _ in _iter_batches(big, _walk_plan(big, envelope))])))
    targeted = [c for c, _ in _iter_batches(big, _walk_plan(big, envelope, zero))]
    assert len(full) == 1000
    assert sorted(map(tuple, np.concatenate(targeted))) == full


def test_point_bound_knows_the_target_class(monkeypatch):
    # the POINT_LIMIT check reads the walk's own plan: on ex_graph1's trivial
    # class at depth 2, a vertex stepped by m counts ceil(values / m), which
    # still bounds the 26,118 points the walk yields
    g = fx.showcase_two_nodes()
    zero = (0,) * g.n
    thr = g.deep_point(zero, 2).scaled()
    plan = _walk_plan(g, thr, zero)
    # the untargeted plan has the same order and no steps
    assert _walk_plan(g, thr).order == plan.order
    assert _point_bound(g, _walk_plan(g, thr)) == 424_105_504
    assert _point_bound(g, plan) == 2_608_992
    assert sum(len(coords) for coords, _ in _iter_batches(g, plan)) == 26_118
    monkeypatch.setattr(series, "POINT_LIMIT", 2_608_992)
    assert single_histogram(g, zero, thr)[1:].any()
    monkeypatch.setattr(series, "POINT_LIMIT", 2_608_991)
    with pytest.raises(InfeasibleQuery):
        single_histogram(g, zero, thr)


ORDER_TREES = {"E7": lambda: fx.ade_graph("E7"), "ex_graph2": fx.showcase_star}


@settings(derandomize=True, database=None, deadline=None, max_examples=4)
@given(source=st.integers(0, 2 ** 32), pick=st.integers(0, 10 ** 6))
@example(source="E7", pick=1)
@example(source="ex_graph2", pick=5)
def test_walk_order_leaves_the_histograms_unchanged(source, pick):
    # every order of the free vertices walks the same points, so the
    # targeted and the untargeted histograms agree with the chosen order's
    if isinstance(source, str):
        g = ORDER_TREES[source]()
    else:
        g = fx.random_tree(random.Random(source), n_range=(4, 5), max_det=60,
                           max_cost=200_000)
    keys = g.classes().reps_scaled
    key = keys[pick % len(keys)]
    thr = g.deep_point(key, 1).scaled()
    want = sweep_histogram(g, [(k, thr) for k in keys])[:, 1:]
    free = _walk_plan(g, thr).order
    for perm in itertools.permutations(free):
        with mock.patch.object(series, "_free_order", lambda g, pairs: list(perm)):
            assert _walk_plan(g, thr, key).order == list(perm)
            assert (single_histogram(g, key, thr)[1:] == want[keys.index(key)]).all()
            assert (sweep_histogram(g, [(k, thr) for k in keys])[:, 1:] == want).all()


@pytest.mark.parametrize("build", [
    fx.showcase_star,
    lambda: fx.string_graph([-2, -2, -2, -3, -4, -2, -2, -2, -2]),   # d^9 >= 2^62
], ids=["radix", "lookup"])
def test_sweep_rows_hold_their_own_query(build):
    # one sweep whose classes carry 0, 1, 2 and 3 queries, one query twice,
    # in mixed order: every row is the one-class histogram and the
    # materialized store's sums on beta >= 1, and holds 0 at beta = 0
    g = build()
    keys = g.classes().reps_scaled
    thr = {(k, c): g.deep_point(k, c).scaled() for k in keys[:4] for c in (1, 2)}
    queries = [(keys[3], thr[keys[3], 1]), (keys[1], thr[keys[1], 2]),
               (keys[3], thr[keys[3], 2]), (keys[2], thr[keys[2], 1]),
               (keys[3], thr[keys[3], 1]), (keys[2], thr[keys[2], 2])]
    rows = sweep_histogram(g, queries)
    assert rows.shape == (len(queries), 1 << g.n)
    store = SupportStore(g, [max(c) for c in zip(*(t for _, t in queries))])
    weights = 1 << np.arange(g.n, dtype=np.int64)
    for (key, t), row in zip(queries, rows):
        assert row[0] == 0
        assert row[1:].any()
        assert (row[1:] == single_histogram(g, key, t)[1:]).all()
        mine = (store.coords % g.det == np.array(key)).all(axis=1)
        beta = (store.coords[mine] < np.array(t)) @ weights
        want = np.zeros(1 << g.n, dtype=np.int64)
        np.add.at(want, beta, store.z[mine])
        assert (row[1:] == want[1:]).all()
    assert (rows[0] == rows[4]).all()
