import gc
import itertools
import random
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from plumbsw import cubes
from plumbsw import fixtures as fx
from plumbsw.errors import (
    DuplicateVertex,
    InfeasibleQuery,
    IterationCapExceeded,
    MethodPreconditionFailed,
    NotATree,
    NotInDualLattice,
    NotNegativeDefinite,
    PlumbingError,
)
from plumbsw.graph import (
    class_of,
    connected_closure,
    dual_restrict,
    emit_graph_text,
    is_rational,
    minimal_s_rep,
    parse_graph,
    parse_graph_json,
    validate,
)
from plumbsw.sw import quad_term, sw_invariant, sw_table
from conftest import FractionLattice, closure_classes, det_cofactor, leading_minors


def test_validate_single_vertex(single3):
    assert single3.det == 3


def test_validate_rejects_singular_pair():
    with pytest.raises(NotNegativeDefinite) as err:
        validate(["a", "b"], [-1, -1], [("a", "b")])
    assert err.value.minor_index == 2


def test_validate_rejects_positive_vertex():
    with pytest.raises(NotNegativeDefinite):
        validate(["a"], [1], [])


def test_validate_rejects_duplicate_vertex():
    with pytest.raises(DuplicateVertex):
        validate(["a", "a"], [-2, -2], [])


def test_validate_refuses_malformed_euler_data():
    # a short list, a dict that misses a vertex and a long list are refused
    # as input errors, before the elimination reads them
    for ids, eulers in ((["a", "b"], [-2]), (["a", "b"], {"a": -2}),
                        (["a"], [-2, -3])):
        with pytest.raises(PlumbingError) as err:
            validate(ids, eulers, [("a", "b")] if len(ids) == 2 else [])
        assert type(err.value) is PlumbingError
        assert "Euler" in str(err.value)


def test_validate_rejects_cycle_and_disconnection():
    with pytest.raises(NotATree):
        validate(["a", "b", "c"], [-2] * 3, [("a", "b"), ("b", "c"), ("c", "a")])
    with pytest.raises(NotATree):
        validate(["a", "b", "c"], [-2] * 3, [("a", "b")])


def test_e8_determinant_against_cofactor_oracle(e8):
    neg = [[-x for x in row] for row in e8.matrix]
    assert det_cofactor(neg) == 1
    assert e8.det == 1


@pytest.mark.parametrize("name,expected", [("A1", 2), ("A5", 6), ("D4", 4),
                                           ("D5", 4), ("E6", 3), ("E7", 2), ("E8", 1)])
def test_ade_determinants(name, expected):
    g = fx.ade_graph(name)
    neg = [[-x for x in row] for row in g.matrix]
    assert g.det == det_cofactor(neg) == expected


def test_dual_basis_single_vertex(single3):
    assert single3.det == 3
    assert single3.dual_vector(0).coords == (Fraction(1, 3),)


def test_dual_basis_a2(a2):
    assert a2.det == 3
    assert a2.dual_vector(0).coords == (Fraction(2, 3), Fraction(1, 3))
    assert a2.dual_vector(1).coords == (Fraction(1, 3), Fraction(2, 3))


def test_dual_basis_reconstruction_and_positivity(showcase1):
    for v in range(showcase1.n):
        ev = showcase1.dual_vector(v)
        assert all(c > 0 for c in ev.coords)
        for w in range(showcase1.n):
            assert ev.pair_vertex(w) == (-1 if v == w else 0)


def test_canonical_cycle_ade(e8):
    assert e8.K.is_zero() and e8.ZK.is_zero() and e8.numerically_gorenstein


def test_canonical_cycle_single3(single3):
    assert single3.K.coords == (Fraction(-1, 3),)
    assert not single3.numerically_gorenstein


def test_canonical_cycle_showcase_star(showcase2):
    assert not showcase2.K.is_integral() and not showcase2.numerically_gorenstein


def test_adjunction_residual_is_zero_on_randoms():
    for g in fx.random_trees(seed=11, count=6):
        for v in range(g.n):
            assert (g.K + g.basis_vector(v)).pair_vertex(v) + 2 == 0


def test_class_table_sizes(e8, single3):
    assert len(e8.classes()) == 1
    tbl = single3.classes()
    reps = sorted(single3.rep_from_key(k).coords for k in tbl.reps_scaled)
    assert reps == [(Fraction(0),), (Fraction(1, 3),), (Fraction(2, 3),)]


def test_class_table_contains_showcase_rep(showcase1):
    tbl = showcase1.classes()
    assert len(tbl) == 384
    key = showcase1.class_key(showcase1.vector(fx.SHOWCASE_TWO_NODES_CLASS))
    assert key in tbl.index
    assert showcase1.rep_from_key(key).coords == fx.SHOWCASE_TWO_NODES_CLASS


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(seed=st.integers(0, 2 ** 32))
def test_class_table_matches_closure_search(seed):
    g = fx.random_tree(random.Random(seed), n_range=(1, 8), max_det=2000)
    reps = g.classes().reps_scaled
    assert reps == closure_classes(g)
    assert all(type(c) is int for c in reps[-1])


def test_class_table_matches_closure_search_on_fixtures(e8, showcase1, gor_star):
    for g in (e8, showcase1, gor_star, fx.ade_graph("D6"),
              fx.string_graph([-2, -2, -2, -3, -4, -2, -2, -2, -2])):
        assert g.classes().reps_scaled == closure_classes(g)


def test_class_table_refuses_a_group_too_large_for_int64():
    # det 16,831,644,835: the multiples k g of the extension would pass 2^62
    with pytest.raises(InfeasibleQuery):
        fx.string_graph([-5] * 15).classes()


def test_class_reps_pairwise_noncongruent(showcase2):
    reps = [showcase2.rep_from_key(k) for k in showcase2.classes().reps_scaled]
    for r in reps:
        assert r.in_dual_lattice()
        assert all(0 <= c < 1 for c in r.coords)
    for a, b in itertools.combinations(reps[:6], 2):
        assert not (a - b).is_integral()


def test_class_of_examples(single3, a2):
    assert class_of(single3.vector([2])).is_zero()
    rep = class_of(single3.from_dual_coords([-2]))
    assert rep.coords == (Fraction(1, 3),)
    both = a2.from_dual_coords([1, 1])
    assert class_of(both).is_zero()


def test_class_of_rejects_non_dual(single3):
    with pytest.raises(NotInDualLattice):
        class_of(single3.vector([Fraction(1, 2)]))


def test_minimal_s_rep_examples(single3, a2):
    s, delta = minimal_s_rep(single3, single3.zero())
    assert s.is_zero() and delta.is_zero()
    s, delta = minimal_s_rep(single3, single3.vector([Fraction(1, 3)]))
    assert s.coords == (Fraction(1, 3),) and delta.is_zero()
    estar1 = a2.dual_vector(0)
    s, _ = minimal_s_rep(a2, class_of(estar1))
    assert s == estar1


def test_minimal_s_rep_minimality_by_bounded_search(showcase2):
    g = showcase2
    for key in g.classes().reps_scaled[:5]:
        r = g.rep_from_key(key)
        s, delta = minimal_s_rep(g, r)
        assert delta.is_integral() and delta >= g.zero()
        assert all(s.pair_vertex(v) <= 0 for v in range(g.n))
        hi = (s - r) + g.vector([1] * g.n)
        for offs in itertools.product(*[range(int(c) + 1) for c in hi.coords]):
            x = r + g.vector(list(offs))
            if all(x.pair_vertex(v) <= 0 for v in range(g.n)):
                assert x >= s


def test_chi_values(e8, single3):
    assert e8.chi(e8.zero()) == 0
    assert e8.chi(e8.ZK) == 0
    for v in range(e8.n):
        assert e8.chi(e8.basis_vector(v)) == 1
    zmin = single3.fundamental_cycle()
    assert single3.chi(zmin) == 1


def test_chi_symmetry_on_randoms():
    rng = random.Random(5)
    for g in fx.random_trees(seed=7, count=5):
        for _ in range(6):
            l = g.vector([rng.randint(-3, 3) for _ in range(g.n)])
            assert g.chi(l) == g.chi(g.ZK - l)


def test_components_minus(showcase1, showcase2):
    empty = showcase2.components_minus(range(showcase2.n))
    assert len(empty) == 0
    forest = showcase2.components_minus([1, 2, 3, 4])
    assert len(forest) == 1
    assert forest.components[0].eulers == (-3,)
    forest = showcase1.components_minus([0, 2])
    sizes = sorted(c.n for c in forest.components)
    assert sizes == [1, 1, 1, 1, 1]
    forest = showcase1.components_minus([1])
    sizes = sorted(c.n for c in forest.components)
    assert sizes == [3, 3]


def test_dual_restrict_vanishes_off_component(showcase1):
    forest = showcase1.components_minus([0, 2])
    comp, origin = forest.components[0], forest.origins[0]
    outside = [v for v in range(showcase1.n) if v not in origin]
    y = dual_restrict(showcase1.dual_vector(outside[-1]), comp, origin)
    assert y.is_zero()


def test_dual_restrict_showcase_values(showcase1, showcase2):
    r1 = showcase1.vector(fx.SHOWCASE_TWO_NODES_CLASS)
    forest = showcase1.components_minus([0, 2, 3, 4, 5, 6])
    comp, origin = forest.components[0], forest.origins[0]
    assert dual_restrict(r1, comp, origin).coords == (Fraction(-1, 2),)

    r2 = showcase2.vector(fx.SHOWCASE_STAR_CLASS)
    forest = showcase2.components_minus([1, 2, 3, 4])
    comp, origin = forest.components[0], forest.origins[0]
    y = dual_restrict(r2, comp, origin)
    assert y.coords == (Fraction(-2, 3),)
    assert class_of(y).coords == (Fraction(1, 3),)


def test_dual_restrict_reads_only_its_own_pieces():
    # the pieces of D4 - {v3} are one-vertex -2 graphs; a vector of A4 (as
    # many vertices) or a piece built apart from D4 is refused, not
    # restricted through the pairing of the wrong graph
    d4, a4 = fx.ade_graph("D4"), fx.ade_graph("A4")
    comp, origin = next(iter(d4.components_minus([2])))
    assert dual_restrict(d4.dual_vector(0), comp, origin).coords == (Fraction(1, 2),)
    with pytest.raises(MethodPreconditionFailed):
        dual_restrict(a4.dual_vector(0), comp, origin)
    with pytest.raises(MethodPreconditionFailed):
        dual_restrict(d4.dual_vector(0), fx.ade_graph("A1"), origin)
    with pytest.raises(MethodPreconditionFailed):
        dual_restrict(d4.dual_vector(0), comp, (1,))


def test_dual_restrict_adjoint_and_linear(showcase1):
    rng = random.Random(3)
    forest = showcase1.components_minus([1])
    comp, origin = forest.components[0], forest.origins[0]
    for _ in range(5):
        lp = showcase1.from_dual_coords([rng.randint(-2, 4) for _ in range(showcase1.n)])
        l = comp.vector([rng.randint(-2, 2) for _ in range(comp.n)])
        jl = showcase1.vector([l.coords[origin.index(v)] if v in origin else 0
                               for v in range(showcase1.n)])
        lhs = dual_restrict(lp, comp, origin).pair(l)
        assert lhs == lp.pair(jl)
        lp2 = showcase1.from_dual_coords([rng.randint(-2, 4) for _ in range(showcase1.n)])
        assert (dual_restrict(lp, comp, origin) + dual_restrict(lp2, comp, origin)
                == dual_restrict(lp + lp2, comp, origin))


def test_is_rational(single3, e8, gor_star):
    assert is_rational(single3)
    assert is_rational(e8)
    for eulers in [(-2,), (-5,), (-2, -3), (-4, -2, -3)]:
        assert is_rational(fx.string_graph(eulers))
    assert not is_rational(gor_star)


def test_connected_closure(e8):
    # fork vertex v8 hangs off v3, so the path from v1 to v8 runs v1-v2-v3-v8
    assert connected_closure(e8, [0, 3]) == [0, 1, 2, 3]
    assert connected_closure(e8, [7]) == [7]
    assert connected_closure(e8, [0, 7]) == [0, 1, 2, 7]
    assert connected_closure(e8, [3, 7]) == [2, 3, 7]


def _tree_path(g, a, b):
    """The vertices on the tree path from a to b."""
    parent = {a: None}
    stack = [a]
    while stack:
        u = stack.pop()
        for w in g.adj[u]:
            if w not in parent:
                parent[w] = u
                stack.append(w)
    path = []
    while b is not None:
        path.append(b)
        b = parent[b]
    return path


def test_connected_closure_is_the_union_of_pair_paths():
    # the minimal subtree holding a subset is the union of the tree paths
    # between its pairs (a lone vertex is its own path)
    for g in fx.random_trees(seed=5, count=60, n_range=(2, 9)):
        for r in range(1, min(g.n, 4) + 1):
            for subset in itertools.combinations(range(g.n), r):
                brute = set(subset).union(*(_tree_path(g, a, b) for a, b
                                            in itertools.combinations(subset, 2)))
                assert connected_closure(g, subset) == sorted(brute)


def test_file_roundtrip(showcase1):
    text = emit_graph_text(showcase1)
    g2 = parse_graph(text)
    assert g2.ids == showcase1.ids
    assert g2.eulers == showcase1.eulers
    assert g2.edges == showcase1.edges
    assert emit_graph_text(g2) == text


def test_json_graph():
    g = parse_graph_json(
        '{"vertices": [{"id": "a", "euler": -2}, {"id": "b", "euler": -3}],'
        ' "edges": [["a", "b"]]}'
    )
    assert g.eulers == (-2, -3)


def test_laufer_deep_point_respects_demands(showcase2):
    tbl = showcase2.classes()
    for key in tbl.reps_scaled[:4]:
        x = showcase2.deep_point(key, 2)
        demands = showcase2.deep_demands(2)
        assert showcase2.class_key(x) == key
        for v, dem in enumerate(demands):
            assert -x.pair_vertex(v) >= dem


# -- the integer core against the plain-Fraction reference ---------------------


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(seed=st.integers(0, 2 ** 32), data=st.data())
def test_scaled_core_matches_fraction_reference(seed, data):
    g = fx.random_tree(random.Random(seed), max_det=300)
    ref = FractionLattice(g)
    assert g.det == ref.det
    assert [g.dual_vector(v).coords for v in range(g.n)] == [ref.dual(v) for v in range(g.n)]
    assert g.K.coords == ref.K
    ints = st.lists(st.integers(-4, 4), min_size=g.n, max_size=g.n)

    def dual_point():
        return g.from_dual_coords(data.draw(ints)) + g.vector(data.draw(ints))

    x, y = dual_point(), dual_point()
    assert x.pair(y) == ref.pair(x.coords, y.coords)
    assert [x.pair_vertex(v) for v in range(g.n)] == [ref.pair_vertex(x.coords, v)
                                                      for v in range(g.n)]
    assert g.chi(x) == ref.chi(x.coords)
    assert quad_term(g, x) == ref.quad(x.coords)
    assert g.class_key(x) == ref.class_key(x.coords)
    subset = data.draw(st.lists(st.integers(0, g.n - 1), min_size=1, unique=True))
    for comp, origin in g.components_minus(subset):
        assert dual_restrict(x, comp, origin).coords == ref.restrict(x.coords, comp, origin)
    key = g.class_key(x)
    s, delta = minimal_s_rep(g, x)
    assert s.coords == ref.laufer([Fraction(c, g.det) for c in key], [0] * g.n)
    assert delta == s - g.rep_from_key(key)
    depth = data.draw(st.integers(0, 2))
    assert g.deep_point(key, depth).coords == ref.deep_point(key, depth)


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(seed=st.integers(0, 2 ** 32), data=st.data())
def test_laufer_rows_match_the_unit_step_reference(seed, data):
    # the kernel steps every violated (row, vertex) at once, from above x*;
    # each row must be the point of the one-vertex-at-a-time loop
    g = fx.random_tree(random.Random(seed), max_det=300)
    ref = FractionLattice(g)
    ints = st.lists(st.integers(-4, 4), min_size=g.n, max_size=g.n)
    starts = [g.from_dual_coords(data.draw(ints)) + g.vector(data.draw(ints))
              for _ in range(data.draw(st.integers(1, 12)))]
    demands = data.draw(st.lists(st.integers(0, 4), min_size=g.n, max_size=g.n))
    rows = g.laufer_rows([x.scaled() for x in starts], demands)
    assert rows.dtype == np.int64
    assert [tuple(Fraction(c, g.det) for c in row) for row in rows.tolist()] == [
        ref.laufer(x.coords, demands) for x in starts]
    assert [g.laufer(x, demands).scaled() for x in starts] == list(map(tuple, rows.tolist()))


def test_laufer_rows_run_on_python_ints_past_int64():
    # det 16,831,644,835.  A start of coordinates 10^10 has d-scaled entries
    # past int64, so the kernel runs on object arrays; the demands below
    # need a few unit steps from it, as the reference finds
    g = fx.string_graph([-5] * 15)
    ref = FractionLattice(g)
    big = 10 ** 10
    starts = [g.vector([big] * g.n), g.vector([big] * g.n) + g.dual_vector(7)]
    demands = [3 * big + 2] * g.n
    rows = g.laufer_rows([x.scaled() for x in starts], demands)
    assert rows.dtype == object
    assert [tuple(Fraction(c, g.det) for c in row) for row in rows.tolist()] == [
        ref.laufer(x.coords, demands) for x in starts]
    assert (rows != [x.scaled() for x in starts]).any()
    # the one-class record refuses as the unit-step loop did: at depth 10^9
    # the deep point's demands pass int64 in x*, and the point is 10^6 unit
    # steps or more from the class representative; at depth 1 the walk's
    # thresholds would leave int64
    key = g.class_key(g.dual_vector(3))
    with pytest.raises(IterationCapExceeded, match="exceeded 1000000 steps"):
        sw_invariant(g, key, depth=10 ** 9)
    with pytest.raises(InfeasibleQuery, match="coordinates would overflow int64"):
        sw_invariant(g, key)
    s, delta = minimal_s_rep(g, key)
    assert s.coords == ref.laufer([Fraction(c, g.det) for c in key], [0] * g.n)
    assert g.deep_point(key, 1).coords == ref.deep_point(key, 1)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(seed=st.integers(0, 2 ** 32))
def test_definiteness_failure_names_first_bad_leading_minor(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    ids = ["v%d" % i for i in range(n)]
    parent = [rng.randrange(i) for i in range(1, n)]
    edges = [(ids[p], ids[i]) for i, p in enumerate(parent, 1)]
    eulers = [rng.randint(-3, 0) for _ in range(n)]
    neg = [[-eulers[i] if i == j else 0 for j in range(n)] for i in range(n)]
    for i, p in enumerate(parent, 1):
        neg[i][p] = neg[p][i] = -1
    minors = leading_minors(neg)
    bad = next((k for k, m in enumerate(minors, 1) if m <= 0), None)
    if bad is None:
        assert validate(ids, eulers, edges).det == minors[-1]
        return
    with pytest.raises(NotNegativeDefinite) as err:
        validate(ids, eulers, edges)
    assert (err.value.minor_index, err.value.minor_value) == (bad, minors[bad - 1])


def test_dropped_graph_is_freed_without_the_cycle_collector():
    # nothing a graph caches points back at the graph, so reference counting
    # alone frees it once the caller drops it
    gc.disable()
    try:
        g = fx.showcase_star()
        sw_table(g)
        g.components_minus([0])
        g.fundamental_cycle()
        is_rational(g)
        cubes.swbar(g)
        ref = weakref.ref(g)
        del g
        assert ref() is None
    finally:
        gc.enable()
