import itertools
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from plumbsw import fixtures as fx
from plumbsw import graph as graph_module
from plumbsw import series
from plumbsw import sw as sw_module
from plumbsw.cubes import coefficient_via_cubes, gorenstein_pc, swbar
from plumbsw.errors import (
    BoundViolation,
    ComponentNotRational,
    DepthNotStable,
    IdentityViolation,
    InfeasibleQuery,
    MethodPreconditionFailed,
    NotInDualLattice,
)
from plumbsw.graph import (
    PlumbingGraph,
    class_of,
    connected_closure,
    dual_restrict,
    fraction_text,
    minimal_s_rep,
)
from plumbsw.sw import (
    QuasiPoly,
    component_term,
    counting_surgery_sweep,
    pc_closed_form,
    pc_reduced,
    quad_term,
    reduction_rational,
    sw_invariant,
    sw_table,
    verify_counting_surgery,
    verify_pc_surgery,
)

from conftest import brute_counting


def test_sw_single3_trivial_class(single3):
    rec = sw_invariant(single3, single3.zero())
    assert rec.sw == Fraction(-1, 12)
    assert rec.normalized_r == 0
    assert rec.normalized_s == 0


def test_sw_single3_shifted_class_value(single3):
    # the class of -2E* with the quadratic normalization taken at -2E* itself
    v = single3.from_dual_coords([-2])
    rec = sw_invariant(single3, class_of(v))
    assert rec.sw + quad_term(single3, v) == -1


def test_sw_e8(e8):
    rec = sw_invariant(e8, e8.zero())
    assert rec.sw == -1
    assert rec.normalized_r == 0


def test_sw_depth_stability_external(showcase2):
    # recompute two levels deeper than the cached table and compare
    for key in showcase2.classes().reps_scaled:
        rec = sw_invariant(showcase2, key)
        x = showcase2.deep_point(key, rec.depth_used + 2)
        q = series.counting(showcase2, "full", x)
        assert -q - quad_term(showcase2, x) == rec.sw


def test_sw_invariant_caches_records_per_depth(monkeypatch):
    zero = (0,) * 4

    def recount(*args):
        raise AssertionError("the cached record was counted again")

    # by the table or alone, a later request at another depth is computed at
    # that depth, and the depth-1 record is read back, not counted again
    for count in (lambda g, depth: sw_table(g, depth)[zero],
                  lambda g, depth: sw_invariant(g, zero, depth=depth)):
        g = fx.ade_graph("D4")
        first = count(g, 1)
        deeper = count(g, 3)
        assert (first.depth_used, deeper.depth_used) == (1, 3)
        assert deeper.sw == first.sw
        assert zero in g._cache[("sw", 1)]
        with monkeypatch.context() as m:
            m.setattr(sw_module, "sweep_hist", recount)
            m.setattr(series, "sweep_histogram", recount)
            m.setattr(series, "hist_not_ge", recount)
            assert sw_invariant(g, zero, depth=1) == first
    # swbar records the trivial class at the default depth only, whether the
    # later request goes through the table or alone
    for later in (lambda g: sw_table(g, 3)[zero], lambda g: sw_invariant(g, zero, depth=3)):
        g = fx.ade_graph("D4")
        bar = swbar(g)
        assert list(g._cache[("sw", 1)]) == [zero]
        rec = later(g)
        assert rec.depth_used == 3
        assert -rec.sw - quad_term(g, g.zero()) == bar


def test_records_check_the_deep_point_region(monkeypatch):
    # demands far below the cone leave every deep point at its class
    # representative, outside -K + int(cone): the all-classes table and the
    # one-class route both refuse to read an invariant there
    monkeypatch.setattr(PlumbingGraph, "deep_demands", lambda self, depth: [-10 ** 6] * self.n)
    with pytest.raises(BoundViolation):
        sw_table(fx.ade_graph("D4"))
    with pytest.raises(BoundViolation):
        sw_invariant(fx.ade_graph("D4"), (0,) * 4)


def test_records_check_stability_under_deepening(monkeypatch):
    # one more unit in the last histogram row, the deeper one of the last
    # class asked for, makes its two depths disagree: the all-classes table
    # and the one-class route both refuse to read an invariant there
    sweep = series.sweep_histogram

    def bumped(g, queries):
        rows = sweep(g, queries)
        rows[-1, -1] += 1           # beta = every vertex: counted by every subset
        return rows

    monkeypatch.setattr(series, "sweep_histogram", bumped)
    g = fx.ade_graph("D4")
    last = g.classes().reps_scaled[-1]
    with pytest.raises(DepthNotStable, match=r"class %s: .* at depth 1 vs .* at depth 2"
                       % (re.escape(str(last)),)):
        sw_table(g)
    with pytest.raises(DepthNotStable, match=r"class \(0, 0, 0, 0\): -1/2 at depth 3 vs "
                                             r"-3/2 at depth 4"):
        sw_invariant(fx.ade_graph("D4"), (0,) * 4, depth=3)


TABLE_GRAPHS = {
    "ex_graph2": fx.showcase_star,
    "gor_star": fx.gorenstein_star,
    "D5": lambda: fx.ade_graph("D5"),
    "E8": lambda: fx.ade_graph("E8"),
    "random": lambda: fx.random_tree(random.Random(17), max_det=60),
}


@pytest.mark.parametrize("make", TABLE_GRAPHS.values(), ids=list(TABLE_GRAPHS))
def test_table_records_equal_one_class_records(make):
    # the table assembles every class in one array pass; each class counted
    # alone on a fresh graph gives the same record
    g, fresh = make(), make()
    table = sw_table(g)
    assert list(table) == g.classes().reps_scaled
    for ck, rec in table.items():
        alone = sw_invariant(fresh, ck)
        assert (rec.sw, rec.normalized_r, rec.normalized_s, rec.depth_used) == (
            alone.sw, alone.normalized_r, alone.normalized_s, alone.depth_used)
        assert rec.as_dict() == alone.as_dict()


def test_records_run_the_same_on_python_ints(monkeypatch):
    # where a bound could pass int64 the kernel and the record assembly run
    # on object arrays; forced there, they give the records of int64
    want = {ck: (r.sw, r.normalized_r, r.normalized_s)
            for ck, r in sw_table(fx.showcase_star()).items()}
    monkeypatch.setattr(graph_module, "int_dtype", lambda bound: object)
    monkeypatch.setattr(sw_module, "int_dtype", lambda bound: object)
    g = fx.showcase_star()
    assert g.laufer_rows(g.classes().reps_scaled, g.deep_demands(1)).dtype == object
    assert {ck: (r.sw, r.normalized_r, r.normalized_s)
            for ck, r in sw_table(g).items()} == want


def test_component_counts_refuse_an_overflowing_restriction(showcase2):
    # the int64 restriction product is bounded before it is formed
    g = showcase2
    forest = g.components_minus(g.nodes)
    huge = g.vector([10 ** 19] * g.n)
    with pytest.raises(InfeasibleQuery):
        sw_module._component_counts(g, forest, graph_module.int_rows(
            [g.deep_point(g.classes().reps_scaled[1], 1).scaled(), huge.scaled()]))


def test_quasipoly_full_matches_counting_deep(showcase2):
    g = showcase2
    for key in g.classes().reps_scaled[:6]:
        qp = QuasiPoly(g, key, range(g.n))
        x = g.deep_point(key, 2)
        l = x - g.rep_from_key(key)
        assert qp.evaluate(l) == series.counting(g, "full", x)


def test_quasipoly_full_constant_is_pc(showcase2):
    for key in showcase2.classes().reps_scaled[:4]:
        qp = QuasiPoly(showcase2, key, range(showcase2.n))
        rec = sw_invariant(showcase2, key)
        assert qp.pc() == -rec.normalized_r


def test_quasipoly_e8_closed_form(e8):
    qp = QuasiPoly(e8, e8.zero(), range(e8.n))
    rng = random.Random(2)
    for _ in range(5):
        l = e8.vector([rng.randint(0, 3) for _ in range(8)])
        assert qp.evaluate(l) == -Fraction(l.pair(l), 2)


def test_quasipoly_reduced_matches_counting_deep(showcase2):
    g = showcase2
    subset = (1, 2)
    for key in g.classes().reps_scaled[:6]:
        qp = QuasiPoly(g, key, subset)
        for depth in (1, 2):
            x = g.deep_point(key, depth)
            l = x - g.rep_from_key(key)
            assert qp.evaluate(l) == series.counting(g, "reduced", x, subset)


def test_quasipoly_reduced_full_subset_degenerates(showcase2):
    # reducing to every variable leaves the series as it is
    g = showcase2
    key = g.classes().reps_scaled[3]
    x = g.deep_point(key, 2)
    assert series.counting(g, "reduced", x, range(g.n)) == series.counting(g, "full", x)
    assert (QuasiPoly(g, key, range(g.n)).pc() == pc_reduced(g, key, range(g.n))
            == -sw_invariant(g, key).normalized_r)


def test_component_term_of_showcase_class(showcase2):
    rh = showcase2.vector(fx.SHOWCASE_STAR_CLASS)
    forest = showcase2.components_minus((1, 2, 3, 4))
    comp, origin = forest.components[0], forest.origins[0]
    y = dual_restrict(rh, comp, origin)
    assert y.coords == (Fraction(-2, 3),)
    assert component_term(comp, y) == -1


def test_counting_surgery_showcases(showcase1, showcase2):
    key1 = showcase1.class_key(showcase1.vector(fx.SHOWCASE_TWO_NODES_CLASS))
    verify_counting_surgery(showcase1, key1, (0, 2))
    key2 = showcase2.class_key(showcase2.vector(fx.SHOWCASE_STAR_CLASS))
    verify_counting_surgery(showcase2, key2, (1, 2, 3, 4))


def test_counting_surgery_sweep_matches_single(showcase2):
    out = counting_surgery_sweep(showcase2, (1, 3))
    assert list(out) == showcase2.classes().reps_scaled
    for key in showcase2.classes().reps_scaled[:4]:
        rep = verify_counting_surgery(showcase2, key, (1, 3))
        assert out[key].as_dict() == rep.as_dict()
        assert [it["depth"] for it in out[key].items] == [1, 2]


# a table or a one-class record leaves the deep points and histograms its
# counting identity reads, so the identity walks only the pieces of T - leaves
@pytest.mark.parametrize("make", [fx.showcase_star, fx.gorenstein_star],
                         ids=["ex_graph2", "gor_star"])
def test_counting_surgery_reads_the_cached_histograms(walks, make):
    g = make()
    ck = g.classes().reps_scaled[5]
    leaves = tuple(v for v in range(g.n) if g.delta[v] <= 1)
    fresh = verify_counting_surgery(g, ck, leaves).as_dict()
    for warm in (sw_table, lambda g: sw_invariant(g, ck)):
        g = make()
        warm(g)
        walks.clear()
        assert verify_counting_surgery(g, ck, leaves).as_dict() == fresh
        assert [w for w in walks if w[0] == g.ids] == []


def test_second_counting_surgery_sweep_walks_nothing(walks):
    # the rows of T and of every piece are read back from their caches
    g = fx.showcase_star()
    first = {ck: rep.as_dict() for ck, rep in counting_surgery_sweep(g, (1, 3)).items()}
    walks.clear()
    assert {ck: rep.as_dict() for ck, rep in counting_surgery_sweep(g, (1, 3)).items()} == first
    assert walks == []


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(seed=st.integers(0, 2 ** 32), data=st.data())
def test_component_counts_match_the_brute_oracle(seed, data):
    # each component count is the full counting function of its piece at
    # the restricted deep point, whichever cache the row was read from
    g = fx.random_tree(random.Random(seed), max_det=300)
    subset = tuple(sorted(data.draw(
        st.sets(st.integers(0, g.n - 1), min_size=1, max_size=g.n - 1))))
    reps = g.classes().reps_scaled
    ck = reps[data.draw(st.integers(0, len(reps) - 1))]
    forest = g.components_minus(subset)
    rep = verify_counting_surgery(g, ck, subset, depths=(1, 2))
    for depth, item in zip((1, 2), rep.items):
        assert item["depth"] == depth
        assert item["full"] == item["reduced"] + sum(item["components"])
        x = g.deep_point(ck, depth)
        assert item["components"] == [
            brute_counting(comp, dual_restrict(x, comp, origin), range(comp.n))
            for comp, origin in forest]


# each identity restricts every piece once per class, and reads its terms
# and the closed-form pc from that one pass
IDENTITIES = {
    "prop1": lambda g, ck: verify_pc_surgery(g, ck, (1, 2)),
    "gorenstein": lambda g, ck: verify_pc_surgery(g, ck, g.nodes),
    "red1": lambda g, ck: reduction_rational(g, ck, (1, 2, 3, 4), "red1"),
    "red2": lambda g, ck: reduction_rational(g, ck, (1, 2, 3, 4), "red2"),
}
METHODS = {"prop1": "prop1_conditional", "gorenstein": "gorenstein"}


@pytest.mark.parametrize("name", list(IDENTITIES))
def test_identities_restrict_each_piece_once(monkeypatch, name):
    g = fx.gorenstein_star() if name == "gorenstein" else fx.showcase_star()
    keys = [(0,) * g.n] if name == "gorenstein" else g.classes().reps_scaled[:4]
    calls = []
    restrict = sw_module.dual_restrict

    def counted(x, comp, origin):
        calls.append(origin)
        return restrict(x, comp, origin)

    monkeypatch.setattr(sw_module, "dual_restrict", counted)
    for ck in keys:
        calls.clear()
        rep = IDENTITIES[name](g, ck)
        assert rep.equal
        assert rep.method == METHODS.get(name, "")
        assert sorted(calls) == sorted(g.components_minus(rep.subset).origins)


@pytest.mark.parametrize("name", ["prop1", "red1"])
def test_reported_pc_is_the_closed_form(showcase2, name):
    for ck in showcase2.classes().reps_scaled[:4]:
        rep = IDENTITIES[name](showcase2, ck)
        want = pc_closed_form(showcase2, ck, rep.subset)
        assert rep.items[-1]["pc"] == fraction_text(want)


def test_counting_surgery_refuses_no_depths(monkeypatch):
    # with no depth nothing would be compared, and an empty check must not pass
    def recount(*args):
        raise AssertionError("counted before the depths were checked")

    g = fx.ade_graph("D5")
    monkeypatch.setattr(series, "sweep_histogram", recount)
    with pytest.raises(MethodPreconditionFailed):
        verify_counting_surgery(g, (0,) * g.n, (0,), depths=())
    with pytest.raises(MethodPreconditionFailed):
        counting_surgery_sweep(g, (0,), depths=())


def test_counting_surgery_random_trees():
    rng = random.Random(99)
    for g in fx.random_trees(seed=77, count=5, n_range=(4, 6)):
        key = g.class_key(g.from_dual_coords([rng.randint(0, 4) for _ in range(g.n)]))
        subset = tuple(sorted(rng.sample(range(g.n), rng.randint(1, g.n))))
        verify_counting_surgery(g, key, subset)


def test_pc_methods_agree_univariate(showcase2):
    for key in showcase2.classes().reps_scaled:
        for v in range(showcase2.n):
            assert (pc_reduced(showcase2, key, (v,), "closed_form")
                    == pc_reduced(showcase2, key, (v,), "univariate_fit"))


def test_pc_gorenstein_matches_closed_form(gor_star):
    zero = tuple([0] * gor_star.n)
    for subset in [(0,), (1, 2), (0, 3, 4), tuple(range(gor_star.n))]:
        assert (pc_reduced(gor_star, zero, subset, "gorenstein")
                == pc_reduced(gor_star, zero, subset, "closed_form"))


def test_pc_method_preconditions(showcase2, gor_star):
    key = showcase2.classes().reps_scaled[3]
    with pytest.raises(MethodPreconditionFailed):
        pc_reduced(showcase2, key, (0, 1), "univariate_fit")
    with pytest.raises(MethodPreconditionFailed):
        pc_reduced(gor_star, gor_star.classes().reps_scaled[1], (0,), "gorenstein")
    with pytest.raises(MethodPreconditionFailed):
        pc_reduced(showcase2, key, (), "closed_form")


def test_reduced_pc_equals_full_pc_over_nodes(showcase1):
    # the reduction to node variables preserves the periodic constant
    table = sw_table(showcase1)
    for key in list(table)[:8]:
        assert (pc_reduced(showcase1, key, showcase1.nodes, "closed_form")
                == pc_reduced(showcase1, key, tuple(range(showcase1.n)), "closed_form"))


def test_string_component_terms_vanish(showcase1):
    # every component of T minus its nodes is a string; each term vanishes
    forest = showcase1.components_minus(showcase1.nodes)
    for key in list(sw_table(showcase1))[:8]:
        r = showcase1.rep_from_key(key)
        for comp, origin in forest:
            assert component_term(comp, dual_restrict(r, comp, origin)) == 0


def test_pc_surgery_univariate(showcase2):
    rep = verify_pc_surgery(showcase2, showcase2.classes().reps_scaled[5], (2,))
    assert rep.equal and rep.method == "univariate_fit"


def test_pc_surgery_gorenstein(gor_star):
    zero = tuple([0] * gor_star.n)
    rep = verify_pc_surgery(gor_star, zero, (1, 2))
    assert rep.equal and rep.method == "gorenstein"


def test_pc_surgery_conditional_path(showcase2):
    key = showcase2.classes().reps_scaled[3]
    rep = verify_pc_surgery(showcase2, key, (1, 2))
    assert rep.equal and rep.method == "prop1_conditional"


def test_reduction_red1_red2_star(showcase2):
    for key in showcase2.classes().reps_scaled:
        reduction_rational(showcase2, key, (1, 2, 3, 4), "red1")
        reduction_rational(showcase2, key, (1, 2, 3, 4), "red2")


def test_reduction_trivial_class_has_zero_corrections(showcase2):
    zero = tuple([0] * showcase2.n)
    rep = reduction_rational(showcase2, zero, (1, 2, 3, 4), "red1")
    for item in rep.items:
        if "chi_correction" in item:
            assert item["chi_correction"] == "0/1"


def test_reduction_rejects_nonrational_component():
    # a pendant vertex whose removal leaves the non-rational five-leg star
    g = fx.validate(
        ["c", "p1", "p2", "p3", "p4", "p5", "t"],
        [-3, -2, -2, -2, -2, -2, -2],
        [("c", "p1"), ("c", "p2"), ("c", "p3"), ("c", "p4"), ("c", "p5"),
         ("p1", "t")],
    )
    with pytest.raises(ComponentNotRational):
        reduction_rational(g, tuple([0] * g.n), (g.index["t"],), "red1")


def test_surgery_report_serialization(showcase2):
    key = showcase2.class_key(showcase2.vector(fx.SHOWCASE_STAR_CLASS))
    rep = verify_counting_surgery(showcase2, key, (1, 2, 3, 4))
    d = rep.as_dict()
    assert d["verdict"] == "equal"
    assert d["kind"] == "counting"
    assert d["lhs"] == d["rhs"]
    rec = sw_invariant(showcase2, key)
    rd = rec.as_dict()
    assert rd["sw"].count("/") == 1


def test_rational_graph_trivial_class_pc_vanishes(showcase2):
    # rational tree, trivial class, rational pieces: both sides of the surgery
    # normalize to zero, so every reduced pc vanishes
    g = showcase2
    zero = tuple([0] * g.n)
    for subset in [(0,), (1,), (1, 2), (0, 3), (1, 2, 3, 4), tuple(range(g.n))]:
        assert pc_reduced(g, zero, subset, "closed_form") == 0
    for eulers in [(-2, -3), (-4, -2, -5)]:
        s = fx.string_graph(eulers)
        zero = tuple([0] * s.n)
        for v in range(s.n):
            assert pc_reduced(s, zero, (v,), "closed_form") == 0


def test_star_chi_correction_values(showcase2):
    # the restricted showcase class has minimal representative E0/3, and the
    # chi correction reproduces the measured component term of -1
    g = showcase2
    rh = g.vector(fx.SHOWCASE_STAR_CLASS)
    forest = g.components_minus((1, 2, 3, 4))
    comp, origin = forest.components[0], forest.origins[0]
    y = dual_restrict(rh, comp, origin)
    s1, _ = minimal_s_rep(comp, class_of(y))
    assert s1.coords == (Fraction(1, 3),)
    assert comp.chi(s1) - comp.chi(y) == -1 == component_term(comp, y)


def test_duality_of_reduced_quasipoly(gor_star):
    # trivial class on an integral-anticanonical graph: values at l and ZK - l agree
    g = gor_star
    zero = tuple([0] * g.n)
    rng = random.Random(8)
    for subset in [(0,), (1, 2), (0, 2, 4)]:
        qp = QuasiPoly(g, zero, subset)
        assert qp.evaluate(g.zero()) == qp.evaluate(g.ZK)
        for _ in range(5):
            l = g.vector([rng.randint(-1, 2) for _ in range(g.n)])
            assert qp.evaluate(l) == qp.evaluate(g.ZK - l)


# -- argument rules: every class, subset and vector argument is read by the
# graph, and a refusal comes before any enumeration walk


def test_unreduced_class_key_reads_as_its_class(walks):
    # (4, 0, 0, 0) is the trivial class of D4 (det 4) written without reducing mod 4
    g = fx.ade_graph("D4")
    unreduced = verify_counting_surgery(g, (4, 0, 0, 0), (2,)).as_dict()
    assert unreduced == verify_counting_surgery(g, (0, 0, 0, 0), (2,)).as_dict()
    assert unreduced["verdict"] == "equal"
    assert sw_invariant(g, (4, 0, -4, 8)) == sw_invariant(g, (0,) * 4)


CLASS_READERS = {
    "sw_invariant": lambda g, h: sw_invariant(g, h),
    "minimal_s_rep": lambda g, h: minimal_s_rep(g, h),
    "quasipoly": lambda g, h: QuasiPoly(g, h, (2,)),
    "pc_reduced": lambda g, h: pc_reduced(g, h, (2,)),
    "pc_univariate_fit": lambda g, h: sw_module.pc_univariate_fit(g, h, 2),
    "verify_counting_surgery": lambda g, h: verify_counting_surgery(g, h, (2,)),
    "verify_pc_surgery": lambda g, h: verify_pc_surgery(g, h, (2,)),
    "red1": lambda g, h: reduction_rational(g, h, (2,), "red1"),
}


@pytest.mark.parametrize("reader", CLASS_READERS, ids=list(CLASS_READERS))
def test_class_outside_the_dual_lattice_is_refused(walks, reader):
    g = fx.ade_graph("D4")
    with pytest.raises(NotInDualLattice):
        CLASS_READERS[reader](g, (1, 0, 0, 0))
    for malformed in ((0, 0, 0), (0, 0, 0, Fraction(1, 2))):
        with pytest.raises(MethodPreconditionFailed):
            CLASS_READERS[reader](g, malformed)
    assert walks == []


SUBSET_READERS = {
    "pc_reduced": lambda g, s: pc_reduced(g, (0,) * 4, s),
    "counting": lambda g, s: series.counting(g, "reduced", g.vector([1] * 4), s),
    "modified_counting": lambda g, s: series.counting(g, "modified", g.vector([1] * 4), s),
    "sw_table": lambda g, s: sw_table(g, subset=s),
    "quasipoly": lambda g, s: QuasiPoly(g, (0,) * 4, s),
    "verify_counting_surgery": lambda g, s: verify_counting_surgery(g, (0,) * 4, s),
    "counting_surgery_sweep": lambda g, s: counting_surgery_sweep(g, s),
    "verify_pc_surgery": lambda g, s: verify_pc_surgery(g, (0,) * 4, s),
    "red2": lambda g, s: reduction_rational(g, (0,) * 4, s, "red2"),
    "gorenstein_pc": lambda g, s: gorenstein_pc(g, s),
    "support_bound_report": lambda g, s: series.support_bound_report(g, s, g.vector([1] * 4)),
    "connected_closure": lambda g, s: connected_closure(g, s),
    "components_minus": lambda g, s: g.components_minus(s),
}


@pytest.mark.parametrize("subset", [(9,), (-1,), (0, 4), ("v1",)])
@pytest.mark.parametrize("reader", SUBSET_READERS, ids=list(SUBSET_READERS))
def test_vertex_outside_the_graph_is_refused(walks, reader, subset):
    with pytest.raises(MethodPreconditionFailed):
        SUBSET_READERS[reader](fx.ade_graph("D4"), subset)
    assert walks == []


@pytest.mark.parametrize("v", [4, 9, -1])
def test_univariate_vertex_outside_the_graph_is_refused(walks, v):
    with pytest.raises(MethodPreconditionFailed):
        sw_module.pc_univariate_fit(fx.ade_graph("D4"), (0,) * 4, v)
    with pytest.raises(MethodPreconditionFailed):
        sw_module.univariate_step(fx.ade_graph("D4"), v)
    assert walks == []


VECTOR_READERS = {
    "coefficient": lambda g, x: series.coefficient(g, x),
    "coefficient_via_cubes": lambda g, x: coefficient_via_cubes(g, x),
    "chi": lambda g, x: g.chi(x),
    "class_key": lambda g, x: g.class_key(x),
    "counting": lambda g, x: series.counting(g, "full", x),
    "sw_invariant": lambda g, x: sw_invariant(g, x),
    "laufer": lambda g, x: g.laufer(x, [0] * g.n),
}


@pytest.mark.parametrize("reader", VECTOR_READERS, ids=list(VECTOR_READERS))
def test_vector_of_another_graph_is_refused(walks, reader):
    # A4 has as many vertices as D4, so only the graph tells the vectors apart
    g, other = fx.ade_graph("D4"), fx.ade_graph("A4")
    for x in (other.zero(), other.vector([1, 2, 2, 1])):
        with pytest.raises(MethodPreconditionFailed):
            VECTOR_READERS[reader](g, x)
    assert walks == []


def test_counting_surgery_walks_a_small_frontier(monkeypatch):
    # criterion 4's det-1269 tree, trivial class, vertex 0 deleted: one walk
    # of T for both depths, its free vertices ordered by the point bound.
    # Counted in rows handed to the vertex factor, the walks of T and of
    # its pieces expanded 174,836 rows with one walk per depth and the
    # nodes-first order; half of that is the ceiling here.
    g = fx.random_trees(seed=4242, count=50, n_range=(3, 7), max_cost=50_000_000)[12]
    assert g.det == 1269
    rows = []
    factor = series._vertex_factor

    def counted(dv, a):
        if isinstance(a, np.ndarray):
            rows.append(len(a))
        return factor(dv, a)

    monkeypatch.setattr(series, "_vertex_factor", counted)
    assert verify_counting_surgery(g, (0,) * g.n, (0,)).equal
    assert 0 < sum(rows) <= 174_836 // 2
