"""Seiberg-Witten invariants and surgery identities from counting functions.

The invariant of a class is recovered from one deep counting value: for a
point x deep in the cone, the counting function agrees with a quadratic,
and the constant of that quadratic is the (sign-normalized) invariant.
Every value returned here is checked stable under deepening before use.

The surgery machinery compares the invariant of a tree with the invariants
of the pieces left after deleting a vertex subset, the correction being
the periodic constant of the variable-reduced series.  Three independent
periodic-constant routes are implemented (closed form, one-variable
interpolation, anticanonical shortcut) and every identity is asserted as
an exact rational equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    BoundViolation,
    ComponentNotRational,
    DepthNotStable,
    FitInconsistent,
    IdentityViolation,
    InfeasibleQuery,
    InternalDisagreement,
    MethodPreconditionFailed,
    NotGorenstein,
)
from .graph import (
    LatticeVector,
    PlumbingGraph,
    _absmax,
    dual_restrict,
    fraction_text,
    int_dtype,
    int_rows,
    is_rational,
    minimal_s_rep,
    minimal_s_rows,
    vector_text,
)
from . import series

DEFAULT_DEPTH = 1


def quad_term(g: PlumbingGraph, x: LatticeVector) -> Fraction:
    """((K + 2x)^2 + |V|) / 8."""
    d2 = g.det * g.det
    kx = [k + 2 * c for k, c in zip(g.K.scaled(), x.scaled())]
    return Fraction(g.scaled_pair(kx, kx) + g.n * d2, 8 * d2)


@dataclass
class SwRecord:
    """One class of one graph: the invariant and its two normalizations."""

    graph: PlumbingGraph
    class_key: tuple
    sw: Fraction
    normalized_r: Fraction      # sw + ((K + 2 r_h)^2 + |V|)/8
    normalized_s: Fraction      # sw + ((K + 2 s_h)^2 + |V|)/8
    depth_used: int

    @property
    def rep(self):
        return self.graph.rep_from_key(self.class_key)

    def as_dict(self):
        return {
            "class": vector_text(self.rep),
            "sw": fraction_text(self.sw),
            "normalized_r": fraction_text(self.normalized_r),
            "normalized_s": fraction_text(self.normalized_s),
            "depth": self.depth_used,
        }


def _hist_rows(g, queries):
    """Histogram rows of (class key, d-scaled threshold tuple) queries, as one
    array in query order.  The rows live in one dict per graph keyed by the
    query, and the distinct queries missing there are counted by one
    sweep_histogram pass.  A row depends only on its query, so a row cached
    by any pass serves every later caller."""
    cache = g._cache.setdefault("hist", {})
    todo = list(dict.fromkeys(q for q in queries if q not in cache))
    if todo:
        cache.update(zip(todo, series.sweep_histogram(g, todo)))
    return np.array([cache[q] for q in queries])


def sweep_hist(g, keys, depths):
    """Deep points of the classes and their histogram rows at each depth: one
    (points, rows) pair of arrays per depth, in key order, the points
    d-scaled (see int_rows).  Each depth's deep points come from one
    laufer_rows call, and their rows from _hist_rows, so the (class, depth)
    pairs counted by no earlier caller take one histogram pass together."""
    xs = [g.laufer_rows(keys, g.deep_demands(c)) for c in depths]
    rows = _hist_rows(g, [(ck, tuple(x)) for points in xs
                          for ck, x in zip(keys, points.tolist())])
    k = len(keys)
    return [(points, rows[i * k:(i + 1) * k]) for i, points in enumerate(xs)]


def _check_depth(depth):
    # deep_demands(depth) puts every deep point inside -K + int(cone), where
    # counting and the quadratic law agree, exactly when depth >= 0
    if depth < 0:
        raise MethodPreconditionFailed("depth %d is negative; deep points need depth >= 0"
                                       % depth)


def _nonempty(g, subset):
    """g.vertices(subset), which must not be empty."""
    subset = g.vertices(subset)
    if not subset:
        raise MethodPreconditionFailed("subset must be nonempty")
    return subset


def _assemble(g, keys, depth):
    """(sw, normalized_r, normalized_s) of each class key at depth, checked
    stable at depth + 1, from the deep points and histograms of sweep_hist.

    The checks and the four quadratic terms run on arrays of integer
    numerators over the one denominator 8 d^2: for d-scaled K and x,
    8 d^2 quad_term(x) = (K + 2x) I (K + 2x) + |V| d^2, and
    8 d^2 sw = -8 d^2 count - that.  Each array step runs in the dtype that
    int_dtype picks for a bound on its values.  Fractions are built only for
    the three values of each class.
    """
    n, d = g.n, g.det
    den = 8 * d * d
    (x0, h0), (x1, h1) = sweep_hist(g, keys, (depth, depth + 1))
    counts = [series.hist_not_ge(h, range(n)) for h in (h0, h1)]
    top = max(abs(c) for cs in counts for c in cs)
    r = int_rows(keys)

    def dtype_for(*points):
        # |K + 2x| <= u bounds the quadratic form by n u^2 width, and
        # d (x + K, E_v) by u width
        u = 2 * max(map(_absmax, points)) + max(map(abs, g._k))
        return int_dtype(den * (top + 1) + n * (u * u * g.width + d * d))

    def quad(xs, dt):
        u = np.array(g._k, dtype=dt) + 2 * xs.astype(dt)
        return (u * (u @ g.int_arrays(dt)[0])).sum(axis=1) + n * d * d

    dt = dtype_for(x0, x1)
    k, m = np.array(g._k, dtype=dt), g.int_arrays(dt)[0]
    for xs in (x0, x1):
        # the counting/quadratic correspondence needs x in -K + int(cone):
        # d (x + K, E_v) < 0 at every vertex
        bad = np.argwhere((xs.astype(dt) + k) @ m >= 0)
        if len(bad):
            raise BoundViolation("deep point not inside -K + int(cone) at vertex %d"
                                 % bad[0][1])
    sw0, sw1 = (-den * np.array(cs, dtype=dt) - quad(xs, dt)
                for cs, xs in zip(counts, (x0, x1)))
    unstable = np.flatnonzero(sw0 != sw1)
    if len(unstable):
        i = unstable[0]
        raise DepthNotStable("class %s: %s at depth %d vs %s at depth %d"
                             % (keys[i], Fraction(int(sw0[i]), den), depth,
                                Fraction(int(sw1[i]), den), depth + 1))
    s = minimal_s_rows(g, r)
    dt = dtype_for(r, s)
    return [(Fraction(a, den), Fraction(a + b, den), Fraction(a + c, den))
            for a, b, c in zip(sw0.tolist(), quad(r, dt).tolist(), quad(s, dt).tolist())]


def _records(g, keys, depth):
    """{class_key: SwRecord} for the classes at depth, each checked stable at
    depth + 1.  The record values live in one dict per depth, without the
    graph, so the cache holds no reference back to g; the classes missing
    there are assembled by _assemble, from sweep_hist, which keeps their
    histogram rows for the counting identity to read as well."""
    _check_depth(depth)
    recs = g._cache.setdefault(("sw", depth), {})
    todo = [ck for ck in keys if ck not in recs]
    if todo:
        recs.update(zip(todo, _assemble(g, todo, depth)))
    return {ck: SwRecord(g, ck, *recs[ck], depth) for ck in keys}


def sw_table(g: PlumbingGraph, depth: int = DEFAULT_DEPTH, subset=()):
    """SwRecord for every class, via one enumeration for the (class, depth)
    pairs sweep_hist does not hold yet.

    With a subset, every class of each piece of T - subset is counted the
    same way first, at DEFAULT_DEPTH: the records component_term reads."""
    if subset:
        for comp, _ in g.components_minus(_nonempty(g, subset)):
            sw_table(comp)
    return _records(g, g.classes().reps_scaled, depth)


def sw_invariant(g: PlumbingGraph, h, depth: int = DEFAULT_DEPTH) -> SwRecord:
    """The invariant of the class of h, stable under depth + 1.

    h is read by g.class_key.  Only this one class is counted, unless its
    record is cached at this depth; a caller that reads every class asks
    sw_table first.
    """
    ck = g.class_key(h)
    return _records(g, [ck], depth)[ck]


def component_term(comp: PlumbingGraph, y: LatticeVector) -> Fraction:
    """sw of the class of y on the component, normalized at y itself."""
    rec = sw_invariant(comp, y)
    return rec.sw + quad_term(comp, y)


# -- quasipolynomials -----------------------------------------------------------


@dataclass
class QuasiPoly:
    """Closed form of a counting function deep in the cone.

    evaluate(l) for integral l is quadratic in l except for the constant
    contribution of the component classes, which is periodic: it factors
    through the map l -> (classes of the component restrictions), i.e.
    through the cosets of the finite-index sublattice where all component
    restrictions stay integral.  The series is that of the class reduced to
    the subset variables (every vertex: the unreduced series).
    """

    graph: PlumbingGraph
    class_key: tuple
    subset: tuple

    def __post_init__(self):
        g = self.graph
        self.class_key = g.class_key(self.class_key)
        self.subset = _nonempty(g, self.subset)
        self._r = g.rep_from_key(self.class_key)
        self._swT = sw_invariant(g, self.class_key).sw
        self._forest = g.components_minus(self.subset)

    def split(self, l: LatticeVector):
        """(evaluate(l), pieces): pieces lists (comp, y, component_term(comp, y))
        for every piece of T - subset, y the restriction of r_h + l to it."""
        if not l.is_integral():
            raise MethodPreconditionFailed("quasipolynomial argument must be integral")
        point = self._r + l
        pieces = []
        for comp, origin in self._forest:
            y = dual_restrict(point, comp, origin)
            pieces.append((comp, y, component_term(comp, y)))
        value = -self._swT - quad_term(self.graph, point) + sum(t for _, _, t in pieces)
        return value, pieces

    def evaluate(self, l: LatticeVector) -> Fraction:
        """Value at integral l; equals the counting function at r_h + l deep."""
        return self.split(l)[0]

    def pc(self) -> Fraction:
        """Periodic constant: the value at l = 0."""
        return self.evaluate(self.graph.zero())


# -- periodic constants ----------------------------------------------------------


def pc_closed_form(g, ck, subset) -> Fraction:
    """Closed-form pc of the class key ck reduced to the subset."""
    return QuasiPoly(g, ck, subset).pc()


def pc_gorenstein(g, subset) -> Fraction:
    """Anticanonical shortcut: the counting value at Z_K, trivial class only."""
    if not g.numerically_gorenstein:
        raise NotGorenstein("K is not integral")
    return Fraction(series.counting(g, "reduced", g.ZK, subset))


def univariate_step(g, v) -> int:
    """Smallest m with m*E_v restricting integrally to every piece of T - v."""
    m = 1
    for comp, origin in g.components_minus([v]):
        # the order of y in L'/L is the lcm of the denominators of y_w = s_w / d
        y = dual_restrict(g.basis_vector(v), comp, origin)
        m = math.lcm(m, comp.det // math.gcd(comp.det, *y.scaled()))
    return m


def pc_univariate_fit(g, h, v) -> Fraction:
    """One-variable route: interpolate the counting function of the series
    reduced to t_v on an arithmetic progression of cuts and read off the
    constant term at the representative cut.

    Quadratic fit through three sample cuts, two further cuts held out as
    verification; any mismatch raises rather than falling back.
    """
    ck = g.class_key(h)
    (v,) = g.vertices((v,))
    d = g.det
    m = univariate_step(g, v)
    step = m * d                              # progression step, scaled units
    rh_v = ck[v]                              # scaled v-coordinate of r_h
    deep_v = g.deep_point(ck, DEFAULT_DEPTH + 1).scaled()[v]
    b0 = (deep_v - rh_v) // step + 2      # one step beyond the first cut past the deep point
    gammas = [rh_v + (b0 + j) * step for j in range(5)]
    cache_key = ("uni_table", v)
    table = g._cache.get(cache_key)
    if table is None or gammas[-1] > table.reach:
        table = series.UnivariateTable(g, v, gammas[-1] + 1 + 2 * step)
        g._cache[cache_key] = table
    vals = [Fraction(table.value(ck, gamma)) for gamma in gammas]
    # exact quadratic through j = 0, 1, 2
    c0 = vals[0]
    c1 = vals[1] - vals[0]
    c2 = (vals[2] - 2 * vals[1] + vals[0]) / 2

    def p(j):
        return c0 + c1 * j + c2 * j * (j - 1)

    for j in (3, 4):
        if p(j) != vals[j]:
            raise FitInconsistent(
                "held-out cut %d: fit %s vs counted %s" % (j, p(j), vals[j])
            )
    return p(-b0)


def pc_reduced(g: PlumbingGraph, h, subset, method: str = "closed_form") -> Fraction:
    """Periodic constant of the class-h series reduced to the subset variables."""
    subset = _nonempty(g, subset)
    ck = g.class_key(h)
    if method == "closed_form":
        return pc_closed_form(g, ck, subset)
    if method == "univariate_fit":
        if len(subset) != 1:
            raise MethodPreconditionFailed("univariate_fit needs a one-vertex subset")
        return pc_univariate_fit(g, ck, subset[0])
    if method == "gorenstein":
        if ck != tuple([0] * g.n):
            raise MethodPreconditionFailed("gorenstein shortcut needs the trivial class")
        return pc_gorenstein(g, subset)
    raise MethodPreconditionFailed("unknown method %r" % method)


# -- surgery reports --------------------------------------------------------------


@dataclass
class SurgeryReport:
    kind: str
    graph: PlumbingGraph
    class_key: tuple
    subset: tuple
    lhs: Fraction
    rhs: Fraction
    items: list
    equal: bool
    method: str = ""
    depths: tuple = ()

    def as_dict(self):
        return {
            "kind": self.kind,
            "class": vector_text(self.graph.rep_from_key(self.class_key)),
            "subset": [self.graph.ids[v] for v in self.subset],
            "lhs": fraction_text(self.lhs),
            "rhs": fraction_text(self.rhs),
            "items": self.items,
            "verdict": "equal" if self.equal else "violated",
            "method": self.method,
            "depths": list(self.depths),
        }


def _raise_if_violated(report):
    if not report.equal:
        raise IdentityViolation(
            "%s identity violated for class %s, subset %s: lhs %s != rhs %s"
            % (report.kind, report.class_key, report.subset, report.lhs, report.rhs),
            report,
        )
    return report


def _component_counts(g, forest, xs):
    """Full counts of every component of T - subset at the restriction of
    each row of xs, d-scaled points of the dual lattice of g (see int_rows):
    one list of per-component counts per row.

    The pairings of all rows come from one integer matrix product, and the
    restrictions of all rows to a component from one more (restriction is
    the adjugate acting on the pairing vector), checked against the
    pairings it must reproduce.  The component's histogram rows come from
    _hist_rows, so a restricted point counted before is read back.
    """
    # pairing matrix rows: (x, E_w), integers since x is in the dual lattice;
    # |d (x, E_w)| <= width max|x|
    dt = int_dtype(g.width * _absmax(xs))
    pairs = xs.astype(dt) @ g.int_arrays(dt)[0] // g.det
    counts = [[] for _ in range(len(xs))]
    for comp, origin in forest:
        own = pairs[:, list(origin)]
        # |y| <= n_i top max(d_i E*_v), and the pairing check multiplies by a row of I_i
        top = _absmax(own)
        reach = max(len(nb) - e for e, nb in zip(comp.eulers, comp.adj))
        if comp.n * top * comp.dual_max * reach >= 2 ** 62:
            raise InfeasibleQuery("restriction to %s would overflow int64" % (comp.ids,))
        own = own.astype(np.int64)
        m, dual = comp.int_arrays(np.int64)
        ys = -own @ dual                                  # rows: d_i j*(x)
        if (ys @ m != comp.det * own).any():
            raise InternalDisagreement("restriction to %s does not pair like x" % (comp.ids,))
        hists = _hist_rows(comp, [(tuple(c % comp.det for c in y), tuple(y))
                                  for y in ys.tolist()])
        for row, q in zip(counts, series.hist_not_ge(hists, range(comp.n))):
            row.append(q)
    return counts


def _counting_surgery(g, keys, subset, depths):
    """Counting-level surgery identity for the given classes at every depth.

    Full count at a deep point of the class = reduced count there + the
    full counts of every component of T - subset at the restricted point.
    Full and reduced counts come from sweep_hist, and the component counts
    from the histogram rows of each piece, so points whose rows were
    counted before (for a record, an identity, another depth or another
    subset) are read back, and the rest take one histogram pass for every
    depth on T and on each piece.  The component counts stay one pass per
    depth: the deep points of two depths can restrict to different classes
    of a piece, and one pass over both would walk the piece untargeted.
    Returns {class_key: SurgeryReport}, raising IdentityViolation on the
    first failing class.
    """
    if not depths:
        raise MethodPreconditionFailed("no depth given: the identity would be checked nowhere")
    _check_depth(min(depths))
    subset = _nonempty(g, subset)
    forest = g.components_minus(subset)
    items = {ck: [] for ck in keys}
    for depth, (xs, hists) in zip(depths, sweep_hist(g, keys, depths)):
        for ck, full, reduced, comp_vals in zip(
                keys, series.hist_not_ge(hists, range(g.n)),
                series.hist_not_ge(hists, subset), _component_counts(g, forest, xs)):
            items[ck].append({"depth": depth, "full": full, "reduced": reduced,
                              "components": comp_vals})
    reports = {}
    for ck, its in items.items():
        sides = [(it["full"], it["reduced"] + sum(it["components"])) for it in its]
        lhs, rhs = sides[-1]
        reports[ck] = _raise_if_violated(SurgeryReport(
            "counting", g, ck, subset, Fraction(lhs), Fraction(rhs), its,
            all(a == b for a, b in sides), depths=tuple(depths)))
    return reports


def verify_counting_surgery(g, h, subset,
                            depths=(DEFAULT_DEPTH, DEFAULT_DEPTH + 1)) -> SurgeryReport:
    """Counting-level surgery identity for the class of h at every depth."""
    ck = g.class_key(h)
    return _counting_surgery(g, [ck], subset, depths)[ck]


def counting_surgery_sweep(g, subset, depths=(DEFAULT_DEPTH, DEFAULT_DEPTH + 1)):
    """Counting-level surgery identity for every class: {class_key: SurgeryReport}."""
    return _counting_surgery(g, g.classes().reps_scaled, subset, depths)


def verify_pc_surgery(g, h, subset) -> SurgeryReport:
    """Invariant-level surgery identity with an independently measured pc.

    normalized(T) = sum over components of normalized(component at the
    restriction of r_h) - pc(reduced series).  The pc is measured by the
    anticanonical shortcut (trivial class, K integral) or the one-variable
    fit (single-vertex subset); otherwise no independent route exists and
    the counting-level identity is verified instead, with the closed-form
    pc attached and the report flagged accordingly.
    """
    ck = g.class_key(h)
    subset = _nonempty(g, subset)
    if ck == tuple([0] * g.n) and g.numerically_gorenstein:
        method = "gorenstein"
        pc = pc_gorenstein(g, subset)
    elif len(subset) == 1:
        method = "univariate_fit"
        pc = pc_univariate_fit(g, ck, subset[0])
    else:
        method = "prop1_conditional"
        verify_counting_surgery(g, ck, subset)
        pc = None
    closed_form, pieces = QuasiPoly(g, ck, subset).split(g.zero())
    if pc is None:
        pc = closed_form
    items = [{"component": list(comp.ids), "term": fraction_text(t)} for comp, _, t in pieces]
    lhs = sw_invariant(g, ck).normalized_r
    rhs = sum(t for _, _, t in pieces) - pc
    items.append({"pc": fraction_text(pc), "method": method})
    report = SurgeryReport("pc", g, ck, subset, lhs, rhs, items,
                           lhs == rhs, method=method)
    return _raise_if_violated(report)


def reduction_rational(g, h, subset, which="red1") -> SurgeryReport:
    """Reductions valid when every component of T - subset is rational.

    red1: normalized(T at r_h) = -pc + sum of chi corrections, the
    correction of a component being chi(s) - chi(restriction of r_h) for
    its minimal cone representative s of the restricted class.

    red2: normalized(T at s_h) = -(finite part of the shifted reduced
    series at 1) - pc(tail), via the cut-at-Delta decomposition; the
    component contribution vanishes because restriction commutes with
    taking minimal cone representatives.
    """
    ck = g.class_key(h)
    subset = _nonempty(g, subset)
    forest = g.components_minus(subset)
    for comp, _ in forest:
        if not is_rational(comp):
            raise ComponentNotRational(
                "component %s is not rational" % (comp.ids,)
            )
    rec = sw_invariant(g, ck)
    r = g.rep_from_key(ck)
    items = []
    if which == "red1":
        # the value at l = 0 is the closed-form pc
        pc, pieces = QuasiPoly(g, ck, subset).split(g.zero())
        chi_sum = Fraction(0)
        ok = True
        for comp, y, term in pieces:
            s_i, _ = minimal_s_rep(comp, y)
            corr = comp.chi(s_i) - comp.chi(y)
            ok = ok and term == corr
            items.append({
                "component": list(comp.ids),
                "chi_correction": fraction_text(corr),
                "measured_term": fraction_text(term),
            })
            chi_sum += corr
        lhs = rec.normalized_r
        rhs = -pc + chi_sum
        items.append({"pc": fraction_text(pc)})
        report = SurgeryReport("red1", g, ck, subset, lhs, rhs,
                               items, ok and lhs == rhs)
        return _raise_if_violated(report)

    if which == "red2":
        s_h, delta = minimal_s_rep(g, r)
        # cut at zero: the shifted-away part is empty and the split is the
        # definition of the pc
        finite0 = series.counting(g, "reduced", r, subset)
        ok = finite0 == 0
        items.append({"cut": "0", "finite_part": finite0})
        # cut at delta: r_h + delta = s_h, so the pieces are read at the
        # restrictions of s_h
        finite = Fraction(series.counting(g, "reduced", s_h, subset))
        q_at_delta, pieces = QuasiPoly(g, ck, subset).split(delta)
        pc_tail = q_at_delta - finite
        items.append({"cut": "delta", "finite_part": fraction_text(finite),
                      "pc_tail": fraction_text(pc_tail)})
        # component vanishing: restriction commutes with taking minimal
        # cone representatives, and rational pieces normalize to zero there
        for comp, y, term in pieces:
            s_y, _ = minimal_s_rep(comp, y)
            minimal_ok = s_y == y
            ok = ok and minimal_ok and term == 0
            items.append({
                "component": list(comp.ids),
                "restriction_is_minimal": minimal_ok,
                "measured_term": fraction_text(term),
            })
        lhs = rec.normalized_s
        rhs = -finite - pc_tail
        report = SurgeryReport("red2", g, ck, subset, lhs, rhs,
                               items, ok and lhs == rhs)
        return _raise_if_violated(report)

    raise MethodPreconditionFailed("unknown reduction %r" % which)
