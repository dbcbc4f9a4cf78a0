"""Coefficients and counting functions of the multivariable series of a tree.

The series is the Taylor expansion of prod_v (1 - t^{E*_v})^(delta_v - 2).
In dual coordinates (writing an exponent as sum_v a_v E*_v) the coefficient
factorizes over vertices, so a single exponent costs nothing.  Counting
functions are finite sums of coefficients over the exponents failing a
coordinatewise threshold; those are enumerated by one numpy frontier over
dual coordinates, streamed in bounded chunks, and tallied per (class,
threshold) query into histograms indexed by the bitmask of coordinates below
it.  When every query names one class, the frontier steps each dual
coordinate only through the values that can still reach that class.  All
quantities are integers throughout (coordinates are pre-scaled by det(-I)),
so nothing here is approximate.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    BoundViolation,
    InfeasibleQuery,
    NotInDualLattice,
    PlumbingError,
)
from .graph import (
    LatticeVector,
    PlumbingGraph,
    _bareiss,
    connected_closure,
)


def _sign_binom(m, b):
    return (-1) ** b * math.comb(m, b)


def _vertex_factor(dv, a):
    """Coefficient of t^a in (1 - t)^(dv - 2): the factor a vertex of valency
    dv contributes at dual coordinate a >= 0.  That is a + 1 at an isolated
    vertex, 1 at an end and a signed binomial otherwise (zero past dv - 2).
    a is an int, or an int64 array whose entries stay at most dv - 2."""
    if dv <= 1:
        return a + 1 if dv == 0 else 1
    if isinstance(a, np.ndarray):
        return np.array([_sign_binom(dv - 2, b) for b in range(dv - 1)], dtype=np.int64)[a]
    return _sign_binom(dv - 2, a)


def coefficient(g: PlumbingGraph, x: LatticeVector) -> int:
    """Series coefficient at exponent x.

    Zero off the cone (some dual coordinate negative) and whenever a
    valency-2 vertex carries a nonzero dual coordinate or a node exceeds
    its valency budget.
    """
    d = g.det
    q = g.scaled_pairings(g.scaled_of(x))     # -d times the dual coordinates
    if any(c % d for c in q):
        raise NotInDualLattice("exponent is not in the dual lattice")
    a = [-c // d for c in q]
    if min(a) < 0:
        return 0
    z = 1
    for dv, av in zip(g.delta, a):
        z *= _vertex_factor(dv, av)
    return z


# -- enumeration core ---------------------------------------------------------

CHUNK_ROWS = 1 << 16
POINT_LIMIT = 10 ** 12      # refuse enumerations that could yield more points


def _value_counts(g, v, pairs):
    """Per (w, top) pair, top > 0, the number of values a_v >= 0 with
    a_v (d E*_v)_w < top, at most delta_v - 1 of them where delta_v >= 2."""
    col, dv = g.dual_scaled[v], g.delta[v]
    runs = [(top - 1) // col[w] + 1 for w, top in pairs]
    return [min(r, dv - 1) for r in runs] if dv >= 2 else runs


def _point_bound(g, plan):
    """Upper bound on the points a walk by plan yields: the sum over its
    (w, top) pairs of the product over its free vertices of their
    _value_counts, where a vertex stepped by m takes at most ceil(values / m)
    of its values whatever its residue.  Every point yielded is below some
    pair."""
    total = [1] * len(plan.pairs)
    for v, step in zip(plan.order, plan.steps):
        m = 1 if step is None else step[4]
        total = [t * -(-r // m) for t, r in zip(total, _value_counts(g, v, plan.pairs))]
    return sum(total)


def _coefficient_bound(g, plan):
    """Upper bound on |z| at the points a walk by plan yields: the product
    over its free vertices of the largest |_vertex_factor| over the values
    below their largest _value_counts (a + 1 at an isolated vertex, 1 at an
    end, the binomial nearest the middle that a node reaches)."""
    z = 1
    for v in plan.order:
        dv, top = g.delta[v], max(_value_counts(g, v, plan.pairs))
        if dv == 0:
            z *= top
        elif dv >= 3:
            z *= math.comb(dv - 2, min(top - 1, (dv - 2) // 2))
    return z


def _free_order(g, pairs):
    """The vertices with a free dual coordinate (valency not 2) in walk
    order, filled from the back: each position goes to the vertex whose
    removal leaves the smallest point bound on the frontier before it, the
    lowest index on a tie.  Every value count is at least 1, so the bound
    without v is the bound with it, pair by pair divided by v's counts."""
    counts = {v: _value_counts(g, v, pairs) for v in range(g.n) if g.delta[v] != 2}
    order = []
    while counts:
        full = list(map(math.prod, zip(*counts.values())))
        v = min(counts, key=lambda v: sum(map(operator.floordiv, full, counts[v])))
        order.append(v)
        del counts[v]
    return order[::-1]


def _class_step(g: PlumbingGraph, v, later, target):
    """The step through which a_v can keep a point in class target, or None.

    The vertices in later add to coordinate w only multiples of
    b = gcd(d, (d E*_x)_w for x in later), so a point whose coordinate w is
    c before v reaches the class only if c + a_v e = h_w (mod b), where
    e = (d E*_v)_w.  With u = gcd(e, b) and m = b / u that needs u | t for
    t = (h_w - c) mod b, and then a_v = r (mod m) for r = (t / u) inv mod m,
    inv the inverse of e / u mod m.  Returns (w, h_w, b, u, m, inv) for the
    coordinate w of largest m, or None (every a_v) when there is no target,
    when m is 1, or when r could wrap int64 (t / u and inv are both below m).
    """
    if target is None:
        return None
    best = None
    for w in range(g.n):
        b = math.gcd(g.det, *(g.dual_scaled[x][w] for x in later))
        u = math.gcd(g.dual_scaled[v][w], b)
        if best is None or b // u > best[4]:
            best = (w, int(target[w]) % b, b, u, b // u)
    w, hw, b, u, m = best
    if m == 1 or m * m >= 2 ** 62:
        return None
    return w, hw, b, u, m, pow(g.dual_scaled[v][w] // u, -1, m)


class WalkPlan(NamedTuple):
    """What one walk below an envelope visits, fixed before it starts."""

    pairs: list             # the tracked (w, top): envelope entries above 0
    order: list             # the free vertices, in _free_order
    steps: list             # each one's _class_step, given the vertices after it
    target: tuple | None    # the class key the steps aim at; the walk itself
                            # reads only the steps


def _walk_plan(g: PlumbingGraph, envelope, target=None) -> WalkPlan:
    """The plan of the walk below an envelope towards a class key (or None).

    envelope: per-coordinate strict upper bounds in d-scaled units; entries
    of 0 or less bound nothing."""
    pairs = [(w, top) for w, top in enumerate(envelope) if top > 0]
    order = _free_order(g, pairs) if pairs else []      # no point lies below no pair
    steps = [_class_step(g, v, order[i + 1:], target) for i, v in enumerate(order)]
    return WalkPlan(pairs, order, steps, target)


def _iter_batches(g: PlumbingGraph, plan: WalkPlan):
    """Yield (coords, z) numpy batches over the support points l' with
    coord_w < top for at least one pair (w, top) of the plan.

    coords batches are int64 arrays (k, n) of d-scaled coordinates, z the
    int64 coefficients, k at most CHUNK_ROWS.  With a target, the batches
    hold every point of that class and may hold points of other classes,
    which the caller filters out.

    One frontier of partial points walks the free vertices in the plan's
    order.  Each vertex expands every live row with the same vectorized
    step a_v = r + j m, j = 0, 1, ...  Without a target, or where
    _class_step finds no step, r = 0 and m = 1 and the no-op arithmetic is
    skipped; otherwise m and the per-row residue r skip the values from
    which the later vertices cannot reach the class, and a row with no such
    value expands nothing.  The expansion is visited depth
    first in windows of at most CHUNK_ROWS rows.  Each suspended vertex level
    keeps one window alive, so memory is bounded by (number of levels) x
    CHUNK_ROWS rows whatever the run lengths, with or without a target.
    """
    pairs, order, steps, _ = plan
    if not pairs:
        return
    tracked = [w for w, _ in pairs]
    cols = g.int_arrays(np.int64)[1]                       # row v: d E*_v
    cols_t = cols[:, tracked]
    top = np.array([t for _, t in pairs], dtype=np.int64)

    def windows(i, coords, z):
        """The rows expanded by a_v = r + j m, v = order[i], while some
        tracked coordinate stays below its bound, in windows of at most
        CHUNK_ROWS rows."""
        v = order[i]
        dv = g.delta[v]
        # ceil(remainder / step) per tracked coordinate, 0 where nothing remains
        caps = ((np.maximum(top - coords[:, tracked], 0) - 1) // cols_t[v] + 1).max(axis=1)
        if dv >= 3:
            np.minimum(caps, dv - 1, out=caps)              # exponents 0..delta-2
        step = steps[i]
        if step is not None:
            # caps counts the values r, r + m, ... below the cap, none where
            # no a_v reaches the class
            w, hw, b, u, m, inv = step
            t = (hw - coords[:, w]) % b
            r = t // u * inv % m
            caps = np.where(t % u == 0, (np.maximum(caps - r, 0) + m - 1) // m, 0)
        ends = np.cumsum(caps)
        total = int(ends[-1])
        for start in range(0, total, CHUNK_ROWS):
            idx = np.arange(start, min(start + CHUNK_ROWS, total), dtype=np.int64)
            rows = np.searchsorted(ends, idx, "right")
            a = idx - ends[rows] + caps[rows]               # j, with a_v = r + j m
            if step is not None:
                a = r[rows] + a * m
            yield coords[rows] + a[:, None] * cols[v], z[rows] * _vertex_factor(dv, a)

    # depth first: stack[i] walks the windows of vertex order[i]
    stack = [windows(0, np.zeros((1, g.n), dtype=np.int64), np.ones(1, dtype=np.int64))]
    while stack:
        batch = next(stack[-1], None)
        if batch is None:
            stack.pop()
        elif len(stack) == len(order):
            yield batch
        else:
            stack.append(windows(len(stack), *batch))


def _walk(g: PlumbingGraph, thresholds, target=None):
    """The batches of _iter_batches below the envelope (coordinatewise max)
    of the d-scaled threshold vectors, towards a class key or None.

    The one entry to the walk.  It refuses with InfeasibleQuery, before any
    array is built, thresholds whose largest |entry| could carry coordinates
    past int64, walks whose point bound exceeds POINT_LIMIT, and walks whose
    point bound times _coefficient_bound could carry a coefficient or a
    histogram sum past int64."""
    top = max(max(map(abs, t)) for t in thresholds)
    if g.n * top * g.dual_max >= 2 ** 62:
        raise InfeasibleQuery("threshold too large: coordinates would overflow int64")
    plan = _walk_plan(g, [max(c) for c in zip(*thresholds)], target)
    bound = _point_bound(g, plan)
    if bound > POINT_LIMIT:
        raise InfeasibleQuery("threshold too large: up to %d support points to enumerate, "
                              "more than %d" % (bound, POINT_LIMIT))
    # every coefficient, and every histogram sum of them, is at most this
    zsum = bound * _coefficient_bound(g, plan)
    if zsum >= 2 ** 63:
        raise InfeasibleQuery("threshold too large: coefficient sums up to %d would overflow "
                              "int64" % zsum)
    return _iter_batches(g, plan)


class SupportStore:
    """Materialized support points below an envelope (a threshold vector).

    No counting route uses it: it is the materialize-then-filter reference
    that the streamed sweep is checked against.  coords holds the walked
    points (d-scaled, one row each) and z their coefficients; a query
    filters them by class and threshold, and is refused where its
    threshold passes the envelope on its subset.
    """

    def __init__(self, g: PlumbingGraph, envelope):
        self.g = g
        self.envelope = list(envelope)
        batches = [(np.zeros((0, g.n), dtype=np.int64), np.zeros(0, dtype=np.int64))]
        batches += _walk(g, [envelope])
        self.coords, self.z = map(np.concatenate, zip(*batches))

    def sum_not_ge(self, class_key, thr, subset) -> int:
        """Sum of coefficients over the class with coord_w < thr_w somewhere on subset."""
        cols = list(subset)
        if any(thr[w] > self.envelope[w] for w in cols):
            raise PlumbingError("query threshold exceeds store envelope")
        mask = ((self.coords % self.g.det == np.array(class_key, dtype=np.int64)).all(axis=1)
                & (self.coords[:, cols] < np.array([thr[w] for w in cols], dtype=np.int64))
                .any(axis=1))
        return int(self.z[mask].sum())


def single_histogram(g: PlumbingGraph, class_key, thr):
    """Bitmask histogram for one class at one threshold (see sweep_histogram)."""
    return sweep_histogram(g, [(tuple(class_key), thr)])[0]


def sweep_histogram(g: PlumbingGraph, queries):
    """Bitmask histograms for (class key, threshold) queries, one row per query.

    Entry beta of a query's row holds the coefficient sum over the support
    points of its class whose set of coordinates strictly below its
    threshold is exactly beta.  One enumeration, up to the largest threshold
    of each coordinate, answers every query (several may share a class) and
    every coordinate subset at once.  Each batch takes one pass per query
    rank j: every point is tallied at query j of its class's run, if the
    run has one, and only where it lies below that query's threshold on
    some coordinate, so a row depends only on its query and entry beta = 0
    holds 0.  Rows are in query order.
    """
    n, d = g.n, g.det
    keys = np.array([k for k, _ in queries], dtype=np.int64)
    # queries of one class let the enumeration skip the other classes
    target = tuple(keys[0].tolist()) if (keys == keys[0]).all() else None
    batches = _walk(g, [t for _, t in queries], target)
    thr = np.array([t for _, t in queries], dtype=np.int64)
    # lexicographic order, first coordinate most significant, so the queries
    # of one class form one run [lo, hi)
    order = np.lexsort(keys.T[::-1])
    keys, thr = keys[order], thr[order]
    if d ** n < 2 ** 62:
        # radix code of a class, most significant coordinate first, so the
        # sorted keys have nondecreasing codes
        pow_vec = np.array([d ** (n - 1 - i) for i in range(n)], dtype=np.int64)
        codes = keys @ pow_vec
        ends = np.searchsorted(codes, codes, "right")

        def runs_of(mods):
            enc = mods @ pow_vec
            lo = np.minimum(np.searchsorted(codes, enc), len(keys) - 1)
            return lo, np.where(codes[lo] == enc, ends[lo], lo)
    else:
        # the radix code would overflow int64: one lookup per distinct class
        first = np.flatnonzero(np.r_[True, (keys[1:] != keys[:-1]).any(axis=1)])
        run_of = {tuple(keys[a].tolist()): (a, b)
                  for a, b in zip(first, np.r_[first[1:], len(keys)])}

        def runs_of(mods):
            perm = np.lexsort(mods.T)
            rows = mods[perm]
            new = np.r_[True, (rows[1:] != rows[:-1]).any(axis=1)]
            runs = [run_of.get(tuple(k), (0, 0)) for k in rows[new].tolist()]
            out = np.empty((len(mods), 2), dtype=np.int64)
            out[perm] = np.array(runs, dtype=np.int64)[np.cumsum(new) - 1]
            return out.T

    width = 1 << n
    acc = np.zeros(len(keys) * width, dtype=np.int64)
    weights = 1 << np.arange(n, dtype=np.int64)
    last = len(keys) - 1
    for coords, z in batches:
        lo, hi = runs_of(coords % d)
        # pass j tallies every point at query j of its class's run, where
        # the run has one and the point lies below it somewhere; a point of
        # an unqueried class has an empty run
        for j in range(int((hi - lo).max(initial=0))):
            rows = lo + j
            beta = (coords < thr[np.minimum(rows, last)]) @ weights
            sel = (rows < hi) & (beta != 0)
            np.add.at(acc, rows[sel] * width + beta[sel], z[sel])
    out = np.empty((len(keys), width), dtype=np.int64)
    out[order] = acc.reshape(len(keys), width)
    return out


def _masked_sums(hist, subset, keep):
    """Sums of a histogram row, or of each row of an array (then a list), over
    the beta with keep(beta & mask, mask), mask the bits of subset."""
    mask = sum(1 << w for w in set(subset))
    return hist[..., keep(np.arange(hist.shape[-1]) & mask, mask)].sum(axis=-1).tolist()


def hist_not_ge(hist, subset):
    """Counting-function values from histogram rows: beta meets subset."""
    return _masked_sums(hist, subset, lambda met, mask: met != 0)


def hist_all_lt(hist, subset):
    """Modified counting values from histogram rows: beta contains subset."""
    return _masked_sums(hist, subset, lambda met, mask: met == mask)


# -- public counting interface ------------------------------------------------


def counting(g: PlumbingGraph, mode: str, x: LatticeVector, subset=()) -> int:
    """Exact counting-function value; the summation class is the class of x.

    full:     sum over [l'] = [x], l' not >= x
    reduced:  sum over [l'] = [x], l'|_I not >= x|_I
    modified: sum over [l'] = [x], l'|_J < x|_J in every coordinate of J

    subset is the coordinate set I or J of the reduced and modified modes;
    the full mode ignores it.
    """
    thr = g.scaled_of(x)
    if not x.in_dual_lattice():
        raise NotInDualLattice("threshold is not in the dual lattice")
    if mode == "full":
        subset = tuple(range(g.n))
    elif mode in ("reduced", "modified"):
        subset = g.vertices(subset)
        if not subset:
            raise InfeasibleQuery("%s mode needs a nonempty coordinate subset" % mode)
    else:
        raise InfeasibleQuery("unknown mode %r" % mode)
    if mode == "modified" and any(thr[w] <= 0 for w in subset):
        return 0

    # a zero threshold outside the subset sets no bit there and adds nothing
    # to the enumeration envelope
    cut = [thr[w] if w in subset else 0 for w in range(g.n)]
    hist = single_histogram(g, g.class_key(x), cut)
    if mode == "modified":
        return hist_all_lt(hist, subset)
    return hist_not_ge(hist, subset)


# -- one-variable counting table ----------------------------------------------


class UnivariateTable:
    """Counting function of the series reduced to one coordinate, all classes.

    A knapsack-style exact DP over vertices: state is (scaled coordinate
    value at v, class).  Geometric factors (valency <= 1) are cumulative
    passes; node factors are short alternating sums.  Values are partial
    coefficient sums, queried via the cumulative table.
    """

    def __init__(self, g: PlumbingGraph, v: int, gamma_max: int):
        tbl = g.classes()
        d_h = tbl.order
        m = [g.dual_scaled[u][v] for u in range(g.n)]
        self.g0 = math.gcd(*m)
        steps = [mu // self.g0 for mu in m]
        S = max(1, (gamma_max - 1) // self.g0 + 1)
        if S * d_h > 80_000_000:
            raise PlumbingError("univariate table too large (%d cells)" % (S * d_h))
        self.S = S
        self.reach = S * self.g0              # queries valid for gamma <= reach

        # class-subtraction permutations per generator
        keymap = tbl.index
        d = g.det
        subs = []
        for u in range(g.n):
            gen = tuple(c % d for c in g.dual_scaled[u])
            perm = np.empty(d_h, dtype=np.int64)
            for key, idx in keymap.items():
                prev = tuple((a - b) % d for a, b in zip(key, gen))
                perm[idx] = keymap[prev]
            subs.append(perm)

        T = np.zeros((S, d_h), dtype=np.int64)
        zero_idx = keymap[tuple([0] * g.n)]
        T[0, zero_idx] = 1
        for u in range(g.n):
            du = g.delta[u]
            w = steps[u]
            if du == 2:
                continue
            if du >= 3:
                # (1 - x)^(du - 2), x = t^w times the class subtraction, in
                # du - 2 passes of T -= x T: the gather copies the rows it
                # reads, so each pass reads T as it was before the pass
                for _ in range(du - 2 if w < S else 0):
                    T[w:] -= T[: S - w][:, subs[u]]
            else:
                passes = 2 - du
                for _ in range(passes):
                    perm = subs[u]
                    for s in range(w, S):
                        T[s] += T[s - w][perm]
        self.cum = np.cumsum(T, axis=0, out=T)
        self.class_index = keymap

    def value(self, class_key, gamma_scaled) -> int:
        """Sum of coefficients of the class with v-coordinate < gamma."""
        if gamma_scaled <= 0:
            return 0
        s_max = (gamma_scaled - 1) // self.g0
        if s_max >= self.S:
            raise PlumbingError("query beyond table depth")
        return int(self.cum[s_max, self.class_index[tuple(class_key)]])


# -- reduced-series support bound ---------------------------------------------


@dataclass
class SupportBoundReport:
    subgraph: tuple
    checked: int
    boundary_checked: tuple
    boundary_skipped: tuple


def support_bound_report(g: PlumbingGraph, v2, x: LatticeVector) -> SupportBoundReport:
    """Verify the degree bound on the support of the reduced series below x.

    Sums the coefficients over each fiber of the projection onto the
    connected full subgraph on v2 whose coordinates on v2 all lie below
    x's.  The walk below x on v2 yields every point of such a fiber, so
    each fiber is complete.  Checks that every nonzero one decomposes
    uniquely and nonnegatively over the restricted dual basis, with the
    boundary-degree bound at boundary vertices whose inner valency is at
    least 2.
    """
    v2 = list(g.vertices(v2))
    if not v2 or connected_closure(g, v2) != v2:
        raise PlumbingError("v2 must induce a connected full subgraph")
    n = g.n
    outside = [v for v in range(n) if v not in set(v2)]
    boundary = [u for u in v2 if any(w in set(outside) for w in g.adj[u])]
    delta2 = {u: sum(1 for w in g.adj[u] if w in set(v2)) for u in boundary}

    # coefficient sums of the walked points below x on all of v2, by projection
    xs = g.scaled_of(x)
    batches = _walk(g, [[xs[w] if w in v2 else 0 for w in range(n)]])
    top = np.array([xs[w] for w in v2], dtype=np.int64)
    fibers = {}
    for coords, z in batches:
        proj = coords[:, v2]
        below = (proj < top).all(axis=1)
        for key, zv in zip(map(tuple, proj[below].tolist()), z[below].tolist()):
            fibers[key] = fibers.get(key, 0) + zv
    cols = g.dual_scaled

    # restricted dual-basis matrix, d-scaled: columns d E*_v|_{v2}, v in v2.
    # It is a principal block of d (-I)^{-1}, so positive definite.
    minors, adj2 = _bareiss([[cols[v][w] for v in v2] for w in v2])
    if adj2 is None:
        raise BoundViolation("restricted dual basis is not positive definite on %s" % (v2,))
    det2 = minors[-1]

    comps = g.components_minus(v2)
    v1 = {}
    for u in boundary:
        members = {u}
        for comp, origin in comps:
            if any(pu in g.adj[u] for pu in origin):
                members.update(origin)
        v1[u] = sorted(members)

    checked = 0
    gates_checked, gates_skipped = [], []
    for u in boundary:
        if delta2[u] >= 2:
            gates_checked.append(g.ids[u])
        else:
            gates_skipped.append(g.ids[u])

    for proj, zsum in sorted(fibers.items()):
        if zsum == 0:
            continue
        # decomposition coefficients r = (d M2)^{-1} proj = r_num / det2
        r_num = [sum(a * p for a, p in zip(row, proj)) for row in adj2]
        if any(c < 0 for c in r_num):
            raise BoundViolation("negative dual decomposition at %s" % (proj,))
        for j, u in enumerate(v2):
            if u not in delta2 or delta2[u] < 2:
                continue
            # r_j (E*_u)_u > sum (delta_w - 2) (E*_w)_u, both sides times d det2
            lhs = r_num[j] * cols[u][u]
            rhs_bound = det2 * sum((g.delta[w] - 2) * cols[w][u] for w in v1[u])
            if lhs > rhs_bound:
                raise BoundViolation(
                    "degree bound fails at %s for support point %s" % (g.ids[u], proj)
                )
        checked += 1
    return SupportBoundReport(
        subgraph=tuple(g.ids[v] for v in v2),
        checked=checked,
        boundary_checked=tuple(gates_checked),
        boundary_skipped=tuple(gates_skipped),
    )

