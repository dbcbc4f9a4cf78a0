"""Weighted-cube formulas: an independent route to the same invariants.

For numerically Gorenstein trees the coefficients, the normalized
invariant and the reduced periodic constants all have closed expressions
as alternating sums of chi-weighted lattice cubes inside the rectangle
spanned by 0 and the anticanonical cycle.  Nothing here touches the
series enumeration, which is exactly what makes these sums useful as an
oracle against it.

One kernel, `_cube_sums`, evaluates every rectangle sum on an
n-dimensional int64 grid of chi values over the box [0, hi].  It visits
the direction sets J depth first and builds the weight grid of J + v
(max of chi over the cube at each base) from that of J by one elementwise
maximum of two shifted views: 2^n array maxima per pass instead of 3^n
shifted slices, with at most n + 1 weight grids alive at a time.  A
direction set whose base range is empty for every query is pruned with all
its supersets.  The signed weight grids add up into one grid whose suffix
sums answer a whole batch of (lo, skipped top faces) queries, so all 2^n
face sums of the anticanonical rectangle, or all 2^|I| - 1 skip terms of an
inclusion-exclusion, cost one pass.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from .errors import (
    InternalDisagreement,
    MethodPreconditionFailed,
    NotGorenstein,
    SubsetCapExceeded,
)
from .graph import LatticeVector, PlumbingGraph
from . import series
from .sw import _nonempty, quad_term, sw_invariant

SUBSET_SWEEP_CAP = 12


def _ints(g: PlumbingGraph, x: LatticeVector):
    """Integer E-coordinates of x, an integral vector of g."""
    s = g.scaled_of(x)
    if any(c % g.det for c in s):
        raise MethodPreconditionFailed("cube sums need an integral exponent")
    return [c // g.det for c in s]


def _subset_bits(k):
    """Row j holds the k bits of j: every subset of k directions once."""
    return (np.arange(1 << k)[:, None] >> np.arange(k)) & 1


def _chi(g, pts):
    """chi(x) = -(x, x + K)/2 at each row x of pts, an int64 array of integer
    E-coordinates; it must be integral.  (K, E_v) is read from g.kpair at
    every call."""
    kp = np.array(g.kpair, dtype=np.int64)
    two_chi = -(np.einsum("ij,jk,ik->i", pts, g.int_arrays(np.int64)[0], pts) + pts @ kp)
    if (two_chi & 1).any():
        raise InternalDisagreement("chi not integral on integral points")
    return two_chi // 2


def _corner_data(g):
    """Per-graph constants of coefficient_via_cubes: the 2^n corners of the
    unit cube (row j has the bits of j), chi of each corner and the sign
    (-1)^(|J|+1) of each direction set."""
    key = "cube_corners"
    if key not in g._cache:
        corners = _subset_bits(g.n)
        signs = np.where(corners.sum(axis=1) % 2 == 1, 1, -1)
        g._cache[key] = (corners, _chi(g, corners), signs)
    return g._cache[key]


def coefficient_via_cubes(g: PlumbingGraph, l: LatticeVector) -> int:
    """Series coefficient of an integral exponent as an alternating cube sum.

    w(l, J) for all J at once: chi on the 2^n corners of the unit cube at
    l, then a subset-max transform.
    """
    x = np.array(_ints(g, l), dtype=np.int64)
    corners, chi_corners, signs = _corner_data(g)
    # chi(x + c) - chi(x) = chi(c) - (x, c); the constant chi(x) drops out of
    # the maxima and then of the signed sum, whose signs add up to 0
    w = (chi_corners - corners @ (g.int_arrays(np.int64)[0] @ x)).reshape([2] * g.n)
    for axis in range(g.n):
        np.maximum.accumulate(w, axis=axis, out=w)
    return int(signs @ w.reshape(-1))


def swbar(g: PlumbingGraph) -> Fraction:
    """-sw(trivial class) - (K^2 + |V|)/8, measured by counting."""
    return -sw_invariant(g, (0,) * g.n).sw - quad_term(g, g.zero())


def swbar_forest(forest) -> Fraction:
    return sum((swbar(comp) for comp, _ in forest), Fraction(0))


# -- grid machinery -------------------------------------------------------------


def _chi_box(g: PlumbingGraph, hi):
    """chi over the integer box [0, hi] as an n-dimensional int64 grid."""
    key = ("chibox", tuple(hi))
    if key in g._cache:
        return g._cache[key]
    axes = [np.arange(h + 1, dtype=np.int64) for h in hi]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.reshape(-1) for m in mesh], axis=1)
    grid = _chi(g, pts).reshape([h + 1 for h in hi])
    g._cache[key] = grid
    return grid


def _box_sums(a, lo, skip):
    """Per query row: the sum of a over the bases l >= lo, one short of the
    top on every skipped axis.  The skipped top layers come off the suffix
    sums of a by inclusion-exclusion."""
    n = a.ndim
    rev = (slice(None, None, -1),) * n
    s = a[rev]
    for axis in range(n):
        s = np.add.accumulate(s, axis=axis)
    s = s[rev]                               # s[l] = sum of a over [l, top]
    cut = [v for v in range(n) if skip[:, v].any()]
    on = _subset_bits(len(cut)).astype(bool)
    idx = np.broadcast_to(lo, (len(on),) + lo.shape).copy()
    factor = np.ones(idx.shape[:2], dtype=np.int64)
    for i, v in enumerate(cut):
        # corner at the top layer of v: subtracted where v is skipped, else unused
        idx[on[:, i], :, v] = a.shape[v] - 1
        factor[on[:, i]] *= -skip[:, v]
    return (factor * s[tuple(np.moveaxis(idx, -1, 0))]).sum(axis=0)


def _add_weights(acc, w, live, start, sign, room, shifts):
    """Add sign * W_J to acc at the bases of W_J, then recurse depth first
    into every J + v with v >= start that some live query has room for."""
    view = acc[tuple(map(slice, w.shape))]
    if sign > 0:
        view += w
    else:
        view -= w
    for v in range(start, w.ndim):
        nxt = live[room[live, v]]
        if nxt.size:
            # the cube (l, J + v) is the cubes (l, J) and (l + E_v, J)
            keep, step = shifts[v]
            _add_weights(acc, np.maximum(w[keep], w[step]), nxt, v + 1, -sign, room, shifts)


def _cube_sums(g: PlumbingGraph, hi, queries):
    """Alternating weighted-cube sums over R(lo, hi), one per query.

    queries: (lo, skip_faces) pairs with lo >= 0.  Each sum runs over the
    cubes (l, J) with lo <= l and l + E_J <= hi, signed (-1)^(|J|+1) and
    weighted by the max of chi over their vertices; skip_faces drops every
    cube sitting inside the top face l_v = hi_v of one of the listed
    coordinates (the modified-counting variant).  Returns a list of ints.

    The signed weight grids W_J are summed into one grid over [0, hi], W_J
    at the bases l with l + E_J <= hi: a cube (l, J) with v in J never
    sits in the top face of v, and zero-padding W_J there keeps both the
    query boxes and the skipped faces the same for every J.
    """
    n = g.n
    hi = [int(h) for h in hi]
    hi_arr = np.array(hi, dtype=np.int64)
    lo = np.array([[int(c) for c in q[0]] for q in queries], dtype=np.int64).reshape(-1, n)
    skip = np.zeros(lo.shape, dtype=np.int64)
    for i, (_lo, faces) in enumerate(queries):
        skip[i, list(faces)] = 1
    totals = np.zeros(len(queries), dtype=np.int64)
    # a query lying in a face it skips is empty: leave it out of the pass
    live = np.flatnonzero((lo <= hi_arr - skip).all(axis=1))
    if not live.size:
        return totals.tolist()
    room = lo < hi_arr                       # base range survives a step along v
    shifts = [tuple(tuple(cut if a == v else slice(None) for a in range(n))
                    for cut in (slice(None, -1), slice(1, None)))
              for v in range(n)]
    grid = _chi_box(g, hi)
    acc = np.zeros_like(grid)
    _add_weights(acc, grid, live, 0, -1, room, shifts)
    totals[live] = _box_sums(acc, lo[live], skip[live])
    return totals.tolist()


def swbar_via_cubes(g: PlumbingGraph, b: LatticeVector) -> Fraction:
    """Cube-sum expression of the normalized trivial-class invariant.

    Requires an integral anticanonical cycle and any integral b above it;
    the value does not depend on the choice of b.
    """
    if not g.numerically_gorenstein:
        raise NotGorenstein("anticanonical cycle is not integral")
    if not (b.is_integral() and b >= g.ZK):
        raise NotGorenstein("bound must be an integral cycle above the anticanonical one")
    return Fraction(_cube_sums(g, _ints(g, b), [([0] * g.n, ())])[0])


def _swbar_cube_faces(g: PlumbingGraph):
    """Cube-sum value of every induced subgraph, as rectangle-face sums,
    with its subset Moebius transform (None above the sweep cap).

    Entry for a subset S of vertices is the invariant sum of the subgraph
    on S, computed inside the big rectangle: bases run over the face where
    the deleted coordinates are pinned to the anticanonical value.
    """
    key = "swbar_cube_faces"
    if key not in g._cache:
        zk = _ints(g, g.ZK)
        faces = _cube_sums(g, zk, [
            ([0 if mask >> v & 1 else zk[v] for v in range(g.n)], ())
            for mask in range(1 << g.n)])
        mob = _mobius(faces, g.n) if g.n <= SUBSET_SWEEP_CAP else None
        g._cache[key] = (faces, mob)
    return g._cache[key]


def gorenstein_pc(g: PlumbingGraph, subset) -> Fraction:
    """Reduced periodic constant of the trivial class, three independent ways.

    (a) the counting function of the series at the anticanonical cycle,
    (b) inclusion-exclusion over modified cube sums,
    (c) the difference of whole-graph and deleted-graph cube invariants,
        re-derived through the subgraph Moebius transform.
    All three must agree exactly.
    """
    if not g.numerically_gorenstein:
        raise NotGorenstein("anticanonical cycle is not integral")
    subset = _nonempty(g, subset)
    zk = _ints(g, g.ZK)

    via_series = series.counting(g, "reduced", g.ZK, subset)

    skips = [J for r in range(1, len(subset) + 1)
             for J in itertools.combinations(subset, r)]
    sums = _cube_sums(g, zk, [([0] * g.n, J) for J in skips])
    via_cubes = sum((-1) ** (len(J) + 1) * s for J, s in zip(skips, sums))

    faces, mob = _swbar_cube_faces(g)
    rest_mask = sum(1 << v for v in range(g.n) if v not in subset)
    via_chain = faces[-1] - faces[rest_mask]

    # Moebius route: s(S) = sum_{T subset S} (-1)^{|S - T|} swbar(T); the chain
    # value must reappear as the sum of s over subsets meeting the deleted set
    if mob is not None:
        via_mobius = sum(mob[m] for m in range(1 << g.n) if m & ~rest_mask)
        if via_mobius != via_chain:
            raise InternalDisagreement(
                "moebius chain %s vs face difference %s" % (via_mobius, via_chain)
            )

    if not (Fraction(via_series) == Fraction(via_cubes) == via_chain):
        raise InternalDisagreement(
            "series %s, cubes %s, chain %s disagree on subset %s"
            % (via_series, via_cubes, via_chain, subset)
        )
    return Fraction(via_series)


def _mobius(vals, n):
    """Subset Moebius transform: out[S] = sum_{T <= S} (-1)^{|S-T|} vals[T]."""
    out = list(vals)
    for v in range(n):
        bit = 1 << v
        for m in range(1 << n):
            if m & bit:
                out[m] = out[m] - out[m ^ bit]
    return out


def s_function(g: PlumbingGraph, cap: int = SUBSET_SWEEP_CAP) -> dict:
    """The unique function on induced subgraphs whose subset sums give swbar.

    Returns {vertex mask: value} over every induced subgraph; the whole
    graph sits at mask 2^n - 1.  Computed by the defining recursion over
    all induced subgraphs (with counting-measured invariants), then
    cross-checked against the Moebius expansion; the re-summation to the
    whole-graph value and vanishing on disconnected subgraphs are checked
    along the way.
    """
    if g.n > cap:
        raise SubsetCapExceeded("%d vertices exceed the %d-vertex sweep cap" % (g.n, cap))
    n = g.n
    sw_sub = []
    disconnected = []
    for mask in range(1 << n):
        forest = g.components_minus([v for v in range(n) if not mask >> v & 1])
        sw_sub.append(swbar_forest(forest))
        if len(forest) >= 2:
            disconnected.append(mask)
    # defining recursion, independently of the transform
    s_rec = {}
    for mask in range(1 << n):
        sub = (mask - 1) & mask
        acc = Fraction(0)
        while sub:
            acc += s_rec[sub]
            sub = (sub - 1) & mask
        s_rec[mask] = sw_sub[mask] - acc
    if sum(s_rec.values(), Fraction(0)) != sw_sub[-1]:
        raise InternalDisagreement("subgraph values do not re-sum to the whole graph")
    mob = _mobius(sw_sub, n)
    for mask in range(1 << n):
        if s_rec[mask] != mob[mask]:
            raise InternalDisagreement("Moebius and recursive values differ at %d" % mask)
    for mask in disconnected:
        if s_rec[mask] != 0:
            raise InternalDisagreement("nonzero value on a disconnected subgraph")
    return s_rec
