"""The weighted-cube pipeline as a second opinion on the series pipeline.

On trees with an integral anticanonical cycle, coefficients and normalized
invariants have closed expressions as alternating sums of chi-weighted
cubes in the anticanonical rectangle.  None of it touches the series
enumeration, so exact agreement is a genuine cross-check.
"""

import itertools

from plumbsw import (
    coefficient,
    coefficient_via_cubes,
    fixtures,
    gorenstein_pc,
    s_function,
    swbar,
    swbar_via_cubes,
)


def main():
    g = fixtures.gorenstein_star()
    print("star: -3 center with five -2 leaves")
    print("anticanonical cycle:", [str(c) for c in g.ZK.coords],
          " integral:", g.numerically_gorenstein)

    print()
    print("coefficients, series vs cubes, on the anticanonical box:")
    hi = [int(c) for c in g.ZK.coords]
    mismatches = 0
    shown = 0
    for pt in itertools.product(*[range(h + 1) for h in hi]):
        l = g.vector(pt)
        a, b = coefficient(g, l), coefficient_via_cubes(g, l)
        mismatches += a != b
        if a and shown < 6:
            print("   z%s = %d = %d" % (pt, a, b))
            shown += 1
    print("   mismatches over the box:", mismatches)

    print()
    v1 = swbar_via_cubes(g, g.ZK)
    v2 = swbar_via_cubes(g, g.ZK + g.vector([1] * g.n))
    print("normalized invariant by cubes:", v1,
          " with a larger bound:", v2, " by counting:", swbar(g))

    print()
    print("reduced periodic constants, three independent routes per subset:")
    for subset in [(0,), (1,), (1, 2), (0, 1, 2), tuple(range(g.n))]:
        val = gorenstein_pc(g, subset)
        print("   subset %-18s pc = %s" % ([g.ids[v] for v in subset], val))

    print()
    print("subgraph decomposition function, whole tree:", s_function(g)[(1 << g.n) - 1])
    e8 = fixtures.ade_graph("E8")
    print("same on the unimodular -2 tree:", s_function(e8)[(1 << e8.n) - 1],
          "(everything vanishes)")


if __name__ == "__main__":
    main()
