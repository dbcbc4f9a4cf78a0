"""Walk through the lattice apparatus of a plumbing tree.

Builds the two showcase trees, prints their dual bases, discriminant
groups, canonical cycles and distinguished class representatives, and
reproduces the restriction values of their showcase classes.
"""

from fractions import Fraction

from plumbsw import (
    class_of,
    dual_restrict,
    fixtures,
    is_rational,
    minimal_s_rep,
)


def show(title):
    print()
    print("=" * 8, title, "=" * 8)


def main():
    show("two-node tree: -2 spine with four -4 leaves")
    g = fixtures.showcase_two_nodes()
    print("vertices:", g.ids)
    print("det(-I) =", g.det, " (order of the discriminant group)")
    print("canonical cycle K:", [str(c) for c in g.K.coords])
    print("numerically Gorenstein:", g.numerically_gorenstein, "  rational:", is_rational(g))
    print("dual basis column of the middle vertex:",
          [str(c) for c in g.dual_vector(1).coords])

    tbl = g.classes()
    print("class count:", len(tbl))
    rep = g.vector(fixtures.SHOWCASE_TWO_NODES_CLASS)
    print("showcase class:", [str(c) for c in rep.coords],
          "in table:", g.class_key(rep) in tbl.index)

    middle_only = [v for v in range(g.n) if v != 1]
    comp, origin = next(iter(g.components_minus(middle_only)))
    y = dual_restrict(rep, comp, origin)
    print("restriction of the showcase class to the middle vertex:",
          [str(c) for c in y.coords], " (expected -1/2)")

    show("star: -3 center with four -2 leaves")
    g2 = fixtures.showcase_star()
    print("det(-I) =", g2.det, "  rational:", is_rational(g2))
    rep2 = g2.vector(fixtures.SHOWCASE_STAR_CLASS)
    comp, origin = next(iter(g2.components_minus((1, 2, 3, 4))))
    y2 = dual_restrict(rep2, comp, origin)
    print("restriction of the showcase class to the center:",
          [str(c) for c in y2.coords], " (expected -2/3)")
    print("its cube representative:", [str(c) for c in class_of(y2).coords],
          " (expected 1/3)")

    s, delta = minimal_s_rep(g2, rep2)
    print("minimal cone representative of the showcase class:",
          [str(c) for c in s.coords], " offset:", [str(c) for c in delta.coords])


if __name__ == "__main__":
    main()
