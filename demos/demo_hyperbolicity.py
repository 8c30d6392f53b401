"""Measure how far from tree-like a graph is, three different ways.

Slim triangles: in a tree every geodesic triangle is degenerate, so each
side stays at distance 0 from the other two; cycles fatten triangles in
proportion to their girth; the doubled-edge graphs stay 2-thin no matter
how deep they grow.  Bottlenecks and ball-deletion separation give two
independent confirmations of that tree-likeness.

Run: python3 demos/demo_hyperbolicity.py
"""

from fractions import Fraction

from coarsegeom import (
    LabeledMetricGraph,
    SetFamily,
    Vertex,
    build_gamma0,
    certify_two_hyperbolic_gamma0,
    is_separated,
    midpoint,
    slim_triangle_delta,
    verify_bottleneck,
)


def cycle(n):
    return LabeledMetricGraph(
        range(n), [(i, i, (i + 1) % n, 1) for i in range(n)]
    )


print("slim-triangle thinness (exact rationals):")
for n in (6, 8, 12):
    rep = slim_triangle_delta(cycle(n))
    print(f"  {n}-cycle: delta <= {rep.delta_upper_observed} "
          f"({rep.triples_checked} triples)")

tree = LabeledMetricGraph(
    range(7),
    [(0, 0, 1, Fraction(3, 2)), (1, 1, 2, 1), (2, 1, 3, Fraction(1, 2)),
     (3, 0, 4, 2), (4, 4, 5, 1), (5, 4, 6, 1)],
)
print("  a tree:", slim_triangle_delta(tree).delta_upper_observed)

family = SetFamily.of_lists([["a", "b"], ["c"]])
g0 = build_gamma0(family, 8)
rep = slim_triangle_delta(g0.graph, mode="sampled", seed=1, count=300)
print(f"  doubled-edge graph, depth 8, 300 sampled triples: "
      f"delta <= {rep.delta_upper_observed}")

print("\nbottleneck property at thinness 3 (ball radius 2):")
rep = verify_bottleneck(g0.graph, 3, mode="sampled", seed=2, count=150)
print(f"  doubled-edge graph: accepted={rep.accepted} "
      f"over {rep.pairs_checked} pairs")
rep = verify_bottleneck(cycle(24), 3)
w = rep.witness
print(f"  24-cycle: accepted={rep.accepted}")
print(f"    witness pair x={w.x} y={w.y}: the path {list(w.avoiding_path)}")
print(f"    swings {w.distance} away from the midpoint {w.probe}")

print("\nseparation by deleting a ball around a geodesic's middle:")
x = Vertex(g0.vertex_of("a", 7))
y = Vertex(g0.vertex_of("c", 7))
mid = midpoint(g0.graph, x, y)
print(f"  x=a@7, y=c@7, middle of a geodesic between them: {mid}")
print(f"  deleting the radius-2 ball there parts x from y:",
      is_separated(g0.graph, x, y, mid, 2))
print(f"  (the 24-cycle never separates: ",
      is_separated(cycle(24), Vertex(0), Vertex(12), Vertex(6), 2), ")",
      sep="")

cert = certify_two_hyperbolic_gamma0(g0, seed=3, count=80)
print(f"\nsampled separation certificate: accepted={cert.accepted}, "
      f"{cert.pairs_checked} pairs, {cert.probes_checked} probes")
