"""From a quasi-isometry certificate to a transversal of the family.

The pipeline: any map from the quotient tree back into the doubled-edge
graph that verifies as an n-quasi-isometry can be distilled, by pruning
the tree and reading off where a frontier of deep vertices lands, into a
choice of exactly one element from each member set.  The extraction is
deterministic, so hostile but honest section maps still produce valid
transversals.

Run: python3 demos/demo_choice_extraction.py   (about 1 second)
"""

import time

from coarsegeom import (
    SetFamily,
    Vertex,
    build_gamma0,
    build_gamma1,
    extract_choice,
    level_of,
    pruning_rounds,
    required_gamma0_depth,
    section_map,
    verify_transversal,
)

family = SetFamily.of_lists([["a", "b"], ["c"], ["d", "e", "f"]])
print("family:", ", ".join(f"{s.name}={set(s.elements)}" for s in family.sets))

n = 4
k = pruning_rounds(n)
depth = required_gamma0_depth(n)
print(f"constant n={n}: {k} pruning rounds, truncation depth >= {depth}")

t0 = time.monotonic()
g0 = build_gamma0(family, depth)
g1 = build_gamma1(family, depth)
print(f"built both graphs ({g0.graph.n_vertices} + {g1.n_vertices} vertices, "
      f"{time.monotonic() - t0:.1f}s)")

for mode, seed in (("first", None), ("alternating", None), ("seeded", 271)):
    t0 = time.monotonic()
    m = section_map(g0, mode=mode, seed=seed, g1=g1)
    cert = extract_choice(m, g0, n)
    name = mode if seed is None else f"{mode}({seed})"
    print(f"\nsection '{name}'  [{time.monotonic() - t0:.1f}s]")
    print(f"  verified as {cert.constant}-quasi-isometry, "
          f"pruned {cert.rounds} rounds from root {cert.root}")
    for (set_name, w), (_, elem) in zip(cert.arm_assignment, cert.h_values):
        lev = level_of(g0, m.image_of(Vertex(w)))
        print(f"  frontier vertex {w} (arm {set_name}) lands at level {lev} "
              f"-> element {elem!r}")
    print(f"  transversal {list(cert.transversal)} valid:",
          verify_transversal(cert.transversal, family))
