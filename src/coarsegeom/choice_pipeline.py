"""Recovering a choice of one element per member set from coarse data.

Given a quasi-isometry from a finite tree onto the doubled-edge graph of a
family, the pipeline prunes the tree, locates a root vertex mapping near
the base, reads off the frontier of vertices at tree distance exactly 2K
from the root, and decodes from each frontier image which element its arm
singles out.  With the constant at least 4 and the graph deep enough the
decoded elements form a transversal of the family: one element per set.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import lcm

from .coarse_maps import QuasiMap, _distance_rows, _picked, _require_int, verify_quasi_isometry
from .errors import (
    ArmCollision,
    ConstantTooSmall,
    DepthError,
    GraphMismatch,
    LabelError,
    NotQuasiIsometry,
    UnknownElement,
)
from .gamma_spaces import (
    GammaZeroGraph,
    _is_gamma1,
    _layout_of,
    build_gamma1,
    gamma1_edge_id,
    gamma1_vertex_id,
)
from .metric_graph import _net_rows, _scaled_rows
from .tree_ops import _prune_rounds, assert_tree


def pruning_rounds(n: int) -> int:
    """How many leaf-pruning rounds the extraction uses: K = 7 n^2."""
    return 7 * n * n


def required_gamma0_depth(n: int) -> int:
    """Smallest truncation depth the extraction is guaranteed to work at."""
    k = pruning_rounds(n)
    return 2 * k * n + 2 * n * n + 4 * n


@dataclass(frozen=True)
class ChoiceCertificate:
    constant: int
    rounds: int
    root: int
    frontier: tuple  # vertex ids at tree distance exactly 2K from the root
    arm_assignment: tuple  # (set name, frontier vertex) pairs, family order
    h_values: tuple  # (frontier vertex, element) pairs, frontier order
    transversal: tuple  # one element name per set, family order
    verified: bool

    def choice(self):
        return {name: elem
                for (name, _), elem in zip(self.arm_assignment, self.transversal)}


def extract_choice(m: QuasiMap, g0: GammaZeroGraph, n: int) -> ChoiceCertificate:
    """Run the full extraction and certify the resulting transversal.

    Preconditions are checked in order: the constant (an int >= 4), the
    domain being a tree, the target graph, the truncation depth, then that
    m is an n-quasi-isometry on the tree's vertices (edge images unchecked).
    Pruning marks the tree's survivors, whose distances are the tree's own,
    without copying it.  Each frontier image is read once: its level from
    the distance to the base that the root search found, its element from
    the graph's layout (a vertex names itself, an edge point the end its
    edge is labeled with)."""
    _require_int(n)
    if n < 4:
        raise ConstantTooSmall(f"extraction needs a constant >= 4, got {n}")
    assert_tree(m.source)
    if not m.target.same_structure(g0.graph):
        raise GraphMismatch("map target is not the given doubled-edge graph")
    need = required_gamma0_depth(n)
    if g0.depth < need:
        raise DepthError(
            f"truncation depth {g0.depth} is below the required {need}"
        )
    cert = verify_quasi_isometry(m, n, mode="vertex-exhaustive")
    if not cert.accepted:
        raise NotQuasiIsometry(f"map fails the constant-{n} check: "
                               f"{cert.violations[0]}")
    k = pruning_rounds(n)
    tree = m.source
    alive, _ = _prune_rounds(tree, k)  # a subtree's vertices
    if not alive:
        raise DepthError(f"{k} pruning rounds emptied the domain tree")
    live = {e for e, u, v in zip(tree._eids, tree._eu, tree._ev) if u in alive and v in alive}
    src, tgt = m._src[0], m._tgt[0]
    kept = [r for r, (kind, i, _, _) in enumerate(src) if i in (live if kind else alive)]
    base = [(0, 0, 0, 1)], [1]  # the base vertex, as a side (see QuasiMap)
    unit, row = _distance_rows(g0.graph, base, _picked(m._tgt, kept))
    near = []
    images = {}  # vertex id -> (image kind, image id, its distance to the base)
    for r, d in zip(kept, row(0)):
        if not src[r][0]:
            images[src[r][1]] = *tgt[r][:2], d
        if d <= n * unit:
            near.append(r)
    # each near point's own vertex, or the ends of its edge within 1/2 of it
    near, needs = _picked(m._src, near)
    ks = lcm(*set(needs))
    near = {v for _, entries in _scaled_rows(tree, ks, near) for v, c in entries
            if 2 * c <= ks * tree._scale}
    if not near:
        raise DepthError("no surviving domain point maps within the constant "
                         "of the base")
    root = min(near)
    if images[root][2] > 3 * n * unit:
        raise NotQuasiIsometry(
            "root image strays beyond three constants from the base, which "
            f"an accepted constant-{n} certificate rules out"
        )

    row = tree._metric.search(((0, tree._index[root]),))  # uncached
    reach = 2 * k * tree._scale  # integer rows count in units of 1/L
    frontier = [u for u, d in zip(tree.vertex_ids(), row) if d == reach and u in alive]
    if not frontier:
        raise DepthError(f"no vertices at tree distance {2 * k} from the root")

    h_values = []
    owner = {}
    for u in frontier:
        img_kind, img, d = images[u]
        level = d // unit
        if level == 0:
            raise LabelError(f"frontier vertex {u} maps into the base region")
        if level < 10 * n:
            raise LabelError(
                f"frontier vertex {u} maps to level {level}, "
                f"below the guaranteed {10 * n}"
            )
        # above level 0 an edge joins two arms of one set, labeled by one end
        elem, si, _ = g0.info(g0.graph._elab[g0.graph._epos[img]] if img_kind else img)
        arm = g0.family.sets[si].name
        if arm in owner:
            raise ArmCollision(
                f"frontier vertices {owner[arm]} and {u} both land on "
                f"arm {arm!r}"
            )
        owner[arm] = u
        h_values.append((u, elem))
    chosen = dict(h_values)
    assignment = []
    transversal = []
    for s in g0.family.sets:
        u = owner.get(s.name)
        if u is None:
            raise DepthError(f"no frontier vertex lands on arm {s.name!r}")
        assignment.append((s.name, u))
        transversal.append(chosen[u])
    verified = (len(frontier) == len(g0.family.sets)
                and verify_transversal(transversal, g0.family))
    return ChoiceCertificate(
        constant=n,
        rounds=k,
        root=root,
        frontier=tuple(frontier),
        arm_assignment=tuple(assignment),
        h_values=tuple(h_values),
        transversal=tuple(transversal),
        verified=verified,
    )


def section_map(g0: GammaZeroGraph, mode="first", seed=None, g1=None) -> QuasiMap:
    """A right inverse of the collapse: lift each quotient-tree point back
    into the doubled-edge graph by choosing one element per (set, level).

    Modes: "first" always lifts through a set's first element;
    "alternating" cycles through the elements as the level grows;
    "seeded" draws the element at every (set, level) from a seeded RNG.
    A prebuilt quotient tree may be passed as g1 so repeated sections
    share one graph object; the tree build_gamma1 made for this family
    and depth is accepted without a second build.
    """
    rng = random.Random(seed if mode == "seeded" else 0)
    # the index of the element lifted at a level, among a set's k elements
    pick = {"first": lambda lev, k: 0,
            "alternating": lambda lev, k: (lev - 1) % k,
            "seeded": lambda lev, k: rng.randrange(k)}.get(mode)
    if pick is None:
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "seeded" and seed is None:
        raise ValueError("seeded mode needs a seed")
    depth = g0.depth
    if g1 is None:
        g1 = build_gamma1(g0.family, depth)
    elif not _is_gamma1(g1, g0.family, depth):
        raise GraphMismatch("supplied quotient tree does not match the family")
    layout = _layout_of(g0.graph, "gamma0")
    rows = []
    for si, s in enumerate(g0.family.sets):
        below = 0  # the lift one level down; level 0 is the base, no choice there
        for lev in range(1, depth + 1):
            v = layout.vertex(s.elements[pick(lev, len(s.elements))], lev)
            # _is_gamma1 holds, so g1's ids are gamma1_vertex_id's and gamma1_edge_id's
            rows.append((gamma1_vertex_id(depth, si, lev), gamma1_edge_id(depth, si, lev),
                         v, layout.up_edge(below, v)))
            below = v
    verts, edges, lifts, ups = zip(*rows)
    # the base to itself, then by id each vertex to its lift and each edge's
    # midpoint to the midpoint of the edge below the lift
    return QuasiMap._of_rows(g1, g0.graph, _net_rows((0, *verts), edges),
                             _net_rows((0, *lifts), ups), asserted_constant=2)


def verify_transversal(a, family) -> bool:
    """True iff the given element names hit every member set exactly once."""
    names = set(a)
    universe = set(family.all_elements())
    for x in sorted(names):
        if x not in universe:
            raise UnknownElement(f"unknown element {x!r}")
    return all(sum(e in names for e in s.elements) == 1 for s in family.sets)
