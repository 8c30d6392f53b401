"""Finite metric trees: leaf pruning with an audit trail, medians and
meets, and coarse inverses of quasi-isometries out of a tree, which take
one meet, one geodesic walk, per net point of the target."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .coarse_maps import (
    QiCertificate,
    QuasiMap,
    _distance_rows,
    _require_int,
    compose,
    minimal_qi_constant,
    surjectivity_radius,
    verify_quasi_isometry,
)
from .errors import EmptyPreimage, GraphMismatch, NotATree
from .metric_graph import (
    GraphPoint,
    LabeledMetricGraph,
    Vertex,
    _gate,
    _gated,
    _net_rows,
    _point_rows_of,
    _points_of,
    canonical_geodesic,
    distance,
    half_net,
    point_along,
)


def assert_tree(g: LabeledMetricGraph):
    """A nonempty connected graph with exactly |V| - 1 edges."""
    if g.n_vertices == 0:
        raise NotATree("graph has no vertices")
    if g.n_edges != g.n_vertices - 1:
        raise NotATree(
            f"{g.n_edges} edges on {g.n_vertices} vertices cannot be a tree"
        )
    if not g.is_connected():
        raise NotATree("graph is not connected")


@dataclass(frozen=True)
class PruneTrace:
    rounds_requested: int
    stages: tuple  # per round, the sorted ids removed together
    empty: bool

    @property
    def rounds_run(self):
        return len(self.stages)


def _prune_rounds(g: LabeledMetricGraph, k: int):
    """(alive, stages) of k rounds of leaf removal: the surviving vertex ids
    and, per round, the sorted ids removed at once (two leaves joined by an
    edge delete each other), stopping early once nothing has valence 1.
    On a tree the survivors span a subtree."""
    if k < 0:
        raise ValueError("round count must be >= 0")
    ids, ix = g._ids, g._index
    nbr = [[] for _ in ids]  # by index, a neighbor per edge end
    for u, v in zip(g._eu, g._ev):
        nbr[ix[u]].append(ix[v])
        nbr[ix[v]].append(ix[u])
    ends, dead = list(map(len, nbr)), set()  # live edge ends by index
    # a vertex first has valence 1 after a round that took one of its
    # neighbors, so each round's leaves are found among the last ones'
    leaves = [i for i, c in enumerate(ends) if c == 1]
    stages = []
    while leaves and len(stages) < k:
        dead.update(leaves)
        # a leaf's one live end is the edge it takes away
        touched = [w for v in leaves for w in nbr[v] if w not in dead]
        for w in touched:
            ends[w] -= 1
        stages.append(tuple(ids[v] for v in leaves))
        leaves = sorted({w for w in touched if ends[w] == 1})
    alive = {vid for i, vid in enumerate(ids) if i not in dead}
    return alive, tuple(stages)


def prune_k(g: LabeledMetricGraph, k: int):
    """Remove every valence-1 vertex, simultaneously, k times over, as
    _prune_rounds does: (new graph, trace), ids, labels, lengths and a
    surviving basepoint carried over."""
    alive, stages = _prune_rounds(g, k)
    vertices = [(vid, g.vertex_labels[vid]) for vid in sorted(alive)]
    fr = g._fractions()
    edges = [(eid, u, v, fr[ln], lab) for eid, u, v, ln, lab
             in zip(g._eids, g._eu, g._ev, g._elen, g._elab) if u in alive and v in alive]
    base = g.basepoint if g.basepoint in alive else None
    out = LabeledMetricGraph(vertices, edges, basepoint=base)
    return out, PruneTrace(k, stages, not alive)


def tree_median(g: LabeledMetricGraph, z: GraphPoint, a: GraphPoint, b: GraphPoint) -> GraphPoint:
    """The unique point lying on all three pairwise geodesics of a tree.

    Measured from z it sits (d(z,a) + d(z,b) - d(a,b)) / 2 of the way
    along the geodesic toward a.  One gate call checks z, a and b in order.
    """
    assert_tree(g)
    rows, needs = _gated(g, (z, a, b))
    return _meets(g, (rows[:1], needs[:1]), (rows[1:], needs[1:]))((0, 1))


def _meets(g, root, side):
    """meet(cloud), cloud a list of indices into side, root and side gated
    points of g as sides (see QuasiMap), root the one point z: where the
    paths from z to the cloud's points part ways in a tree.  That is on
    the geodesic from z to the first point y1, at the least Gromov product
    (y1|y)_z = (d(z,y1) + d(z,y) - d(y1,y)) / 2 over the cloud, where the
    fold of medians with root z lands in any order; z's integer row is
    read once, and each meet reads its first point's."""
    unit, row = _distance_rows(g, root, side)
    (z,), points = _points_of(root[0]), _points_of(side[0])
    from_z = row(0)

    def meet(cloud):
        first, *rest = cloud
        if not rest:
            return points[first]
        geo = canonical_geodesic(g, z, points[first])
        from_first = row(1 + first)
        s = min(from_z[i] - from_first[i] for i in rest)
        return point_along(g, geo, (geo.length + Fraction(s, unit)) / 2)

    return meet


def tree_meet(g: LabeledMetricGraph, x: GraphPoint, y: GraphPoint, base=None) -> GraphPoint:
    """Where the paths from the base to x and to y part ways."""
    if base is None:
        if g.basepoint is None:
            raise ValueError("graph has no basepoint and none was given")
        base = Vertex(g.basepoint)
    return tree_median(g, base, x, y)


@dataclass(frozen=True)
class QuasiInverseResult:
    map: QuasiMap
    minimal_constant: int
    bound: int
    certificate: QiCertificate


def quasi_inverse(f: QuasiMap, n: int, z: Optional[GraphPoint] = None) -> QuasiInverseResult:
    """A coarse inverse of an n-quasi-isometry out of a finite tree.

    Each half-net point x of the target collects the domain points whose
    image lies within n of x, read off one integer distance row per x
    (DisconnectedGraph where x and an image lie in different components),
    and is sent to the meet of that preimage cloud relative to the root z
    (the smallest vertex by default), found in one geodesic walk.  The
    result's true minimal constant is computed; at most 9n^2, it certifies
    the result at 9n^2 exhaustively, and only a larger one runs the check
    at 9n^2 for its witness.
    """
    _require_int(n)
    if n < 1:
        raise ValueError("constant must be >= 1")
    tree = f.source
    assert_tree(tree)
    if z is None:
        z = Vertex(min(tree.vertex_ids()))
    tgt = f.target
    net = _net_rows(tgt.vertex_ids(), tgt._eids)  # the half-net
    unit, row = _distance_rows(tgt, (net, _gate(tgt, net)), f._tgt)
    meet = _meets(tree, _gated(tree, (z,)), f._src)
    images = []
    for i in range(len(net)):
        cloud = [j for j, d in enumerate(row(i)) if d <= n * unit]
        if not cloud:
            raise EmptyPreimage(f"no image within {n} of {half_net(tgt)[i]}")
        images.append(meet(cloud))
    h = QuasiMap._of_rows(tgt, tree, net, _point_rows_of(images))
    bound = 9 * n * n
    best = minimal_qi_constant(h)
    if best > bound:
        cert = verify_quasi_isometry(h, bound)
    else:
        size = len(h)  # accepted at every constant from best on, all pairs checked
        cert = QiCertificate(bound, "exhaustive", None, None, size * (size - 1) // 2,
                             surjectivity_radius(h)[0], ())
    return QuasiInverseResult(h, best, bound, cert)


def round_trip_max(f: QuasiMap, g: QuasiMap) -> Fraction:
    """Largest displacement d(y, x) over compose(g, f), going forward through
    f and back through g: snapping is on integer rows, ties toward the
    smaller point key, DisconnectedGraph where compose raises it.  Raises
    GraphMismatch unless g maps f's target back to f's source."""
    if not g.target.same_structure(f.source):
        raise GraphMismatch("g does not map back to the source of f")
    trips = compose(g, f).assignments
    return max((distance(f.source, y, x) for y, x in trips), default=Fraction(0))
