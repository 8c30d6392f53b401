"""Negative-curvature checks: slim triangles, geodesic midpoints, and
bottleneck separation certificates.

All quantities are exact rationals.  Triangle corners are vertices; for a
pair of corners the full union of geodesics between them is represented by
its carrier (the vertices and whole edges that some geodesic runs through).
Each carrier is searched once for every vertex's distance to it, and a
side's distance to the other two is the lesser of their carriers' rows,
probed at half-edge resolution: carrier vertices plus midpoints of carrier
edges.  The probe grid can miss the true supremum by at most half the
longest edge, and that residue is reported as sampling_slack next to the
observed value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .coarse_maps import _check_sampling, _draws
from .errors import DisconnectedGraph
from .metric_graph import (
    HALF,
    GraphPoint,
    Interior,
    LabeledMetricGraph,
    Vertex,
    _arc,
    _avoiding_path,
    _farthest,
    canonical_geodesic,
    point_along,
)


@dataclass(frozen=True)
class DeltaWitness:
    side: tuple  # the two corner ids whose geodesics realize the maximum
    apex: int
    point: GraphPoint
    dist: Fraction


@dataclass(frozen=True)
class DeltaReport:
    delta_upper_observed: Fraction
    mode: str
    seed: Optional[int]
    count: Optional[int]
    triples_checked: int
    triples_skipped: int
    sampling_slack: Fraction
    witness: Optional[DeltaWitness]


def _carrier(g, a, b):
    """Vertices and whole edges, by their positions in the edge columns,
    lying on some geodesic from a to b, and every vertex's integer
    distance to those vertices, by index."""
    ix, row_a, row_b = g._index, g._metric.row(a), g._metric.row(b)
    dab = row_a[ix[b]]
    verts = tuple(w for w in g.vertex_ids() if row_a[ix[w]] + row_b[ix[w]] == dab)
    edges = tuple(
        h
        for h, (u, v, ln) in enumerate(zip(g._eu, g._ev, g._elen))
        if row_a[ix[u]] + ln + row_b[ix[v]] == dab
        or row_a[ix[v]] + ln + row_b[ix[u]] == dab
    )
    return verts, edges, g._metric.search([(0, ix[v]) for v in verts])


def _triple_roles(a, b, c):
    return (((a, b), c), ((a, c), b), ((b, c), a))


def slim_triangle_delta(
    g: LabeledMetricGraph, mode="exhaustive", seed=None, count=None
) -> DeltaReport:
    """Largest probed distance from one side of a checked triangle to the
    union of the other two, over triangles with vertex corners.

    Exhaustive mode ranges over all vertex triples, sampled mode over
    seeded draws; both check the three side/apex roles of each triple.
    Probing at half-edge resolution can undershoot the true thinness by at
    most half the longest edge, so the true value is bounded above by
    delta_upper_observed + sampling_slack.
    """
    _check_sampling(mode, ("exhaustive", "sampled"), seed, count)
    if not g.is_connected():
        raise DisconnectedGraph("slim-triangle slack needs a connected graph")
    ids = list(g.vertex_ids())
    slack = HALF * g.max_edge_length()
    best, found = 0, None  # best in doubled units of 1/(2*L), from _farthest
    checked = 0
    carriers = {}

    def carrier(a, b):
        key = (a, b) if a <= b else (b, a)
        got = carriers.get(key)
        if got is None:
            got = carriers[key] = _carrier(g, key[0], key[1])
        return got

    for i, j, k in _draws(len(ids), 3, mode, seed, count):
        checked += 1
        for (p, q), apex in _triple_roles(ids[i], ids[j], ids[k]):
            # probes lie on p-q geodesics, p and q in the union: none is past d(p, q) / 2
            if g._vdist(p, q) <= best:
                continue
            pv, pe, _ = carrier(p, q)
            _, e1, r1 = carrier(p, apex)
            _, e2, r2 = carrier(apex, q)
            # the distance to a union is the lesser of the distances to its
            # parts; a probe midpoint leaves its edge through an endpoint,
            # and the nearest union point is a union vertex
            du = [x if x < y else y for x, y in zip(r1, r2)]
            union = set(e1 + e2)
            val, point = _farthest(g, 1, du, {}, pv, [h for h in pe if h not in union])
            if val > best:
                best, found = val, ((p, q), apex, point)
    delta = Fraction(best, 2 * g._scale)
    witness = DeltaWitness(*found, delta) if found else None
    return DeltaReport(delta, mode, seed, count, checked, 0, slack, witness)


def midpoint(g: LabeledMetricGraph, x: GraphPoint, y: GraphPoint) -> GraphPoint:
    """Midpoint of the canonical geodesic from x to y."""
    geo = canonical_geodesic(g, x, y)
    return point_along(g, geo, geo.length / 2)


@dataclass(frozen=True)
class BottleneckWitness:
    x: GraphPoint
    y: GraphPoint
    probe: GraphPoint
    distance: Fraction
    avoiding_path: Optional[tuple]


@dataclass(frozen=True)
class BottleneckReport:
    accepted: bool
    delta_param: Fraction
    radius: Fraction
    mode: str
    seed: Optional[int]
    count: Optional[int]
    pairs_checked: int
    witness: Optional[BottleneckWitness]


def _first_avoidable(g, mode, seed, count, r, probes):
    """(pairs checked, probes checked, witness): for each drawn pair of
    half-net points, each point that probes(geo) yields for their canonical
    geodesic geo is tested for an avoiding path around its r-ball; the
    first such path ends the loop as the witness."""
    ids, eids = g.vertex_ids(), g._eids
    pool = [None] * (len(ids) + len(eids))
    pairs = checked = 0
    for i, j in _draws(len(pool), 2, mode, seed, count):
        pairs += 1
        for t in (i, j):  # made on first draw, in the half-net's order
            if pool[t] is None:
                pool[t] = Vertex(ids[t]) if t < len(ids) else Interior(eids[t - len(ids)], HALF)
        x, y = pool[i], pool[j]
        geo = canonical_geodesic(g, x, y)
        for w in probes(geo):
            checked += 1
            path = _avoiding_path(g, w, r, x, y)
            if path is not None:
                return pairs, checked, BottleneckWitness(x, y, w, geo.length, tuple(path))
    return pairs, checked, None


def verify_bottleneck(
    g: LabeledMetricGraph,
    delta,
    radius=None,
    mode="exhaustive",
    seed=None,
    count=None,
) -> BottleneckReport:
    """Check that for every examined pair the midpoint of the canonical
    geodesic is unavoidable: removing the closed ball of the given radius
    around it disconnects the endpoints (or already contains one of them).

    The default radius is delta - 1.  A failed pair is returned with a
    vertex path that dodges the ball.
    """
    delta = Fraction(delta)
    r = delta - 1 if radius is None else Fraction(radius)
    if not 0 <= r < delta:
        raise ValueError("radius must satisfy 0 <= radius < delta")
    _check_sampling(mode, ("exhaustive", "sampled"), seed, count)
    if not g.is_connected():
        raise DisconnectedGraph("bottleneck check needs a connected graph")
    checked, _, witness = _first_avoidable(
        g, mode, seed, count, r, lambda geo: (point_along(g, geo, geo.length / 2),))
    return BottleneckReport(witness is None, delta, r, mode, seed, count, checked, witness)


@dataclass(frozen=True)
class SeparationReport:
    accepted: bool
    radius: Fraction
    seed: int
    count: int
    pairs_checked: int
    probes_checked: int
    witness: Optional[BottleneckWitness]


def certify_two_hyperbolic_gamma0(g0, seed, count) -> SeparationReport:
    """Sampled evidence that the doubled-edge graph of a family is
    2-hyperbolic in the strong separation sense: along the canonical
    geodesic of each sampled pair, every probe point farther than 2 from
    both ends has an unavoidable 2-ball.

    Probes are the geodesic's vertex hits, then the midpoints of its hop
    edges.
    """
    _check_sampling("sampled", ("sampled",), seed, count)
    g = g0.graph
    pairs, checked, witness = _first_avoidable(
        g, "sampled", seed, count, Fraction(2), lambda geo: _separation_probes(g, geo))
    return SeparationReport(witness is None, Fraction(2), seed, count, pairs, checked, witness)


def _separation_probes(g, geo):
    """The vertex hits, then the hop-edge midpoints, of a geodesic that lie
    farther than 2 from both of its ends.  A subpath of a geodesic is one,
    so a probe's distance to the start is its arc length, read off _arc
    and doubled here to keep midpoints whole."""
    vs = geo.vertices
    if not vs:
        return []
    k, at = _arc(g, geo)
    far, end = 4 * k * g._scale, 2 * at[-1]  # the radius 2 and the length, doubled
    probes = [(Vertex(v), 2 * a) for v, a in zip(vs, at)]
    probes += [(Interior(e, HALF), a + b) for e, a, b in zip(geo.edges, at, at[1:])]
    return [w for w, a in probes if far < a < end - far]
