"""Finite metric graphs with exact rational edge lengths.

A graph is a set of integer-id vertices joined by edges of strictly
positive rational length.  Parallel edges are first class: they are
metrically interchangeable but carry distinct ids (and possibly distinct
labels), so routes through them count as distinct geodesics.  Points are
either vertices or interior points of an edge, and every computation here
(distances, geodesics, ball complements) is exact; no floating point is
used anywhere.
"""

from __future__ import annotations

import heapq
from array import array
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Union

from .errors import (
    CapExceeded,
    DisconnectedGraph,
    GraphStructureError,
    InvalidPoint,
    NonPositiveScale,
    NotAGeodesic,
)

Rational = Fraction
ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)


@dataclass(frozen=True, slots=True)
class Edge:
    id: int
    u: int
    v: int
    length: Fraction
    label: Optional[int] = None


@dataclass(frozen=True, slots=True)
class Vertex:
    """A vertex point, identified by its vertex id."""

    id: int


@dataclass(frozen=True, slots=True)
class Interior:
    """An interior point of an edge.

    ``offset`` is the fraction of the edge length measured from the edge's
    u endpoint, and must lie strictly between 0 and 1.
    """

    edge: int
    offset: Fraction


GraphPoint = Union[Vertex, Interior]


def point_key(p: GraphPoint):
    """Total order on points: vertices by id first, then interior points
    by (edge id, offset)."""
    if isinstance(p, Vertex):
        return (0, p.id, ZERO)
    return (1, p.edge, p.offset)


@dataclass(frozen=True, slots=True)
class Geodesic:
    """A shortest path, stored as the vertices it hits in order plus the
    edge chosen for each hop.  Partial segments at interior endpoints are
    implied by ``start`` and ``end`` themselves."""

    start: GraphPoint
    end: GraphPoint
    vertices: tuple
    edges: tuple
    length: Fraction


class LabeledMetricGraph:
    """Immutable labeled metric graph.

    vertices: iterable of ids, or of (id, label) pairs (label may be None).
    edges: iterable of Edge, or of (id, u, v, length) / (id, u, v, length, label).
    basepoint: optional distinguished vertex id.
    """

    def __init__(self, vertices, edges, basepoint=None):
        labels = {}
        for item in vertices:
            if isinstance(item, tuple):
                vid, lab = item
            else:
                vid, lab = item, None
            if not isinstance(vid, int):
                raise GraphStructureError("vertex ids must be integers")
            if vid in labels:
                raise GraphStructureError(f"duplicate vertex id {vid}")
            labels[vid] = lab
        parsed = []
        seen_eids = set()
        for item in edges:
            if isinstance(item, Edge):
                e = item
            else:
                if len(item) == 4:
                    eid, u, v, ln = item
                    lab = None
                else:
                    eid, u, v, ln, lab = item
                e = Edge(eid, u, v, Fraction(ln), lab)
            if not isinstance(e.length, Fraction):
                e = Edge(e.id, e.u, e.v, Fraction(e.length), e.label)
            if e.id in seen_eids:
                raise GraphStructureError(f"duplicate edge id {e.id}")
            seen_eids.add(e.id)
            if e.u not in labels or e.v not in labels:
                raise GraphStructureError(f"edge {e.id} references a missing vertex")
            if e.u == e.v:
                raise GraphStructureError(f"edge {e.id} is a self-loop")
            if e.length <= 0:
                raise GraphStructureError(f"edge {e.id} has non-positive length")
            if e.label is not None and e.label not in (e.u, e.v):
                raise GraphStructureError(f"edge {e.id} label is not an endpoint")
            parsed.append(e)
        if basepoint is not None and basepoint not in labels:
            raise GraphStructureError(f"basepoint {basepoint} is not a vertex")
        self.vertex_labels = labels
        self.edges = tuple(parsed)
        self.basepoint = basepoint

        self._ids = tuple(sorted(labels))
        self._index = {vid: i for i, vid in enumerate(self._ids)}
        self._edge_by_id = {e.id: e for e in self.edges}
        adj = {vid: [] for vid in self._ids}
        for e in self.edges:
            adj[e.u].append((e.v, e))
            adj[e.v].append((e.u, e))
        # sorted by (neighbor id, edge id): geodesic enumeration relies on it
        self._adj = {
            vid: tuple(sorted(pairs, key=lambda t: (t[0], t[1].id)))
            for vid, pairs in adj.items()
        }
        nbr_min = {vid: {} for vid in self._ids}
        for e in self.edges:
            for a, b in ((e.u, e.v), (e.v, e.u)):
                cur = nbr_min[a].get(b)
                if cur is None or e.length < cur:
                    nbr_min[a][b] = e.length
        self._nbr_min = {
            vid: tuple(sorted(d.items())) for vid, d in nbr_min.items()
        }
        self._unit = all(e.length == 1 for e in self.edges)
        # compact adjacency (indices) for the unit-length BFS fast path
        self._nbr_idx = [
            [self._index[w] for w, _ in self._nbr_min[vid]] for vid in self._ids
        ]
        self._irows = {}
        self._frows = {}
        # closed-form distances, attached by the builders of graphs whose
        # metric has one (ids 0..V-1, so vertex ids index its rows)
        self._closed_form = None
        self._sig = None

    # -- basic accessors -------------------------------------------------

    def vertex_ids(self):
        return self._ids

    def has_vertex(self, vid):
        return vid in self.vertex_labels

    def edge(self, eid):
        try:
            return self._edge_by_id[eid]
        except KeyError:
            raise InvalidPoint(f"no edge with id {eid}") from None

    def edges_at(self, vid):
        return self._adj[vid]

    def degree(self, vid):
        """Number of edge ends at vid (parallel edges each count)."""
        return len(self._adj[vid])

    @property
    def n_vertices(self):
        return len(self._ids)

    @property
    def n_edges(self):
        return len(self.edges)

    @property
    def unit_lengths(self):
        return self._unit

    def max_edge_length(self):
        return max((e.length for e in self.edges), default=ZERO)

    def signature(self):
        if self._sig is None:
            self._sig = (
                tuple(sorted(self.vertex_labels.items())),
                tuple(
                    (e.id, e.u, e.v, e.length, e.label)
                    for e in sorted(self.edges, key=lambda e: e.id)
                ),
                self.basepoint,
            )
        return self._sig

    def same_structure(self, other):
        return self.signature() == other.signature()

    # -- vertex distance engine ------------------------------------------

    def _bfs_row(self, src):
        if self._closed_form is not None:
            return self._closed_form.row(src)
        row = self._irows.get(src)
        if row is None:
            n = len(self._ids)
            work = [-1] * n
            s = self._index[src]
            work[s] = 0
            q = deque([s])
            nbrs = self._nbr_idx
            while q:
                i = q.popleft()
                d1 = work[i] + 1
                for j in nbrs[i]:
                    if work[j] < 0:
                        work[j] = d1
                        q.append(j)
            # rows are cached per source; 4-byte entries keep thousands of
            # cached rows affordable
            row = array("i", work)
            self._irows[src] = row
        return row

    def _dijkstra_row(self, src):
        row = self._frows.get(src)
        if row is None:
            n = len(self._ids)
            row = [None] * n
            s = self._index[src]
            heap = [(ZERO, s)]
            while heap:
                d, i = heapq.heappop(heap)
                if row[i] is not None:
                    continue
                row[i] = d
                for w, ln in self._nbr_min[self._ids[i]]:
                    j = self._index[w]
                    if row[j] is None:
                        heapq.heappush(heap, (d + ln, j))
            self._frows[src] = row
        return row

    def vertex_distance(self, u, v):
        if u not in self._index or v not in self._index:
            raise InvalidPoint("unknown vertex id")
        if u == v:
            return ZERO
        if self._closed_form is not None:
            return Fraction(self._closed_form.distance(u, v))
        if self._unit:
            d = self._bfs_row(u)[self._index[v]]
            if d < 0:
                raise DisconnectedGraph(f"no path between vertices {u} and {v}")
            return Fraction(d)
        d = self._dijkstra_row(u)[self._index[v]]
        if d is None:
            raise DisconnectedGraph(f"no path between vertices {u} and {v}")
        return d

    def vertex_row(self, src):
        """Exact distances from src to every vertex, as a dict id -> Fraction."""
        out = {}
        if self._unit:
            row = self._bfs_row(src)
            for vid, i in self._index.items():
                out[vid] = Fraction(row[i]) if row[i] >= 0 else None
        else:
            row = self._dijkstra_row(src)
            for vid, i in self._index.items():
                out[vid] = row[i]
        return out

    def is_connected(self):
        if not self._ids:
            return True
        src = self._ids[0]
        if self._unit:
            return all(d >= 0 for d in self._bfs_row(src))
        return all(d is not None for d in self._dijkstra_row(src))


# -- points ----------------------------------------------------------------


def validate_point(g: LabeledMetricGraph, p: GraphPoint):
    if isinstance(p, Vertex):
        if not g.has_vertex(p.id):
            raise InvalidPoint(f"no vertex with id {p.id}")
        return
    if isinstance(p, Interior):
        e = g.edge(p.edge)
        if not isinstance(p.offset, Fraction):
            raise InvalidPoint("interior offset must be a Fraction")
        if not (0 < p.offset < 1):
            raise InvalidPoint(
                f"interior offset {p.offset} of edge {e.id} is outside (0, 1)"
            )
        return
    raise InvalidPoint(f"not a graph point: {p!r}")


def point_on_edge(g: LabeledMetricGraph, eid: int, offset) -> GraphPoint:
    """Point at the given length-fraction along an edge; offsets 0 and 1
    normalize to the endpoints."""
    e = g.edge(eid)
    t = Fraction(offset)
    if t == 0:
        return Vertex(e.u)
    if t == 1:
        return Vertex(e.v)
    if not (0 < t < 1):
        raise InvalidPoint(f"offset {t} outside [0, 1]")
    return Interior(eid, t)


def _entry_costs(g, p):
    """(vertex id, length to reach it) for each way of leaving the point."""
    if isinstance(p, Vertex):
        return ((p.id, ZERO),)
    e = g.edge(p.edge)
    return ((e.u, p.offset * e.length), (e.v, (1 - p.offset) * e.length))


def distance(g: LabeledMetricGraph, p: GraphPoint, q: GraphPoint) -> Fraction:
    """Exact shortest-path distance between two points."""
    validate_point(g, p)
    validate_point(g, q)
    if p == q:
        return ZERO
    best = None
    for a, ca in _entry_costs(g, p):
        for b, cb in _entry_costs(g, q):
            d = ca + g.vertex_distance(a, b) + cb
            if best is None or d < best:
                best = d
    if isinstance(p, Interior) and isinstance(q, Interior) and p.edge == q.edge:
        e = g.edge(p.edge)
        direct = abs(p.offset - q.offset) * e.length
        if direct < best:
            best = direct
    return best


def point_to_vertex_distance(g, p: GraphPoint, row: dict) -> Fraction:
    """Distance from p to the source of a precomputed vertex row."""
    if isinstance(p, Vertex):
        d = row[p.id]
        if d is None:
            raise DisconnectedGraph("point unreachable")
        return d
    e = g.edge(p.edge)
    du, dv = row[e.u], row[e.v]
    if du is None or dv is None:
        raise DisconnectedGraph("point unreachable")
    return min(p.offset * e.length + du, (1 - p.offset) * e.length + dv)


def half_net(g: LabeledMetricGraph):
    """Vertices plus the midpoint of every edge, in deterministic order."""
    pts = [Vertex(vid) for vid in g.vertex_ids()]
    pts.extend(Interior(e.id, HALF) for e in sorted(g.edges, key=lambda e: e.id))
    return pts


def scale_metric(g: LabeledMetricGraph, lam) -> LabeledMetricGraph:
    lam = Fraction(lam)
    if lam <= 0:
        raise NonPositiveScale(f"scale factor {lam} must be positive")
    return LabeledMetricGraph(
        list(g.vertex_labels.items()),
        [Edge(e.id, e.u, e.v, e.length * lam, e.label) for e in g.edges],
        basepoint=g.basepoint,
    )


# -- geodesics ---------------------------------------------------------------


def _distance_to_point_fn(g, q):
    """Returns f(vertex id) -> exact distance to point q."""
    if isinstance(q, Vertex):
        row = g.vertex_row(q.id)

        def f(vid):
            d = row[vid]
            if d is None:
                raise DisconnectedGraph("unreachable endpoint")
            return d

        return f
    e = g.edge(q.edge)
    row_u = g.vertex_row(e.u)
    row_v = g.vertex_row(e.v)
    cu = q.offset * e.length
    cv = (1 - q.offset) * e.length

    def f(vid):
        du, dv = row_u[vid], row_v[vid]
        if du is None or dv is None:
            raise DisconnectedGraph("unreachable endpoint")
        return min(du + cu, dv + cv)

    return f


def _degenerate(p, q, total):
    vs = (p.id,) if isinstance(p, Vertex) else ()
    return Geodesic(p, q, vs, (), total)


def _start_states(g, p, q, total, dq):
    """First-vertex states in the order matching lexicographic enumeration."""
    if isinstance(p, Vertex):
        return [(p.id, ZERO)]
    e = g.edge(p.edge)
    opts = sorted(((e.u, p.offset * e.length), (e.v, (1 - p.offset) * e.length)))
    return [(vid, c) for vid, c in opts if c + dq(vid) == total]


def _emit_checks(g, q, vid, cost, total):
    """True if a geodesic may terminate at this vertex state."""
    if isinstance(q, Vertex):
        return vid == q.id and cost == total
    e = g.edge(q.edge)
    if vid == e.u and cost + q.offset * e.length == total:
        return True
    if vid == e.v and cost + (1 - q.offset) * e.length == total:
        return True
    return False


def enumerate_geodesics(g: LabeledMetricGraph, p: GraphPoint, q: GraphPoint, cap=1000):
    """All distinct geodesics from p to q, in lexicographic order of
    (vertex sequence, edge sequence).  Raises CapExceeded (carrying the
    truncated list) if more than ``cap`` exist."""
    validate_point(g, p)
    validate_point(g, q)
    total = distance(g, p, q)
    if p == q:
        return [_degenerate(p, q, total)]
    out = []

    def emit(vseq, eseq):
        if len(out) >= cap:
            raise CapExceeded(
                f"more than {cap} geodesics between {p} and {q}", out
            )
        out.append(Geodesic(p, q, tuple(vseq), tuple(eseq), total))

    if (
        isinstance(p, Interior)
        and isinstance(q, Interior)
        and p.edge == q.edge
        and abs(p.offset - q.offset) * g.edge(p.edge).length == total
    ):
        emit((), ())

    dq = _distance_to_point_fn(g, q)
    terminal_vertex = isinstance(q, Vertex)

    def visit(vid, cost, vseq, eseq):
        """Emit at this state if a geodesic ends here, then yield the
        states one geodesic hop on, in edge order."""
        if _emit_checks(g, q, vid, cost, total):
            emit(vseq, eseq)
            if terminal_vertex:
                return
        for w, edge in g.edges_at(vid):
            nc = cost + edge.length
            if nc <= total and nc + dq(w) == total:
                yield w, nc, edge.id

    # depth-first with an explicit stack, one successor iterator per hop,
    # so geodesics of any length come out in lexicographic order
    for vid, c in _start_states(g, p, q, total, dq):
        vseq, eseq = [vid], []
        stack = [visit(vid, c, vseq, eseq)]
        while stack:
            step = next(stack[-1], None)
            if step is None:
                stack.pop()
                if stack:
                    vseq.pop()
                    eseq.pop()
                continue
            w, nc, eid = step
            vseq.append(w)
            eseq.append(eid)
            stack.append(visit(w, nc, vseq, eseq))
    return out


def canonical_geodesic(g: LabeledMetricGraph, p: GraphPoint, q: GraphPoint) -> Geodesic:
    """The lexicographically least geodesic, computed greedily without
    enumerating alternatives."""
    validate_point(g, p)
    validate_point(g, q)
    total = distance(g, p, q)
    if p == q:
        return _degenerate(p, q, total)
    if (
        isinstance(p, Interior)
        and isinstance(q, Interior)
        and p.edge == q.edge
        and abs(p.offset - q.offset) * g.edge(p.edge).length == total
    ):
        return Geodesic(p, q, (), (), total)
    dq = _distance_to_point_fn(g, q)
    starts = _start_states(g, p, q, total, dq)
    vid, cost = starts[0]
    vseq, eseq = [vid], []
    while True:
        if _emit_checks(g, q, vid, cost, total):
            return Geodesic(p, q, tuple(vseq), tuple(eseq), total)
        advanced = False
        for w, edge in g.edges_at(vid):
            nc = cost + edge.length
            if nc <= total and nc + dq(w) == total:
                vseq.append(w)
                eseq.append(edge.id)
                vid, cost = w, nc
                advanced = True
                break
        if not advanced:  # cannot happen on a connected graph
            raise DisconnectedGraph("geodesic walk stalled")


def geodesic_segments(g, geo: Geodesic):
    """The geodesic as (edge, from_offset, to_offset) runs, offsets being
    length-fractions in the edge's own orientation."""
    segs = []
    vs = geo.vertices
    if isinstance(geo.start, Interior):
        e = g.edge(geo.start.edge)
        if not vs:
            # both endpoints interior to one edge
            return [(e, geo.start.offset, geo.end.offset)]
        first = vs[0]
        segs.append((e, geo.start.offset, ZERO if first == e.u else ONE))
    for k, eid in enumerate(geo.edges):
        e = g.edge(eid)
        a = vs[k]
        segs.append((e, ZERO, ONE) if a == e.u else (e, ONE, ZERO))
    if isinstance(geo.end, Interior):
        e = g.edge(geo.end.edge)
        last = vs[-1]
        segs.append((e, ZERO if last == e.u else ONE, geo.end.offset))
    return segs


def check_geodesic(g, geo: Geodesic):
    """Validate a geodesic against the metric; raises NotAGeodesic."""
    try:
        span = distance(g, geo.start, geo.end)
    except InvalidPoint as exc:
        raise NotAGeodesic(str(exc)) from exc
    length = ZERO
    for e, a, b in geodesic_segments(g, geo):
        length += abs(b - a) * e.length
    if length != geo.length or geo.length != span:
        raise NotAGeodesic(
            f"claimed length {geo.length}, segments sum to {length}, "
            f"metric distance is {span}"
        )
    for k, eid in enumerate(geo.edges):
        e = g.edge(eid)
        if {geo.vertices[k], geo.vertices[k + 1]} != {e.u, e.v}:
            raise NotAGeodesic(f"hop {k} does not follow edge {eid}")


def point_along(g, geo: Geodesic, s) -> GraphPoint:
    """The point at arc length s along a geodesic (0 <= s <= length)."""
    s = Fraction(s)
    if not (0 <= s <= geo.length):
        raise InvalidPoint(f"arc length {s} outside [0, {geo.length}]")
    if s == 0:
        return geo.start
    if s == geo.length:
        return geo.end
    walked = ZERO
    for e, a, b in geodesic_segments(g, geo):
        seg_len = abs(b - a) * e.length
        if walked + seg_len >= s:
            local = (s - walked) / e.length
            t = a + local if b > a else a - local
            return point_on_edge(g, e.id, t)
        walked += seg_len
    return geo.end


# -- ball complements and separation ----------------------------------------


@dataclass(frozen=True, slots=True)
class Fragment:
    """A maximal surviving open sub-interval of an edge, as length-fractions."""

    edge: int
    lo: Fraction
    hi: Fraction
    component: int


@dataclass(frozen=True)
class ComplementIndex:
    center: GraphPoint
    radius: Fraction
    vertex_component: dict
    fragments: tuple
    n_components: int


class _DSU:
    def __init__(self):
        self.parent = {}

    def find(self, x):
        p = self.parent.setdefault(x, x)
        while p != self.parent[p]:
            self.parent[p] = self.parent[self.parent[p]]
            p = self.parent[p]
        self.parent[x] = p
        return p

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def _subtract_cover(length, cover):
    """Open sub-intervals of [0, length] left after removing the closed
    cover intervals."""
    clipped = sorted(
        (max(ZERO, a), min(length, b)) for a, b in cover if b >= 0 and a <= length
    )
    merged = []
    for a, b in clipped:
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    out = []
    cur = ZERO
    for a, b in merged:
        if a > cur:
            out.append((cur, a))
        cur = max(cur, b)
    if cur < length:
        out.append((cur, length))
    return out


def ball_complement_components(g: LabeledMetricGraph, center: GraphPoint, radius):
    """Delete the closed ball around ``center`` exactly and return the
    connected components of what survives."""
    validate_point(g, center)
    r = Fraction(radius)
    if r < 0:
        raise ValueError("radius must be >= 0")
    rows = [(g.vertex_row(a), c) for a, c in _entry_costs(g, center)]

    def dist_to_center(vid):
        best = None
        for row, c in rows:
            d = row[vid]
            if d is None:
                raise DisconnectedGraph("graph must be connected")
            d = d + c
            if best is None or d < best:
                best = d
        return best

    dcen = {vid: dist_to_center(vid) for vid in g.vertex_ids()}
    surviving = [vid for vid in g.vertex_ids() if dcen[vid] > r]
    dsu = _DSU()
    for vid in surviving:
        dsu.find(vid)
    center_edge = center.edge if isinstance(center, Interior) else None
    frag_raw = []
    for e in sorted(g.edges, key=lambda e: e.id):
        cover = []
        cu = r - dcen[e.u]
        if cu >= 0:
            cover.append((ZERO, cu))
        cv = r - dcen[e.v]
        if cv >= 0:
            cover.append((e.length - cv, e.length))
        if e.id == center_edge:
            sc = center.offset * e.length
            cover.append((sc - r, sc + r))
        for a, b in _subtract_cover(e.length, cover):
            token = ("frag", e.id, a)
            dsu.find(token)
            # a fragment ending exactly at a deleted vertex (a sphere
            # point) is open there and must not connect through it
            if a == 0 and dcen[e.u] > r:
                dsu.union(token, e.u)
            if b == e.length and dcen[e.v] > r:
                dsu.union(token, e.v)
            frag_raw.append((e, a, b, token))
    groups = {}
    for vid in surviving:
        groups.setdefault(dsu.find(vid), []).append(vid)
    frag_groups = {}
    for e, a, b, token in frag_raw:
        frag_groups.setdefault(dsu.find(token), []).append((e.id, a))
    order = []
    for root, vids in groups.items():
        order.append(((0, min(vids)), root))
    for root in frag_groups:
        if root not in groups:
            order.append(((1,) + min(frag_groups[root]), root))
    order.sort(key=lambda t: t[0])
    comp_of_root = {root: i for i, (_, root) in enumerate(order)}
    vertex_component = {vid: comp_of_root[dsu.find(vid)] for vid in surviving}
    fragments = tuple(
        Fragment(e.id, a / e.length, b / e.length, comp_of_root[dsu.find(token)])
        for e, a, b, token in frag_raw
    )
    return ComplementIndex(center, r, vertex_component, fragments, len(order))


def complement_component_of(idx: ComplementIndex, p: GraphPoint):
    """Component id of a surviving point, or None if the ball swallowed it."""
    if isinstance(p, Vertex):
        return idx.vertex_component.get(p.id)
    for f in idx.fragments:
        if f.edge == p.edge and f.lo < p.offset < f.hi:
            return f.component
    return None


def is_separated(g, x: GraphPoint, y: GraphPoint, w: GraphPoint, r) -> bool:
    """True iff every path from x to y meets the closed ball around w of
    radius r."""
    r = Fraction(r)
    if distance(g, x, w) <= r or distance(g, y, w) <= r:
        return True
    idx = ball_complement_components(g, w, r)
    return complement_component_of(idx, x) != complement_component_of(idx, y)


def surviving_vertex_path(g, idx: ComplementIndex, x: GraphPoint, y: GraphPoint):
    """A vertex path joining x to y inside the ball complement, as evidence
    that they are not separated.  Returns a (possibly empty) vertex id list,
    or None when no such path exists."""

    def anchors(p):
        if isinstance(p, Vertex):
            return [p.id] if p.id in idx.vertex_component else []
        out = []
        for f in idx.fragments:
            if f.edge == p.edge and f.lo < p.offset < f.hi:
                e = g.edge(p.edge)
                if f.lo == 0 and e.u in idx.vertex_component:
                    out.append(e.u)
                if f.hi == 1 and e.v in idx.vertex_component:
                    out.append(e.v)
        return out

    if (
        isinstance(x, Interior)
        and isinstance(y, Interior)
        and complement_component_of(idx, x) == complement_component_of(idx, y)
        and not anchors(x)
    ):
        return []  # both live in one vertex-free fragment
    full = {}
    for f in idx.fragments:
        if f.lo == 0 and f.hi == 1:
            e = g.edge(f.edge)
            full.setdefault(e.u, []).append(e.v)
            full.setdefault(e.v, []).append(e.u)
    starts = anchors(x)
    targets = set(anchors(y))
    if not starts or not targets:
        return None
    prev = {s: None for s in starts}
    q = deque(sorted(starts))
    while q:
        v = q.popleft()
        if v in targets:
            path = []
            while v is not None:
                path.append(v)
                v = prev[v]
            return path[::-1]
        for w in sorted(full.get(v, ())):
            if w not in prev:
                prev[w] = v
                q.append(w)
    return None


def multi_source_vertex_distances(g, seeds):
    """Exact distance from a set of weighted seed vertices to every vertex.

    seeds: iterable of (vertex id, initial cost).  Returns dict id -> Fraction
    (None where unreachable).
    """
    dist = {vid: None for vid in g.vertex_ids()}
    heap = []
    for vid, c in seeds:
        c = Fraction(c)
        if dist[vid] is None or c < dist[vid]:
            dist[vid] = c
            heapq.heappush(heap, (c, vid))
    done = set()
    while heap:
        d, vid = heapq.heappop(heap)
        if vid in done:
            continue
        done.add(vid)
        for w, ln in g._nbr_min[vid]:
            nd = d + ln
            if dist[w] is None or nd < dist[w]:
                dist[w] = nd
                heapq.heappush(heap, (nd, w))
    return dist
