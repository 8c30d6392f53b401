"""Finite metric graphs with exact rational edge lengths.

A graph is a set of integer-id vertices joined by edges of strictly
positive rational length.  Parallel edges are first class: they are
metrically interchangeable but carry distinct ids (and possibly distinct
labels), so routes through them count as distinct geodesics.  Points are
either vertices or interior points of an edge, and every computation here
(distances, geodesics, ball complements) is exact; no floating point is
used anywhere.  Edges are stored as integer columns, each checked in one
pass, points pass one integer gate, and the adjacency is built on first
use: a graph only built, mapped and dumped never sorts it.

Vertex distances come from each graph's one metric, ``_metric``: rows,
pair distances and multi-source searches in integer units of 1/L, L the
lcm of the edge-length denominators, from a builder's closed form or else
from a Dijkstra that caches its rows.  Point distances scale them by
a factor that makes the points' offsets whole, found by the gate, _gate,
in its one loop over the points' rows (kind, id, num, den), made from
point objects or kept as a map's sides; Fractions appear only where
results leave the engine.  One builder, _point_rows, turns engine rows
into a point's row to every vertex and to the interior points of a net,
and one sweep, _farthest, finds the farthest vertex or edge midpoint on
a given row.  One table, _arc, gives the integer arc length of each
vertex a geodesic hits, and points along it are read off that table.  One
cut, _ball_cut, gives what survives a closed ball, and one breadth-first
search over the survivors, _reach, decides separation, gives the witness
paths that avoid the ball and numbers the components of the complement.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain, compress, count, repeat
from math import gcd, lcm
from operator import itemgetter, ne, not_
from typing import Optional, Union

from .errors import (
    CapExceeded,
    DisconnectedGraph,
    GraphStructureError,
    InvalidPoint,
    NonPositiveScale,
    NotAGeodesic,
)

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)
# The largest unit denominator L a graph may have: every engine row entry
# is a multiple of 1/L, so L's size bounds the cost of each one.
UNIT_LIMIT = 2**256


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


def _is_id(x):
    """Ids are ints and not bools: True, 1.0 and the like only compare
    equal to a vertex or edge id, and are refused wherever ids enter."""
    return type(x) is int or (isinstance(x, int) and not isinstance(x, bool))


def _all_ids(xs):
    """Whether every x of the sequence xs is an id: one pass over the
    types, and a call per x only when some type is not int."""
    return set(map(type, xs)) <= {int} or all(map(_is_id, xs))


def _edge_row(item):
    """An edge as an (id, u, v, length, label) tuple, its length a Fraction."""
    if isinstance(item, Edge):
        item = item.id, item.u, item.v, item.length, item.label
    try:
        eid, u, v, length, *label = item
        (label,) = label or (None,)
    except (TypeError, ValueError):
        raise GraphStructureError(f"edge {item!r} is not (id, u, v, length[, label])") from None
    if not (_is_id(eid) and _is_id(u) and _is_id(v)):
        raise GraphStructureError(f"edge {eid!r}: id and endpoints must be integers")
    return eid, u, v, length if isinstance(length, Fraction) else Fraction(length), label


class LabeledMetricGraph:
    """Immutable labeled metric graph.

    vertices: iterable of ids, or of (id, label) pairs (label may be None).
    edges: iterable of Edge, or of (id, u, v, length) / (id, u, v, length, label).
    basepoint: optional distinguished vertex id.

    The edges live in columns, by position in edge-id order: ``_eids``,
    the ends ``_eu`` and ``_ev``, ``_elen`` the length in units of 1/L
    (L = ``_scale``, the lcm of the length denominators) and ``_elab``;
    ``_epos`` maps an id to its position.  Edge objects are a view, made
    by ``edges`` and ``edge()`` on first request and kept.
    """

    def __init__(self, vertices, edges, basepoint=None):
        labels = {}
        for item in vertices:
            if isinstance(item, tuple):
                vid, lab = item
            else:
                vid, lab = item, None
            if not _is_id(vid):
                raise GraphStructureError("vertex ids must be integers")
            if vid in labels:
                raise GraphStructureError(f"duplicate vertex id {vid}")
            labels[vid] = lab
        rows = sorted(map(_edge_row, edges), key=itemgetter(0))
        ids, us, vs, lengths, labs = map(list, zip(*rows)) if rows else ([],) * 5
        for dup in (a for a, b in zip(ids, ids[1:]) if a == b):
            raise GraphStructureError(f"duplicate edge id {dup}")
        scale = 1
        for den in {x.denominator for x in lengths}:
            scale = lcm(scale, den)
            if scale > UNIT_LIMIT:
                raise GraphStructureError(
                    "the lcm of the edge-length denominators passes the unit "
                    f"limit 2**{UNIT_LIMIT.bit_length() - 1}")
        lens = [x.numerator * (scale // x.denominator) for x in lengths]
        self._keep(labels, ids, us, vs, lens, labs, scale, basepoint)

    def _keep(self, labels, ids, us, vs, lens, labs, scale, basepoint):
        """Check edge columns in id order, lens in units of 1/scale, one pass
        per check, and store them: ends are vertices, no self-loops,
        lengths are positive and each label is None or an end."""
        for what, ok in (
            # over both ends, so position i is edge i % len(ids)
            ("references a missing vertex", lambda: map(labels.__contains__, chain(us, vs))),
            ("is a self-loop", lambda: map(ne, us, vs)),
            ("has non-positive length", lambda: map((0).__lt__, lens)),
            ("label is not an endpoint",
             lambda: map(tuple.__contains__, zip(us, vs, repeat(None)), labs)),
        ):
            if not all(ok()):  # a second pass finds the first failure
                i = next(compress(count(), map(not_, ok())))
                raise GraphStructureError(f"edge {ids[i % len(ids)]} {what}")
        if basepoint is not None and not (_is_id(basepoint) and basepoint in labels):
            raise GraphStructureError(f"basepoint {basepoint} is not a vertex")
        self.vertex_labels = labels
        self.basepoint = basepoint
        self._ids = tuple(sorted(labels))
        self._index = {vid: i for i, vid in enumerate(self._ids)}
        self._eids, self._eu, self._ev, self._elen, self._elab = ids, us, vs, lens, labs
        self._epos = dict(zip(ids, range(len(ids))))
        self._scale = scale  # the distance engine counts in units of 1/L

    # these two take every id a point or a reader names: an exact int skips
    # the call to _is_id

    def _at(self, eid):
        """The position of edge eid in the columns."""
        if (type(eid) is int or _is_id(eid)) and (i := self._epos.get(eid)) is not None:
            return i
        raise InvalidPoint(f"no edge with id {eid}")

    def _vertex_at(self, vid, message=None):
        """The index of vertex vid; InvalidPoint, with message if given,
        unless vid is the id of a vertex."""
        if (type(vid) is int or _is_id(vid)) and (i := self._index.get(vid)) is not None:
            return i
        raise InvalidPoint(message or f"no vertex with id {vid}")

    def _fractions(self):
        """Each distinct integer edge length's Fraction."""
        return {ln: Fraction(ln, self._scale) for ln in set(self._elen)}

    @cached_property
    def edges(self):
        """Every edge as an Edge, in id order: a view of the columns."""
        fr = self._fractions()
        return tuple(map(Edge, self._eids, self._eu, self._ev,
                         map(fr.__getitem__, self._elen), self._elab))

    @cached_property
    def _adj(self):
        """Each vertex's {(neighbor id, edge id): integer length}, in key order
        (geodesic enumeration relies on it): one lookup tests and measures a hop."""
        adj = {vid: {} for vid in self._ids}
        for eid, u, v, ln in zip(self._eids, self._eu, self._ev, self._elen):
            adj[u][v, eid] = adj[v][u, eid] = ln
        return {vid: dict(sorted(d.items())) for vid, d in adj.items()}

    @cached_property
    def _metric(self):
        """The searched metric, unless a builder attached its closed form."""
        return _SearchedMetric(self)

    # -- basic accessors -------------------------------------------------

    def vertex_ids(self):
        return self._ids

    def edge(self, eid):
        return self.edges[self._at(eid)]

    @property
    def n_vertices(self):
        return len(self._ids)

    @property
    def n_edges(self):
        return len(self._eids)

    def max_edge_length(self):
        return Fraction(max(self._elen, default=0), self._scale)

    def signature(self):
        fr = self._fractions()
        return (
            tuple(sorted(self.vertex_labels.items())),
            tuple(zip(self._eids, self._eu, self._ev,
                      map(fr.__getitem__, self._elen), self._elab)),
            self.basepoint,
        )

    def same_structure(self, other):
        return self is other or self.signature() == other.signature()

    def _vdist(self, u, v):
        """Integer distance (units of 1/L) between vertex ids u and v."""
        if (d := self._metric.distance(u, v)) < 0:
            raise DisconnectedGraph(f"no path between vertices {u} and {v}")
        return d

    def vertex_distance(self, u, v):
        self._vertex_at(u, "unknown vertex id"), self._vertex_at(v, "unknown vertex id")
        return Fraction(self._vdist(u, v), self._scale)

    def vertex_row(self, src):
        """Exact distances from src to every vertex, as a dict id -> Fraction
        (None where unreachable)."""
        self._vertex_at(src)
        s, row = self._scale, self._metric.row(src)
        return {vid: Fraction(d, s) if d >= 0 else None for vid, d in zip(self._ids, row)}

    def is_connected(self):
        return not self._ids or min(self._metric.row(self._ids[0])) >= 0


class _SearchedMetric:
    """A graph's metric with no closed form, read as gamma_spaces._ArmLayout
    is (-1 where unreachable): a Dijkstra on an adjacency built at the first
    search, and the graph's only row cache, ``rows``, by source id."""

    searches = True  # a pair read searches a row

    def __init__(self, g):  # the columns, not g: no reference cycle holds the rows
        self._index, self._ends = g._index, (g._eu, g._ev, g._elen)
        self.rows = {}

    @cached_property
    def adj(self):
        """Sorted (neighbor index, shortest edge's integer length) pairs by vertex index."""
        ix = self._index
        nbr_min = [{} for _ in ix]
        for u, v, w in zip(*self._ends):
            i, j = ix[u], ix[v]
            if w < nbr_min[i].get(j, w + 1):
                nbr_min[i][j] = nbr_min[j][i] = w
        return [tuple(sorted(d.items())) for d in nbr_min]

    def search(self, seeds, k=1):
        """Dijkstra from weighted seeds, given as (integer cost, vertex
        index) pairs.  Returns the distance to every vertex by index, in
        units of 1/(k*L), with -1 where no seed reaches."""
        adj = self.adj
        dist = [-1] * len(adj)
        heap = list(seeds)
        heapq.heapify(heap)
        pop, push = heapq.heappop, heapq.heappush
        while heap:
            d, i = pop(heap)
            if dist[i] >= 0:
                continue
            dist[i] = d
            for j, w in adj[i]:
                if dist[j] < 0:
                    push(heap, (d + w * k, j))
        return dist

    def row(self, src):
        """Distances from vertex id src to every vertex, by index, cached."""
        row = self.rows.get(src)
        if row is None:
            row = self.rows[src] = self.search(((0, self._index[src]),))
        return row

    def distance(self, u, v):
        return self.row(u)[self._index[v]]


# -- points ----------------------------------------------------------------


def _point_rows_of(points):
    """Points as rows (kind, id, num, den): a vertex is kind 0 at offset
    0/1, an interior point kind 1 with its edge id, its offset None/None
    unless a Fraction, anything else (None, itself, None, None)."""
    # an exact type test first: isinstance against Fraction's ABC is slow
    return [(0, p.id, 0, 1) if isinstance(p, Vertex)
            else ((1, p.edge, t.numerator, t.denominator)
                  if type(t := p.offset) is Fraction or isinstance(t, Fraction)
                  else (1, p.edge, None, None)) if isinstance(p, Interior)
            else (None, p, None, None) for p in points]


def _gate(g, rows):
    """The gate every point passes: one loop over rows (kind, id, num, den)
    returns each point's least scale m, making its entry costs whole in units
    of 1/(m*L).  A vertex names a vertex of g, an interior point an edge of
    g, then a Fraction offset strictly inside (0, 1); the first row that
    fails raises InvalidPoint, a non-point's naming the object in its row."""
    index, epos, elen = g._index, g._epos, g._elen
    needs = []
    for kind, i, num, den in rows:
        if kind:
            if type(i) is not int or (e := epos.get(i)) is None:
                e = g._at(i)
            if num is None:
                raise InvalidPoint("interior offset must be a Fraction")
            if not 0 < num < den:
                raise InvalidPoint(
                    f"interior offset {Fraction(num, den)} of edge {i} is outside (0, 1)")
            needs.append(den // gcd(den, elen[e]))
        elif kind == 0:
            if type(i) is not int or i not in index:
                g._vertex_at(i)
            needs.append(1)
        else:
            raise InvalidPoint(f"not a graph point: {i!r}")
    return needs


def validate_point(g: LabeledMetricGraph, p: GraphPoint):
    """Raise InvalidPoint unless p is a point of g: the gate on one point."""
    _gated(g, (p,))


def _gated(g, points):
    """(rows, least scales) of a sequence of points that pass the gate."""
    rows = _point_rows_of(points)
    return rows, _gate(g, rows)


def _scaled(g, points, k=1):
    """(m, scaled): m the least multiple of k that makes a sequence of
    points whole, by the gate, and each point at m from _scaled_rows."""
    rows, needs = _gated(g, points)
    k = lcm(k, *needs)
    return k, _scaled_rows(g, k, rows)


def _scaled_rows(g, k, rows):
    """Gated points given as rows, each in integer units of 1/(k*L), k a
    multiple of their least scales: (edge id, or None for a vertex; the
    (vertex id, cost) pairs of the ways of leaving it)."""
    epos, eu, ev, elen = g._epos, g._eu, g._ev, g._elen
    out = []
    for kind, i, num, den in rows:
        if kind:
            c = num * (ln := elen[e := epos[i]] * k) // den
            out.append((i, ((eu[e], c), (ev[e], ln - c))))
        else:
            out.append((None, ((i, 0),)))
    return out


def _points_of(rows):
    """Gated points as Vertex and Interior objects, one Fraction per offset."""
    fr = {}
    return [Interior(i, fr.get((n, d)) or fr.setdefault((n, d), Fraction(n, d)))
            if kind else Vertex(i) for kind, i, n, d in rows]


def _scaled_distance(g, k, x, y):
    """Distance between two points from _scaled_rows, in units of
    1/(k*L)."""
    (ex, px), (ey, py) = x, y
    vd = g._vdist
    if ex is None and ey is None:
        return vd(px[0][0], py[0][0]) * k
    best = min(ca + vd(a, b) * k + cb for a, ca in px for b, cb in py)
    if ex is not None and ex == ey:
        best = min(best, abs(px[0][1] - py[0][1]))
    return best


def _point_rows(g, k, net):
    """(cols, row), over net, a list of points from _scaled_rows: row(x),
    x such a point, gives x's integer distances in units of 1/(k*L) to
    every vertex by index, then to each distinct interior point of net,
    -1 exactly where x does not reach; cols[t] is net[t]'s column.  A vertex
    at k == 1 with no interior columns gets the engine row itself, unwritten."""
    ix, n, extra = g._index, g.n_vertices, {}
    cols = [ix[entries[0][0]] if edge is None
            else extra.setdefault((edge, entries), n + len(extra))
            for edge, entries in net]
    spans = [(ix[u], cu, ix[v], cv) for _, ((u, cu), (v, cv)) in extra]
    on_edge = {}
    for (edge, ((_, c), _)), col in extra.items():
        on_edge.setdefault(edge, []).append((col, c))
    holes = not g.is_connected()

    def row(x):
        edge, entries = x
        (a, ca), (b, cb) = entries[0], entries[-1]
        ra = g._metric.row(a)
        # p if (p := ...) < (q := ...) else q: min without a call per entry
        if edge is not None:
            r = [p if (p := d * k + ca) < (q := e * k + cb) else q
                 for d, e in zip(ra, g._metric.row(b))]
        elif k != 1 or spans:
            r = [d * k for d in ra]
        else:
            return ra
        if holes:  # d * k + c would turn -1 into a reachable-looking entry
            r = [d if e >= 0 else -1 for d, e in zip(r, ra)]
        r += [p if (p := r[u] + cu) < (q := r[v] + cv) else q for u, cu, v, cv in spans]
        if holes:
            r[n:] = [d if r[u] >= 0 else -1 for d, (u, _, _, _) in zip(r[n:], spans)]
        for t, c in on_edge.get(edge, ()):
            r[t] = min(r[t], abs(ca - c))
        return r

    return cols, row


def _farthest(g, k, dist, on_edge, verts, edges):
    """(distance, point) of the farthest of verts and of the midpoints of
    edges, given by their positions in the edge columns, by a row dist in
    units of 1/(k*L) and on_edge, each edge id's offsets in those units of
    points at 0.  The distance is an integer in doubled units, 1/(2*k*L),
    so midpoints are whole: vertices, then midpoints, each in the given
    order; the first maximum wins, and (0, None) means none is past 0."""
    ix, eids, eu, ev, elen = g._index, g._eids, g._eu, g._ev, g._elen
    best, point = 0, None
    for w in verts:
        d = 2 * dist[ix[w]]
        if d > best:
            best, point = d, Vertex(w)
    for i in edges:
        ln = elen[i] * k
        d = ln + 2 * min(dist[ix[eu[i]]], dist[ix[ev[i]]])
        for pos in on_edge.get(eids[i], ()):
            d = min(d, abs(2 * pos - ln))
        if d > best:
            best, point = d, Interior(eids[i], HALF)
    return best, point


def distance(g: LabeledMetricGraph, p: GraphPoint, q: GraphPoint) -> Fraction:
    """Exact shortest-path distance between two points."""
    k, (x, y) = _scaled(g, (p, q))
    return Fraction(_scaled_distance(g, k, x, y), k * g._scale)


def half_net(g: LabeledMetricGraph):
    """Vertices plus the midpoint of every edge, in deterministic order."""
    return _points_of(_net_rows(g.vertex_ids(), g._eids))


def _net_rows(vids, eids):
    """The gate's rows of the vertices vids, then of the edges' midpoints."""
    return [(0, v, 0, 1) for v in vids] + [(1, e, 1, 2) for e in eids]


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


def _geodesics(g, p, q):
    """Yield every geodesic from p to q lazily, in enumeration order.  The
    walk counts in integer units of 1/(k*L) and enters a vertex only where
    its cost from p plus its distance to q is the total."""
    k, (x, y) = _scaled(g, (p, q))
    (ex, px), (ey, py) = x, y
    total = _scaled_distance(g, k, x, y)
    length = Fraction(total, k * g._scale)
    if ex is not None and ex == ey and abs(px[0][1] - py[0][1]) == total:
        yield Geodesic(p, q, (), (), length)
    togo = _point_rows(g, k, ())[1](y)  # distance still to go, by vertex index
    ends = dict(py)
    adj, index = g._adj, g._index

    def hops(vid, cost):
        for (w, eid), ln in adj[vid].items():
            nc = cost + ln * k
            if nc <= total and nc + togo[index[w]] == total:
                yield w, nc, eid

    # depth-first with an explicit stack, one successor iterator per hop,
    # so geodesics of any length come out in order without recursion
    for a, ca in sorted(px):
        if ca + togo[index[a]] != total:
            continue
        vseq, eseq = [a], []
        if ends.get(a) == total - ca:
            yield Geodesic(p, q, (a,), (), length)
        stack = [hops(a, ca)]
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
            if ends.get(w) == total - nc:
                yield Geodesic(p, q, tuple(vseq), tuple(eseq), length)
            stack.append(hops(w, nc))


def enumerate_geodesics(g: LabeledMetricGraph, p: GraphPoint, q: GraphPoint, cap=1000):
    """All distinct geodesics from p to q, in lexicographic order of hops:
    by first vertex, then by each hop's (next vertex id, edge id), with the
    geodesic inside one edge first.  Raises CapExceeded (carrying the
    truncated list, and quoting each end by at most 40 characters) if
    more than ``cap`` exist; a cap below 1 is a ValueError."""
    if cap < 1:
        raise ValueError(f"cap must be at least 1, got {cap}")
    out = []
    for geo in _geodesics(g, p, q):
        if len(out) >= cap:
            raise CapExceeded(f"more than {cap} geodesics between {p!s:.40} and {q!s:.40}", out)
        out.append(geo)
    return out


def canonical_geodesic(g: LabeledMetricGraph, p: GraphPoint, q: GraphPoint) -> Geodesic:
    """The least geodesic in enumeration order, found without enumerating
    alternatives: every state the walk enters lies on a geodesic, so its
    first branch never backtracks."""
    return next(_geodesics(g, p, q))


def check_geodesic(g, geo: Geodesic):
    """Validate a geodesic against the metric; raises NotAGeodesic.  Its
    vertices must run from an entry vertex of the start along each hop's
    edge to an entry vertex of the end (none only inside one edge), and
    its length in units of 1/(k*L) must be the claim and the distance.
    One adjacency lookup per hop tests the hop and gives its length."""
    p, q, vs, es = geo.start, geo.end, geo.vertices, geo.edges
    exact = _all_ids((*vs, *es))  # 1.0 or True would pass as a key
    try:
        k, (x, y) = _scaled(g, (p, q))
        try:  # one pass over the edge ids, and a second to name a bad one
            if not exact:
                raise KeyError
            hops = list(map(g._epos.__getitem__, es))
        except KeyError:
            hops = list(map(g._at, es))
    except InvalidPoint as exc:
        raise NotAGeodesic(str(exc)) from exc
    (ex, px), (ey, py) = x, y
    if not vs:
        if es or ex is None or ex != ey:
            raise NotAGeodesic("an empty vertex sequence needs both ends inside one edge")
        units = abs(px[0][1] - py[0][1])
    else:
        if len(vs) != len(es) + 1:
            raise NotAGeodesic(f"{len(vs)} vertices do not fit {len(es)} hops")
        try:  # a hop whose edge does not join its vertices reads None
            if not exact:
                raise KeyError
            units = dict(px)[vs[0]] + sum(map(dict.get, map(g._adj.get, vs, repeat({})),
                                              zip(vs[1:], es))) * k + dict(py)[vs[-1]]
        except (KeyError, TypeError):  # a second pass, by ==, finds the first failure
            ids = list(map(_is_id, vs))
            if not (ids[0] and any(v == vs[0] for v, _ in px)
                    and ids[-1] and any(v == vs[-1] for v, _ in py)):
                raise NotAGeodesic(f"vertices {vs[0]}..{vs[-1]} do not join {p} to {q}") from None
            eu, ev = g._eu, g._ev
            i = next(i for i, (a, b, h, b_id) in enumerate(zip(vs, vs[1:], hops, ids[1:]))
                     if not b_id or (eu[h], ev[h]) not in ((a, b), (b, a)))
            raise NotAGeodesic(f"hop {i} does not follow edge {es[i]}") from None
    span = _scaled_distance(g, k, x, y)
    scale, claim = k * g._scale, geo.length
    if units != span or (claim.numerator * scale != units * claim.denominator
                         if type(claim) is Fraction else claim != Fraction(units, scale)):
        raise NotAGeodesic(
            f"claimed length {claim}, segments sum to {Fraction(units, scale)}, "
            f"metric distance is {Fraction(span, scale)}"
        )


def _arc(g, geo):
    """(k, at): the arc length from a geodesic's start to each vertex it
    hits, then to its end, in integer units of 1/(k*L), its ends scaled
    through the gate.  The geodesic must hit a vertex."""
    vs = geo.vertices
    k, ((_, px), (_, py)) = _scaled(g, (geo.start, geo.end))
    at = list(accumulate((g._elen[g._epos[e]] * k for e in geo.edges), initial=dict(px)[vs[0]]))
    at.append(at[-1] + dict(py)[vs[-1]])
    return k, at


def point_along(g, geo: Geodesic, s) -> GraphPoint:
    """The point at arc length s along a geodesic (0 <= s <= length).  Its
    ends pass the gate in _arc, or here in one call at either end or inside
    one edge, where a geodesic that hits no vertex must have both ends;
    else NotAGeodesic, as check_geodesic says."""
    s = Fraction(s)
    if not (0 <= s <= geo.length):
        raise InvalidPoint(f"arc length {s} outside [0, {geo.length}]")
    vs = geo.vertices
    if not vs or s == 0 or s == geo.length:
        (ka, ea, _, _), (kb, eb, _, _) = _gated(g, (geo.start, geo.end))[0]
        if s == 0 or s == geo.length:
            return geo.start if s == 0 else geo.end
        if not (ka and kb and ea == eb):
            raise NotAGeodesic("an empty vertex sequence needs both ends inside one edge")
        a, b = geo.start.offset, geo.end.offset
        local = s * g._scale / g._elen[g._epos[geo.start.edge]]
        return Interior(geo.start.edge, a + local if b > a else a - local)
    k, at = _arc(g, geo)
    x = s * (k * g._scale)
    i = bisect_left(at, x)
    if at[i] == x:
        return Vertex(vs[i])
    # x lies inside an edge: before the first hit on the start's edge,
    # else past hit i - 1 on hop i - 1 or, after the last hit, the end's
    if i == 0:
        eid, a, d = geo.start.edge, vs[0], at[0] - x
    else:
        eid = geo.edges[i - 1] if i < len(vs) else geo.end.edge
        a, d = vs[i - 1], x - at[i - 1]
    i = g._epos[eid]
    t = d / (g._elen[i] * k)
    return Interior(eid, t if a == g._eu[i] else 1 - t)


# -- ball complements and separation ----------------------------------------


@dataclass(frozen=True, slots=True)
class Fragment:
    """A maximal surviving open sub-interval (lo, hi) of an edge, as
    length-fractions.  Fragments are cut at deleted vertices, including
    sphere vertices at distance exactly the radius, and on the center's
    own edge around the center."""

    edge: int
    lo: Fraction
    hi: Fraction
    component: int


@dataclass(frozen=True)
class ComplementIndex:
    """The components of a graph minus a closed ball.

    ``vertex_component`` maps each surviving vertex id to its component;
    ``fragments`` lists every fragment, by edge id and then by ``lo``.
    Components are numbered first by their least surviving vertex id,
    then, for vertex-free fragments, by (edge id, lo)."""

    center: GraphPoint
    radius: Fraction
    vertex_component: dict
    fragments: tuple
    n_components: int


def _ball_cut(g, center, radius):
    """The closed ball around ``center`` deleted from g, in integer units
    of 1/(k*L), k the gate's scale for the center and the radius.  Returns
    (alive, pieces): alive[i] tells whether the vertex of index i survives,
    and pieces(h) yields the open surviving parts of the edge at position h
    of the columns, of length ln in these units, as (a, b, ln, ends), ends
    the ids of the surviving endpoints the part runs into."""
    r = Fraction(radius)
    if r < 0:
        raise ValueError("radius must be >= 0")
    k, (point,) = _scaled(g, (center,), r.denominator // gcd(r.denominator, g._scale))
    rk = r.numerator * (k * g._scale // r.denominator)
    center_edge, entries = point
    row = _point_rows(g, k, ())[1](point)
    if -1 in row:
        raise DisconnectedGraph("graph must be connected")
    # how far the ball reaches past each vertex into its edges; < 0: alive
    reach = [rk - d for d in row]
    alive = [x < 0 for x in reach]
    idx = g._index

    def pieces(h):
        # the ball covers [0, reach[i]], [ln - reach[j], ln] and, on the
        # center's edge, [c - rk, c + rk]: at most two open parts survive
        u, v = g._eu[h], g._ev[h]
        i, j = idx[u], idx[v]
        ln = g._elen[h] * k
        lo, hi = max(reach[i], 0), ln - max(reach[j], 0)
        parts = ((lo, hi),)
        if g._eids[h] == center_edge:
            c = entries[0][1]
            parts = ((lo, min(hi, c - rk)), (max(lo, c + rk), hi))
        for a, b in parts:
            # a part ending exactly at a deleted vertex (a sphere point) is
            # open there and does not run into it
            if a < b:
                yield a, b, ln, tuple(w for w, end in ((u, a == 0 and alive[i]),
                                                       (v, b == ln and alive[j])) if end)

    return alive, pieces


def _reach(g, center, alive, seeds):
    """Breadth-first search from the vertex ids seeds, in the order of
    g._adj, over the edges that survive the ball whole: both ends alive
    and the center not on them.  Yields each vertex reached with the
    dict of predecessors so far."""
    center_edge = center.edge if isinstance(center, Interior) else None
    idx = g._index
    prev = dict.fromkeys(seeds)
    q = deque(prev)
    while q:
        v = q.popleft()
        yield v, prev
        for w, eid in g._adj[v]:
            if w not in prev and eid != center_edge and alive[idx[w]]:
                prev[w] = v
                q.append(w)


def ball_complement_components(g: LabeledMetricGraph, center: GraphPoint, radius):
    """Delete the closed ball around ``center`` exactly and return the
    connected components of what survives."""
    alive, pieces = _ball_cut(g, center, radius)
    vertex_component = {}
    n = 0
    for vid, ok in zip(g._ids, alive):
        if ok and vid not in vertex_component:
            for v, _ in _reach(g, center, alive, (vid,)):
                vertex_component[v] = n
            n += 1
    fragments = []
    for h, eid in enumerate(g._eids):
        for a, b, ln, ends in pieces(h):
            if ends:
                c = vertex_component[ends[0]]
            else:
                c, n = n, n + 1
            fragments.append(Fragment(eid, ZERO if a == 0 else Fraction(a, ln),
                                      ONE if b == ln else Fraction(b, ln), c))
    return ComplementIndex(center, Fraction(radius), vertex_component, tuple(fragments), n)


def is_separated(g, x: GraphPoint, y: GraphPoint, w: GraphPoint, r) -> bool:
    """True iff every path from x to y meets the closed ball around w of
    radius r: no avoiding path exists."""
    _gated(g, (x, y))
    return _avoiding_path(g, w, r, x, y) is None


def _avoiding_path(g, center, radius, x, y):
    """The vertex ids of a path from x to y outside the closed ball around
    center: [] when one vertex-free part holds both, None when the ball
    holds either point or separates them.  The search runs from the
    surviving vertices that x reaches inside its edge to those of y.  x and
    y must have passed the gate; they are not scaled: the cut keeps the
    center's own scale."""
    alive, pieces = _ball_cut(g, center, radius)

    def part(p):
        # (edge id, a, ends) of the part holding p, None when the ball does
        if isinstance(p, Vertex):
            return (None, None, (p.id,)) if alive[g._index[p.id]] else None
        t = p.offset
        for a, b, ln, ends in pieces(g._epos[p.edge]):
            if a * t.denominator < t.numerator * ln < b * t.denominator:
                return p.edge, a, ends
        return None

    if (px := part(x)) is None or (py := part(y)) is None:
        return None
    if not px[2] or not py[2]:
        return [] if px == py else None
    targets = set(py[2])
    for v, prev in _reach(g, center, alive, sorted(px[2])):
        if v in targets:
            path = [v]
            while prev[path[-1]] is not None:
                path.append(prev[path[-1]])
            return path[::-1]
    return None


def multi_source_vertex_distances(g, seeds):
    """Exact distance from weighted seeds, (vertex id, initial cost) pairs,
    to every vertex: a dict id -> Fraction, None where unreachable."""
    seeds = [(vid, Fraction(c)) for vid, c in seeds]
    ix = [g._vertex_at(vid, "unknown vertex id") for vid, _ in seeds]
    s = lcm(g._scale, *(c.denominator for _, c in seeds))
    dist = g._metric.search([(c.numerator * (s // c.denominator), i)
                             for (_, c), i in zip(seeds, ix)], s // g._scale)
    return {vid: Fraction(d, s) if d >= 0 else None for vid, d in zip(g._ids, dist)}
