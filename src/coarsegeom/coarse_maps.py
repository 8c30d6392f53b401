"""Maps between metric graphs and their coarse-isometry certificates.

A QuasiMap assigns a target point to every point of a declared net of the
source (the net must at minimum contain all source vertices).  Verification
checks the two-sided distance bound with constant N together with coarse
surjectivity: every point of the target half-net must lie within N of the
image.  All comparisons are exact: one kernel certifies every pair in
integer distances at a scale common to both graphs, whole blocks at once
where the triangle inequality proves them safe, and exhaustive
verification and the minimal constant share it.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, combinations
from math import lcm
from operator import lt
from typing import Optional

from .errors import (
    DisconnectedGraph,
    DomainNotNet,
    GraphMismatch,
    InvalidPoint,
    NotCoarselySurjective,
)
from .metric_graph import (
    GraphPoint,
    _farthest,
    _gate,
    _point_rows,
    _point_rows_of,
    _points_of,
    _scaled_distance,
    _scaled_rows,
    point_key,
    validate_point,
)


def _ceil(fr: Fraction) -> int:
    return -((-fr.numerator) // fr.denominator)


class QuasiMap:
    """A point assignment between two graphs.

    assignments: iterable of (source point, target point).  Each side of
    the map is kept as a side, (rows, least scales): the gate's row (kind,
    id, num, den) of each of its points and that point's least scale,
    gated once.  Both are in source point order, which fixes the domain
    order used by every downstream computation; the points are a view,
    made on first read.
    """

    def __init__(self, source, target, assignments, asserted_constant=None):
        pairs = list(assignments)
        self._keep(source, target, _point_rows_of(p for p, _ in pairs),
                   _point_rows_of(q for _, q in pairs), asserted_constant)

    @classmethod
    def _of_rows(cls, source, target, src, tgt, asserted_constant=None):
        """The map whose sides are given as the gate's rows."""
        (m := cls.__new__(cls))._keep(source, target, src, tgt, asserted_constant)
        return m

    def _keep(self, source, target, src, tgt, asserted_constant):
        """Gate each side's rows once and sort by the source points when
        their (kind, id) keys are not strictly increasing: a duplicate then
        follows its twin."""
        needs = _gate(source, src), _gate(target, tgt)
        keys = [row[:2] for row in src]
        if not all(map(lt, keys, keys[1:])):
            pts = _points_of(src)
            order = sorted(range(len(pts)), key=lambda i: point_key(pts[i]))
            for p, q in zip(order, order[1:]):
                if pts[p] == pts[q]:
                    raise DomainNotNet(f"duplicate domain point {pts[p]}")
            src, tgt, *needs = ([side[i] for i in order] for side in (src, tgt, *needs))
            keys.sort()
        self.source, self.target, self.asserted_constant = source, target, asserted_constant
        self._src, self._tgt = (src, needs[0]), (tgt, needs[1])
        # vertices sort first, so the domain's vertex points are a prefix
        self._n_vertex_points = bisect_left(keys, (1,))

    @cached_property
    def assignments(self):
        return tuple(zip(_points_of(self._src[0]), _points_of(self._tgt[0])))

    @cached_property
    def _image(self):
        return dict(self.assignments)

    def image_of(self, p: GraphPoint) -> GraphPoint:
        """The image of p, which passes the source's gate first: ids and
        offsets that only compare equal to a point's are refused."""
        validate_point(self.source, p)
        try:
            return self._image[p]
        except KeyError:
            raise InvalidPoint(f"{p} is not in the map's domain") from None

    def __len__(self):
        return len(self._src[1])


def _picked(side, rows):
    """A side's points at rows, a slice or a sequence of indices, as a side."""
    pts, needs = side
    if isinstance(rows, slice):
        return pts[rows], needs[rows]
    return [pts[i] for i in rows], [needs[i] for i in rows]


@dataclass(frozen=True)
class PairViolation:
    x: GraphPoint
    y: GraphPoint
    d_source: Fraction
    d_target: Fraction
    lower_bound: Fraction
    upper_bound: Fraction


@dataclass(frozen=True)
class SurjectivityViolation:
    point: GraphPoint
    dist: Fraction
    bound: Fraction


@dataclass(frozen=True)
class QiCertificate:
    constant: int
    mode: str
    seed: Optional[int]
    count: Optional[int]
    pairs_checked: int
    surjectivity_radius: Fraction
    violations: tuple

    @property
    def accepted(self) -> bool:
        return not self.violations


def _require_int(n, message="constant must be a positive integer"):
    """An int, not a bool: the kernel's slacks are exact, and range takes no other."""
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError(message)


def _check_sampling(mode, modes, seed, count):
    """The argument checks of every exhaustive-or-sampled certificate."""
    if mode not in modes:
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "sampled" and (seed is None or count is None):
        raise ValueError("sampled mode needs a seed and a count")
    if count is not None:
        _require_int(count, "sample count must be an integer")
        if count < 0:
            raise ValueError("sample count must be >= 0")


def _draws(size, k, mode, seed, count):
    """The index k-tuples of range(size) a certificate examines: all of
    them in lexicographic order, or in sampled mode ``count`` seeded
    draws, none when fewer than k indices exist."""
    if mode != "sampled":
        return combinations(range(size), k)
    rng = random.Random(seed)
    return (rng.sample(range(size), k) for _ in range(count if size >= k else 0))


def _require_connected(m: QuasiMap):
    if not m.source.is_connected() or not m.target.is_connected():
        raise DisconnectedGraph("quasi-isometry checks need connected graphs")


def _require_vertex_cover(m: QuasiMap):
    # the domain's vertex points are gated and distinct: they cover if as many
    if m._n_vertex_points < m.source.n_vertices:
        have = {vid for _, vid, _, _ in m._src[0][:m._n_vertex_points]}
        vid = next(v for v in m.source.vertex_ids() if v not in have)
        raise DomainNotNet(f"domain does not cover source vertex {vid}")


def surjectivity_radius(m: QuasiMap):
    """Exact max over the target half-net of the distance to the image and a
    witness point attaining it, from one search seeded at distinct images."""
    tgt, (rows, needs) = m.target, m._tgt
    k = lcm(*set(needs))
    seeds, on_edge = [], {}
    for edge, entries in _scaled_rows(tgt, k, dict.fromkeys(rows)):
        seeds.extend((c, tgt._index[v]) for v, c in entries)
        if edge is not None:
            on_edge.setdefault(edge, []).append(entries[0][1])
    dist = tgt._metric.search(seeds, k)
    if min(dist, default=0) < 0:
        raise DisconnectedGraph("target must be connected")
    best, point = _farthest(tgt, k, dist, on_edge, tgt.vertex_ids(), range(tgt.n_edges))
    return Fraction(best, 2 * k * tgt._scale), point


def _scaled_pairs(m, rows):
    """The points of m's rows (see _picked) in integer units of 1/S, S common
    to both graphs and the least for these points: (S, source, target)."""
    src, tgt = m.source, m.target
    (rs, ns), (rt, nt) = _picked(m._src, rows), _picked(m._tgt, rows)
    s = lcm(src._scale * lcm(*set(ns)), tgt._scale * lcm(*set(nt)))
    ks, kt = s // src._scale, s // tgt._scale
    return (
        s,
        (src, ks, _scaled_rows(src, ks, rs)),
        (tgt, kt, _scaled_rows(tgt, kt, rt)),
    )


def _breaks(n, s, ds, dt):
    """Whether distances ds and dt, in units of 1/s, break the bound of n."""
    return dt > n * ds + n * s or ds > n * dt + n * n * s


def _kernel_side(g, k, pts):
    """One graph's half of the pair kernel, in units of 1/(k*L): each
    point's column and point i's row, from _point_rows, and where the
    graph's metric reads a pair without a search, the steps, the distances
    from each point to the next, and dist(i, j), points i and j's distance
    read without a row.  Elsewhere both are None: each would search a row."""
    cols, row = _point_rows(g, k, pts)
    dist = (None if g._metric.searches
            else lambda i, j: _scaled_distance(g, k, pts[i], pts[j]))
    steps = dist and [dist(i, i + 1) for i in range(len(pts) - 1)]
    return cols, lambda i: row(pts[i]), steps, dist


def _first_violation(side_s, side_t, n, s, start):
    """The first pair (i, j), i < j, from ``start`` on in domain order whose
    distances break the bound with constant n, as (i, j, ds, dt) in units
    of 1/s; None if every pair holds.  A stack holds bands: row ranges,
    each with the sorted column spans past it that it still owes, handed
    with its inner columns to its halves, lower half first.  From (i, j) to
    (i2, j2) the slacks n*ds + n*s - dt and n*dt + n*n*s - ds fall by at
    most the moves on Q1 = n*Ps + Pt and Q2 = Ps + n*Pt, P a side's prefix
    sums of steps.  So on closed forms a band of rows reads (middle row, j)
    back from each span's end, each read certifying the band's rows back
    to where Q has fallen by its slack less the band's half-height h, up to
    a read whose slack cannot cover h.  A single row reads all it owes, from
    its rows past 64 columns or without a closed form, and only it reports,
    in row order: the witness is the first failing pair."""
    (a, row_s, steps_s, dist_s), (b, row_t, steps_t, dist_t) = side_s, side_t
    up, lo = n * s, n * n * s
    closed = dist_s is not None and dist_t is not None
    if closed:
        q1 = list(accumulate((n * x + y for x, y in zip(steps_s, steps_t)), initial=0))
        q2 = list(accumulate((x + n * y for x, y in zip(steps_s, steps_t)), initial=0))
    i0, j0 = start
    count = len(a)
    stack = [(i0 + 1, count, []), (i0, i0 + 1, [(j0, count)])]
    while stack:
        r0, r1, spans = stack.pop()
        if r1 - r0 > 1:
            mid = (r0 + r1) // 2
            if closed:
                h1 = max(q1[mid] - q1[r0], q1[r1 - 1] - q1[mid])
                h2 = max(q2[mid] - q2[r0], q2[r1 - 1] - q2[mid])
                owed = []
                for c0, c1 in spans:
                    j = c1 - 1
                    while j >= c0:
                        ds, dt = dist_s(mid, j), dist_t(mid, j)
                        g1, g2 = n * ds + up - dt - h1, n * dt + lo - ds - h2
                        if g1 < 0 or g2 < 0:
                            break
                        j = max(bisect_left(q1, q1[j] - g1, c0, j),
                                bisect_left(q2, q2[j] - g2, c0, j)) - 1
                    if j >= c0:
                        owed.append((c0, j + 1))
                spans = owed
            # the columns inside the band, joined to an owed span they meet
            low = ([(mid, spans[0][1]), *spans[1:]] if spans and spans[0][0] == r1
                   else [(mid, r1), *spans])
            stack += (mid, r1, spans), (r0, mid, low)
            continue
        width = sum(c1 - c0 for c0, c1 in spans)
        if width <= 0:
            continue
        if closed and width <= 64:
            # rows of the owed columns alone
            rs = {a[j]: dist_s(r0, j) for c0, c1 in spans for j in range(c0, c1)}
            rt = {b[j]: dist_t(r0, j) for c0, c1 in spans for j in range(c0, c1)}
        else:
            rs, rt = row_s(r0), row_t(r0)
        for c0, c1 in spans:
            for j in range(c0, c1):
                ds, dt = rs[a[j]], rt[b[j]]
                if _breaks(n, s, ds, dt):
                    return r0, j, ds, dt
    return None


def verify_quasi_isometry(
    m: QuasiMap,
    n: int,
    mode: str = "exhaustive",
    seed: Optional[int] = None,
    count: Optional[int] = None,
) -> QiCertificate:
    """Check the two-sided bound with constant n on the selected pairs and
    the coarse surjectivity radius.  The first violation (in domain order,
    or draw order when sampling) becomes the certificate witness, and
    pairs_checked counts pairs up to and including it, read or not."""
    _require_int(n)
    if n < 1:
        raise ValueError("constant must be a positive integer")
    _check_sampling(mode, ("exhaustive", "vertex-exhaustive", "sampled"), seed, count)
    _require_connected(m)
    _require_vertex_cover(m)

    radius, rad_witness = surjectivity_radius(m)
    if radius > n:
        violation = SurjectivityViolation(rad_witness, radius, Fraction(n))
        return QiCertificate(n, mode, seed, count, 0, radius, (violation,))

    hit = None
    if mode == "sampled":
        # each draw at its own scale: only the drawn points are scaled
        pairs_checked = 0
        for i, j in _draws(len(m), 2, mode, seed, count):
            pairs_checked += 1
            s, (src, ks, (x, y)), (tgt, kt, (u, v)) = _scaled_pairs(m, (i, j))
            ds, dt = _scaled_distance(src, ks, x, y), _scaled_distance(tgt, kt, u, v)
            if _breaks(n, s, ds, dt):
                hit = i, j, ds, dt
                break
    else:
        # the vertex points are the domain's first rows, at their own scale
        size = m._n_vertex_points if mode == "vertex-exhaustive" else len(m)
        s, (src, ks, ps), (tgt, kt, pt) = _scaled_pairs(m, slice(size))
        hit = _first_violation(
            _kernel_side(src, ks, ps), _kernel_side(tgt, kt, pt), n, s, (0, 1)
        )
        pairs_checked = size * (size - 1) // 2
        if hit:
            i, j = hit[:2]
            # pairs of rows before i, then j - i pairs of row i
            pairs_checked = i * size - i * (i + 1) // 2 + j - i
    violations = ()
    if hit:
        i, j, ds, dt = hit
        ds, dt = Fraction(ds, s), Fraction(dt, s)
        x, y = _points_of(_picked(m._src, (i, j))[0])
        violations = (PairViolation(x, y, ds, dt, ds / n - n, n * ds + n),)
    return QiCertificate(n, mode, seed, count, pairs_checked, radius, violations)


def minimal_qi_constant(m: QuasiMap, cap: Optional[int] = None) -> int:
    """Smallest integer constant at which exhaustive verification accepts.

    All three acceptance conditions are monotone in the constant, so the
    minimum is the max of the per-pair and surjectivity minima: the scan
    raises the constant to each violating pair's minimum and resumes at
    that pair.  A cap not an int of at least 1 is a ValueError, at once.
    """
    return _minimal_constant(m, cap)[0]


def _minimal_constant(m, cap=None):
    """(minimal_qi_constant(m, cap), the surjectivity radius it starts from)."""
    if cap is not None:
        _require_int(cap, "cap must be an integer")
        if cap < 1:
            raise ValueError(f"cap must be at least 1, got {cap}")
    _require_connected(m)
    _require_vertex_cover(m)
    radius, _ = surjectivity_radius(m)
    best = max(1, _ceil(radius))
    s, (src, ks, ps), (tgt, kt, pt) = _scaled_pairs(m, slice(None))
    sides = _kernel_side(src, ks, ps), _kernel_side(tgt, kt, pt)
    hit = (0, 1)
    while True:
        if cap is not None and best > cap:
            raise NotCoarselySurjective(
                f"no constant up to {cap} makes the map a quasi-isometry"
            )
        hit = _first_violation(*sides, best, s, hit[:2])
        if hit is None:
            return best, radius
        _, _, ds, dt = hit
        best = max(best, -(-dt // (ds + s)))
        while best * best * s + best * dt < ds:
            best += 1


def _distance_rows(g, sources, targets):
    """(k*L, row), sources and targets gated points of g as sides (see
    QuasiMap), k the least scale of them all, each point scaled once: row(i),
    i an index into sources then targets, is that point's integer distances
    to all targets in units of 1/(k*L) from _point_rows, raising
    DisconnectedGraph where one does not reach."""
    k = lcm(*set(sources[1]), *set(targets[1]))
    pts = _scaled_rows(g, k, [*sources[0], *targets[0]])
    cols, point_row = _point_rows(g, k, pts[len(sources[1]):])

    def row(i):
        _, entries = x = pts[i]
        r = point_row(x)
        out = [r[c] for c in cols]
        if -1 in out:
            raise DisconnectedGraph(f"vertex {entries[0][0]} does not reach every target")
        return out

    return k * g._scale, row


def _snap(g, queries, net):
    """The index in the net of each query's nearest point, both gated points
    of g as sides (see QuasiMap), the net in point_key order: ties go to the
    smaller point key."""
    if queries[1] and not net[1]:
        raise InvalidPoint("cannot snap onto an empty net")
    row = _distance_rows(g, queries, net)[1]
    return [r.index(min(r)) for r in map(row, range(len(queries[1])))]


def compose(m2: QuasiMap, m1: QuasiMap) -> QuasiMap:
    """m2 after m1; images of m1 are snapped onto m2's domain on integer
    distance rows, ties toward the smaller point key, DisconnectedGraph
    where an image and a domain point lie in different components."""
    if not m1.target.same_structure(m2.source):
        raise GraphMismatch("middle graphs of the composition differ")
    snapped = _snap(m1.target, m1._tgt, m2._src)
    images = list(map(m2._tgt[0].__getitem__, snapped))
    return QuasiMap._of_rows(m1.source, m2.target, m1._src[0], images)
