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
    Vertex,
    _farthest,
    _point_rows,
    _point_scale,
    _scaled,
    _scaled_distance,
    _scaled_point,
    point_key,
)


def _ceil(fr: Fraction) -> int:
    return -((-fr.numerator) // fr.denominator)


class QuasiMap:
    """A point assignment between two graphs.

    assignments: iterable of (source point, target point).  They are stored
    sorted by the source point order, which fixes the domain order used by
    every downstream computation.
    """

    def __init__(self, source, target, assignments, asserted_constant=None):
        self.source = source
        self.target = target
        pairs = list(assignments)
        # each side passes the gate whole before point_key reads a point
        _point_scale(source, [p for p, _ in pairs])
        _point_scale(target, [q for _, q in pairs])
        pairs.sort(key=lambda pq: point_key(pq[0]))
        # equal points have equal keys, so a duplicate follows its twin
        for (p, _), (q, _) in zip(pairs, pairs[1:]):
            if p == q:
                raise DomainNotNet(f"duplicate domain point {p}")
        self.assignments = tuple(pairs)
        self.asserted_constant = asserted_constant

    @cached_property
    def _image(self):
        return dict(self.assignments)

    def domain(self):
        return tuple(p for p, _ in self.assignments)

    def image_of(self, p: GraphPoint) -> GraphPoint:
        try:
            return self._image[p]
        except (KeyError, TypeError):
            raise InvalidPoint(f"{p} is not in the map's domain") from None

    def __len__(self):
        return len(self.assignments)


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


def _require_int(n):
    """A constant is an int, not a bool: the kernel's slacks must be exact."""
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError("constant must be a positive integer")


def _check_sampling(mode, modes, seed, count):
    """The argument checks of every exhaustive-or-sampled certificate."""
    if mode not in modes:
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "sampled" and (seed is None or count is None):
        raise ValueError("sampled mode needs a seed and a count")
    if count is not None and count < 0:
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
    have = {p.id for p, _ in m.assignments if isinstance(p, Vertex)}
    for vid in m.source.vertex_ids():
        if vid not in have:
            raise DomainNotNet(f"domain does not cover source vertex {vid}")


def surjectivity_radius(m: QuasiMap):
    """Exact max over the target half-net of the distance to the image and a
    witness point attaining it, from one search seeded at distinct images."""
    tgt = m.target
    k, images = _scaled(tgt, [q for _, q in m.assignments])
    seeds, on_edge = [], {}
    for edge, entries in dict.fromkeys(images):
        seeds.extend((c, tgt._index[v]) for v, c in entries)
        if edge is not None:
            on_edge.setdefault(edge, []).append(entries[0][1])
    dist = tgt._search(seeds, k)
    if min(dist, default=0) < 0:
        raise DisconnectedGraph("target must be connected")
    best, point = _farthest(tgt, k, dist, on_edge, tgt.vertex_ids(), range(tgt.n_edges))
    return Fraction(best, 2 * k * tgt._scale), point


def _scaled_pairs(m, pairs):
    """The pairs' domain and image points in integer units of 1/S, one
    common scale for both graphs: (S, source points, target points)."""
    src, tgt = m.source, m.target
    s = lcm(
        src._scale * _point_scale(src, (p for p, _ in pairs)),
        tgt._scale * _point_scale(tgt, (q for _, q in pairs)),
    )
    ks, kt = s // src._scale, s // tgt._scale
    return (
        s,
        (src, ks, [_scaled_point(src, p, ks) for p, _ in pairs]),
        (tgt, kt, [_scaled_point(tgt, q, kt) for _, q in pairs]),
    )


def _kernel_side(g, k, pts):
    """One graph's half of the pair kernel, in units of 1/(k*L): each
    point's column and point i's row, from _point_rows, and on a closed
    form the steps, the distances from each point to the next, and
    dist(i, j), points i and j's distance read without a row.  Elsewhere
    both are None: each step or read would search a row."""
    cols, row = _point_rows(g, k, pts)
    dist = (None if g._closed_form is None
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
                if dt > n * ds + up or ds > n * dt + lo:
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

    pairs = [
        pq for pq in m.assignments
        if mode != "vertex-exhaustive" or isinstance(pq[0], Vertex)
    ]
    hit = None
    if mode == "sampled":
        # each draw at its own scale: only the drawn points are scaled
        pairs_checked = 0
        for i, j in _draws(len(pairs), 2, mode, seed, count):
            pairs_checked += 1
            s, (src, ks, (x, y)), (tgt, kt, (u, v)) = _scaled_pairs(m, (pairs[i], pairs[j]))
            ds = _scaled_distance(src, ks, x, y)
            dt = _scaled_distance(tgt, kt, u, v)
            if dt > n * ds + n * s or ds > n * dt + n * n * s:
                hit = i, j, ds, dt
                break
    else:
        s, (src, ks, ps), (tgt, kt, pt) = _scaled_pairs(m, pairs)
        hit = _first_violation(
            _kernel_side(src, ks, ps), _kernel_side(tgt, kt, pt), n, s, (0, 1)
        )
        size = len(pairs)
        pairs_checked = size * (size - 1) // 2
        if hit:
            i, j = hit[:2]
            # pairs of rows before i, then j - i pairs of row i
            pairs_checked = i * size - i * (i + 1) // 2 + j - i
    violations = ()
    if hit:
        i, j, ds, dt = hit
        ds, dt = Fraction(ds, s), Fraction(dt, s)
        violations = (PairViolation(
            pairs[i][0], pairs[j][0], ds, dt, ds / n - n, n * ds + n
        ),)
    return QiCertificate(n, mode, seed, count, pairs_checked, radius, violations)


def minimal_qi_constant(m: QuasiMap, cap: Optional[int] = None) -> int:
    """Smallest integer constant at which exhaustive verification accepts.

    All three acceptance conditions are monotone in the constant, so the
    minimum is the max of the per-pair and surjectivity minima: the scan
    raises the constant to each violating pair's minimum and resumes at
    that pair.  A cap below 1 is a ValueError, raised before any work.
    """
    if cap is not None and cap < 1:
        raise ValueError(f"cap must be at least 1, got {cap}")
    _require_connected(m)
    _require_vertex_cover(m)
    radius, _ = surjectivity_radius(m)
    best = max(1, _ceil(radius))
    pairs = list(m.assignments)
    s, (src, ks, ps), (tgt, kt, pt) = _scaled_pairs(m, pairs)
    sides = _kernel_side(src, ks, ps), _kernel_side(tgt, kt, pt)
    hit = (0, 1)
    while True:
        if cap is not None and best > cap:
            raise NotCoarselySurjective(
                f"no constant up to {cap} makes the map a quasi-isometry"
            )
        hit = _first_violation(*sides, best, s, hit[:2])
        if hit is None:
            return best
        _, _, ds, dt = hit
        best = max(best, -(-dt // (ds + s)))
        while best * best * s + best * dt < ds:
            best += 1


def _distance_rows(g, sources, targets):
    """(k*L, row), k the gate's one scale for all the points, each scaled
    once: row(i), i an index into sources then targets, is that point's
    integer distances to all targets in units of 1/(k*L) from _point_rows,
    raising DisconnectedGraph where one does not reach."""
    k, pts = _scaled(g, (*sources, *targets))
    cols, point_row = _point_rows(g, k, pts[len(sources):])

    def row(i):
        _, entries = x = pts[i]
        r = point_row(x)
        out = [r[c] for c in cols]
        if -1 in out:
            raise DisconnectedGraph(f"vertex {entries[0][0]} does not reach every target")
        return out

    return k * g._scale, row


def _snap(g, queries, points):
    """The nearest of ``points`` to each query: each row's first least entry in point_key order."""
    net = sorted(points, key=point_key)
    if queries and not net:
        raise InvalidPoint("cannot snap onto an empty net")
    row = _distance_rows(g, queries, net)[1]
    return [net[r.index(min(r))] for r in map(row, range(len(queries)))]


def compose(m2: QuasiMap, m1: QuasiMap) -> QuasiMap:
    """m2 after m1; images of m1 are snapped onto m2's domain on integer
    distance rows, ties toward the smaller point key, DisconnectedGraph
    where an image and a domain point lie in different components."""
    if not m1.target.same_structure(m2.source):
        raise GraphMismatch("middle graphs of the composition differ")
    snapped = _snap(m1.target, [q for _, q in m1.assignments], m2.domain())
    out = [(p, m2.image_of(x)) for (p, _), x in zip(m1.assignments, snapped)]
    return QuasiMap(m1.source, m2.target, out)

