"""The doubled-edge branching graph of a set family, and its quotient tree.

Given a family of disjoint finite sets, the level-0 graph has a base vertex
joined to every element at level 1 by a pair of parallel labeled edges, and
doubled edges inside each arm between elements of one set at levels that
differ by at most one.  Collapsing each arm level to a single vertex gives
a star-of-paths tree over the same family.  Everything is truncated at a
finite depth and all lengths are 1.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional

from .coarse_maps import QuasiMap
from .errors import (
    DepthTooSmall,
    DuplicateElement,
    EmptyFamily,
    EmptyMemberSet,
    FamilyMismatch,
    InternalError,
    NoAlternateArm,
    NotAGeodesic,
)
from .metric_graph import (
    HALF,
    Geodesic,
    GraphPoint,
    Interior,
    LabeledMetricGraph,
    Vertex,
    check_geodesic,
    distance,
    is_separated,
    validate_point,
)


@dataclass(frozen=True)
class NamedSet:
    name: str
    elements: tuple

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        if not self.elements:
            raise EmptyMemberSet(f"set {self.name!r} has no elements")


@dataclass(frozen=True)
class SetFamily:
    sets: tuple

    def __post_init__(self):
        object.__setattr__(self, "sets", tuple(self.sets))
        if not self.sets:
            raise EmptyFamily("family has no member sets")
        seen_names = set()
        seen_elems = set()
        for s in self.sets:
            if s.name in seen_names:
                raise DuplicateElement(f"duplicate set name {s.name!r}")
            seen_names.add(s.name)
            for e in s.elements:
                if e in seen_elems:
                    raise DuplicateElement(f"element {e!r} appears twice")
                seen_elems.add(e)

    @classmethod
    def of_lists(cls, lists, names=None):
        if names is None:
            names = [f"X{i}" for i in range(len(lists))]
        return cls(tuple(NamedSet(n, tuple(l)) for n, l in zip(names, lists)))

    def all_elements(self):
        return tuple(e for s in self.sets for e in s.elements)

    def set_index_of(self, element):
        for i, s in enumerate(self.sets):
            if element in s.elements:
                return i
        raise KeyError(element)


class _ArmMetric:
    """Closed-form vertex distances of a star of unit-length arms.

    Vertex 0 is the base and vertex ``1 + arm*depth + (level-1)`` sits on
    an arm at a level in 1..depth.  Arms of one member set are joined at
    every level and between adjacent levels (the doubled-edge graph's
    elements); arms of different sets meet only at the base.  For arm
    vertices (a, n) and (b, m) the distance is
      - n from the base to (a, n);
      - |n - m| when a and b lie in one set and n != m;
      - 1 when a and b are different arms of one set and n == m;
      - n + m when a and b lie in different sets.
    ``arm_sets`` gives each arm's set index; the quotient tree is the case
    of one arm per set.  The formula holds only for the graphs that
    build_gamma0 and build_gamma1 return, so only they may attach it; the
    integer Dijkstra of LabeledMetricGraph serves every other graph.  Its
    ``key`` (kind, family, depth) names the build, so a graph carrying it
    is known to be that builder's graph without comparing structures.
    """

    def __init__(self, kind, family, depth):
        self.key = (kind, family, depth)
        self.arm_sets = tuple(si for si, s in enumerate(family.sets)
                              for _ in (s.elements if kind == "gamma0" else (s,)))
        self.depth = depth
        self.n_vertices = 1 + len(self.arm_sets) * depth
        # rows are cut from these two with memcpy-speed slices: _vee[k] is
        # |k - depth|, so one slice gives a level's distances along its arm
        self._asc = array("i", range(2 * depth + 1))
        self._vee = array("i", (abs(k - depth) for k in range(2 * depth + 1)))

    def distance(self, u, v):
        if u == v:
            return 0
        depth = self.depth
        if u == 0 or v == 0:
            return (max(u, v) - 1) % depth + 1
        a, n = divmod(u - 1, depth)
        b, m = divmod(v - 1, depth)
        if self.arm_sets[a] != self.arm_sets[b]:
            return n + m + 2
        return abs(n - m) or 1

    def row(self, src):
        """Distances from src to every vertex, indexed by vertex id; a
        fresh array on every call, since rows are too cheap to cache."""
        if not 0 <= src < self.n_vertices:
            raise KeyError(src)
        depth, asc = self.depth, self._asc
        if src == 0:
            return array("i", (0,)) + asc[1:depth + 1] * len(self.arm_sets)
        a, rem = divmod(src - 1, depth)
        n = rem + 1
        own = self._vee[depth + 1 - n:2 * depth + 1 - n]
        sibling = own[:]
        sibling[n - 1] = 1
        far = asc[n + 1:n + depth + 1]
        home = self.arm_sets[a]
        row = array("i", (n,))
        for b, s in enumerate(self.arm_sets):
            row += own if b == a else sibling if s == home else far
        return row


class GammaZeroGraph:
    """The level-0 graph of a family, truncated at a depth, plus the
    element/level bookkeeping its operations need."""

    def __init__(self, graph: LabeledMetricGraph, family: SetFamily, depth: int):
        self.graph = graph
        self.family = family
        self.depth = depth
        self._elems = family.all_elements()
        self._elem_pos = {e: i for i, e in enumerate(self._elems)}
        self._elem_set = {
            e: si for si, s in enumerate(family.sets) for e in s.elements
        }
        # per set, the index of its first element and its first in-arm edge
        self._set_starts, first, edge = [], 0, 2 * len(self._elems)
        for s in family.sets:
            k = len(s.elements)
            self._set_starts.append((first, edge))
            first, edge = first + k, edge + depth * k * (k - 1) + (depth - 1) * 2 * k * k

    def vertex_of(self, element: str, level: int) -> int:
        if level < 1 or level > self.depth or element not in self._elem_pos:
            raise KeyError((element, level))
        return 1 + self._elem_pos[element] * self.depth + (level - 1)

    def info(self, vid: int):
        """(element, set index, level) for an arm vertex; None for the base."""
        if vid == 0:
            return None
        i, rem = divmod(vid - 1, self.depth)
        element = self._elems[i]
        return (element, self._elem_set[element], rem + 1)


def build_gamma0(family: SetFamily, depth: int) -> GammaZeroGraph:
    """Construct the truncated doubled-edge graph with deterministic ids."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    elems = family.all_elements()
    vertices = [(0, "b")]
    for i, e in enumerate(elems):
        for n in range(1, depth + 1):
            vertices.append((1 + i * depth + (n - 1), f"{e}@{n}"))
    vid = {e: {n: 1 + i * depth + (n - 1) for n in range(1, depth + 1)}
           for i, e in enumerate(elems)}
    one = Fraction(1)
    edges = []

    def doubled(u, v):
        edges.append((len(edges), u, v, one, u))
        edges.append((len(edges), u, v, one, v))

    for e in elems:
        doubled(0, vid[e][1])
    for s in family.sets:
        members = s.elements
        for n in range(1, depth + 1):
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    doubled(vid[members[i]][n], vid[members[j]][n])
            if n < depth:
                for x in members:
                    for y in members:
                        doubled(vid[x][n], vid[y][n + 1])
    graph = LabeledMetricGraph(vertices, edges, basepoint=0)
    graph._closed_form = _ArmMetric("gamma0", family, depth)
    return GammaZeroGraph(graph, family, depth)


def gamma1_vertex_id(depth: int, set_index: int, level: int) -> int:
    if level == 0:
        return 0
    return 1 + set_index * depth + (level - 1)


def gamma1_edge_id(depth: int, set_index: int, upper_level: int) -> int:
    """Id of the tree edge joining levels upper_level-1 and upper_level."""
    return set_index * depth + (upper_level - 1)


def gamma0_edge_id(g0: GammaZeroGraph, lower: int, upper: int) -> int:
    """Least id of the doubled edge from arm vertex upper down to lower, in
    its set one level below (the base below level 1): build_gamma0 numbers
    two base edges per element, then per set of k elements and per level
    k(k-1) edges within the level and 2k^2 up to the next."""
    i, rem = divmod(upper - 1, g0.depth)
    if rem == 0:
        return 2 * i
    si = g0._elem_set[g0._elems[i]]
    first, offset = g0._set_starts[si]
    k = len(g0.family.sets[si].elements)
    i_below = (lower - 1) // g0.depth - first
    return (offset + (rem - 1) * (k * (k - 1) + 2 * k * k) + k * (k - 1)
            + 2 * (i_below * k + i - first))


def build_gamma1(family: SetFamily, depth: int) -> LabeledMetricGraph:
    """The quotient tree: one path of unit edges per member set, all glued
    at a single base vertex."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    vertices = [(0, "B")]
    edges = []
    one = Fraction(1)
    for si, s in enumerate(family.sets):
        for n in range(1, depth + 1):
            vertices.append((gamma1_vertex_id(depth, si, n), f"{s.name}@{n}"))
            edges.append((
                gamma1_edge_id(depth, si, n),
                gamma1_vertex_id(depth, si, n - 1),
                gamma1_vertex_id(depth, si, n),
                one,
            ))
    graph = LabeledMetricGraph(vertices, sorted(edges), basepoint=0)
    graph._closed_form = _ArmMetric("gamma1", family, depth)
    return graph


def _is_gamma1(g: LabeledMetricGraph, family: SetFamily, depth: int) -> bool:
    """True iff g has the structure of build_gamma1(family, depth): the
    builder's own tree answers from its key, any other is compared with a
    fresh build (a parsed tree, or that of a family with renamed elements)."""
    cf = g._closed_form
    if cf is not None and cf.key == ("gamma1", family, depth):
        return True
    return build_gamma1(family, depth).same_structure(g)


@dataclass(frozen=True)
class PointClass:
    kind: str  # "base" or "arm"
    arm: Optional[str]
    level: int

    @property
    def is_base(self):
        return self.kind == "base"


def level_of(g0: GammaZeroGraph, p: GraphPoint) -> int:
    """Integer part of the distance from p to the base vertex."""
    return math.floor(distance(g0.graph, p, Vertex(0)))


def classify_point(g0: GammaZeroGraph, p: GraphPoint) -> PointClass:
    """Base points are those within distance < 1 of the base vertex; every
    other point sits on the arm of exactly one member set."""
    lev = level_of(g0, p)
    if lev == 0:
        return PointClass("base", None, 0)
    if isinstance(p, Vertex):
        _, si, _ = g0.info(p.id)
    else:
        e = g0.graph.edge(p.edge)
        end = e.u if e.u != 0 else e.v
        _, si, _ = g0.info(end)
    return PointClass("arm", g0.family.sets[si].name, lev)


def build_collapse_map(g0: GammaZeroGraph, g1: LabeledMetricGraph) -> QuasiMap:
    """The arm-collapsing map from the half-net of the level-0 graph onto
    the quotient tree."""
    if not _is_gamma1(g1, g0.family, g0.depth):
        raise FamilyMismatch("quotient tree does not match the family and depth")
    depth = g0.depth
    assignments = [(Vertex(0), Vertex(0))]
    for e in g0._elems:
        si = g0._elem_set[e]
        for n in range(1, depth + 1):
            assignments.append(
                (Vertex(g0.vertex_of(e, n)), Vertex(gamma1_vertex_id(depth, si, n)))
            )
    for edge in g0.graph.edges:
        mid = Interior(edge.id, HALF)
        if edge.u == 0 or edge.v == 0:
            other = edge.v if edge.u == 0 else edge.u
            _, si, _ = g0.info(other)
            target = Interior(gamma1_edge_id(depth, si, 1), HALF)
        else:
            _, si, nu = g0.info(edge.u)
            _, _, nv = g0.info(edge.v)
            if nu == nv:
                target = Vertex(gamma1_vertex_id(depth, si, nu))
            else:
                target = Interior(gamma1_edge_id(depth, si, max(nu, nv)), HALF)
        assignments.append((mid, target))
    return QuasiMap(g0.graph, g1, assignments, asserted_constant=2)


def find_far_witness(g0: GammaZeroGraph, x: GraphPoint, y: GraphPoint, bound) -> int:
    """A vertex far from both x and y whose removal neighborhood pins y:
    the witness z satisfies d(x,z) > bound, d(y,z) > bound, has level above
    the bound, and every path from x to z passes within 4 of y."""
    big_l = Fraction(bound)
    if big_l <= 0:
        raise ValueError("bound must be positive")
    validate_point(g0.graph, x)
    validate_point(g0.graph, y)
    lev_x, lev_y = level_of(g0, x), level_of(g0, y)
    level0 = math.floor(big_l + lev_x + lev_y + 2) + 1
    if level0 > g0.depth:
        raise DepthTooSmall(
            f"witness needs level {level0} but the graph stops at {g0.depth}"
        )
    d = distance(g0.graph, x, y)
    cx, cy = classify_point(g0, x), classify_point(g0, y)
    if (cx.kind == "arm" and cx.arm == cy.arm and lev_x > lev_y) or cy.is_base:
        si = next(
            (i for i, s in enumerate(g0.family.sets) if s.name != cx.arm), None
        )
        if si is None:
            # single-set family: no alternate arm exists, but when x sits
            # within 4 of y any vertex works, so keep the call total there
            if d <= 4:
                si = 0
            else:
                raise NoAlternateArm(
                    "witness needs an arm different from x's but the family has one set"
                )
    elif d <= 4:
        si = 0
    else:
        si = next(i for i, s in enumerate(g0.family.sets) if s.name == cy.arm)
    z = Vertex(g0.vertex_of(g0.family.sets[si].elements[0], level0))
    if not (
        distance(g0.graph, x, z) > big_l
        and distance(g0.graph, y, z) > big_l
        and level0 > big_l
        and is_separated(g0.graph, x, z, y, 4)
    ):
        raise InternalError("witness construction violated its own contract")
    return z.id


class LevelProfile(Enum):
    SHORT = "Short"
    INCREASING = "Increasing"
    DECREASING = "Decreasing"
    V_SHAPED = "VShaped"


def level_profile(g0: GammaZeroGraph, geo: Geodesic) -> LevelProfile:
    """Classify the level sequence of a geodesic's vertex hits.

    Geodesics hitting at most two vertices are Short.  Longer ones must
    move through levels in unit steps, monotonically or V-shaped with the
    turn at level 0; anything else fails validation.
    """
    check_geodesic(g0.graph, geo)
    levels = [g0.info(v)[2] if v else 0 for v in geo.vertices]
    if len(levels) <= 2:
        return LevelProfile.SHORT
    steps = [b - a for a, b in zip(levels, levels[1:])]
    if any(abs(s) != 1 for s in steps):
        raise NotAGeodesic(f"level steps {steps} are not unit steps")
    if all(s == 1 for s in steps):
        return LevelProfile.INCREASING
    if all(s == -1 for s in steps):
        return LevelProfile.DECREASING
    turn = steps.index(1)
    if any(s != -1 for s in steps[:turn]) or any(s != 1 for s in steps[turn:]):
        raise NotAGeodesic("level sequence is neither monotone nor V-shaped")
    if levels[turn] != 0:
        raise NotAGeodesic(
            f"V-shaped level sequence turns at level {levels[turn]}, not 0"
        )
    return LevelProfile.V_SHAPED
