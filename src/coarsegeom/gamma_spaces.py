"""The doubled-edge branching graph of a set family, and its quotient tree.

Given a family of disjoint finite sets, the level-0 graph has a base vertex
joined to every element at level 1 by a pair of parallel labeled edges, and
doubled edges inside each arm between elements of one set at levels that
differ by at most one.  Collapsing each arm level to a single vertex gives
a star-of-paths tree over the same family.  Everything is truncated at a
finite depth and all lengths are 1.

One private layout, ``_ArmLayout``, owns both graphs' vertex and edge ids,
their closed-form counts and distances, and the size budget every build
and every gamma document is held to; every reader of either graph asks it.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import chain, combinations, product
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
    Geodesic,
    GraphPoint,
    Interior,
    LabeledMetricGraph,
    Vertex,
    _net_rows,
    check_geodesic,
    distance,
    is_separated,
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


class _ArmLayout:
    """The numbering, size and closed-form metric of a builder graph: a
    star of unit-length arms on one base vertex.

    Γ0 has one arm per element, Γ1 one per member set.  Vertex 0 is the
    base and vertex ``1 + arm*depth + (level-1)`` sits on an arm at a
    level in 1..depth.  Arms of one member set are joined at every level
    and between adjacent levels (Γ0's elements); arms of different sets
    meet only at the base.  For arm vertices (a, n) and (b, m) the
    distance is
      - n from the base to (a, n);
      - |n - m| when a and b lie in one set and n != m;
      - 1 when a and b are different arms of one set and n == m;
      - n + m when a and b lie in different sets.
    ``build`` fills a graph's edge columns from ``_links``, each link's
    ends in id order, and attaches the layout as the graph's metric (ids
    are indices, and no read searches): the formula holds only for such
    graphs.  Its ``key`` (kind, family, depth) names the build, so a graph
    carrying it is known to be that builder's graph (see _layout_of).
    Counting allocates nothing sized by the depth: a depth is weighed unbuilt.
    """

    # the most vertices plus edges a build may make: extraction at
    # constant 16 on {a,b},{c},{d,e,f} needs 347,521 + 2,085,104
    budget = 2_500_000
    searches = False  # a pair read is the formula, no search

    def __init__(self, kind, family, depth):
        if depth < 1:
            raise ValueError("depth must be at least 1")
        self.key = (kind, family, depth)
        self.depth = depth
        self.doubled = kind == "gamma0"
        # each arm's name (an element on Γ0, a set on Γ1) and set index
        self.arms, self.arm_sets = zip(*(
            (name, si) for si, s in enumerate(family.sets)
            for name in (s.elements if self.doubled else (s.name,))))
        self._arm = {name: a for a, name in enumerate(self.arms)}
        # per set: its first arm, its k arms and, on Γ0, the id of its
        # first edge above the base; Γ0 numbers two base edges per arm,
        # then per set and level k(k-1) edges within the level and 2k^2
        # up to the next; Γ1 counts as Γ0 would with k = 1, in single edges
        self._blocks, first, edge = [], 0, 2 * len(self.arms)
        for s in family.sets:
            k = len(s.elements) if self.doubled else 1
            self._blocks.append((first, k, edge))
            first, edge = first + k, edge + depth * k * (k - 1) + (depth - 1) * 2 * k * k
        self.n_vertices = 1 + len(self.arms) * depth
        self.n_edges = edge if self.doubled else edge // 2

    def vertex(self, name, level):
        """Id of the vertex at a level of the named arm."""
        if not 1 <= level <= self.depth or name not in self._arm:
            raise KeyError((name, level))
        return gamma1_vertex_id(self.depth, self._arm[name], level)

    def locate(self, vid):
        """(arm name, set index, level) of an arm vertex; None for the base."""
        if vid == 0:
            return None
        a, rem = divmod(vid - 1, self.depth)
        return self.arms[a], self.arm_sets[a], rem + 1

    def levels(self, vids):
        """The level of each vertex of vids, 0 at the base, in one pass."""
        return [(v - 1) % self.depth + 1 if v else 0 for v in vids]

    def up_edge(self, lower, upper):
        """Least id of an edge from arm vertex upper down one level to
        lower, in its set (the base below level 1); on Γ1, where one edge
        runs below each arm vertex, that is upper - 1."""
        if not self.doubled:
            return upper - 1
        a, rem = divmod(upper - 1, self.depth)
        if rem == 0:
            return 2 * a
        first, k, edge = self._blocks[self.arm_sets[a]]
        below = (lower - 1) // self.depth - first
        return (edge + (rem - 1) * (k * (k - 1) + 2 * k * k) + k * (k - 1)
                + 2 * (below * k + a - first))

    def _links(self):
        """Each edge's ends in id order, a parallel pair once."""
        d = self.depth
        if self.doubled:  # Γ0's base edges come first
            yield from ((0, gamma1_vertex_id(d, a, 1)) for a in range(len(self.arms)))
        for first, k, _ in self._blocks:
            low = gamma1_vertex_id(d, first, 1)  # the set's first arm at level 1
            if not self.doubled:
                yield 0, low
            # the links within a level, then those up to the next, as offsets
            # from the set's first arm at that level
            offsets = range(0, k * d, d)
            inside = list(combinations(offsets, 2))
            steps = inside + list(product(offsets, range(1, k * d + 1, d)))
            for v in range(low, low + d):
                for a, b in (steps if v < low + d - 1 else inside):
                    yield v + a, v + b

    def build(self) -> LabeledMetricGraph:
        """The builder graph, with this layout attached: each link doubled
        on Γ0, its two copies labeled with either end, and single on Γ1.
        The edge columns are filled straight from the links, making no Edge.
        A build past the budget is refused before anything is allocated."""
        if self.n_vertices + self.n_edges > self.budget:
            raise ValueError(
                f"depth {self.depth} makes {self.n_vertices} vertices and "
                f"{self.n_edges} edges, past the budget of {self.budget} "
                "vertices plus edges")
        d = self.depth
        labels = dict(enumerate(chain(("b" if self.doubled else "B",), (
            f"{name}@{n}" for name in self.arms for n in range(1, d + 1)))))
        ends = list(chain.from_iterable(self._links()))  # u0 v0 u1 v1 ...
        if self.doubled:
            # edges 2i and 2i + 1 both join link i's ends, labeled u and v
            us, vs, labs = ends[:], ends[:], ends
            us[1::2], vs[0::2] = ends[0::2], ends[1::2]
        else:
            us, vs, labs = ends[0::2], ends[1::2], [None] * (len(ends) // 2)
        graph = LabeledMetricGraph.__new__(LabeledMetricGraph)
        graph._keep(labels, range(len(us)), us, vs, [1] * len(us), labs, 1, 0)
        # rows are cut from these two with memcpy-speed slices: _vee[k] is
        # |k - depth|, so one slice gives a level's distances along its arm
        self._asc = array("i", range(2 * d + 1))
        self._vee = array("i", (abs(k - d) for k in range(2 * d + 1)))
        graph._metric = self
        return graph

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

    def search(self, seeds, k=1):
        """The searched metric's search without a heap: per set, each
        level's least seed cost over its arms, swept up from the base and
        down from the top, gives every level its best cost from the other
        levels and, one edge away, its sibling arms; the base is reached
        through the cheapest cost + k * level of any set."""
        depth, seeds = self.depth, list(seeds)
        if not seeds:
            return [-1] * self.n_vertices
        far = max(c for c, _ in seeds) + 2 * k * depth + k  # past every distance
        cost = [far] * self.n_vertices
        for c, i in seeds:
            if c < cost[i]:
                cost[i] = c
        sets, base = [], cost[0]
        for first, arms, _ in self._blocks:
            own = [cost[1 + a * depth:1 + (a + 1) * depth] for a in range(first, first + arms)]
            least = own[0]
            for arm in own[1:]:
                least = [a if a < b else b for a, b in zip(least, arm)]
            d = far  # down[i]: the best cost at level i + 1 from it and above
            down = [d := c if c < d + k else d + k for c in reversed(least)][::-1]
            base = min(base, down[0] + k)
            sets.append((own, least, down))
        row = [base]
        for own, least, down in sets:
            u = base  # up[i]: the best cost at level i from it and below
            up = [base] + [u := c if c < u + k else u + k for c in least]
            # one edge past the best of the level below, the level's own
            # least (a sibling arm) and the level above
            other = [k + (m if (m := a if a < b else b) < c else c)
                     for a, b, c in zip(up, least, down[1:] + [far])]
            for arm in own:
                row += [a if a < b else b for a, b in zip(arm, other)]
        return row


class GammaZeroGraph:
    """The level-0 graph of a family at a depth, as build_gamma0 made it;
    its layout's info(vid) is (element, set index, level), None at the base."""

    def __init__(self, graph: LabeledMetricGraph):
        if (layout := _layout_of(graph, "gamma0")) is None:
            raise ValueError("only a graph build_gamma0 made knows its family and depth")
        self.graph = graph
        _, self.family, self.depth = layout.key
        self.vertex_of, self.info = layout.vertex, layout.locate


def _layout_of(g: LabeledMetricGraph, kind: str) -> Optional[_ArmLayout]:
    """g's layout if the builder of kind made it, else None: the one test of a metric's kind."""
    m = g._metric
    return m if isinstance(m, _ArmLayout) and m.key[0] == kind else None


def build_gamma0(family: SetFamily, depth: int) -> GammaZeroGraph:
    """Construct the truncated doubled-edge graph with deterministic ids."""
    return GammaZeroGraph(_ArmLayout("gamma0", family, depth).build())


def gamma1_vertex_id(depth: int, set_index: int, level: int) -> int:
    """Id of the vertex at a level of an arm of Γ1 (the base at level 0);
    Γ0 numbers its element arms the same way."""
    if level == 0:
        return 0
    return 1 + set_index * depth + (level - 1)


def gamma1_edge_id(depth: int, set_index: int, upper_level: int) -> int:
    """Id of the tree edge joining levels upper_level-1 and upper_level."""
    return gamma1_vertex_id(depth, set_index, upper_level) - 1


def build_gamma1(family: SetFamily, depth: int) -> LabeledMetricGraph:
    """The quotient tree: one path of unit edges per member set, all glued
    at a single base vertex."""
    return _ArmLayout("gamma1", family, depth).build()


def _is_gamma1(g: LabeledMetricGraph, family: SetFamily, depth: int) -> bool:
    """True iff g has the structure of build_gamma1(family, depth): the
    builder's own tree answers from its key, any other is compared with a
    fresh build (a parsed tree, or that of a family with renamed elements)."""
    if (layout := _layout_of(g, "gamma1")) and layout.key[1:] == (family, depth):
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
    if isinstance(p, Interior):
        g, i = g0.graph, g0.graph._epos[p.edge]
        p = Vertex(g._eu[i] or g._ev[i])  # the end off the base names the arm
    return PointClass("arm", g0.family.sets[g0.info(p.id)[1]].name, lev)


def build_collapse_map(g0: GammaZeroGraph, g1: LabeledMetricGraph) -> QuasiMap:
    """The arm-collapsing map from the half-net of the level-0 graph onto
    the quotient tree."""
    if not _is_gamma1(g1, g0.family, g0.depth):
        raise FamilyMismatch("quotient tree does not match the family and depth")
    tree = _ArmLayout("gamma1", g0.family, g0.depth)
    # a vertex goes to its set's arm at its level; an edge within a level
    # to the image of its ends, and one between levels to the midpoint of
    # the tree edge between the images of its ends
    image = [0] + [tree.vertex(g0.family.sets[si].name, level)
                   for _, si, level in map(g0.info, range(1, g0.graph.n_vertices))]
    g = g0.graph
    images = [(0, t, 0, 1) for t in image]
    images += [(0, a, 0, 1) if a == b else (1, tree.up_edge(min(a, b), max(a, b)), 1, 2)
               for a, b in zip(map(image.__getitem__, g._eu), map(image.__getitem__, g._ev))]
    return QuasiMap._of_rows(g, g1, _net_rows(g.vertex_ids(), g._eids), images,
                             asserted_constant=2)


def find_far_witness(g0: GammaZeroGraph, x: GraphPoint, y: GraphPoint, bound) -> int:
    """A vertex far from both x and y whose removal neighborhood pins y:
    the witness z satisfies d(x,z) > bound, d(y,z) > bound, has level above
    the bound, and every path from x to z passes within 4 of y."""
    big_l = Fraction(bound)
    if big_l <= 0:
        raise ValueError("bound must be positive")
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
    levels = _layout_of(g0.graph, "gamma0").levels(geo.vertices)
    if len(levels) <= 2:
        return LevelProfile.SHORT
    steps = [b - a for a, b in zip(levels, levels[1:])]
    kinds = set(steps)
    if not kinds <= {-1, 1}:
        raise NotAGeodesic(f"level steps {steps} are not unit steps")
    if kinds != {-1, 1}:
        return LevelProfile.INCREASING if 1 in kinds else LevelProfile.DECREASING
    turn = steps.index(1)  # every step before it is -1
    if -1 in steps[turn:]:
        raise NotAGeodesic("level sequence is neither monotone nor V-shaped")
    if levels[turn] != 0:
        raise NotAGeodesic(
            f"V-shaped level sequence turns at level {levels[turn]}, not 0"
        )
    return LevelProfile.V_SHAPED
