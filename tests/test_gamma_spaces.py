"""Doubled-edge graph, quotient tree, collapse map, and far witnesses."""

import functools
import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from coarsegeom import choice_pipeline, documents, gamma_spaces
from coarsegeom import (
    DepthTooSmall,
    DuplicateElement,
    EmptyFamily,
    Edge,
    EmptyMemberSet,
    FamilyMismatch,
    GammaZeroGraph,
    Interior,
    InvalidPoint,
    LabeledMetricGraph,
    LevelProfile,
    NoAlternateArm,
    NotAGeodesic,
    SetFamily,
    Vertex,
    build_collapse_map,
    build_gamma0,
    build_gamma1,
    canonical_geodesic,
    classify_point,
    distance,
    enumerate_geodesics,
    find_far_witness,
    gamma1_edge_id,
    gamma1_vertex_id,
    half_net,
    level_of,
    level_profile,
    minimal_qi_constant,
    multi_source_vertex_distances,
    prune_k,
    scale_metric,
    section_map,
)
from conftest import random_graph
from coarsegeom.metric_graph import _SearchedMetric, _scaled, _scaled_distance
from coarsegeom.documents import (
    gamma0_doc,
    gamma1_doc,
    graph_doc,
    parse_gamma0,
    parse_gamma1,
    parse_graph,
)

H = Fraction(1, 2)


# -- families ----------------------------------------------------------------


def test_family_validation():
    with pytest.raises(EmptyFamily):
        SetFamily.of_lists([])
    with pytest.raises(EmptyMemberSet):
        SetFamily.of_lists([["a"], []])
    with pytest.raises(DuplicateElement):
        SetFamily.of_lists([["a"], ["a"]])
    with pytest.raises(DuplicateElement):
        SetFamily.of_lists([["a"], ["b"]], names=["X", "X"])
    fam = SetFamily.of_lists([["a", "b"], ["c"]])
    assert fam.all_elements() == ("a", "b", "c")


# -- the doubled-edge graph ---------------------------------------------------


def test_small_instance_shape(g0_d2):
    g = g0_d2.graph
    assert g.n_vertices == 7
    assert g.n_edges == 20
    assert len(half_net(g)) == 27
    assert g.basepoint == 0
    assert g.vertex_labels[0] == "b"
    # layout: element i occupies ids 1 + i*D .. 1 + i*D + D-1
    assert g.vertex_labels[g0_d2.vertex_of("a", 1)] == "a@1"
    assert g.vertex_labels[g0_d2.vertex_of("c", 2)] == "c@2"


def test_edges_come_in_parallel_pairs(g0_d2):
    g = g0_d2.graph
    seen = {}
    for e in g.edges:
        seen.setdefault((min(e.u, e.v), max(e.u, e.v)), []).append(e)
    for pair, es in seen.items():
        assert len(es) == 2, f"pair {pair} not doubled"
        # one edge labeled with each endpoint
        assert sorted(x.label for x in es) == sorted(pair)


def test_singleton_arm_has_cross_level_edges():
    g0 = build_gamma0(SetFamily.of_lists([["a"]]), 6)
    a = g0.vertex_of
    assert distance(g0.graph, Vertex(a("a", 5)), Vertex(a("a", 2))) == 3
    assert distance(g0.graph, Vertex(a("a", 1)), Vertex(0)) == 1


def test_base_and_arm_partition(g0_d3, fam3):
    """Every half-net point is base or on exactly one arm."""
    for g0 in (g0_d3, build_gamma0(fam3, 4)):
        names = {s.name for s in g0.family.sets}
        for p in half_net(g0.graph):
            c = classify_point(g0, p)
            if c.is_base:
                assert level_of(g0, p) == 0
            else:
                assert c.kind == "arm"
                assert c.arm in names
                assert level_of(g0, p) >= 1


def test_diameter_bound_small(g0_d3):
    """Base pairs and same-arm same-level pairs sit within distance 2."""
    g0 = g0_d3
    groups = {}
    for p in half_net(g0.graph):
        c = classify_point(g0, p)
        key = "base" if c.is_base else (c.arm, level_of(g0, p))
        groups.setdefault(key, []).append(p)
    assert len(groups["base"]) == 1 + 6  # b plus the six rule-one midpoints
    for key, pts in groups.items():
        for i, p in enumerate(pts):
            for q in pts[i + 1 :]:
                assert distance(g0.graph, p, q) <= 2, (key, p, q)


def test_levels_and_classification(g0_d3):
    g0 = g0_d3
    assert level_of(g0, Vertex(0)) == 0
    va2 = g0.vertex_of("a", 2)
    assert level_of(g0, Vertex(va2)) == 2
    # rule-one edge midpoint sits at distance 1/2: still base
    rule1 = next(e for e in g0.graph.edges if 0 in (e.u, e.v))
    mid = Interior(rule1.id, H)
    assert level_of(g0, mid) == 0
    assert classify_point(g0, mid).is_base
    # a cross-level midpoint floors to the lower level
    cross = next(
        e
        for e in g0.graph.edges
        if e.u == g0.vertex_of("a", 1) and e.v == g0.vertex_of("a", 2)
    )
    assert level_of(g0, Interior(cross.id, H)) == 1
    c = classify_point(g0, Interior(cross.id, H))
    assert c.kind == "arm" and c.arm == g0.family.sets[0].name


# -- closed-form distances ----------------------------------------------------


@pytest.mark.parametrize(
    "lists",
    [[["a"]], [["a"], ["b"]], [["a", "b"], ["c"]], [["a", "b"], ["c"], ["d", "e", "f"]]],
)
def test_closed_form_matches_bfs(lists):
    fam = SetFamily.of_lists(lists)
    for depth in range(1, 7):
        for g in (build_gamma0(fam, depth).graph, build_gamma1(fam, depth)):
            assert isinstance(g._metric, gamma_spaces._ArmLayout)
            fw = oracles.floyd_warshall(g)
            ids = g.vertex_ids()
            for u in ids:
                assert g.vertex_row(u) == fw[u], (lists, depth, u)
                for v in ids:
                    assert g._metric.distance(u, v) == fw[u][v]
                    assert g.vertex_distance(u, v) == fw[u][v]


SEARCH_FAMILIES = ([["a"], ["b"]], [["a", "b"]], [["a", "b"], ["c"]],
                   [["a", "b"], ["c"], ["d", "e", "f"]], [["a", "b", "c", "d"]])


@functools.lru_cache(maxsize=None)
def _graphs_and_fw(kind, key, size):
    """(graphs, their Floyd–Warshall distances): the builder graph of kind
    and of the family key at depth size with its parse_graph copy, or the
    seeded rational graph key on size vertices, with a quarter of its
    edges dropped when key is odd, so that some vertices do not reach."""
    if kind == "rational":
        g = random_graph(key, size, extra=size // 2, rational=True)
        g = LabeledMetricGraph(g.vertex_ids(), [e for e in g.edges if key % 2 == 0 or e.id % 4])
        graphs = (g,)
    else:
        fam = SetFamily.of_lists(key)
        g = build_gamma0(fam, size).graph if kind == "gamma0" else build_gamma1(fam, size)
        graphs = g, parse_graph(graph_doc(g))
    return graphs, oracles.floyd_warshall(g)


def pair_points(g, vertex_only, edges=()):
    """Every vertex of g, base and sibling arms and other sets among them,
    then unless vertex_only the midpoint of every third edge and, on each
    of edges, the points a quarter from either end: two points on one edge."""
    pts = [Vertex(v) for v in g.vertex_ids()]
    if not vertex_only:
        pts += [Interior(e, H) for e in g._eids[::3]]
        pts += [Interior(e, t) for e in edges for t in (Fraction(1, 4), Fraction(3, 4))]
    return pts


def assert_pairs_match(g, fw, k, pts):
    """g's metric reads the pairs of pts, scaled at k or the least multiple
    of it that makes them whole, as _scaled_distance and Floyd–Warshall do;
    a searched metric reads none."""
    m, scaled = _scaled(g, pts, k)
    dist = g._metric.pairs(m, scaled)
    if type(g._metric) is _SearchedMetric:
        assert dist is None
        return
    unit = m * g._scale
    for i, p in enumerate(pts):
        for j, q in enumerate(pts):
            want = oracles.point_distance(g, fw, p, q) * unit
            assert dist(i, j) == _scaled_distance(g, m, scaled[i], scaled[j]) == want, (p, q)


@st.composite
def metric_reads(draw):
    """A builder graph, its parse_graph copy or a seeded rational graph,
    with its Floyd–Warshall distances, a vertex id, an edge factor k,
    0-6 seeds: (cost up to 3kL, vertex index), repeated vertices often,
    and up to eight points, vertices alone or with interior points at a
    half or a quarter of an edge, two of them on one edge often."""
    kind = draw(st.sampled_from(("gamma0", "gamma1", "rational")))
    if kind == "rational":
        key, size = draw(st.integers(0, 30)), draw(st.integers(1, 12))
    else:
        key = tuple(map(tuple, draw(st.sampled_from(SEARCH_FAMILIES))))
        size = draw(st.integers(1, 9))
    graphs, fw = _graphs_and_fw(kind, key, size)
    g = draw(st.sampled_from(graphs))
    builder = kind != "rational" and g is graphs[0]
    k = draw(st.integers(1, 4))
    vertex = st.one_of(st.just(0), st.integers(0, g.n_vertices - 1))
    seeds = draw(st.lists(st.tuples(st.integers(0, 3 * k * g._scale), vertex), max_size=5))
    if seeds and draw(st.booleans()):
        seeds.append((draw(st.integers(0, 3 * k * g._scale)), draw(st.sampled_from(seeds))[1]))
    point = st.builds(Vertex, st.sampled_from(g.vertex_ids()))
    if g.n_edges and draw(st.booleans()):
        offsets = st.sampled_from((H, Fraction(1, 4), Fraction(3, 4)))
        point |= st.builds(Interior, st.sampled_from(g._eids), offsets)
    pts = draw(st.lists(point, max_size=8))
    if pts and isinstance(pts[-1], Interior) and draw(st.booleans()):
        pts.append(Interior(pts[-1].edge, 1 - pts[-1].offset))
    return g, builder, fw, draw(vertex), k, seeds, pts


def pair_sweep(test):
    """test with an example per Γ0 and Γ1 of every search family at depths
    1-4, and per its parse_graph copy, at k 1, 2 and 4: every vertex alone,
    and with midpoints and quarter points, two of them on one edge."""
    for lists in SEARCH_FAMILIES:
        for kind in ("gamma0", "gamma1"):
            for depth in range(1, 5):
                graphs, fw = _graphs_and_fw(kind, tuple(map(tuple, lists)), depth)
                g = graphs[0]
                for vertex_only in (True, False):
                    pts = pair_points(g, vertex_only, (g._eids[0], g._eids[-1]))
                    for h in graphs:
                        for k in (1, 2, 4):
                            test = example((h, h is g, fw, 0, k, [], pts))(test)
    return test


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(metric_reads())
@pair_sweep
def test_closed_form_search_matches_dijkstra(case):
    """Both metric kinds, the closed form of a builder graph and the
    searched metric of its parse_graph copy or of a rational graph,
    answer row, distance and search as Floyd–Warshall does, in integer
    units of 1/L (1/(k*L) for a search), -1 where a vertex is unreachable;
    with no seeds every entry is -1, and every multi-source distance None.
    The closed form reads point pairs as _scaled_distance does, and the
    searched metric reads none; pair_sweep's examples read every vertex
    pair of small builder graphs, alone and among interior points."""
    g, builder, fw, u, k, seeds, pts = case
    metric, ids, scale = g._metric, g.vertex_ids(), g._scale
    assert type(metric) is (gamma_spaces._ArmLayout if builder else _SearchedMetric)

    def units(d, factor=1):
        return -1 if d is None else d * scale * factor

    assert list(metric.row(u)) == [units(fw[u][v]) for v in ids]
    assert [metric.distance(u, v) for v in ids] == [units(fw[u][v]) for v in ids]
    want = [min((c + units(fw[ids[i]][v], k) for c, i in seeds if fw[ids[i]][v] is not None),
                default=-1) for v in ids]
    assert metric.search(seeds, k) == want
    if k == 1:
        assert metric.search(seeds) == want
    assert metric.search([], k) == [-1] * g.n_vertices
    assert set(multi_source_vertex_distances(g, []).values()) == {None}
    assert_pairs_match(g, fw, k, pts)


def test_closed_form_only_on_builder_graphs(fam2):
    """Only a builder graph, or one parsed from its gamma document, has a
    layout as its metric, and only of its own kind; every other graph
    searches."""
    g0 = build_gamma0(fam2, 3)
    g1 = build_gamma1(fam2, 3)
    layout_of = gamma_spaces._layout_of
    assert layout_of(parse_gamma0(gamma0_doc(g0)).graph, "gamma0") is not None
    assert layout_of(parse_gamma1(gamma1_doc(g1))[0], "gamma1") is not None
    assert layout_of(g0.graph, "gamma1") is None and layout_of(g1, "gamma0") is None
    for g in (g0.graph, g1):
        for other in (parse_graph(graph_doc(g)), scale_metric(g, 1), prune_k(g, 1)[0]):
            assert layout_of(other, "gamma0") is layout_of(other, "gamma1") is None
            assert isinstance(other._metric, _SearchedMetric)
    with pytest.raises(InvalidPoint, match="no vertex with id 10"):
        g0.graph.vertex_row(g0.graph.n_vertices)
    with pytest.raises(ValueError, match="only a graph build_gamma0 made"):
        GammaZeroGraph(parse_graph(graph_doc(g0.graph)))


def test_builder_graphs_are_not_rebuilt(fam2, monkeypatch):
    """A builder graph, or a canonical gamma document, is recognised from
    its family and depth: no second build and no generic parse."""
    g0 = build_gamma0(fam2, 4)
    g1 = build_gamma1(fam2, 4)
    doc0, doc1 = gamma0_doc(g0), gamma1_doc(g1)

    def refuse(*args):
        raise AssertionError("rebuilt or reparsed")

    monkeypatch.setattr(choice_pipeline, "build_gamma1", refuse)
    monkeypatch.setattr(gamma_spaces, "build_gamma1", refuse)
    monkeypatch.setattr(documents, "parse_graph", refuse)
    assert section_map(g0, g1=g1).source is g1
    assert build_collapse_map(g0, g1).target is g1
    assert parse_gamma0(doc0).graph.same_structure(g0.graph)
    assert parse_gamma1(doc1)[0].same_structure(g1)


def test_structurally_equal_trees_are_accepted(fam2):
    g0 = build_gamma0(fam2, 3)
    parsed = parse_graph(graph_doc(build_gamma1(fam2, 3), tree=True))
    assert section_map(g0, g1=parsed).source is parsed
    renamed = SetFamily.of_lists([["p", "q"], ["r"]])
    tree = build_gamma1(renamed, 3)
    assert build_collapse_map(g0, tree).target is tree


# -- geodesic level profiles --------------------------------------------------


def test_profiles_from_base(g0_d3):
    g0 = g0_d3
    geos = enumerate_geodesics(g0.graph, Vertex(0), Vertex(g0.vertex_of("b", 2)))
    assert len(geos) == 8
    assert all(level_profile(g0, geo) is LevelProfile.INCREASING for geo in geos)


def test_profile_kinds(g0_d3):
    g0 = g0_d3
    a, b, c = (g0.vertex_of(x, 2) for x in "abc")
    v_geos = enumerate_geodesics(g0.graph, Vertex(a), Vertex(c))
    assert len(v_geos) == 32
    assert {level_profile(g0, geo) for geo in v_geos} == {LevelProfile.V_SHAPED}
    s_geos = enumerate_geodesics(g0.graph, Vertex(a), Vertex(b))
    assert {level_profile(g0, geo) for geo in s_geos} == {LevelProfile.SHORT}
    d_geos = enumerate_geodesics(
        g0.graph, Vertex(g0.vertex_of("a", 3)), Vertex(g0.vertex_of("a", 1))
    )
    assert len(d_geos) == 8
    assert {level_profile(g0, geo) for geo in d_geos} == {LevelProfile.DECREASING}


def test_profile_rejects_non_geodesic(g0_d3):
    g0 = g0_d3
    geo = canonical_geodesic(g0.graph, Vertex(0), Vertex(g0.vertex_of("a", 2)))
    bad = type(geo)(
        start=geo.start,
        end=geo.end,
        vertices=geo.vertices,
        edges=geo.edges,
        length=geo.length + 1,
    )
    with pytest.raises(NotAGeodesic):
        level_profile(g0, bad)


def test_truncation_stability(fam2):
    """Geodesic sets agree across depths for endpoints below the cut."""
    g_lo = build_gamma0(fam2, 4)
    g_hi = build_gamma0(fam2, 5)
    pairs = [("a", 2, "c", 3), ("b", 1, "c", 1), ("a", 3, "b", 3), ("c", 1, "c", 3)]
    for e1, n1, e2, n2 in pairs:
        lo = enumerate_geodesics(
            g_lo.graph, Vertex(g_lo.vertex_of(e1, n1)), Vertex(g_lo.vertex_of(e2, n2))
        )
        hi = enumerate_geodesics(
            g_hi.graph, Vertex(g_hi.vertex_of(e1, n1)), Vertex(g_hi.vertex_of(e2, n2))
        )
        form_lo = {oracles.geodesic_label_form(g_lo.graph, g.vertices, g.edges) for g in lo}
        form_hi = {oracles.geodesic_label_form(g_hi.graph, g.vertices, g.edges) for g in hi}
        assert form_lo == form_hi


# -- quotient tree and collapse ----------------------------------------------


def test_gamma1_shape(g1_d3, fam2):
    assert g1_d3.n_vertices == 7
    assert g1_d3.n_edges == 6
    assert g1_d3.vertex_labels[0] == "B"
    assert g1_d3.vertex_labels[gamma1_vertex_id(3, 1, 2)] == "X1@2"
    e = g1_d3.edge(gamma1_edge_id(3, 0, 1))
    assert {e.u, e.v} == {0, gamma1_vertex_id(3, 0, 1)}
    assert all(e.length == 1 for e in g1_d3.edges)


@pytest.mark.parametrize("lists", [[["a", "b"], ["c"]],
                                   [["a", "b"], ["c"], ["d", "e", "f"]],
                                   [["p"], ["q", "r", "s", "t"], ["u", "v"]]])
def test_gamma0_edge_id_is_the_least_scanned_id(lists):
    """The layout's up_edge names, for every adjacency a section can lift
    or the collapse can cross (base to level 1, and level n to n + 1
    within a set), the least id that a scan of the built edges finds, on
    the doubled-edge graph and on the quotient tree."""
    family = SetFamily.of_lists(lists)
    for depth in (1, 2, 5):
        for g in (build_gamma0(family, depth).graph, build_gamma1(family, depth)):
            layout = g._metric
            least = {}
            for e in g.edges:
                least.setdefault((e.u, e.v), e.id)
            lifted = 0
            for upper in range(1, g.n_vertices):
                _, si, lev = layout.locate(upper)
                below = [0] if lev == 1 else [layout.vertex(x, lev - 1) for x, sx
                                              in zip(layout.arms, layout.arm_sets) if sx == si]
                for lower in below:
                    assert layout.up_edge(lower, upper) == least[lower, upper]
                    lifted += 1
            # that was every adjacency between two levels
            level = {vid: 0 if vid == 0 else layout.locate(vid)[2] for vid in g.vertex_ids()}
            assert lifted == sum(level[v] == level[u] + 1 for u, v in least)


@pytest.mark.parametrize("lists", [[["a"], ["b"]],
                                   [["a", "b"], ["c"], ["d", "e", "f"]],
                                   [["p", "q", "r", "s"]]])
def test_layout_counts_and_numbers_the_builds(lists):
    """The layout's closed-form counts are the built graph's, and vertex
    and locate name every vertex as the builder labeled it."""
    family = SetFamily.of_lists(lists)
    for depth in (1, 2, 7):
        for g in (build_gamma0(family, depth).graph, build_gamma1(family, depth)):
            layout = g._metric
            assert (layout.n_vertices, layout.n_edges) == (g.n_vertices, g.n_edges)
            assert layout.locate(0) is None
            for vid in range(1, g.n_vertices):
                name, si, lev = layout.locate(vid)
                assert layout.vertex(name, lev) == vid
                assert g.vertex_labels[vid] == f"{name}@{lev}"
                s = family.sets[si]
                assert name in (s.elements if layout.doubled else (s.name,))


def test_collapse_map_shape(g0_d3, g1_d3):
    f = build_collapse_map(g0_d3, g1_d3)
    assert f.asserted_constant == 2
    # one assignment per vertex and per edge midpoint
    assert len(f.assignments) == g0_d3.graph.n_vertices + g0_d3.graph.n_edges
    assert f.image_of(Vertex(0)) == Vertex(0)
    assert f.image_of(Vertex(g0_d3.vertex_of("a", 2))) == Vertex(gamma1_vertex_id(3, 0, 2))
    assert minimal_qi_constant(f) == 2


def test_collapse_sandwich_on_vertices(g0_d3, g1_d3):
    f = build_collapse_map(g0_d3, g1_d3)
    ids = list(g0_d3.graph.vertex_ids())
    for i, u in enumerate(ids):
        for v in ids[i + 1 :]:
            d0 = distance(g0_d3.graph, Vertex(u), Vertex(v))
            d1 = distance(g1_d3, f.image_of(Vertex(u)), f.image_of(Vertex(v)))
            assert d0 - 2 <= d1 <= d0


def test_collapse_rejects_mismatched_tree(g0_d3, fam2):
    with pytest.raises(FamilyMismatch):
        build_collapse_map(g0_d3, build_gamma1(fam2, 4))


# -- far witnesses ------------------------------------------------------------


@pytest.fixture(scope="module")
def pair_arm_g0():
    return build_gamma0(SetFamily.of_lists([["a"], ["c"]]), 30)


def test_far_witness_same_arm_descent(pair_arm_g0):
    g0 = pair_arm_g0
    z = find_far_witness(g0, Vertex(g0.vertex_of("a", 5)), Vertex(g0.vertex_of("a", 2)), 3)
    assert z == g0.vertex_of("c", 13)


def test_far_witness_crossing_pair(pair_arm_g0):
    g0 = pair_arm_g0
    z = find_far_witness(g0, Vertex(g0.vertex_of("a", 2)), Vertex(g0.vertex_of("c", 6)), 3)
    assert z == g0.vertex_of("c", 14)


def test_far_witness_degenerate_base(pair_arm_g0):
    g0 = pair_arm_g0
    z = find_far_witness(g0, Vertex(0), Vertex(0), 1)
    assert z == g0.vertex_of("a", 4)
    assert level_of(g0, Vertex(z)) >= 4


def test_far_witness_needs_depth(pair_arm_g0):
    g0 = pair_arm_g0
    with pytest.raises(DepthTooSmall):
        find_far_witness(g0, Vertex(g0.vertex_of("a", 20)), Vertex(g0.vertex_of("c", 20)), 3)


def test_far_witness_single_set_family():
    g0 = build_gamma0(SetFamily.of_lists([["a"]]), 30)
    a = g0.vertex_of
    # close pair on one arm: any arm is fine, totality preserved
    z = find_far_witness(g0, Vertex(a("a", 3)), Vertex(a("a", 1)), 2)
    assert g0.graph.vertex_labels[z] == "a@9"
    # a genuinely different arm is required once the pair is far apart
    with pytest.raises(NoAlternateArm):
        find_far_witness(g0, Vertex(a("a", 9)), Vertex(a("a", 2)), 2)


def test_build_collapse_and_dump_build_no_adjacency(fam2):
    """Adjacency is built on first use, and a graph that is only built,
    collapsed and dumped never uses it."""
    g0, g1 = build_gamma0(fam2, 12), build_gamma1(fam2, 12)
    m = build_collapse_map(g0, g1)
    documents.canonical_dumps(gamma0_doc(g0))
    documents.canonical_dumps(gamma1_doc(g1))
    documents.canonical_dumps(documents.map_doc(m, "gamma0.json", "gamma1.json"))
    for g in (g0.graph, g1):
        assert "_adj" not in vars(g) and not hasattr(g._metric, "adj")


FAMILIES = ([["a"], ["b"]], [["a", "b"], ["c"]], [["a", "b"], ["c"], ["d", "e", "f"]])


@pytest.mark.parametrize("lists", FAMILIES)
@pytest.mark.parametrize("depth", [1, 2, 7, 30])
def test_builder_columns_match_the_constructor(lists, depth):
    """A builder graph, whose edge columns come straight from the layout's
    links, equals the graph the constructor makes of the same vertices
    and edge tuples: each link doubled on Γ0 with either end as label."""
    family = SetFamily.of_lists(lists)
    for kind, build in (("gamma0", lambda: build_gamma0(family, depth).graph),
                        ("gamma1", lambda: build_gamma1(family, depth))):
        g, layout = build(), gamma_spaces._ArmLayout(kind, family, depth)
        arms = family.all_elements() if layout.doubled else [s.name for s in family.sets]
        vertices = [(0, "b" if layout.doubled else "B")] + [
            (layout.vertex(a, n), f"{a}@{n}") for a in arms for n in range(1, depth + 1)]
        if layout.doubled:
            edges = [e for i, (u, v) in enumerate(layout._links())
                     for e in ((2 * i, u, v, 1, u), (2 * i + 1, u, v, 1, v))]
        else:
            edges = [(i, u, v, 1) for i, (u, v) in enumerate(layout._links())]
        ref = LabeledMetricGraph(vertices, edges, basepoint=0)
        assert g.signature() == ref.signature()
        assert half_net(g) == half_net(ref)
        assert [g.edge(i) for i in range(g.n_edges)] == [ref.edge(i) for i in range(ref.n_edges)]
        assert g._adj == ref._adj


@pytest.mark.parametrize("depth", [3, 30])
def test_builder_paths_make_no_edge_objects(fam3, depth, monkeypatch):
    """Building, dumping, parsing the canonical text of, and collapsing
    the builder graphs read the edge columns: no Edge is made."""
    made = []
    real_init = Edge.__init__
    monkeypatch.setattr(Edge, "__init__",
                        lambda self, *args: made.append(args) or real_init(self, *args))
    g0, g1 = build_gamma0(fam3, depth), build_gamma1(fam3, depth)
    text0 = documents.canonical_dumps(gamma0_doc(g0))
    text1 = documents.canonical_dumps(gamma1_doc(g1))
    assert parse_gamma0(json.loads(text0)).graph.n_edges == g0.graph.n_edges
    assert parse_gamma1(json.loads(text1))[0].n_edges == g1.n_edges
    build_collapse_map(g0, g1)
    assert made == []
    g0.graph.edge(0)  # the view is made on request, and only then
    assert len(made) == g0.graph.n_edges


def test_builder_and_parsed_graphs_share_adjacency(fam2):
    for g in (build_gamma0(fam2, 5).graph, build_gamma1(fam2, 5)):
        parsed = parse_graph(graph_doc(g))
        assert parsed.same_structure(g)
        assert parsed._adj == g._adj
        assert parsed._metric.adj == _SearchedMetric(g).adj
