import re
from dataclasses import replace
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import cycle_graph, path_graph, random_graph, random_tree
from coarsegeom import (
    CapExceeded,
    DisconnectedGraph,
    Edge,
    Geodesic,
    GraphStructureError,
    Interior,
    InvalidPoint,
    LabeledMetricGraph,
    NonPositiveScale,
    NotAGeodesic,
    QuasiMap,
    SetFamily,
    Vertex,
    build_gamma0,
    build_gamma1,
    ball_complement_components,
    canonical_geodesic,
    check_geodesic,
    classify_point,
    distance,
    enumerate_geodesics,
    find_far_witness,
    half_net,
    is_separated,
    level_of,
    level_profile,
    midpoint,
    multi_source_vertex_distances,
    point_along,
    point_key,
    quasi_inverse,
    scale_metric,
    tree_median,
    tree_meet,
    validate_point,
)
from coarsegeom.coarse_maps import _distance_rows, _kernel_side
from coarsegeom.metric_graph import (
    UNIT_LIMIT,
    ComplementIndex,
    Fragment,
    _avoiding_path,
    _gated,
    _point_rows,
    _scaled_rows,
)

H = Fraction(1, 2)


# -- construction ------------------------------------------------------------


def test_rejects_duplicate_vertex_id():
    with pytest.raises(GraphStructureError):
        LabeledMetricGraph([0, 0], [])


def test_rejects_duplicate_edge_id():
    with pytest.raises(GraphStructureError):
        LabeledMetricGraph([0, 1], [(0, 0, 1, 1), (0, 1, 0, 1)])


def test_rejects_self_loop():
    with pytest.raises(GraphStructureError):
        LabeledMetricGraph([0, 1], [(0, 0, 0, 1)])


def test_rejects_dangling_edge():
    with pytest.raises(GraphStructureError):
        LabeledMetricGraph([0, 1], [(0, 0, 2, 1)])


def test_rejects_nonpositive_length():
    with pytest.raises(GraphStructureError):
        LabeledMetricGraph([0, 1], [(0, 0, 1, 0)])


def test_nonpositive_lengths_keep_their_message():
    # the sign test reads the numerator: Fraction(0, 5) normalizes to 0/1
    for length in (0, Fraction(-1, 2), Fraction(0, 5)):
        for edge in ((0, 0, 1, length), Edge(0, 0, 1, length)):
            with pytest.raises(GraphStructureError) as err:
                LabeledMetricGraph([0, 1], [edge])
            assert str(err.value) == "edge 0 has non-positive length"


def test_rejects_unit_past_limit():
    # every row entry is a multiple of 1/L: L is capped, not the lengths
    LabeledMetricGraph([0, 1], [(0, 0, 1, Fraction(3, UNIT_LIMIT))])
    with pytest.raises(GraphStructureError, match="unit limit"):
        LabeledMetricGraph([0, 1, 2], [(0, 0, 1, Fraction(1, UNIT_LIMIT)), (1, 1, 2, Fraction(1, 3))])


def test_rejects_label_not_endpoint():
    with pytest.raises(GraphStructureError):
        LabeledMetricGraph([0, 1, 2], [Edge(0, 0, 1, Fraction(1), 2)])


def test_edge_forms_and_malformed_tuples():
    # 4-tuples, 5-tuples and Edges, with int or Fraction lengths, are one graph
    forms = (
        [(0, 0, 1, 2), (1, 1, 2, Fraction(1, 2))],
        [(0, 0, 1, 2, None), (1, 1, 2, Fraction(1, 2), None)],
        [Edge(0, 0, 1, 2), Edge(1, 1, 2, Fraction(1, 2))],
    )
    sigs = {LabeledMetricGraph([0, 1, 2], edges).signature() for edges in forms}
    assert len(sigs) == 1
    assert LabeledMetricGraph([0, 1, 2], forms[2]).edge(0).length == Fraction(2)
    for bad in ((0, 0, 1), (0, 0, 1, 1, None, 7)):
        with pytest.raises(GraphStructureError, match="edge"):
            LabeledMetricGraph([0, 1], [bad])
    # ids and endpoints must be ints, as vertex ids must: 1.0 == 1 would
    # otherwise pass the endpoint lookup and leak a float into geodesics
    for bad in (("a", 0, 1, 1), (0, 0, 1.0, 1), (0, 0.0, 1, 1), (Fraction(0), 0, 1, 1)):
        msg = re.escape(f"edge {bad[0]!r}: id and endpoints must be integers")
        with pytest.raises(GraphStructureError, match=msg):
            LabeledMetricGraph([0, 1, 2], [bad, (1, 1, 2, 1)])


def test_rejects_unknown_basepoint():
    with pytest.raises(GraphStructureError):
        LabeledMetricGraph([0, 1], [(0, 0, 1, 1)], basepoint=7)


def test_parallel_edges_are_distinct():
    g = LabeledMetricGraph([0, 1], [(0, 0, 1, 1), (1, 0, 1, 1)])
    assert g.n_edges == 2
    assert g.degree(0) == 2
    assert g.edge(0) != g.edge(1)


def test_adjacency_order_ignores_edge_order():
    # geodesic enumeration walks edges_at by (neighbor id, edge id)
    g = random_graph(7, 12, extra=10, rational=True)
    flipped = LabeledMetricGraph(g.vertex_ids(), [
        (e.id, e.v, e.u, e.length) for e in reversed(g.edges)])
    for v in g.vertex_ids():
        pairs = [(nb, e.id) for nb, e in flipped.edges_at(v)]
        assert pairs == sorted(pairs) == [(nb, e.id) for nb, e in g.edges_at(v)]
        assert flipped.degree(v) == g.degree(v) == len(pairs)


def test_signature_detects_label_changes():
    a = LabeledMetricGraph([(0, "x"), 1], [(0, 0, 1, 1)])
    b = LabeledMetricGraph([(0, "y"), 1], [(0, 0, 1, 1)])
    c = LabeledMetricGraph([(0, "x"), 1], [(0, 0, 1, 1)])
    assert a.same_structure(c)
    assert not a.same_structure(b)


# -- distances against the brute-force oracle --------------------------------


def some_graphs():
    yield path_graph(6)
    yield cycle_graph(8)
    yield cycle_graph(9, Fraction(3, 2))
    yield LabeledMetricGraph([0, 1], [(0, 0, 1, 1), (1, 0, 1, Fraction(1, 3))])
    for seed in range(6):
        yield random_graph(seed, 12 + seed, extra=5, rational=seed % 2 == 0)
    yield random_graph(99, 50, extra=20)


def test_vertex_distance_matches_floyd_warshall():
    for g in some_graphs():
        fw = oracles.floyd_warshall(g)
        for u in g.vertex_ids():
            for v in g.vertex_ids():
                if fw[u][v] is None:
                    continue
                assert g.vertex_distance(u, v) == fw[u][v]


def test_point_distance_matches_oracle():
    for seed in range(4):
        g = random_graph(seed, 10, extra=4, rational=True)
        fw = oracles.floyd_warshall(g)
        pts = half_net(g)
        for p in pts:
            for q in pts:
                assert distance(g, p, q) == oracles.point_distance(g, fw, p, q)


def test_same_edge_interior_routes():
    # direct along the long edge beats any detour here
    g = LabeledMetricGraph([0, 1], [(0, 0, 1, 2), (1, 0, 1, 30)])
    p = Interior(1, Fraction(1, 4))
    q = Interior(1, Fraction(1, 2))
    assert distance(g, p, q) == Fraction(15, 2)
    # with a very short parallel edge, hopping off beats walking the edge:
    # 3 down to one endpoint, 1/10 across, 3 back up
    g2 = LabeledMetricGraph([0, 1], [(0, 0, 1, Fraction(1, 10)), (1, 0, 1, 30)])
    a = Interior(1, Fraction(1, 10))
    b = Interior(1, Fraction(9, 10))
    assert distance(g2, a, b) == Fraction(61, 10)


def test_disconnected_distance_raises():
    g = LabeledMetricGraph([0, 1, 2, 3], [(0, 0, 1, 1), (1, 2, 3, 1)])
    with pytest.raises(DisconnectedGraph):
        distance(g, Vertex(0), Vertex(2))
    assert not g.is_connected()


def test_metric_axioms_on_small_nets():
    """Symmetry, identity, triangle inequality, exhaustive on nets <= 40."""
    for g in (path_graph(5), cycle_graph(6), random_graph(3, 8, extra=3, rational=True)):
        net = half_net(g)
        assert len(net) <= 40
        d = {}
        for p in net:
            for q in net:
                d[point_key(p), point_key(q)] = distance(g, p, q)
        for p in net:
            kp = point_key(p)
            assert d[kp, kp] == 0
            for q in net:
                kq = point_key(q)
                assert d[kp, kq] == d[kq, kp]
                assert (d[kp, kq] == 0) == (kp == kq)
                for w in net:
                    kw = point_key(w)
                    assert d[kp, kq] <= d[kp, kw] + d[kw, kq]


# -- points ------------------------------------------------------------------


def test_validate_point_rejects_bad_offsets():
    g = path_graph(3)
    with pytest.raises(InvalidPoint):
        validate_point(g, Interior(0, Fraction(3, 2)))
    with pytest.raises(InvalidPoint):
        validate_point(g, Interior(9, H))
    with pytest.raises(InvalidPoint):
        validate_point(g, Vertex(17))


def test_bad_offsets_keep_their_messages():
    g = path_graph(3)
    for offset in (Fraction(0), Fraction(1), Fraction(-1, 3), Fraction(4, 3)):
        with pytest.raises(InvalidPoint) as err:
            validate_point(g, Interior(1, offset))
        assert str(err.value) == f"interior offset {offset} of edge 1 is outside (0, 1)"
    with pytest.raises(InvalidPoint) as err:
        validate_point(g, Interior(1, 0.5))
    assert str(err.value) == "interior offset must be a Fraction"


# a missing vertex, a missing edge, offsets 0 and 3/2, a float offset, a
# missing edge at a float offset, a non-point, an unhashable vertex id, and
# a vertex and an edge id that only compare equal to one
BAD_POINTS = [Vertex(99), Interior(99, H), Interior(0, Fraction(0)), Interior(0, Fraction(3, 2)),
              Interior(0, 0.5), Interior(99, 0.5), (0, 1), Vertex([1]), Vertex(True),
              Interior(True, H)]


def test_the_gate_names_the_edge_before_the_offset():
    with pytest.raises(InvalidPoint) as err:
        validate_point(path_graph(3), Interior(99, 0.5))
    assert str(err.value) == "no edge with id 99"


def test_the_gate_names_a_non_point_from_its_row():
    """A non-point is named by its own row, the same by every reader."""
    g, y = path_graph(3), Vertex(1)
    for call in (lambda: validate_point(g, (0, 1)),
                 lambda: QuasiMap(g, g, [(Vertex(0), y), ((0, 1), y)]),
                 lambda: QuasiMap(g, g, [(Vertex(0), (0, 1))]),
                 lambda: distance(g, y, (0, 1))):
        with pytest.raises(InvalidPoint) as err:
            call()
        assert str(err.value) == "not a graph point: (0, 1)"


def test_the_gate_names_the_first_bad_point():
    """Of two bad points, the first in input order is named, though the
    second sorts first: by a map's construction, distance and is_separated."""
    g, y = path_graph(3), Vertex(1)
    for first, second in ((Interior(0, Fraction(3, 2)), Vertex(99)),
                          (Vertex(99), Interior(0, Fraction(3, 2)))):
        with pytest.raises(InvalidPoint) as want:
            validate_point(g, first)
        for call in (lambda: QuasiMap(g, g, [(Vertex(0), y), (first, y), (second, y)]),
                     lambda: QuasiMap(g, g, [(Vertex(0), first), (y, second)]),
                     lambda: distance(g, first, second),
                     lambda: is_separated(g, first, second, y, 0)):
            with pytest.raises(InvalidPoint) as got:
                call()
            assert str(got.value) == str(want.value)


def _point_readers(g0, t, bad):
    """Each public reader of points, called with one bad point: g0 a Γ0,
    t a tree, both with an edge 0 and neither with a vertex or edge 99."""
    g, y = g0.graph, Vertex(1)
    geo = canonical_geodesic(g, Vertex(0), Vertex(3))
    bent = replace(geo, start=bad)
    f = QuasiMap(t, t, [(p, p) for p in half_net(t)])
    return {
        "distance": lambda: distance(g, bad, y),
        "enumerate_geodesics": lambda: enumerate_geodesics(g, y, bad),
        "canonical_geodesic": lambda: canonical_geodesic(g, bad, y),
        "check_geodesic": lambda: check_geodesic(g, bent),
        "point_along": lambda: point_along(g, bent, geo.length / 2),
        "point_along at 0": lambda: point_along(g, bent, 0),
        "is_separated": lambda: is_separated(g, y, bad, Vertex(0), 1),
        "is_separated center": lambda: is_separated(g, y, Vertex(3), bad, 1),
        "ball_complement_components": lambda: ball_complement_components(g, bad, 1),
        "midpoint": lambda: midpoint(g, y, bad),
        "level_of": lambda: level_of(g0, bad),
        "classify_point": lambda: classify_point(g0, bad),
        "find_far_witness": lambda: find_far_witness(g0, y, bad, 1),
        "tree_median": lambda: tree_median(t, Vertex(0), y, bad),
        "tree_meet": lambda: tree_meet(t, bad, y, base=Vertex(0)),
        "QuasiMap source": lambda: QuasiMap(t, t, [(Vertex(0), y), (bad, y)]),
        "QuasiMap target": lambda: QuasiMap(t, t, [(Vertex(0), bad)]),
        "quasi_inverse": lambda: quasi_inverse(f, 2, z=bad),
    }


@pytest.mark.parametrize("bad", BAD_POINTS, ids=repr)
def test_every_reader_rejects_bad_points_through_the_gate(fam2, bad):
    """Every public reader of points raises the gate's own InvalidPoint
    (NotAGeodesic for check_geodesic, same message) for each bad point:
    none leaks a TypeError or an AttributeError."""
    g0, t = build_gamma0(fam2, 3), build_gamma1(fam2, 3)
    with pytest.raises(InvalidPoint) as err:
        validate_point(g0.graph, bad)
    for name, call in _point_readers(g0, t, bad).items():
        with pytest.raises(NotAGeodesic if name == "check_geodesic" else InvalidPoint) as got:
            call()
        assert str(got.value) == str(err.value), name


def test_half_net_is_vertices_plus_midpoints():
    g = cycle_graph(5)
    net = half_net(g)
    assert len(net) == g.n_vertices + g.n_edges
    assert net[:5] == [Vertex(i) for i in range(5)]
    assert all(p.offset == H for p in net[5:])


def test_multi_source_distances():
    g = path_graph(8)
    row = multi_source_vertex_distances(g, [(0, Fraction(0)), (7, Fraction(1))])
    # nearest seed wins, with its cost added
    assert row[0] == 0
    assert row[7] == 1
    assert row[4] == 4
    assert row[6] == 2
    with pytest.raises(InvalidPoint):
        multi_source_vertex_distances(g, [(0, Fraction(0)), (8, Fraction(0))])


# -- geodesics ---------------------------------------------------------------


def test_enumerated_geodesics_have_exact_length():
    for g in (cycle_graph(7), random_graph(1, 9, extra=4, rational=True)):
        pts = half_net(g)
        for p in pts[::3]:
            for q in pts[::4]:
                d = distance(g, p, q)
                for geo in enumerate_geodesics(g, p, q):
                    assert geo.length == d
                    check_geodesic(g, geo)


def test_geodesic_counts_match_dfs():
    for g in some_graphs():
        if g.n_vertices > 14:
            continue
        fw = oracles.floyd_warshall(g)
        ids = list(g.vertex_ids())
        for u in ids:
            for v in ids:
                got = enumerate_geodesics(g, Vertex(u), Vertex(v), cap=100000)
                want = oracles.count_geodesics_dfs(g, u, v, fw)
                assert len(got) == want


def test_canonical_geodesic_is_lex_least():
    g = cycle_graph(8)
    geos = enumerate_geodesics(g, Vertex(0), Vertex(4))
    assert len(geos) == 2
    assert canonical_geodesic(g, Vertex(0), Vertex(4)) == geos[0]
    seqs = [geo.vertices for geo in geos]
    assert seqs == sorted(seqs)
    # a parallel pair before a branch: hops compare by (vertex, edge), so
    # both routes over edge 0 come before both routes over edge 1
    g = LabeledMetricGraph(
        range(5), [(0, 0, 1, 1), (1, 0, 1, 1), (2, 1, 2, 1), (3, 1, 3, 1), (4, 2, 4, 1), (5, 3, 4, 1)]
    )
    geos = enumerate_geodesics(g, Vertex(0), Vertex(4))
    assert [(geo.vertices, geo.edges) for geo in geos] == [
        ((0, 1, 2, 4), (0, 2, 4)),
        ((0, 1, 3, 4), (0, 3, 5)),
        ((0, 1, 2, 4), (1, 2, 4)),
        ((0, 1, 3, 4), (1, 3, 5)),
    ] == oracles.enumerate_geodesics_dfs(g, 0, 4)
    assert canonical_geodesic(g, Vertex(0), Vertex(4)) == geos[0]


def test_enumeration_cap():
    # K4 with doubled edges has plenty of shortest paths vertex to vertex
    edges = []
    for a in range(4):
        for b in range(a + 1, 4):
            edges.append((len(edges), a, b, 1))
            edges.append((len(edges), a, b, 1))
    g = LabeledMetricGraph(range(4), edges)
    with pytest.raises(CapExceeded) as ei:
        enumerate_geodesics(g, Vertex(0), Vertex(1), cap=1)
    assert len(ei.value.geodesics) == 1


def test_enumeration_cap_on_deep_pair():
    # 2400 hops is far past the interpreter's recursion limit
    depth = 2400
    g0 = build_gamma0(SetFamily.of_lists([["a"], ["b"]]), depth)
    end = Vertex(g0.vertex_of("a", depth))
    with pytest.raises(CapExceeded) as ei:
        enumerate_geodesics(g0.graph, Vertex(0), end, cap=3)
    geos = ei.value.geodesics
    assert len(geos) == 3
    assert [(geo.vertices, geo.edges) for geo in geos] == sorted(
        (geo.vertices, geo.edges) for geo in geos
    )
    for geo in geos:
        assert len(geo.vertices) == depth + 1 and len(geo.edges) == depth
        assert geo.length == depth
        check_geodesic(g0.graph, geo)


def test_check_geodesic_rejects_detour():
    # vertex 5 does not touch edge 0, so (5, 3) leaves neither end of it
    g = LabeledMetricGraph(
        range(6), [(0, 0, 1, 1), (1, 1, 3, 2), (2, 5, 3, 2), (3, 1, 2, 1), (4, 2, 4, 1)]
    )
    path = path_graph(3)
    cases = [
        (cycle_graph(8), Geodesic(
            Vertex(0), Vertex(2), (0, 7, 6, 5, 4, 3, 2), (7, 6, 5, 4, 3, 2), Fraction(6)
        )),
        (g, Geodesic(Interior(0, H), Vertex(3), (5, 3), (2,), Fraction(5, 2))),
        (g, Geodesic(Vertex(3), Interior(0, H), (3, 5), (2,), Fraction(5, 2))),
        # ends at vertex 2, not at vertex 1
        (path, Geodesic(Vertex(0), Vertex(1), (0, 1, 2), (0,), Fraction(1))),
        # one vertex short for its hops, or one too many
        (path, Geodesic(Vertex(0), Vertex(2), (0, 1), (0, 1), Fraction(2))),
        (path, Geodesic(Vertex(0), Vertex(1), (0, 1, 1), (0,), Fraction(1))),
        # no edge 7
        (path, Geodesic(Vertex(0), Vertex(1), (0, 1), (7,), Fraction(1))),
        # an empty vertex sequence needs both ends inside one edge
        (path, Geodesic(Vertex(0), Vertex(0), (), (), Fraction(0))),
        (path, Geodesic(Interior(0, H), Interior(1, H), (), (), Fraction(1))),
    ]
    for graph, bad in cases:
        with pytest.raises(NotAGeodesic):
            check_geodesic(graph, bad)


def _path_geodesic(vertices, edges, length=2, end=Vertex(2)):
    return Geodesic(Vertex(0), end, vertices, edges, length)


# one input per rejecting branch of check_geodesic, on path_graph(4), with
# its message, and a missing middle vertex and a length given as text; the
# first failing hop is named where two hops fail
GEODESIC_REJECTIONS = {
    "bad end": (replace(_path_geodesic((0, 1, 2), (0, 1)), end=Vertex(9)),
                "no vertex with id 9"),
    "bad edge id": (_path_geodesic((0, 1, 2), (0, 7)), "no edge with id 7"),
    "empty vertex sequence": (_path_geodesic((), (), 0, Vertex(0)),
                              "an empty vertex sequence needs both ends inside one edge"),
    "vertex count": (_path_geodesic((0, 1), (0, 1)), "2 vertices do not fit 2 hops"),
    "ends do not join": (_path_geodesic((0, 1, 2, 3), (0, 1, 2)),
                         "vertices 0..3 do not join Vertex(id=0) to Vertex(id=2)"),
    "first failing hop": (_path_geodesic((0, 1, 2, 3), (0, 2, 1), 3, Vertex(3)),
                          "hop 1 does not follow edge 2"),
    "missing middle vertex": (_path_geodesic((0, 7, 2), (0, 1)), "hop 0 does not follow edge 0"),
    "wrong length": (_path_geodesic((0, 1, 2), (0, 1), 3),
                     "claimed length 3, segments sum to 2, metric distance is 2"),
    "length as text": (_path_geodesic((0, 1, 2), (0, 1), "2"),
                       "claimed length 2, segments sum to 2, metric distance is 2"),
}


@pytest.mark.parametrize("case", GEODESIC_REJECTIONS)
def test_check_geodesic_rejections(case):
    bad, message = GEODESIC_REJECTIONS[case]
    with pytest.raises(NotAGeodesic) as got:
        check_geodesic(path_graph(4), bad)
    assert str(got.value) == message


def test_check_geodesic_length_types():
    for length in (2, 2.0, Fraction(2)):
        check_geodesic(path_graph(4), _path_geodesic((0, 1, 2), (0, 1), length))


def test_unhashable_ids_raise_the_library_errors(fam2):
    """An unhashable id gets the error, and the message, of the branch
    that rejects it, never a TypeError."""
    g, g0 = path_graph(3), build_gamma0(fam2, 3)
    f = QuasiMap(g, g, [(p, p) for p in half_net(g)])
    cases = [
        (lambda: check_geodesic(g, _path_geodesic((0, 1, 2), (0, [1]))),
         NotAGeodesic, "no edge with id [1]"),
        (lambda: check_geodesic(g, _path_geodesic(([0], 1, 2), (0, 1))),
         NotAGeodesic, "vertices [0]..2 do not join Vertex(id=0) to Vertex(id=2)"),
        (lambda: check_geodesic(g, _path_geodesic((0, [1], 2), (0, 1))),
         NotAGeodesic, "hop 0 does not follow edge 0"),
        (lambda: level_profile(g0, _path_geodesic((0, [1], 2), (0, 1))),
         NotAGeodesic, "hop 0 does not follow edge 0"),
        (lambda: g.vertex_distance([0], 1), InvalidPoint, "unknown vertex id"),
        (lambda: multi_source_vertex_distances(g, [([0], 0)]), InvalidPoint, "unknown vertex id"),
        # the query passes the gate before the lookup
        (lambda: f.image_of(Vertex([1])), InvalidPoint, "no vertex with id [1]"),
    ]
    for call, error, message in cases:
        with pytest.raises(error) as got:
            call()
        assert str(got.value) == message


# one reader of ids per row, each given an id that only compares equal to
# one (True, False, 1.0) or a missing one, with the error and message that
# reader gives for a missing id
NOT_IDS = {
    "vertex id": (lambda g: LabeledMetricGraph([True, 2], [(0, True, 2, 1)]),
                  GraphStructureError, "vertex ids must be integers"),
    "edge end": (lambda g: LabeledMetricGraph([1, 2], [(0, True, 2, 1)]),
                 GraphStructureError, "edge 0: id and endpoints must be integers"),
    "edge id": (lambda g: LabeledMetricGraph([1, 2], [(1.0, 1, 2, 1)]),
                GraphStructureError, "edge 1.0: id and endpoints must be integers"),
    "basepoint": (lambda g: LabeledMetricGraph([0, 1], [(0, 0, 1, 1)], basepoint=True),
                  GraphStructureError, "basepoint True is not a vertex"),
    "vertex point": (lambda g: distance(g, Vertex(1.0), Vertex(True)),
                     InvalidPoint, "no vertex with id 1.0"),
    "interior point": (lambda g: distance(g, Interior(True, H), Vertex(0)),
                       InvalidPoint, "no edge with id True"),
    "vertex_distance": (lambda g: g.vertex_distance(1.0, True),
                        InvalidPoint, "unknown vertex id"),
    "multi_source_vertex_distances": (lambda g: multi_source_vertex_distances(g, [(True, 0)]),
                                      InvalidPoint, "unknown vertex id"),
    "edge": (lambda g: g.edge(True), InvalidPoint, "no edge with id True"),
    "vertex_row": (lambda g: g.vertex_row(99), InvalidPoint, "no vertex with id 99"),
    "vertex_row of True": (lambda g: g.vertex_row(True), InvalidPoint, "no vertex with id True"),
    "degree": (lambda g: g.degree(99), InvalidPoint, "no vertex with id 99"),
    "degree of 1.0": (lambda g: g.degree(1.0), InvalidPoint, "no vertex with id 1.0"),
    "edges_at": (lambda g: g.edges_at(99), InvalidPoint, "no vertex with id 99"),
    "geodesic middle vertex": (lambda g: check_geodesic(g, _path_geodesic((0, 1.0, 2), (0, 1))),
                               NotAGeodesic, "hop 0 does not follow edge 0"),
    "geodesic first vertex": (lambda g: check_geodesic(g, _path_geodesic((False, 1, 2), (0, 1))),
                              NotAGeodesic,
                              "vertices False..2 do not join Vertex(id=0) to Vertex(id=2)"),
    "geodesic edge": (lambda g: check_geodesic(g, _path_geodesic((0, 1, 2), (0, True))),
                      NotAGeodesic, "no edge with id True"),
}


@pytest.mark.parametrize("name", NOT_IDS)
def test_ids_are_exact_ints(name):
    """Ids are ints and not bools, as documents reads them, wherever they
    enter: what only compares equal to an id is refused like a missing id."""
    call, error, message = NOT_IDS[name]
    with pytest.raises(error) as got:
        call(path_graph(3))
    assert str(got.value) == message


def test_point_along_and_segments():
    g = path_graph(5)
    geo = canonical_geodesic(g, Interior(0, H), Vertex(4))
    assert geo.length == Fraction(7, 2)
    assert point_along(g, geo, 0) == Interior(0, H)
    assert point_along(g, geo, geo.length) == Vertex(4)
    assert point_along(g, geo, H) == Vertex(1)
    assert point_along(g, geo, 1) == Interior(1, H)
    with pytest.raises(InvalidPoint):
        point_along(g, geo, 4)


def test_point_along_needs_a_vertex_or_one_edge():
    """A geodesic that hits no vertex must run inside one edge: point_along
    refuses one whose ends are vertices or lie on two edges."""
    g = path_graph(4)
    for geo in (Geodesic(Vertex(0), Vertex(1), (), (), Fraction(1)),
                Geodesic(Interior(0, H), Interior(2, H), (), (), Fraction(2))):
        with pytest.raises(NotAGeodesic) as err:
            point_along(g, geo, H)
        assert str(err.value) == "an empty vertex sequence needs both ends inside one edge"
        with pytest.raises(NotAGeodesic) as err:
            check_geodesic(g, geo)
        assert str(err.value) == "an empty vertex sequence needs both ends inside one edge"


def test_point_along_matches_the_segment_walk():
    # ends are the half-net and the 1/3 points, so some geodesics run inside
    # one edge, in both directions; 13 arc lengths per geodesic
    inside = set()
    for seed in range(12):
        g = random_graph(seed, 5, extra=2, rational=True)
        pts = half_net(g) + [Interior(e.id, Fraction(1, 3)) for e in g.edges]
        for x in pts:
            for y in pts:
                geo = canonical_geodesic(g, x, y)
                if not geo.vertices:
                    inside.add(x.offset < y.offset)
                for j in range(13):
                    s = geo.length * j / 12
                    assert point_along(g, geo, s) == oracles.point_along_walk(g, geo, s), \
                        (seed, x, y, s)
    assert inside == {True, False}


def test_scale_metric_scales_distances():
    g = random_graph(5, 10, extra=3, rational=True)
    s = scale_metric(g, Fraction(7, 3))
    for u in g.vertex_ids():
        for v in g.vertex_ids():
            assert s.vertex_distance(u, v) == g.vertex_distance(u, v) * Fraction(7, 3)
    with pytest.raises(NonPositiveScale):
        scale_metric(g, 0)


# -- ball complements --------------------------------------------------------


def _component(idx, p):
    """The component of the complement holding p, None if the ball holds it."""
    if isinstance(p, Vertex):
        return idx.vertex_component.get(p.id)
    return next((f.component for f in idx.fragments
                 if f.edge == p.edge and f.lo < p.offset < f.hi), None)


def test_complement_partition_matches_oracle():
    graphs = [random_graph(seed, 11, extra=4, rational=seed % 2 == 1) for seed in range(5)]
    # edges longer than twice the radius: the center's own edge is cut
    # between two surviving endpoints
    graphs.append(LabeledMetricGraph([0, 1], [(0, 0, 1, 10)]))
    graphs.append(scale_metric(random_graph(6, 11, extra=4, rational=True), 3))
    for g in graphs:
        for center in (Vertex(0), Interior(g.edges[0].id, H)):
            for radius in (Fraction(1), Fraction(3, 2), Fraction(5, 2)):
                idx = ball_complement_components(g, center, radius)
                want = oracles.surviving_vertex_partition(g, center, radius)
                got = {}
                for v in g.vertex_ids():
                    c = _component(idx, Vertex(v))
                    if c is not None:
                        got.setdefault(c, set()).add(v)
                assert frozenset(frozenset(s) for s in got.values()) == want
                # components holding a vertex by least vertex id, then the
                # vertex-free fragments by (edge id, lo)
                assert sorted(got, key=lambda c: min(got[c])) == list(range(len(got)))
                assert list(idx.fragments) == sorted(idx.fragments, key=lambda f: (f.edge, f.lo))
                free = [f.component for f in idx.fragments if f.component not in got]
                assert free == list(range(len(got), idx.n_components))


# lengths above 2 make edges longer than twice most radii
SEP_LENGTHS = [Fraction(1), Fraction(1, 2), Fraction(5, 3), Fraction(3), Fraction(9, 2)]
SEP_OFFSETS = [H, Fraction(1, 3), Fraction(3, 4), Fraction(1, 7)]


@st.composite
def rational_graphs(draw, lengths, extra):
    """Connected graphs on up to 6 vertices, parallel edges included."""
    n = draw(st.integers(2, 6))
    edges = [
        (i - 1, draw(st.integers(0, i - 1)), i, draw(st.sampled_from(lengths)))
        for i in range(1, n)
    ]
    for _ in range(draw(st.integers(0, extra))):
        u, v = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        edges.append((len(edges), u, v, draw(st.sampled_from(lengths))))
    return LabeledMetricGraph(range(n), edges)


@st.composite
def interior_points(draw, g):
    e = draw(st.sampled_from(g.edges))
    return Interior(e.id, draw(st.sampled_from(SEP_OFFSETS)))


@st.composite
def graph_points(draw, g):
    """Mostly interior points, sometimes vertices."""
    if draw(st.integers(0, 3)):
        return draw(interior_points(g))
    return Vertex(draw(st.integers(0, g.n_vertices - 1)))


@st.composite
def separation_queries(draw):
    g = draw(rational_graphs(SEP_LENGTHS, 3))
    n = g.n_vertices
    w = draw(interior_points(g))
    x, y = draw(graph_points(g)), draw(graph_points(g))
    fw = oracles.floyd_warshall(g)
    # 0, fixed radii, and radii that put a vertex exactly on the sphere
    spheres = [oracles.point_distance(g, fw, Vertex(v), w) for v in range(n)]
    r = draw(st.sampled_from([Fraction(0), H, Fraction(1), Fraction(2)] + spheres))
    return g, x, y, w, r


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(separation_queries())
def test_separation_matches_point_oracle(query):
    g, x, y, w, r = query
    want = oracles.point_separated(g, x, y, w, r)
    assert is_separated(g, x, y, w, r) == want
    idx = ball_complement_components(g, w, r)
    cx, cy = _component(idx, x), _component(idx, y)
    assert (cx is None or cy is None or cx != cy) == want


@st.composite
def geodesic_queries(draw):
    # two edge lengths and parallel copies, so that ties are common
    g = draw(rational_graphs([Fraction(1), H], 4))
    copies = draw(st.lists(st.sampled_from(g.edges), max_size=4))
    g = LabeledMetricGraph(range(g.n_vertices), g.edges + tuple(
        Edge(g.n_edges + i, e.u, e.v, e.length) for i, e in enumerate(copies)
    ))
    p = draw(graph_points(g))
    return g, p, draw(graph_points(g).filter(lambda q: q != p))


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(geodesic_queries())
def test_geodesics_match_dfs_oracle(query):
    g, p, q = query
    geos = enumerate_geodesics(g, p, q, cap=10**6)
    assert [(geo.vertices, geo.edges) for geo in geos] == oracles.enumerate_geodesics_dfs(g, p, q)
    assert canonical_geodesic(g, p, q) == geos[0]
    d = distance(g, p, q)
    for geo in geos:
        assert (geo.start, geo.end, geo.length) == (p, q, d)
        check_geodesic(g, geo)
        mutants = [replace(geo, length=d + H)]
        vs, es = geo.vertices, geo.edges
        if es:
            mutants.append(replace(geo, vertices=vs[1:], edges=es[1:]))
            # the first hop over an edge that does not join its vertices
            other = [e.id for e in g.edges if {e.u, e.v} != {vs[0], vs[1]}]
            if other:
                mutants.append(replace(geo, edges=(other[0],) + es[1:]))
        if len(vs) > 2:
            # another vertex in the middle: no edge joins it to both neighbours
            vs = vs[:1] + ((vs[1] + 1) % g.n_vertices,) + vs[2:]
            mutants.append(replace(geo, vertices=vs))
        for bad in mutants:
            if bad in geos:
                # from an interior start the next vertex can be as near directly
                check_geodesic(g, bad)
                continue
            with pytest.raises(NotAGeodesic):
                check_geodesic(g, bad)


@st.composite
def point_row_cases(draw):
    """A graph, half the time of two components (two drawn graphs side by
    side), a point x, a net drawn with repeats that may hold points on x's
    own edge, and a scale over the least.  Nets of vertices and of points
    at whole units of 1/L keep the least scale at 1."""
    g = draw(rational_graphs(SEP_LENGTHS, 3))
    if draw(st.booleans()):
        h = draw(rational_graphs(SEP_LENGTHS, 3))
        n, m = g.n_vertices, g.n_edges
        g = LabeledMetricGraph(range(n + h.n_vertices), g.edges + tuple(
            Edge(m + e.id, n + e.u, n + e.v, e.length) for e in h.edges))
    x = draw(st.sampled_from([Vertex(v) for v in g.vertex_ids()]) | interior_points(g))
    pool = [Vertex(v) for v in g.vertex_ids()]
    kind = draw(st.sampled_from(["vertices", "whole", "any"]))
    if kind != "vertices":
        pool += [Interior(e.id, Fraction(j, ln))
                 for e, ln in zip(g.edges, g._elen) for j in range(1, ln)]
        if isinstance(x, Interior):
            pool += [Interior(x.edge, t) for t in SEP_OFFSETS] * 3
    if kind == "any":
        pool += [Interior(e.id, t) for e in g.edges for t in SEP_OFFSETS]
    net = draw(st.lists(st.sampled_from(pool), max_size=8))
    return g, x, net, lcm(*_gated(g, (x, *net))[1]) * draw(st.sampled_from([1, 1, 2, 3]))


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(point_row_cases())
def test_point_rows_match_oracle(case):
    g, x, net, k = case
    fw = oracles.floyd_warshall(g)

    def want(q):
        try:
            return oracles.point_distance(g, fw, x, q) * k * g._scale
        except ValueError:  # q lies in the other component
            return -1

    sx, *pts = _scaled_rows(g, k, _gated(g, (x, *net))[0])
    cols, row = _point_rows(g, k, pts)
    r = row(sx)
    n = g.n_vertices
    assert len(r) == n + len({q for q in net if isinstance(q, Interior)})
    assert list(r[:n]) == [want(Vertex(v)) for v in g.vertex_ids()]
    assert [r[c] for c in cols] == [want(q) for q in net]

    # the other readers of the engine rows leave the cached rows as searched
    for q in net:
        if want(q) >= 0:
            canonical_geodesic(g, x, q)
    if -1 in r:
        with pytest.raises(DisconnectedGraph):
            ball_complement_components(g, x, H)
    else:
        ball_complement_components(g, x, H)
    _, kernel_row, _, _ = _kernel_side(g, k, pts)
    for i in range(len(pts)):
        kernel_row(i)
    _, row = _distance_rows(g, _gated(g, [x]), _gated(g, net))
    if -1 in [want(q) for q in net]:
        with pytest.raises(DisconnectedGraph):
            row(0)
    else:
        row(0)
    assert g._rows
    for src, cached in g._rows.items():
        assert cached == g._search(((0, g._index[src]),))


def test_is_separated_checks_its_inputs():
    g = cycle_graph(12)
    with pytest.raises(ValueError):
        is_separated(g, Vertex(0), Vertex(6), Vertex(3), -1)
    for bad in (Vertex(99), Interior(99, H), Interior(0, Fraction(3, 2))):
        with pytest.raises(InvalidPoint):
            is_separated(g, Vertex(0), Vertex(6), bad, 1)
    for bad in (Vertex(99), Interior(0, Fraction(3, 2))):
        with pytest.raises(InvalidPoint):
            is_separated(g, bad, Vertex(6), Vertex(3), 1)
        with pytest.raises(InvalidPoint):
            is_separated(g, Vertex(0), bad, Vertex(3), 1)
    two = LabeledMetricGraph(range(4), [(0, 0, 1, 1), (1, 2, 3, 1)])
    with pytest.raises(DisconnectedGraph):
        is_separated(two, Vertex(0), Vertex(1), Interior(0, H), 0)
    with pytest.raises(DisconnectedGraph):
        is_separated(two, Vertex(0), Vertex(2), Vertex(1), 0)
    # x inside the ball does not excuse a disconnected graph
    with pytest.raises(DisconnectedGraph):
        is_separated(two, Vertex(0), Vertex(1), Vertex(0), 1)


def test_complement_index_output():
    whole = Fraction(0), Fraction(1)
    idx = ball_complement_components(cycle_graph(12), Vertex(3), 2)
    assert idx == ComplementIndex(
        Vertex(3), Fraction(2), {v: 0 for v in (0, 6, 7, 8, 9, 10, 11)},
        tuple(Fragment(e, *whole, 0) for e in (0, 5, 6, 7, 8, 9, 10, 11)), 1,
    )
    long_edge = LabeledMetricGraph([0, 1], [(0, 0, 1, 10)])
    assert ball_complement_components(long_edge, Vertex(0), 4) == ComplementIndex(
        Vertex(0), Fraction(4), {1: 0}, (Fragment(0, Fraction(2, 5), Fraction(1), 0),), 1,
    )
    assert ball_complement_components(long_edge, Interior(0, H), 1) == ComplementIndex(
        Interior(0, H), Fraction(1), {0: 0, 1: 1},
        (Fragment(0, Fraction(0), Fraction(2, 5), 0), Fragment(0, Fraction(3, 5), Fraction(1), 1)),
        2,
    )
    # vertex 0 lies on the sphere (3 via the short edge); the stretch of
    # edge 0 up to the center's cover is its own component, numbered
    # after every component holding a vertex
    g = LabeledMetricGraph(range(4), [(0, 0, 1, 10), (1, 0, 1, 1), (2, 1, 2, 5), (3, 3, 2, 1)])
    w = Interior(0, Fraction(4, 5))
    assert ball_complement_components(g, w, 3) == ComplementIndex(
        w, Fraction(3), {2: 0, 3: 0},
        (Fragment(0, Fraction(0), H, 1), Fragment(2, Fraction(1, 5), Fraction(1), 0),
         Fragment(3, *whole, 0)),
        2,
    )


def test_is_separated_monotone_in_radius():
    g = cycle_graph(12)
    trips = [(Vertex(0), Vertex(6), Vertex(3)), (Vertex(1), Vertex(7), Vertex(4))]
    for x, y, w in trips:
        prev = False
        r = Fraction(1, 2)
        while r <= 4:
            cur = is_separated(g, x, y, w, r)
            if prev:
                assert cur, f"separation lost when radius grew to {r}"
            prev = cur
            r += H


def test_separation_on_cycle():
    g = cycle_graph(12)
    # radius 2 around vertex 3 cuts the short arc but not the long one
    assert not is_separated(g, Vertex(0), Vertex(6), Vertex(3), 2)
    path = _avoiding_path(g, Vertex(3), Fraction(2), Vertex(0), Vertex(6))
    assert path is not None
    row = g.vertex_row(3)
    assert all(row[v] > 2 for v in path)
    # endpoint inside the ball counts as separated
    assert is_separated(g, Vertex(2), Vertex(8), Vertex(3), 2)


def test_surviving_path_needs_surviving_ends():
    # the closed ball of radius 1 around the middle vertex holds both
    # midpoints, so no path joins them outside it
    g = path_graph(3)
    assert _avoiding_path(g, Vertex(1), 1, Interior(0, H), Interior(1, H)) is None


@st.composite
def avoiding_path_queries(draw):
    g = draw(rational_graphs(SEP_LENGTHS, 3))
    n = g.n_vertices
    w = draw(st.one_of(interior_points(g), st.builds(Vertex, st.integers(0, n - 1))))
    x, y = draw(graph_points(g)), draw(graph_points(g))
    fw = oracles.floyd_warshall(g)
    # 0, fixed radii, and radii that put a vertex exactly on the sphere
    spheres = [oracles.point_distance(g, fw, Vertex(v), w) for v in range(n)]
    r = draw(st.sampled_from([Fraction(0), H, Fraction(1), Fraction(2)] + spheres))
    return g, fw, x, y, w, r


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(avoiding_path_queries())
def test_surviving_path_matches_point_oracle(query):
    g, fw, x, y, w, r = query
    path = _avoiding_path(g, w, r, x, y)
    assert (path is None) == oracles.point_separated(g, x, y, w, r)
    if path is None:
        return
    assert all(oracles.point_distance(g, fw, Vertex(v), w) > r for v in path)
    cut = w.edge if isinstance(w, Interior) else None
    for a, b in zip(path, path[1:]):
        assert any(nbr == b and e.id != cut for nbr, e in g.edges_at(a)), (a, b)


def test_isolated_mid_edge_fragment():
    # both endpoints die but the middle of the long edge survives
    g = LabeledMetricGraph([0, 1], [(0, 0, 1, 10)])
    idx = ball_complement_components(g, Vertex(0), Fraction(4))
    # vertex 1 is at distance 10, alive; the stretch (4, 6) is its own piece
    assert _component(idx, Vertex(1)) is not None
    mid = Interior(0, H)
    c_mid = _component(idx, mid)
    c_v1 = _component(idx, Vertex(1))
    assert c_mid is not None
    g2 = LabeledMetricGraph([0, 1], [(0, 0, 1, 10)])
    idx2 = ball_complement_components(g2, Interior(0, H), Fraction(1))
    a = _component(idx2, Vertex(0))
    b = _component(idx2, Vertex(1))
    assert a is not None and b is not None and a != b
