"""Slim triangles, midpoints, bottleneck certificates, separation."""

from fractions import Fraction
from itertools import combinations

import pytest

import oracles
from conftest import cycle_graph, path_graph, random_graph, random_tree
from coarsegeom import (
    DeltaWitness,
    Interior,
    LabeledMetricGraph,
    QuasiMap,
    Vertex,
    build_gamma0,
    canonical_geodesic,
    certify_two_hyperbolic_gamma0,
    distance,
    half_net,
    midpoint,
    scale_metric,
    slim_triangle_delta,
    verify_bottleneck,
    verify_quasi_isometry,
)
from coarsegeom.coarse_analysis import _carrier, _separation_probes
from coarsegeom.metric_graph import _arc

H = Fraction(1, 2)


def test_delta_matches_brute_force():
    cases = [
        cycle_graph(8),
        cycle_graph(6),
        random_graph(0, 9, extra=3),
        random_graph(1, 8, extra=4, rational=True),
    ]
    for g in cases:
        assert slim_triangle_delta(g).delta_upper_observed == oracles.brute_delta(g)


def test_eight_cycle_report():
    r = slim_triangle_delta(cycle_graph(8))
    assert r.delta_upper_observed == 2
    assert r.triples_checked == 56
    assert r.triples_skipped == 0
    assert r.sampling_slack == H
    assert r.witness == DeltaWitness(side=(0, 4), apex=1, point=Vertex(6), dist=Fraction(2))


def test_delta_witnesses_are_pinned():
    """The witness (side, apex, point) as well as the value, for a vertex
    and for edge-midpoint witnesses on rational graphs."""
    cases = [
        (cycle_graph(8), DeltaWitness((0, 4), 1, Vertex(6), Fraction(2))),
        (random_graph(3, 10, extra=8, rational=True),
         DeltaWitness((2, 4), 7, Vertex(0), Fraction(3, 2))),
        (random_graph(6, 10, extra=8, rational=True),
         DeltaWitness((0, 6), 1, Interior(8, H), Fraction(7, 4))),
        (random_graph(9, 9, extra=5, rational=True),
         DeltaWitness((0, 6), 2, Interior(11, H), Fraction(3, 4))),
    ]
    for g, witness in cases:
        r = slim_triangle_delta(g)
        assert (r.delta_upper_observed, r.witness) == (witness.dist, witness)


def test_trees_are_zero_thin():
    """A tree triangle is a tripod; every side stays inside the union."""
    for seed in range(6):
        t = random_tree(seed, 10 + seed, rational=seed % 2 == 0)
        r = slim_triangle_delta(t)
        assert r.delta_upper_observed == 0
        assert r.witness is None
    big = random_tree(41, 30)
    assert slim_triangle_delta(big).delta_upper_observed == 0


def test_delta_scales_linearly():
    g = cycle_graph(8)
    base = slim_triangle_delta(g)
    for lam in (Fraction(3, 2), 2, Fraction(1, 3)):
        scaled = slim_triangle_delta(scale_metric(g, lam))
        assert scaled.delta_upper_observed == base.delta_upper_observed * Fraction(lam)
        assert scaled.sampling_slack == base.sampling_slack * Fraction(lam)


def test_delta_sampled_mode_seeded():
    g = cycle_graph(12)
    a = slim_triangle_delta(g, mode="sampled", seed=3, count=50)
    b = slim_triangle_delta(g, mode="sampled", seed=3, count=50)
    assert a == b
    assert a.triples_checked == 50
    assert a.delta_upper_observed <= slim_triangle_delta(g).delta_upper_observed
    with pytest.raises(ValueError):
        slim_triangle_delta(g, mode="sampled", seed=3)
    # recorded values, so that a change in draw order fails: the side
    # (4, 2) comes out in draw order, not sorted
    cases = [
        (random_graph(3, 10, extra=8, rational=True),
         DeltaWitness((4, 2), 9, Vertex(0), Fraction(3, 2))),
        (random_graph(9, 10, extra=8, rational=True),
         DeltaWitness((9, 4), 2, Interior(14, H), Fraction(1))),
    ]
    for g, witness in cases:
        r = slim_triangle_delta(g, mode="sampled", seed=7, count=25)
        assert (r.delta_upper_observed, r.witness) == (witness.dist, witness)
        assert r.triples_checked == 25


def test_carrier_rows_match_floyd_warshall():
    """_carrier's vertices are those on some geodesic, and its row holds
    each vertex's least distance to them, in units of 1/L."""
    for g in (cycle_graph(8), random_graph(3, 10, extra=8, rational=True),
              random_graph(7, 9, extra=5, rational=True)):
        fw, ids = oracles.floyd_warshall(g), g.vertex_ids()
        for a, b in combinations(ids, 2):
            verts, _, row = _carrier(g, a, b)
            assert verts == tuple(w for w in ids if fw[a][w] + fw[w][b] == fw[a][b])
            for w in ids:
                least = min(fw[w][v] for v in verts)
                assert row[g._index[w]] == least * g._scale


def test_delta_searches_once_per_carrier():
    """Exhaustive delta runs one search per vertex row and one per
    carrier, V + C(V, 2), however many triples share a carrier."""
    g = random_graph(3, 10, extra=8, rational=True)
    metric = g._metric
    search, calls = metric.search, []
    metric.search = lambda *args: calls.append(args) or search(*args)
    slim_triangle_delta(g)
    assert len(calls) == 10 + 45


def test_gamma0_observes_small_delta(g0_8):
    r = slim_triangle_delta(g0_8.graph, mode="sampled", seed=4, count=120)
    assert r.delta_upper_observed <= 2


def test_midpoint_cases():
    p = path_graph(5)
    assert midpoint(p, Vertex(0), Vertex(4)) == Vertex(2)
    assert midpoint(p, Vertex(0), Vertex(3)) == Interior(1, H)
    assert midpoint(p, Vertex(2), Vertex(2)) == Vertex(2)
    # canonical geodesic decides which way around a cycle
    c = cycle_graph(8)
    assert midpoint(c, Vertex(0), Vertex(4)) == Vertex(2)


def test_bottleneck_accepts_on_trees():
    assert verify_bottleneck(path_graph(9), 3).accepted
    assert verify_bottleneck(random_tree(3, 12, rational=True), 3).accepted


def test_bottleneck_radius_validation():
    g = path_graph(4)
    r = verify_bottleneck(g, 3)
    assert r.delta_param == 3 and r.radius == 2
    with pytest.raises(ValueError):
        verify_bottleneck(g, 3, radius=3)
    with pytest.raises(ValueError):
        verify_bottleneck(g, 3, radius=-1)
    assert verify_bottleneck(g, 3, radius=Fraction(5, 2)).radius == Fraction(5, 2)


def test_long_cycles_fail_bottleneck():
    for n in (16, 20, 24):
        assert not verify_bottleneck(cycle_graph(n), 3).accepted


def test_whole_segments_are_the_hop_edges(fam2):
    # the probe loop reads a geodesic's whole segments off its hop edges:
    # hop i joins hits i and i + 1, and the arc table steps by its length
    graphs = (build_gamma0(fam2, 3).graph, random_graph(2, 8, extra=3, rational=True),
              random_graph(5, 9, extra=4, rational=True))
    for g in graphs:
        net = half_net(g)
        for i, x in enumerate(net):
            for y in net[i + 1:]:
                geo = canonical_geodesic(g, x, y)
                vs = geo.vertices
                if not vs:
                    continue
                k, at = _arc(g, geo)
                unit = k * g._scale
                assert len(at) == len(vs) + 1, (x, y)
                assert Fraction(at[0], unit) == distance(g, x, Vertex(vs[0])), (x, y)
                assert Fraction(at[-1], unit) == geo.length, (x, y)
                for a, b, eid, lo, hi in zip(vs, vs[1:], geo.edges, at, at[1:]):
                    e = g.edge(eid)
                    assert {e.u, e.v} == {a, b}, (x, y)
                    assert Fraction(hi - lo, unit) == e.length, (x, y)


def test_bottleneck_witness_distance_is_the_metric():
    for g, kw in ((cycle_graph(16), {}), (cycle_graph(24), {}),
                  (cycle_graph(24), {"mode": "sampled", "seed": 3, "count": 40}),
                  (random_graph(0, 14, extra=6, rational=True), {})):
        w = verify_bottleneck(g, 3, **kw).witness
        assert w is not None and w.distance == distance(g, w.x, w.y)


def test_twentyfour_cycle_witness():
    b = verify_bottleneck(cycle_graph(24), 3)
    assert not b.accepted
    # pairs come in lexicographic order: (0, 5) is the fifth
    assert b.pairs_checked == 5
    w = b.witness
    assert (w.x, w.y) == (Vertex(0), Vertex(5))
    assert w.probe == Interior(2, H)
    assert w.distance == 5
    assert w.avoiding_path == (0,) + tuple(range(23, 4, -1))
    # reproducible: rerun gives the identical report
    assert verify_bottleneck(cycle_graph(24), 3) == b
    # recorded sampled values, so that a change in draw order fails
    b = verify_bottleneck(cycle_graph(24), 3, mode="sampled", seed=3, count=40)
    assert not b.accepted and b.pairs_checked == 3
    w = b.witness
    assert (w.x, w.y, w.probe) == (Vertex(23), Interior(14, H), Interior(18, Fraction(3, 4)))
    assert w.distance == Fraction(17, 2)
    assert w.avoiding_path == (23,) + tuple(range(15))


def test_bottleneck_witness_path_avoids_sphere_vertices():
    # vertex 2 is the probe at radius 0: it lies on the sphere, so the
    # witness must go round it through vertex 3
    g = LabeledMetricGraph(range(4), [(0, 0, 2, 1), (1, 2, 1, 1), (2, 0, 3, 1), (3, 3, 1, 2)])
    b = verify_bottleneck(g, 1, radius=0)
    assert not b.accepted
    assert (b.witness.x, b.witness.y, b.witness.probe) == (Vertex(0), Vertex(1), Vertex(2))
    assert b.witness.avoiding_path == (0, 3, 1)


def test_bottleneck_monotone_in_delta():
    g = cycle_graph(10)
    accepted = [verify_bottleneck(g, d).accepted for d in range(2, 8)]
    assert accepted == sorted(accepted)


def test_gamma0_bottleneck_sampled(g0_8):
    b = verify_bottleneck(g0_8.graph, 3, mode="sampled", seed=9, count=50)
    assert b.accepted
    assert b.pairs_checked == 50
    assert b.radius == 2


def test_separation_certificate(fam2):
    g0 = build_gamma0(fam2, 6)
    r = certify_two_hyperbolic_gamma0(g0, seed=5, count=60)
    assert r.accepted
    assert r.radius == 2
    assert r.pairs_checked == 60
    assert r.probes_checked == 85
    assert r.witness is None
    assert certify_two_hyperbolic_gamma0(g0, seed=5, count=60) == r


def test_separation_probes_read_arc_lengths(fam2):
    """A probe's distance to either end is its position along the
    geodesic, so the probes are the definition's: the vertex hits, then
    the hop midpoints, each kept when its distance to both ends is
    greater than 2.  Every pair of half-net points is checked."""
    graphs = (build_gamma0(fam2, 4).graph, random_graph(2, 10, extra=2, rational=True),
              random_graph(5, 11, extra=3, rational=True))
    kept = 0
    for g in graphs:
        net = half_net(g)
        for i, x in enumerate(net):
            for y in net[i + 1:]:
                geo = canonical_geodesic(g, x, y)
                hits = [Vertex(v) for v in geo.vertices] + [Interior(e, H) for e in geo.edges]
                want = [w for w in hits if distance(g, x, w) > 2 and distance(g, y, w) > 2]
                assert _separation_probes(g, geo) == want, (x, y)
                kept += len(want)
    assert kept


def test_sampled_modes_on_tiny_pools(fam2):
    g = path_graph(1)
    rep = verify_bottleneck(g, 2, mode="sampled", seed=1, count=5)
    assert rep.accepted and rep.pairs_checked == 0
    assert slim_triangle_delta(g, mode="sampled", seed=1, count=5).triples_checked == 0
    g0 = build_gamma0(fam2, 3)
    qi = QuasiMap(g, g, [(Vertex(0), Vertex(0))])
    # the four certificates share one wording for each bad argument
    checks = [
        lambda mode, seed, count: verify_quasi_isometry(qi, 1, mode, seed, count),
        lambda mode, seed, count: slim_triangle_delta(g, mode, seed, count),
        lambda mode, seed, count: verify_bottleneck(g, 2, None, mode, seed, count),
        lambda mode, seed, count: certify_two_hyperbolic_gamma0(g0, seed, count),
    ]
    bad = {
        "sample count must be >= 0": ("sampled", 1, -3),
        "sampled mode needs a seed and a count": ("sampled", None, 5),
    }
    for message, args in bad.items():
        for check in checks:
            with pytest.raises(ValueError) as err:
                check(*args)
            assert str(err.value) == message
    for check in checks[:3]:
        with pytest.raises(ValueError) as err:
            check("fast", 1, 5)
        assert str(err.value) == "unknown mode 'fast'"
