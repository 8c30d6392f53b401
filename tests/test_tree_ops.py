import functools
import random
from fractions import Fraction

import pytest

import oracles
from conftest import path_graph, random_graph, random_tree
from coarsegeom import coarse_maps, tree_ops
from coarsegeom.metric_graph import _gated
from coarsegeom import (
    EmptyPreimage,
    GraphMismatch,
    Interior,
    InvalidPoint,
    LabeledMetricGraph,
    NotATree,
    PruneTrace,
    QuasiMap,
    SetFamily,
    Vertex,
    assert_tree,
    build_collapse_map,
    build_gamma0,
    build_gamma1,
    canonical_geodesic,
    compose,
    distance,
    half_net,
    minimal_qi_constant,
    prune_k,
    quasi_inverse,
    round_trip_max,
    scale_metric,
    section_map,
    tree_median,
    tree_meet,
    verify_quasi_isometry,
)

H = Fraction(1, 2)


def caterpillar():
    # path 0-1-2-3 with extra leaves 4, 5 on vertex 1 and 6 on vertex 2
    return LabeledMetricGraph(
        range(7), [(0, 0, 1, 1), (1, 1, 2, 1), (2, 2, 3, 1), (3, 1, 4, 1), (4, 1, 5, 1), (5, 2, 6, 1)]
    )


def test_assert_tree_rejections():
    with pytest.raises(NotATree):
        assert_tree(LabeledMetricGraph([], []))
    with pytest.raises(NotATree):  # cycle
        assert_tree(LabeledMetricGraph([0, 1, 2], [(0, 0, 1, 1), (1, 1, 2, 1), (2, 2, 0, 1)]))
    with pytest.raises(NotATree):  # disconnected forest
        assert_tree(LabeledMetricGraph([0, 1, 2, 3], [(0, 0, 1, 1), (1, 2, 3, 1)]))
    assert_tree(path_graph(5))


def test_prune_rounds():
    out, tr = prune_k(caterpillar(), 3)
    assert tr.rounds_requested == 3
    assert tr.stages == ((0, 3, 4, 5, 6), (1, 2))
    assert tr.rounds_run == 2
    assert tr.empty
    assert out.n_vertices == 0


def test_prune_once():
    out, tr = prune_k(caterpillar(), 1)
    assert tr.stages == ((0, 3, 4, 5, 6),) and not tr.empty
    assert sorted(out.vertex_ids()) == [1, 2]


def test_prune_removed_were_leaves():
    """White box: every removed vertex had valence 1 when its round ran."""
    g = random_tree(11, 25)
    out, tr = prune_k(g, 4)
    cur = g
    for stage in tr.stages:
        adj = oracles.adjacency(cur)
        for v in stage:
            assert len(adj[v]) == 1
        cur, _ = prune_k(cur, 1)
    assert oracles.label_shape(cur) == oracles.label_shape(out)


def test_prune_matches_round_by_round_rescan():
    """Each round's leaves are found among the last round's neighbors;
    a full rescan per round finds the same stages and the same graph."""
    graphs = [random_tree(seed, 5 + 4 * seed, rational=True) for seed in range(8)]
    graphs += [random_graph(seed, 14, extra=4) for seed in range(4)]  # cycles, parallels
    graphs.append(LabeledMetricGraph(range(3), [(0, 0, 1, 1), (1, 0, 1, 2), (2, 1, 2, 1)],
                                     basepoint=2))
    for g in graphs:
        for k in (0, 1, 2, 5, 100):
            out, tr = prune_k(g, k)
            alive, stages = oracles.brute_prune(g, k)
            assert tr == PruneTrace(k, stages, not alive)
            base = g.basepoint if g.basepoint in alive else None
            assert out.same_structure(LabeledMetricGraph(
                [(v, g.vertex_labels[v]) for v in sorted(alive)],
                [e for e in g.edges if e.u in alive and e.v in alive], basepoint=base))


def test_prune_keeps_treeness_and_shrinks():
    g = random_tree(5, 30, rational=True)
    prev = g.n_vertices
    cur = g
    for _ in range(5):
        cur, tr = prune_k(cur, 1)
        if tr.empty or tr.rounds_run == 0:
            break
        assert_tree(cur)
        assert cur.n_vertices < prev
        prev = cur.n_vertices


def test_prune_tiny_trees():
    out, tr = prune_k(LabeledMetricGraph([0, 1], [(0, 0, 1, 1)]), 1)
    assert tr.empty and tr.stages == ((0, 1),) and out.n_vertices == 0
    # an isolated vertex has valence 0: pruning never touches it
    out1, tr1 = prune_k(LabeledMetricGraph([5], []), 4)
    assert not tr1.empty and tr1.stages == () and out1.n_vertices == 1


def test_prune_quotient_tree_drops_levels(fam2):
    """Pruning the depth-6 quotient tree twice leaves the depth-4 tree."""
    pruned, tr = prune_k(build_gamma1(fam2, 6), 2)
    assert tr.stages == ((6, 12), (5, 11))
    assert oracles.label_shape(pruned) == oracles.label_shape(build_gamma1(fam2, 4))


def test_median_on_path():
    p = path_graph(10)
    assert tree_median(p, Vertex(0), Vertex(7), Vertex(3)) == Vertex(3)
    assert tree_median(p, Interior(0, H), Vertex(9), Interior(4, Fraction(1, 4))) == Interior(
        4, Fraction(1, 4)
    )
    with pytest.raises(NotATree):
        tree_median(LabeledMetricGraph([0, 1, 2], [(0, 0, 1, 1), (1, 1, 2, 1), (2, 2, 0, 1)]), Vertex(0), Vertex(1), Vertex(2))


def test_median_matches_intersection_oracle():
    for seed in range(8):
        t = random_tree(seed, 6 + 2 * seed, rational=True)
        assert t.n_vertices <= 25
        rng = random.Random(seed)
        pts = half_net(t)
        for _ in range(6):
            z, a, b = (pts[rng.randrange(len(pts))] for _ in range(3))
            assert tree_median(t, z, a, b) == oracles.brute_tree_median(t, z, a, b)


def meet_fold(t, z, points):
    """The fold of medians with root z over a preimage cloud, taken point
    by point: where tree_ops._meets must land in one walk."""
    return functools.reduce(lambda m, p: tree_median(t, z, m, p), points)


def test_tree_median_gates_z_first():
    """z, a and b pass the gate in that order: a bad z is named before a bad a."""
    t = build_gamma1(SetFamily.of_lists([["a"], ["b"]]), 3)
    with pytest.raises(InvalidPoint) as err:
        tree_median(t, Vertex(99), Vertex(98), Vertex(1))
    assert str(err.value) == "no vertex with id 99"


def test_meet_fold():
    p = path_graph(10)
    assert meet_fold(p, Vertex(0), [Vertex(7), Vertex(3), Vertex(5)]) == Vertex(3)


def test_meet_fold_order_independent():
    for seed in range(5):
        t = random_tree(seed + 30, 16, rational=True)
        rng = random.Random(seed)
        pts = half_net(t)
        chosen = [pts[rng.randrange(len(pts))] for _ in range(5)]
        z = pts[rng.randrange(len(pts))]
        base = meet_fold(t, z, chosen)
        for _ in range(4):
            rng.shuffle(chosen)
            assert meet_fold(t, z, chosen) == base
            assert tree_ops._meets(t, _gated(t, (z,)), _gated(t, chosen))(range(len(chosen))) == base


def test_tree_meet_needs_base():
    p = path_graph(10)
    assert tree_meet(p, Vertex(7), Vertex(3), base=Vertex(0)) == Vertex(3)
    with pytest.raises(ValueError):
        tree_meet(p, Vertex(7), Vertex(3))
    rooted = LabeledMetricGraph(range(3), [(0, 0, 1, 1), (1, 1, 2, 1)], basepoint=0)
    assert tree_meet(rooted, Vertex(1), Vertex(2)) == Vertex(1)


# -- the quasi-inverse --------------------------------------------------------


def test_quasi_inverse_on_identity_path():
    p = path_graph(10)
    f = QuasiMap(p, p, [(Vertex(i), Vertex(i)) for i in range(10)], asserted_constant=1)
    res = quasi_inverse(f, 1)
    assert res.bound == 9
    assert res.certificate.accepted and res.certificate.constant == 9
    assert res.minimal_constant == 1
    # meets pull each point one step toward the root
    assert res.map.image_of(Vertex(5)) == Vertex(4)
    assert round_trip_max(f, res.map) == 1


def test_quasi_inverse_needs_tree_source():
    c = LabeledMetricGraph([0, 1, 2], [(0, 0, 1, 1), (1, 1, 2, 1), (2, 2, 0, 1)])
    f = QuasiMap(c, c, [(Vertex(i), Vertex(i)) for i in range(3)], asserted_constant=1)
    with pytest.raises(NotATree):
        quasi_inverse(f, 1)


def test_quasi_inverse_empty_preimage():
    src = path_graph(3)
    tgt = path_graph(10)
    f = QuasiMap(src, tgt, [(Vertex(i), Vertex(i)) for i in range(3)], asserted_constant=1)
    with pytest.raises(EmptyPreimage):
        quasi_inverse(f, 1)


def test_quasi_inverse_scaled_trees():
    for n in (1, 2, 3):
        t = random_tree(20 + n, 14, rational=True)
        s = scale_metric(t, n)
        f = QuasiMap(t, s, [(Vertex(v), Vertex(v)) for v in t.vertex_ids()], asserted_constant=n)
        assert verify_quasi_isometry(f, n).accepted
        res = quasi_inverse(f, n)
        assert res.bound == 9 * n * n
        assert res.certificate.accepted
        assert res.minimal_constant <= res.bound
        assert round_trip_max(f, res.map) <= 3 * n * n


def test_quasi_inverse_certificate_is_the_check():
    """An inverse whose minimal constant is within 9n^2 gets its
    certificate without a second scan: it is the one the check gives."""
    for seed, n in ((3, 1), (4, 2), (5, 3), (6, 2)):
        t = random_tree(40 + seed, 12 + seed, rational=True)
        f = QuasiMap(t, scale_metric(t, n), [(p, p) for p in half_net(t)], asserted_constant=n)
        res = quasi_inverse(f, n)
        assert res.minimal_constant <= res.bound
        assert res.certificate == verify_quasi_isometry(res.map, res.bound)


def test_quasi_inverse_of_a_non_qi_fails_at_the_bound():
    # a path of length 12 crushed onto one end of an edge: every target
    # point's preimage cloud is the whole path, whose meet is the root, so
    # the inverse lands on vertex 0 and misses the far end by 12 > 9
    p = path_graph(13)
    edge = path_graph(2)
    f = QuasiMap(p, edge, [(Vertex(i), Vertex(0)) for i in range(13)])
    res = quasi_inverse(f, 1)
    assert {q for _, q in res.map.assignments} == {Vertex(0)}
    assert res.minimal_constant == 12
    assert not res.certificate.accepted
    assert res.certificate == verify_quasi_isometry(res.map, 9)
    assert res.certificate.surjectivity_radius == 12


def test_round_trip_max_needs_maps_that_compose():
    path = path_graph(4)
    star = LabeledMetricGraph(range(4), [(0, 0, 1, 1), (1, 0, 2, 1), (2, 0, 3, 1)])
    f = QuasiMap(path, path, [(Vertex(i), Vertex(i)) for i in range(4)])
    g = QuasiMap(star, star, [(Vertex(i), Vertex(i)) for i in range(4)])
    with pytest.raises(GraphMismatch):
        compose(g, f)
    with pytest.raises(GraphMismatch):
        round_trip_max(f, g)
    # g leaves from f's target but does not come back to f's source
    into_star = QuasiMap(path, star, [(Vertex(i), Vertex(i)) for i in range(4)])
    with pytest.raises(GraphMismatch):
        round_trip_max(into_star, g)


def test_quasi_inverse_root_override():
    p = path_graph(6)
    f = QuasiMap(p, p, [(Vertex(i), Vertex(i)) for i in range(6)], asserted_constant=1)
    res_a = quasi_inverse(f, 1)
    res_b = quasi_inverse(f, 1, z=Vertex(5))
    # meets from the far end pull the other way
    assert res_a.map.image_of(Vertex(2)) == Vertex(1)
    assert res_b.map.image_of(Vertex(2)) == Vertex(3)
    assert res_a.certificate.accepted and res_b.certificate.accepted


def test_quasi_inverse_walks_one_geodesic_per_net_point(fam2, monkeypatch):
    s = section_map(build_gamma0(fam2, 3), mode="seeded", seed=7)
    walks = []

    def counted(*args):
        walks.append(args)
        return canonical_geodesic(*args)

    monkeypatch.setattr(tree_ops, "canonical_geodesic", counted)
    res = quasi_inverse(s, 2)
    assert len(res.map) == 42
    assert len(walks) <= 42


def test_quasi_inverse_reads_the_radius_once(fam2, monkeypatch):
    """An accepted inverse's certificate carries the surjectivity radius
    that its minimal constant started from: one computation, not two."""
    calls = []
    real = coarse_maps.surjectivity_radius

    def counted(m):
        calls.append(m)
        return real(m)

    for module in (coarse_maps, tree_ops):
        if hasattr(module, "surjectivity_radius"):
            monkeypatch.setattr(module, "surjectivity_radius", counted)
    res = quasi_inverse(section_map(build_gamma0(fam2, 3), mode="seeded", seed=7), 2)
    assert res.certificate.accepted
    assert [m is res.map for m in calls] == [True]
    assert res.certificate.surjectivity_radius == real(res.map)[0]


def test_collapse_and_section_invert_each_other(fam3):
    """Both directions of the first claim on one family: the collapse out
    of the doubled-edge graph, its section, and the coarse inverse of the
    section, which needs no choice."""
    g0 = build_gamma0(fam3, 10)
    f = build_collapse_map(g0, build_gamma1(fam3, 10))
    s = section_map(g0, mode="seeded", seed=7, g1=f.target)
    for m in (f, s):
        assert verify_quasi_isometry(m, 2).accepted
        assert minimal_qi_constant(m) == 2
    assert round_trip_max(f, s) == 2
    assert round_trip_max(s, f) == 0
    res = quasi_inverse(s, 2)
    assert res.minimal_constant == 2 and res.certificate.accepted
    h = res.map
    assert max(distance(f.target, h.image_of(x), y) for x, y in f.assignments) == 2
