import functools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import path_graph, random_tree
from coarsegeom import choice_pipeline, cli, coarse_maps, documents, gamma_spaces, metric_graph, tree_ops
from coarsegeom import (
    DisconnectedGraph,
    DomainNotNet,
    EmptyPreimage,
    Interior,
    InvalidPoint,
    LabeledMetricGraph,
    NotCoarselySurjective,
    QuasiMap,
    SetFamily,
    Vertex,
    build_collapse_map,
    build_gamma0,
    build_gamma1,
    compose,
    distance,
    extract_choice,
    half_net,
    minimal_qi_constant,
    prune_k,
    quasi_inverse,
    round_trip_max,
    scale_metric,
    section_map,
    slim_triangle_delta,
    verify_bottleneck,
    verify_quasi_isometry,
)
from coarsegeom.coarse_maps import (
    SurjectivityViolation,
    _distance_rows,
    _first_violation,
    _kernel_side,
    _scaled_pairs,
    _snap,
    surjectivity_radius,
)
from coarsegeom.gamma_spaces import gamma1_edge_id, gamma1_vertex_id
from coarsegeom.metric_graph import _gated, point_key

H = Fraction(1, 2)


def identity_map(g, n=1):
    return QuasiMap(g, g, [(Vertex(v), Vertex(v)) for v in g.vertex_ids()], asserted_constant=n)


def test_duplicate_domain_point_rejected():
    g = path_graph(3)
    with pytest.raises(DomainNotNet):
        QuasiMap(g, g, [(Vertex(0), Vertex(0)), (Vertex(0), Vertex(1)), (Vertex(1), Vertex(1)), (Vertex(2), Vertex(2))])


def test_duplicates_out_of_order_name_the_point():
    # sorting puts equal points side by side, whatever order they came in
    g = path_graph(3)
    pts = [Interior(1, H), Vertex(2), Vertex(0), Interior(1, Fraction(2, 4)), Vertex(1)]
    with pytest.raises(DomainNotNet) as err:
        QuasiMap(g, g, [(p, Vertex(0)) for p in pts])
    assert str(err.value) == "duplicate domain point Interior(edge=1, offset=Fraction(1, 2))"
    pts = [Vertex(2), Vertex(0), Interior(0, H), Vertex(1), Vertex(2)]
    with pytest.raises(DomainNotNet) as err:
        QuasiMap(g, g, [(p, Vertex(0)) for p in pts])
    assert str(err.value) == "duplicate domain point Vertex(id=2)"


def test_image_of_unknown_point():
    g = path_graph(3)
    m = identity_map(g)
    with pytest.raises(InvalidPoint):
        m.image_of(Interior(0, H))


def test_image_of_gates_the_query():
    """Ids and offsets that only compare equal to a point's are refused by
    the gate before the lookup, with the gate's message."""
    g = path_graph(3)
    m = QuasiMap(g, g, [(p, p) for p in half_net(g)])
    assert m.image_of(Interior(1, H)) == Interior(1, H)
    for bad, message in ((Vertex(True), "no vertex with id True"),
                         (Vertex(1.0), "no vertex with id 1.0"),
                         (Interior(True, H), "no edge with id True")):
        with pytest.raises(InvalidPoint) as err:
            m.image_of(bad)
        assert str(err.value) == message


def test_each_map_side_passes_the_gate_once(fam2, pipe2, tmp_path, monkeypatch):
    """A map's construction gates each side once, as its rows; check-qi on
    a map file and extract_choice on a section map then gate no point, and
    a distance gates its two points in one call."""
    calls = []
    real_gate = metric_graph._gate

    def gate(g, rows):
        calls.append(len(rows))
        return real_gate(g, rows)

    for module in (metric_graph, coarse_maps, tree_ops, choice_pipeline, gamma_spaces, documents):
        if hasattr(module, "_gate"):
            monkeypatch.setattr(module, "_gate", gate)
    g0, g1 = build_gamma0(fam2, 3), build_gamma1(fam2, 3)
    distance(g0.graph, Vertex(0), Interior(0, H))
    assert calls == [2]
    calls.clear()
    (tmp_path / "g0.json").write_text(documents.canonical_dumps(documents.gamma0_doc(g0)))
    (tmp_path / "g1.json").write_text(documents.canonical_dumps(documents.gamma1_doc(g1)))
    m = build_collapse_map(g0, g1)
    assert calls == [len(m), len(m)]
    (tmp_path / "map.json").write_text(
        documents.canonical_dumps(documents.map_doc(m, "g0.json", "g1.json")))
    for mode in ("exhaustive", "sampled"):
        calls.clear()
        argv = ["check-qi", "--map", str(tmp_path / "map.json"), "--constant", "2",
                "--mode", mode, "--seed", "1", "--count", "40"]
        assert cli.main(argv + ["--out", str(tmp_path / "qi.json")]) == 0
        assert calls == [len(m), len(m)]  # parse_map's construction
    calls.clear()
    section = section_map(pipe2[0], mode="seeded", seed=3, g1=pipe2[1])
    assert calls == [len(section), len(section)]
    calls.clear()
    assert extract_choice(section, pipe2[0], 4).verified
    assert calls == []


def test_every_producer_stores_the_gates_rows(fam2, tmp_path):
    """Each producer keeps a side as (rows, least scales): the gate's rows of
    the domain, and of its images in domain order, with their scales."""
    g = path_graph(4)
    third = Fraction(1, 3)
    built = QuasiMap(g, g, [(Interior(1, 2 * third), Vertex(2)), (Vertex(2), Interior(0, third)),
                            (Interior(1, third), Vertex(0)), (Vertex(0), Vertex(1)),
                            (Vertex(1), Interior(2, H)), (Vertex(3), Vertex(3))])
    (tmp_path / "g.json").write_text(documents.canonical_dumps(documents.graph_doc(g)))
    parsed = documents.parse_map(documents.map_doc(built, "g.json", "g.json"), str(tmp_path))
    g0, g1 = build_gamma0(fam2, 3), build_gamma1(fam2, 3)
    collapse = build_collapse_map(g0, g1)
    section = section_map(g0, mode="alternating", g1=g1)
    maps = {"QuasiMap": built, "parse_map": parsed, "build_collapse_map": collapse,
            "section_map": section, "quasi_inverse": quasi_inverse(section, 2).map,
            "compose": compose(collapse, section)}
    for name, m in maps.items():
        domain = [p for p, _ in m.assignments]
        assert m._src == _gated(m.source, domain), name
        assert m._tgt == _gated(m.target, [m.image_of(p) for p in domain]), name


def test_assignments_sorted_by_point_key():
    g = path_graph(4)
    pts = list(reversed(half_net(g)))
    m = QuasiMap(g, g, [(p, p) for p in pts], asserted_constant=1)
    keys = [p for p, _ in m.assignments]
    assert keys == sorted(keys, key=lambda p: (0, p.id, 0) if isinstance(p, Vertex) else (1, p.edge, p.offset))


def test_domain_must_cover_vertices():
    g = path_graph(4)
    m = QuasiMap(g, g, [(Vertex(0), Vertex(0)), (Vertex(1), Vertex(1)), (Vertex(3), Vertex(3))])
    with pytest.raises(DomainNotNet):
        verify_quasi_isometry(m, 1)
    with pytest.raises(DomainNotNet):
        minimal_qi_constant(m)


def test_identity_accepted_at_one():
    for g in (path_graph(7), random_tree(3, 12)):
        m = identity_map(g)
        cert = verify_quasi_isometry(m, 1)
        assert cert.accepted and cert.mode == "exhaustive"
        assert minimal_qi_constant(m) == 1


def test_collapse_verification(g0_d3, g1_d3):
    f = build_collapse_map(g0_d3, g1_d3)
    cert = verify_quasi_isometry(f, 2)
    assert cert.accepted
    assert cert.pairs_checked == 861
    assert cert.surjectivity_radius == 0
    assert minimal_qi_constant(f) == 2


def test_collapse_rejection_witness(g0_d3, g1_d3):
    """At constant 1 the parallel cross-level midpoints betray the map:
    they sit 2 apart upstairs and collapse to the same point downstairs."""
    f = build_collapse_map(g0_d3, g1_d3)
    cert = verify_quasi_isometry(f, 1)
    assert not cert.accepted
    v = cert.violations[0]
    assert v.x == Interior(8, H)
    assert v.y == Interior(14, H)
    assert v.d_source == 2
    assert v.d_target == 0
    assert (v.lower_bound, v.upper_bound) == (1, 3)
    # rerun: same certificate, witnesses are deterministic
    assert verify_quasi_isometry(f, 1) == cert


def test_monotone_in_constant(g0_d3, g1_d3):
    f = build_collapse_map(g0_d3, g1_d3)
    accepted = [verify_quasi_isometry(f, n).accepted for n in range(1, 6)]
    assert accepted == sorted(accepted)  # False... then True forever
    n0 = minimal_qi_constant(f)
    assert not verify_quasi_isometry(f, n0 - 1).accepted
    assert verify_quasi_isometry(f, n0).accepted


def test_vertex_exhaustive_mode(g0_d3, g1_d3):
    f = build_collapse_map(g0_d3, g1_d3)
    cert = verify_quasi_isometry(f, 2, mode="vertex-exhaustive")
    assert cert.accepted
    assert cert.mode == "vertex-exhaustive"
    assert cert.pairs_checked == 45


def test_sampled_mode_is_seeded(g0_d3, g1_d3):
    f = build_collapse_map(g0_d3, g1_d3)
    a = verify_quasi_isometry(f, 2, mode="sampled", seed=11, count=40)
    b = verify_quasi_isometry(f, 2, mode="sampled", seed=11, count=40)
    assert a == b
    assert a.pairs_checked == 40
    with pytest.raises(ValueError):
        verify_quasi_isometry(f, 2, mode="sampled", seed=11)
    with pytest.raises(ValueError):
        verify_quasi_isometry(f, 2, mode="sampled", count=40)
    # recorded values, so that a change in draw order fails: one moved
    # image breaks many pairs, and the draws decide which comes first
    pairs = list(f.assignments)
    pairs[5] = (pairs[5][0], pairs[-1][1])
    m = QuasiMap(f.source, f.target, pairs)
    cases = [
        (1, 139, Vertex(2), Vertex(5), Fraction(1), Fraction(9, 2)),
        (3, 114, Interior(31, H), Vertex(5), Fraction(9, 2), Fraction(0)),
    ]
    for seed, checked, x, y, ds, dt in cases:
        cert = verify_quasi_isometry(m, 2, mode="sampled", seed=seed, count=200)
        (v,) = cert.violations
        assert (v.x, v.y, v.d_source, v.d_target) == (x, y, ds, dt)
        assert cert.pairs_checked == checked


def test_sampled_mode_scales_only_the_drawn_points(fam3, monkeypatch):
    """A sampled check of the cli chain's 4,185-point collapse map at count
    500 scales the 601 distinct images once, for the surjectivity radius,
    then each draw its own two points on each side, from the map's
    columns: no other point is scaled."""
    m = build_collapse_map(build_gamma0(fam3, 100), build_gamma1(fam3, 100))
    assert len(m) == 4185
    sizes = []
    real = coarse_maps._scaled_rows
    monkeypatch.setattr(coarse_maps, "_scaled_rows",
                        lambda *a: sizes.append(len(out := real(*a))) or out)
    cert = verify_quasi_isometry(m, 2, mode="sampled", seed=5, count=500)
    assert cert.accepted and cert.pairs_checked == 500
    assert sizes == [601] + [2] * 1000


# -- the pair kernel against the oracles ------------------------------------

# coprime denominators make the common integer scale large
LENGTHS = [Fraction(1), Fraction(1, 2), Fraction(5, 3), Fraction(1, 997), Fraction(1, 991)]
OFFSETS = [H, Fraction(1, 3), Fraction(2, 3), Fraction(1, 991), Fraction(996, 997)]


@st.composite
def rational_graphs(draw):
    n = draw(st.integers(1, 6))
    edges = [
        (i - 1, draw(st.integers(0, i - 1)), i, draw(st.sampled_from(LENGTHS)))
        for i in range(1, n)
    ]
    for _ in range(draw(st.integers(0, 3)) if n > 1 else 0):
        u, v = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        edges.append((len(edges), u, v, draw(st.sampled_from(LENGTHS))))
    return LabeledMetricGraph(range(n), edges)


@st.composite
def graph_points(draw, g):
    if g.edges and draw(st.booleans()):
        e = draw(st.sampled_from(g.edges))
        return Interior(e.id, draw(st.sampled_from(OFFSETS)))
    return Vertex(draw(st.sampled_from(g.vertex_ids())))


@st.composite
def rational_maps(draw):
    src, tgt = draw(rational_graphs()), draw(rational_graphs())
    dom = [Vertex(v) for v in src.vertex_ids()]
    for e in src.edges:
        offsets = st.lists(st.sampled_from(OFFSETS), max_size=2, unique=True)
        dom += [Interior(e.id, t) for t in draw(offsets)]
    return QuasiMap(src, tgt, [(p, draw(graph_points(tgt))) for p in dom])


class BruteQi:
    """QI checks from Floyd-Warshall and point_distance only.  Calling it
    with (n, mode, seed, count) gives (radius, radius witness, pairs
    checked, pair witness); the tables, the radius and each pair's
    distances are computed once per map."""

    def __init__(self, m, fs=None, ft=None):
        self.m = m
        self.fs = oracles.floyd_warshall(m.source) if fs is None else fs
        self.ft = oracles.floyd_warshall(m.target) if ft is None else ft
        images = {q for _, q in m.assignments}
        self.radius, self.far = Fraction(0), None
        for x in half_net(m.target):
            d = None
            for q in images:
                e = oracles.point_distance(m.target, self.ft, x, q)
                if e <= self.radius:
                    break  # then x cannot raise the radius
                d = e if d is None else min(d, e)
            else:
                self.radius, self.far = d, x
        self.dists = {}

    def pair(self, a, b):
        """(source distance, target distance) of two assignments."""
        key = a[0], b[0]
        if key not in self.dists:
            self.dists[key] = (
                oracles.point_distance(self.m.source, self.fs, a[0], b[0]),
                oracles.point_distance(self.m.target, self.ft, a[1], b[1]),
            )
        return self.dists[key]

    def __call__(self, n, mode, seed=None, count=None):
        radius, far = self.radius, self.far
        if radius > n:
            return radius, far, 0, None
        pairs = [pq for pq in self.m.assignments
                 if mode != "vertex-exhaustive" or isinstance(pq[0], Vertex)]
        if mode != "sampled":
            order = [(i, j) for i in range(len(pairs)) for j in range(i + 1, len(pairs))]
        elif len(pairs) < 2:
            order = []
        else:
            rng = random.Random(seed)
            order = [rng.sample(range(len(pairs)), 2) for _ in range(count)]
        for checked, (i, j) in enumerate(order, 1):
            ds, dt = self.pair(pairs[i], pairs[j])
            if not ds / n - n <= dt <= n * ds + n:
                return radius, far, checked, (pairs[i][0], pairs[j][0], ds, dt)
        return radius, far, len(order), None


def assert_qi_matches_oracle(m, n, seed, brute):
    """Every mode of verify_quasi_isometry at constant n, and
    minimal_qi_constant, agree with the brute-force checks."""
    for mode in ("exhaustive", "vertex-exhaustive", "sampled"):
        count = 12 if mode == "sampled" else None
        cert = verify_quasi_isometry(m, n, mode=mode, seed=seed, count=count)
        radius, far, checked, bad = brute(n, mode, seed, count)
        assert cert.surjectivity_radius == radius
        assert cert.pairs_checked == checked
        if radius > n:
            assert cert.violations == (SurjectivityViolation(far, radius, n),)
        elif bad is None:
            assert cert.accepted
        else:
            (v,) = cert.violations
            assert (v.x, v.y, v.d_source, v.d_target) == bad
    best = minimal_qi_constant(m)
    radius, _, _, bad = brute(best, "exhaustive")
    assert radius <= best and bad is None
    if best > 1:
        r, _, _, bad = brute(best - 1, "exhaustive")
        assert r > best - 1 or bad is not None


def collapse_3(move=False):
    """The collapse map of {a, b}, {c} at depth 3, a builder map whose
    domain holds every edge midpoint; with move, its last midpoint, on the
    arm of {c}, is sent up the top edge of the arm of {a, b}, so a
    violation comes late."""
    fam = SetFamily.of_lists([["a", "b"], ["c"]])
    m = build_collapse_map(build_gamma0(fam, 3), build_gamma1(fam, 3))
    pairs = list(m.assignments)
    if move:
        pairs[-1] = pairs[-1][0], Interior(gamma1_edge_id(3, 0, 3), Fraction(1, 4))
    return QuasiMap(m.source, m.target, pairs)


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(rational_maps(), st.integers(1, 3), st.integers(0, 2**16))
@example(collapse_3(), 1, 0)
@example(collapse_3(), 2, 0)
@example(collapse_3(move=True), 2, 7)
def test_pair_kernel_matches_oracles(m, n, seed):
    for g, pts in ((m.source, [p for p, _ in m.assignments]),
                   (m.target, [q for _, q in m.assignments])):
        fw = oracles.floyd_warshall(g)
        for p in pts:
            for q in pts:
                assert distance(g, p, q) == oracles.point_distance(g, fw, p, q)
    assert_qi_matches_oracle(m, n, seed, BruteQi(m))


# Builder graphs have a closed form, so on them the kernel skips the pairs
# the triangle inequality certifies: these maps exercise the skips.
GAMMA_FAMILIES = ((("a",), ("b",)), (("a", "b"),), (("a", "b"), ("c",)))
GAMMA_ORACLES = {}


@functools.lru_cache(maxsize=None)
def gamma_pair(lists, depth):
    """Both builder graphs of a family at a depth and their Floyd-Warshall
    tables, built once per test session."""
    fam = SetFamily.of_lists(lists)
    g0, g1 = build_gamma0(fam, depth), build_gamma1(fam, depth)
    return g0, g1, oracles.floyd_warshall(g0.graph), oracles.floyd_warshall(g1)


@st.composite
def gamma_maps(draw):
    """A seeded section or the collapse map with one to three images moved
    to random vertices or interior points, often late in domain order, so
    that a moved point lies far from its neighbours' images; returned with
    the (source, target) Floyd-Warshall tables."""
    depth = draw(st.sampled_from((5, 8, 13, 21, 40)))
    lists = draw(st.sampled_from(GAMMA_FAMILIES[:1] if depth == 40 else GAMMA_FAMILIES))
    g0, g1, fw0, fw1 = gamma_pair(lists, depth)
    if depth <= 13 and draw(st.booleans()):
        m, fws = build_collapse_map(g0, g1), (fw0, fw1)
    else:
        m = section_map(g0, mode="seeded", seed=draw(st.integers(0, 2**16)), g1=g1)
        fws = fw1, fw0
    pairs = list(m.assignments)
    last = len(pairs) - 1
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, last) | st.integers(last - 8, last))
        pairs[i] = pairs[i][0], draw(graph_points(m.target))
    return QuasiMap(m.source, m.target, pairs), fws


@settings(derandomize=True, max_examples=20, deadline=None, database=None)
@given(gamma_maps(), st.integers(1, 6), st.integers(0, 2**16))
def test_pair_kernel_skips_exactly_on_builder_graphs(m_fws, n, seed):
    m, (fs, ft) = m_fws
    # the builder graphs are shared, so equal maps share one oracle
    key = id(m.source), id(m.target), m.assignments
    if key not in GAMMA_ORACLES:
        GAMMA_ORACLES[key] = BruteQi(m, fs, ft)
    assert_qi_matches_oracle(m, n, seed, GAMMA_ORACLES[key])


def level_scaling_map(lists, depth, f):
    """Γ1 of a family at a depth into Γ1 at f times the depth, every
    half-net point sent to the point f times as high on its arm: target
    distances are exactly f times the source's, so constant f is tight."""
    fam = SetFamily.of_lists(lists)
    src, tgt = build_gamma1(fam, depth), build_gamma1(fam, f * depth)
    pairs = [(Vertex(0), Vertex(0))]
    for si in range(len(lists)):
        for lev in range(1, depth + 1):
            top = gamma1_vertex_id(f * depth, si, f * lev)
            pairs.append((Vertex(gamma1_vertex_id(depth, si, lev)), Vertex(top)))
            # the midpoint below, f/2 under the image of its upper end
            mid = (Vertex(top - 1) if f == 2
                   else Interior(gamma1_edge_id(f * depth, si, f * lev - 1), H))
            pairs.append((Interior(gamma1_edge_id(depth, si, lev), H), mid))
    return QuasiMap(src, tgt, pairs)


def constructor_copy(m):
    """m between constructor-built copies of its graphs: no closed form."""
    src, tgt = (LabeledMetricGraph(list(g.vertex_labels.items()), g.edges)
                for g in (m.source, m.target))
    return QuasiMap(src, tgt, m.assignments)


@st.composite
def band_cases(draw):
    """A seeded section, a collapse map or a level-scaling map with up to
    three images moved to vertices or to offsets k/7, the pairs of one of
    the two exhaustive modes, a constant and a start pair."""
    depth = draw(st.sampled_from((13, 40, 21, 8, 5, 3)))
    lists = draw(st.sampled_from(GAMMA_FAMILIES[:1] if depth == 40 else GAMMA_FAMILIES))
    kind = draw(st.sampled_from(("section", "collapse", "scaling")))
    if kind == "scaling":
        m = level_scaling_map(lists, depth, draw(st.sampled_from((2, 3))))
    else:
        fam = SetFamily.of_lists(lists)
        g0, g1 = build_gamma0(fam, depth), build_gamma1(fam, depth)
        m = (build_collapse_map(g0, g1) if kind == "collapse"
             else section_map(g0, mode="seeded", seed=draw(st.integers(0, 2**16)), g1=g1))
    pairs = list(m.assignments)
    last = len(pairs) - 1
    moved = (st.builds(Vertex, st.sampled_from(m.target.vertex_ids()))
             | st.builds(Interior, st.sampled_from(m.target._eids),
                         st.integers(1, 6).map(lambda k: Fraction(k, 7))))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, last) | st.integers(last - 8, last))
        pairs[i] = pairs[i][0], draw(moved)
    m = QuasiMap(m.source, m.target, pairs)
    if draw(st.booleans()):  # vertex-exhaustive
        pairs = [pq for pq in m.assignments if isinstance(pq[0], Vertex)]
    else:
        pairs = list(m.assignments)
    i = draw(st.integers(0, len(pairs) - 2))
    start = draw(st.just((0, 1)) | st.tuples(st.just(i), st.integers(i + 1, len(pairs) - 1)))
    return m, pairs, draw(st.sampled_from((4, 2, 6, 1, 3, 5))), start


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(band_cases())
def test_band_kernel_matches_pair_scan(case):
    m, pairs, n, start = case
    # the vertex points are the domain's first rows
    rows = slice(len(pairs))
    s, (src, ks, ps), (tgt, kt, pt) = _scaled_pairs(m, rows)
    sides = _kernel_side(src, ks, ps), _kernel_side(tgt, kt, pt)
    assert all(side[3] is not None for side in sides)  # the band path
    assert _first_violation(*sides, n, s, start) == oracles.pair_scan(m, rows, n, start)
    if start == (0, 1) and len(pairs) == len(m):
        # the minimal constant resumes at every violation: the same without bands
        assert minimal_qi_constant(m) == minimal_qi_constant(constructor_copy(m))


class CountingList(list):
    """A list that counts its item reads."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def kernel_work(m, n, mode="exhaustive"):
    """(pairs read, rows built on each side, points) of one accepting
    kernel scan of m at constant n: a pair is read from a source row or
    by the source's closed-form distance."""
    pairs = [pq for pq in m.assignments if mode == "exhaustive" or isinstance(pq[0], Vertex)]
    s, (src, ks, ps), (tgt, kt, pt) = _scaled_pairs(m, slice(len(pairs)))
    (a, row_s, steps_s, dist_s), (b, row_t, steps_t, dist_t) = (
        _kernel_side(src, ks, ps), _kernel_side(tgt, kt, pt))
    source_rows, target_rows, dists = [], [], []

    def source_row(i):
        source_rows.append(CountingList(row_s(i)))
        return source_rows[-1]

    def target_row(i):
        target_rows.append(i)
        return row_t(i)

    def source_dist(i, j):
        dists.append((i, j))
        return dist_s(i, j)

    sides = (a, source_row, steps_s, dist_s and source_dist), (b, target_row, steps_t, dist_t)
    assert _first_violation(*sides, n, s, (0, 1)) is None
    read = len(dists) + sum(r.reads for r in source_rows)
    return read, (len(source_rows), len(target_rows)), len(pairs)


def test_kernel_skips_only_with_a_closed_form():
    fam = SetFamily.of_lists([["a"], ["b"]])
    maps = [section_map(build_gamma0(fam, depth), mode="seeded", seed=4) for depth in (100, 400)]
    for m in maps:
        read, rows, size = kernel_work(m, 4)
        assert read <= 8 * size
        assert rows[0] <= 1 and rows[1] <= 1
    # the same map between constructor-built copies of the graphs is
    # read pair by pair from rows, since a closed-form read would search
    read, _, size = kernel_work(constructor_copy(maps[0]), 4)
    assert read == size * (size - 1) // 2


def test_tight_maps_build_each_row_once():
    """Maps with no slack to certify by are read from rows, each built once."""
    fam = SetFamily.of_lists([["a"], ["b"]])
    g0 = build_gamma0(fam, 150)
    identity = identity_map(g0.graph)
    doubling = level_scaling_map((("a",), ("b",), ("c",)), 60, 2)
    for m, n, mode in ((identity, 1, "vertex-exhaustive"), (doubling, 2, "exhaustive")):
        _, rows, size = kernel_work(m, n, mode)
        assert rows[0] <= size and rows[1] <= size


@pytest.mark.parametrize("n", [2.5, 4.0, Fraction(3, 2), Fraction(4), True, False, "4", None])
def test_constants_must_be_integers(n, pipe2):
    """A float or Fraction slack could round, so every constant is an int."""
    g = path_graph(5)
    g0, g1 = pipe2
    calls = (
        lambda: verify_quasi_isometry(identity_map(g), n),
        lambda: quasi_inverse(identity_map(g), n),
        lambda: extract_choice(section_map(g0, mode="first", g1=g1), g0, n),
    )
    for call in calls:
        with pytest.raises(ValueError, match="^constant must be a positive integer$"):
            call()


@pytest.mark.parametrize("x", [2.5, 2.0, Fraction(2), True, "2"])
def test_counts_rounds_and_caps_must_be_integers(x):
    """A sample count, a round count and a cap are ints, as a constant is:
    each other value fails with the library's ValueError, not with a
    TypeError from range or a trace that echoes it."""
    g = path_graph(5)
    m = identity_map(g)
    calls = (
        (lambda: verify_quasi_isometry(m, 1, mode="sampled", seed=1, count=x), "sample count"),
        (lambda: slim_triangle_delta(g, "sampled", 1, x), "sample count"),
        (lambda: verify_bottleneck(g, 2, mode="sampled", seed=1, count=x), "sample count"),
        (lambda: prune_k(g, x), "round count"),
        (lambda: minimal_qi_constant(m, cap=x), "cap"),
    )
    for call, what in calls:
        with pytest.raises(ValueError, match=f"^{what} must be an integer$"):
            call()


@pytest.mark.parametrize("seed", [[1], 1.5, 2.0, "x", True, Fraction(1)])
def test_seeds_must_be_integers(seed):
    """A given seed is an int, as a count is: any other value fails with
    the library's ValueError, not with a TypeError from random.Random or a
    certificate that echoes it, in sampled and exhaustive mode alike."""
    g = path_graph(5)
    m = identity_map(g)
    calls = (
        lambda mode: verify_quasi_isometry(m, 1, mode=mode, seed=seed, count=3),
        lambda mode: slim_triangle_delta(g, mode, seed, 3),
        lambda mode: verify_bottleneck(g, 2, mode=mode, seed=seed, count=3),
    )
    for call in calls:
        for mode in ("sampled", "exhaustive"):
            with pytest.raises(ValueError, match="^seed must be an integer$"):
                call(mode)


def test_early_rejection_searches_one_row():
    """On a constructor graph a rejection at pair (0, 7) reads, and caches,
    the one row a dense scan reads."""
    size = 1500
    g = path_graph(size)
    img = [size - 1 if i == 7 else i for i in range(size)]
    m = QuasiMap(g, g, [(Vertex(i), Vertex(img[i])) for i in range(size)])
    cert = verify_quasi_isometry(m, 1)
    # dense reference: distances on a path are differences of ids
    pairs = ((i, j) for i in range(size) for j in range(i + 1, size))
    checked, (i, j) = next(
        (c, (i, j)) for c, (i, j) in enumerate(pairs, 1)
        if not abs(i - j) - 1 <= abs(img[i] - img[j]) <= abs(i - j) + 1
    )
    (v,) = cert.violations
    assert (i, j) == (0, 7)
    assert (v.x, v.y) == (Vertex(i), Vertex(j))
    assert cert.pairs_checked == checked
    assert len(g._metric.rows) == 1


def test_rejected_certificate_counts_pairs_to_witness():
    t = path_graph(9)
    m = QuasiMap(t, t, [(Vertex(i), Vertex(0 if i == 6 else i)) for i in range(9)])
    cert = verify_quasi_isometry(m, 1, mode="vertex-exhaustive")
    (v,) = cert.violations
    assert (v.x, v.y) == (Vertex(0), Vertex(6))
    assert cert.pairs_checked == 6


def test_sampled_mode_on_one_point():
    g = LabeledMetricGraph([0], [])
    cert = verify_quasi_isometry(identity_map(g), 1, mode="sampled", seed=1, count=5)
    assert cert.accepted and cert.pairs_checked == 0
    with pytest.raises(ValueError):
        verify_quasi_isometry(identity_map(g), 1, mode="sampled", seed=1, count=-3)


def test_surjectivity_radius_gap():
    t = path_graph(10)
    # image misses the far half of the path
    m = QuasiMap(t, t, [(Vertex(i), Vertex(min(i, 4))) for i in range(10)])
    rad, far = surjectivity_radius(m)
    assert rad == 5
    assert far == Vertex(9)
    cert = verify_quasi_isometry(m, 2)
    assert not cert.accepted
    assert any(getattr(v, "point", None) is not None for v in cert.violations)


def test_not_coarsely_surjective_cap():
    t = path_graph(10)
    m = QuasiMap(t, t, [(Vertex(i), Vertex(0)) for i in range(10)])
    with pytest.raises(NotCoarselySurjective):
        minimal_qi_constant(m, cap=3)


def snap(g, queries, points):
    """_snap on point objects: the nearest of the points, sorted by
    point_key, to each query."""
    net = sorted(points, key=point_key)
    return [net[i] for i in _snap(g, _gated(g, queries), _gated(g, net))]


def test_snap_ties_break_lexicographically():
    g = path_graph(3)
    pts = [Vertex(0), Vertex(2)]
    # vertex 1 is equidistant from both: the smaller point key wins
    assert snap(g, [Vertex(1), Vertex(2)], pts) == [Vertex(0), Vertex(2)]
    mid = Interior(1, H)
    assert snap(g, [mid], [Vertex(0), mid]) == [mid]


def test_snap_on_a_disconnected_graph():
    # two components: 0-1 and 2-3
    g = LabeledMetricGraph(range(4), [(0, 0, 1, 1), (1, 2, 3, 1)])
    # only rows between points of one component are read
    assert snap(g, [Vertex(0)], [Vertex(1)]) == [Vertex(1)]
    third = Interior(0, Fraction(1, 3))
    assert snap(g, [third], [Vertex(0), Interior(0, H)]) == [Interior(0, H)]
    with pytest.raises(DisconnectedGraph):
        snap(g, [Vertex(0)], [Vertex(1), Vertex(2)])
    m1 = QuasiMap(g, g, [(Vertex(0), Vertex(0))])
    m2 = QuasiMap(g, g, [(Vertex(1), Vertex(1)), (Vertex(2), Vertex(2))])
    with pytest.raises(DisconnectedGraph):
        compose(m2, m1)


# -- snapping and coarse inverses against the oracles ----------------------


@st.composite
def snap_cases(draw):
    """A graph, its Floyd-Warshall table, a query and points to snap it
    onto: drawn with repeats, joined by every candidate at the least
    distance among them so that the least distance is often tied, and
    shuffled."""
    g = draw(rational_graphs())
    fw = oracles.floyd_warshall(g)
    q = draw(graph_points(g))
    pool = [Vertex(v) for v in g.vertex_ids()]
    pool += [Interior(e.id, t) for e in g.edges for t in OFFSETS]
    pts = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))
    least = min(oracles.point_distance(g, fw, q, x) for x in pts)
    pts += [x for x in pool if oracles.point_distance(g, fw, q, x) == least]
    return g, fw, q, draw(st.permutations(pts))


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(snap_cases(), st.booleans())
def test_snap_matches_oracle(case, lazy):
    g, fw, q, pts = case
    unit, row = _distance_rows(g, _gated(g, [q]), _gated(g, pts))
    want = [oracles.point_distance(g, fw, q, x) for x in pts]
    assert [Fraction(d, unit) for d in row(0)] == want
    [got] = snap(g, [q], iter(pts) if lazy else pts)
    assert got == oracles.nearest_point(g, fw, q, pts)


@st.composite
def round_trips(draw):
    """A rational map f and a map back from f's target to f's source over
    the target's vertices and some interior points."""
    f = draw(rational_maps())
    back = [Vertex(v) for v in f.target.vertex_ids()]
    for e in f.target.edges:
        offsets = st.lists(st.sampled_from(OFFSETS), max_size=2, unique=True)
        back += [Interior(e.id, t) for t in draw(offsets)]
    return f, QuasiMap(f.target, f.source, [(p, draw(graph_points(f.source))) for p in back])


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(round_trips())
def test_round_trip_and_compose_match_oracle(fg):
    f, g = fg
    fs, ft = oracles.floyd_warshall(f.source), oracles.floyd_warshall(f.target)
    there_and_back = [
        (y, g.image_of(oracles.nearest_point(f.target, ft, fy, [p for p, _ in g.assignments])))
        for y, fy in f.assignments
    ]
    assert compose(g, f).assignments == tuple(there_and_back)
    want = max(oracles.point_distance(f.source, fs, y, x) for y, x in there_and_back)
    assert round_trip_max(f, g) == want


@st.composite
def tree_maps(draw):
    """A rational tree T, a constant n in 1..3, a map from T to T scaled by
    n that moves up to two vertex images to random points, and a root."""
    n, size = draw(st.integers(1, 3)), draw(st.integers(1, 6))
    edges = [
        (i - 1, draw(st.integers(0, i - 1)), i, draw(st.sampled_from(LENGTHS)))
        for i in range(1, size)
    ]
    tree = LabeledMetricGraph(range(size), edges)
    big = scale_metric(tree, n)
    image = {v: Vertex(v) for v in tree.vertex_ids()}
    for v in draw(st.lists(st.sampled_from(tree.vertex_ids()), max_size=2)):
        image[v] = draw(graph_points(big))
    f = QuasiMap(tree, big, [(Vertex(v), q) for v, q in image.items()])
    return f, n, Vertex(draw(st.sampled_from(tree.vertex_ids())))


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(tree_maps())
# a section's clouds hold many points: 42 net points on {a,b},{c} at depth 3
@example((section_map(build_gamma0(SetFamily.of_lists([["a", "b"], ["c"]]), 3),
                      mode="seeded", seed=7), 2, Vertex(0)))
def test_quasi_inverse_matches_oracle(case):
    f, n, z = case
    want = oracles.brute_quasi_inverse(f, n, z)
    if any(m is None for _, m in want):
        with pytest.raises(EmptyPreimage):
            quasi_inverse(f, n, z)
    else:
        assert quasi_inverse(f, n, z).map.assignments == tuple(want)


def test_compose_slack(g0_d3, g1_d3):
    f = build_collapse_map(g0_d3, g1_d3)
    ident = QuasiMap(
        g0_d3.graph, g0_d3.graph, [(p, p) for p in half_net(g0_d3.graph)], asserted_constant=1
    )
    comp = compose(f, ident)
    n1, n2 = 1, 2
    assert minimal_qi_constant(comp) <= n1 * n2 + n1 + n2 + 2
    # composing doesn't invent an asserted constant
    assert comp.asserted_constant is None


def test_compose_transitivity_of_acceptance():
    t = path_graph(12)
    s = scale_metric(t, 2)
    up = QuasiMap(t, s, [(Vertex(i), Vertex(i)) for i in range(12)], asserted_constant=2)
    down = QuasiMap(s, t, [(Vertex(i), Vertex(i)) for i in range(12)], asserted_constant=2)
    assert verify_quasi_isometry(up, 2).accepted
    assert verify_quasi_isometry(down, 2).accepted
    rt = compose(down, up)
    n = minimal_qi_constant(rt)
    assert verify_quasi_isometry(rt, n).accepted
    assert n <= 2 * 2 + 2 + 2 + 2
