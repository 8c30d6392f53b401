"""Acceptance gate: ten checks, each printing one PASS line with its
elapsed time.  Every comparison is exact; the stated time budgets are
asserted too.

Run with -v (or -rA) to see one line per check.
"""

import functools
import itertools
import json
import random
import time
from fractions import Fraction

from coarsegeom import (
    CapExceeded,
    LevelProfile,
    QuasiMap,
    Vertex,
    build_collapse_map,
    build_gamma0,
    build_gamma1,
    canonical_geodesic,
    classify_point,
    distance,
    enumerate_geodesics,
    half_net,
    is_separated,
    level_of,
    minimal_qi_constant,
    point_along,
    quasi_inverse,
    round_trip_max,
    scale_metric,
    section_map,
    slim_triangle_delta,
    tree_median,
    verify_bottleneck,
    verify_quasi_isometry,
    verify_transversal,
    extract_choice,
)
from coarsegeom.cli import main as cli_main
from coarsegeom.documents import canonical_dumps, family_doc, graph_doc, map_doc
from conftest import (
    cycle_graph,
    path_graph,
    random_graph,
    random_tree,
)
from oracles import (
    brute_delta,
    brute_tree_median,
    count_geodesics_dfs,
    floyd_warshall,
    point_distance,
)


class Budget:
    """Context manager asserting the elapsed wall time stays under a cap."""

    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, *rest):
        self.elapsed = time.monotonic() - self.t0
        if exc_type is None:
            assert self.elapsed <= self.seconds, (
                f"{self.name} took {self.elapsed:.1f}s, budget {self.seconds}s"
            )
            print(f"PASS {self.name} ({self.elapsed:.1f}s)")
        return False


def test_01_diameter_bound(g0_20):
    """Base pairs and same-arm same-level pairs of the half-net stay within
    distance 2, exhaustively at depth 20."""
    with Budget("01 diameter-bound", 120):
        groups = {}
        for p in half_net(g0_20.graph):
            c = classify_point(g0_20, p)
            groups.setdefault((c.kind, c.arm, c.level), []).append(p)
        assert len(groups[("base", None, 0)]) == 7
        pairs = 0
        for members in groups.values():
            for p, q in itertools.combinations(members, 2):
                assert distance(g0_20.graph, p, q) <= 2, (p, q)
                pairs += 1
        assert pairs > 1000


def test_02_level_motion(g0_20):
    """500 seeded vertex pairs: every enumerated geodesic classifies, its
    level steps are unit away from the Short case, and V shapes turn at
    the base."""
    with Budget("02 level-motion", 120):
        rng = random.Random(202)
        ids = sorted(g0_20.graph.vertex_ids())
        row0 = g0_20.graph.vertex_row(0)
        seen = set()
        for _ in range(500):
            u, v = rng.sample(ids, 2)
            try:
                geos = enumerate_geodesics(g0_20.graph, Vertex(u), Vertex(v), cap=64)
            except CapExceeded as exc:
                geos = exc.geodesics
            assert geos
            for geo in geos:
                prof = level_profile_checked(g0_20, geo, row0)
                seen.add(prof)
        assert seen == set(LevelProfile)


def level_profile_checked(g0, geo, row0):
    from coarsegeom import level_profile

    prof = level_profile(g0, geo)
    levels = [int(row0[v]) for v in geo.vertices]
    steps = [b - a for a, b in zip(levels, levels[1:])]
    if prof is LevelProfile.SHORT:
        assert len(levels) <= 2
        assert all(abs(s) <= 1 for s in steps)
    else:
        assert all(abs(s) == 1 for s in steps)
    if prof is LevelProfile.INCREASING:
        assert levels == sorted(levels)
    if prof is LevelProfile.DECREASING:
        assert levels == sorted(levels, reverse=True)
    if prof is LevelProfile.V_SHAPED:
        assert min(levels) == 0
        assert levels[0] > 0 and levels[-1] > 0
    return prof


def test_03_separation(g0_10):
    """200 seeded interior points of geodesics, both ends strictly further
    than 2: deleting the radius-2 ball around the point always parts the
    endpoints."""
    with Budget("03 separation", 180):
        rng = random.Random(303)
        ids = sorted(g0_10.graph.vertex_ids())
        done = 0
        while done < 200:
            u, v = rng.sample(ids, 2)
            x, y = Vertex(u), Vertex(v)
            d = distance(g0_10.graph, x, y)
            if d <= 4:
                continue
            geo = canonical_geodesic(g0_10.graph, x, y)
            s = Fraction(rng.randrange(5, int(2 * d) - 4), 2)
            w = point_along(g0_10.graph, geo, s)
            assert distance(g0_10.graph, x, w) > 2
            assert distance(g0_10.graph, y, w) > 2
            assert is_separated(g0_10.graph, x, y, w, 2), (x, y, w)
            done += 1


def test_04_thin_triangles(g0_8):
    """Sampled thinness of the doubled-edge graph stays at or under 2,
    trees come out exactly 0, and the cycle matches the brute oracle."""
    with Budget("04 thin-triangles", 180):
        rep = slim_triangle_delta(g0_8.graph, mode="sampled", seed=404, count=500)
        assert rep.triples_checked == 500
        assert rep.delta_upper_observed <= 2
        for seed in range(6):
            t = random_tree(seed, 18)
            assert slim_triangle_delta(t).delta_upper_observed == 0
        for g in (path_graph(9), random_tree(7, 30)):
            assert slim_triangle_delta(g).delta_upper_observed == 0
        c8 = cycle_graph(8)
        assert slim_triangle_delta(c8).delta_upper_observed == brute_delta(c8)


def test_05_bottleneck(g0_10):
    """Midpoint bottleneck at thinness 3, radius 2: accepted on the
    doubled-edge graph over 200 sampled pairs, rejected on the 24-cycle
    with a stable witness."""
    with Budget("05 bottleneck", 120):
        rep = verify_bottleneck(
            g0_10.graph, 3, radius=2, mode="sampled", seed=505, count=200
        )
        assert rep.accepted and rep.pairs_checked == 200

        first = verify_bottleneck(cycle_graph(24), 3)
        again = verify_bottleneck(cycle_graph(24), 3)
        assert not first.accepted
        assert first.witness is not None
        assert first == again


def test_06_collapse_sandwich(fam2):
    """Exhaustive net check at depth 3: the collapse shrinks distances by
    at most 2 and never stretches them; its least constant is 2."""
    with Budget("06 collapse-sandwich", 60):
        g0 = build_gamma0(fam2, 3)
        g1 = build_gamma1(fam2, 3)
        f = build_collapse_map(g0, g1)
        dom = [p for p, _ in f.assignments]
        assert set(dom) == set(half_net(g0.graph))
        for p, q in itertools.combinations(dom, 2):
            d0 = distance(g0.graph, p, q)
            d1 = distance(g1, f.image_of(p), f.image_of(q))
            assert d0 - 2 <= d1 <= d0, (p, q)
        assert minimal_qi_constant(f) == 2


def test_07_choice_extraction(pipe3):
    """Deep three-arm run at constant 4: the plain section and 20 seeded
    adversarial sections all certify, with one frontier vertex per set,
    images far out on the arms, and a genuine transversal."""
    g0, g1 = pipe3
    sets = [s.name for s in g0.family.sets]
    sections = [("first", None)] + [("seeded", s) for s in range(20)]
    for mode, seed in sections:
        with Budget(f"07 choice-extraction[{mode}:{seed}]", 300):
            m = section_map(g0, mode=mode, seed=seed, g1=g1)
            cert = extract_choice(m, g0, 4)
            assert cert.verified
            assert len(cert.frontier) == 3
            assert sorted(name for name, _ in cert.arm_assignment) == sorted(sets)
            for w in cert.frontier:
                assert level_of(g0, m.image_of(Vertex(w))) >= 40
            assert len(cert.transversal) == 3
            assert verify_transversal(cert.transversal, g0.family)


def test_08_quasi_inverse():
    """Ten seeded rational trees, scale maps at constants 1, 2, 3: the
    constructed inverse verifies at 9n^2, round trips move points at most
    3n^2, and its values do not depend on fold order."""
    with Budget("08 quasi-inverse", 180):
        rng = random.Random(808)
        for seed in range(10):
            tree = random_tree(seed, 8 + 3 * (seed % 11))
            for n in (1, 2, 3):
                big = scale_metric(tree, n)
                f = QuasiMap(
                    tree, big,
                    [(Vertex(v), Vertex(v)) for v in tree.vertex_ids()],
                    asserted_constant=n,
                )
                assert verify_quasi_isometry(f, n).accepted
                res = quasi_inverse(f, n)
                assert res.certificate.accepted
                assert res.bound == 9 * n * n
                assert res.minimal_constant <= res.bound
                assert round_trip_max(f, res.map) <= 3 * n * n

                # fold-order independence, rechecked from the preimage clouds
                z = Vertex(min(tree.vertex_ids()))
                images = list(f.assignments)
                probe = rng.sample(res.map.assignments, 5)
                for x, hx in probe:
                    cloud = [y for y, fy in images
                             if distance(big, fy, x) <= n]
                    for _ in range(3):
                        rng.shuffle(cloud)
                        fold = functools.reduce(
                            lambda m, y: tree_median(tree, z, m, y), cloud)
                        assert fold == hx


def test_09_oracle_agreement(fam2, fam3):
    """Library distances, medians, and geodesic counts agree with the
    independent brute-force routes."""
    with Budget("09 oracle-agreement", 120):
        corpus = [
            cycle_graph(6), cycle_graph(11), path_graph(14),
            random_graph(0, 50, extra=12, rational=True),
            random_graph(1, 35, extra=6),
            random_graph(2, 24, extra=4, rational=True),
            random_tree(3, 40), random_tree(4, 21),
            build_gamma0(fam2, 3).graph, build_gamma1(fam3, 8),
        ]
        for g in corpus:
            assert g.n_vertices <= 50
            fw = floyd_warshall(g)
            for u, v in itertools.combinations(sorted(g.vertex_ids()), 2):
                assert distance(g, Vertex(u), Vertex(v)) == fw[u][v]

        rng = random.Random(909)
        for seed in range(6):
            t = random_tree(seed + 20, 25)
            ids = sorted(t.vertex_ids())
            for _ in range(8):
                z, a, b = (Vertex(x) for x in rng.sample(ids, 3))
                assert tree_median(t, z, a, b) == brute_tree_median(t, z, a, b)

        for fam, depth in ((fam2, 2), (fam2, 3), (fam3, 2), (fam3, 3)):
            g = build_gamma0(fam, depth).graph
            fw = floyd_warshall(g)
            for u, v in itertools.combinations(sorted(g.vertex_ids()), 2):
                geos = enumerate_geodesics(g, Vertex(u), Vertex(v), cap=10**6)
                assert len(geos) == count_geodesics_dfs(g, u, v, fw)


def test_10_cli_determinism(tmp_path, fam2):
    """One command per subcommand family, rerun with identical inputs:
    byte-identical output files."""
    with Budget("10 cli-determinism", 120):
        fam_p = tmp_path / "family.json"
        fam_p.write_text(canonical_dumps(family_doc(fam2)))
        g0_p = tmp_path / "g0.json"
        assert cli_main(["gamma0", "--family", str(fam_p), "--depth", "10",
                         "--out", str(g0_p)]) == 0

        tree = path_graph(10)
        tree_p = tmp_path / "p10.json"
        tree_p.write_text(canonical_dumps(graph_doc(tree, tree=True)))
        m = QuasiMap(tree, tree, [(Vertex(v), Vertex(v)) for v in range(10)],
                     asserted_constant=1)
        map_p = tmp_path / "map.json"
        map_p.write_text(canonical_dumps(map_doc(m, "p10.json", "p10.json")))
        trans_p = tmp_path / "elems.json"
        trans_p.write_text(canonical_dumps(["a", "c"]))
        sec_p = tmp_path / "sec.json"
        sec_p.write_text(canonical_dumps({"mode": "alternating"}))

        reps = {
            "build": ["gamma0", "--family", str(fam_p), "--depth", "4"],
            "maps": ["min-qi", "--map", str(map_p)],
            "hyperbolic": ["bottleneck", "--graph", str(g0_p), "--delta", "3",
                           "--mode", "sampled", "--seed", "6", "--count", "40"],
            "geometry": ["witness", "--gamma0", str(g0_p),
                         "--x", '{"vertex": 2}', "--y", '{"vertex": 1}',
                         "--bound", "1"],
            "trees": ["quasi-inverse", "--map", str(map_p), "--constant", "1"],
            "choice": ["verify-transversal", "--family", str(fam_p),
                       "--elements", str(trans_p)],
        }
        for name, argv in reps.items():
            a = tmp_path / f"{name}_a.json"
            b = tmp_path / f"{name}_b.json"
            ca = cli_main(argv + ["--out", str(a)])
            cb = cli_main(argv + ["--out", str(b)])
            assert ca == cb
            assert a.read_bytes() == b.read_bytes(), name
            assert a.read_bytes()
