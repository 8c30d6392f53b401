"""End-to-end transversal extraction and its guard rails."""

import random
from collections import Counter

import pytest

import oracles
from coarsegeom import choice_pipeline
from coarsegeom.gamma_spaces import _ArmLayout

from coarsegeom import (
    HALF,
    CoarseGeomError,
    ConstantTooSmall,
    DepthError,
    GraphMismatch,
    Interior,
    InternalError,
    LabeledMetricGraph,
    NotATree,
    NotQuasiIsometry,
    QuasiMap,
    SetFamily,
    UnknownElement,
    Vertex,
    build_gamma0,
    build_gamma1,
    extract_choice,
    gamma1_edge_id,
    gamma1_vertex_id,
    minimal_qi_constant,
    prune_k,
    pruning_rounds,
    required_gamma0_depth,
    section_map,
    verify_quasi_isometry,
    verify_transversal,
)


def test_constants():
    assert pruning_rounds(4) == 112
    assert required_gamma0_depth(4) == 944
    assert pruning_rounds(1) == 7
    assert required_gamma0_depth(1) == 20


# -- section maps -------------------------------------------------------------


def test_section_modes(fam2):
    g0 = build_gamma0(fam2, 4)
    first = section_map(g0, mode="first")
    assert first.asserted_constant == 2
    assert first.image_of(Vertex(0)) == Vertex(0)
    # level vertices of the quotient tree land on the chosen representative
    for lev in range(1, 5):
        img = first.image_of(Vertex(gamma1_vertex_id(4, 0, lev)))
        assert img == Vertex(g0.vertex_of("a", lev))
    alt = section_map(g0, mode="alternating")
    seq = [
        alt.image_of(Vertex(gamma1_vertex_id(4, 0, lev))) for lev in range(1, 5)
    ]
    assert seq == [
        Vertex(g0.vertex_of(e, lev)) for lev, e in zip(range(1, 5), "abab")
    ]
    with pytest.raises(ValueError):
        section_map(g0, mode="sideways")
    with pytest.raises(ValueError):
        section_map(g0, mode="seeded")  # seed is mandatory


def test_seeded_section_is_deterministic(fam2):
    g0 = build_gamma0(fam2, 4)
    a = section_map(g0, mode="seeded", seed=7)
    b = section_map(g0, mode="seeded", seed=7)
    assert a.assignments == b.assignments
    # whatever the draw, each quotient vertex lands on its own (set, level)
    for p, q in a.assignments:
        if isinstance(p, Vertex) and p.id != 0:
            si = (p.id - 1) // 4
            lev = (p.id - 1) % 4 + 1
            label = g0.graph.vertex_labels[q.id]
            elem, _, n = label.partition("@")
            assert int(n) == lev
            assert elem in g0.family.sets[si].elements


def test_sections_are_2_quasi_isometries(fam2):
    g0 = build_gamma0(fam2, 4)
    for m in (
        section_map(g0, mode="first"),
        section_map(g0, mode="alternating"),
        section_map(g0, mode="seeded", seed=3),
    ):
        assert verify_quasi_isometry(m, 2).accepted
        assert minimal_qi_constant(m) == 2


def test_section_checks_supplied_tree(fam2):
    g0 = build_gamma0(fam2, 4)
    good = build_gamma1(fam2, 4)
    m = section_map(g0, mode="first", g1=good)
    assert m.source is good
    with pytest.raises(GraphMismatch):
        section_map(g0, mode="first", g1=build_gamma1(fam2, 5))


# -- transversal checking -----------------------------------------------------


def test_verify_transversal(fam2):
    assert verify_transversal(["a", "c"], fam2)
    assert verify_transversal(["b", "c"], fam2)
    assert not verify_transversal(["a", "b", "c"], fam2)  # X0 hit twice
    assert not verify_transversal(["a"], fam2)  # X1 missed
    with pytest.raises(UnknownElement):
        verify_transversal(["a", "z"], fam2)


# -- extraction ---------------------------------------------------------------


def test_extraction_first_section(pipe2):
    g0, g1 = pipe2
    cert = extract_choice(section_map(g0, mode="first", g1=g1), g0, 4)
    assert cert.verified
    assert cert.constant == 4
    assert cert.rounds == 112
    assert cert.root == 0
    assert cert.frontier == (224, 1224)
    assert cert.arm_assignment == (("X0", 224), ("X1", 1224))
    assert cert.h_values == ((224, "a"), (1224, "c"))
    assert cert.transversal == ("a", "c")
    assert cert.choice() == {"X0": "a", "X1": "c"}
    assert verify_transversal(cert.transversal, g0.family)


def test_extraction_alternating_section(pipe2):
    g0, g1 = pipe2
    cert = extract_choice(section_map(g0, mode="alternating", g1=g1), g0, 4)
    assert cert.transversal == ("b", "c")
    assert cert.verified


def test_extraction_seeded_section(pipe2):
    g0, g1 = pipe2
    cert = extract_choice(section_map(g0, mode="seeded", seed=99, g1=g1), g0, 4)
    assert cert.transversal == ("a", "c")
    assert cert.verified


def test_extraction_caches_no_rows():
    """Both pipeline graphs compute their rows and searches in closed
    form, so a cold extraction leaves no per-source row and no search
    adjacency behind, and memory stays O(V)."""
    fam = SetFamily.of_lists([["a"], ["b"]])
    g0 = build_gamma0(fam, 944)
    g1 = build_gamma1(fam, 944)
    m = section_map(g0, mode="seeded", seed=5, g1=g1)
    assert extract_choice(m, g0, 4).verified
    for g in (g0.graph, g1):  # the closed form, which holds no row and no adjacency
        assert type(g._metric) is _ArmLayout


def _hairy(g):
    """g with a pendant unit edge at every third vertex from vertex 1, and
    hairs(m): the new vertices and the edges' midpoints, each with the
    image under m of the vertex its edge hangs from.  The new vertices
    take ids below g's, so a pruned one would be the least near vertex,
    and some sit at distance 2K from the roots met, on the frontier if
    they were not pruned."""
    e0, feet = g.n_edges, g.vertex_ids()[1::3]
    tree = LabeledMetricGraph(
        list(g.vertex_labels.items()) + [(-1 - j, None) for j in range(len(feet))],
        list(g.edges) + [(e0 + j, v, -1 - j, 1) for j, v in enumerate(feet)],
        basepoint=g.basepoint)

    def hairs(m):
        foot = {p.id: q for p, q in m.assignments if isinstance(p, Vertex)}
        return [pair for j, v in enumerate(feet)
                for pair in ((Vertex(-1 - j), foot[v]), (Interior(e0 + j, HALF), foot[v]))]

    return tree, hairs


def _moved(m, rng, g0):
    """m with some images moved: the base's and its edges' midpoints' 5 to
    7 up an arm, so that the root leaves the base, a few midpoints near the base sent to the
    base, or one to three points sent to random vertices or edge
    midpoints of the target."""
    pairs = list(m.assignments)
    how = rng.choice(("base", "midpoints", "random"))
    if how == "base":  # with the midpoints at the base, which would root it
        up = Vertex(g0.vertex_of(rng.choice(g0.family.all_elements()), rng.randint(5, 7)))
        pairs = [(p, up if p == Vertex(0) or isinstance(p, Interior)
                  and 0 in (m.source.edge(p.edge).u, m.source.edge(p.edge).v) else q)
                 for p, q in pairs]
    elif how == "midpoints":
        low = [i for i, (p, _) in enumerate(pairs) if isinstance(p, Interior)][:40]
        for i in rng.sample(low, rng.randint(1, 3)):
            pairs[i] = pairs[i][0], Vertex(0)
    else:
        n = g0.graph.n_vertices
        for i in rng.sample(range(len(pairs)), rng.randint(1, 3)):
            q = rng.randrange(n + g0.graph.n_edges)
            pairs[i] = pairs[i][0], Vertex(q) if q < n else Interior(q - n, HALF)
    return QuasiMap(m.source, m.target, pairs)


def test_extraction_matches_the_pruned_copy_reference(pipe2, monkeypatch):
    """The survivor-set extraction gives the certificate or the error, by
    type and message, that extraction on a pruned copy of the tree gave:
    on sections over Γ1, over a constructor copy of Γ1 and over a hairy
    tree, each as drawn and with moved images.  The runs of one map share
    one certificate check, and a map over the copy shares its twin's over
    Γ1: the check is not under test, and on a constructor tree it searches
    every row."""
    g0, g1 = pipe2
    seen, check = {}, choice_pipeline.verify_quasi_isometry

    def once(m, n, mode):
        if m.assignments not in seen:
            seen[m.assignments] = check(m, n, mode=mode)
        return seen[m.assignments]

    monkeypatch.setattr(choice_pipeline, "verify_quasi_isometry", once)
    monkeypatch.setattr(oracles, "verify_quasi_isometry", once)
    copy = LabeledMetricGraph(list(g1.vertex_labels.items()), g1.edges, basepoint=0)
    hairy, hairs = _hairy(g1)
    rng = random.Random(28)
    outcomes = Counter()
    for mode, seed in (("first", None), ("alternating", None), ("seeded", 3), ("seeded", 11)):
        m = section_map(g0, mode=mode, seed=seed, g1=g1)
        maps = [m] + [_moved(m, rng, g0) for _ in range(3)]
        maps += [QuasiMap(copy, x.target, x.assignments) for x in maps]
        if mode == "first":
            maps += [QuasiMap(hairy, x.target, x.assignments + tuple(hairs(x))) for x in maps[:2]]
        for x in maps:
            got = []
            for run in (extract_choice, oracles.pruned_copy_extraction):
                try:
                    got.append(run(x, g0, 4))
                except CoarseGeomError as exc:
                    got.append((type(exc), str(exc)))
            assert got[0] == got[1], (mode, seed, x.source.n_vertices)
            outcomes[got[0][0].__name__ if isinstance(got[0], tuple) else got[0].root] += 1
    # roots at the base and off it, and refusals, all met
    assert outcomes == {0: 17, 1: 15, "NotQuasiIsometry": 2}


def test_extraction_reads_images_off_its_root_search(pipe2, monkeypatch):
    """The root and frontier images come from the assignments the root
    search walks, so no image dict over the map's points is built."""
    g0, g1 = pipe2
    m = section_map(g0, mode="seeded", seed=99, g1=g1)

    def no_lookup(self, p):
        raise AssertionError(f"image_of({p}) called")

    monkeypatch.setattr(QuasiMap, "image_of", no_lookup)
    cert = extract_choice(m, g0, 4)
    assert cert.verified and cert.transversal == ("a", "c")


def test_extraction_at_constant_5(fam3):
    """Constant 5 needs depth 1820: the three-set family's plain and
    seeded sections both yield a verified transversal there."""
    depth = required_gamma0_depth(5)
    assert depth == 1820
    g0, g1 = build_gamma0(fam3, depth), build_gamma1(fam3, depth)
    for mode, seed in (("first", None), ("seeded", 55)):
        cert = extract_choice(section_map(g0, mode=mode, seed=seed, g1=g1), g0, 5)
        assert cert.verified
        assert cert.rounds == pruning_rounds(5) == 175
        assert len(cert.frontier) == 3
        assert verify_transversal(cert.transversal, fam3)


def test_extraction_at_constant_8(fam3):
    """Constant 8 needs depth 7,328 (43,969 Γ0 vertices): a seeded section
    yields a verified transversal with no heap search and no cached row."""
    depth = required_gamma0_depth(8)
    assert depth == 7328
    g0, g1 = build_gamma0(fam3, depth), build_gamma1(fam3, depth)
    cert = extract_choice(section_map(g0, mode="seeded", seed=8, g1=g1), g0, 8)
    assert cert.verified
    assert cert.rounds == pruning_rounds(8) == 448
    assert len(cert.frontier) == 3
    for g in (g0.graph, g1):  # the closed form, which holds no row and no adjacency
        assert type(g._metric) is _ArmLayout


def test_constant_too_small(pipe2):
    g0, g1 = pipe2
    m = section_map(g0, mode="first", g1=g1)
    with pytest.raises(ConstantTooSmall):
        extract_choice(m, g0, 3)


def test_source_must_be_tree(pipe2):
    g0, _ = pipe2
    loop = QuasiMap(
        g0.graph, g0.graph, [(Vertex(v), Vertex(v)) for v in g0.graph.vertex_ids()],
        asserted_constant=1,
    )
    with pytest.raises(NotATree):
        extract_choice(loop, g0, 4)


def test_target_must_match(pipe2, fam2):
    g0, g1 = pipe2
    other = build_gamma0(fam2, 950)
    m = section_map(other, mode="first")
    with pytest.raises(GraphMismatch):
        extract_choice(m, g0, 4)


def test_depth_guard(fam2):
    shallow = build_gamma0(fam2, 900)  # < 944 needed at constant 4
    m = section_map(shallow, mode="first")
    with pytest.raises(DepthError):
        extract_choice(m, shallow, 4)


def test_bad_map_is_rejected(pipe2):
    g0, g1 = pipe2
    m = section_map(g0, mode="first", g1=g1)
    # sabotage one deep assignment: the level-500 vertex goes to the base
    broken = []
    for p, img in m.assignments:
        if p == Vertex(gamma1_vertex_id(1000, 0, 500)):
            img = Vertex(0)
        broken.append((p, img))
    bad = QuasiMap(g1, g0.graph, broken, asserted_constant=4)
    with pytest.raises(NotQuasiIsometry):
        extract_choice(bad, g0, 4)


def test_mutated_sections_never_yield_a_wrong_choice(pipe2):
    """One assignment of a section, moved: the extraction either refuses
    the map with a precondition error or certifies a true transversal."""
    g0, g1 = pipe2
    m = section_map(g0, mode="first", g1=g1)
    at = g0.vertex_of
    frontier = Vertex(gamma1_vertex_id(1000, 0, 224))  # lands on "a" at 224
    mid = Interior(gamma1_edge_id(1000, 0, 225), HALF)

    adj = oracles.adjacency(g0.graph)

    def edge(a, b, which):
        return [e.id for nb, e in adj[a] if nb == b][which]

    mutations = [
        (frontier, Vertex(at("b", 224))),  # sibling element
        (frontier, Vertex(at("c", 224))),  # another arm, same level
        (frontier, Vertex(at("a", 223))),  # one level nearer the base
        (frontier, Vertex(0)),  # the base
        (mid, Interior(edge(at("a", 224), at("a", 225), 1), HALF)),  # twin edge
        (mid, Interior(edge(at("c", 224), at("c", 225), 0), HALF)),  # other arm
    ]
    outcomes = set()
    for p, img in mutations:
        assert m.image_of(p) != img
        moved = [(q, img if q == p else w) for q, w in m.assignments]
        try:
            cert = extract_choice(QuasiMap(g1, g0.graph, moved), g0, 4)
        except InternalError:
            raise
        except CoarseGeomError:
            outcomes.add("refused")
            continue
        assert cert.verified and verify_transversal(cert.transversal, g0.family)
        outcomes.add("certified")
    assert outcomes == {"refused", "certified"}


def test_certificates_are_deterministic(pipe2):
    g0, g1 = pipe2
    a = extract_choice(section_map(g0, mode="seeded", seed=5, g1=g1), g0, 4)
    b = extract_choice(section_map(g0, mode="seeded", seed=5, g1=g1), g0, 4)
    assert a == b


def test_valence_two_in_surviving_region(pipe2):
    """Away from the root and the truncation boundary, the pruned quotient
    tree has no valence-1 vertices left."""
    _, g1 = pipe2
    k = pruning_rounds(4)
    pruned, _ = prune_k(g1, k)
    row = pruned.vertex_row(0)
    radius = max(d for d in row.values() if d is not None)
    adj = oracles.adjacency(pruned)
    for v in pruned.vertex_ids():
        d = row[v]
        if d is not None and k <= d <= radius - 1:
            assert len(adj[v]) >= 2, v
