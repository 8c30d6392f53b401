"""Command line behavior: exit codes, documents, byte stability.

Commands are exercised in process through main(argv); one subprocess case
checks the installed entry point end to end.
"""

import copy
import io
import json
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsegeom import (
    LabeledMetricGraph,
    QuasiMap,
    SetFamily,
    Vertex,
    build_collapse_map,
    build_gamma0,
    build_gamma1,
    gamma1_vertex_id,
    half_net,
    quasi_inverse,
    required_gamma0_depth,
    slim_triangle_delta,
    tree_median,
    verify_bottleneck,
)
from coarsegeom import cli, gamma_spaces
from coarsegeom.cli import main
from coarsegeom.documents import (
    bottleneck_report_doc,
    canonical_dumps,
    delta_report_doc,
    family_doc,
    gamma0_doc,
    gamma1_doc,
    graph_doc,
    map_doc,
    point_doc,
)
from conftest import cycle_graph, path_graph

FAM2 = {"sets": [{"name": "X0", "elements": ["a", "b"]},
                 {"name": "X1", "elements": ["c"]}]}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    doc = json.loads(out.out) if out.out else None
    return code, doc, out.err


@pytest.fixture
def fam_file(tmp_path):
    p = tmp_path / "family.json"
    p.write_text(canonical_dumps(FAM2))
    return str(p)


def graph_file(tmp_path, g, name, tree=False):
    p = tmp_path / name
    p.write_text(canonical_dumps(graph_doc(g, tree=tree)))
    return str(p)


def test_gamma0_build(capsys, tmp_path, fam_file):
    code, doc, _ = run(capsys, "gamma0", "--family", fam_file, "--depth", "3")
    assert code == 0
    fam = SetFamily.of_lists([["a", "b"], ["c"]])
    assert doc == json.loads(canonical_dumps(gamma0_doc(build_gamma0(fam, 3))))


def test_gamma0_rejects_depth_zero(capsys, fam_file):
    code, doc, err = run(capsys, "gamma0", "--family", fam_file, "--depth", "0")
    assert code == 2
    assert doc is None
    assert "depth" in err


def test_out_flag_and_byte_identical_reruns(capsys, tmp_path, fam_file):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert main(["gamma1", "--family", fam_file, "--depth", "4", "--out", a]) == 0
    assert main(["gamma1", "--family", fam_file, "--depth", "4", "--out", b]) == 0
    capsys.readouterr()
    assert open(a, "rb").read() == open(b, "rb").read()
    assert open(a).read().endswith("\n")
    # every command takes --out, last, and it writes exactly stdout's bytes
    sub = next(x for x in cli._build_parser()._actions if x.dest == "command")
    assert len(sub.choices) == 15
    for name, sp in sub.choices.items():
        assert sp._actions[-1].option_strings == ["--out"], name
    gp, o = graph_file(tmp_path, cycle_graph(8), "c8.json"), str(tmp_path / "d.json")
    assert main(["delta", "--graph", gp]) == 0
    stdout = capsys.readouterr().out
    assert main(["delta", "--graph", gp, "--out", o]) == 0
    assert capsys.readouterr().out == ""
    assert open(o, encoding="utf-8").read() == stdout


def test_collapse_and_min_qi(capsys, tmp_path, fam_file):
    g0p, g1p = str(tmp_path / "g0.json"), str(tmp_path / "g1.json")
    main(["gamma0", "--family", fam_file, "--depth", "3", "--out", g0p])
    main(["gamma1", "--family", fam_file, "--depth", "3", "--out", g1p])
    mp = str(tmp_path / "map.json")
    code, _, _ = run(capsys, "collapse", "--gamma0", g0p, "--gamma1", g1p,
                     "--out", mp)
    assert code == 0
    fam = SetFamily.of_lists([["a", "b"], ["c"]])
    expect = map_doc(
        build_collapse_map(build_gamma0(fam, 3), build_gamma1(fam, 3)),
        g0p, g1p,
    )
    assert json.load(open(mp)) == json.loads(canonical_dumps(expect))

    code, doc, _ = run(capsys, "min-qi", "--map", mp)
    assert code == 0
    assert doc == {"minimal_constant": 2}

    code, doc, _ = run(capsys, "check-qi", "--map", mp, "--constant", "2")
    assert code == 0 and doc["accepted"] is True

    code, doc, _ = run(capsys, "check-qi", "--map", mp, "--constant", "1")
    assert code == 1
    assert doc["accepted"] is False and doc["violations"]


def test_check_qi_refuses_unknown_map_keys(capsys, tmp_path):
    """An extra key in a map document or in one of its entries exits 2
    with one error line, and the same document without it certifies."""
    g = path_graph(3)
    graph_file(tmp_path, g, "g.json")
    doc = map_doc(QuasiMap(g, g, [(Vertex(v), Vertex(v)) for v in range(3)]),
                  "g.json", "g.json", n=1)
    extra_entry = {**doc, "assign": [{**doc["assign"][0], "from_": {"vertex": 0}},
                                     *doc["assign"][1:]]}
    for d, want in ((doc, 0), ({**doc, "source_": "g.json"}, 2), (extra_entry, 2)):
        mp = tmp_path / "map.json"
        mp.write_text(canonical_dumps(d))
        code, out, err = run(capsys, "check-qi", "--map", str(mp), "--constant", "1")
        assert code == want
        if want:
            assert out is None and err.startswith("error: ") and err.count("\n") == 1


def test_check_qi_names_the_first_bad_point(capsys, tmp_path):
    """A map document with two bad points exits 2 with one error line that
    names the first in document order, though the second sorts first."""
    g = path_graph(3)
    graph_file(tmp_path, g, "g.json")
    doc = map_doc(QuasiMap(g, g, [(Vertex(v), Vertex(v)) for v in range(3)]),
                  "g.json", "g.json", n=1)
    bad = ({"edge": 0, "offset": "3/2"}, "interior offset 3/2 of edge 0 is outside (0, 1)"), \
        ({"vertex": 99}, "no vertex with id 99")
    for (first, message), (second, _) in (bad, bad[::-1]):
        assign = [doc["assign"][0], {"from": first, "to": {"vertex": 1}},
                  {"from": second, "to": {"vertex": 2}}]
        mp = tmp_path / "map.json"
        mp.write_text(canonical_dumps({**doc, "assign": assign}))
        code, out, err = run(capsys, "check-qi", "--map", str(mp), "--constant", "1")
        assert (code, out) == (2, None)
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith(f"{message}\n")


# the leaves a fuzzed map document may get: ids in and out of range, floats,
# bools, None, lists, a huge int, and rationals bad, unreduced or outside (0, 1)
FUZZ_LEAVES = [0, 1, 4, 99, -1, 0.5, 1.0, True, False, None, [], [0], {}, 10**30,
               "1/2", "2/4", "1/3", "1/0", "3/2", "0/1", "-1/2", "1/1", "x", ""]
FUZZ_COMMANDS = (("check-qi", "--constant", "1"),
                 ("check-qi", "--constant", "1", "--mode", "exhaustive"),
                 ("check-qi", "--constant", "1", "--mode", "sampled", "--seed", "1",
                  "--count", "20"),
                 ("min-qi",),
                 ("quasi-inverse", "--constant", "2"))


def _json_paths(doc, at=()):
    """(path, value) of every value inside a JSON document, the root excluded."""
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield (*at, key), value
        yield from _json_paths(value, (*at, key))


@st.composite
def fuzzed_docs(draw, base):
    """base with one to three mutations: a scalar replaced by a fuzz leaf, a
    key or an item deleted, or an item of a list duplicated (a map's
    entry, a graph's vertex or edge, a family's set or element)."""
    doc = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(("leaf", "leaf", "leaf", "delete", "duplicate")))
        lists = [value for _, value in _json_paths(doc) if isinstance(value, list) and value]
        if op == "duplicate" and lists:
            items = draw(st.sampled_from(lists))
            items.append(copy.deepcopy(draw(st.sampled_from(items))))
            continue
        paths = [path for path, value in _json_paths(doc)
                 if op == "delete" or not isinstance(value, (dict, list))]
        if not paths:
            break
        *at, key = draw(st.sampled_from(paths))
        parent = doc
        for k in at:
            parent = parent[k]
        if op == "delete":
            del parent[key]
        else:
            parent[key] = copy.deepcopy(draw(st.sampled_from(FUZZ_LEAVES)))
    return doc


# the most seconds one fuzzed run may take: every input here is small
FUZZ_RUN_SECONDS = 10


def _assert_runs_cleanly(argv):
    """main(argv) exits 0-3 within FUZZ_RUN_SECONDS: a document on stdout
    when it certifies or rejects, else nothing on stdout and one error
    line on stderr."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert time.perf_counter() - start < FUZZ_RUN_SECONDS, argv
    assert code in (0, 1, 2, 3), (argv, err.getvalue())
    if code < 2:
        assert isinstance(json.loads(out.getvalue()), dict), argv
    else:
        assert out.getvalue() == "", argv
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, argv


P5 = path_graph(5)
P5_MAP = map_doc(QuasiMap(P5, P5, [(p, p) for p in half_net(P5)]), "p5.json", "p5.json", n=1)


@settings(derandomize=True, max_examples=250, deadline=None, database=None)
@given(fuzzed_docs(P5_MAP))
def test_fuzzed_map_documents_never_crash(tmp_path_factory, doc):
    """Every map command on a mutated identity map of a 5-vertex path
    exits cleanly."""
    where = tmp_path_factory.getbasetemp() / "fuzz"
    where.mkdir(exist_ok=True)
    (where / "p5.json").write_text(canonical_dumps(graph_doc(P5, tree=True)))
    mp = where / "map.json"
    mp.write_text(json.dumps(doc))
    for command in FUZZ_COMMANDS:
        _assert_runs_cleanly([*command, "--map", str(mp)])


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(fuzzed_docs({"root": {"edge": 3, "offset": "1/2"}}))
def test_fuzzed_roots_never_crash(tmp_path_factory, doc):
    """quasi-inverse exits cleanly on a mutated root point, the identity
    map of a 5-vertex path valid."""
    where = tmp_path_factory.getbasetemp() / "fuzz-root"
    where.mkdir(exist_ok=True)
    (where / "p5.json").write_text(canonical_dumps(graph_doc(P5, tree=True)))
    mp = where / "map.json"
    mp.write_text(canonical_dumps(P5_MAP))
    _assert_runs_cleanly(["quasi-inverse", "--map", str(mp), "--constant", "2",
                          "--root", json.dumps(doc.get("root", {}))])


FUZZ_FAMILY = SetFamily.of_lists([["a", "b"], ["c"]])


def _checks(key):
    """check-qi with no --mode, exhaustive and sampled on the map file of key."""
    return tuple(("check-qi", "--map", f"{{{key}}}", "--constant", n, *mode) for n, mode in (
        ("1", ()), ("2", ("--mode", "exhaustive")),
        ("1", ("--mode", "sampled", "--seed", "1", "--count", "20"))))


# valid map documents over the fuzzed graph files: the identity map of a
# 5-vertex path from or to the graph document, and the collapse map of the
# fuzz family at depth 3 from its gamma0 to its gamma1 document
FUZZ_MAPS = {
    "frommap": ("fm.json", {**P5_MAP, "source": "g.json"}),
    "tomap": ("tm.json", {**P5_MAP, "target": "g.json"}),
    "collapse": ("c.json", map_doc(build_collapse_map(build_gamma0(FUZZ_FAMILY, 3),
                                                      build_gamma1(FUZZ_FAMILY, 3)),
                                   "g0.json", "g1.json")),
}
# each document kind's file name, its valid document and the commands that
# read it, each other input named by its kind and valid, or a section spec
FUZZ_DOCS = {
    "graph": ("g.json", graph_doc(P5, tree=True), (
        *_checks("frommap"), *_checks("tomap"),
        ("delta", "--graph", "{graph}"),
        ("delta", "--graph", "{graph}", "--mode", "sampled", "--seed", "1", "--count", "20"),
        ("bottleneck", "--graph", "{graph}", "--delta", "2"),
        ("prune", "--graph", "{graph}", "--rounds", "1"),
        ("median", "--tree", "{graph}", "--z", '{{"vertex":0}}', "--a", '{{"vertex":1}}',
         "--b", '{{"edge":3,"offset":"1/2"}}'))),
    "gamma0": ("g0.json", gamma0_doc(build_gamma0(FUZZ_FAMILY, 3)), (
        ("separation", "--gamma0", "{gamma0}", "--seed", "1", "--count", "5"),
        ("profile", "--gamma0", "{gamma0}", "--x", '{{"vertex":1}}', "--y", '{{"vertex":5}}'),
        ("witness", "--gamma0", "{gamma0}", "--x", '{{"vertex":0}}', "--y", '{{"vertex":0}}',
         "--bound", "1/2"),
        ("collapse", "--gamma0", "{gamma0}", "--gamma1", "{gamma1}"),
        *_checks("collapse"))),
    "gamma1": ("g1.json", gamma1_doc(build_gamma1(FUZZ_FAMILY, 3)), (
        ("collapse", "--gamma0", "{gamma0}", "--gamma1", "{gamma1}"),
        *_checks("collapse"))),
    "family": ("f.json", family_doc(FUZZ_FAMILY), (
        ("gamma0", "--family", "{family}", "--depth", "2"),
        ("gamma1", "--family", "{family}", "--depth", "2"),
        ("extract-choice", "--family", "{family}", "--depth", "944", "--constant", "4",
         "--section", "{section}"),
        ("verify-transversal", "--family", "{family}", "--elements", "{section}"))),
}


@pytest.mark.parametrize("kind", FUZZ_DOCS)
@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(data=st.data())
def test_fuzzed_documents_never_crash(tmp_path_factory, kind, data):
    """Every command that reads a graph, gamma0, gamma1 or family document
    exits cleanly on a mutated one, its other inputs valid, including the
    parse of a graph into its metric and check-qi on a valid map whose
    source or target is the mutated graph."""
    where = tmp_path_factory.getbasetemp() / f"fuzz-{kind}"
    where.mkdir(exist_ok=True)
    paths = {"section": where / "s.json"}
    paths["section"].write_text('{"mode": "first", "elements": ["a", "c"]}')
    (where / "p5.json").write_text(canonical_dumps(graph_doc(P5, tree=True)))
    for key, (name, doc, *_) in (*FUZZ_DOCS.items(), *FUZZ_MAPS.items()):
        paths[key] = where / name
        paths[key].write_text(canonical_dumps(doc))
    name, base, commands = FUZZ_DOCS[kind]
    (where / name).write_text(json.dumps(data.draw(fuzzed_docs(base))))
    for command in commands:
        _assert_runs_cleanly([arg.format(**paths) for arg in command])


def test_check_qi_exhaustive_guard(capsys, tmp_path):
    g = path_graph(4001)
    gp = graph_file(tmp_path, g, "big.json")
    m = QuasiMap(g, g, [(Vertex(v), Vertex(v)) for v in range(4001)])
    mp = tmp_path / "big_map.json"
    mp.write_text(canonical_dumps(map_doc(m, "big.json", "big.json", n=1)))

    code, doc, err = run(capsys, "check-qi", "--map", str(mp), "--constant", "1")
    assert code == 2
    assert doc is None and "guard" in err

    code, doc, err = run(capsys, "check-qi", "--map", str(mp), "--constant", "1",
                         "--seed", "3", "--count", "50")
    assert code == 0
    assert "switching to sampled" in err
    assert doc["mode"] == "sampled" and doc["accepted"] is True


def test_check_qi_explicit_exhaustive_passes_the_guard(capsys, tmp_path, monkeypatch):
    """The guard applies only when --mode is not given: an explicit
    --mode exhaustive checks every pair of a map past it."""
    monkeypatch.setattr(cli, "EXHAUSTIVE_GUARD", 10)
    g = path_graph(12)
    graph_file(tmp_path, g, "g.json")
    net = [(Vertex(v), Vertex(v)) for v in range(12)]
    mp = tmp_path / "map.json"
    mp.write_text(canonical_dumps(map_doc(QuasiMap(g, g, net), "g.json", "g.json", n=1)))

    code, doc, err = run(capsys, "check-qi", "--map", str(mp), "--constant", "1",
                         "--mode", "exhaustive")
    assert code == 0 and err == ""
    assert doc["mode"] == "exhaustive" and doc["accepted"] is True
    assert doc["pairs_checked"] == 12 * 11 // 2

    code, doc, err = run(capsys, "check-qi", "--map", str(mp), "--constant", "1")
    assert code == 2 and doc is None
    assert err == ("error: 12 net points exceed the exhaustive guard of 10; pass "
                   "--mode exhaustive, or --seed and --count for sampled mode\n")


def test_sampled_commands_on_one_vertex(capsys, tmp_path):
    g = LabeledMetricGraph([0], [])
    gp = graph_file(tmp_path, g, "one.json")
    mp = tmp_path / "one_map.json"
    mp.write_text(canonical_dumps(map_doc(
        QuasiMap(g, g, [(Vertex(0), Vertex(0))]), "one.json", "one.json", n=1)))
    code, doc, _ = run(capsys, "check-qi", "--map", str(mp), "--constant", "1",
                       "--mode", "sampled", "--seed", "1", "--count", "5")
    assert code == 0 and doc["accepted"] is True and doc["pairs_checked"] == 0
    code, doc, _ = run(capsys, "bottleneck", "--graph", gp, "--delta", "2",
                       "--mode", "sampled", "--seed", "1", "--count", "5")
    assert code == 0 and doc["accepted"] is True and doc["pairs_checked"] == 0


def test_negative_sample_counts_exit_2(capsys, tmp_path, fam_file):
    g = path_graph(4)
    gp = graph_file(tmp_path, g, "p4.json")
    mp = tmp_path / "p4_map.json"
    mp.write_text(canonical_dumps(map_doc(
        QuasiMap(g, g, [(Vertex(v), Vertex(v)) for v in range(4)]),
        "p4.json", "p4.json", n=1)))
    g0p = str(tmp_path / "g0.json")
    main(["gamma0", "--family", fam_file, "--depth", "3", "--out", g0p])
    sampled = ("--mode", "sampled", "--seed", "1", "--count", "-3")
    for argv in (
        ("check-qi", "--map", str(mp), "--constant", "1") + sampled,
        ("bottleneck", "--graph", gp, "--delta", "2") + sampled,
        ("delta", "--graph", gp) + sampled,
        ("separation", "--gamma0", g0p, "--seed", "1", "--count", "-3"),
    ):
        code, doc, err = run(capsys, *argv)
        assert (code, doc) == (2, None), argv
        assert "count" in err


def test_delta_matches_library(capsys, tmp_path):
    gp = graph_file(tmp_path, cycle_graph(8), "c8.json")
    code, doc, _ = run(capsys, "delta", "--graph", gp)
    assert code == 0
    assert doc == json.loads(canonical_dumps(delta_report_doc(
        slim_triangle_delta(cycle_graph(8)))))
    assert doc["delta_upper_observed"] == "2/1"

    code, _, err = run(capsys, "delta", "--graph", gp, "--mode", "sampled")
    assert code == 2 and "seed" in err


def test_bottleneck_exit_codes(capsys, tmp_path):
    tree = path_graph(6)
    tp = graph_file(tmp_path, tree, "p6.json")
    code, doc, _ = run(capsys, "bottleneck", "--graph", tp, "--delta", "3/1")
    assert code == 0 and doc["accepted"] is True
    assert doc == json.loads(canonical_dumps(bottleneck_report_doc(
        verify_bottleneck(tree, Fraction(3)))))

    cp = graph_file(tmp_path, cycle_graph(24), "c24.json")
    code, doc, _ = run(capsys, "bottleneck", "--graph", cp, "--delta", "5",
                       "--radius", "4")
    assert code == 1
    assert doc["witness"] is not None
    assert doc["witness"]["avoiding_path"]

    code, _, err = run(capsys, "bottleneck", "--graph", cp, "--delta", "3",
                       "--radius", "-1")
    assert code == 2

    # the witness path goes round the probe vertex on the sphere
    g = LabeledMetricGraph(range(4), [(0, 0, 2, 1), (1, 2, 1, 1), (2, 0, 3, 1), (3, 3, 1, 2)])
    gp = graph_file(tmp_path, g, "sphere.json")
    code, doc, _ = run(capsys, "bottleneck", "--graph", gp, "--delta", "1", "--radius", "0")
    assert code == 1
    assert doc["witness"]["probe"] == {"vertex": 2}
    assert doc["witness"]["avoiding_path"] == [0, 3, 1]


def test_separation(capsys, tmp_path, fam_file):
    g0p = str(tmp_path / "g0.json")
    main(["gamma0", "--family", fam_file, "--depth", "6", "--out", g0p])
    code, doc, _ = run(capsys, "separation", "--gamma0", g0p,
                       "--seed", "5", "--count", "60")
    assert code == 0
    assert doc["accepted"] is True
    assert doc["radius"] == "2/1"
    assert doc["pairs_checked"] == 60


def test_profile(capsys, tmp_path, fam_file):
    g0p = str(tmp_path / "g0.json")
    main(["gamma0", "--family", fam_file, "--depth", "3", "--out", g0p])
    g0 = build_gamma0(SetFamily.of_lists([["a", "b"], ["c"]]), 3)
    x = json.dumps({"vertex": g0.vertex_of("a", 2)})
    y = json.dumps({"vertex": g0.vertex_of("c", 2)})
    code, doc, _ = run(capsys, "profile", "--gamma0", g0p, "--x", x, "--y", y)
    assert code == 0
    assert doc["profiles"]
    for item in doc["profiles"]:
        assert item["profile"] == "VShaped"
        assert item["length"] == "4/1"

    code, _, err = run(capsys, "profile", "--gamma0", g0p, "--x", "{oops", "--y", y)
    assert code == 2


def test_profile_deep_pair(capsys, tmp_path, fam_file):
    fp = tmp_path / "fam.json"
    fp.write_text(canonical_dumps(
        {"sets": [{"name": "X0", "elements": ["a"]},
                  {"name": "X1", "elements": ["b"]}]}
    ))
    g0p = str(tmp_path / "g0.json")
    main(["gamma0", "--family", str(fp), "--depth", "2400", "--out", g0p])
    y = json.dumps({"vertex": 2400})  # a@2400
    code, _, err = run(capsys, "profile", "--gamma0", g0p,
                       "--x", '{"vertex": 0}', "--y", y, "--cap", "1")
    assert code == 3 and "CapExceeded" in err
    # an end with a 3,001-digit offset is quoted by a prefix
    g0p = str(tmp_path / "g0_6.json")
    main(["gamma0", "--family", fam_file, "--depth", "6", "--out", g0p])
    x = json.dumps({"edge": 3, "offset": f"1/{10**3000 + 1}"})
    code, _, err = run(capsys, "profile", "--gamma0", g0p, "--cap", "1",
                       "--x", x, "--y", '{"vertex": 12}')
    assert code == 3 and err.startswith("error:") and err.count("\n") == 1
    assert len(err.encode()) < 300


def test_oversized_inputs_exit_2_quickly(capsys, tmp_path, fam_file):
    """Ten bytes of exponent, a declared or requested depth of 10**9 and a
    cap below 1 are refused before any work sized by them is done."""
    cp = graph_file(tmp_path, cycle_graph(6), "c6.json")
    huge = tmp_path / "huge.json"
    huge.write_text(canonical_dumps({"kind": "gamma0", "depth": 10**9,
                                     "family": FAM2, "vertices": [], "edges": []}))
    spec = tmp_path / "spec.json"
    spec.write_text(canonical_dumps({"mode": "first"}))
    deep = ("--family", fam_file, "--depth", str(10**9))
    # 40 KB of lengths 1/d, distinct 1000-digit d: their lcm, the engine's
    # unit, would have about 39,000 digits
    fine = tmp_path / "fine.json"
    fine.write_text(canonical_dumps({
        "vertices": [{"id": i} for i in range(40)],
        "edges": [{"id": i, "u": i, "v": i + 1, "len": f"1/{10**999 + i}"} for i in range(39)],
    }))
    # one set of 60 elements: at depth 6,000 its 360,001 vertices carry
    # 64,432,920 edges, past the budget; at depth 40 a 7 KB document
    # declares 422,520 edges and holds none
    wide = {"sets": [{"name": "W", "elements": [f"w{i}" for i in range(60)]}]}
    wide_file = tmp_path / "wide.json"
    wide_file.write_text(canonical_dumps(wide))
    docs = []
    for depth in (6000, 40):
        docs.append(tmp_path / f"wide{depth}.json")
        docs[-1].write_text(canonical_dumps({
            "kind": "gamma0", "depth": depth, "family": wide,
            "vertices": [0] * (1 + 60 * depth), "edges": []}))
    wide_deep = ("--family", str(wide_file), "--depth", "6000")
    g0p, g1p, mp = (str(tmp_path / name) for name in ("g0.json", "g1.json", "map.json"))
    main(["gamma0", "--family", fam_file, "--depth", "2", "--out", g0p])
    main(["gamma1", "--family", fam_file, "--depth", "2", "--out", g1p])
    main(["collapse", "--gamma0", g0p, "--gamma1", g1p, "--out", mp])
    for argv in (
        ("bottleneck", "--graph", cp, "--delta", "1e10000000"),
        ("delta", "--graph", str(fine)),
        ("separation", "--gamma0", str(huge), "--seed", "1", "--count", "1"),
        ("gamma0", *deep),
        ("gamma1", *deep),
        ("extract-choice", *deep, "--constant", "4", "--section", str(spec)),
        ("gamma0", *wide_deep),
        ("extract-choice", *wide_deep, "--constant", "4", "--section", str(spec)),
        *(("separation", "--gamma0", str(d), "--seed", "1", "--count", "1") for d in docs),
        ("profile", "--gamma0", g0p, "--x", "x" * 100_000, "--y", '{"vertex": 0}'),
        ("min-qi", "--map", mp, "--cap", "-3"),
        ("profile", "--gamma0", g0p, "--x", '{"vertex": 0}', "--y", '{"vertex": 4}',
         "--cap", "-1"),
    ):
        start = time.perf_counter()
        code, _, err = run(capsys, *argv)
        assert code == 2 and err.startswith("error: ") and err.count("\n") == 1, argv[0]
        assert len(err) < 300, err
        assert time.perf_counter() - start < 1, argv[0]
    # the budget, counted unbuilt, admits extraction at constant 16 on the
    # 3-set family and on three sets of two
    for lists, edges in (([["a", "b"], ["c"], ["d", "e", "f"]], 2_085_104),
                         ([["a", "b"], ["c", "d"], ["e", "f"]], 1_737_588)):
        layout = gamma_spaces._ArmLayout("gamma0", SetFamily.of_lists(lists),
                                         required_gamma0_depth(16))
        assert (layout.n_vertices, layout.n_edges) == (347_521, edges)
        assert layout.n_vertices + layout.n_edges <= layout.budget


def test_deep_json_exits_2(capsys, tmp_path, fam_file):
    # JSON nested past the recursion limit is malformed input, not a defect
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    g0p = str(tmp_path / "g0.json")
    main(["gamma0", "--family", fam_file, "--depth", "2", "--out", g0p])
    for argv in (("delta", "--graph", str(deep)),
                 ("gamma0", "--family", str(deep), "--depth", "2"),
                 ("profile", "--gamma0", g0p, "--x", "[" * 200_000, "--y", '{"vertex": 0}')):
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("error: ") and "nested too deeply" in err
        assert err.count("\n") == 1


def test_witness_frozen(capsys, tmp_path):
    fam = {"sets": [{"name": "X0", "elements": ["a"]},
                    {"name": "X1", "elements": ["c"]}]}
    fp = tmp_path / "fam.json"
    fp.write_text(canonical_dumps(fam))
    g0p = str(tmp_path / "g0.json")
    main(["gamma0", "--family", str(fp), "--depth", "30", "--out", g0p])
    code, doc, _ = run(
        capsys, "witness", "--gamma0", g0p,
        "--x", '{"vertex": 5}', "--y", '{"vertex": 2}', "--bound", "3/1",
    )
    assert code == 0
    assert doc == {"bound": "3/1", "witness": {"vertex": 43}, "level": 13}

    # bound too large for the truncation
    code, _, err = run(
        capsys, "witness", "--gamma0", g0p,
        "--x", '{"vertex": 5}', "--y", '{"vertex": 2}', "--bound", "40",
    )
    assert code == 3 and "DepthTooSmall" in err


def test_prune(capsys, tmp_path):
    cat = LabeledMetricGraph(
        range(7),
        [(0, 0, 1, 1), (1, 1, 2, 1), (2, 2, 3, 1),
         (3, 1, 4, 1), (4, 1, 5, 1), (5, 2, 6, 1)],
    )
    tp = graph_file(tmp_path, cat, "cat.json", tree=True)
    code, doc, _ = run(capsys, "prune", "--graph", tp, "--rounds", "1")
    assert code == 0
    assert [v["id"] for v in doc["vertices"]] == [1, 2]
    assert doc["tree"] is True
    assert doc["prune_trace"] == {
        "rounds_requested": 1, "rounds_run": 1,
        "stages": [[0, 3, 4, 5, 6]], "empty": False,
    }


def test_median(capsys, tmp_path, fam_file):
    cat = LabeledMetricGraph(
        range(7),
        [(0, 0, 1, 1), (1, 1, 2, 1), (2, 2, 3, 1),
         (3, 1, 4, 1), (4, 1, 5, 1), (5, 2, 6, 1)],
    )
    tp = graph_file(tmp_path, cat, "cat.json", tree=True)
    code, doc, _ = run(capsys, "median", "--tree", tp,
                       "--z", '{"vertex": 0}', "--a", '{"vertex": 5}',
                       "--b", '{"vertex": 6}')
    assert code == 0
    med = tree_median(cat, Vertex(0), Vertex(5), Vertex(6))
    assert doc == {"median": point_doc(med)} == {"median": {"vertex": 1}}

    code, _, _ = run(capsys, "median", "--tree", tp,
                     "--z", '{"vertex": 99}', "--a", '{"vertex": 5}',
                     "--b", '{"vertex": 6}')
    assert code == 2  # unknown point
    # every point is checked, not only the root: offsets outside (0, 1)
    # and unknown ids on Γ1 of {a,b},{c} at depth 3
    g1p = str(tmp_path / "g1.json")
    main(["gamma1", "--family", fam_file, "--depth", "3", "--out", g1p])
    for b in ('{"edge": 2, "offset": "4/3"}', '{"edge": 2, "offset": "-5/3"}',
              '{"vertex": 99}', '{"edge": 99, "offset": "1/2"}'):
        code, doc, err = run(capsys, "median", "--tree", g1p, "--z", '{"vertex": 0}',
                             "--a", '{"vertex": 1}', "--b", b)
        assert (code, doc) == (2, None) and err.startswith("error: "), b
        assert err.count("\n") == 1, b

    cyc = graph_file(tmp_path, cycle_graph(4), "c4.json")
    code, _, err = run(capsys, "median", "--tree", cyc,
                       "--z", '{"vertex": 0}', "--a", '{"vertex": 1}',
                       "--b", '{"vertex": 2}')
    assert code == 3 and "NotATree" in err


def test_quasi_inverse(capsys, tmp_path):
    src = path_graph(10)
    gp = graph_file(tmp_path, src, "p10.json", tree=True)
    m = QuasiMap(src, src, [(Vertex(v), Vertex(v)) for v in range(10)],
                 asserted_constant=1)
    mp = tmp_path / "map.json"
    mp.write_text(canonical_dumps(map_doc(m, "p10.json", "p10.json")))
    code, doc, _ = run(capsys, "quasi-inverse", "--map", str(mp),
                       "--constant", "1")
    assert code == 0
    res = quasi_inverse(m, 1)
    assert doc["bound"] == res.bound == 9
    assert doc["minimal_constant"] == res.minimal_constant == 1
    assert doc["certificate"]["accepted"] is True
    assert doc["map"]["N"] == 1


def test_extract_choice_paths(capsys, tmp_path, fam_file):
    sec = tmp_path / "sec.json"
    sec.write_text(canonical_dumps({"mode": "first"}))

    # depth below what the constant needs: refused, the error naming the depth
    code, _, err = run(capsys, "extract-choice", "--family", fam_file,
                       "--depth", "20", "--constant", "4", "--section", str(sec))
    assert code == 3
    assert err == "error: DepthError: truncation depth 20 is below the required 944\n"

    bad = tmp_path / "bad.json"
    bad.write_text(canonical_dumps({"seed": 3}))
    code, _, err = run(capsys, "extract-choice", "--family", fam_file,
                       "--depth", "944", "--constant", "4", "--section", str(bad))
    assert code == 2

    # a seed that is not an integer is refused before any graph is built
    # (the DepthError comes first otherwise)
    for seed in ([1], True, 1.5, "x"):
        bad.write_text(canonical_dumps({"mode": "seeded", "seed": seed}))
        code, _, err = run(capsys, "extract-choice", "--family", fam_file,
                           "--depth", "20", "--constant", "4", "--section", str(bad))
        assert code == 2
        assert err == f'error: a section "seed" must be an integer, got {seed!r}\n'

    # so is a mode that is not a string, which could not be looked up
    for mode in ([], {}, 1):
        bad.write_text(canonical_dumps({"mode": mode}))
        code, _, err = run(capsys, "extract-choice", "--family", fam_file,
                           "--depth", "20", "--constant", "4", "--section", str(bad))
        assert code == 2
        assert err == f'error: a section "mode" must be a string, got {mode!r}\n'

    code, doc, _ = run(capsys, "extract-choice", "--family", fam_file,
                       "--depth", "944", "--constant", "4", "--section", str(sec))
    assert code == 0
    assert doc["verified"] is True
    assert doc["rounds"] == 112 and doc["root"] == 0
    assert doc["frontier"] == [gamma1_vertex_id(944, 0, 224),
                               gamma1_vertex_id(944, 1, 224)]
    assert doc["transversal"] == ["a", "c"]
    assert set(doc["inputs"]) == {"family", "section", "depth", "constant"}


def test_extract_choice_seeded_section(capsys, tmp_path, fam_file):
    """A seeded section is chosen by its spec file alone, and the inputs
    record nothing else; an unknown section mode is malformed input."""
    sec = tmp_path / "sec.json"
    sec.write_text(canonical_dumps({"mode": "seeded", "seed": 99}))
    code, doc, err = run(capsys, "extract-choice", "--family", fam_file,
                         "--depth", "944", "--constant", "4", "--section", str(sec))
    assert code == 0 and err == ""
    assert doc["verified"] is True
    assert set(doc["inputs"]) == {"family", "section", "depth", "constant"}

    sec.write_text(canonical_dumps({"mode": "bogus"}))
    code, doc, err = run(capsys, "extract-choice", "--family", fam_file,
                         "--depth", "944", "--constant", "4", "--section", str(sec))
    assert code == 2 and doc is None
    assert err == "error: unknown mode 'bogus'\n"


def test_removed_options_are_refused(capsys, tmp_path, fam_file):
    """check-qi --force and extract-choice --adversarial-seed are gone:
    not in the help, and refused as unknown options."""
    sec = tmp_path / "sec.json"
    sec.write_text(canonical_dumps({"mode": "first"}))
    for command, given, removed in (
            ("check-qi", ["--map", str(sec), "--constant", "1"], ["--force"]),
            ("extract-choice", ["--family", fam_file, "--depth", "944", "--constant", "4",
                                "--section", str(sec)], ["--adversarial-seed", "99"])):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0 and removed[0] not in capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            main([command, *given, *removed])
        out = capsys.readouterr()
        assert exc.value.code == 2 and out.out == ""
        assert "unrecognized arguments: " + " ".join(removed) in out.err


def test_verify_transversal_cli(capsys, tmp_path, fam_file):
    def elems_file(payload, name):
        p = tmp_path / name
        p.write_text(canonical_dumps(payload))
        return str(p)

    code, doc, _ = run(capsys, "verify-transversal", "--family", fam_file,
                       "--elements", elems_file(["a", "c"], "t1.json"))
    assert code == 0 and doc == {"elements": ["a", "c"], "valid": True}

    code, doc, _ = run(capsys, "verify-transversal", "--family", fam_file,
                       "--elements", elems_file({"elements": ["b", "c"]}, "t2.json"))
    assert code == 0 and doc["valid"] is True

    code, doc, _ = run(capsys, "verify-transversal", "--family", fam_file,
                       "--elements", elems_file({"transversal": ["a", "b"]}, "t3.json"))
    assert code == 1 and doc["valid"] is False

    code, _, err = run(capsys, "verify-transversal", "--family", fam_file,
                       "--elements", elems_file(["a", 3], "t4.json"))
    assert code == 2

    code, _, err = run(capsys, "verify-transversal", "--family", fam_file,
                       "--elements", elems_file(["a", "z"], "t5.json"))
    assert code == 3 and "UnknownElement" in err


def test_internal_errors_exit_4(capsys, monkeypatch, tmp_path, fam_file):
    g0p = str(tmp_path / "g0.json")
    main(["gamma0", "--family", fam_file, "--depth", "30", "--out", g0p])

    def boom(*args):
        raise KeyError("lost")

    monkeypatch.setattr(cli, "build_gamma0", boom)
    code, doc, err = run(capsys, "gamma0", "--family", fam_file, "--depth", "2")
    assert code == 4 and doc is None
    assert err == "error: internal: KeyError: 'lost'\n"

    # a far witness that fails its own check is a defect, not a rejection
    monkeypatch.setattr(gamma_spaces, "is_separated", lambda *a: False)
    code, _, err = run(capsys, "witness", "--gamma0", g0p,
                       "--x", '{"vertex": 5}', "--y", '{"vertex": 2}',
                       "--bound", "3/1")
    assert code == 4
    assert err.startswith("error: internal: witness construction")


def test_one_parser_serves_a_process(capsys, fam_file):
    """The parser is built on first use and kept: a rejected argv between
    two commands leaves their output as a freshly built parser gives it."""
    argvs = (("gamma0", "--family", fam_file, "--depth", "2"),
             ("gamma0", "--depth", "two"),
             ("gamma1", "--family", fam_file, "--depth", "2"))

    def outcome(argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        return code, out.out, out.err

    cli._build_parser.cache_clear()
    shared = [outcome(argv) for argv in argvs]
    assert cli._build_parser.cache_info().misses == 1
    fresh = []
    for argv in argvs:
        cli._build_parser.cache_clear()
        fresh.append(outcome(argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 2, 0]


def test_missing_file_and_bad_subcommand(capsys, tmp_path):
    code, _, err = run(capsys, "delta", "--graph", str(tmp_path / "nope.json"))
    assert code == 2
    with pytest.raises(SystemExit):
        main(["frobnicate"])
    capsys.readouterr()


def test_entry_point_subprocess(tmp_path, fam_file):
    out = subprocess.run(
        [sys.executable, "-m", "coarsegeom.cli",
         "gamma0", "--family", fam_file, "--depth", "2"],
        capture_output=True, text=True,
    )
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["kind"] == "gamma0" and doc["depth"] == 2
    assert doc["family"] == FAM2
