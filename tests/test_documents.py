"""JSON document round trips and schema rejection."""

import gc
import importlib
import json
import random
from collections import OrderedDict
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsegeom import (
    BottleneckWitness,
    DomainNotNet,
    Interior,
    LabeledMetricGraph,
    QuasiMap,
    SchemaError,
    SetFamily,
    Vertex,
    build_gamma0,
    SeparationReport,
    build_gamma1,
    certify_two_hyperbolic_gamma0,
    distance,
    extract_choice,
    prune_k,
    section_map,
    slim_triangle_delta,
    verify_bottleneck,
    verify_quasi_isometry,
)
from coarsegeom import documents
from coarsegeom.documents import (
    bottleneck_report_doc,
    canonical_dumps,
    choice_certificate_doc,
    delta_report_doc,
    family_doc,
    gamma0_doc,
    gamma1_doc,
    graph_doc,
    load_graph_file,
    load_map_file,
    map_doc,
    parse_family,
    parse_gamma0,
    parse_gamma1,
    parse_graph,
    parse_point,
    parse_rational,
    point_doc,
    prune_trace_doc,
    qi_certificate_doc,
    rational_str,
    separation_report_doc,
    violation_doc,
)
import oracles
from conftest import cycle_graph, path_graph, random_graph, random_tree


def test_rational_strings():
    assert rational_str(Fraction(3)) == "3/1"
    assert rational_str(Fraction(1, 2)) == "1/2"
    assert rational_str(Fraction(-7, 14)) == "-1/2"
    assert parse_rational("3/1") == 3
    assert parse_rational("10/4") == Fraction(5, 2)
    assert parse_rational(5) == 5
    for bad in ("", "a/b", "1/0", 1.5, True, None, [1, 2]):
        with pytest.raises(SchemaError):
            parse_rational(bad)
    # exponents would let ten bytes ask for a 33-million-bit integer
    # Fraction reads "1e3" as 1000
    for bad in ("1e10000000", "1E5", "2.5e-3", "1/1e3", "1e3"):
        with pytest.raises(SchemaError, match="exponent"):
            parse_rational(bad)


def test_rational_round_trip_loop():
    rng = random.Random(20)
    for _ in range(200):
        x = Fraction(rng.randrange(-500, 500), rng.randrange(1, 60))
        assert parse_rational(rational_str(x)) == x


# (spelling, its value, or None where Fraction refuses it)
RATIONAL_SPELLINGS = [
    ("1/2", Fraction(1, 2)),
    ("2/4", Fraction(1, 2)),
    ("-3/4", Fraction(-3, 4)),
    ("-0/1", Fraction(0)),
    ("007/014", Fraction(1, 2)),
    (" 1/2", Fraction(1, 2)),
    ("+1/2", Fraction(1, 2)),
    ("0.5", Fraction(1, 2)),
    ("\u0661/\u0662", Fraction(1, 2)),  # Arabic-Indic digits
    ("1_0/3", Fraction(10, 3)),
    ("1/0", None),
    ("-5/0", None),
    ("1/-2", None),
    ("9" * 5000 + "/1", None),  # past the int string-conversion limit
]


@pytest.mark.parametrize("text, value", RATIONAL_SPELLINGS)
def test_parse_rational_reads_each_spelling_as_fraction_does(text, value):
    """Plain "p/q" strings skip Fraction's own parser; every spelling still
    gives Fraction's value, or its refusal in the same words."""
    try:
        want = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        assert value is None
        with pytest.raises(SchemaError) as info:
            parse_rational(text)
        assert str(info.value) == f"bad rational {text!r}: {exc}"
    else:
        assert want == value
        got = parse_rational(text)
        assert got == value and type(got) is Fraction


def test_point_docs():
    assert point_doc(Vertex(4)) == {"vertex": 4}
    assert point_doc(Interior(2, Fraction(1, 3))) == {"edge": 2, "offset": "1/3"}
    assert parse_point({"vertex": 4}) == Vertex(4)
    assert parse_point({"edge": 2, "offset": "1/3"}) == Interior(2, Fraction(1, 3))
    for bad in (
        {"vertex": 4, "edge": 1},
        {"edge": 2},
        {"offset": "1/3"},
        {"vertex": True},
        "vertex 4",
        {},
    ):
        with pytest.raises(SchemaError):
            parse_point(bad)


def test_graph_round_trip_loop():
    for seed in range(8):
        g = random_graph(seed, 12, extra=3, rational=True)
        back = parse_graph(json.loads(canonical_dumps(graph_doc(g))))
        assert back.same_structure(g)
        assert back.vertex_labels == g.vertex_labels
        assert back.basepoint == g.basepoint


def test_graph_round_trip_keeps_labels_and_base():
    g = LabeledMetricGraph(
        [(0, "root"), 1, (2, "leaf")],
        [(0, 0, 1, Fraction(3, 2), 1), (1, 1, 2, 1)],
        basepoint=0,
    )
    doc = graph_doc(g, tree=True)
    assert doc["tree"] is True
    assert doc["basepoint"] == 0
    assert doc["edges"][0]["label"] == 1
    back = parse_graph(doc)
    assert back.same_structure(g)
    assert back.vertex_labels == {0: "root", 1: None, 2: "leaf"}


def test_canonical_dumps_is_stable():
    g = random_graph(3, 10, extra=2)
    a = canonical_dumps(graph_doc(g))
    b = canonical_dumps(graph_doc(g))
    assert a == b
    assert a.endswith("\n")
    # key order in the input dict must not leak into the output
    assert canonical_dumps({"b": 1, "a": 2}) == canonical_dumps({"a": 2, "b": 1})


def _json_dumps(x):
    return json.dumps(x, sort_keys=True, indent=2) + "\n"


def _outcome(dump, x):
    try:
        return dump(x)
    except Exception as exc:  # the type is what the writers must share
        return type(exc)


_scalars = (st.none() | st.booleans() | st.integers()
            | st.integers(min_value=-(10**60), max_value=10**60)
            | st.floats() | st.text() | st.text(st.characters(max_codepoint=0x1f)))
_keys = st.one_of(st.text(), st.integers(), st.booleans(), st.none(), st.floats())
_json_values = st.recursive(
    _scalars,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(_keys, inner, max_size=4)
                   # one key type per dict, so most dicts sort
                   | st.dictionaries(st.text(), inner, max_size=4)
                   | st.dictionaries(st.integers(), inner, max_size=4)),
    max_leaves=25,
)


# strings that look like the writer's separators, templates and escapes
_record_text = st.text() | st.lists(st.sampled_from(
    ["\n", "},\n      {", "},\n        {", ",\n", "%", "%s", '"', "\\", "{", "}",
     "\u00e9", "\U0001f600", "\x00", "\x1f", "a", " "]), max_size=6).map("".join)
_record_scalars = (st.none() | st.booleans() | st.integers() | st.floats()
                   | _record_text)
_record_values = _record_scalars | st.dictionaries(_record_text, _record_scalars,
                                                   min_size=1, max_size=3)


@st.composite
def _record_lists(draw):
    """A list or tuple of 1-6 dicts with the same keys, each value a scalar
    or a flat dict; at times one record holds {}, a nested dict with a
    non-str key or its keys in another insertion order, and at times the
    list sits inside a document."""
    keys = draw(st.lists(_record_text, min_size=1, max_size=4, unique=True))
    rows = draw(st.lists(st.fixed_dictionaries({k: _record_values for k in keys}),
                         min_size=1, max_size=6))
    row, key = draw(st.sampled_from(rows)), draw(st.sampled_from(keys))
    change = draw(st.sampled_from(("none", "empty", "key", "order")))
    if change == "empty":
        row[key] = {}
    elif change == "key":
        row[key] = {draw(st.integers() | st.none() | st.booleans() | st.floats()): 0}
    elif change == "order":
        row.update([row.popitem() for _ in keys])  # the keys reversed
    rows = draw(st.sampled_from((list, tuple)))(rows)
    return draw(st.sampled_from((rows, {"rows": rows, "nested": [[rows]]})))


@settings(max_examples=500, deadline=None)
@given(_json_values | _record_lists())
def test_canonical_dumps_is_json_dumps(x):
    """canonical_dumps is json.dumps(sort_keys=True, indent=2) and a newline,
    or json's exception type where json refuses the value."""
    assert _outcome(canonical_dumps, x) == _outcome(_json_dumps, x)


def test_gamma0_records_are_written_by_column(fam3, monkeypatch):
    """A gamma0 document's vertex and edge records are written column by
    column, so its row-by-row calls do not grow with the depth; where json
    has no C accelerator, the columns come out the same."""
    docs = [gamma0_doc(build_gamma0(fam3, depth)) for depth in (3, 30)]
    texts = [canonical_dumps(doc) for doc in docs]
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    assert [canonical_dumps(doc) for doc in docs] == texts == list(map(_json_dumps, docs))
    calls = []
    write = documents._write_json

    def counted(*args):
        calls.append(args)
        return write(*args)

    monkeypatch.setattr(documents, "_write_json", counted)
    counts = []
    for doc in docs:
        calls.clear()
        canonical_dumps(doc)
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_canonical_dumps_refuses_what_json_refuses():
    cycle = []
    cycle.append(cycle)
    for bad in (Fraction(1, 2), {1, 2}, {"a": 1, 2: 3}, [{"a": Fraction(1)}],
                {(1, 2): 0}, {Fraction(1): 0}, cycle, {"deep": {"k": cycle}}):
        got = _outcome(canonical_dumps, bad)
        assert got in (TypeError, ValueError)
        assert got == _outcome(_json_dumps, bad)
    assert canonical_dumps({}) == "{}\n" and canonical_dumps(()) == "[]\n"
    mixed = {True: [None, 1.5, float("nan")], 2: {}, 0.5: "\u00e9\x01", 10**40: ()}
    assert canonical_dumps(mixed) == _json_dumps(mixed)


def test_canonical_dumps_leaves_no_cycle_behind():
    """The written chunks are freed on return, not at a later full
    collection, as they would be if a reference cycle held them."""
    gc.collect()
    gc.disable()
    try:
        canonical_dumps({"a": [{"b": i, "c": [i, str(i)]} for i in range(50)]})
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_cli_chain_files_are_json_dumps(monkeypatch, tmp_path):
    """Every file the benchmark's cli chain writes for pool entry 0 is
    already what json.dumps(sort_keys=True, indent=2) writes of it."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    cli = importlib.import_module("workloads").WORKLOADS["cli"](str(tmp_path))
    ctx = cli.prepare(0)
    assert cli.op(ctx) == [0] * len(cli.outputs)
    for name in cli.outputs + ("family.json",):
        text = (tmp_path / name).read_text(encoding="utf-8")
        assert text == _json_dumps(json.loads(text)), name


def test_graph_schema_rejections():
    ok = graph_doc(random_graph(0, 5))
    cases = []
    d = json.loads(canonical_dumps(ok)); del d["edges"]; cases.append(d)
    d = json.loads(canonical_dumps(ok)); d["vertices"][0]["id"] = "zero"; cases.append(d)
    d = json.loads(canonical_dumps(ok)); d["vertices"][0]["id"] = True; cases.append(d)
    d = json.loads(canonical_dumps(ok)); del d["edges"][0]["len"]; cases.append(d)
    d = json.loads(canonical_dumps(ok)); d["edges"][0]["len"] = "0/1"; cases.append(d)
    d = json.loads(canonical_dumps(ok)); d["edges"][0]["u"] = 99; cases.append(d)
    d = json.loads(canonical_dumps(ok)); d["edges"][0]["label"] = "x"; cases.append(d)
    d = json.loads(canonical_dumps(ok)); d["basepoint"] = "0"; cases.append(d)
    d = json.loads(canonical_dumps(ok)); d["vertices"] = "none"; cases.append(d)
    cases.append([1, 2, 3])
    for bad in cases:
        with pytest.raises(SchemaError):
            parse_graph(bad)


def test_tree_flag_is_checked():
    cyc = graph_doc(
        LabeledMetricGraph([0, 1, 2], [(0, 0, 1, 1), (1, 1, 2, 1), (2, 2, 0, 1)])
    )
    cyc["tree"] = True
    with pytest.raises(SchemaError):
        parse_graph(cyc)


def test_family_round_trip(fam3):
    back = parse_family(family_doc(fam3))
    assert back == fam3
    with pytest.raises(SchemaError):
        parse_family({"sets": [{"name": "A", "elements": ["x", "x"]}]})
    with pytest.raises(SchemaError):
        parse_family({"sets": [{"name": "A", "elements": []}]})
    with pytest.raises(SchemaError):
        parse_family({})


def test_gamma_docs_round_trip(fam2):
    g0 = build_gamma0(fam2, 3)
    back = parse_gamma0(json.loads(canonical_dumps(gamma0_doc(g0))))
    assert back.depth == 3
    assert back.family == fam2
    assert back.graph.same_structure(g0.graph)

    g1 = build_gamma1(fam2, 3)
    t, fam, depth = parse_gamma1(json.loads(canonical_dumps(gamma1_doc(g1))))
    assert (fam, depth) == (fam2, 3)
    assert t.same_structure(g1)
    # the family and depth are the tree's own: a tree that does not carry
    # them, or a doubled-edge graph, has no gamma1 document
    for other in (parse_graph(graph_doc(g1, tree=True)), g0.graph):
        with pytest.raises(ValueError, match="only a tree build_gamma1 made"):
            gamma1_doc(other)


def test_tampered_gamma0_is_rejected(fam2):
    doc = json.loads(canonical_dumps(gamma0_doc(build_gamma0(fam2, 3))))
    doc["edges"] = doc["edges"][:-1]
    with pytest.raises(SchemaError):
        parse_gamma0(doc)
    doc2 = json.loads(canonical_dumps(gamma0_doc(build_gamma0(fam2, 3))))
    doc2["depth"] = 4
    with pytest.raises(SchemaError):
        parse_gamma0(doc2)
    with pytest.raises(SchemaError):
        parse_gamma0({"kind": "gamma1"})


def test_gamma_docs_accept_other_spellings(fam2):
    """Documents that are not the builder's own text but encode the same
    graph still parse; ints standing in as bools or floats still fail."""
    for doc, parse in (
        (gamma0_doc(build_gamma0(fam2, 3)), lambda d: parse_gamma0(d).graph),
        (gamma1_doc(build_gamma1(fam2, 3)), lambda d: parse_gamma1(d)[0]),
    ):
        canonical = parse(doc)
        for spell in ("1", 1):
            other = json.loads(canonical_dumps(doc))
            for e in other["edges"]:
                e["len"] = spell
            assert parse(other).same_structure(canonical)
        other = json.loads(canonical_dumps(doc))
        other["edges"].reverse()
        assert parse(other).same_structure(canonical)
        assert parse({**doc, 7: "an extra key"}).same_structure(canonical)
        for key, value in (("basepoint", False), ("basepoint", 0.0)):
            other = json.loads(canonical_dumps(doc))
            other[key] = value
            with pytest.raises(SchemaError, match="basepoint must be an integer"):
                parse(other)


def _one_leaf_changed(doc):
    """(name, copy of doc with one leaf respelled): ints as floats or
    bools, and the tree flag as 1, which == alone may not tell apart."""
    def edited(change):
        other = json.loads(canonical_dumps(doc))
        change(other)
        return other

    edge = next(i for i, e in enumerate(doc["edges"]) if e["u"] == 1)
    yield "tree 1", edited(lambda d: d.update(tree=1))
    yield "depth 3.0", edited(lambda d: d.update(depth=3.0))
    yield "depth True", edited(lambda d: d.update(depth=True))
    yield "u 1.0", edited(lambda d: d["edges"][edge].update(u=1.0))
    yield "id True", edited(lambda d: d["vertices"][1].update(id=True))
    yield "label 1.0", edited(lambda d: d["edges"][0].update(label=1.0))


# what each respelled leaf gave before the == check: a message, or None
# for a graph of the builder's structure
GAMMA_LEAF_OUTCOMES = {
    "gamma0": {
        "tree 1": 'graph marked "tree" is not one: 32 edges on 10 vertices cannot be a tree',
        "depth 3.0": "depth must be an integer, got 3.0",
        "depth True": "depth must be an integer, got True",
        "u 1.0": 'edge 6 "u" must be an integer, got 1.0',
        "id True": "vertex id must be an integer, got True",
        "label 1.0": "edge 0 label must be an integer, got 1.0",
    },
    "gamma1": {
        "tree 1": None,
        "depth 3.0": "depth must be an integer, got 3.0",
        "depth True": "depth must be an integer, got True",
        "u 1.0": 'edge 1 "u" must be an integer, got 1.0',
        "id True": "vertex id must be an integer, got True",
        "label 1.0": "edge 0 label must be an integer, got 1.0",
    },
}


@pytest.mark.parametrize("kind", ["gamma0", "gamma1"])
def test_gamma_fast_accept_is_as_strict_as_json_text(fam2, kind, monkeypatch):
    """Only the builder's own document, leaf types included, is accepted
    without parsing; a leaf that is == but written differently by json is
    parsed, and gives the message or the graph it always gave."""
    if kind == "gamma0":
        built = build_gamma0(fam2, 3).graph
        doc, parse = gamma0_doc(build_gamma0(fam2, 3)), lambda d: parse_gamma0(d).graph
    else:
        built = build_gamma1(fam2, 3)
        doc, parse = gamma1_doc(built), lambda d: parse_gamma1(d)[0]
    parsed = []
    real_parse_graph = documents.parse_graph
    monkeypatch.setattr(documents, "parse_graph",
                        lambda d: parsed.append(d) or real_parse_graph(d))
    assert parse(json.loads(canonical_dumps(doc))).same_structure(built)
    assert parsed == []
    for name, other in _one_leaf_changed(doc):
        want = GAMMA_LEAF_OUTCOMES[kind][name]
        if want is None:
            assert parse(other).same_structure(built)
            assert parsed[-1] is other
        else:
            with pytest.raises(SchemaError) as info:
                parse(other)
            assert str(info.value) == want


@pytest.mark.parametrize("kind", ["gamma0", "gamma1"])
def test_declared_depth_is_checked_before_building(fam2, kind):
    doc = {"kind": kind, "depth": 10**9, "family": family_doc(fam2),
           "vertices": [], "edges": []}
    parse = parse_gamma0 if kind == "gamma0" else parse_gamma1
    with pytest.raises(SchemaError, match="does not match the declared"):
        parse(doc)
    doc["vertices"] = [{"id": "0"}]
    with pytest.raises(SchemaError, match="vertex id must be an integer"):
        parse(doc)


@pytest.mark.parametrize("kind", ["gamma0", "gamma1"])
def test_gamma_documents_are_held_to_the_budget(fam2, kind, monkeypatch):
    """A well-formed document whose build would pass the budget is refused
    as malformed, unbuilt."""
    if kind == "gamma0":
        g0 = build_gamma0(fam2, 3)
        doc, parse, layout = gamma0_doc(g0), parse_gamma0, g0.graph._metric
    else:
        g1 = build_gamma1(fam2, 3)
        doc, parse, layout = gamma1_doc(g1), parse_gamma1, g1._metric
    parse(doc)
    monkeypatch.setattr(type(layout), "budget", layout.n_vertices + layout.n_edges - 1)
    with pytest.raises(SchemaError, match="past the budget"):
        parse(doc)


def test_map_file_round_trip(tmp_path, fam2):
    g0 = build_gamma0(fam2, 3)
    m = section_map(g0, mode="alternating")
    (tmp_path / "g0.json").write_text(canonical_dumps(gamma0_doc(g0)))
    (tmp_path / "g1.json").write_text(
        canonical_dumps(gamma1_doc(m.source))
    )
    doc = map_doc(m, "g1.json", "g0.json")
    assert doc["N"] == 2
    (tmp_path / "map.json").write_text(canonical_dumps(doc))
    back = load_map_file(str(tmp_path / "map.json"))
    assert back.source.same_structure(m.source)
    assert back.target.same_structure(m.target)
    assert back.assignments == m.assignments
    assert back.asserted_constant == 2
    assert verify_quasi_isometry(back, 2).accepted


def test_map_schema_rejections(tmp_path):
    g = random_tree(1, 6)
    (tmp_path / "g.json").write_text(canonical_dumps(graph_doc(g)))
    base = {
        "source": "g.json",
        "target": "g.json",
        "assign": [{"from": {"vertex": v}, "to": {"vertex": v}} for v in range(6)],
    }
    good = tmp_path / "ok.json"
    good.write_text(canonical_dumps(base))
    assert load_map_file(str(good)).asserted_constant is None

    bad = dict(base); del bad["target"]
    p = tmp_path / "b1.json"; p.write_text(canonical_dumps(bad))
    with pytest.raises(SchemaError):
        load_map_file(str(p))

    bad = dict(base); bad["assign"] = base["assign"] + [base["assign"][0]]
    p = tmp_path / "b2.json"; p.write_text(canonical_dumps(bad))
    with pytest.raises(SchemaError):
        load_map_file(str(p))  # duplicate domain point

    bad = dict(base); bad["N"] = "2/1"
    p = tmp_path / "b3.json"; p.write_text(canonical_dumps(bad))
    with pytest.raises(SchemaError):
        load_map_file(str(p))

    p = tmp_path / "b4.json"; p.write_text("{not json")
    with pytest.raises(SchemaError):
        load_map_file(str(p))


def test_map_documents_refuse_unknown_keys(tmp_path):
    """A map document has only the keys source, target, assign and N, and
    an entry only from and to: any other key is a SchemaError."""
    g = path_graph(3)
    (tmp_path / "g.json").write_text(canonical_dumps(graph_doc(g)))
    base = {"source": "g.json", "target": "g.json", "N": 1,
            "assign": [{"from": {"vertex": v}, "to": {"vertex": v}} for v in range(3)]}
    assert len(documents.parse_map(base, str(tmp_path))) == 3
    cases = [
        ({**base, "source_": "g.json"}, "unknown map document keys ['source_']"),
        ({**base, "assign": [{**base["assign"][0], "from_": {"vertex": 0}},
                             *base["assign"][1:]]},
         'an assignment has only "from" and "to", got keys [\'from\', \'from_\', \'to\']'),
        ({**base, "assign": [{"from": {"vertex": 0}}]}, 'each assignment needs "from" and "to"'),
    ]
    for doc, message in cases:
        with pytest.raises(SchemaError) as err:
            documents.parse_map(doc, str(tmp_path))
        assert str(err.value) == message


# offsets whose least scales differ from edge to edge, on lengths that are not whole
MAP_LENGTHS = [Fraction(1), Fraction(1, 2), Fraction(5, 3), Fraction(7, 4)]
MAP_OFFSETS = [Fraction(1, 2), Fraction(1, 3), Fraction(5, 7), Fraction(2, 3), Fraction(6, 7)]


@st.composite
def mixed_maps(draw):
    """(source, target, pairs): two rational graphs of no builder, and
    pairs that mix vertices and interior points on both sides, with no
    domain point twice, in a drawn order."""
    graphs, pools = [], []
    for _ in range(2):
        n = draw(st.integers(1, 6))
        g = LabeledMetricGraph(range(n), [
            (i - 1, draw(st.integers(0, i - 1)), i, draw(st.sampled_from(MAP_LENGTHS)))
            for i in range(1, n)])
        graphs.append(g)
        pools.append([Vertex(v) for v in range(n)]
                     + [Interior(e, t) for e in g._eids for t in MAP_OFFSETS])
    dom = draw(st.lists(st.sampled_from(pools[0]), min_size=1, max_size=12, unique=True))
    pairs = [(p, draw(st.sampled_from(pools[1]))) for p in dom]
    return graphs[0], graphs[1], draw(st.permutations(pairs))


@settings(derandomize=True, max_examples=120, deadline=None, database=None)
@given(mixed_maps())
def test_map_columns_match_point_documents(tmp_path_factory, case):
    """map_doc writes from the rows what a point-by-point writer writes;
    parse_map reads every pair back, the same from exact dicts and from
    other mappings; a duplicate domain point keeps its message."""
    src, tgt, pairs = case
    m = QuasiMap(src, tgt, pairs, asserted_constant=3)
    text = canonical_dumps(map_doc(m, "s.json", "t.json"))
    want = oracles.map_document(pairs, "s.json", "t.json", 3)
    assert text == json.dumps(want, sort_keys=True, indent=2) + "\n"
    where = tmp_path_factory.mktemp("map")
    (where / "s.json").write_text(canonical_dumps(graph_doc(src)))
    (where / "t.json").write_text(canonical_dumps(graph_doc(tgt)))
    doc = json.loads(text)
    back = documents.parse_map(doc, str(where))
    assert back.assignments == m.assignments
    assert sorted(back.assignments, key=str) == sorted(pairs, key=str)
    # entries that are no exact dicts are read entry by entry
    slow = {**doc, "assign": [OrderedDict(item) for item in doc["assign"]]}
    assert documents.parse_map(slow, str(where)).assignments == m.assignments
    p, q = pairs[-1]
    message = f"duplicate domain point {p}"
    with pytest.raises(DomainNotNet) as err:
        QuasiMap(src, tgt, [(p, q), *pairs])
    assert str(err.value) == message
    doc["assign"].append(doc["assign"][0])
    with pytest.raises(SchemaError) as err:
        documents.parse_map(doc, str(where))
    assert str(err.value) == f"bad map document: duplicate domain point {m.assignments[0][0]}"


def test_load_graph_file_dispatch(tmp_path, fam2):
    plain = random_tree(4, 5)
    g0 = build_gamma0(fam2, 2)
    g1 = build_gamma1(fam2, 2)
    (tmp_path / "plain.json").write_text(canonical_dumps(graph_doc(plain)))
    (tmp_path / "g0.json").write_text(canonical_dumps(gamma0_doc(g0)))
    (tmp_path / "g1.json").write_text(canonical_dumps(gamma1_doc(g1)))
    assert load_graph_file(str(tmp_path / "plain.json")).same_structure(plain)
    assert load_graph_file(str(tmp_path / "g0.json")).same_structure(g0.graph)
    assert load_graph_file(str(tmp_path / "g1.json")).same_structure(g1)


def test_report_docs_use_rational_strings(fam2):
    g0 = build_gamma0(fam2, 2)
    rep = slim_triangle_delta(g0.graph)
    doc = delta_report_doc(rep)
    assert doc["delta_upper_observed"] == rational_str(rep.delta_upper_observed)
    assert doc["sampling_slack"].count("/") == 1
    json.dumps(doc)  # every value must already be JSON friendly

    m = section_map(g0, mode="first")
    cdoc = qi_certificate_doc(verify_quasi_isometry(m, 2))
    assert cdoc["accepted"] is True
    assert cdoc["surjectivity_radius"].count("/") == 1
    json.dumps(cdoc)


# -- report documents, pinned whole ------------------------------------------
# Each dict below is a document as first recorded, literal so that a changed
# key, value or shape fails.

H = Fraction(1, 2)


def test_qi_certificate_docs_pinned():
    p5 = path_graph(5)
    pts = [(Vertex(i), Vertex(i)) for i in range(5)]
    pts += [(Interior(i, H), Interior(i, H)) for i in range(3)]
    pts.append((Interior(3, H), Interior(0, Fraction(1, 3))))
    assert qi_certificate_doc(verify_quasi_isometry(QuasiMap(p5, p5, pts), 1)) == {
        "accepted": False, "constant": 1, "mode": "exhaustive", "seed": None,
        "count": None, "pairs_checked": 8, "surjectivity_radius": "1/2",
        "violations": [{
            "kind": "pair", "x": {"vertex": 0}, "y": {"edge": 3, "offset": "1/2"},
            "d_source": "7/2", "d_target": "1/3",
            "lower_bound": "5/2", "upper_bound": "9/2",
        }],
    }
    far = QuasiMap(path_graph(2), path_graph(9),
                   [(Vertex(0), Vertex(0)), (Vertex(1), Interior(0, H))])
    cert = verify_quasi_isometry(far, 2)
    assert qi_certificate_doc(cert) == {
        "accepted": False, "constant": 2, "mode": "exhaustive", "seed": None,
        "count": None, "pairs_checked": 0, "surjectivity_radius": "15/2",
        "violations": [{"kind": "surjectivity", "point": {"vertex": 8},
                        "dist": "15/2", "bound": "2/1"}],
    }
    with pytest.raises(TypeError):
        violation_doc(cert)


def test_delta_report_docs_pinned():
    rep = slim_triangle_delta(random_graph(4, 7, extra=3, rational=True))
    assert delta_report_doc(rep) == {
        "delta_upper_observed": "1/1", "mode": "exhaustive", "seed": None,
        "count": None, "triples_checked": 35, "triples_skipped": 0,
        "sampling_slack": "1/1",
        "witness": {"side": [2, 4], "apex": 0, "point": {"vertex": 6}, "dist": "1/1"},
    }
    assert delta_report_doc(slim_triangle_delta(path_graph(4), "sampled", 3, 4)) == {
        "delta_upper_observed": "0/1", "mode": "sampled", "seed": 3, "count": 4,
        "triples_checked": 4, "triples_skipped": 0, "sampling_slack": "1/2",
        "witness": None,
    }


def test_bottleneck_report_doc_pinned():
    assert bottleneck_report_doc(verify_bottleneck(cycle_graph(24), 3)) == {
        "accepted": False, "delta_param": "3/1", "radius": "2/1",
        "mode": "exhaustive", "seed": None, "count": None, "pairs_checked": 5,
        "witness": {
            "x": {"vertex": 0}, "y": {"vertex": 5},
            "probe": {"edge": 2, "offset": "1/2"}, "distance": "5/1",
            "avoiding_path": [0, *range(23, 4, -1)],
        },
    }


def test_separation_report_docs_pinned(fam2):
    rep = certify_two_hyperbolic_gamma0(build_gamma0(fam2, 6), 1, 10)
    assert separation_report_doc(rep) == {
        "accepted": True, "radius": "2/1", "seed": 1, "count": 10,
        "pairs_checked": 10, "probes_checked": 27, "witness": None,
    }
    # Γ0 accepts, so the witness shape is pinned on a built report
    witness = BottleneckWitness(Vertex(0), Interior(3, Fraction(1, 3)), Vertex(2),
                                Fraction(7, 3), (0, 1))
    rep = SeparationReport(False, Fraction(2), 1, 3, 2, 5, witness)
    assert separation_report_doc(rep) == {
        "accepted": False, "radius": "2/1", "seed": 1, "count": 3,
        "pairs_checked": 2, "probes_checked": 5,
        "witness": {"x": {"vertex": 0}, "y": {"edge": 3, "offset": "1/3"},
                    "probe": {"vertex": 2}, "distance": "7/3",
                    "avoiding_path": [0, 1]},
    }


def test_prune_trace_doc_pinned():
    assert prune_trace_doc(prune_k(path_graph(4), 3)[1]) == {
        "rounds_requested": 3, "rounds_run": 2, "stages": [[0, 3], [1, 2]],
        "empty": True,
    }


def test_choice_certificate_doc_pinned(pipe2):
    g0, g1 = pipe2
    cert = extract_choice(section_map(g0, mode="seeded", seed=3, g1=g1), g0, 4)
    inputs = {"depth": 1000, "constant": 4, "family": "ab"}
    assert choice_certificate_doc(cert, inputs) == {
        "constant": 4, "rounds": 112, "root": 0, "frontier": [224, 1224],
        "arm_assignment": [{"set": "X0", "vertex": 224}, {"set": "X1", "vertex": 1224}],
        "h_values": [{"vertex": 224, "element": "b"}, {"vertex": 1224, "element": "c"}],
        "transversal": ["b", "c"], "verified": True, "inputs": inputs,
    }
    assert "inputs" not in choice_certificate_doc(cert)
