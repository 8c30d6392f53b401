"""JSON documents and canonical serialization for every artifact.

Schemas:
  graph   {"vertices":[{"id":int,"label":str?},...],
           "edges":[{"id":int,"u":int,"v":int,"len":"p/q","label":int?},...],
           "basepoint":int?, "tree":true?}
  point   {"vertex":int} or {"edge":int,"offset":"p/q"}
  family  {"sets":[{"name":str,"elements":[str,...]},...]}
  gamma   graph keys plus {"kind":"gamma0"|"gamma1","depth":int,"family":...}
  map     {"source":path,"target":path,"N":int?,
           "assign":[{"from":point,"to":point},...]}, no other keys
  reports {field:value,...} by dataclass field name: rationals "p/q", points
          as above, tuples as arrays, nested reports alike; plus "accepted",
          "rounds_run", a violation's "kind", the choice pairs as objects

Rationals always travel as reduced "p/q" strings, and every emitted file is
canonical JSON (sorted keys, two-space indent, trailing newline), so a rerun
with identical inputs is byte-identical.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import re
from fractions import Fraction
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii as _escape
from operator import eq, itemgetter

from .coarse_maps import PairViolation, QuasiMap, SurjectivityViolation
from .errors import CoarseGeomError, NotATree, SchemaError
from .gamma_spaces import (
    GammaZeroGraph,
    NamedSet,
    SetFamily,
    _ArmLayout,
    _layout_of,
    build_gamma0,
    build_gamma1,
)
from .metric_graph import (
    GraphPoint,
    Interior,
    LabeledMetricGraph,
    Vertex,
    _points_of,
)
from .tree_ops import assert_tree


def _fail(msg):
    raise SchemaError(msg)


def _expect_int(value, what):
    if type(value) is not int and (not isinstance(value, int) or isinstance(value, bool)):
        _fail(f"{what} must be an integer, got {value!r}")
    return value


def _expect_str(value, what):
    if not isinstance(value, str):
        _fail(f"{what} must be a string, got {value!r}")
    return value


def _expect_list(value, what):
    if not isinstance(value, list):
        _fail(f"{what} must be an array")
    return value


def _expect_obj(value, what):
    if type(value) is not dict and not isinstance(value, dict):
        _fail(f"{what} must be an object")
    return value


# -- rationals -------------------------------------------------------------


def rational_str(x) -> str:
    """Reduced "p/q" form; integers keep an explicit /1 denominator."""
    x = x if isinstance(x, Fraction) else Fraction(x)
    return f"{x.numerator}/{x.denominator}"


_PLAIN_PQ = re.compile(r"(-?[0-9]+)/([0-9]+)").fullmatch  # as rational_str writes


def parse_rational(value) -> Fraction:
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        # Fraction reads "1e10000000" as a 33-million-bit integer
        if "e" in value.lower():
            _fail(f"bad rational {value!r}: exponent notation is not accepted")
        try:
            if pq := _PLAIN_PQ(value):
                return Fraction(int(pq[1]), int(pq[2]))
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"bad rational {value!r}: {exc}") from exc
    _fail(f'rationals must be "p/q" strings or integers, got {value!r}')


def _rational_reader():
    """parse_rational for one document: each distinct string is read once,
    and a bad one raises where it first occurs."""
    memo = {}

    def read(value):
        if type(value) is str:
            if (x := memo.get(value)) is None:
                x = memo[value] = parse_rational(value)
            return x
        return parse_rational(value)

    return read


# -- points ----------------------------------------------------------------


def point_doc(p: GraphPoint) -> dict:
    if isinstance(p, Vertex):
        return {"vertex": p.id}
    return {"edge": p.edge, "offset": rational_str(p.offset)}


def parse_point(doc) -> GraphPoint:
    return _points_of([_parse_point(doc, parse_rational)])[0]


def _parse_point(doc, rational):
    """A point document as the gate's row (kind, id, num, den)."""
    _expect_obj(doc, "point")
    if len(doc) == 1 and "vertex" in doc:
        return 0, _expect_int(doc["vertex"], "vertex id"), 0, 1
    if len(doc) == 2 and "edge" in doc and "offset" in doc:
        i, t = _expect_int(doc["edge"], "edge id"), rational(doc["offset"])
        return 1, i, t.numerator, t.denominator
    _fail('a point is {"vertex":id} or {"edge":id,"offset":"p/q"}, '
          f"got keys {sorted(doc)}")


# -- graphs ----------------------------------------------------------------


def _len_column(g):
    """Each edge's "len" string, in id order: one rational_str per
    distinct integer length."""
    text = {ln: rational_str(x) for ln, x in g._fractions().items()}
    return list(map(text.__getitem__, g._elen))


def graph_doc(g: LabeledMetricGraph, tree: bool = False) -> dict:
    labels = g.vertex_labels
    verts = [{"id": vid} if labels[vid] is None else {"id": vid, "label": labels[vid]}
             for vid in g.vertex_ids()]
    edges = [{"id": eid, "u": u, "v": v, "len": ln} if lab is None
             else {"id": eid, "u": u, "v": v, "len": ln, "label": lab}
             for eid, u, v, ln, lab in zip(g._eids, g._eu, g._ev, _len_column(g), g._elab)]
    doc = {"vertices": verts, "edges": edges}
    if g.basepoint is not None:
        doc["basepoint"] = g.basepoint
    if tree:
        doc["tree"] = True
    return doc


def parse_graph(doc) -> LabeledMetricGraph:
    _expect_obj(doc, "graph document")
    if "vertices" not in doc or "edges" not in doc:
        _fail('a graph document needs "vertices" and "edges"')
    vertices = []
    for item in _expect_list(doc["vertices"], '"vertices"'):
        _expect_obj(item, "vertex entry")
        vid = _expect_int(item.get("id"), "vertex id")
        lab = item.get("label")
        if lab is not None:
            _expect_str(lab, "vertex label")
        vertices.append((vid, lab))
    edges, rational = [], _rational_reader()
    for item in _expect_list(doc["edges"], '"edges"'):
        _expect_obj(item, "edge entry")
        eid = _expect_int(item.get("id"), "edge id")
        u = _expect_int(item.get("u"), f'edge {eid} "u"')
        v = _expect_int(item.get("v"), f'edge {eid} "v"')
        if "len" not in item:
            _fail(f'edge {eid} has no "len"')
        ln = rational(item["len"])
        lab = item.get("label")
        if lab is not None:
            _expect_int(lab, f"edge {eid} label")
        edges.append((eid, u, v, ln, lab))
    base = doc.get("basepoint")
    if base is not None:
        _expect_int(base, "basepoint")
    try:
        g = LabeledMetricGraph(vertices, edges, basepoint=base)
    except CoarseGeomError as exc:
        raise SchemaError(f"bad graph document: {exc}") from exc
    if doc.get("tree"):
        try:
            assert_tree(g)
        except NotATree as exc:
            raise SchemaError(f'graph marked "tree" is not one: {exc}') from exc
    return g


# -- families and gamma graphs ----------------------------------------------


def family_doc(family: SetFamily) -> dict:
    return {
        "sets": [
            {"name": s.name, "elements": list(s.elements)} for s in family.sets
        ]
    }


def parse_family(doc) -> SetFamily:
    _expect_obj(doc, "family document")
    if "sets" not in doc:
        _fail('a family document needs "sets"')
    sets = []
    for item in _expect_list(doc["sets"], '"sets"'):
        _expect_obj(item, "set entry")
        name = _expect_str(item.get("name"), "set name")
        elems = [
            _expect_str(e, f"element of {name!r}")
            for e in _expect_list(item.get("elements"), f'{name!r} "elements"')
        ]
        sets.append((name, elems))
    try:
        return SetFamily(tuple(NamedSet(n, tuple(es)) for n, es in sets))
    except CoarseGeomError as exc:
        raise SchemaError(f"bad family document: {exc}") from exc


def gamma0_doc(g0: GammaZeroGraph) -> dict:
    return {**graph_doc(g0.graph), "kind": "gamma0", "depth": g0.depth,
            "family": family_doc(g0.family)}


def gamma1_doc(g1: LabeledMetricGraph) -> dict:
    """The document of a tree build_gamma1 made: it knows its family and depth."""
    if (layout := _layout_of(g1, "gamma1")) is None:
        raise ValueError("only a tree build_gamma1 made knows its family and depth")
    _, family, depth = layout.key
    return {**graph_doc(g1, tree=True), "kind": "gamma1", "depth": depth,
            "family": family_doc(family)}


def _is_graph_doc_of(doc, g, tree):
    """Whether doc holds graph_doc(g, tree)'s graph keys as json writes
    them, for a builder graph g, whose vertices all have labels and whose
    edges all have or all lack them.  Each record key's column is compared
    whole and its leaves' exact type checked once, since == alone equates
    1, 1.0 and True; any other key is the caller's."""
    edges = {"id": g._eids, "u": g._eu, "v": g._ev, "len": _len_column(g), "label": g._elab}
    if g._elab[0] is None:
        del edges["label"]
    if not (type(doc.get("basepoint")) is int and doc["basepoint"] == g.basepoint
            and (doc.get("tree") is True if tree else "tree" not in doc)):
        return False
    for rows, columns in ((doc["vertices"], {"id": g._ids, "label": g.vertex_labels.values()}),
                          (doc["edges"], edges)):
        if set(map(type, rows)) != {dict} or not all(
                map(eq, repeat(columns.keys()), map(dict.keys, rows))):
            return False
        for key, want in columns.items():
            col, want = list(map(itemgetter(key), rows)), list(want)
            if col != want or set(map(type, col)) != {type(want[0])}:
                return False
    return True


def _parse_gamma(doc, kind):
    """(builder graph, family, depth) of a gamma document, its lists' lengths
    checked before the build: the builder's own graph keys, checked column
    by column against it, stand as they are; any other spelling is parsed."""
    _expect_obj(doc, f"{kind} document")
    if doc.get("kind") != kind:
        _fail(f'expected "kind":"{kind}"')
    family = parse_family(doc.get("family"))
    depth = _expect_int(doc.get("depth"), "depth")
    if depth < 1:
        _fail("depth must be at least 1")
    layout = _ArmLayout(kind, family, depth)
    # lists of the wrong length never match: refuse them unbuilt, so a
    # declared depth costs nothing the document does not hold
    if not all(isinstance(doc.get(key), list) and len(doc[key]) == n for key, n in
               (("vertices", layout.n_vertices), ("edges", layout.n_edges))):
        parse_graph(doc)  # a malformed graph keeps its own error
        _fail("embedded graph does not match the declared family and depth")
    try:
        built = build_gamma0(family, depth) if layout.doubled else build_gamma1(family, depth)
    except ValueError as exc:  # past the layout's budget
        raise SchemaError(f"bad {kind} document: {exc}") from None
    g = built.graph if layout.doubled else built
    if not _is_graph_doc_of(doc, g, not layout.doubled) and not parse_graph(doc).same_structure(g):
        _fail("embedded graph does not match the declared family and depth")
    return built, family, depth


def parse_gamma0(doc) -> GammaZeroGraph:
    return _parse_gamma(doc, "gamma0")[0]


def parse_gamma1(doc):
    """Returns (graph, family, depth)."""
    return _parse_gamma(doc, "gamma1")


# -- maps --------------------------------------------------------------------


def _point_docs(rows):
    """point_doc of each point of the gate's rows."""
    return [{"edge": i, "offset": f"{num}/{den}"} if kind else {"vertex": i}
            for kind, i, num, den in rows]


def map_doc(m: QuasiMap, source_path: str, target_path: str, n=None) -> dict:
    if n is None:
        n = m.asserted_constant
    doc = {
        "source": source_path,
        "target": target_path,
        "assign": [{"from": p, "to": q}
                   for p, q in zip(_point_docs(m._src[0]), _point_docs(m._tgt[0]))],
    }
    if n is not None:
        doc["N"] = int(n)
    return doc


def parse_map(doc, base_dir: str) -> QuasiMap:
    """Relative source/target paths resolve against base_dir (the map
    file's own directory).  Keys other than the schema's are refused."""
    _expect_obj(doc, "map document")
    for key in ("source", "target", "assign"):
        if key not in doc:
            _fail(f'a map document needs "{key}"')
    if extra := doc.keys() - {"source", "target", "assign", "N"}:
        _fail(f"unknown map document keys {sorted(extra)}")

    def resolve(path):
        _expect_str(path, "graph path")
        return path if os.path.isabs(path) else os.path.join(base_dir, path)

    source = load_graph_file(resolve(doc["source"]))
    target = load_graph_file(resolve(doc["target"]))
    n = doc.get("N")
    if n is not None:
        n = _expect_int(n, '"N"')
    sides, rational = ([], []), _rational_reader()
    for item in _expect_list(doc["assign"], '"assign"'):
        _expect_obj(item, "assignment entry")
        if "from" not in item or "to" not in item:
            _fail('each assignment needs "from" and "to"')
        if len(item) > 2:
            _fail(f'an assignment has only "from" and "to", got keys {sorted(item)}')
        sides[0].append(_parse_point(item["from"], rational))
        sides[1].append(_parse_point(item["to"], rational))
    try:
        return QuasiMap._of_rows(source, target, *sides, asserted_constant=n)
    except CoarseGeomError as exc:
        raise SchemaError(f"bad map document: {exc}") from exc


# -- files -------------------------------------------------------------------


def load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: invalid JSON: {exc}") from exc
        except RecursionError:
            raise SchemaError(f"{path}: JSON nested too deeply") from None


def load_graph_file(path) -> LabeledMetricGraph:
    """Any graph-shaped file: plain graphs and both gamma kinds."""
    doc = load_json(path)
    kind = doc.get("kind") if isinstance(doc, dict) else None
    if kind == "gamma0":
        return parse_gamma0(doc).graph
    if kind == "gamma1":
        return parse_gamma1(doc)[0]
    return parse_graph(doc)


def load_map_file(path) -> QuasiMap:
    return parse_map(load_json(path), os.path.dirname(os.path.abspath(path)))


_SCALARS = frozenset((str, int, float, bool, type(None)))


def _records(rows, nl):
    """json's sorted, two-space indented text of a list starting on nl whose
    items are records: non-empty dicts with the same str keys in the same
    order, each value a scalar of an exact type in _SCALARS or, for every
    record alike, a non-empty dict of str keys to such scalars; None for
    any other list.  Each key's column is one call of json's encoder, which
    separates with a raw newline that no string can hold, and each record
    is one %-template of its keys."""
    if set(map(type, rows)) != {dict}:
        return None
    keys = set(map(tuple, rows))
    if len(keys) != 1:
        return None
    (keys,) = keys
    if not keys or set(map(type, keys)) != {str}:
        return None
    inner, key_nl = nl + "  ", nl + "    "
    sep = "," + key_nl + "  "  # the indent of a flat dict's keys
    encode = json.JSONEncoder(sort_keys=True, separators=(sep, ": ")).encode
    slots, cols = [], []
    for key, col in sorted(zip(keys, zip(*map(dict.values, rows)))):
        types = set(map(type, col))
        if types <= _SCALARS:
            slot = "%s"
            cols.append(encode(col)[1:-1].split(sep))
        elif (types == {dict} and all(col)
              and set(map(type, chain.from_iterable(col))) == {str}
              and set(map(type, chain.from_iterable(map(dict.values, col)))) <= _SCALARS):
            slot = "{" + sep[1:] + "%s" + key_nl + "}"
            # "}," and a raw newline end a flat dict, and nothing else
            cols.append(encode(col)[2:-2].split("}" + sep + "{"))
        else:
            return None
        slots.append(key_nl + _escape(key).replace("%", "%%") + ": " + slot)
    record = ("{" + ",".join(slots) + inner + "}").__mod__
    return "[" + inner + ("," + inner).join(map(record, zip(*cols))) + nl + "]"


def _write_json(o, nl, out, open_ids):
    """Append json's sorted, two-space indented text of o to out: o starts on
    newline-and-indent nl, open_ids holds the containers being written."""
    put = out.append
    if isinstance(o, str):
        put(_escape(o))
    elif not isinstance(o, (list, tuple, dict)):
        put(json.dumps(o))  # json's own scalars, and its TypeError
    elif not o:
        put("{}" if isinstance(o, dict) else "[]")
    elif not isinstance(o, dict) and (text := _records(o, nl)) is not None:
        put(text)  # flat records hold no open container and only json's own types
    elif id(o) in open_ids:
        raise ValueError("Circular reference detected")
    else:
        open_ids.add(id(o))
        inner = nl + "  "
        sep = "," + inner
        start = len(out)  # where the first separator goes: it becomes the bracket
        if isinstance(o, dict):
            for k, v in sorted(o.items()):
                put(sep)
                # json coerces any other key itself, or raises its TypeError
                put(_escape(k) if isinstance(k, str) else json.dumps({k: 0})[1:-4])
                put(": ")
                _write_json(v, inner, out, open_ids)
            out[start] = "{" + inner
            put(nl + "}")
        else:
            for v in o:
                put(sep)
                _write_json(v, inner, out, open_ids)
            out[start] = "[" + inner
            put(nl + "]")
        open_ids.remove(id(o))


def canonical_dumps(obj) -> str:
    """json.dumps(obj, sort_keys=True, indent=2) plus a newline, written by
    one recursive function that escapes with json's C string encoder, and
    writes a list of flat records column by column, one call of json's
    encoder per key: given an indent, json itself writes through
    pure-Python generators."""
    out = []
    _write_json(obj, "\n", out, set())
    out.append("\n")
    return "".join(out)


def file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


# -- reports and certificates -------------------------------------------------


def _value_doc(x):
    if isinstance(x, Fraction):
        return rational_str(x)
    if isinstance(x, (Vertex, Interior)):
        return point_doc(x)
    if isinstance(x, tuple):
        return [_value_doc(item) for item in x]
    if dataclasses.is_dataclass(x):
        return _report_doc(x)
    return x


def _report_doc(obj, **extra) -> dict:
    """A report's fields by name, each serialized by _value_doc, then
    extra's keys added or overridden."""
    doc = {f.name: _value_doc(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    doc.update(extra)
    return doc


def violation_doc(v) -> dict:
    if isinstance(v, PairViolation):
        return _report_doc(v, kind="pair")
    if isinstance(v, SurjectivityViolation):
        return _report_doc(v, kind="surjectivity")
    raise TypeError(f"not a violation: {v!r}")


def qi_certificate_doc(cert) -> dict:
    return _report_doc(cert, accepted=cert.accepted,
                       violations=[violation_doc(v) for v in cert.violations])


def delta_report_doc(rep) -> dict:
    return _report_doc(rep)


def bottleneck_report_doc(rep) -> dict:
    return _report_doc(rep)


def separation_report_doc(rep) -> dict:
    return _report_doc(rep)


def prune_trace_doc(trace) -> dict:
    return _report_doc(trace, rounds_run=trace.rounds_run)


def choice_certificate_doc(cert, inputs=None) -> dict:
    doc = _report_doc(
        cert,
        arm_assignment=[{"set": name, "vertex": vid} for name, vid in cert.arm_assignment],
        h_values=[{"vertex": vid, "element": elem} for vid, elem in cert.h_values],
    )
    if inputs is not None:
        doc["inputs"] = inputs
    return doc
