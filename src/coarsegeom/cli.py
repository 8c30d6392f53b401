"""Command line surface.

Every command reads JSON documents, computes exactly, and emits canonical
JSON (sorted keys, reduced "p/q" rationals, trailing newline) to --out or
stdout, so reruns with identical inputs are byte-identical.

Exit codes: 0 success or accepted; 1 verification rejected (the emitted
document carries the witness); 2 malformed input or configuration;
3 precondition failure (depth, constants, tree-ness, ...); 4 internal
error (a defect in coarsegeom, reported in one line).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .choice_pipeline import (
    extract_choice,
    section_map,
    verify_transversal,
)
from .coarse_analysis import (
    certify_two_hyperbolic_gamma0,
    slim_triangle_delta,
    verify_bottleneck,
)
from .coarse_maps import minimal_qi_constant, verify_quasi_isometry
from .documents import (
    bottleneck_report_doc,
    canonical_dumps,
    choice_certificate_doc,
    delta_report_doc,
    file_digest,
    gamma0_doc,
    gamma1_doc,
    graph_doc,
    load_graph_file,
    load_json,
    load_map_file,
    map_doc,
    parse_family,
    parse_gamma0,
    parse_gamma1,
    parse_map,
    parse_point,
    parse_rational,
    point_doc,
    prune_trace_doc,
    qi_certificate_doc,
    rational_str,
    separation_report_doc,
)
from .errors import (
    CoarseGeomError,
    InternalError,
    InvalidPoint,
    NotATree,
    SchemaError,
)
from .gamma_spaces import (
    build_collapse_map,
    build_gamma0,
    build_gamma1,
    find_far_witness,
    level_of,
    level_profile,
)
from .metric_graph import Vertex, enumerate_geodesics
from .tree_ops import assert_tree, prune_k, quasi_inverse, tree_median

EXHAUSTIVE_GUARD = 4000


def _emit(args, doc):
    text = canonical_dumps(doc)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _inline_point(text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        # quote a prefix: the argument may be of any length
        raise SchemaError(f"bad point {text[:40]!r}{'...' * (len(text) > 40)}: {exc}") from exc
    except RecursionError:
        raise SchemaError("bad point: JSON nested too deeply") from None
    return parse_point(doc)


def _cmd_gamma0(args):
    family = parse_family(load_json(args.family))
    _emit(args, gamma0_doc(build_gamma0(family, args.depth)))
    return 0


def _cmd_gamma1(args):
    family = parse_family(load_json(args.family))
    _emit(args, gamma1_doc(build_gamma1(family, args.depth)))
    return 0


def _cmd_collapse(args):
    g0 = parse_gamma0(load_json(args.gamma0))
    g1, _family, _depth = parse_gamma1(load_json(args.gamma1))
    f = build_collapse_map(g0, g1)
    _emit(args, map_doc(f, args.gamma0, args.gamma1))
    return 0


def _cmd_check_qi(args):
    m = load_map_file(args.map)
    mode, seed, count = args.mode or "exhaustive", args.seed, args.count
    # the guard stands in for a --mode not given; an explicit one is obeyed
    if args.mode is None and len(m) > EXHAUSTIVE_GUARD:
        over = (f"{len(m)} net points exceed the exhaustive guard "
                f"of {EXHAUSTIVE_GUARD}")
        if seed is None or count is None:
            print(f"error: {over}; pass --mode exhaustive, or --seed and --count "
                  "for sampled mode", file=sys.stderr)
            return 2
        print(f"note: {over}; switching to sampled mode (--mode exhaustive "
              "overrides)", file=sys.stderr)
        mode = "sampled"
    cert = verify_quasi_isometry(m, args.constant, mode=mode, seed=seed, count=count)
    _emit(args, qi_certificate_doc(cert))
    return 0 if cert.accepted else 1


def _cmd_min_qi(args):
    m = load_map_file(args.map)
    n = minimal_qi_constant(m, cap=args.cap)
    _emit(args, {"minimal_constant": n})
    return 0


def _cmd_delta(args):
    g = load_graph_file(args.graph)
    rep = slim_triangle_delta(g, mode=args.mode, seed=args.seed, count=args.count)
    _emit(args, delta_report_doc(rep))
    return 0


def _cmd_bottleneck(args):
    g = load_graph_file(args.graph)
    radius = None if args.radius is None else parse_rational(args.radius)
    rep = verify_bottleneck(
        g,
        parse_rational(args.delta),
        radius=radius,
        mode=args.mode,
        seed=args.seed,
        count=args.count,
    )
    _emit(args, bottleneck_report_doc(rep))
    return 0 if rep.accepted else 1


def _cmd_separation(args):
    g0 = parse_gamma0(load_json(args.gamma0))
    rep = certify_two_hyperbolic_gamma0(g0, args.seed, args.count)
    _emit(args, separation_report_doc(rep))
    return 0 if rep.accepted else 1


def _cmd_profile(args):
    g0 = parse_gamma0(load_json(args.gamma0))
    x = _inline_point(args.x)
    y = _inline_point(args.y)
    geos = enumerate_geodesics(g0.graph, x, y, cap=args.cap)
    profiles = [
        {
            "vertices": list(geo.vertices),
            "edges": list(geo.edges),
            "length": rational_str(geo.length),
            "profile": level_profile(g0, geo).value,
        }
        for geo in geos
    ]
    _emit(args, {"x": point_doc(x), "y": point_doc(y), "profiles": profiles})
    return 0


def _cmd_witness(args):
    g0 = parse_gamma0(load_json(args.gamma0))
    x = _inline_point(args.x)
    y = _inline_point(args.y)
    bound = parse_rational(args.bound)
    z = find_far_witness(g0, x, y, bound)
    _emit(
        args,
        {
            "bound": rational_str(bound),
            "witness": {"vertex": z},
            "level": level_of(g0, Vertex(z)),
        },
    )
    return 0


def _cmd_prune(args):
    g = load_graph_file(args.graph)
    out, trace = prune_k(g, args.rounds)
    try:
        assert_tree(out)
        is_tree = True
    except NotATree:
        is_tree = False
    doc = graph_doc(out, tree=is_tree)
    doc["prune_trace"] = prune_trace_doc(trace)
    _emit(args, doc)
    return 0


def _cmd_median(args):
    g = load_graph_file(args.tree)
    med = tree_median(
        g, _inline_point(args.z), _inline_point(args.a), _inline_point(args.b)
    )
    _emit(args, {"median": point_doc(med)})
    return 0


def _cmd_quasi_inverse(args):
    mdoc = load_json(args.map)
    m = parse_map(mdoc, os.path.dirname(os.path.abspath(args.map)))
    root = None if args.root is None else _inline_point(args.root)
    res = quasi_inverse(m, args.constant, z=root)
    _emit(
        args,
        {
            "map": map_doc(
                res.map,
                source_path=mdoc.get("target"),
                target_path=mdoc.get("source"),
                n=res.minimal_constant,
            ),
            "minimal_constant": res.minimal_constant,
            "bound": res.bound,
            "certificate": qi_certificate_doc(res.certificate),
        },
    )
    return 0 if res.certificate.accepted else 1


def _cmd_extract_choice(args):
    family = parse_family(load_json(args.family))
    sec = load_json(args.section)
    if not isinstance(sec, dict) or "mode" not in sec:
        raise SchemaError('a section spec is {"mode":...} with optional "seed"')
    mode, seed = sec["mode"], sec.get("seed")
    if not isinstance(mode, str):
        raise SchemaError(f'a section "mode" must be a string, got {mode!r}')
    if seed is not None and (not isinstance(seed, int) or isinstance(seed, bool)):
        raise SchemaError(f'a section "seed" must be an integer, got {seed!r}')
    g0 = build_gamma0(family, args.depth)
    m = section_map(g0, mode=mode, seed=seed)
    cert = extract_choice(m, g0, args.constant)
    inputs = {
        "family": file_digest(args.family),
        "section": file_digest(args.section),
        "depth": args.depth,
        "constant": args.constant,
    }
    _emit(args, choice_certificate_doc(cert, inputs))
    return 0


def _cmd_verify_transversal(args):
    family = parse_family(load_json(args.family))
    doc = load_json(args.elements)
    if isinstance(doc, list):
        names = doc
    elif isinstance(doc, dict) and isinstance(doc.get("elements"), list):
        names = doc["elements"]
    elif isinstance(doc, dict) and isinstance(doc.get("transversal"), list):
        names = doc["transversal"]
    else:
        raise SchemaError(
            'element lists are ["a",...] or {"elements":[...]} or '
            '{"transversal":[...]}'
        )
    for x in names:
        if not isinstance(x, str):
            raise SchemaError(f"element names must be strings, got {x!r}")
    ok = verify_transversal(names, family)
    _emit(args, {"elements": list(names), "valid": ok})
    return 0 if ok else 1


@functools.cache  # built on first use, not at import: one parser per process
def _build_parser():
    p = argparse.ArgumentParser(
        prog="coarsegeom",
        description="Exact coarse geometry of doubled-edge graphs, quotient "
        "trees, and quasi-isometries between them.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    req, num = {"required": True}, {"type": int, "required": True}
    family = ("--family", req), ("--depth", num)

    def mode(*modes, default="exhaustive"):
        return (("--mode", {"choices": modes, "default": default}),
                ("--seed", {"type": int, "help": "RNG seed (required when sampled)"}),
                ("--count", {"type": int, "help": "sample count (required when sampled)"}))

    # each command's handler, help and options
    for name, handler, text, options in (
        ("gamma0", _cmd_gamma0, "build the doubled-edge graph of a family", family),
        ("gamma1", _cmd_gamma1, "build the quotient tree of a family", family),
        ("collapse", _cmd_collapse, "the arm-collapsing map as a map document",
         (("--gamma0", req), ("--gamma1", req))),
        ("check-qi", _cmd_check_qi, "verify a map document at a constant",
         (("--map", req), ("--constant", num),
          # no --mode: exhaustive, unless the map passes EXHAUSTIVE_GUARD
          *mode("exhaustive", "vertex-exhaustive", "sampled", default=None))),
        ("min-qi", _cmd_min_qi, "smallest accepted constant of a map",
         (("--map", req), ("--cap", {"type": int, "default": None}))),
        ("delta", _cmd_delta, "slim-triangle thinness of a graph",
         (("--graph", req), *mode("exhaustive", "sampled"))),
        ("bottleneck", _cmd_bottleneck, "midpoint bottleneck verification",
         (("--graph", req), ("--delta", {**req, "help": 'thinness parameter, "p/q"'}),
          ("--radius", {"help": 'ball radius, "p/q" (default delta - 1)'}),
          *mode("exhaustive", "sampled"))),
        ("separation", _cmd_separation, "sampled 2-separation certificate for a gamma0 graph",
         (("--gamma0", req), ("--seed", num), ("--count", num))),
        ("profile", _cmd_profile, "level profiles of all geodesics x..y",
         (("--gamma0", req), ("--x", {**req, "help": 'point JSON, e.g. {"vertex":3}'}),
          ("--y", req), ("--cap", {"type": int, "default": 1000}))),
        ("witness", _cmd_witness, "a far vertex pinned behind y",
         (("--gamma0", req), ("--x", req), ("--y", req),
          ("--bound", {**req, "help": 'distance bound, "p/q"'}))),
        ("prune", _cmd_prune, "simultaneous leaf removal, k rounds",
         (("--graph", req), ("--rounds", num))),
        ("median", _cmd_median, "median of three points in a tree",
         (("--tree", req), ("--z", {**req, "help": "root point JSON"}),
          ("--a", req), ("--b", req))),
        ("quasi-inverse", _cmd_quasi_inverse, "coarse inverse of a map out of a tree",
         (("--map", req), ("--constant", num),
          ("--root", {"help": "root point JSON (default smallest vertex)"}))),
        ("extract-choice", _cmd_extract_choice, "run the transversal extraction pipeline",
         (*family, ("--constant", num), ("--section", {**req, "help": "section spec JSON file"}))),
        ("verify-transversal", _cmd_verify_transversal, "check one-element-per-set coverage",
         (("--family", req), ("--elements", {**req, "help": "JSON file of element names"}))),
    ):
        sp = sub.add_parser(name, help=text)
        sp.set_defaults(func=handler)
        for flag, kwargs in (*options, ("--out", {"help": "write the JSON document here "
                                                           "instead of stdout"})):
            sp.add_argument(flag, **kwargs)
    return p


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SchemaError, InvalidPoint, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalError as exc:
        print(f"error: internal: {exc}", file=sys.stderr)
        return 4
    except CoarseGeomError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        # exit 1 means "verification rejected", so a defect must not
        # leave through Python's default exit status
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
