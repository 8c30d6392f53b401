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
    required_gamma0_depth,
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
    mode, seed, count = args.mode, args.seed, args.count
    if mode == "exhaustive" and len(m.assignments) > EXHAUSTIVE_GUARD and not args.force:
        over = (f"{len(m.assignments)} net points exceed the exhaustive guard "
                f"of {EXHAUSTIVE_GUARD}")
        if seed is None or count is None:
            print(f"error: {over}; pass --force, or --seed and --count for "
                  "sampled mode", file=sys.stderr)
            return 2
        print(f"note: {over}; switching to sampled mode (--force overrides)",
              file=sys.stderr)
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
    if args.adversarial_seed is not None:
        mode, seed = "seeded", args.adversarial_seed
    need = required_gamma0_depth(args.constant)
    if args.depth < need:
        print(
            f"note: constant {args.constant} needs depth >= {need}",
            file=sys.stderr,
        )
    g0 = build_gamma0(family, args.depth)
    m = section_map(g0, mode=mode, seed=seed)
    cert = extract_choice(m, g0, args.constant)
    inputs = {
        "family": file_digest(args.family),
        "section": file_digest(args.section),
        "depth": args.depth,
        "constant": args.constant,
    }
    if args.adversarial_seed is not None:
        inputs["adversarial_seed"] = args.adversarial_seed
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


def _add_mode(sp, modes=("exhaustive", "sampled")):
    sp.add_argument("--mode", choices=modes, default="exhaustive")
    sp.add_argument("--seed", type=int, help="RNG seed (required when sampled)")
    sp.add_argument("--count", type=int, help="sample count (required when sampled)")


@functools.cache  # built on first use, not at import: one parser per process
def _build_parser():
    p = argparse.ArgumentParser(
        prog="coarsegeom",
        description="Exact coarse geometry of doubled-edge graphs, quotient "
        "trees, and quasi-isometries between them.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("gamma0", help="build the doubled-edge graph of a family")
    sp.add_argument("--family", required=True)
    sp.add_argument("--depth", type=int, required=True)
    sp.set_defaults(func=_cmd_gamma0)

    sp = sub.add_parser("gamma1", help="build the quotient tree of a family")
    sp.add_argument("--family", required=True)
    sp.add_argument("--depth", type=int, required=True)
    sp.set_defaults(func=_cmd_gamma1)

    sp = sub.add_parser("collapse", help="the arm-collapsing map as a map document")
    sp.add_argument("--gamma0", required=True)
    sp.add_argument("--gamma1", required=True)
    sp.set_defaults(func=_cmd_collapse)

    sp = sub.add_parser("check-qi", help="verify a map document at a constant")
    sp.add_argument("--map", required=True)
    sp.add_argument("--constant", type=int, required=True)
    _add_mode(sp, ("exhaustive", "vertex-exhaustive", "sampled"))
    sp.add_argument(
        "--force",
        action="store_true",
        help=f"run exhaustively past the {EXHAUSTIVE_GUARD}-point guard",
    )
    sp.set_defaults(func=_cmd_check_qi)

    sp = sub.add_parser("min-qi", help="smallest accepted constant of a map")
    sp.add_argument("--map", required=True)
    sp.add_argument("--cap", type=int, default=None)
    sp.set_defaults(func=_cmd_min_qi)

    sp = sub.add_parser("delta", help="slim-triangle thinness of a graph")
    sp.add_argument("--graph", required=True)
    _add_mode(sp)
    sp.set_defaults(func=_cmd_delta)

    sp = sub.add_parser("bottleneck", help="midpoint bottleneck verification")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--delta", required=True, help='thinness parameter, "p/q"')
    sp.add_argument("--radius", help='ball radius, "p/q" (default delta - 1)')
    _add_mode(sp)
    sp.set_defaults(func=_cmd_bottleneck)

    sp = sub.add_parser(
        "separation", help="sampled 2-separation certificate for a gamma0 graph"
    )
    sp.add_argument("--gamma0", required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--count", type=int, required=True)
    sp.set_defaults(func=_cmd_separation)

    sp = sub.add_parser("profile", help="level profiles of all geodesics x..y")
    sp.add_argument("--gamma0", required=True)
    sp.add_argument("--x", required=True, help='point JSON, e.g. {"vertex":3}')
    sp.add_argument("--y", required=True)
    sp.add_argument("--cap", type=int, default=1000)
    sp.set_defaults(func=_cmd_profile)

    sp = sub.add_parser("witness", help="a far vertex pinned behind y")
    sp.add_argument("--gamma0", required=True)
    sp.add_argument("--x", required=True)
    sp.add_argument("--y", required=True)
    sp.add_argument("--bound", required=True, help='distance bound, "p/q"')
    sp.set_defaults(func=_cmd_witness)

    sp = sub.add_parser("prune", help="simultaneous leaf removal, k rounds")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--rounds", type=int, required=True)
    sp.set_defaults(func=_cmd_prune)

    sp = sub.add_parser("median", help="median of three points in a tree")
    sp.add_argument("--tree", required=True)
    sp.add_argument("--z", required=True, help="root point JSON")
    sp.add_argument("--a", required=True)
    sp.add_argument("--b", required=True)
    sp.set_defaults(func=_cmd_median)

    sp = sub.add_parser(
        "quasi-inverse", help="coarse inverse of a map out of a tree"
    )
    sp.add_argument("--map", required=True)
    sp.add_argument("--constant", type=int, required=True)
    sp.add_argument("--root", help="root point JSON (default smallest vertex)")
    sp.set_defaults(func=_cmd_quasi_inverse)

    sp = sub.add_parser(
        "extract-choice", help="run the transversal extraction pipeline"
    )
    sp.add_argument("--family", required=True)
    sp.add_argument("--depth", type=int, required=True)
    sp.add_argument("--constant", type=int, required=True)
    sp.add_argument("--section", required=True, help="section spec JSON file")
    sp.add_argument("--adversarial-seed", type=int, default=None)
    sp.set_defaults(func=_cmd_extract_choice)

    sp = sub.add_parser(
        "verify-transversal", help="check one-element-per-set coverage"
    )
    sp.add_argument("--family", required=True)
    sp.add_argument("--elements", required=True, help="JSON file of element names")
    sp.set_defaults(func=_cmd_verify_transversal)

    for sp in sub.choices.values():
        sp.add_argument("--out", help="write the JSON document here instead of stdout")
    return p


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        # the command is looked up by name when it runs, not taken from the
        # parser built earlier, so one replaced on this module is the one run
        return globals()[args.func.__name__](args)
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
