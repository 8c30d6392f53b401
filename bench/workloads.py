"""The benchmark's workloads.

Each workload runs in units.  A unit prepares the input objects of one
pool entry, runs a cold operation on them, then ``warm_repeats`` warm
operations that repeat it on the same objects, and with them on the same
distance caches.  A run visits the whole pool, because the cost of one
entry differs from that of another by up to half (rational) or tenfold
(hyperbolic); each pool is sized for a pass of about twenty seconds on a
2-core host.
Operations call only public names of coarsegeom: the package exports,
``coarsegeom.documents`` and ``coarsegeom.cli.main``.  Every name is looked
up on its module at call time, so the tracer's patches are seen.

``digests`` turns an operation's output into SHA-256 digests of canonical
documents; run.py compares them with the digests recorded in refs.json.
"""

import contextlib
import hashlib
import io
import os

import coarsegeom as cg
from coarsegeom import cli, documents

import inputs


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _doc_sha(doc):
    return _sha(documents.canonical_dumps(doc))


def _family():
    return cg.SetFamily.of_lists([["a", "b"], ["c"], ["d", "e", "f"]])


def _two_point_family():
    return cg.SetFamily.of_lists([["a"], ["b"]])


class Workload:
    name = ""
    pool = 0  # number of distinct inputs, each with recorded digests
    warm_repeats = 1

    def __init__(self, workdir):
        self.workdir = workdir

    def prepare(self, index):
        """Untimed: the input objects of one pool entry."""
        raise NotImplementedError

    def op(self, ctx):
        """The timed operation."""
        raise NotImplementedError

    def digests(self, ctx, out):
        """Untimed: digests of the operation's output."""
        raise NotImplementedError


class Extract(Workload):
    """gamma0 and gamma1 of the family {a}, {b} at depth 944, the
    least that constant 4 needs, then the section and the extraction at
    constant 4 for a seeded section: cold on fresh graphs, then warm
    repeats that find every distance row cached.  One cold extraction for
    the 3-set family of the other workloads at depth 1000 takes 12 s, too
    long to time many in a run."""

    name = "extract"
    pool = 5
    depth = 944
    constant = 4

    def __init__(self, workdir):
        super().__init__(workdir)
        self.family = _two_point_family()

    def prepare(self, index):
        return {"seed": inputs.instance_rng(self.name, index).randrange(2**31)}

    def op(self, ctx):
        if "g0" not in ctx:
            ctx["g0"] = cg.build_gamma0(self.family, self.depth)
            ctx["g1"] = cg.build_gamma1(self.family, self.depth)
        m = cg.section_map(ctx["g0"], mode="seeded", seed=ctx["seed"], g1=ctx["g1"])
        return m, cg.extract_choice(m, ctx["g0"], self.constant)

    def digests(self, ctx, out):
        m, cert = out
        return {
            "section": _doc_sha(documents.map_doc(m, "gamma1.json", "gamma0.json")),
            "choice": _doc_sha(documents.choice_certificate_doc(cert)),
        }


class Rational(Workload):
    """quasi_inverse and round_trip_max of a scale-n map on a random
    rational tree, and exhaustive slim_triangle_delta on a small random
    rational graph with extra edges."""

    name = "rational"
    pool = 12
    tree_vertices = 40
    graph_vertices = 14
    graph_extra = 3

    def prepare(self, index):
        rng = inputs.instance_rng(self.name, index)
        n = rng.choice((2, 3))
        tree = cg.LabeledMetricGraph(*inputs.random_tree_spec(rng, self.tree_vertices))
        big = cg.scale_metric(tree, n)
        f = cg.QuasiMap(
            tree, big, [(cg.Vertex(v), cg.Vertex(v)) for v in tree.vertex_ids()],
            asserted_constant=n,
        )
        graph = cg.LabeledMetricGraph(
            *inputs.random_graph_spec(rng, self.graph_vertices, self.graph_extra)
        )
        return {"n": n, "f": f, "graph": graph}

    def op(self, ctx):
        res = cg.quasi_inverse(ctx["f"], ctx["n"])
        return res, cg.round_trip_max(ctx["f"], res.map), cg.slim_triangle_delta(ctx["graph"])

    def digests(self, ctx, out):
        res, trip, rep = out
        return {
            "input": _doc_sha({
                "n": ctx["n"],
                "tree": documents.graph_doc(ctx["f"].source),
                "graph": documents.graph_doc(ctx["graph"]),
            }),
            "quasi_inverse": _doc_sha({
                "map": documents.map_doc(res.map, "target", "source", n=res.minimal_constant),
                "minimal_constant": res.minimal_constant,
                "bound": res.bound,
                "certificate": documents.qi_certificate_doc(res.certificate),
            }),
            "round_trip": _sha(documents.rational_str(trip)),
            "delta": _doc_sha(documents.delta_report_doc(rep)),
        }


class Hyperbolic(Workload):
    """Sampled separation and bottleneck certificates and geodesic level
    profiles on gamma0 of the 3-set family at depth 10."""

    name = "hyperbolic"
    pool = 13
    depth = 10
    separation_count = 5
    bottleneck_count = 8
    geodesic_pairs = 6
    geodesic_cap = 64

    def __init__(self, workdir):
        super().__init__(workdir)
        self.g0 = cg.build_gamma0(_family(), self.depth)

    def prepare(self, index):
        rng = inputs.instance_rng(self.name, index)
        return {
            "separation_seed": rng.randrange(2**31),
            "bottleneck_seed": rng.randrange(2**31),
            "pairs": inputs.vertex_pairs(
                rng, list(self.g0.graph.vertex_ids()), self.geodesic_pairs
            ),
        }

    def op(self, ctx):
        g0, g = self.g0, self.g0.graph
        sep = cg.certify_two_hyperbolic_gamma0(
            g0, ctx["separation_seed"], self.separation_count
        )
        neck = cg.verify_bottleneck(
            g, 3, radius=2, mode="sampled",
            seed=ctx["bottleneck_seed"], count=self.bottleneck_count,
        )
        profiles = []
        for u, v in ctx["pairs"]:
            try:
                geos = cg.enumerate_geodesics(
                    g, cg.Vertex(u), cg.Vertex(v), cap=self.geodesic_cap
                )
                capped = False
            except cg.CapExceeded as exc:
                geos, capped = exc.geodesics, True
            profiles.append(
                (u, v, capped, [(geo, cg.level_profile(g0, geo)) for geo in geos])
            )
        return sep, neck, profiles

    def digests(self, ctx, out):
        sep, neck, profiles = out
        return {
            "separation": _doc_sha(documents.separation_report_doc(sep)),
            "bottleneck": _doc_sha(documents.bottleneck_report_doc(neck)),
            "profiles": _doc_sha([
                {
                    "x": u,
                    "y": v,
                    "capped": capped,
                    "geodesics": [
                        {
                            "vertices": list(geo.vertices),
                            "edges": list(geo.edges),
                            "length": documents.rational_str(geo.length),
                            "profile": prof.value,
                        }
                        for geo, prof in geos
                    ],
                }
                for u, v, capped, geos in profiles
            ]),
        }


@contextlib.contextmanager
def _cwd(path):
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


class Cli(Workload):
    """The file chain gamma0 -> gamma1 -> collapse -> check-qi -> prune
    through coarsegeom.cli.main, for the 3-set family at depth 100."""

    name = "cli"
    pool = 9
    depth = "100"
    qi_count = "500"
    outputs = ("gamma0.json", "gamma1.json", "collapse.json", "qi.json", "prune.json")

    def __init__(self, workdir):
        super().__init__(workdir)
        with open(os.path.join(workdir, "family.json"), "w", encoding="utf-8") as fh:
            fh.write(documents.canonical_dumps(documents.family_doc(_family())))

    def prepare(self, index):
        rng = inputs.instance_rng(self.name, index)
        seed, rounds = str(rng.randrange(2**31)), str(rng.randrange(1, 100))
        g0, g1, col, qi, pruned = self.outputs
        return {"argvs": [
            ["gamma0", "--family", "family.json", "--depth", self.depth, "--out", g0],
            ["gamma1", "--family", "family.json", "--depth", self.depth, "--out", g1],
            ["collapse", "--gamma0", g0, "--gamma1", g1, "--out", col],
            # past the exhaustive guard, so check-qi samples with the seed
            ["check-qi", "--map", col, "--constant", "2", "--seed", seed,
             "--count", self.qi_count, "--out", qi],
            ["prune", "--graph", g1, "--rounds", rounds, "--out", pruned],
        ]}

    def op(self, ctx):
        with _cwd(self.workdir), contextlib.redirect_stderr(io.StringIO()):
            return [cli.main(argv) for argv in ctx["argvs"]]

    def digests(self, ctx, out):
        got = {"exit_codes": _sha(repr(out))}
        for name in self.outputs:
            with open(os.path.join(self.workdir, name), "rb") as fh:
                got[name] = hashlib.sha256(fh.read()).hexdigest()
        return got


WORKLOADS = {w.name: w for w in (Extract, Rational, Hyperbolic, Cli)}
