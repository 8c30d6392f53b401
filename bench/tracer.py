"""Outside-in tracing of coarsegeom's layers.

The tracer wraps public functions from outside the package: each wrapped
name is replaced in every ``coarsegeom`` module that holds it, and the
distance methods are replaced on ``LabeledMetricGraph``.  A call records a
span (name, start, end, parent span); a layer's self time is its spans'
durations minus the time their child spans cover.  Some spans also count
work read from the returned value.  Only the traced benchmark run installs
it; end-to-end metrics are always taken without it.
"""

import functools
import sys
import time
from array import array

# span name -> (defining module, wrapped names); the module is the layer
SPANS = {
    "metric_graph.vertex_row": (
        "metric_graph",
        ("LabeledMetricGraph.vertex_row", "LabeledMetricGraph.vertex_distance"),
    ),
    "metric_graph.distance": ("metric_graph", ("distance",)),
    "metric_graph.multi_source": ("metric_graph", ("multi_source_vertex_distances",)),
    "metric_graph.ball_complement": ("metric_graph", ("ball_complement_components",)),
    "metric_graph.geodesic": (
        "metric_graph", ("canonical_geodesic", "enumerate_geodesics"),
    ),
    "gamma_spaces.build": ("gamma_spaces", ("build_gamma0", "build_gamma1")),
    "gamma_spaces.collapse": ("gamma_spaces", ("build_collapse_map",)),
    "coarse_maps.verify_qi": ("coarse_maps", ("verify_quasi_isometry",)),
    "coarse_maps.surjectivity": ("coarse_maps", ("surjectivity_radius",)),
    "coarse_maps.min_qi": ("coarse_maps", ("minimal_qi_constant",)),
    "coarse_analysis.delta": ("coarse_analysis", ("slim_triangle_delta",)),
    "coarse_analysis.bottleneck": ("coarse_analysis", ("verify_bottleneck",)),
    "coarse_analysis.separation": ("coarse_analysis", ("certify_two_hyperbolic_gamma0",)),
    "tree_ops.prune": ("tree_ops", ("prune_k",)),
    "tree_ops.quasi_inverse": ("tree_ops", ("quasi_inverse",)),
    "choice_pipeline.section": ("choice_pipeline", ("section_map",)),
    "choice_pipeline.extract": ("choice_pipeline", ("extract_choice",)),
    "documents.parse": (
        "documents",
        ("load_json", "parse_family", "parse_graph", "parse_gamma0",
         "parse_gamma1", "parse_map"),
    ),
    "documents.dump": (
        "documents",
        ("canonical_dumps", "family_doc", "graph_doc", "gamma0_doc", "gamma1_doc",
         "map_doc", "qi_certificate_doc", "delta_report_doc", "bottleneck_report_doc",
         "separation_report_doc", "prune_trace_doc", "choice_certificate_doc"),
    ),
    "cli.main": ("cli", ("main",)),
}

# wrapped name -> (counter, amount of work read from the return value)
COUNTERS = {
    "verify_quasi_isometry": (("coarse_maps.verify_qi.pairs", lambda r: r.pairs_checked),),
    "slim_triangle_delta": (("coarse_analysis.delta.triples", lambda r: r.triples_checked),),
    "verify_bottleneck": (("coarse_analysis.bottleneck.pairs", lambda r: r.pairs_checked),),
    "certify_two_hyperbolic_gamma0": (
        ("coarse_analysis.separation.probes", lambda r: r.probes_checked),
        ("coarse_analysis.separation.pairs", lambda r: r.pairs_checked),
    ),
    "prune_k": (("tree_ops.prune.rounds", lambda r: r[1].rounds_run),),
    "canonical_dumps": (("documents.bytes_out", lambda r: len(r.encode("utf-8"))),),
}


PACKAGE = "coarsegeom"


class Tracer:
    """Spans of the operation being traced, and totals over every traced
    operation of the run."""

    def __init__(self):
        self.names = list(SPANS)
        self.ops = []  # seconds of each traced operation
        self.rest_s = 0.0  # operation time outside every span
        self.calls = dict.fromkeys(self.names, 0)
        self.self_s = dict.fromkeys(self.names, 0.0)
        self.incl_s = dict.fromkeys(self.names, 0.0)
        self.counts = {}
        self._patches = []  # (owner, attribute, original, wrapper)
        self._installed = []
        self.reset()
        for span_id, (module, attrs) in enumerate(SPANS.values()):
            mod = sys.modules[f"{PACKAGE}.{module}"]
            for attr in attrs:
                owner_name, _, fn_name = attr.rpartition(".")
                owner = getattr(mod, owner_name) if owner_name else mod
                original = getattr(owner, fn_name)
                wrapper = self._wrap(span_id, original, COUNTERS.get(fn_name, ()))
                self._patches.append((owner, fn_name, original, wrapper))

    def reset(self):
        """Drop the spans recorded so far."""
        self.span_name = array("i")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def _wrap(self, span_id, fn, counters):
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.start)
            self.span_name.append(span_id)
            self.parent.append(self._stack[-1])
            self.end.append(0.0)
            self._stack.append(i)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                self._stack.pop()
            for counter, amount in counters:
                self.counts[counter] = self.counts.get(counter, 0) + amount(result)
            return result

        return traced

    def install(self):
        """Patch every place a wrapped function is reachable from: its
        owner, and each coarsegeom module namespace holding the same object."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        self._installed = []
        for owner, attr, original, wrapper in self._patches:
            targets = [owner]
            if not isinstance(owner, type):
                targets += [m for m in modules
                            if m is not owner and m.__dict__.get(attr) is original]
            for target in targets:
                setattr(target, attr, wrapper)
                self._installed.append((target, attr, original))

    def uninstall(self):
        for target, attr, original in self._installed:
            setattr(target, attr, original)
        self._installed = []

    def fold(self, seconds):
        """Add the recorded spans of an operation that took ``seconds`` to
        the totals: a span's self time is its duration minus that of its
        children, and the operation time outside the outermost spans is
        the rest."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        top = 0.0
        for i in range(n):
            name = self.names[self.span_name[i]]
            dur = self.end[i] - self.start[i]
            self.calls[name] += 1
            self.self_s[name] += dur - child[i]
            self.incl_s[name] += dur
            if self.parent[i] < 0:
                top += dur
        self.ops.append(seconds)
        self.rest_s += seconds - top
