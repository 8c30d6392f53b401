"""The benchmark's tracer wraps coarsegeom functions by name, so a renamed
or removed traced name must fail here and not only in a traced run."""

import importlib.util
from pathlib import Path

import coarsegeom.cli  # noqa: F401  (the tracer wraps cli.main)
from conftest import path_graph
from coarsegeom import Vertex, distance, metric_graph

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    tracer = load_tracer().Tracer()
    originals = [(target, attr, getattr(target, attr))
                 for target, attr, _, _ in tracer._patches]
    tracer.install()
    try:
        assert metric_graph.distance is not distance
        metric_graph.distance(path_graph(3), Vertex(0), Vertex(2))
        tracer.fold(0.0)
    finally:
        tracer.uninstall()
    assert tracer.calls["metric_graph.distance"] == 1
    assert all(getattr(target, attr) is fn for target, attr, fn in originals)
    assert metric_graph.distance is distance
