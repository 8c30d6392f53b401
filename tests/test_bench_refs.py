"""Pool entry 0 of every benchmark workload, against the digests recorded
in bench/refs.json, so a changed certificate, report or CLI byte fails the
test suite and not only a benchmark run.  Nothing under bench/ is written:
the cli workload works in a temporary directory."""

import importlib
import json
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("workloads")


@pytest.mark.parametrize("name", ["extract", "rational", "hyperbolic", "cli"])
def test_pool_entry_zero_matches_recorded_digests(workloads, name, tmp_path):
    refs = json.loads((BENCH / "refs.json").read_text(encoding="utf-8"))
    wl = workloads.WORKLOADS[name](str(tmp_path))
    ctx = wl.prepare(0)
    assert wl.digests(ctx, wl.op(ctx)) == refs[name]["0"]
