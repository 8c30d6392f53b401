"""coarsegeom benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src/`` and from nowhere else.  Each workload has a fixed pool of inputs
(bench/inputs.py, bench/workloads.py).  A run makes whole passes over the
pool, in an order drawn from the seed, for about ``--seconds``: a pass
starts only if at least half of it fits, and at least one is made, so
every run times the same inputs.  Each pool entry is one unit: its inputs
are prepared, then a cold operation and warm repeats run on them.  Every
operation's output is compared with the digests recorded in
bench/refs.json; a mismatch or an exception is a failed operation.

The host's speed changes by half or more within seconds, so every
untraced operation is timed together with the speed it met
(bench/gauge.py): a timer samples the speed during the operation with a
fixed probe computation, and the operation's work is reported in units of
that probe.

With ``--trace 0`` the last line of stdout reports the end-to-end metrics
of BENCHMARK.json:
  op_probes       mean over cold operations of the operation's work in
                  probes; the costs of pool entries differ up to tenfold,
                  and a median would jump between entries where a mean
                  over the same pool does not
  warm_op_probes  the same over warm operations
  setup_s         median seconds from the start of this script to the
                  first timed operation (imports and input generation),
                  over this process and SETUP_SAMPLES fresh processes
                  that only set up
  peak_rss_mb     peak resident memory of this process
With ``--trace 1`` every unit runs untraced and then, on freshly prepared
inputs, traced (bench/tracer.py), and the line reports the per-layer
metrics of BENCHMARK.json as means per traced operation.  A line before
the result records the Python version, nproc, the seed, sample counts, the
failed share and the raw seconds.  The exit code is 1 when an operation
failed, 2 on a usage or set-up error.
"""

import time

_STARTED = time.perf_counter()

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

import inputs
from gauge import Gauge
from tracer import COUNTERS, SPANS, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SAMPLES = 8  # fresh processes that only set up, besides this one


def _fail(msg):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def _import_package():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import coarsegeom
    except ImportError as exc:
        _fail(f"cannot import coarsegeom from {src}: {exc}")
    if Path(coarsegeom.__file__).resolve().parent != src / "coarsegeom":
        _fail(f"coarsegeom was imported from {coarsegeom.__file__}, not {src}")


def _parse_args():
    p = argparse.ArgumentParser(description="coarsegeom benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up seconds and exit")
    return p.parse_args()


def _run_op(wl, ctx, index, refs, gauge=None, tracer=None):
    """Run one timed operation, gauged or traced, and check its output
    with the tracer removed; returns (seconds, probes, ok), where probes is
    the operation's work in probes when a gauge is given."""
    probes = None
    try:
        if tracer is not None:
            tracer.reset()
            tracer.install()
            try:
                t0 = time.perf_counter()
                out = wl.op(ctx)
                seconds = time.perf_counter() - t0
            finally:
                tracer.uninstall()
        else:
            out, seconds, probes = gauge.run(lambda: wl.op(ctx))
        got = wl.digests(ctx, out)
    except Exception:
        traceback.print_exc()
        return None, None, False
    want = refs.get(str(index))
    if got != want:
        print(f"error: {wl.name}[{index}] output digests {got} "
              f"differ from the reference {want}", file=sys.stderr)
        return seconds, probes, False
    return seconds, probes, True


def _setup_sample(args):
    """Set-up seconds of a fresh process that stops before the first
    operation."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=60, check=True)
    return float(done.stdout.split()[-1])


def _layer_metrics(tracer, untraced_op_s):
    """Per traced operation means of the spans and counters, plus the
    tracing overhead and the time outside every span."""
    n = len(tracer.ops)
    if not n or not untraced_op_s:
        raise RuntimeError("no traced or no untraced operation completed")
    counts = tracer.counts
    m = {}
    for name in SPANS:
        m[f"{name}.calls"] = tracer.calls[name] / n
        m[f"{name}.s"] = tracer.self_s[name] / n
    for counters in COUNTERS.values():
        for counter, _amount in counters:
            m[counter] = counts.get(counter, 0) / n
    qi_s = tracer.incl_s["coarse_maps.verify_qi"]
    pairs = counts.get("coarse_analysis.separation.pairs", 0)
    m["coarse_maps.verify_qi.pairs_per_s"] = (
        counts.get("coarse_maps.verify_qi.pairs", 0) / qi_s if qi_s else 0.0
    )
    m["coarse_analysis.separation.probes_per_pair"] = (
        counts.get("coarse_analysis.separation.probes", 0) / pairs if pairs else 0.0
    )
    op = statistics.fmean(tracer.ops)
    m["trace.op_s"] = op
    m["trace.rest.s"] = tracer.rest_s / n
    m["trace.overhead_s"] = op - statistics.fmean(untraced_op_s)
    # self times and the remainder must add up to the traced operation time
    if abs(sum(tracer.self_s.values()) / n + m["trace.rest.s"] - op) > 1e-6 * max(op, 1.0):
        raise RuntimeError("span self times do not add up to the operation time")
    if m["trace.rest.s"] < 0:
        raise RuntimeError("spans cover more than the operation time")
    return m


def _select(metrics, specs, what):
    out = {}
    for spec in specs:
        if spec["name"] not in metrics:
            raise RuntimeError(f"{what} metric {spec['name']} was not measured")
        out[spec["name"]] = {"value": metrics[spec["name"]], "unit": spec["unit"]}
    return out


def main():
    args = _parse_args()
    _import_package()
    from workloads import WORKLOADS

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(BENCH / "refs.json", encoding="utf-8") as fh:
        refs = json.load(fh)
    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workdir = ROOT / ".bench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](str(workdir))
        return _measure(args, spec, refs[wl.name], wl)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it


def _measure(args, spec, refs, wl):
    units = inputs.schedule(args.seed, wl.pool)
    index = next(units)
    ctx = wl.prepare(index)
    setup_s = time.perf_counter() - _STARTED
    if args.setup_only:
        print(setup_s)
        return 0

    gauge = Gauge()
    tracer = Tracer() if args.trace else None
    seconds_of = ([], [])  # seconds of the cold and of the warm untraced operations
    probes_of = ([], [])  # their work in probes
    attempted = failed = 0

    def unit(ctx, index, traced):
        nonlocal attempted, failed
        for k in range(1 + wl.warm_repeats):
            if traced:
                seconds, _, ok = _run_op(wl, ctx, index, refs, tracer=tracer)
                if seconds is not None:
                    tracer.fold(seconds)
            else:
                seconds, probes, ok = _run_op(wl, ctx, index, refs, gauge=gauge)
                if seconds is not None:
                    seconds_of[k > 0].append(seconds)
                    probes_of[k > 0].append(probes)
            attempted += 1
            failed += not ok

    # the fresh set-up processes run between units spread over the first pass
    setup_after = [i * wl.pool // SETUP_SAMPLES for i in range(SETUP_SAMPLES)]
    setups = [setup_s]
    started = time.perf_counter()
    passes = 0
    while True:
        pass_started = time.perf_counter()
        for n in range(wl.pool):
            if ctx is None:
                index = next(units)
                ctx = wl.prepare(index)
            unit(ctx, index, traced=False)
            ctx = None  # release the unit's graphs before the next one is built
            if tracer is not None:
                unit(wl.prepare(index), index, traced=True)
            elif passes == 0:
                setups.extend(_setup_sample(args) for i in setup_after if i == n)
        passes += 1
        # another pass starts only if at least half of it fits the budget
        now = time.perf_counter()
        if now - started + (now - pass_started) / 2 >= args.seconds:
            break

    info = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "passes": passes, "fail_frac": failed / attempted,
    }
    correct = failed == 0
    metrics = {}
    try:
        cold, warm = seconds_of
        info.update(op_s=statistics.median(cold), warm_op_s=statistics.median(warm))
        if tracer is None:
            info["samples"] = {"op_probes": len(cold), "warm_op_probes": len(warm),
                               "setup_s": len(setups)}
            measured = {
                "op_probes": statistics.fmean(probes_of[0]),
                "warm_op_probes": statistics.fmean(probes_of[1]),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            metrics = _select(measured, spec["end_to_end"], "end-to-end")
        else:
            info["samples"] = {"traced_ops": len(tracer.ops),
                               "untraced_ops": len(cold) + len(warm)}
            metrics = _select(_layer_metrics(tracer, cold + warm), spec["per_layer"],
                              "per-layer")
    except (RuntimeError, statistics.StatisticsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        correct = False
    print(json.dumps(info))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
