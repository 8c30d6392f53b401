"""Record the reference digests of every pool entry into bench/refs.json.

    python3 bench/record_refs.py [WORKLOAD ...]

The references pin the outputs of the code they were recorded with; record
them again only when an output is meant to change, and say so where the
change is described.  Without arguments every workload is recorded.
"""

import json
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS  # noqa: E402


def record(wl_cls, workdir):
    wl = wl_cls(str(workdir))
    out = {}
    for index in range(wl.pool):
        ctx = wl.prepare(index)
        out[str(index)] = wl.digests(ctx, wl.op(ctx))
        print(f"{wl.name}[{index}]", file=sys.stderr)
    return out


def main(names):
    path = BENCH / "refs.json"
    refs = json.loads(path.read_text()) if path.exists() else {}
    workdir = ROOT / ".bench_work" / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name in names or sorted(WORKLOADS):
            refs[name] = record(WORKLOADS[name], workdir)
            path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main(sys.argv[1:])
