"""The narrative demos run to completion.

Each demo is a script; it runs in a subprocess against the source tree.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# result lines a demo must print, beyond exiting 0
RESULT_LINES = {
    "demo_quasi_inverse.py": (
        "verified: True",
        "actual minimal constant: 2",
        "= 1 <= 3n^2 = 12",
        "moves 7 of 27 values",
    ),
}


@pytest.mark.parametrize("demo", [
    "demo_choice_extraction.py",
    "demo_gamma_graphs.py",
    "demo_hyperbolicity.py",
    "demo_quasi_inverse.py",
])
def test_demo_exits_0(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    for line in RESULT_LINES.get(demo, ()):
        assert line in out.stdout
