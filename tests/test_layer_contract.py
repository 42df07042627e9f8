"""The benchmark's traced run must still find every layer it wraps.

``perfbench/tracer.py`` wraps methods of rjpascal by name.  A rename in
the package would leave a wrapper that never fires, so the per-layer
counts would silently read zero.  This runs the tracer on a tiny verify
and checks that the oracle, specialization and division layers fire at
x = 1 and stay bypassed over Z[x], and that the ring arithmetic and
matrix product layers fire in both modes.  It also runs one small
identity sweep, which must reach ``binom`` through the sweep engine and
no ring, matrix or spectral layer.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ("pascal.int_matmul", "pascal.det", "pascal.inverse", "ring.specialize",
          "ring.divide_exact")
BOTH_MODES = ("ring.elem_mul", "ring.poly_mul", "pascal.ring_matmul")


def traced_counts(tmp_path, *argv):
    out = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(out), "t", "--",
         *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return {name: stat[0] for name, stat in json.loads(out.read_text())["stats"].items()}


@pytest.mark.parametrize("x", ["1", "symbolic"])
def test_tracer_layers(tmp_path, x):
    counts = traced_counts(tmp_path, "verify", "--n", "3", "--check", "all", "--x", x)
    for name in LAYERS:
        assert (counts[name] > 0) == (x == "1"), (name, counts[name])
    for name in BOTH_MODES:
        assert counts[name] > 0, name


def test_tracer_sweep_layers(tmp_path):
    counts = traced_counts(tmp_path, "identities", "--only", "star",
                           "--N=-2..3", "--J=-2..3", "--K=-2..3")
    assert counts["binomial.binom"] > 0
    assert counts["binomial.sweep"] > 0
    bypassed = [name for name in counts if name.startswith(("ring.", "pascal.", "spectral."))]
    assert bypassed
    assert [name for name in bypassed if counts[name]] == []
