"""The demo scripts run to the end, each in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import qgraph

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("script", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(script):
    src = os.path.dirname(os.path.dirname(qgraph.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, str(DEMOS / script)], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    if script == "02_build_graph.py":
        # The singular half-length goes through the build's failure path.
        assert "SingularDError: strength of pair (1, 2) undefined at d=0.1" in proc.stdout
