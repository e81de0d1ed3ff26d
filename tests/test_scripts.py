"""The experiment scripts run from a source checkout as README documents:
``PYTHONPATH=src python scripts/<name>.py``."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize(
    "script, args",
    [
        ("redundancy_study.py", ["--seeds", "2"]),
        ("tau_sweep.py", ["--corpus-size", "16"]),
        ("run_workflow.py", ["{tmp}", "--corpus-size", "16"]),
        ("layer_times.py", ["--calls", "1"]),
    ],
)
def test_script_exits_zero(script, args, tmp_path):
    env = dict(os.environ, PYTHONPATH="src")
    argv = [sys.executable, os.path.join("scripts", script), *(a.format(tmp=tmp_path) for a in args)]
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
