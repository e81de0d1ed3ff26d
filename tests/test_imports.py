"""The package imports no module of its own, so each module must import on
its own, whatever was imported before it."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODULES = (
    "cli",
    "corpus",
    "decision",
    "features",
    "frequency",
    "generator",
    "image",
    "labeling",
    "metrics",
    "pipeline",
    "strategies",
)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_in_a_fresh_interpreter(module):
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run(
        [sys.executable, "-c", f"import freqskip.{module}"], cwd=ROOT, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
