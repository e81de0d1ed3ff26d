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


def test_workflow_at_two_jobs_matches_one_job(tmp_path):
    env = dict(os.environ, PYTHONPATH="src")
    trees = {}
    for jobs in (1, 2):
        out = tmp_path / f"jobs{jobs}"
        argv = [sys.executable, os.path.join("scripts", "run_workflow.py"), str(out), "--corpus-size", "16"]
        proc = subprocess.run([*argv, "--jobs", str(jobs)], cwd=ROOT, env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        trees[jobs] = {path.relative_to(out): path.read_bytes() for path in out.rglob("*") if path.is_file()}
    assert len(trees[1]) > 16
    assert trees[2] == trees[1]


def test_untested_lines_lists_what_the_tests_never_ran():
    env = dict(os.environ, PYTHONPATH="src")
    script = os.path.join("scripts", "untested_lines.py")
    argv = [sys.executable, script, "-q", "-p", "no:cacheprovider", os.path.join("tests", "test_strategies.py")]
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    listed = [line for line in lines if line.startswith("src/freqskip/")]
    assert lines[-1] == f"{len(listed)} statements never ran"
    # these tests never import the command line, but they import and call
    # the cost model
    assert any(line.startswith("src/freqskip/cli.py:") and "def main(" in line for line in listed)
    strategies = [line for line in listed if line.startswith("src/freqskip/strategies.py:")]
    assert not any("def speedup(" in line or "frac = cm.strategy_cost(" in line for line in strategies)
