"""The benchmark's tracer wraps freqskip functions by ``module.function``
name; a rename in the package must fail here, not silently untrace a layer."""

import ast
import importlib
import os

BENCH_TRACER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "bench", "tracer.py")


def traced_names() -> tuple[str, ...]:
    with open(BENCH_TRACER, "r", encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracer.py defines no TRACED tuple")


def test_every_traced_name_resolves():
    names = traced_names()
    assert "metrics.ssim_map" in names
    missing = []
    for qualname in names:
        module, func = qualname.split(".")
        if not callable(getattr(importlib.import_module(f"freqskip.{module}"), func, None)):
            missing.append(qualname)
    assert missing == []
