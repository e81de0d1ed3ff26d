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


BENCH_DIR = os.path.dirname(BENCH_TRACER)


def _bench_symbols(filename: str) -> tuple[ast.Module, dict]:
    """A bench script's syntax tree and its module-level names that hold
    freqskip objects: imported modules and members, a namespace per imported
    bench script, and, for an instance built at module level, its class."""
    with open(os.path.join(BENCH_DIR, filename), "r", encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    symbols: dict = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "freqskip":
            for alias in node.names:
                symbols[alias.asname or alias.name] = importlib.import_module(f"freqskip.{alias.name}")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("freqskip."):
            module = importlib.import_module(node.module)
            for alias in node.names:
                missing = _Missing(f"{node.module}.{alias.name}")
                symbols[alias.asname or alias.name] = getattr(module, alias.name, missing)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if os.path.exists(os.path.join(BENCH_DIR, f"{alias.name}.py")):
                    symbols[alias.asname or alias.name] = _Namespace(_bench_symbols(f"{alias.name}.py")[1])
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            cls = _resolve(node.value.func, symbols)
            if isinstance(cls, type):
                symbols.update({t.id: cls for t in node.targets if isinstance(t, ast.Name)})
    return tree, symbols


class _Missing(str):
    """A name that did not resolve."""


class _Namespace(dict):
    """The freqskip symbols of another bench script."""


_UNKNOWN = object()  # a value whose attributes the checker cannot know


def _resolve(node: ast.expr, symbols: dict):
    """The object a Name/Attribute chain reads, _UNKNOWN where it leaves
    freqskip, or a _Missing naming the first attribute that does not exist."""
    if isinstance(node, ast.Name):
        return symbols.get(node.id, _UNKNOWN)
    if not isinstance(node, ast.Attribute):
        return _UNKNOWN
    base = _resolve(node.value, symbols)
    if base is _UNKNOWN or isinstance(base, _Missing):
        return base
    if isinstance(base, _Namespace):
        return base.get(node.attr, _UNKNOWN)
    if hasattr(base, node.attr):
        return getattr(base, node.attr)
    if isinstance(base, type) and node.attr in getattr(base, "__dataclass_fields__", {}):
        return _UNKNOWN  # a dataclass field without a default
    return _Missing(ast.unparse(node))


def test_every_bench_read_resolves():
    missing, checked = [], set()
    for filename in ("workloads.py", "record_reference.py"):
        tree, symbols = _bench_symbols(filename)
        missing += [f"{filename}: {name}" for name in symbols.values() if isinstance(name, _Missing)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                value = _resolve(node, symbols)
                if isinstance(value, _Missing):
                    missing.append(f"{filename}: {value}")
                elif value is not _UNKNOWN:
                    checked.add(ast.unparse(node))
    assert missing == []
    assert {"strategies.Strategy.none", "strategies.apply_strategy", "PIPE_CFG.cost_model"} <= checked
