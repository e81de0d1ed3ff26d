"""The benchmark's tracer wraps freqskip functions by ``module.function``
name, and its workloads call freqskip by name; a rename or a changed
signature in the package must fail here, not silently untrace a layer or
fail only inside a bench run."""

import ast
import importlib
import inspect
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
    bench script, and, for an instance built at module level, its class
    wrapped in :class:`_Instance`."""
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
                symbols.update({t.id: _Instance(cls) for t in node.targets if isinstance(t, ast.Name)})
    return tree, symbols


class _Missing(str):
    """A name that did not resolve."""


class _Namespace(dict):
    """The freqskip symbols of another bench script."""


class _Instance:
    """An instance of a freqskip class, known only by its class."""

    def __init__(self, cls: type) -> None:
        self.cls = cls


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
    instance = isinstance(base, _Instance)
    owner = base.cls if instance else base
    if hasattr(owner, node.attr):
        value = getattr(owner, node.attr)
        # a method read from an instance is bound: its signature drops self
        return value.__get__(base) if instance and inspect.isfunction(value) else value
    if isinstance(owner, type) and node.attr in getattr(owner, "__dataclass_fields__", {}):
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


def _is_freqskip_callable(value) -> bool:
    return callable(value) and (getattr(value, "__module__", None) or "").split(".")[0] == "freqskip"


def test_every_bench_call_binds():
    """Each bench call into freqskip fits the callee's signature, so a
    dropped or renamed parameter the bench passes fails here, not only
    inside a bench run.  Calls that unpack ``*`` or ``**`` are not checked."""
    unbound, checked = [], set()
    for filename in ("workloads.py", "record_reference.py"):
        tree, symbols = _bench_symbols(filename)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if any(isinstance(a, ast.Starred) for a in node.args) or any(k.arg is None for k in node.keywords):
                continue
            callee = _resolve(node.func, symbols)
            if not _is_freqskip_callable(callee):
                continue
            try:
                inspect.signature(callee).bind(*node.args, **{k.arg: k.value for k in node.keywords})
            except TypeError as exc:
                unbound.append(f"{filename}:{node.lineno}: {ast.unparse(node)} ({exc})")
            checked.add(ast.unparse(node.func))
    assert unbound == []
    assert {
        "pipeline.run_accelerated",
        "labeling.build_dataset",
        "cli._read_corpus",
        "PIPE_CFG.cost_model",
        "strategies.Strategy.none",
    } <= checked
