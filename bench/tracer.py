"""Span tracer that times freqskip's layers from outside the package.

``Tracer.install`` replaces each traced function in the namespace of every
loaded ``freqskip`` module that binds it: ``from .image import resize_area``
binds a second name in the importing module, and calls made through that name
must be seen as well.  Every call records a span (name, start, end, parent
span, request); a layer's self time is its spans' duration minus the time
their child spans cover.  Spans stay in memory until the run reports.

Besides spans the tracer counts wasted work per request:

* ``generator.step_images`` calls that rebuild a (target, step) pair already
  built in the same request (reported as distinct/calls);
* ``metrics.ssim_map`` calls that compare an image with an identical one;
* ``strategies.apply_strategy`` calls that recompute a (target, strategy)
  output already produced in the same request;
* ``pipeline.run_accelerated`` calls that regenerate the baseline although
  the chosen strategy is ``none`` (the output already is the baseline).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import defaultdict

import numpy as np

TRACED = (
    "image.resize_area",
    "image.resize_bilinear",
    "image.load_image",
    "generator.synth_target",
    "generator.step_images",
    "frequency.sobel_magnitude",
    "frequency.dft2",
    "frequency.hf_ratio",
    "features.decision_features",
    "decision.predict",
    "strategies.apply_strategy",
    "metrics.ssim_map",
    "metrics.ssim_hf",
    "labeling.label_sample",
    "pipeline.run_accelerated",
    "pipeline.train_from_samples",
    "cli._read_corpus",
    "cli._map_jobs",
)

REQUEST = "request"


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, request]
        self.waste: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._request = 0
        self._seen: set = set()

    # ------------------------------------------------------------------ patching

    def install(self) -> None:
        originals = {}
        for qualname in TRACED:
            module, func = qualname.split(".")
            fn = getattr(importlib.import_module(f"freqskip.{module}"), func)
            originals[id(fn)] = (fn, self._wrap(fn, qualname))
        for modname, module in list(sys.modules.items()):
            if modname != "freqskip" and not modname.startswith("freqskip."):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patches.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def _wrap(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer._request]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            tracer._observe(name, args, kwargs, result)
            return result

        return wrapper

    # ------------------------------------------------------------------ requests

    @contextlib.contextmanager
    def request(self):
        """Root span of one benchmark request; waste keys are per request."""
        self._request += 1
        self._seen = set()
        span = [REQUEST, 0.0, 0.0, -1, self._request]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def _observe(self, name: str, args: tuple, kwargs: dict, result) -> None:
        if name == "generator.step_images":
            key = ("step", id(_arg(args, kwargs, 0, "target")), _arg(args, kwargs, 2, "k"))
            if key not in self._seen:
                self._seen.add(key)
                self.waste["generator.step_images.distinct"] += 1
        elif name == "metrics.ssim_map":
            a, b = _arg(args, kwargs, 0, "a"), _arg(args, kwargs, 1, "b")
            if a is b or np.array_equal(a, b):
                self.waste["metrics.ssim_map.self_comparisons"] += 1
        elif name == "strategies.apply_strategy":
            key = ("apply", id(_arg(args, kwargs, 0, "target")), _arg(args, kwargs, 2, "strategy"))
            if key in self._seen:
                self.waste["strategies.apply_strategy.repeated"] += 1
            self._seen.add(key)
        elif name == "pipeline.run_accelerated":
            if kwargs.get("compute_baseline") and result[1].strategy == "none":
                self.waste["pipeline.run_accelerated.baseline_regenerated"] += 1

    # ------------------------------------------------------------------ results

    def layers(self) -> dict[str, dict[str, float]]:
        """Per span name: calls and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _, _), covered in zip(self.spans, child):
            agg = out.setdefault(name, {"calls": 0, "self_s": 0.0})
            agg["calls"] += 1
            agg["self_s"] += end - start - covered
        return out
