#!/usr/bin/env python3
"""Per-call wall time of freqskip's layers on one frozen 256x256 target.

Times each layer named by ROADMAP aim 1 (``synth_target``, ``resize_area``,
``resize_bilinear``, ``step_images``, ``sobel_magnitude``, ``dft2``,
``hf_diff``/``hf_ratio``, ``ssim_map``, ``hf_mean`` (the SSIM-HF mask and
mean over one SSIM map), ``decision_features``, ``predict``,
``label_sample``, ``run_accelerated``), and ``gaussian_filter`` at SSIM's
radius 5 (fresh buffers, and written into the thread's workspace and a kept
output, as the SSIM does) and at ``synth_target``'s widest noise octave
(radius 29), as a
``perf_counter`` mean over ``--calls`` calls, after one warm-up call, with
one BLAS thread.  The target is sample 0 of the frozen corpus
(``default_corpus(200, seed)``).

Two columns: ``cold`` empties the process-wide memos (the step
perturbations, the area-resize period blocks and their transposes, the
Gaussian filter bands, the bilinear resize tables and the spectral-ratio
masks) before every call, outside the timed region; ``warm`` keeps them,
as a long-lived process does.  ``predict`` has one row per model kind
(logreg, tree, forest, two_stage), each fitted on the labels of the first
16 corpus samples; ``run_accelerated`` uses the logreg one.  Times depend
on the host; a shared host makes them indicative only.

Usage: PYTHONPATH=src python scripts/layer_times.py [--calls N] [--seed S]
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import platform
import time

import numpy as np

from freqskip import frequency, generator, image
from freqskip.corpus import default_corpus
from freqskip.decision import TRAINERS, predict
from freqskip.features import decision_features
from freqskip.frequency import dft2, hf_diff, hf_ratio, sobel_magnitude
from freqskip.generator import TraceConfig, step_images, synth_target
from freqskip.image import gaussian_filter, resize_area, resize_bilinear
from freqskip.labeling import build_dataset, label_sample
from freqskip.metrics import hf_mean, ssim_map
from freqskip.pipeline import PipelineConfig, run_accelerated, train_from_samples
from freqskip.strategies import Strategy

TAU = 0.84


def clear_memos() -> None:
    generator._perturbation.cache_clear()
    image._area_block.cache_clear()
    image._gaussian_band.cache_clear()
    image._bilinear_tables.cache_clear()
    frequency._hf_mask.cache_clear()


def per_call_ms(fn, calls: int, cold: bool) -> float:
    fn()
    total = 0.0
    for _ in range(calls):
        if cold:
            clear_memos()
        t0 = time.perf_counter()
        fn()
        total += time.perf_counter() - t0
    return 1e3 * total / calls


def layers(seed: int) -> list[tuple[str, object]]:
    cfg = TraceConfig(seed=seed)
    pcfg = PipelineConfig()
    specs = default_corpus(200, seed=seed)
    spec = specs[0]
    target = synth_target(spec, cfg.full_size)
    samples = build_dataset(specs[:16], cfg, pcfg, TAU)
    models = {kind: train_from_samples(samples, tuple(pcfg.ladder_ids()), kind) for kind in TRAINERS}
    i8 = step_images(target, cfg, 8).combined
    i9 = step_images(target, cfg, 9).combined
    i10 = step_images(target, cfg, 10).combined
    a9 = resize_area(i9, pcfg.analysis_size, pcfg.analysis_size)
    up9 = resize_bilinear(i9, cfg.full_size, cfg.full_size)
    smap = ssim_map(target, up9)
    feats = decision_features(target, cfg, pcfg.decision_step, pcfg.analysis_size, pcfg.hf)
    n = pcfg.analysis_size
    kept = np.empty_like(target)
    return [
        ("synth_target 256", lambda: synth_target(spec, cfg.full_size)),
        ("gaussian_filter 256 r=5", lambda: gaussian_filter(target, 1.5, 5)),
        ("gaussian_filter 256 r=5 kept", lambda: gaussian_filter(target, 1.5, 5, out=kept, work=image.thread_workspace())),
        ("gaussian_filter 256 r=29", lambda: gaussian_filter(target, 9.6, 29)),
        ("resize_area 256->224", lambda: resize_area(target, 224, 224)),
        ("resize_area 256->192", lambda: resize_area(target, 192, 192)),
        ("resize_area 256->160", lambda: resize_area(target, 160, 160)),
        ("resize_area 256->128", lambda: resize_area(target, 128, 128)),
        ("resize_area 160->128", lambda: resize_area(i9, n, n)),
        ("resize_bilinear 160->256", lambda: resize_bilinear(i9, cfg.full_size, cfg.full_size)),
        ("resize_bilinear 192->256", lambda: resize_bilinear(i10, cfg.full_size, cfg.full_size)),
        ("step_images k=8", lambda: step_images(target, cfg, 8)),
        ("step_images k=9", lambda: step_images(target, cfg, 9)),
        ("step_images k=12", lambda: step_images(target, cfg, 12)),
        (f"sobel_magnitude {n}", lambda: sobel_magnitude(a9)),
        (f"dft2 {n}", lambda: dft2(a9)),
        (f"hf_diff {n}", lambda: hf_diff(i9, i8, n)),
        (f"hf_ratio {n}", lambda: hf_ratio(a9, pcfg.hf)),
        ("ssim_map 256", lambda: ssim_map(target, up9)),
        ("hf_mean 256", lambda: hf_mean(smap, target)),
        ("decision_features", lambda: decision_features(target, cfg, pcfg.decision_step, n, pcfg.hf)),
        *((f"predict {kind}", lambda m=m: predict(m, feats)) for kind, m in models.items()),
        ("label_sample", lambda: label_sample(target, cfg, pcfg, TAU)),
        ("run_accelerated skip_3", lambda: run_accelerated(target, cfg, pcfg, None, Strategy.skip(3))),
        ("run_accelerated uncond_3", lambda: run_accelerated(target, cfg, pcfg, None, Strategy.uncond(3))),
        ("run_accelerated model", lambda: run_accelerated(target, cfg, pcfg, models["logreg"])),
    ]


def run(args) -> int:
    print(f"python {platform.python_version()}, numpy {np.__version__}, {os.cpu_count()} cpus, 1 BLAS thread, {args.calls} calls")
    print("| layer | cold ms/call | warm ms/call |")
    print("| --- | ---: | ---: |")
    for name, fn in layers(args.seed):
        cold = per_call_ms(fn, args.calls, cold=True)
        warm = per_call_ms(fn, args.calls, cold=False)
        print(f"| `{name}` | {cold:.3f} | {warm:.3f} |", flush=True)
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--calls", type=int, default=40)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if args.calls < 1:
        parser.error("--calls must be >= 1")
    raise SystemExit(run(args))
