#!/usr/bin/env python3
"""Threshold sweep over the frozen corpus.

Labels the corpus once, trains one model per SSIM threshold, evaluates each
over the corpus, and prints the fidelity/speed trade-off table.  With the
default 200-sample corpus the mean SSIM is non-increasing and the mean
speedup non-decreasing as the threshold drops.

Usage: PYTHONPATH=src python scripts/tau_sweep.py [--corpus-size N] [--seed S]
"""

import argparse
import dataclasses

from freqskip.corpus import default_corpus
from freqskip.generator import TraceConfig
from freqskip.labeling import assign_label, build_dataset, ordered_ladder_ids
from freqskip.pipeline import PipelineConfig, evaluate, train_from_samples

TAUS = (0.88, 0.86, 0.84)


def run(args):
    cfg = TraceConfig(seed=args.seed)
    pcfg = PipelineConfig()
    specs = default_corpus(args.corpus_size, seed=args.seed)
    print(f"labeling {len(specs)} samples ...")
    records = build_dataset(specs, cfg, pcfg, TAUS[-1])
    order = ordered_ladder_ids(cfg, pcfg)
    print(f"{'tau':>6} {'mean_ssim':>10} {'min_ssim':>9} {'mean_ssim_hf':>12} {'speedup':>8}  histogram")
    for tau in TAUS:
        samples = [dataclasses.replace(r, label=assign_label(r.ssims, order, tau)) for r in records]
        model = train_from_samples(samples, tuple(pcfg.ladder_ids()), "logreg")
        result = evaluate(specs, cfg, pcfg, model)
        print(
            f"{tau:6.2f} {result.mean_ssim:10.4f} {result.min_ssim:9.4f} "
            f"{result.mean_ssim_hf:12.4f} {result.mean_speedup:8.3f}  {result.histogram}"
        )
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--corpus-size", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    raise SystemExit(run(parser.parse_args()))
