#!/usr/bin/env python3
"""End-to-end workflow on the frozen corpus via the CLI.

Materializes the corpus, labels it, trains a model, runs one sample, and
evaluates the whole corpus.  Everything lands under the output directory;
re-running with the same arguments reproduces every file byte for byte.
After each stage it prints the stage's wall time and the peak resident set
size so far of this process (not of its ``--jobs`` pool workers, which live
until it exits), then the total wall time.  ``--jobs N`` is passed to
``corpus``, ``label`` and ``evaluate``, which share one pool of warm
workers; every file is the same at any N.

Usage: PYTHONPATH=src python scripts/run_workflow.py OUT_DIR [--corpus-size N] [--tau T] [--jobs N]
"""

import argparse
import resource
import sys
import time
from pathlib import Path

from freqskip.cli import main as cli


def run(args):
    out = Path(args.out_dir)
    common = ["--corpus-size", str(args.corpus_size), "--tau", str(args.tau), "--seed", str(args.seed)]
    corpus = out / "corpus"
    labels = out / "labels"
    model = out / "model"
    jobs = ["--jobs", str(args.jobs)]
    steps = [
        ["corpus", *common, *jobs, "-o", str(corpus)],
        ["label", *common, *jobs, "--corpus", str(corpus), "-o", str(labels)],
        [
            "train",
            *common,
            "--features",
            str(labels / "features.csv"),
            "--labels",
            str(labels / "labels.csv"),
            "-o",
            str(model),
        ],
        [
            "run",
            *common,
            "--model",
            str(model / "model.json"),
            "--target",
            str(corpus / "s0000.f32"),
            "-o",
            str(out / "single_run"),
        ],
        [
            "evaluate",
            *common,
            *jobs,
            "--model",
            str(model / "model.json"),
            "--corpus",
            str(corpus),
            "-o",
            str(out / "evaluation"),
            "--split-sensitivity",
        ],
    ]
    total = 0.0
    for step in steps:
        print(f"$ freqskip {' '.join(step)}")
        start = time.perf_counter()
        code = cli(step)
        wall = time.perf_counter() - start
        total += wall
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
        print(f"  {step[0]}: {wall:.2f} s wall, peak RSS {peak_rss_mb:.1f} MB")
        if code != 0:
            return code
    print(f"workflow: {total:.2f} s wall")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("out_dir")
    parser.add_argument("--corpus-size", type=int, default=200)
    parser.add_argument("--tau", type=float, default=0.84)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--jobs", type=int, default=1)
    sys.exit(run(parser.parse_args()))
