#!/usr/bin/env python3
"""Record the reference outputs the benchmark checks against.

Run from the root of a checkout at the commit whose outputs become the
reference:

    python3 bench/record_reference.py --seeds 0-19

Writes ``bench/reference/seed_<n>.json`` for each seed (layout in
``workloads.load_reference``).  A range that includes seed 0 first rewrites
``bench/data/train_labels.csv`` from the seed-0 label pool (the frozen
200-sample corpus): the training set of the model that the serve and
evaluate workloads fit during set-up.  Refuses to write a reference whose
seed-0 outputs miss the ROADMAP anchors.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads as W  # noqa: E402
from freqskip import cli, decision, labeling, metrics, strategies  # noqa: E402


def _f(value: float) -> float:
    return float(f"{value:.10g}")


def label_records(seed: int, work_dir: str) -> list[labeling.LabeledSample]:
    wl = W.LabelWorkload(seed, work_dir)
    wl.setup()
    return [wl.request(j) for j in range(W.LABEL_POOL)]


def record_label(samples: list[labeling.LabeledSample]) -> dict:
    ladder = W.PIPE_CFG.ladder_ids()
    rows = [
        [s.label, _f(s.features.hf_diff), _f(s.features.hf_ratio), [_f(s.ssims[k]) for k in ladder]]
        for s in samples
    ]
    return {"ladder": ladder, "rows": rows}


def record_serve(seed: int, work_dir: str) -> list:
    wl = W.ServeWorkload(seed, work_dir)
    wl.setup()
    serve = []
    for j in range(W.SERVE_POOL):
        _, report = wl.request(j)
        serve.append([report.strategy, _f(W.prediction_margin(wl.model, report.features))])
    return serve


def record_evaluate(seed: int, work_dir: str) -> dict:
    wl = W.EvaluateWorkload(seed, work_dir)
    wl.setup()
    rows = wl.request(0)["rows"]
    model = decision.load_model(wl.model_path)
    _, targets = cli._read_corpus(wl.corpus_dir)
    probes = []
    for target in targets:
        baseline, _ = strategies.apply_strategy(target, W.TRACE_CFG, strategies.Strategy.none())
        probed, _ = strategies.apply_strategy(target, W.TRACE_CFG, strategies.Strategy.skip(3))
        probes.append(_f(metrics.ssim(baseline, probed, W.PIPE_CFG.ssim)))
    if seed == 0:
        _, failed = wl.finish()
        if failed:
            raise RuntimeError(f"seed 0 evaluate summary {wl.anchor} misses the anchors")
    return {
        "rows": [[r["strategy"]] + [_f(r[k]) for k in W.EVAL_KEYS[1:]] for r in rows],
        "margins": [_f(W.prediction_margin(model, decision.FeatureVector(r["hf_diff"], r["hf_ratio"]))) for r in rows],
        "probe_ssims": probes,
    }


def record(seed: int, samples: list[labeling.LabeledSample] | None = None) -> str:
    work_dir = tempfile.mkdtemp(prefix=f"ref{seed}-", dir=os.path.join(ROOT, ".bench_work"))
    try:
        samples = samples or label_records(seed, work_dir)
        if seed == 0:
            histogram: dict[str, int] = {}
            for s in samples:
                histogram[s.label] = histogram.get(s.label, 0) + 1
            if histogram != W.ANCHOR_HISTOGRAM:
                raise RuntimeError(f"seed 0 label histogram {histogram} misses the anchor")
        body = {
            "seed": seed,
            "label": record_label(samples),
            "serve": record_serve(seed, work_dir),
            "evaluate": record_evaluate(seed, work_dir),
        }
        os.makedirs(W.REFERENCE_DIR, exist_ok=True)
        path = os.path.join(W.REFERENCE_DIR, f"seed_{seed:02d}.json")
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            json.dump(body, fh, separators=(",", ":"))
            fh.write("\n")
        return path
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def write_training_set() -> list[labeling.LabeledSample]:
    work_dir = tempfile.mkdtemp(prefix="train-", dir=os.path.join(ROOT, ".bench_work"))
    try:
        samples = label_records(0, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(os.path.dirname(W.TRAIN_CSV), exist_ok=True)
    labeling.write_labels_csv(samples, W.TRAIN_CSV)
    return samples


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-19", help="inclusive range, e.g. 0-19")
    args = parser.parse_args()
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    seeds = parse_seeds(args.seeds)
    frozen = write_training_set() if 0 in seeds else None
    for seed in seeds:
        print(record(seed, frozen if seed == 0 else None), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
