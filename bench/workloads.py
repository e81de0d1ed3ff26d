"""The benchmark's three workloads and the checks on their outputs.

Every workload makes its inputs from the benchmark seed in ``setup``, serves
one request per ``request`` call, and ``check`` compares each output with the
reference recorded for that seed in ``reference/seed_<n>.json``.  Floats
compare with a tolerance, not byte for byte, so numerically equivalent
rewrites of the program (``np.fft``, a dense-matrix ``resize_area``) still
pass; labels and chosen strategies must match exactly unless the reference
marks the sample as a near-tie.  Seeds without a reference file get the
invariant checks only (label rule, ladder membership, modeled speedup).

Calls into the program go through module attributes (``pipeline.run_accelerated``)
so that the tracer's wrappers see them.

Workloads (why each was chosen is in ``BENCHMARK.json``):

* ``label``: ``labeling.build_dataset`` from recipe to label, one sample per
  request, over ``default_corpus(200, seed)``.
* ``serve``: production mode; one closed-loop caller sends
  ``run_accelerated(compute_baseline=False)`` requests over pre-synthesized
  targets, the next one only after the previous one returns.
* ``evaluate``: ``freqskip evaluate --split-sensitivity --jobs 2`` through
  ``cli.main`` on a corpus materialized during setup.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import time
import traceback
import warnings

from freqskip import cli, corpus, decision, features, generator, labeling, metrics, pipeline, strategies
from freqskip.frequency import HFParams
from freqskip.generator import TraceConfig
from freqskip.pipeline import PipelineConfig

HERE = os.path.dirname(os.path.abspath(__file__))
TRAIN_CSV = os.path.join(HERE, "data", "train_labels.csv")
REFERENCE_DIR = os.path.join(HERE, "reference")

# The frozen experiment setup (generator noise seed 0, hf mask radius 0.4, tau 0.84).
TRACE_CFG = TraceConfig(seed=0)
PIPE_CFG = PipelineConfig(hf=HFParams(rho=0.4))
TAU = 0.84
TAU_SENSITIVITY = 0.85

LABEL_POOL = 200  # the whole frozen corpus at seed 0
# Serve latency depends on the chosen strategy (uncond_3 ~20 ms, skips ~27 ms);
# 128 targets keep each seed's strategy mix, and so p50, from jumping modes.
SERVE_POOL = 128
# Small enough for ~90 evaluate calls in a 30 s run, so p90 has ten calls beyond it.
EVAL_CORPUS = 8
EVAL_JOBS = 2

RTOL, ATOL = 1e-7, 1e-9

# ROADMAP anchors on the frozen corpus (seed 0, 200 samples, tau 0.84).
ANCHOR_HISTOGRAM = {"skip_3": 121, "skip_2": 27, "uncond_3": 52}
ANCHOR_MEAN_SSIM = 0.9650
ANCHOR_MEAN_SPEEDUP = 2.575


def close(a: float, b: float) -> bool:
    return abs(a - b) <= ATOL + RTOL * abs(b)


EVAL_KEYS = ("strategy", "hf_diff", "hf_ratio", "ssim", "ssim_hf", "cost", "speedup")


def load_reference(seed: int) -> dict | None:
    """Expand the compact reference file of one seed, or None if there is none.

    File layout (floats at 10 significant digits, far inside the tolerance):
    ``label``: ladder ids plus one ``[label, hf_diff, hf_ratio, [ssim per
    ladder id]]`` row per pool sample; ``serve``: ``[strategy, margin]`` per
    pool target; ``evaluate``: one row per corpus sample in ``EVAL_KEYS``
    order, the prediction margins, and the ``skip_3`` probe SSIMs that decide
    the sensitivity split.
    """
    path = os.path.join(REFERENCE_DIR, f"seed_{seed:02d}.json")
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="ascii") as fh:
        raw = json.load(fh)
    ladder = raw["label"]["ladder"]
    return {
        "label": [
            {"label": label, "hf_diff": hd, "hf_ratio": hr, "ssims": dict(zip(ladder, ssims))}
            for label, hd, hr, ssims in raw["label"]["rows"]
        ],
        "serve": [{"strategy": strategy, "margin": margin} for strategy, margin in raw["serve"]],
        "evaluate": {
            "rows": [dict(zip(EVAL_KEYS, row)) for row in raw["evaluate"]["rows"]],
            "margins": raw["evaluate"]["margins"],
            "probe_ssims": raw["evaluate"]["probe_ssims"],
        },
    }


def train_model(work_dir: str) -> str:
    """``freqskip train`` on the recorded labels of the frozen corpus; returns
    the model path.  This is the model of the ROADMAP evaluate anchors."""
    out_dir = os.path.join(work_dir, "model")
    code = quiet_cli(["train", "--features", TRAIN_CSV, "--labels", TRAIN_CSV, "-o", out_dir])
    if code != 0:
        raise RuntimeError(f"freqskip train exited with {code}")
    return os.path.join(out_dir, "model.json")


def prediction_margin(model: decision.TrainedModel, feats: decision.FeatureVector) -> float:
    """Gap between the two largest class probabilities (small means near-tie)."""
    probs = sorted(decision.predict_proba(model, feats), reverse=True)
    return float(probs[0] - probs[1])


def modeled_speedup(ident: str) -> float:
    return strategies.speedup(PIPE_CFG.cost_model(TRACE_CFG), strategies.parse_strategy(ident))


def quiet_cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


class Workload:
    """One workload: ``setup`` once per repetition, then ``request``/``check``.

    ``fingerprint`` reduces an output to an exactly comparable value; the run
    requires every repeat of one input (a later pass over the pool, or the
    traced pass) to reproduce the first output bit for bit.
    """

    name = ""
    probe = "filter"  # calibration kernel that mirrors the dominant layer
    pool_size = 1  # distinct inputs; request i serves input i % pool_size
    samples_per_request = 1
    min_requests = 1

    def __init__(self, seed: int, work_dir: str) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.reference = load_reference(seed)
        self.first: dict[int, object] = {}
        self.kept: dict[int, object] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def request(self, i: int):
        raise NotImplementedError

    def fingerprint(self, output) -> object:
        raise NotImplementedError

    def check_output(self, j: int, output) -> int:
        """Number of failed samples in one output of pool entry j."""
        raise NotImplementedError

    def check(self, i: int, output) -> int:
        j = i % self.pool_size
        if output is None:
            return self.samples_per_request
        fp = self.fingerprint(output)
        if j not in self.first:
            self.first[j] = fp
            self.on_first(j, output)
        elif self.first[j] != fp:
            return self.samples_per_request
        return self.check_output(j, output)

    def on_first(self, j: int, output) -> None:
        """Keep what ``finish`` and ``fidelity`` need from the first output of entry j."""
        self.kept[j] = output

    def finish(self) -> tuple[int, int]:
        """Checks after timing; returns (attempted, failed) operations."""
        return 0, 0

    def fidelity(self) -> tuple[float, float]:
        """(mean SSIM, mean modeled speedup) of the outputs for distinct inputs."""
        raise NotImplementedError

    def info(self, request_ms: float) -> dict:
        """Workload-specific facts for the info line; request_ms is the raw
        mean request latency of the (first) timed pass."""
        return {}


# --------------------------------------------------------------------------
# label
# --------------------------------------------------------------------------


class LabelWorkload(Workload):
    name = "label"
    pool_size = LABEL_POOL

    def setup(self) -> None:
        self.specs = corpus.default_corpus(LABEL_POOL, self.seed)
        self.order = labeling.ordered_ladder_ids(TRACE_CFG, PIPE_CFG)
        self.request(0)

    def request(self, i: int) -> labeling.LabeledSample:
        j = i % LABEL_POOL
        with warnings.catch_warnings():
            # a one-sample dataset always warns that it has fewer than 2 labels
            warnings.simplefilter("ignore")
            (sample,) = labeling.build_dataset([self.specs[j]], TRACE_CFG, PIPE_CFG, TAU, ids=[f"s{j:04d}"])
        return sample

    def fingerprint(self, s: labeling.LabeledSample) -> object:
        return (s.label, s.features.hf_diff, s.features.hf_ratio, tuple(sorted(s.ssims.items())))

    def check_output(self, j: int, s: labeling.LabeledSample) -> int:
        rule = next((ident for ident in self.order if s.ssims[ident] >= TAU), "none")
        ok = s.label == rule and close(s.ssims["none"], 1.0) and all(v <= 1.0 + ATOL for v in s.ssims.values())
        if self.reference is not None:
            ref = self.reference["label"][j]
            ok = ok and close(s.features.hf_diff, ref["hf_diff"]) and close(s.features.hf_ratio, ref["hf_ratio"])
            ok = ok and s.ssims.keys() == ref["ssims"].keys()
            ok = ok and all(close(s.ssims[k], v) for k, v in ref["ssims"].items())
            near_tie = any(close(v, TAU) for v in ref["ssims"].values())
            ok = ok and (s.label == ref["label"] or near_tie)
        return 0 if ok else 1

    def finish(self) -> tuple[int, int]:
        if self.seed != 0:
            return 0, 0
        # the anchor needs the whole frozen corpus: label what the timed loop missed
        attempted = failed = 0
        for j in range(LABEL_POOL):
            if j not in self.first:
                attempted += 1
                try:
                    output = self.request(j)
                except Exception:
                    traceback.print_exc()
                    output = None
                failed += self.check(j, output)
        histogram: dict[str, int] = {}
        for s in self.kept.values():
            histogram[s.label] = histogram.get(s.label, 0) + 1
        self.histogram = histogram
        return attempted + 1, failed + (0 if histogram == ANCHOR_HISTOGRAM else 1)

    def fidelity(self) -> tuple[float, float]:
        kept = self.kept.values()
        return (
            math.fsum(s.ssims[s.label] for s in kept) / len(kept),
            math.fsum(modeled_speedup(s.label) for s in kept) / len(kept),
        )

    def info(self, request_ms: float) -> dict:
        return {"anchor_histogram": self.histogram} if hasattr(self, "histogram") else {}


# --------------------------------------------------------------------------
# serve
# --------------------------------------------------------------------------


class ServeWorkload(Workload):
    name = "serve"
    probe = "loop"
    pool_size = min_requests = SERVE_POOL

    def setup(self) -> None:
        self.model = decision.load_model(train_model(self.work_dir))
        size = TRACE_CFG.full_size
        self.targets = [generator.synth_target(spec, size) for spec in corpus.default_corpus(SERVE_POOL, self.seed)]
        self.request(0)

    def request(self, i: int):
        return pipeline.run_accelerated(self.targets[i % SERVE_POOL], TRACE_CFG, PIPE_CFG, self.model)

    def fingerprint(self, output) -> object:
        out, report = output
        return (report, hashlib.blake2b(out.tobytes()).digest())

    def check_output(self, j: int, output) -> int:
        _, report = output
        ok = report.strategy in PIPE_CFG.ladder_ids() and close(report.speedup, modeled_speedup(report.strategy))
        if self.reference is not None:
            ref, feats = self.reference["serve"][j], self.reference["label"][j]
            ok = ok and close(report.features.hf_diff, feats["hf_diff"])
            ok = ok and close(report.features.hf_ratio, feats["hf_ratio"])
            ok = ok and (report.strategy == ref["strategy"] or ref["margin"] < 1e-6)
        return 0 if ok else 1

    def finish(self) -> tuple[int, int]:
        # Fidelity of what was served, and the decision cost the cost model
        # assumes away; both are measured here, outside the timed loop.
        none = strategies.Strategy.none()
        ssims, decide_s, baseline_s = [], 0.0, 0.0
        for j, (out, report) in sorted(self.kept.items()):
            target = self.targets[j]
            t0 = time.perf_counter()
            feats = features.decision_features(
                target, TRACE_CFG, PIPE_CFG.decision_step, PIPE_CFG.analysis_size, PIPE_CFG.hf
            )
            decision.predict(self.model, feats)
            t1 = time.perf_counter()
            baseline, _ = strategies.apply_strategy(target, TRACE_CFG, none)
            t2 = time.perf_counter()
            decide_s += t1 - t0
            baseline_s += t2 - t1
            ssims.append(metrics.ssim(baseline, out, PIPE_CFG.ssim))
        n = len(self.kept)
        self.mean_ssim = math.fsum(ssims) / n
        self.decide_ms = 1e3 * decide_s / n
        self.baseline_ms = 1e3 * baseline_s / n
        failed = 0
        if self.reference is not None:
            for (j, (_, report)), value in zip(sorted(self.kept.items()), ssims):
                ref = self.reference["label"][j]["ssims"].get(report.strategy)
                failed += 0 if ref is not None and close(value, ref) else 1
        return n, failed

    def fidelity(self) -> tuple[float, float]:
        speedups = [report.speedup for _, report in self.kept.values()]
        return self.mean_ssim, math.fsum(speedups) / len(speedups)

    def info(self, request_ms: float) -> dict:
        return {
            "decision_ms": self.decide_ms,
            "baseline_final_step_ms": self.baseline_ms,
            "measured_decision_overhead": self.decide_ms / self.baseline_ms,
            "modeled_decision_overhead": PIPE_CFG.overhead,
            "measured_speedup": self.baseline_ms / request_ms,
        }


# --------------------------------------------------------------------------
# evaluate
# --------------------------------------------------------------------------


def read_eval_outputs(out_dir: str) -> dict:
    with open(os.path.join(out_dir, "evaluation.csv"), "r", encoding="ascii") as fh:
        csv_text = fh.read()
    with open(os.path.join(out_dir, "summary.json"), "r", encoding="ascii") as fh:
        summary = json.load(fh)
    split = {}
    for name in ("sensitive", "robust"):
        path = os.path.join(out_dir, f"{name}.txt")
        if os.path.exists(path):
            with open(path, "r", encoding="ascii") as fh:
                split[name] = fh.read().split()
    rows = []
    for line in csv_text.splitlines()[1:]:
        sid, strategy, *nums = line.split(",")
        rows.append({"sample_id": sid, "strategy": strategy, **dict(zip(EVAL_KEYS[1:], map(float, nums)))})
    return {"csv": csv_text, "summary": summary, "rows": rows, **split}


class EvaluateWorkload(Workload):
    name = "evaluate"
    samples_per_request = EVAL_CORPUS
    jobs = EVAL_JOBS

    def setup(self) -> None:
        self.corpus_dir = os.path.join(self.work_dir, "corpus")
        self.out_dir = os.path.join(self.work_dir, "out")
        code = quiet_cli(
            ["corpus", "--seed", str(self.seed), "--corpus-size", str(EVAL_CORPUS), "-o", self.corpus_dir]
        )
        if code != 0:
            raise RuntimeError(f"freqskip corpus exited with {code}")
        self.model_path = train_model(self.work_dir)
        self.request(0)

    def argv(self, corpus_dir: str, out_dir: str, jobs: int, split: bool = True) -> list[str]:
        argv = ["evaluate", "--model", self.model_path, "--corpus", corpus_dir, "-o", out_dir, "--jobs", str(jobs)]
        return argv + (["--split-sensitivity"] if split else [])

    def request(self, i: int):
        if quiet_cli(self.argv(self.corpus_dir, self.out_dir, self.jobs)) != 0:
            return None
        return read_eval_outputs(self.out_dir)

    def fingerprint(self, output) -> object:
        return (output["csv"], output.get("sensitive"), output.get("robust"))

    def check_output(self, j: int, output) -> int:
        rows = output["rows"]
        ids = [f"s{k:04d}" for k in range(EVAL_CORPUS)]
        if [r["sample_id"] for r in rows] != ids or sorted(output["sensitive"] + output["robust"]) != ids:
            return EVAL_CORPUS
        ref = self.reference["evaluate"] if self.reference is not None else None
        failed = 0
        for k, row in enumerate(rows):
            ok = row["strategy"] in PIPE_CFG.ladder_ids() and close(row["speedup"], modeled_speedup(row["strategy"]))
            ok = ok and row["ssim"] <= 1.0 + ATOL and row["ssim_hf"] <= 1.0 + ATOL
            if ref is not None:
                expect = ref["rows"][k]
                ok = ok and all(close(row[key], expect[key]) for key in ("hf_diff", "hf_ratio", "ssim", "ssim_hf"))
                same = row["strategy"] == expect["strategy"]
                ok = ok and (same or ref["margins"][k] < 1e-6)
                ok = ok and (not same or (close(row["cost"], expect["cost"]) and close(row["speedup"], expect["speedup"])))
                sensitive = row["sample_id"] in output["sensitive"]
                probe = ref["probe_ssims"][k]
                ok = ok and (sensitive == (probe < TAU_SENSITIVITY) or close(probe, TAU_SENSITIVITY))
            failed += 0 if ok else 1
        return failed

    def finish(self) -> tuple[int, int]:
        if self.seed != 0:
            return 0, 0
        # ROADMAP anchors: evaluate the whole frozen corpus once, untimed
        corpus_dir = os.path.join(self.work_dir, "frozen")
        out_dir = os.path.join(self.work_dir, "frozen_out")
        code = quiet_cli(["corpus", "--seed", "0", "--jobs", str(EVAL_JOBS), "-o", corpus_dir])
        if code == 0:
            code = quiet_cli(self.argv(corpus_dir, out_dir, EVAL_JOBS, split=False))
        if code != 0:
            return 1, 1
        summary = read_eval_outputs(out_dir)["summary"]
        self.anchor = {k: summary[k] for k in ("samples", "mean_ssim", "mean_speedup", "histogram")}
        ok = (
            summary["samples"] == 200
            and abs(summary["mean_ssim"] - ANCHOR_MEAN_SSIM) < 5e-5
            and abs(summary["mean_speedup"] - ANCHOR_MEAN_SPEEDUP) < 5e-4
        )
        return 1, 0 if ok else 1

    def fidelity(self) -> tuple[float, float]:
        summary = self.kept[0]["summary"]
        return summary["mean_ssim"], summary["mean_speedup"]

    def info(self, request_ms: float) -> dict:
        return {"anchor_summary": self.anchor} if hasattr(self, "anchor") else {}


def child_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


WORKLOADS = {w.name: w for w in (LabelWorkload, ServeWorkload, EvaluateWorkload)}
