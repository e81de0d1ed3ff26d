"""The adaptive run loop: generate, decide at step N, accelerate, report.

A run executes the low-frequency steps 1..N, computes the two frequency
features from the decision-step image and the cached previous step, asks the
decision model for a strategy, and completes the remaining steps under it.
All of a sample's steps are read from one lazy
:class:`~freqskip.generator.StepTrace`, so a step the features built is not
built again for the output, the baseline or the evaluation probe.
Reported cost counts every executed branch pass at its step weight (halved
steps count once, skipped steps not at all) plus the fixed decision overhead
``strategies.DECISION_OVERHEAD`` of the baseline.

:func:`run_accelerated` never scores its output.  :func:`evaluate` scores
each sample's output and probe against the baseline of the same trace
through the one scorer, ``strategies.score_outputs``, which labeling shares;
SSIM and SSIM-HF (the one SSIM, ``metrics.SsimParams()``, and the one mask,
``metrics.HF_MASK_QUANTILE``) come from one SSIM map of the output.
"""

from __future__ import annotations

import os
import warnings
from collections import Counter
from dataclasses import dataclass
from functools import partial
from typing import ClassVar

import numpy as np

from .corpus import _map_jobs, sample_ids
from .decision import TRAINERS, FeatureVector, TrainedModel, predict
from .features import step_features
from .frequency import HFParams, hf_ratio
from .generator import StepTrace, TargetSpec, TraceConfig, decode_final, synth_target
from .labeling import SENSITIVITY_PROBE, build_dataset
from .metrics import SsimParams, hf_mean
from .strategies import DECISION_OVERHEAD, DEFAULT_LADDER, CostModel, Strategy, output_key, parse_strategy
from .strategies import score_outputs, speedup


@dataclass(frozen=True)
class PipelineConfig:
    """Decision-step placement, analysis parameters, and the strategy ladder.

    The model decides once, at ``decision_step``, what to do with the steps
    after it, so a rung may touch only those ``steps - decision_step``
    trailing steps (:meth:`check_rung`).  The SSIM and the decision overhead
    are constants, not settings: ``ssim`` and ``overhead`` are class
    attributes, not init fields.
    """

    decision_step: int = 9
    analysis_size: int = 128
    hf: HFParams = HFParams(rho=0.4)  # the frozen experiment radius; a bare HFParams() is 0.25
    ladder: tuple[Strategy, ...] = DEFAULT_LADDER
    ssim: ClassVar[SsimParams] = SsimParams()
    overhead: ClassVar[float] = DECISION_OVERHEAD

    def __post_init__(self) -> None:
        if self.analysis_size < 3:
            raise ValueError(f"analysis_size must be >= 3, got {self.analysis_size}")
        if not any(s.kind == "none" for s in self.ladder):
            raise ValueError("ladder must contain the 'none' strategy")

    def validate_for(self, cfg: TraceConfig) -> None:
        n = self.decision_step
        if not 2 <= n < cfg.steps:
            raise ValueError(f"decision_step must be in 2..{cfg.steps - 1}, got {n}")
        if self.analysis_size > cfg.schedule[n - 2]:
            raise ValueError(
                f"analysis_size={self.analysis_size} exceeds the step {n - 1} "
                f"resolution {cfg.schedule[n - 2]}"
            )
        for strategy in self.ladder:
            self.check_rung(strategy, cfg)

    def check_rung(self, strategy: Strategy, cfg: TraceConfig) -> None:
        """Raise ValueError unless ``strategy`` touches only steps after the
        decision step; as that step is at least 2, the plan then fits the run."""
        window = cfg.steps - self.decision_step
        if strategy.affected_steps > window:
            raise ValueError(
                f"strategy {strategy.ident} touches {strategy.affected_steps} steps but only the "
                f"{window} after decision step {self.decision_step} are eligible"
            )

    def ladder_ids(self) -> list[str]:
        return [s.ident for s in self.ladder]

    def cost_model(self, cfg: TraceConfig) -> CostModel:
        return CostModel(weights=cfg.cost_weights)


@dataclass(frozen=True)
class RunReport:
    strategy: str
    features: FeatureVector
    cost: float
    speedup: float


def _check_model(model: TrainedModel, pcfg: PipelineConfig) -> None:
    ladder = set(pcfg.ladder_ids())
    missing = [c for c in model.classes if c not in ladder]
    if missing:
        raise ValueError(f"model predicts classes outside the ladder: {missing}")


def run_accelerated(
    target: np.ndarray,
    cfg: TraceConfig,
    pcfg: PipelineConfig,
    model: TrainedModel | None,
    force_strategy: Strategy | None = None,
) -> tuple[np.ndarray, RunReport]:
    """One adaptive generation run; returns the output image and its report."""
    trace = StepTrace(target, cfg)
    strategy, report = _decide(trace, pcfg, model, force_strategy)
    return decode_final(trace, *output_key(strategy, cfg.steps)), report


def _decide(
    trace: StepTrace, pcfg: PipelineConfig, model: TrainedModel | None, force_strategy: Strategy | None = None
) -> tuple[Strategy, RunReport]:
    """The strategy and report of :func:`run_accelerated` on ``trace``; the
    features read the decision step and the one before it, and nothing is decoded."""
    cfg = trace.config
    pcfg.validate_for(cfg)
    if force_strategy is not None:
        pcfg.check_rung(force_strategy, cfg)
    elif model is None:
        raise ValueError("need a decision model or a forced strategy")
    if model is not None:
        _check_model(model, pcfg)
    feats = step_features(trace, pcfg.decision_step, pcfg.analysis_size, pcfg.hf)
    strategy = force_strategy if force_strategy is not None else parse_strategy(predict(model, feats))
    cm = pcfg.cost_model(cfg)
    report = RunReport(
        strategy=strategy.ident,
        features=feats,
        cost=cm.strategy_cost(strategy) + cm.overhead * cm.baseline_cost,
        speedup=speedup(cm, strategy),
    )
    return strategy, report


EVAL_CSV_HEADER = "sample_id,strategy,hf_diff,hf_ratio,ssim,ssim_hf,cost,speedup"


@dataclass
class EvalResult:
    """Per-sample reports and, parallel to them, each sample's SSIM and
    SSIM-HF against its baseline and its SSIM under the sensitivity probe
    (``labeling.SENSITIVITY_PROBE``) against the same baseline."""

    ids: list[str]
    reports: list[RunReport]
    ssims: list[float]
    ssim_hfs: list[float]
    probe_ssims: list[float]

    @property
    def mean_ssim(self) -> float:
        return float(np.mean(self.ssims))

    @property
    def min_ssim(self) -> float:
        return float(np.min(self.ssims))

    @property
    def mean_ssim_hf(self) -> float:
        return float(np.mean(self.ssim_hfs))

    @property
    def mean_speedup(self) -> float:
        return float(np.mean([r.speedup for r in self.reports]))

    @property
    def histogram(self) -> dict[str, int]:
        return dict(sorted(Counter(r.strategy for r in self.reports).items()))

    def summary(self) -> dict:
        return {
            "samples": len(self.reports),
            "mean_ssim": self.mean_ssim,
            "min_ssim": self.min_ssim,
            "mean_ssim_hf": self.mean_ssim_hf,
            "mean_speedup": self.mean_speedup,
            "histogram": self.histogram,
        }

    def write_csv(self, path: str | os.PathLike) -> None:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(EVAL_CSV_HEADER + "\n")
            for sid, r, ssim, ssim_hf in zip(self.ids, self.reports, self.ssims, self.ssim_hfs):
                fh.write(
                    f"{sid},{r.strategy},{r.features.hf_diff!r},{r.features.hf_ratio!r},"
                    f"{ssim!r},{ssim_hf!r},{r.cost!r},{r.speedup!r}\n"
                )


def _evaluate_spec(
    spec: TargetSpec, cfg: TraceConfig, pcfg: PipelineConfig, model: TrainedModel
) -> tuple[RunReport, float, float, float]:
    """One sample's report, its SSIM and SSIM-HF against the baseline, and
    its probe SSIM, all read from one trace and scored through
    ``strategies.score_outputs``: the output's map gives both of its
    scores, and the probe shares it when both emit one image."""
    trace = StepTrace(synth_target(spec, cfg.full_size), cfg)
    strategy, report = _decide(trace, pcfg, model)
    reference = trace.final
    maps = score_outputs(trace, (output_key(s, cfg.steps) for s in (strategy, SENSITIVITY_PROBE)))
    chosen = next(maps)
    ssim, ssim_hf = float(np.mean(chosen)), hf_mean(chosen, reference)
    del chosen  # the probe's map, if the probe emits another image, is built with one map alive
    return report, ssim, ssim_hf, next((float(np.mean(m)) for m in maps), ssim)


def evaluate(
    specs: list[TargetSpec],
    cfg: TraceConfig,
    pcfg: PipelineConfig,
    model: TrainedModel,
    ids: list[str] | None = None,
    jobs: int = 1,
) -> EvalResult:
    """Run the pipeline over a corpus on ``jobs`` processes, with baseline
    scoring and the sensitivity probe per sample."""
    ids = sample_ids(specs, ids)
    scored = _map_jobs(partial(_evaluate_spec, cfg=cfg, pcfg=pcfg, model=model), specs, jobs)
    reports, ssims, ssim_hfs, probe_ssims = (list(column) for column in zip(*scored))
    return EvalResult(ids=ids, reports=reports, ssims=ssims, ssim_hfs=ssim_hfs, probe_ssims=probe_ssims)


def train_from_samples(samples, classes: tuple[str, ...], kind: str = "logreg") -> TrainedModel:
    """Fit a decision model of the given kind from labeled samples."""
    if kind not in TRAINERS:
        raise ValueError(f"unknown model kind {kind!r} (expected one of {sorted(TRAINERS)})")
    x = np.array([s.features.as_array() for s in samples])
    y = [s.label for s in samples]
    return TRAINERS[kind](x, y, classes)


@dataclass(frozen=True)
class GeneralizationReport:
    model_mean_ssim: float
    oracle_mean_ssim: float
    ssim_gap: float
    label_agreement: float
    histogram: dict[str, int]


def generalization_check(
    train_specs: list[TargetSpec],
    heldout_specs: list[TargetSpec],
    cfg: TraceConfig,
    pcfg: PipelineConfig,
    tau: float,
    kind: str = "logreg",
) -> GeneralizationReport:
    """Train on one recipe family, evaluate on another without retraining.

    Reports the mean SSIM achieved by the transferred model, the labeling
    oracle's mean SSIM on the held-out family (the upper bound a perfect
    selector could reach under tau), their gap, and how often the model picks
    exactly the oracle label.
    """
    overlap = set(map(repr, train_specs)) & set(map(repr, heldout_specs))
    if overlap:
        warnings.warn(f"{len(overlap)} recipes appear in both corpora; the check is not out-of-family")
    train_samples = build_dataset(train_specs, cfg, pcfg, tau)
    model = train_from_samples(train_samples, tuple(pcfg.ladder_ids()), kind)
    heldout_samples = build_dataset(heldout_specs, cfg, pcfg, tau)
    chosen = [predict(model, sample.features) for sample in heldout_samples]
    agree = sum(c == sample.label for c, sample in zip(chosen, heldout_samples))
    model_ssims = [sample.ssims[c] for c, sample in zip(chosen, heldout_samples)]
    oracle_ssims = [sample.ssims[sample.label] for sample in heldout_samples]
    model_mean = float(np.mean(model_ssims))
    oracle_mean = float(np.mean(oracle_ssims))
    return GeneralizationReport(
        model_mean_ssim=model_mean,
        oracle_mean_ssim=oracle_mean,
        ssim_gap=oracle_mean - model_mean,
        label_agreement=agree / len(heldout_samples),
        histogram=dict(sorted(Counter(chosen).items())),
    )


def feature_reliability(
    specs: list[TargetSpec], cfg: TraceConfig, pcfg: PipelineConfig
) -> tuple[float, np.ndarray]:
    """Pearson correlation between the decision-step hf_ratio (analysis
    resolution) and the hf_ratio of the final full-resolution baseline.

    Returns (correlation, pairs) with pairs of shape (n, 2).
    """
    pairs = []
    for spec in specs:
        trace = StepTrace(synth_target(spec, cfg.full_size), cfg)
        feats = step_features(trace, pcfg.decision_step, pcfg.analysis_size, pcfg.hf)
        pairs.append((feats.hf_ratio, hf_ratio(trace.final, pcfg.hf)))
    arr = np.array(pairs)
    corr = float(np.corrcoef(arr[:, 0], arr[:, 1])[0, 1])
    return corr, arr
