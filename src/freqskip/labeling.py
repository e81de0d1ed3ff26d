"""Ground-truth labels from exhaustive strategy simulation.

Each sample is labeled with the most aggressive ladder strategy whose output
keeps SSIM (the one ``metrics.SsimParams()``) against the non-accelerated
baseline at or above a threshold tau, scored by the one scorer that
evaluation shares, ``strategies.score_outputs``.
'none' always qualifies (its SSIM is exactly 1), so every sample gets a
label.  A corpus splits into frequency-sensitive and frequency-robust
halves by :func:`split_by_probe` of each sample's SSIM under the most
aggressive skip, :data:`SENSITIVITY_PROBE`, which ``pipeline.evaluate``
records in its own pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING
import os
import warnings

import numpy as np

from .corpus import _map_jobs, sample_ids
from .decision import FeatureVector
from .features import step_features
from .generator import StepTrace, TargetSpec, TraceConfig, synth_target
from .strategies import Strategy, ladder_order, output_key, score_outputs

if TYPE_CHECKING:
    from .pipeline import PipelineConfig

FEATURES_HEADER = "sample_id,hf_diff,hf_ratio"
LABELS_HEADER = "sample_id,hf_diff,hf_ratio,label"


@dataclass(frozen=True)
class LabeledSample:
    sample_id: str
    features: FeatureVector
    label: str
    ssims: dict[str, float]


def assign_label(ssims: dict[str, float], ordered_ids: list[str], tau: float) -> str:
    """First strategy in aggressiveness order whose SSIM is at least tau."""
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"tau must be in (0, 1], got {tau}")
    for ident in ordered_ids:
        if ssims[ident] >= tau:
            return ident
    return "none"


def ordered_ladder_ids(cfg: TraceConfig, pcfg: "PipelineConfig") -> list[str]:
    return [s.ident for s in ladder_order(pcfg.cost_model(cfg), pcfg.ladder)]


def label_sample(
    target: np.ndarray,
    cfg: TraceConfig,
    pcfg: "PipelineConfig",
    tau: float,
    sample_id: str = "",
) -> LabeledSample:
    """Simulate every ladder strategy and label by first-above-threshold.

    The config is checked as the run loop checks it, so no label names a
    rung the run loop would reject.  The features and the outputs read one
    trace, so each step is built once; the features equal
    ``features.decision_features`` bit for bit.  Outputs are scored from the
    last step down, sharing a score when their ``output_key`` is equal; the
    baseline against itself is exactly 1.
    """
    pcfg.validate_for(cfg)
    trace = StepTrace(target, cfg)
    feats = step_features(trace, pcfg.decision_step, pcfg.analysis_size, pcfg.hf)
    keys = {s.ident: output_key(s, cfg.steps) for s in pcfg.ladder}
    baseline = output_key(Strategy.none(), cfg.steps)
    order = sorted(set(keys.values()) - {baseline}, key=lambda key: (-key[0], key[1]))
    scores = {baseline: 1.0, **dict(zip(order, map(float, map(np.mean, score_outputs(trace, order)))))}
    ssims = {ident: scores[key] for ident, key in keys.items()}
    label = assign_label(ssims, ordered_ladder_ids(cfg, pcfg), tau)
    return LabeledSample(sample_id=sample_id, features=feats, label=label, ssims=ssims)


def write_features_csv(samples: list[LabeledSample], path: str | os.PathLike) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(FEATURES_HEADER + "\n")
        for s in samples:
            fh.write(f"{s.sample_id},{s.features.hf_diff!r},{s.features.hf_ratio!r}\n")


def write_labels_csv(samples: list[LabeledSample], path: str | os.PathLike) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(LABELS_HEADER + "\n")
        for s in samples:
            fh.write(f"{s.sample_id},{s.features.hf_diff!r},{s.features.hf_ratio!r},{s.label}\n")


def read_feature_csv(path: str | os.PathLike) -> tuple[list[str], np.ndarray, list[str] | None]:
    """Read a feature or label CSV; returns (ids, features, labels or None)."""
    with open(path, "r", encoding="ascii") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines or lines[0] not in (FEATURES_HEADER, LABELS_HEADER):
        raise ValueError(f"{os.fspath(path)}: unexpected CSV header {lines[0] if lines else '<empty>'!r}")
    has_labels = lines[0] == LABELS_HEADER
    ids, rows, labels = [], [], []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != (4 if has_labels else 3):
            raise ValueError(f"{os.fspath(path)}: malformed row {ln!r}")
        ids.append(parts[0])
        rows.append((float(parts[1]), float(parts[2])))
        if has_labels:
            labels.append(parts[3])
    return ids, np.array(rows, dtype=np.float64), (labels if has_labels else None)


def _label_spec(item: tuple[str, TargetSpec], cfg: TraceConfig, pcfg: "PipelineConfig", tau: float) -> LabeledSample:
    sid, spec = item
    return label_sample(synth_target(spec, cfg.full_size), cfg, pcfg, tau, sample_id=sid)


def build_dataset(
    specs: list[TargetSpec],
    cfg: TraceConfig,
    pcfg: "PipelineConfig",
    tau: float,
    ids: list[str] | None = None,
    jobs: int = 1,
) -> list[LabeledSample]:
    """Label every spec in order on ``jobs`` processes."""
    ids = sample_ids(specs, ids)
    samples = _map_jobs(partial(_label_spec, cfg=cfg, pcfg=pcfg, tau=tau), list(zip(ids, specs)), jobs)
    if len({s.label for s in samples}) < 2:
        warnings.warn("corpus produced fewer than 2 distinct labels; classifiers need label diversity")
    return samples


SENSITIVITY_PROBE = Strategy.skip(3)  # the most aggressive skip on the default ladder


def split_by_probe(ids: list[str], probe_ssims: list[float], tau_s: float) -> tuple[list[str], list[str]]:
    """Partition ids into (frequency-sensitive, frequency-robust).

    A sample is sensitive when its probe output's SSIM against the baseline
    is below tau_s.  The endpoints are allowed: 0 marks everything robust and
    1 marks everything sensitive (for any imperfect probe).
    """
    if not 0.0 <= tau_s <= 1.0:
        raise ValueError(f"tau_s must be in [0, 1], got {tau_s}")
    if len(ids) != len(probe_ssims):
        raise ValueError(f"{len(ids)} ids for {len(probe_ssims)} probe SSIMs")
    flags = [value < tau_s for value in probe_ssims]
    sensitive = [sid for sid, flag in zip(ids, flags) if flag]
    robust = [sid for sid, flag in zip(ids, flags) if not flag]
    return sensitive, robust
