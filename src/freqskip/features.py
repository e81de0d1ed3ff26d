"""Decision-step feature extraction shared by labeling and the run loop.

Both indicators are computed from the combined images the generator emits at
the decision step and the step before it, area-downsampled to a common
analysis resolution.  The run loop calls :func:`decision_features`, which
builds those two steps; labeling, which builds them anyway for its own
outputs, passes them to :func:`step_features`.  Both paths end in the same
function, so training features match what the run loop sees at inference
time bit for bit.
"""

from __future__ import annotations

import numpy as np

from .decision import FeatureVector
from .frequency import HFParams, hf_diff, hf_ratio
from .generator import TraceConfig, step_images
from .image import resize_area


def decision_features(
    target: np.ndarray,
    cfg: TraceConfig,
    decision_step: int,
    analysis_size: int,
    hf_params: HFParams,
) -> FeatureVector:
    """:func:`step_features` of the combined images the generator emits at
    ``decision_step`` and the step before it."""
    n, prev = feature_steps(cfg, decision_step)
    _, _, i_n = step_images(target, cfg, n)
    _, _, i_prev = step_images(target, cfg, prev)
    return step_features(i_n, i_prev, analysis_size, hf_params)


def feature_steps(cfg: TraceConfig, decision_step: int) -> tuple[int, int]:
    """The steps whose combined images the features read: the decision step
    and the one before it."""
    if not 2 <= decision_step <= cfg.steps:
        raise ValueError(f"decision_step must be in 2..{cfg.steps}, got {decision_step}")
    return decision_step, decision_step - 1


def step_features(i_n: np.ndarray, i_prev: np.ndarray, analysis_size: int, hf_params: HFParams) -> FeatureVector:
    """hf_diff between the decision-step image ``i_n`` and its cached
    predecessor ``i_prev``, plus the spectral hf_ratio of ``i_n`` at analysis
    resolution."""
    diff = hf_diff(i_n, i_prev, analysis_size)
    ratio = hf_ratio(resize_area(i_n, analysis_size, analysis_size), hf_params)
    return FeatureVector(hf_diff=diff, hf_ratio=ratio)
