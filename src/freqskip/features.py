"""Decision-step feature extraction shared by labeling and the run loop.

Both indicators are computed from the combined images the generator emits at
the decision step and the step before it, area-downsampled once to a common
analysis resolution.  :func:`step_features` reads those two steps from a
sample's :class:`~freqskip.generator.StepTrace`, so labeling and the run
loop reuse the decision step for their outputs and training features match
what the run loop sees at inference time bit for bit.
"""

from __future__ import annotations

import numpy as np

from .decision import FeatureVector
from .frequency import HFParams, hf_diff, hf_ratio
from .generator import StepTrace, TraceConfig
from .image import resize_area


def decision_features(
    target: np.ndarray,
    cfg: TraceConfig,
    decision_step: int,
    analysis_size: int,
    hf_params: HFParams,
) -> FeatureVector:
    """:func:`step_features` on a fresh trace of ``target``."""
    return step_features(StepTrace(target, cfg), decision_step, analysis_size, hf_params)


def step_features(trace: StepTrace, decision_step: int, analysis_size: int, hf_params: HFParams) -> FeatureVector:
    """hf_diff between the decision-step image and its predecessor, plus the
    spectral hf_ratio of the decision-step image, both at analysis
    resolution.

    The predecessor step is released once the features are computed: no
    output key reads a step before the decision step.
    """
    if not 2 <= decision_step <= trace.config.steps:
        raise ValueError(f"decision_step must be in 2..{trace.config.steps}, got {decision_step}")
    size = analysis_size
    i_n, i_prev = (resize_area(trace.step(k).combined, size, size) for k in (decision_step, decision_step - 1))
    feats = FeatureVector(hf_diff=hf_diff(i_n, i_prev, analysis_size), hf_ratio=hf_ratio(i_n, hf_params))
    trace.release(decision_step - 1)
    return feats
