import tracemalloc

import numpy as np
import pytest

from freqskip import features, frequency, generator, image
from freqskip.corpus import default_corpus
from freqskip.frequency import HFParams
from freqskip.generator import TraceConfig, synth_target
from freqskip.labeling import label_sample
from freqskip.pipeline import PipelineConfig

# The frozen experiment setup: trace seed 0, analysis at 128, mask radius 0.4.
FROZEN_TRACE = TraceConfig(seed=0)
FROZEN_PIPELINE = PipelineConfig(hf=HFParams(rho=0.4))
FROZEN_TAUS = (0.88, 0.86, 0.84)


@pytest.fixture(scope="session")
def frozen_corpus():
    return default_corpus(200, seed=0)


@pytest.fixture(scope="session")
def frozen_targets(frozen_corpus):
    size = FROZEN_TRACE.full_size
    return [synth_target(spec, size) for spec in frozen_corpus]


@pytest.fixture(scope="session")
def frozen_records(frozen_targets):
    """Per-sample features and per-strategy SSIM records for the 200-sample
    frozen corpus; labels for any tau derive from these."""
    return [
        label_sample(target, FROZEN_TRACE, FROZEN_PIPELINE, 0.84, sample_id=f"s{i:04d}")
        for i, target in enumerate(frozen_targets)
    ]


# bytes per MiB, the unit of the traced-peak bounds
MIB = 2**20


def traced_peak(fn) -> int:
    """Peak bytes ``tracemalloc`` traces during ``fn()``, above what was
    traced when it was called."""
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        if not was_tracing:
            tracemalloc.stop()


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture()
def step_builds(monkeypatch):
    """Step numbers passed to ``generator.step_images`` during the test."""
    built = []
    original = generator.step_images

    def counted(target, cfg, k):
        built.append(k)
        return original(target, cfg, k)

    monkeypatch.setattr(generator, "step_images", counted)
    return built


@pytest.fixture()
def area_resizes(monkeypatch):
    """(input shape, output shape, whether the input itself was returned) of
    every ``image.resize_area`` call during the test, through whichever
    module's binding the caller uses."""
    calls = []
    original = image.resize_area

    def counted(img, width, height):
        out = original(img, width, height)
        calls.append((np.shape(img), (height, width), out is img))
        return out

    for module in (image, generator, features, frequency):
        if getattr(module, "resize_area", None) is original:
            monkeypatch.setattr(module, "resize_area", counted)
    return calls
