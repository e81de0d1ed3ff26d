"""Deterministic coarse-to-fine toy generator with guided branch pairs.

The generator emits K step images of increasing resolution.  At step k the
conditional branch is the area-downsampled target, the unconditional branch
adds a seeded, box-smoothed perturbation whose amplitude decays
geometrically with k, and the emitted image combines the branches with a
guidance factor:

    C_k = resize_area(target, r_k, r_k)
    U_k = C_k + alpha * gamma**(k-1) * box3(noise_k)      (never clamped)
    I_k = clip(U_k + g * (C_k - U_k), 0, 1)

The config has one step per schedule entry and derives normalized
per-step weights w_k from the schedule, one unit per branch, calibrated so
the last three steps carry a fixed share (0.69) of the baseline cost;
``strategies.CostModel`` prices a run with them, and the generator only
builds images.  Identical (target, config) pairs always produce
bit-identical traces.

A procedural target (:func:`synth_target`) is built in place with the bits
of its out-of-place formulas: each blob and the sinusoid are broadcast from
(size, 1) and (1, size) coordinate vectors into one full-size term buffer,
each noise octave is drawn into that buffer and filtered there, through one
``image.Workspace`` per call that is freed on return, and every term is
added into the image or the noise field in place.  At 256 x 256 that is
five full-size arrays at most (image, term, field and the workspace's pad
and rows), ~3.4 MiB traced.

A :class:`StepTrace` is one sample's run: it builds step k on first read,
holds it until released, and is the one place features, emitted outputs,
the baseline and labels read their steps from.

Three constants depend on no sample, so each is built once per process
and kept, read-only, for the life of the process: the perturbation
``alpha * gamma**(k-1) * box3(noise_k)``, keyed on (seed, alpha, gamma, k,
r_k), ``image._area_block``, the overlap weights of one period of an
area resize, and ``image._bilinear_tables``, the gather indices and
weights of an upsample, both per (input, output) size pair.  All 12
perturbations of one default config take ~1.7 MB (the sum of r_k**2
float64 values); the blocks for the default schedule and analysis size,
each kept with a C-ordered copy of its transpose, take ~6 KB, and the
tables 16 KB per upsample size pair.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .image import ImageFormatError, Workspace, gaussian_filter, load_image, require_gray, resize_area, resize_bilinear
from .image import to_grayscale

DEFAULT_SCHEDULE = (8, 16, 24, 32, 48, 64, 96, 128, 160, 192, 224, 256)
LATE_STEPS = 3
LATE_COST_SHARE = 0.69

_TARGET_STREAM = 0
_NOISE_STREAM = 1


def default_cost_weights(schedule: tuple[int, ...] = DEFAULT_SCHEDULE) -> tuple[float, ...]:
    """Per-step cost weights: proportional to r_k**2 within the early steps
    and the last :data:`LATE_STEPS`, each group rescaled so the late group
    sums to :data:`LATE_COST_SHARE` exactly.
    """
    if len(schedule) <= LATE_STEPS:
        raise ValueError(f"schedule must have more than {LATE_STEPS} steps, got {len(schedule)}")

    def scaled(group: list[int], total: float) -> list[float]:
        sq = [float(r) * r for r in group]
        s = math.fsum(sq)
        w = [total * v / s for v in sq]
        # pin the group sum exactly by assigning the remainder to the last entry
        w[-1] = total - math.fsum(w[:-1])
        return w

    early = scaled(list(schedule[:-LATE_STEPS]), 1.0 - LATE_COST_SHARE)
    late = scaled(list(schedule[-LATE_STEPS:]), LATE_COST_SHARE)
    return tuple(early + late)


@dataclass(frozen=True)
class TraceConfig:
    """Shape of the toy generation process and its cost model.

    The run has one step per ``schedule`` entry, so ``steps`` is
    ``len(schedule)``, and its cost weights are
    ``default_cost_weights(schedule)``, computed once per config.
    """

    schedule: tuple[int, ...] = DEFAULT_SCHEDULE
    guidance: float = 2.0
    gap_alpha: float = 0.15
    gap_gamma: float = 0.6
    seed: int = 0
    cost_weights: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.schedule) < 4:
            raise ValueError(f"schedule must have >= 4 steps, got {len(self.schedule)}")
        if any(b <= a for a, b in zip(self.schedule, self.schedule[1:])) or self.schedule[0] < 1:
            raise ValueError("schedule must be strictly increasing and positive")
        if not 0.0 < self.gap_gamma < 1.0:
            raise ValueError(f"gap_gamma must be in (0, 1), got {self.gap_gamma}")
        if not 0.0 <= self.gap_alpha < math.inf:
            raise ValueError(f"gap_alpha must be finite and >= 0, got {self.gap_alpha}")
        if not math.isfinite(self.guidance):
            raise ValueError(f"guidance must be finite, got {self.guidance}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        object.__setattr__(self, "cost_weights", default_cost_weights(self.schedule))

    @property
    def steps(self) -> int:
        return len(self.schedule)

    @property
    def full_size(self) -> int:
        return self.schedule[-1]


@dataclass(frozen=True)
class TargetSpec:
    """Recipe for a synthetic target image (or a path to load one from).

    Procedural targets are built from a mid-gray base plus Gaussian blobs, an
    optional oriented sinusoid (cycles measured across the full image), and
    optional noise, then clipped to [0, 1].  ``noise_scale`` low-pass filters
    the noise field (Gaussian blur sigma in pixels, 0 keeps it white); the
    filtered field is rescaled to unit RMS so ``noise_amp`` sets its strength
    regardless of bandwidth.
    """

    path: str | None = None
    seed: int = 0
    blobs: int = 3
    blob_sigma: float = 30.0
    blob_amp: float = 0.3
    sine_cycles: float = 0.0
    sine_amp: float = 0.0
    sine_angle: float = 0.0
    noise_amp: float = 0.0
    noise_scale: float = 0.0
    noise_octaves: int = 1
    noise_persistence: float = 1.0

    def __post_init__(self) -> None:
        if self.path is None:
            if self.blobs < 0:
                raise ValueError(f"blobs must be >= 0, got {self.blobs}")
            if self.blob_sigma <= 0.0:
                raise ValueError(f"blob_sigma must be positive, got {self.blob_sigma}")
            for name in ("blob_amp", "sine_amp", "noise_amp"):
                v = getattr(self, name)
                if not 0.0 <= v <= 1.0:
                    raise ValueError(f"{name} must be in [0, 1], got {v}")
            if self.sine_cycles < 0.0:
                raise ValueError(f"sine_cycles must be >= 0, got {self.sine_cycles}")
            if self.noise_scale < 0.0:
                raise ValueError(f"noise_scale must be >= 0, got {self.noise_scale}")
            if self.noise_octaves < 1:
                raise ValueError(f"noise_octaves must be >= 1, got {self.noise_octaves}")
            if self.noise_persistence <= 0.0:
                raise ValueError(f"noise_persistence must be positive, got {self.noise_persistence}")


def synth_target(spec: TargetSpec, size: int) -> np.ndarray:
    """Materialize a target image of the given square size.

    File-backed specs are loaded (and grayscaled/resized if needed); a file
    with a non-finite pixel or one outside [0, 1] raises ImageFormatError.
    Procedural specs are deterministic in (spec, seed).
    """
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    if spec.path is not None:
        img = load_image(spec.path)
        if not np.isfinite(img).all():
            raise ImageFormatError(f"{spec.path}: target has non-finite pixels")
        if img.min() < 0.0 or img.max() > 1.0:
            raise ImageFormatError(f"{spec.path}: target pixels span [{img.min()}, {img.max()}], outside [0, 1]")
        if img.ndim == 3:
            img = to_grayscale(img)
        if img.shape[0] >= size and img.shape[1] >= size:
            return resize_area(img, size, size)
        return resize_bilinear(img, size, size)
    rng = np.random.default_rng((spec.seed, _TARGET_STREAM))
    # (size, 1) and (1, size) coordinates: each full-size term broadcasts
    # from them into ``term``, with the bits of full meshgrid arrays
    y = np.arange(size, dtype=np.float64)[:, None]
    x = np.arange(size, dtype=np.float64)[None, :]
    img = np.full((size, size), 0.5)
    term = np.empty((size, size))
    for i in range(spec.blobs):
        cy = rng.uniform(0.15, 0.85) * size
        cx = rng.uniform(0.15, 0.85) * size
        sig = spec.blob_sigma * rng.uniform(0.6, 1.4)
        amp = spec.blob_amp * rng.uniform(0.5, 1.0) * (1.0 if i % 2 == 0 else -1.0)
        # amp * exp(-d2 / (2 sig^2)), d2 the squared distance to the centre
        np.add((y - cy) ** 2, (x - cx) ** 2, out=term)
        np.negative(term, out=term)
        term /= 2.0 * sig * sig
        np.exp(term, out=term)
        term *= amp
        img += term
    if spec.sine_amp > 0.0 and spec.sine_cycles > 0.0:
        phase = rng.uniform(0.0, 2.0 * np.pi)
        # sine_amp * sin(2 pi cycles u / size + phase), u the position along the angle
        np.add(x * np.cos(spec.sine_angle), y * np.sin(spec.sine_angle), out=term)
        term *= 2.0 * np.pi * spec.sine_cycles
        term /= size
        term += phase
        np.sin(term, out=term)
        term *= spec.sine_amp
        img += term
    if spec.noise_amp > 0.0:
        # every octave is drawn into ``term`` and filtered there
        work = Workspace()
        field = np.zeros((size, size))
        for octave in range(spec.noise_octaves):
            rng.standard_normal(out=term)
            sigma = spec.noise_scale * (2.0**octave)
            if sigma > 0.0:
                gaussian_filter(term, sigma, max(1, int(math.ceil(3.0 * sigma))), out=term, work=work)
            rms = float(np.sqrt(np.mean(np.multiply(term, term, out=work.get("rows", term.shape)))))
            term *= spec.noise_persistence**octave / rms
            field += term
        field_rms = float(np.sqrt(np.mean(np.multiply(field, field, out=term))))
        field *= spec.noise_amp
        field /= field_rms
        img += field
    return np.clip(img, 0.0, 1.0, out=img)


def _box3(x: np.ndarray) -> np.ndarray:
    p = np.pad(x, 1, mode="edge")
    acc = p[:-2, :-2] + p[:-2, 1:-1] + p[:-2, 2:]
    acc = acc + p[1:-1, :-2] + p[1:-1, 1:-1] + p[1:-1, 2:]
    acc = acc + p[2:, :-2] + p[2:, 1:-1] + p[2:, 2:]
    return acc / 9.0


@functools.lru_cache(maxsize=None)
def _perturbation(seed: int, gap_alpha: float, gap_gamma: float, k: int, r: int) -> np.ndarray:
    """The unconditional branch's offset at step k, ``alpha * gamma**(k-1) *
    box3(noise_k)``; it depends on no sample, so it is built once per process
    and key, and is read-only."""
    noise = np.random.default_rng((seed, _NOISE_STREAM, k)).standard_normal((r, r))
    offset = gap_alpha * gap_gamma ** (k - 1) * _box3(noise)
    offset.flags.writeable = False
    return offset


class StepRecord(NamedTuple):
    cond: np.ndarray
    uncond: np.ndarray
    combined: np.ndarray


def step_images(target: np.ndarray, cfg: TraceConfig, k: int) -> StepRecord:
    """Conditional, unconditional, and combined images for step k (1-based).

    The combined image is clamped to [0, 1]; the branches are not.
    """
    if not 1 <= k <= cfg.steps:
        raise ValueError(f"step {k} out of range 1..{cfg.steps}")
    r = cfg.schedule[k - 1]
    cond = resize_area(target, r, r)
    uncond = cond + _perturbation(cfg.seed, cfg.gap_alpha, cfg.gap_gamma, k, r)
    # uncond + g * (cond - uncond) in one fresh buffer; the sum is commutative,
    # so adding uncond last gives the same bits
    combined = cond - uncond
    combined *= cfg.guidance
    combined += uncond
    np.clip(combined, 0.0, 1.0, out=combined)
    return StepRecord(cond, uncond, combined)


class StepTrace:
    """One sample's generator steps, each built on its first read and kept
    until the caller releases it.

    Every consumer of a sample (features, emitted outputs, baseline, labels)
    reads its steps from one trace, so each step it needs is built once.
    The target must be a 2-D ``full_size`` square.
    """

    def __init__(self, target: np.ndarray, config: TraceConfig) -> None:
        target = require_gray(target, "target")
        size = config.full_size
        if target.shape != (size, size):
            raise ValueError(f"target must be {size}x{size} for this config, got {target.shape}")
        self.target = target
        self.config = config
        self._built: dict[int, StepRecord] = {}

    def step(self, k: int) -> StepRecord:
        """Step k (1-based), built through :func:`step_images` unless held."""
        rec = self._built.get(k)
        if rec is None:
            rec = self._built[k] = step_images(self.target, self.config, k)
        return rec

    def release(self, k: int) -> None:
        """Drop step k; a later read rebuilds it."""
        self._built.pop(k, None)

    @property
    def final(self) -> np.ndarray:
        return self.step(self.config.steps).combined


def branch_gap(trace: StepTrace, k: int) -> float:
    """Mean absolute difference between the branch images at step k."""
    rec = trace.step(k)
    return float(np.mean(np.abs(rec.cond - rec.uncond)))


def decode_final(trace: StepTrace, stop_step: int, replaced: bool = False) -> np.ndarray:
    """Full-resolution output if generation stops at stop_step.

    The emitted image is the stop step's combined image, or its clipped
    conditional branch when the unconditional branch is ``replaced``,
    bilinear-upsampled to full size; at stop_step = K it already is that
    size and is returned as it is.
    """
    rec = trace.step(stop_step)
    out = np.clip(rec.cond, 0.0, 1.0) if replaced else rec.combined
    size = trace.config.full_size
    return resize_bilinear(out, size, size)
