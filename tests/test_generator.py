import dataclasses
import math

import numpy as np
import pytest

from conftest import MIB, traced_peak
from freqskip import frequency, generator, image
from freqskip.corpus import blob_corpus, default_corpus, family_b
from freqskip.frequency import HFParams, hf_ratio
from freqskip.generator import (
    DEFAULT_SCHEDULE,
    StepTrace,
    TargetSpec,
    TraceConfig,
    branch_gap,
    decode_final,
    default_cost_weights,
    step_images,
    synth_target,
)
from freqskip.image import ImageFormatError, resize_area, save_image
from freqskip.metrics import l1_mean, ssim

from oracles import hf_ratio_naive, synth_target_inline


class TestCostWeights:
    def test_late_share_exact(self):
        w = default_cost_weights()
        assert (w[-3] + w[-2] + w[-1]) == 0.69
        assert math.fsum(w) == pytest.approx(1.0, abs=1e-12)

    def test_proportional_to_squared_resolution_within_groups(self):
        w = default_cost_weights()
        r = DEFAULT_SCHEDULE
        for i in range(7):  # early group, skip the remainder-pinned last entry
            assert w[i] / w[0] == pytest.approx((r[i] / r[0]) ** 2, rel=1e-9)
        assert w[10] / w[9] == pytest.approx((r[10] / r[9]) ** 2, rel=1e-9)

    def test_schedule_longer_than_late_group(self):
        assert len(default_cost_weights((8, 16, 24, 32))) == 4
        with pytest.raises(ValueError, match="more than 3 steps"):
            default_cost_weights((8, 16, 32))


class TestTraceConfig:
    def test_defaults_valid(self):
        cfg = TraceConfig()
        assert cfg.steps == 12
        assert cfg.full_size == 256
        assert len(cfg.cost_weights) == 12

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"schedule": (8, 16, 32)},
            {"schedule": (8, 16, 24, 32, 48, 64, 96, 128, 160, 192, 224, 224)},
            {"gap_gamma": 1.0},
            {"gap_alpha": -0.1},
            {"gap_alpha": float("inf")},
            {"gap_alpha": float("nan")},
            {"guidance": float("nan")},
            {"guidance": float("inf")},
            {"seed": -1},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TraceConfig(**kwargs)

    @pytest.mark.parametrize(
        "schedule", [DEFAULT_SCHEDULE, (8, 16, 32, 64), (4, 8, 12, 16, 20, 24, 32), (16, 24, 32, 48, 64, 96, 128)]
    )
    def test_steps_and_weights_follow_schedule(self, schedule):
        cfg = TraceConfig(schedule=schedule, seed=3)
        assert cfg.steps == len(schedule)
        assert cfg.cost_weights == default_cost_weights(schedule)
        for other in (DEFAULT_SCHEDULE, (8, 16, 24, 48, 96)):
            moved = dataclasses.replace(cfg, schedule=other)
            assert moved.steps == len(other)
            assert moved.cost_weights == default_cost_weights(other)
            assert moved.seed == 3

    @pytest.mark.parametrize("name", ["steps", "cost_weights"])
    def test_derived_values_are_not_settable(self, name):
        with pytest.raises(TypeError):
            TraceConfig(**{name: getattr(TraceConfig(), name)})


class TestSynthTarget:
    def test_deterministic(self):
        spec = TargetSpec(seed=3, blobs=4, noise_amp=0.2, noise_scale=0.8)
        a = synth_target(spec, 128)
        b = synth_target(spec, 128)
        assert np.array_equal(a, b)

    def test_emitted_range(self):
        spec = TargetSpec(seed=9, blobs=5, blob_amp=0.4, sine_cycles=40.0, sine_amp=0.5, noise_amp=0.3)
        img = synth_target(spec, 64)
        assert img.min() >= 0.0 and img.max() <= 1.0

    def test_blob_recipe_low_hf(self):
        img = synth_target(TargetSpec(seed=7, blobs=3, blob_sigma=40.0, blob_amp=0.3), 256)
        assert hf_ratio(img, HFParams(rho=0.25)) < 0.1

    def test_sine_recipe_high_hf_with_oracle(self):
        # 77.3 cycles at size 128 sits far outside the rho=0.25 disc
        img = synth_target(TargetSpec(seed=5, blobs=0, sine_cycles=77.3, sine_amp=0.4, sine_angle=0.9), 128)
        value = hf_ratio(img, HFParams(rho=0.25))
        assert value > 0.5
        assert value == pytest.approx(hf_ratio_naive(img, 0.25, 1e-8), abs=1e-6)

    def test_octave_persistence_shifts_spectrum(self):
        coarse = synth_target(
            TargetSpec(seed=2, blobs=0, noise_amp=0.2, noise_scale=0.6, noise_octaves=5, noise_persistence=2.5),
            128,
        )
        fine = synth_target(
            TargetSpec(seed=2, blobs=0, noise_amp=0.2, noise_scale=0.6, noise_octaves=5, noise_persistence=0.5),
            128,
        )
        assert hf_ratio(fine) > hf_ratio(coarse)

    def test_file_backed_spec(self, tmp_path, rng):
        img = rng.random((64, 64))
        path = tmp_path / "t.f32"
        save_image(img, path, "rawf32")
        out = synth_target(TargetSpec(path=str(path)), 32)
        assert out.shape == (32, 32)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.5, 2.0])
    def test_file_backed_spec_rejects_pixels_outside_unit_range(self, tmp_path, rng, bad):
        img = rng.random((64, 64))
        img[10, 20] = bad
        path = tmp_path / "t.f32"
        save_image(img, path, "rawf32")
        with pytest.raises(ImageFormatError, match="t.f32"):
            synth_target(TargetSpec(path=str(path)), 32)

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            TargetSpec(blob_amp=1.5)
        with pytest.raises(ValueError):
            TargetSpec(noise_octaves=0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"blobs": -1},
            {"blob_sigma": 0.0},
            {"sine_cycles": -1.0},
            {"noise_scale": -0.5},
            {"noise_persistence": 0.0},
        ],
    )
    def test_invalid_spec_field_named(self, kwargs):
        (name,) = kwargs
        with pytest.raises(ValueError, match=name):
            TargetSpec(**kwargs)

    def test_size_below_one_rejected(self):
        with pytest.raises(ValueError, match="size must be >= 1"):
            synth_target(TargetSpec(), 0)


# Largest warm traced peak of one synth_target call at 256 over the first
# 12 specs of default_corpus and of family_b, in MiB: the image, the one
# term buffer, the noise field and the call's workspace.  It read 4.87 MiB
# (5.30 on family_b) when each term and octave took fresh arrays.
SYNTH_PEAK_MIB = 3.45


class TestSynthTargetInPlace:
    """The in-place procedural target equals the out-of-place form kept in
    ``synth_target_inline`` bit for bit."""

    @pytest.mark.parametrize("size", [97, 256, 300])
    @pytest.mark.parametrize("corpus", [default_corpus, family_b, blob_corpus], ids=lambda c: c.__name__)
    def test_corpus_targets(self, corpus, size):
        specs = corpus(6, seed=0)
        if corpus is family_b:
            assert any(spec.sine_amp > 0.0 for spec in specs)
        for spec in specs:
            assert np.array_equal(synth_target(spec, size), synth_target_inline(spec, size))

    @pytest.mark.parametrize("size", [16, 64])
    def test_white_noise_and_wide_octaves(self, size):
        # white noise skips the filter; at 16 the wider octaves pad by np.pad
        for spec in (
            TargetSpec(seed=3, noise_amp=0.3, noise_scale=0.0, noise_octaves=2),
            TargetSpec(seed=4, blobs=0, sine_cycles=7.3, sine_amp=0.3, noise_amp=0.2, noise_scale=2.0, noise_octaves=3),
        ):
            assert np.array_equal(synth_target(spec, size), synth_target_inline(spec, size))

    def test_peak_memory(self):
        specs = default_corpus(12, seed=0) + family_b(12, seed=0)
        synth_target(specs[0], 256)
        for spec in specs:
            assert traced_peak(lambda: synth_target(spec, 256)) <= SYNTH_PEAK_MIB * MIB


@pytest.fixture(scope="module")
def blob_target():
    return synth_target(TargetSpec(seed=7, blobs=3, blob_sigma=40.0, blob_amp=0.3), 256)


@pytest.fixture(scope="module")
def default_trace(blob_target):
    return StepTrace(blob_target, TraceConfig(seed=3))


class TestGenerateTrace:
    def test_reproducible_bit_identical(self, blob_target):
        cfg = TraceConfig(seed=11)
        t1 = StepTrace(blob_target, cfg)
        t2 = StepTrace(blob_target, cfg)
        for k in range(1, cfg.steps + 1):
            a, b = t1.step(k), t2.step(k)
            assert np.array_equal(a.cond, b.cond)
            assert np.array_equal(a.uncond, b.uncond)
            assert np.array_equal(a.combined, b.combined)

    def test_step_dimensions_and_costs(self, default_trace):
        cfg = default_trace.config
        for k in range(1, cfg.steps + 1):
            rec = default_trace.step(k)
            r = cfg.schedule[k - 1]
            assert rec.combined.shape == (r, r)

    def test_alpha_zero_branches_equal(self, blob_target):
        trace = StepTrace(blob_target, TraceConfig(seed=3, gap_alpha=0.0))
        for rec in map(trace.step, range(1, trace.config.steps + 1)):
            assert np.array_equal(rec.cond, rec.uncond)
            assert np.array_equal(rec.combined, np.clip(rec.cond, 0.0, 1.0))

    def test_guidance_one_emits_conditional(self, blob_target):
        trace = StepTrace(blob_target, TraceConfig(seed=3, guidance=1.0))
        for rec in map(trace.step, range(1, trace.config.steps + 1)):
            assert np.array_equal(rec.combined, np.clip(rec.cond, 0.0, 1.0))

    def test_combined_clamped(self, blob_target):
        trace = StepTrace(blob_target, TraceConfig(seed=3, gap_alpha=0.4))
        for rec in map(trace.step, range(1, trace.config.steps + 1)):
            assert rec.combined.min() >= 0.0 and rec.combined.max() <= 1.0

    def test_wrong_target_size(self, rng):
        with pytest.raises(ValueError):
            StepTrace(rng.random((64, 64)), TraceConfig())


class TestStepTrace:
    def test_step_built_on_first_read_until_released(self, blob_target, step_builds):
        trace = StepTrace(blob_target, TraceConfig(seed=3))
        assert step_builds == []
        first = trace.step(9)
        assert trace.step(9) is first
        assert step_builds == [9]
        trace.release(9)
        again = trace.step(9)
        assert step_builds == [9, 9]
        for a, b in ((first.cond, again.cond), (first.uncond, again.uncond), (first.combined, again.combined)):
            assert a is not b and np.array_equal(a, b)

    def test_last_conditional_branch_is_the_target(self, blob_target):
        cfg = TraceConfig(seed=3)
        assert StepTrace(blob_target, cfg).step(cfg.steps).cond is blob_target

    def test_records_equal_step_images(self, blob_target):
        cfg = TraceConfig(seed=3)
        trace = StepTrace(blob_target, cfg)
        for k in range(1, cfg.steps + 1):
            for a, b in zip(trace.step(k), step_images(blob_target, cfg, k)):
                assert np.array_equal(a, b)


class TestProcessConstants:
    """The step perturbation, the area-resize period block, the Gaussian
    filter band, the spectral-ratio mask and the bilinear tables are built
    once per process."""

    @staticmethod
    def inline_uncond(target, cfg, k):
        r = cfg.schedule[k - 1]
        noise = np.random.default_rng((cfg.seed, 1, k)).standard_normal((r, r))
        return resize_area(target, r, r) + cfg.gap_alpha * cfg.gap_gamma ** (k - 1) * generator._box3(noise)

    @pytest.mark.parametrize(
        "cfg", [TraceConfig(seed=0), TraceConfig(seed=13), TraceConfig(seed=5, gap_alpha=0.3, gap_gamma=0.45)]
    )
    def test_step_equals_inline_draw_cold_and_warm(self, blob_target, cfg):
        generator._perturbation.cache_clear()
        image._area_block.cache_clear()
        for k in (1, 8, 9, cfg.steps):
            expected = self.inline_uncond(blob_target, cfg, k)
            for _ in range(2):
                rec = step_images(blob_target, cfg, k)
                assert np.array_equal(rec.uncond, expected)
                assert np.array_equal(rec.combined, np.clip(expected + cfg.guidance * (rec.cond - expected), 0.0, 1.0))

    @pytest.mark.parametrize("change", [{"seed": 1}, {"gap_alpha": 0.2}, {"gap_gamma": 0.5}])
    def test_configs_differing_in_one_field_get_different_perturbations(self, blob_target, change):
        base = TraceConfig(seed=0)
        other = TraceConfig(**{"seed": 0, **change})
        a = step_images(blob_target, base, 9)
        b = step_images(blob_target, other, 9)
        assert np.array_equal(a.cond, b.cond)
        assert not np.array_equal(a.uncond - a.cond, b.uncond - b.cond)

    def test_alpha_zero_uncond_equals_cond_after_warm_memo(self, blob_target):
        step_images(blob_target, TraceConfig(seed=3), 9)
        rec = step_images(blob_target, TraceConfig(seed=3, gap_alpha=0.0), 9)
        assert np.array_equal(rec.uncond, rec.cond)

    def test_memoized_arrays_are_read_only(self):
        offset = generator._perturbation(0, 0.15, 0.6, 9, 160)
        block, block_t = image._area_block(256, 160)
        assert block.shape == (5, 8)  # one period: 8 input pixels to 5 outputs
        assert block_t.flags.c_contiguous and np.array_equal(block_t, block.T)
        band = image._gaussian_band(1.5, 5)
        assert band.shape == (32, 42)  # 10,752 bytes at SSIM's radius 5
        mask = frequency._hf_mask(128, 128, 0.4)
        assert mask.nbytes == 16384
        tables = image._bilinear_tables(160, 160, 256, 256)
        assert sum(t.nbytes for t in tables) == 8 * 2048  # four 256-entry tables per axis
        for arr in (offset, block, block_t, band, mask, *tables):
            with pytest.raises(ValueError):
                arr[0] = 0
        assert generator._perturbation(0, 0.15, 0.6, 9, 160) is offset
        assert image._area_block(256, 160)[0] is block
        assert image._area_block(256, 160)[1] is block_t
        assert image._gaussian_band(1.5, 5) is band
        assert frequency._hf_mask(128, 128, 0.4) is mask
        assert image._bilinear_tables(160, 160, 256, 256) is tables

    def test_returned_uncond_is_fresh_and_writable(self, blob_target):
        cfg = TraceConfig(seed=3)
        rec = step_images(blob_target, cfg, 9)
        offset = generator._perturbation(cfg.seed, cfg.gap_alpha, cfg.gap_gamma, 9, 160)
        assert rec.uncond.flags.writeable
        assert not np.shares_memory(rec.uncond, offset)
        kept = rec.uncond.copy()
        rec.uncond[:] = 0.0
        assert np.array_equal(step_images(blob_target, cfg, 9).uncond, kept)

    @pytest.mark.parametrize("gap_alpha", [0.15, 0.0])
    def test_returned_combined_is_fresh_and_writable(self, blob_target, gap_alpha):
        cfg = TraceConfig(seed=3, gap_alpha=gap_alpha)
        rec = step_images(blob_target, cfg, 9)
        assert rec.combined.flags.writeable
        assert not np.shares_memory(rec.combined, rec.cond) and not np.shares_memory(rec.combined, rec.uncond)
        kept = rec.combined.copy()
        rec.combined[:] = -1.0
        again = step_images(blob_target, cfg, 9)
        assert np.array_equal(again.combined, kept)
        assert np.array_equal(again.combined, np.clip(again.uncond + cfg.guidance * (again.cond - again.uncond), 0.0, 1.0))

    def test_bilinear_output_is_fresh_and_leaves_the_tables_alone(self, blob_target):
        # the two lerps run in place on gathered copies; a table written by
        # them would change every later upsample of the same size pair
        small = resize_area(blob_target, 160, 160)
        tables = [t.copy() for t in image._bilinear_tables(160, 160, 256, 256)]
        up = image.resize_bilinear(small, 256, 256)
        assert up.flags.writeable and up.flags.c_contiguous
        assert not any(np.shares_memory(up, t) for t in image._bilinear_tables(160, 160, 256, 256))
        kept = up.copy()
        up[:] = -1.0
        assert np.array_equal(image.resize_bilinear(small, 256, 256), kept)
        assert all(np.array_equal(a, b) for a, b in zip(image._bilinear_tables(160, 160, 256, 256), tables))


class TestBranchGap:
    def test_alpha_zero_gap_zero(self, blob_target):
        trace = StepTrace(blob_target, TraceConfig(seed=0, gap_alpha=0.0))
        assert all(branch_gap(trace, k) == 0.0 for k in range(1, 13))

    def test_strictly_decreasing_over_seeds(self, blob_target):
        for seed in range(20):
            trace = StepTrace(blob_target, TraceConfig(seed=seed))
            gaps = [branch_gap(trace, k) for k in range(1, 13)]
            assert all(a > b for a, b in zip(gaps, gaps[1:])), f"seed {seed}"

    def test_decay_ratio_near_gamma(self, blob_target):
        ratios = []
        for seed in range(10):
            trace = StepTrace(blob_target, TraceConfig(seed=seed))
            gaps = [branch_gap(trace, k) for k in range(1, 13)]
            ratios.extend(gaps[k + 1] / gaps[k] for k in range(2, 11))
        for r in ratios:
            assert abs(r - 0.6) / 0.6 < 0.2

    def test_last_below_first(self, default_trace):
        assert branch_gap(default_trace, 12) < branch_gap(default_trace, 1)

    def test_out_of_range(self, default_trace):
        with pytest.raises(ValueError):
            branch_gap(default_trace, 0)
        with pytest.raises(ValueError):
            branch_gap(default_trace, 13)


class TestDecodeFinal:
    def test_final_step_identity(self, default_trace):
        assert np.array_equal(decode_final(default_trace, 12), default_trace.final)

    def test_blob_early_stop_high_fidelity(self, default_trace):
        out = decode_final(default_trace, 9)
        assert ssim(out, default_trace.final) >= 0.95

    def test_high_frequency_target_degrades_more(self, default_trace):
        fine = synth_target(
            TargetSpec(seed=4, blobs=1, noise_amp=0.25, noise_scale=0.5, noise_octaves=4, noise_persistence=0.5),
            256,
        )
        fine_trace = StepTrace(fine, default_trace.config)
        blob_ssim = ssim(decode_final(default_trace, 9), default_trace.final)
        fine_ssim = ssim(decode_final(fine_trace, 9), fine_trace.final)
        assert fine_ssim < blob_ssim

    def test_l1_plateau_non_increasing(self, default_trace):
        l1s = [l1_mean(decode_final(default_trace, k), default_trace.final) for k in range(1, 13)]
        assert all(a >= b for a, b in zip(l1s, l1s[1:]))

    def test_ssim_monotone_interpolation_only(self, blob_target):
        trace = StepTrace(blob_target, TraceConfig(seed=3, gap_alpha=0.0))
        vals = [ssim(decode_final(trace, k), trace.final) for k in range(1, 13)]
        assert all(b >= a - 1e-4 for a, b in zip(vals, vals[1:]))

    def test_ssim_monotone_default_from_step_two(self, default_trace):
        # step 1 carries the largest perturbation (alpha * gamma**0); its dip
        # can exceed the interpolation tolerance, later steps stay monotone
        vals = [ssim(decode_final(default_trace, k), default_trace.final) for k in range(1, 13)]
        assert all(b >= a - 1e-4 for a, b in zip(vals[1:], vals[2:]))

    def test_out_of_range(self, default_trace):
        with pytest.raises(ValueError):
            decode_final(default_trace, 0)
