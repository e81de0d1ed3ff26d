import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import FROZEN_TRACE
from freqskip.frequency import sobel_magnitude
from freqskip.generator import StepTrace, decode_final, synth_target
from freqskip.metrics import HF_MASK_QUANTILE, SsimParams, _hf_cutoff, hf_mean, l1_mean, ssim, ssim_hf, ssim_map
from freqskip.metrics import ssim_maps

from oracles import l1_naive, quantile_naive, ssim_hf_naive, ssim_map_inline, ssim_map_naive

unit_floats = st.floats(0.0, 1.0, allow_nan=False, width=64)


class TestSsimMap:
    def test_identical_inputs_all_ones(self, rng):
        img = rng.random((16, 16))
        assert np.array_equal(ssim_map(img, img.copy()), np.ones((16, 16)))

    def test_constant_pair_closed_form(self):
        a = np.full((16, 16), 0.5)
        b = np.full((16, 16), 0.6)
        expected = (2 * 0.5 * 0.6 + 1e-4) / (0.25 + 0.36 + 1e-4)
        smap = ssim_map(a, b)
        assert np.allclose(smap, expected, atol=1e-9)

    def test_matches_window_oracle(self, rng):
        a, b = rng.random((16, 16)), rng.random((16, 16))
        assert np.abs(ssim_map(a, b) - ssim_map_naive(a, b)).max() < 1e-9

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            ssim_map(rng.random((16, 16)), rng.random((16, 17)))

    def test_too_small_for_window(self, rng):
        with pytest.raises(ValueError):
            ssim_map(rng.random((8, 8)), rng.random((8, 8)))  # default window 11


class TestSsimMaps:
    def test_equals_one_map_per_image(self, rng):
        ref = rng.random((24, 20))
        images = [rng.random((24, 20)), np.clip(ref + 0.05 * rng.random((24, 20)), 0.0, 1.0), ref.copy()]
        maps = list(ssim_maps(ref, images))
        assert len(maps) == 3
        assert np.array_equal(maps, [ssim_map(ref, b) for b in images])
        assert np.array_equal(maps[2], np.ones((24, 20)))

    def test_lazy_over_a_generator(self, rng):
        ref = rng.random((16, 16))
        drawn = []

        def images():
            for _ in range(3):
                drawn.append(rng.random((16, 16)))
                yield drawn[-1]

        maps = ssim_maps(ref, images())
        assert drawn == []
        first = next(maps)
        assert len(drawn) == 1 and np.array_equal(first, ssim_map(ref, drawn[0]))
        assert len(list(maps)) == 2

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            ssim_maps(rng.random((8, 8)), [])  # smaller than the window
        with pytest.raises(ValueError):
            list(ssim_maps(rng.random((16, 16)), [rng.random((16, 16)), rng.random((16, 17))]))


class TestSsim:
    def test_self_similarity_exactly_one(self, rng):
        img = rng.random((20, 20))
        assert ssim(img, img.copy()) == 1.0

    def test_constant_pair(self):
        a = np.full((16, 16), 0.5)
        b = np.full((16, 16), 0.6)
        expected = (2 * 0.5 * 0.6 + 1e-4) / (0.25 + 0.36 + 1e-4)
        assert ssim(a, b) == pytest.approx(expected, abs=1e-9)

    def test_deterministic(self, rng):
        a, b = rng.random((24, 24)), rng.random((24, 24))
        assert ssim(a, b) == ssim(a, b)

    @given(
        a=hnp.arrays(np.float64, (13, 13), elements=unit_floats),
        b=hnp.arrays(np.float64, (13, 13), elements=unit_floats),
    )
    @settings(max_examples=25, deadline=None)
    def test_symmetric_and_bounded(self, a, b):
        v1 = ssim(a, b)
        v2 = ssim(b, a)
        assert v1 == pytest.approx(v2, abs=1e-9)
        assert -1.0 <= v1 <= 1.0 + 1e-12


class TestSsimHf:
    def test_identical_is_one(self, rng):
        img = rng.random((16, 16))
        assert ssim_hf(img, img.copy()) == 1.0

    def test_flat_reference_falls_back_to_plain_ssim(self, rng):
        a = np.full((16, 16), 0.5)
        b = rng.random((16, 16))
        assert ssim_hf(a, b) == pytest.approx(ssim(a, b), abs=1e-12)

    def test_blur_hurts_hf_more_than_plain(self):
        # smooth ramp on the left, 2x2 blocks on the right; blur flattens the
        # blocks but leaves the ramp nearly exact, so the high-frequency mask
        # concentrates on the damaged half
        yy, xx = np.indices((32, 32))
        img = 0.3 + 0.4 * xx / 31.0
        blocks = 0.5 + 0.45 * ((-1.0) ** (xx // 2 + yy // 2))
        img[:, 16:] = blocks[:, 16:]
        p = np.pad(img, 2, mode="edge")
        blurred = np.zeros_like(img)
        for dy in range(5):
            for dx in range(5):
                blurred += p[dy : dy + 32, dx : dx + 32]
        blurred /= 25.0
        assert ssim_hf(img, blurred) < ssim(img, blurred)

    def test_matches_masked_oracle(self, rng):
        a, b = rng.random((16, 16)), rng.random((16, 16))
        assert ssim_hf(a, b) == pytest.approx(ssim_hf_naive(a, b), abs=1e-9)

    def test_quantile_mask_size(self, rng):
        img = rng.random((20, 20))
        sob, cutoff = check_hf_mean(rng.random((20, 20)), img)
        q = HF_MASK_QUANTILE
        n_selected = int((sob >= cutoff).sum())
        ties = int((sob == cutoff).sum())
        target = (1 - q) * sob.size
        assert target - ties - 1 <= n_selected <= target + ties + 1

    def test_values_of_another_shape_rejected(self):
        with pytest.raises(ValueError, match=r"\(4, 4\).*\(8, 8\)"):
            hf_mean(np.zeros((4, 4)), np.zeros((8, 8)))

    def test_params_validated(self):
        with pytest.raises(ValueError):
            SsimParams(window=4)
        with pytest.raises(ValueError):
            SsimParams(k1=0.0)
        with pytest.raises(ValueError, match="sigma must be positive"):
            SsimParams(sigma=0.0)


def check_cutoff(sob):
    """Check that ``hf_mean``'s cutoff is ``np.quantile(sob, HF_MASK_QUANTILE)``
    bit for bit, NaN included; returns it."""
    with np.errstate(invalid="ignore"):
        cutoff = np.quantile(sob, HF_MASK_QUANTILE)
        assert np.array_equal(_hf_cutoff(sob), cutoff, equal_nan=True)
    return cutoff


def check_hf_mean(values, ref):
    """Check that ``hf_mean(values, ref)`` is the mean over
    ``sob >= np.quantile(sob, HF_MASK_QUANTILE)`` (the plain mean when the
    mask is empty) for ``values`` as given and as float32, Fortran-ordered
    and strided arrays, that the cutoff is ``np.quantile``'s bits, and that
    it agrees with ``quantile_naive``; returns the Sobel map and the cutoff."""
    sob = sobel_magnitude(ref)
    cutoff = check_cutoff(sob)
    mask = sob >= cutoff
    strided = np.repeat(values, 2, axis=1)[:, ::2]
    for v in (values, values.astype(np.float32), np.asfortranarray(values), strided):
        assert hf_mean(v, ref) == float(np.mean(v[mask] if mask.any() else v))
    assert cutoff == pytest.approx(quantile_naive(sob.ravel().tolist(), HF_MASK_QUANTILE), abs=1e-12)
    return sob, cutoff


class TestHfCutoff:
    """``hf_mean`` masks at ``np.quantile(sob, HF_MASK_QUANTILE)``, which
    ``_hf_cutoff`` takes from one partition; ``quantile_naive`` checks the
    value numpy interpolates to."""

    @pytest.mark.parametrize(
        "shape, position",
        [((3, 3), 6.0), ((4, 4), 11.25), ((3, 5), 10.5), ((3, 6), 12.75)],
        ids=["frac0", "frac25", "frac50", "frac75"],
    )
    def test_fractional_positions(self, rng, shape, position):
        assert (shape[0] * shape[1] - 1) * HF_MASK_QUANTILE == position
        for _ in range(20):
            check_hf_mean(rng.random(shape), rng.random(shape))

    def test_tied_maps(self, rng):
        two_level = np.zeros((12, 12))
        two_level[:, 6:] = 1.0
        for img in (np.full((12, 12), 0.4), two_level):
            check_hf_mean(rng.random((12, 12)), img)

    def test_nan_map_gives_nan_and_the_plain_mean(self, rng):
        ref = rng.random((9, 9))
        ref[4, 4] = np.nan
        assert np.isnan(check_cutoff(sobel_magnitude(ref)))
        values = rng.random((9, 9))
        assert hf_mean(values, ref) == float(np.mean(values))

    def test_nans_past_the_top_quartile(self, rng):
        ref = rng.random((12, 12))
        ref[:, ::2] = np.nan
        sob = sobel_magnitude(ref)
        assert np.isnan(sob).mean() > 1.0 - HF_MASK_QUANTILE
        assert np.isnan(check_cutoff(sob))
        values = rng.random((12, 12))
        assert hf_mean(values, ref) == float(np.mean(values))

    def test_inf_in_the_reference(self, rng):
        ref = rng.random((9, 9))
        ref[4, 4] = np.inf
        sob = sobel_magnitude(ref)
        assert np.isinf(sob).any() and not np.isnan(sob).any()
        values = rng.random((9, 9))
        assert hf_mean(values, ref) == float(np.mean(values[sob >= check_cutoff(sob)]))

    @pytest.mark.parametrize("size", [9, 16, 15, 18], ids=["frac0", "frac25", "frac50", "frac75"])
    def test_inf_at_each_order_statistic(self, rng, size):
        # an inf above the cutoff's upper order statistic, and infs from it
        # up, where numpy's interpolation reads NaN at an exact position
        # (inf * 0) and past the half (inf - inf), and inf between
        for n_inf in (1, size - int((size - 1) * HF_MASK_QUANTILE) - 1):
            sob = rng.random(size)
            sob[rng.permutation(size)[:n_inf]] = np.inf
            check_cutoff(sob)

    def test_frozen_final_images(self, frozen_corpus):
        for spec in frozen_corpus[:8]:
            target = synth_target(spec, FROZEN_TRACE.full_size)
            final = StepTrace(target, FROZEN_TRACE).final
            check_hf_mean(ssim_map(final, target), final)


class TestSsimBitPins:
    """The in-place SSIM equals the out-of-place expression kept in
    ``ssim_map_inline`` bit for bit."""

    def test_frozen_outputs_against_their_finals(self, frozen_targets):
        for target in frozen_targets[:6]:
            trace = StepTrace(target, FROZEN_TRACE)
            final = trace.final
            outputs = [decode_final(trace, 9), decode_final(trace, 11), decode_final(trace, 12, True)]
            for out, smap in zip(outputs, ssim_maps(final, outputs)):
                assert np.array_equal(smap, ssim_map_inline(final, out))

    @pytest.mark.parametrize("shape", [(63, 64), (64, 65), (65, 63), (129, 64), (11, 129), (129, 129)])
    def test_odd_and_non_square_shapes(self, rng, shape):
        a = rng.random(shape)
        for b in (rng.random(shape), np.clip(a + 0.05 * rng.standard_normal(shape), 0.0, 1.0)):
            assert np.array_equal(ssim_map(a, b), ssim_map_inline(a, b))


class TestWorkspaceSafety:
    """The scoring kernels share one workspace per thread, and every array
    they return is fresh."""

    def test_returned_arrays_survive_later_calls(self, rng):
        a, b = rng.random((64, 64)), rng.random((64, 64))
        smap = ssim_map(a, b)
        kept_map = smap.copy()
        sob = sobel_magnitude(a)
        kept_sob = sob.copy()
        for _ in range(2):
            other = rng.random((64, 64))
            ssim_map(other, b)
            sobel_magnitude(other)
            check_hf_mean(smap, a)
            hf_mean(smap, other)
        ssim_map(rng.random((129, 65)), rng.random((129, 65)))
        assert np.array_equal(smap, kept_map) and np.array_equal(smap, ssim_map_inline(a, b))
        assert np.array_equal(sob, kept_sob)

    def test_interleaved_generators_yield_the_serial_maps(self, rng):
        refs = [rng.random((64, 64)), rng.random((65, 63))]
        images = [[rng.random(r.shape) for _ in range(3)] for r in refs]
        # copied as yielded, so each is the map as it was handed back
        serial = [[m.copy() for m in ssim_maps(r, imgs)] for r, imgs in zip(refs, images)]
        held = []
        for first, second in zip(ssim_maps(refs[0], images[0]), ssim_maps(refs[1], images[1])):
            held += [first, second]
        assert len(held) == 6
        assert all(np.array_equal(m, s) for m, s in zip(held, [m for pair in zip(*serial) for m in pair]))
        assert np.array_equal(held[0], ssim_map_inline(refs[0], images[0][0]))

    def test_threads_at_once_get_the_single_thread_bits(self, rng):
        # more threads than the 2 cores this suite is timed on
        refs = [rng.random((96, 96)), rng.random((80, 112)), rng.random((64, 65))]
        images = [[rng.random(r.shape) for _ in range(3)] for r in refs]

        def score(k):
            maps = list(ssim_maps(refs[k], images[k]))
            return [m.tobytes() for m in maps] + [hf_mean(m, refs[k]) for m in maps]

        expected = [score(k) for k in range(len(refs))]
        results = [[] for _ in refs]
        start = threading.Barrier(len(refs))

        def worker(k):
            start.wait()
            for _ in range(15):
                results[k].append(score(k))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(len(refs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for k in range(len(refs)):
            assert len(results[k]) == 15
            assert all(r == expected[k] for r in results[k])


class TestL1Mean:
    def test_identical_zero(self, rng):
        img = rng.random((8, 8))
        assert l1_mean(img, img.copy()) == 0.0

    def test_constant_gap(self):
        assert l1_mean(np.zeros((5, 5)), np.ones((5, 5))) == 1.0

    def test_matches_loop_oracle(self, rng):
        a, b = rng.random((9, 11)), rng.random((9, 11))
        assert l1_mean(a, b) == pytest.approx(l1_naive(a, b), abs=1e-15)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            l1_mean(rng.random((4, 4)), rng.random((5, 4)))
