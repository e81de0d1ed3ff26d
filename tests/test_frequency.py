import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import FROZEN_PIPELINE, FROZEN_TRACE
from freqskip import frequency
from freqskip.frequency import HF_EPSILON, HFParams, dft2, hf_diff, hf_ratio, sobel_magnitude
from freqskip.generator import step_images
from freqskip.image import resize_area

from oracles import dft2_naive, hf_diff_naive, hf_ratio_naive, sobel_naive

unit_floats = st.floats(0.0, 1.0, allow_nan=False, width=64)


def checkerboard(n):
    return ((np.indices((n, n)).sum(axis=0) % 2 == 0).astype(np.float64) * 2.0) - 1.0


class TestSobel:
    def test_constant_is_zero(self):
        assert np.array_equal(sobel_magnitude(np.full((6, 6), 0.3)), np.zeros((6, 6)))

    def test_horizontal_ramp_interior(self):
        ramp = np.tile(np.arange(5) / 4.0, (5, 1))
        mag = sobel_magnitude(ramp)
        assert mag[1:4, 1:4] == pytest.approx(2.0)

    def test_transpose_symmetry(self, rng):
        img = rng.random((7, 9))
        assert np.allclose(sobel_magnitude(img.T), sobel_magnitude(img).T, atol=1e-12)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            sobel_magnitude(np.zeros((2, 5)))

    @given(img=hnp.arrays(np.float64, (6, 6), elements=unit_floats))
    @settings(max_examples=25, deadline=None)
    def test_matches_naive_oracle(self, img):
        assert np.allclose(sobel_magnitude(img), sobel_naive(img), atol=1e-12)


class TestDft2:
    def test_constant_all_energy_at_dc(self):
        mag = np.abs(dft2(np.full((8, 8), 0.3)))
        assert mag[0, 0] == pytest.approx(0.3 * 64)
        assert mag.sum() - mag[0, 0] == pytest.approx(0.0, abs=1e-9)

    def test_parseval_16(self, rng):
        img = rng.random((16, 16))
        coeffs = dft2(img)
        lhs = float((np.abs(coeffs) ** 2).sum())
        rhs = 256.0 * float((img**2).sum())
        assert abs(lhs - rhs) / rhs < 1e-6

    def test_checkerboard_single_nyquist_bin(self):
        coeffs = dft2(checkerboard(16))
        mag = np.abs(coeffs)
        assert mag[8, 8] == pytest.approx(256.0)
        assert mag.sum() == pytest.approx(256.0)

    def test_fft_matches_direct_dft_on_pow2(self, rng):
        img = rng.random((32, 32))
        ours = dft2(img)
        ref = dft2_naive(img)
        assert np.abs(ours - ref).max() < 1e-5

    def test_non_pow2_sizes(self, rng):
        img = rng.random((6, 12))
        ours = dft2(img)
        ref = dft2_naive(img)
        assert np.abs(ours - ref).max() < 1e-8


class TestHfRatio:
    def test_constant_near_zero(self):
        assert hf_ratio(np.full((32, 32), 0.7)) <= 1e-6

    def test_checkerboard_high(self):
        assert hf_ratio(checkerboard(128), HFParams(rho=0.25)) >= 0.999

    def test_gaussian_blob_matches_oracle(self):
        yy, xx = np.indices((128, 128))
        img = np.exp(-((yy - 64.0) ** 2 + (xx - 64.0) ** 2) / (2 * 20.0**2))
        params = HFParams(rho=0.25)
        assert hf_ratio(img, params) == pytest.approx(
            hf_ratio_naive(img, params.rho, HF_EPSILON), abs=1e-6
        )

    @given(img=hnp.arrays(np.float64, (12, 12), elements=unit_floats), scale=st.floats(0.1, 50.0))
    @settings(max_examples=25, deadline=None)
    def test_positive_scale_invariance(self, img, scale):
        # the property holds where the epsilon stabilizer is negligible: with
        # spectral magnitude sum S >= 1e8 * epsilon, even the 0.1-scaled draw
        # moves the ratio by at most ~1e-7 (see test_epsilon_damps_near_zero_energy)
        assume(np.abs(dft2(img)).sum() >= 1e8 * HF_EPSILON)
        base = hf_ratio(img)
        scaled = hf_ratio(img * scale)
        assert scaled == pytest.approx(base, abs=1e-6)

    @given(img=hnp.arrays(np.float64, (16, 16), elements=unit_floats))
    @settings(max_examples=25, deadline=None)
    def test_monotone_in_rho(self, img):
        rhos = (0.1, 0.25, 0.4, 0.6, 0.8)
        vals = [hf_ratio(img, HFParams(rho=r)) for r in rhos]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_epsilon_damps_near_zero_energy(self):
        # a v-valued impulse has |F| = v in all N bins, so the ratio is
        # n_high * v / (N * v + epsilon): scale-invariant only while N * v
        # dwarfs epsilon, and pulled towards 0 below it
        params = HFParams()
        img = np.zeros((12, 12))
        img[0, 0] = 1.0
        n = img.size
        n_high = hf_ratio(img, params) * (n + HF_EPSILON)
        for v in (1e-13, 1e-11, 1e-10, 1e-9, 1e-6, 1.0):
            assert hf_ratio(img * v, params) == pytest.approx(n_high * v / (n * v + HF_EPSILON), rel=1e-9)
        assert hf_ratio(img * 1e-13, params) < 1e-2 * hf_ratio(img, params)
        assert abs(hf_ratio(img * 1e-10, params) - hf_ratio(img * 1e-11, params)) > 1e-6

    def test_params_validated(self):
        with pytest.raises(ValueError):
            HFParams(rho=1.5)


class TestHfDiff:
    def test_identical_images_zero(self, rng):
        img = rng.random((16, 16))
        assert hf_diff(img, img.copy(), 8) == 0.0

    def test_two_constants_zero(self):
        a = np.full((12, 12), 0.2)
        b = np.full((12, 12), 0.9)
        assert hf_diff(a, b, 8) == pytest.approx(0.0, abs=1e-12)

    def test_ramp_vs_checkerboard_matches_oracle(self):
        ramp = np.tile(np.arange(64) / 63.0, (64, 1))
        bumpy = np.clip(ramp + 0.1 * checkerboard(64), 0.0, 1.0)
        ours = hf_diff(ramp, bumpy, 16)
        ref = hf_diff_naive(ramp, bumpy, 16)
        assert ours == pytest.approx(ref, abs=1e-9)

    def test_symmetric_and_deterministic(self, rng):
        a, b = rng.random((20, 20)), rng.random((20, 20))
        assert hf_diff(a, b, 10) == hf_diff(b, a, 10)
        assert hf_diff(a, b, 10) == hf_diff(a, b, 10)

    def test_analysis_size_validated(self, rng):
        with pytest.raises(ValueError):
            hf_diff(rng.random((8, 8)), rng.random((8, 8)), 2)


class TestAnalysisPath:
    def test_downsample_then_ratio_deterministic(self, rng):
        img = rng.random((64, 64))
        small = resize_area(img, 32, 32)
        assert hf_ratio(small) == hf_ratio(resize_area(img, 32, 32))


def sobel_inline(img):
    """The three-term Sobel expression, kept to pin sobel_magnitude's bits."""
    p = np.pad(img, 1, mode="edge")
    gx = (p[:-2, 2:] - p[:-2, :-2]) + 2.0 * (p[1:-1, 2:] - p[1:-1, :-2]) + (p[2:, 2:] - p[2:, :-2])
    gy = (p[2:, :-2] - p[:-2, :-2]) + 2.0 * (p[2:, 1:-1] - p[:-2, 1:-1]) + (p[2:, 2:] - p[:-2, 2:])
    return np.sqrt(gx * gx + gy * gy)


def hf_ratio_shifted(img, rho):
    """The ratio over the full shifted spectrum, with its disc mask built in
    the call; hf_ratio's half-spectrum sums equal its sums up to rounding."""
    h, w = img.shape
    mag = np.abs(np.fft.fftshift(np.fft.fft2(img)))
    yy = np.arange(h)[:, None] - h // 2
    xx = np.arange(w)[None, :] - w // 2
    dist = np.sqrt(yy * yy + xx * xx) / (min(h, w) / 2.0)
    return float(mag[dist > rho].sum() / (mag.sum() + HF_EPSILON))


def hf_ratio_inline(img, rho):
    """The half-spectrum ratio with its weights built in the call, kept to
    pin hf_ratio's bits: the shifted disc moved back to unshifted order and
    cut to the rfft2 columns, each column counted once for itself and once
    for its conjugate, except column 0 and an even width's Nyquist column."""
    h, w = img.shape
    cols = w // 2 + 1
    mag = np.abs(np.fft.rfft2(img))
    yy = np.arange(h)[:, None] - h // 2
    xx = np.arange(w)[None, :] - w // 2
    outside = np.fft.ifftshift(np.sqrt(yy * yy + xx * xx) / (min(h, w) / 2.0) > rho)[:, :cols]
    mult = np.array([1.0 if j == 0 or 2 * j == w else 2.0 for j in range(cols)])
    total = (mag.sum(axis=0) * mult).sum()
    return float(((mag * outside).sum(axis=0) * mult).sum() / (total + HF_EPSILON))


class TestBitPins:
    """sobel_magnitude and hf_ratio equal the expressions above bit for bit;
    the oracle tests' tolerances cannot see a trailing-bit move.  hf_ratio is
    also within 1e-13 relative of the full shifted-spectrum expression."""

    @pytest.fixture(scope="class")
    def analysis_images(self, frozen_targets):
        cfg = FROZEN_TRACE
        n = FROZEN_PIPELINE.analysis_size
        images = []
        for target in frozen_targets[:12]:
            for k in (FROZEN_PIPELINE.decision_step - 1, FROZEN_PIPELINE.decision_step):
                images.append(resize_area(step_images(target, cfg, k).combined, n, n))
        return images

    def test_frozen_step_images_at_analysis_size(self, analysis_images):
        for img in analysis_images:
            assert img.shape == (128, 128)
            assert np.array_equal(sobel_magnitude(img), sobel_inline(img))
            for rho in (0.25, FROZEN_PIPELINE.hf.rho):
                assert hf_ratio(img, HFParams(rho=rho)) == hf_ratio_inline(img, rho)
                assert hf_ratio(img, HFParams(rho=rho)) == pytest.approx(hf_ratio_shifted(img, rho), rel=1e-13)

    @pytest.mark.parametrize(
        "shape", [(7, 12), (12, 7), (127, 128), (128, 127), (3, 3), (33, 20), (63, 64), (65, 129), (129, 65)]
    )
    def test_odd_and_non_square_shapes(self, rng, shape):
        for _ in range(3):
            img = rng.random(shape)
            assert np.array_equal(sobel_magnitude(img), sobel_inline(img))
            for rho in (0.1, 0.25, 0.4, 0.9):
                # the first call builds the (h, w, rho) weights, the second reads them
                assert hf_ratio(img, HFParams(rho=rho)) == hf_ratio_inline(img, rho)
                assert hf_ratio(img, HFParams(rho=rho)) == hf_ratio_inline(img, rho)
                assert hf_ratio(img, HFParams(rho=rho)) == pytest.approx(hf_ratio_shifted(img, rho), rel=1e-13)

    def test_large_odd_width_matches_full_spectrum(self, rng):
        img = rng.random((300, 257))
        for rho in (0.1, 0.25, 0.4, 0.9):
            assert hf_ratio(img, HFParams(rho=rho)) == hf_ratio_inline(img, rho)
            assert hf_ratio(img, HFParams(rho=rho)) == pytest.approx(hf_ratio_shifted(img, rho), rel=1e-13)

    def test_sobel_map_survives_later_calls(self, rng):
        # the differences live in the thread's workspace; the map is fresh
        img = rng.random((64, 65))
        first = sobel_magnitude(img)
        kept = first.copy()
        for shape in ((64, 65), (130, 20), (3, 3)):
            sobel_magnitude(rng.random(shape))
        assert np.array_equal(first, kept) and np.array_equal(first, sobel_inline(img))

    def test_mask_is_read_only_and_built_once(self):
        # the disc is kept as a boolean mask over the half spectrum, with
        # each column's multiplicity
        mult, inside = frequency._hf_weights(128, 128, 0.4)
        assert mult.shape == (65,) and inside.shape == (128, 65) and inside.nbytes == 8320
        assert mult[0] == mult[-1] == 1.0 and set(mult[1:-1]) == {2.0}
        assert inside[0, 0] and inside[-1, 1] and not inside[64, 0] and not inside[0, 64]
        for arr in (mult, inside):
            with pytest.raises(ValueError):
                arr[0] = 0
        assert frequency._hf_weights(128, 128, 0.4)[1] is inside
        assert frequency._hf_weights(128, 127, 0.4)[1] is not inside
        assert set(frequency._hf_weights(128, 127, 0.4)[0][1:]) == {2.0}
