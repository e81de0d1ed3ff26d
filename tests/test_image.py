import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import FROZEN_TRACE
from freqskip.generator import DEFAULT_SCHEDULE, StepTrace
from freqskip.image import (
    ImageFormatError,
    Workspace,
    _area_block,
    gaussian_filter,
    load_image,
    resize_area,
    resize_bilinear,
    save_image,
    thread_workspace,
    to_grayscale,
)

from oracles import area_resize_naive, bilinear_resize_naive, gaussian_filter_inline, gaussian_filter_naive

unit_floats = st.floats(0.0, 1.0, allow_nan=False, width=64)


def small_images(min_side=1, max_side=10):
    shapes = st.tuples(st.integers(min_side, max_side), st.integers(min_side, max_side))
    return hnp.arrays(np.float64, shapes, elements=unit_floats)


class TestGrayscale:
    def test_white_black_green(self):
        white = np.ones((1, 1, 3))
        black = np.zeros((1, 1, 3))
        green = np.array([[[0.0, 1.0, 0.0]]])
        assert to_grayscale(white)[0, 0] == 1.0
        assert to_grayscale(black)[0, 0] == 0.0
        assert to_grayscale(green)[0, 0] == 0.587

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            to_grayscale(np.zeros((4, 4)))

    @given(img=hnp.arrays(np.float64, (5, 7, 3), elements=unit_floats))
    def test_output_in_unit_range(self, img):
        gray = to_grayscale(img)
        assert gray.shape == (5, 7)
        assert np.all(gray >= 0.0) and np.all(gray <= 1.0)


@pytest.mark.parametrize("resize", [resize_area, resize_bilinear])
def test_identity_size_returns_the_validated_input(rng, resize):
    img = rng.random((7, 5))
    assert resize(img, 5, 7) is img
    single = img.astype(np.float32)
    out = resize(single, 5, 7)
    assert out.dtype == np.float64 and np.array_equal(out, single)


@pytest.mark.parametrize("resize", [resize_area, resize_bilinear])
@pytest.mark.parametrize("width, height", [(0, 4), (4, 0)])
def test_resize_rejects_empty_output(rng, resize, width, height):
    with pytest.raises(ValueError, match="output dimensions must be >= 1"):
        resize(rng.random((4, 4)), width, height)


class TestResizeArea:
    def test_global_mean_2x2(self):
        img = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert resize_area(img, 1, 1)[0, 0] == 0.5

    def test_identity_bit_exact(self, rng):
        img = rng.random((7, 5))
        out = resize_area(img, 5, 7)
        assert np.array_equal(out, img)

    def test_half_rows_blocks(self):
        img = np.tile(np.array([0.0, 0.0, 1.0, 1.0]), (4, 1))
        out = resize_area(img, 2, 2)
        assert np.array_equal(out, np.array([[0.0, 1.0], [0.0, 1.0]]))

    def test_rejects_upscale(self, rng):
        with pytest.raises(ValueError):
            resize_area(rng.random((4, 4)), 8, 4)

    @given(img=small_images(min_side=2, max_side=12), factor=st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_mean_preserved_when_divisible(self, img, factor):
        h, w = img.shape
        oh, ow = max(h // factor, 1), max(w // factor, 1)
        img = img[: oh * factor, : ow * factor]
        out = resize_area(img, ow, oh)
        assert out.mean() == pytest.approx(img.mean(), rel=1e-6, abs=1e-12)

    @given(img=small_images(min_side=1, max_side=12), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_mean_preserved_any_size(self, img, data):
        h, w = img.shape
        oh = data.draw(st.integers(1, h), label="oh")
        ow = data.draw(st.integers(1, w), label="ow")
        assert resize_area(img, ow, oh).mean() == pytest.approx(img.mean(), rel=1e-6, abs=1e-12)

    @given(img=small_images(min_side=2, max_side=9), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_naive_oracle(self, img, data):
        # any output size down to 1x1, so non-integer ratios like the
        # schedule's 256 -> 224 and 256 -> 24 are covered too
        h, w = img.shape
        oh = data.draw(st.integers(1, h), label="oh")
        ow = data.draw(st.integers(1, w), label="ow")
        ours = resize_area(img, ow, oh)
        ref = area_resize_naive(img, ow, oh)
        assert np.allclose(ours, ref, atol=1e-12)

    # (h_in, w_in, h_out, w_out): 256 to every r_k of the default schedule,
    # the analysis resizes, a non-square case, and coprime sizes, whose
    # period block is the whole (n_out, n_in) weight matrix
    PINNED = (
        [(256, 256, r, r) for r in DEFAULT_SCHEDULE]
        + [(160, 160, 128, 128), (192, 192, 128, 128), (256, 160, 200, 128)]
        + [(256, 256, 255, 255), (37, 37, 23, 23)]
    )

    @pytest.mark.parametrize("h_in, w_in, h_out, w_out", PINNED)
    def test_pinned_sizes_match_naive_oracle(self, rng, h_in, w_in, h_out, w_out):
        img = rng.random((h_in, w_in))
        ref = area_resize_naive(img, w_out, h_out)
        assert np.allclose(resize_area(img, w_out, h_out), ref, rtol=0.0, atol=1e-12)

    def test_half_size_is_exact_mean_of_each_2x2_block(self, rng):
        img = rng.random((256, 256))
        # rows first, then columns, as resize_area sums them
        rows = (img[0::2] + img[1::2]) / 2
        assert np.array_equal(resize_area(img, 128, 128), (rows[:, 0::2] + rows[:, 1::2]) / 2)

    @pytest.mark.parametrize(
        "n_in, n_out", [(256, r) for r in DEFAULT_SCHEDULE] + [(160, 128), (192, 128), (256, 255), (37, 23), (97, 1)]
    )
    def test_block_rows_sum_to_one(self, n_in, n_out):
        block, block_t = _area_block(n_in, n_out)
        g = np.gcd(n_in, n_out)
        assert block.shape == (n_out // g, n_in // g)
        assert block_t.flags.c_contiguous and np.array_equal(block_t, block.T)
        assert np.all(block >= 0.0)
        assert np.all(np.abs(block.sum(axis=1) - 1.0) <= 1e-15)

    @pytest.mark.parametrize(
        "h_in, w_in, h_out, w_out", [(256, 256, 160, 160), (160, 160, 128, 128), (256, 160, 200, 128), (37, 37, 23, 23)]
    )
    def test_same_pixels_in_any_layout_give_identical_output(self, rng, h_in, w_in, h_out, w_out):
        # --jobs 1 and --jobs 2 write identical files only if the bits do not
        # depend on how the caller's array is laid out
        img = rng.random((h_in, w_in))
        wide = rng.random((2 * h_in + 3, 3 * w_in + 5))
        wide[3::2, 5::3][:h_in, :w_in] = img
        shifted = np.empty(h_in * w_in + 1)[1:].reshape(h_in, w_in)  # data 8 bytes past its buffer's start
        shifted[:] = img
        layouts = [np.asfortranarray(img), wide[3::2, 5::3][:h_in, :w_in], shifted, img.copy()]
        expected = resize_area(img, w_out, h_out)
        for arr in layouts:
            assert np.array_equal(arr, img)
            assert np.array_equal(resize_area(arr, w_out, h_out), expected)


class TestResizeBilinear:
    def test_constant_from_single_pixel(self):
        out = resize_bilinear(np.array([[0.37]]), 6, 4)
        assert out.shape == (4, 6)
        assert np.all(out == 0.37)

    def test_midpoint(self):
        out = resize_bilinear(np.array([[0.0, 1.0]]), 3, 1)
        assert np.array_equal(out, np.array([[0.0, 0.5, 1.0]]))

    def test_upsample_then_area_downsample_constant(self):
        img = np.full((3, 3), 0.25)
        up = resize_bilinear(img, 9, 9)
        down = resize_area(up, 3, 3)
        assert np.array_equal(down, img)

    @given(img=small_images(min_side=1, max_side=8), ow=st.integers(1, 12), oh=st.integers(1, 12))
    @settings(max_examples=40, deadline=None)
    def test_stays_within_input_range(self, img, ow, oh):
        out = resize_bilinear(img, ow, oh)
        assert out.shape == (oh, ow)
        assert out.min() >= img.min() - 1e-12
        assert out.max() <= img.max() + 1e-12

    @given(
        img=small_images(min_side=1, max_side=9),
        ow=st.one_of(st.just(1), st.integers(1, 14)),
        oh=st.one_of(st.just(1), st.integers(1, 14)),
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_four_corner_oracle_exactly(self, img, ow, oh):
        assert np.array_equal(resize_bilinear(img, ow, oh), bilinear_resize_naive(img, ow, oh))

    @pytest.mark.parametrize(
        "shape, width, height",
        [((1, 1), 1, 1), ((1, 1), 5, 3), ((1, 6), 4, 1), ((6, 1), 1, 4), ((1, 6), 9, 5), ((6, 1), 5, 9), ((4, 7), 1, 1)],
    )
    def test_one_pixel_row_or_column_equals_oracle_exactly(self, rng, shape, width, height):
        img = rng.random(shape)
        assert np.array_equal(resize_bilinear(img, width, height), bilinear_resize_naive(img, width, height))

    @pytest.mark.parametrize("r", [128, 160, 192, 224])
    def test_run_loop_upsamples_equal_oracle_exactly(self, rng, r):
        img = rng.random((r, r))
        assert np.array_equal(resize_bilinear(img, 256, 256), bilinear_resize_naive(img, 256, 256))

    @pytest.mark.parametrize("h_in, w_in, h_out, w_out", [(160, 160, 256, 256), (192, 192, 256, 256), (37, 23, 61, 97)])
    def test_same_pixels_in_any_layout_give_identical_output(self, rng, h_in, w_in, h_out, w_out):
        # the column gathers read any layout; the lerps must not see it
        img = rng.random((h_in, w_in))
        wide = rng.random((2 * h_in + 3, 3 * w_in + 5))
        wide[3::2, 5::3][:h_in, :w_in] = img
        shifted = np.empty(h_in * w_in + 1)[1:].reshape(h_in, w_in)  # data 8 bytes past its buffer's start
        shifted[:] = img
        layouts = [np.asfortranarray(img), wide[3::2, 5::3][:h_in, :w_in], shifted, img.copy()]
        expected = bilinear_resize_naive(img, w_out, h_out)
        for arr in layouts:
            assert np.array_equal(arr, img)
            assert np.array_equal(resize_bilinear(arr, w_out, h_out), expected)


class TestGaussianFilter:
    # SSIM's window, then synth_target's five noise octaves (sigma 0.6 * 2**o)
    PINNED = [(1.5, 5), (0.6, 2), (1.2, 4), (2.4, 8), (4.8, 15), (9.6, 29)]

    @given(
        h=st.integers(1, 300),
        w=st.integers(1, 300),
        sigma=st.floats(0.3, 12.0),
        radius=st.integers(0, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    # 1-row and 1-column images, sizes on both sides of a block boundary,
    # and radii at or beyond the image size, where the reflection wraps
    @example(h=1, w=1, sigma=1.0, radius=3, seed=0)
    @example(h=1, w=300, sigma=1.5, radius=5, seed=1)
    @example(h=300, w=1, sigma=9.6, radius=29, seed=2)
    @example(h=3, w=70, sigma=2.4, radius=8, seed=3)
    @example(h=63, w=65, sigma=1.5, radius=5, seed=4)
    @example(h=129, w=64, sigma=4.8, radius=15, seed=5)
    @example(h=20, w=7, sigma=9.6, radius=29, seed=6)
    @settings(max_examples=30, deadline=None)
    def test_matches_per_pixel_oracle(self, h, w, sigma, radius, seed):
        img = np.random.default_rng(seed).random((h, w))
        out = gaussian_filter(img, sigma, radius)
        assert out.shape == (h, w)
        assert np.allclose(out, gaussian_filter_naive(img, sigma, radius), rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("sigma, radius", PINNED)
    def test_pinned_radii_match_oracle_at_full_size(self, rng, sigma, radius):
        img = rng.standard_normal((256, 256))
        ref = gaussian_filter_naive(img, sigma, radius)
        assert np.allclose(gaussian_filter(img, sigma, radius), ref, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("sigma, radius", PINNED)
    @pytest.mark.parametrize("shape", [(256, 256), (160, 97), (1, 70)])
    def test_same_pixels_in_any_layout_give_identical_output(self, rng, sigma, radius, shape):
        img = rng.random(shape)
        h, w = shape
        wide = rng.random((h + 3, w + 5))
        wide[1 : 1 + h, 2 : 2 + w] = img
        shifted = np.empty(h * w + 1)[1:].reshape(h, w)  # data 8 bytes past its buffer's start
        shifted[:] = img
        layouts = [np.asfortranarray(img), wide[1 : 1 + h, 2 : 2 + w], shifted, img.copy()]
        expected = gaussian_filter(img, sigma, radius)
        for arr in layouts:
            assert np.array_equal(gaussian_filter(arr, sigma, radius), expected)


def every_filter_form(img, sigma, radius):
    """gaussian_filter's result with and without ``out=``, each with no
    workspace, a new one and the thread's, in that order."""
    results = []
    for work in (None, Workspace(), thread_workspace()):
        results.append(gaussian_filter(img, sigma, radius, work=work))
        out = np.full(img.shape, np.nan)
        assert gaussian_filter(img, sigma, radius, out=out, work=work) is out
        results.append(out)
    return results


class TestGaussianFilterBitPins:
    """Every form of gaussian_filter equals the np.pad-and-assign form kept in
    ``gaussian_filter_inline`` bit for bit; the oracle tests' tolerance
    cannot see a trailing-bit move."""

    @pytest.mark.parametrize("sigma, radius", TestGaussianFilter.PINNED)
    @pytest.mark.parametrize("shape", [(7, 12), (12, 7), (63, 64), (65, 63), (64, 129), (129, 65)])
    def test_odd_and_non_square_shapes(self, rng, sigma, radius, shape):
        # radii 8, 15 and 29 reach past the 7- and 12-pixel sides, where the
        # workspace pad falls back to np.pad
        img = rng.random(shape)
        expected = gaussian_filter_inline(img, sigma, radius)
        for result in every_filter_form(img, sigma, radius):
            assert np.array_equal(result, expected)

    @pytest.mark.parametrize("shape, radius", [((6, 9), 5), ((9, 6), 5), ((5, 9), 5), ((9, 5), 5), ((1, 9), 0), ((1, 1), 3)])
    def test_radius_at_and_past_the_side(self, rng, shape, radius):
        img = rng.random(shape)
        expected = gaussian_filter_inline(img, 1.5, radius)
        for result in every_filter_form(img, 1.5, radius):
            assert np.array_equal(result, expected)

    def test_frozen_finals(self, frozen_targets):
        for target in frozen_targets[:4]:
            final = StepTrace(target, FROZEN_TRACE).final
            for sigma, radius in ((1.5, 5), (9.6, 29)):
                expected = gaussian_filter_inline(final, sigma, radius)
                for result in every_filter_form(final, sigma, radius):
                    assert np.array_equal(result, expected)

    def test_out_may_be_the_input(self, rng):
        img = rng.random((65, 63))
        expected = gaussian_filter_inline(img, 1.5, 5)
        for work in (None, Workspace()):
            same = img.copy()
            assert gaussian_filter(same, 1.5, 5, out=same, work=work) is same
            assert np.array_equal(same, expected)

    def test_fresh_output_survives_later_calls(self, rng):
        work = Workspace()
        a = rng.random((64, 64))
        first = gaussian_filter(a, 1.5, 5, work=work)
        kept = first.copy()
        gaussian_filter(rng.random((129, 65)), 1.5, 5, work=work)
        gaussian_filter(rng.random((64, 64)), 9.6, 29, work=work)
        assert np.array_equal(first, kept)


class TestWorkspace:
    def test_a_role_grows_to_the_largest_size_and_is_reused(self):
        work = Workspace()
        small = work.get("pad", (4, 5))
        assert small.shape == (4, 5) and small.flags.c_contiguous and small.dtype == np.float64
        assert np.shares_memory(work.get("pad", (5, 4)), small)
        big = work.get("pad", (9, 9))
        assert not np.shares_memory(big, small)
        assert np.shares_memory(work.get("pad", (4, 5)), big)
        assert not np.shares_memory(work.get("rows", (4, 5)), big)

    def test_one_per_thread_kept_for_its_life(self):
        mine = thread_workspace()
        assert thread_workspace() is mine
        seen = []
        worker = threading.Thread(target=lambda: seen.extend([thread_workspace(), thread_workspace()]))
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive()
        assert seen[0] is seen[1] and seen[0] is not mine


class TestRawFloatFormat:
    def test_round_trip_bit_exact_at_float32_precision(self, tmp_path, rng):
        img = rng.random((9, 6), dtype=np.float32).astype(np.float64)
        path = tmp_path / "img.f32"
        save_image(img, path, "rawf32")
        back = load_image(path)
        assert np.array_equal(back, img)

    def test_double_round_trip_idempotent(self, tmp_path, rng):
        img = rng.random((5, 5))
        p1, p2 = tmp_path / "a.f32", tmp_path / "b.f32"
        save_image(img, p1, "rawf32")
        once = load_image(p1)
        save_image(once, p2, "rawf32")
        assert np.array_equal(load_image(p2), once)

    def test_header(self, tmp_path):
        path = tmp_path / "img.f32"
        save_image(np.zeros((2, 3)), path, "rawf32")
        raw = path.read_bytes()
        assert raw.startswith(b"SKVR1 3 2\n")
        assert len(raw) == len(b"SKVR1 3 2\n") + 4 * 6

    def test_truncated_raster_rejected(self, tmp_path):
        path = tmp_path / "img.f32"
        save_image(np.zeros((4, 4)), path, "rawf32")
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(ImageFormatError, match="truncated"):
            load_image(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "img.bin"
        path.write_bytes(b"NOPE 2 2\n" + b"\0" * 16)
        with pytest.raises(ImageFormatError):
            load_image(path)


class TestPnmFormats:
    def test_pgm_quantization_round_half_up(self, tmp_path):
        img = np.array([[0.0, 1.0 / 510.0, 1.0]])  # 0.5 level rounds up
        path = tmp_path / "img.pgm"
        save_image(img, path, "pgm8")
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n3 1\n255\n")
        assert list(raw[-3:]) == [0, 1, 255]

    def test_pgm_round_trip_values(self, tmp_path, rng):
        img = rng.integers(0, 256, size=(6, 7)).astype(np.float64) / 255.0
        path = tmp_path / "img.pgm"
        save_image(img, path, "pgm8")
        assert np.allclose(load_image(path), img, atol=1e-12)

    def test_pgm_with_comment_header(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5\n# a comment\n2 2\n255\n\x00\x40\x80\xff")
        img = load_image(path)
        assert img.shape == (2, 2)
        assert img[1, 1] == 1.0

    def test_ppm_loads_as_color(self, tmp_path):
        path = tmp_path / "img.ppm"
        path.write_bytes(b"P6\n1 2\n255\n" + bytes([255, 0, 0, 0, 255, 0]))
        img = load_image(path)
        assert img.shape == (2, 1, 3)
        assert img[0, 0, 0] == 1.0 and img[1, 0, 1] == 1.0

    def test_unsupported_maxval(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5\n2 2\n65535\n" + b"\0" * 8)
        with pytest.raises(ImageFormatError, match="maxval"):
            load_image(path)

    def test_truncated_pgm(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5\n4 4\n255\n\x00\x01")
        with pytest.raises(ImageFormatError, match="truncated"):
            load_image(path)

    def test_unknown_save_format(self, tmp_path):
        with pytest.raises(ValueError, match="format"):
            save_image(np.zeros((2, 2)), tmp_path / "x", "png")
