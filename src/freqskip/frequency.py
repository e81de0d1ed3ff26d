"""High-frequency indicators for decoded step images.

Two complementary measurements drive acceleration decisions:

* ``hf_diff``: mean absolute difference between the Sobel gradient-magnitude
  maps of two consecutive decoded images; small values mean the fine detail
  has stabilized between steps.
* ``hf_ratio``: fraction of total Fourier magnitude outside a disc of
  normalized radius rho centred on the DC bin; small values mean the
  image carries little fine detail to begin with.  The mask radius is a
  setting (:class:`HFParams`); the stabilizer :data:`HF_EPSILON` is not.

:func:`dft2` is numpy's unnormalized 2-D FFT (``np.fft.fft2``), which
accepts any image size; on the same input it returns bit-identical
coefficients from call to call.  ``hf_ratio`` reads only the half spectrum
of its real image (``np.fft.rfft2``, the ``w//2 + 1`` non-redundant
columns), weighting each column by the number of full-spectrum bins it
stands for.  Those weights and the boolean half-plane disc mask depend only
on (height, width, rho), so they are built once per process per key and
kept, read-only: 8.8 KB at the default 128 x 128 analysis size.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .image import require_gray, resize_area, thread_workspace


# added to the spectral magnitude sum, so the ratio is finite on all-zero images
HF_EPSILON = 1e-8


@dataclass(frozen=True)
class HFParams:
    """Mask radius for the spectral ratio.

    rho is a normalized radius in (0, 1): bin distance from the spectrum
    center is divided by min(H, W)/2 before comparison.
    """

    rho: float = 0.25

    def __post_init__(self) -> None:
        if not 0.0 < self.rho < 1.0:
            raise ValueError(f"rho must be in (0, 1), got {self.rho}")


def sobel_magnitude(img: np.ndarray) -> np.ndarray:
    """Per-pixel gradient magnitude from 3x3 Sobel kernels.

    Uses replicate border padding; the output is not clamped and may
    exceed 1.  The padded copy and the differences live in the thread's
    ``image.Workspace`` (its ``pad``, ``rows``, ``mu`` and ``sq`` buffers);
    the returned map is a fresh array.
    """
    arr = require_gray(img)
    if arr.shape[0] < 3 or arr.shape[1] < 3:
        raise ValueError(f"sobel_magnitude needs at least a 3x3 image, got {arr.shape}")
    # replicate border of width 1 in the thread's ``pad`` buffer, filled by
    # slice copies: rows first, then the two columns, which carries the
    # corners along
    h, w = arr.shape
    work = thread_workspace()
    p = work.get("pad", (h + 2, w + 2))
    p[1:-1, 1:-1] = arr
    p[0, 1:-1] = arr[0]
    p[-1, 1:-1] = arr[-1]
    p[:, 0] = p[:, 1]
    p[:, -1] = p[:, -2]
    # one horizontal and one vertical difference of the padded image, each in
    # the ``rows`` buffer; each kernel row (column) is a slice of it, summed
    # in the order of (top + 2*middle) + bottom, so the bits match the
    # three-term expression.  Only gx, the result, is a fresh array.
    d = np.subtract(p[:, 2:], p[:, :-2], out=work.get("rows", (h + 2, w)))
    gx = d[:-2] + np.multiply(d[1:-1], 2.0, out=work.get("mu", (h, w)))
    gx += d[2:]
    e = np.subtract(p[2:], p[:-2], out=work.get("rows", (h, w + 2)))
    middle = np.multiply(e[:, 1:-1], 2.0, out=work.get("mu", (h, w)))
    gy = np.add(e[:, :-2], middle, out=work.get("sq", (h, w)))
    gy += e[:, 2:]
    gx *= gx
    gy *= gy
    gx += gy
    return np.sqrt(gx, out=gx)


def hf_diff(i_n: np.ndarray, i_prev: np.ndarray, analysis_size: int) -> float:
    """Mean absolute difference of Sobel maps at a common analysis size.

    Both images are area-resized to analysis_size x analysis_size first
    (one already that size is used as it is), so the value is comparable
    across steps with different native resolutions.  The mean (not the sum)
    keeps thresholds independent of the analysis resolution.
    """
    if analysis_size < 3:
        raise ValueError(f"analysis_size must be >= 3, got {analysis_size}")
    a = resize_area(require_gray(i_n, "i_n"), analysis_size, analysis_size)
    b = resize_area(require_gray(i_prev, "i_prev"), analysis_size, analysis_size)
    return float(np.mean(np.abs(sobel_magnitude(a) - sobel_magnitude(b))))


def dft2(img: np.ndarray) -> np.ndarray:
    """Unnormalized forward 2-D DFT of a grayscale image: the complex
    coefficients, with the DC coefficient at (0, 0)."""
    return np.fft.fft2(require_gray(img))


@functools.lru_cache(maxsize=None)
def _hf_weights(h: int, w: int, rho: float) -> tuple[np.ndarray, np.ndarray]:
    """Weights of the ``rfft2`` half spectrum of a real h x w image: each
    column's multiplicity, shape (w//2 + 1,), and the boolean mask, shape
    (h, w//2 + 1), of the bins within rho * min(h, w)/2 of DC.

    A column stands for itself and its conjugate column, so it counts twice,
    except column 0 and, at even width, the Nyquist column, which hold their
    own conjugates.  The disc is the one of the shifted full spectrum, centred
    on (h//2, w//2), moved back to unshifted order; it is point-symmetric,
    Nyquist row and column included, so every bin and its conjugate fall on
    the same side.  Built once per process and (h, w, rho), and read-only.
    """
    cols = w // 2 + 1
    mult = np.full(cols, 2.0)
    mult[0] = 1.0
    if w % 2 == 0:
        mult[-1] = 1.0
    yy = np.arange(h)[:, None] - h // 2
    xx = np.arange(w)[None, :] - w // 2
    outside = np.sqrt(yy * yy + xx * xx) / (min(h, w) / 2.0) > rho
    inside = ~np.fft.ifftshift(outside)[:, :cols]
    mult.flags.writeable = False
    inside.flags.writeable = False
    return mult, inside


def hf_ratio(img: np.ndarray, params: HFParams = HFParams()) -> float:
    """Share of spectral magnitude beyond normalized radius rho.

    ratio = sum_{bins outside the disc} |F| / (sum over all bins |F| + HF_EPSILON)

    over the bins of the full spectrum, the disc centred on DC; always in
    [0, 1).  Both sums are taken over the half spectrum: per column, then
    weighted by the column's multiplicity (:func:`_hf_weights`), so they
    equal the full-plane sums up to rounding.
    """
    arr = require_gray(img)
    h, w = arr.shape
    mult, inside = _hf_weights(h, w, params.rho)
    mag = np.abs(np.fft.rfft2(arr))
    # numpy's own sums, not a BLAS dot, whose bits would follow its thread count
    total = (mag.sum(axis=0) * mult).sum()
    np.copyto(mag, 0.0, where=inside)
    return float((mag.sum(axis=0) * mult).sum() / (total + HF_EPSILON))
