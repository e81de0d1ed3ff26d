"""Image arrays, resampling, and binary image file I/O.

Grayscale images are 2-D float64 arrays in [0, 1], row-major, indexed
``[y, x]``.  Color images are ``(H, W, 3)`` arrays of interleaved RGB.

Supported file formats:

* binary PGM (``P5``) and PPM (``P6``), 8-bit, maxval 255;
* a raw float format: one ASCII header line ``SKVR1 <width> <height>\\n``
  followed by ``width*height`` little-endian float32 values, row-major.

No function mutates its input, but for :func:`gaussian_filter` asked to
write over it (``out=img``).  A resampler asked for the size its input
already has returns the validated input, not a copy: :func:`require_gray`'s
result, which is the caller's own array when that is float64 already.  So
a resampled image is read-only by contract.

Three resampling constants are built once per process and kept,
read-only.  The first is the area-resize period block per (input, output)
size pair: the (q, p) overlap weights that every block of p input pixels
maps to q output pixels through, with p and q the sizes divided by their
gcd, so (5, 8) at 256 -> 160 and (4, 5) at 160 -> 128, kept with a
C-ordered copy of its transpose for the column pass; all blocks of the
default schedule and analysis size take ~6 KB with their transposes.
The second is the bilinear resize's gather indices and weights per
(input, output) size pair: four tables per axis, one entry per output
column or row, so 16 KB at 160 -> 256.  The third is the band of Gaussian
taps per (sigma, radius) that :func:`gaussian_filter`, the one filter
behind SSIM's window and the generator's noise octaves, multiplies its
blocks by.  A band is 32 x (32 + 2*radius) float64 values: ~11 KB at
SSIM's radius 5, ~81 KB for SSIM plus the five noise octaves of the
default corpus.

The per-sample scoring kernels (the SSIM filters and the Sobel stencil)
write their intermediates into a :class:`Workspace`, one per thread
(:func:`thread_workspace`), which the thread keeps for its lifetime.  It
holds one flat float64 buffer per role, grown to the largest size asked for
and viewed at the shape each call needs, so a kernel in steady state takes
no fresh pages.  The roles are ``pad`` (a filter's padded input), ``rows``
(its row pass), ``mu`` and ``sq``, which hold one image's SSIM moments
(:mod:`freqskip.metrics`) and the Sobel stencil's differences
(:func:`freqskip.frequency.sobel_magnitude`), and ``cov``, which only SSIM
uses.  At 256 x 256 with SSIM's radius 5 they take ~2.6 MB.  A kernel holds a role only while it runs, never
across a ``yield`` or a call to another kernel that uses the same role, and
every array a kernel hands back is fresh, never a workspace view.  The
generator's noise octaves do not use the thread's workspace: each
``generator.synth_target`` call filters all its octaves through one
workspace of its own, freed when the call returns.
"""

from __future__ import annotations

import functools
import math
import os
import threading

import numpy as np

RAW_MAGIC = b"SKVR1"

_PNM_WHITESPACE = b" \t\n\r\x0b\x0c"


class ImageFormatError(ValueError):
    """Raised for malformed, truncated, or unsupported image files."""


def require_gray(img: np.ndarray, name: str = "image") -> np.ndarray:
    """Validate a grayscale image array and return it as float64."""
    arr = np.asarray(img, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"{name} must be a 2-D array with positive dimensions, got shape {arr.shape}")
    return arr


def to_grayscale(color: np.ndarray) -> np.ndarray:
    """Convert an (H, W, 3) RGB image to grayscale with Rec.601 weights.

    gray = 0.299 R + 0.587 G + 0.114 B, clamped to [0, 1].  Written in
    delta-from-blue form so pixels with equal channels pass through exactly.
    """
    arr = np.asarray(color, dtype=np.float64)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ValueError(f"expected an (H, W, 3) color image, got shape {arr.shape}")
    r, g, b = arr[:, :, 0], arr[:, :, 1], arr[:, :, 2]
    gray = b + 0.299 * (r - b) + 0.587 * (g - b)
    return np.clip(gray, 0.0, 1.0)


@functools.lru_cache(maxsize=None)
def _area_block(n_in: int, n_out: int) -> tuple[np.ndarray, np.ndarray]:
    """(q, p) overlap weights of one period of an n_in -> n_out area resize,
    and a C-ordered (p, q) copy of their transpose.

    With g = gcd(n_in, n_out), p = n_in // g and q = n_out // g, output
    pixels t*q .. t*q + q-1 read only input pixels t*p .. t*p + p-1, with
    the same weights for every t.  Measured in units of 1/q of an input
    pixel, output i covers [i*p, (i+1)*p) and input j covers [j*q, (j+1)*q),
    so each weight is an exact integer overlap divided by p, rounded once,
    and each row sums to 1.  The row pass multiplies by the block, the
    column pass by the transposed copy, which BLAS runs about twice as fast
    as the F-ordered view ``block.T``.  Built once per process and size
    pair, and read-only.
    """
    g = math.gcd(n_in, n_out)
    p, q = n_in // g, n_out // g
    i = np.arange(q)[:, None]
    j = np.arange(p)[None, :]
    overlap = np.maximum(np.minimum((i + 1) * p, (j + 1) * q) - np.maximum(i * p, j * q), 0)
    block = overlap / p
    block_t = np.ascontiguousarray(block.T)
    block.flags.writeable = False
    block_t.flags.writeable = False
    return block, block_t


def resize_area(img: np.ndarray, width: int, height: int) -> np.ndarray:
    """Downsample by exact area averaging (anti-aliased).

    Each output pixel is the overlap-weighted mean of the source pixels its
    (possibly fractional) source rectangle covers.  Only downscaling or the
    identity size is allowed; use :func:`resize_bilinear` to upscale.  At
    the identity size the validated input itself is returned.

    The overlap pattern repeats with period gcd(n_in, n_out) along each
    axis, so each axis costs one small product with its
    :func:`_area_block`: every block of p input rows (then columns) maps to
    q output rows (columns) through the same (q, p) weights.  The column
    pass multiplies by the kept C-ordered (p, q) transpose of the block.
    Coprime sizes make the block the whole (n_out, n_in) matrix.
    """
    arr = require_gray(img)
    h_in, w_in = arr.shape
    if width < 1 or height < 1:
        raise ValueError("output dimensions must be >= 1")
    if width > w_in or height > h_in:
        raise ValueError(
            f"resize_area cannot upscale ({w_in}x{h_in} -> {width}x{height}); use resize_bilinear"
        )
    if width == w_in and height == h_in:
        return arr
    block_h = _area_block(h_in, height)[0]
    block_w_t = _area_block(w_in, width)[1]
    # rows, then columns; the input is made C-contiguous first so that, for a
    # given shape, BLAS sums each dot product in the same order whatever the
    # caller's memory layout (an F-order input changes the bits otherwise),
    # and repeated calls are bit-identical
    stacked = np.ascontiguousarray(arr).reshape(-1, block_h.shape[1], w_in)
    rows = (block_h @ stacked).reshape(height, w_in)
    return (rows.reshape(-1, block_w_t.shape[0]) @ block_w_t).reshape(height, width)


@functools.lru_cache(maxsize=None)
def _bilinear_tables(h_in: int, w_in: int, width: int, height: int) -> tuple[np.ndarray, ...]:
    """Gather indices and weights of an (h_in, w_in) -> (height, width)
    bilinear resize: ``x0, x1, 1 - fx, fx`` per output column and ``y0, y1``
    with the (height, 1) columns ``1 - fy, fy`` per output row.  Built once
    per process and size pair, and read-only."""
    xs = np.array([(w_in - 1) / 2.0]) if width == 1 else np.linspace(0.0, w_in - 1.0, width)
    ys = np.array([(h_in - 1) / 2.0]) if height == 1 else np.linspace(0.0, h_in - 1.0, height)
    x0 = np.floor(xs).astype(np.int64)
    y0 = np.floor(ys).astype(np.int64)
    x1 = np.minimum(x0 + 1, w_in - 1)
    y1 = np.minimum(y0 + 1, h_in - 1)
    fx = xs - x0
    fy = ys - y0
    tables = (x0, x1, 1.0 - fx, fx, y0, y1, (1.0 - fy)[:, None], fy[:, None])
    for t in tables:
        t.flags.writeable = False
    return tables


def resize_bilinear(img: np.ndarray, width: int, height: int) -> np.ndarray:
    """Resize by bilinear interpolation with edge-aligned corners.

    Output corner samples coincide with input corner samples; a
    single-row/column output samples the input midline.  Output values never
    leave the [min, max] range of the input.  At the identity size the
    validated input itself is returned.

    Computed as two 1-D lerps with no weight matrix: across the columns of
    every input row (an input-height by output-width array, from the two
    column gathers ``np.take(arr, x0, axis=1)`` and ``np.take(arr, x1,
    axis=1)``), then between the two rows of it that each output row
    gathers.  This order repeats the products and sums of the four-corner
    formula ``(a00*(1-fx) + a01*fx)*(1-fy) + (a10*(1-fx) + a11*fx)*fy`` in
    the same order, so the result is bit-identical to evaluating it pixel
    by pixel.
    """
    arr = require_gray(img)
    h_in, w_in = arr.shape
    if width < 1 or height < 1:
        raise ValueError("output dimensions must be >= 1")
    if width == w_in and height == h_in:
        return arr
    x0, x1, wx0, wx1, y0, y1, wy0, wy1 = _bilinear_tables(h_in, w_in, width, height)
    # both lerps run in place on the fresh gathered copies, never on a table
    rows = np.take(arr, x0, axis=1)
    rows *= wx0
    right = np.take(arr, x1, axis=1)
    right *= wx1
    rows += right
    out = rows[y0]
    out *= wy0
    below = rows[y1]
    below *= wy1
    out += below
    return out


_BAND = 32  # outputs per block product in gaussian_filter


@functools.lru_cache(maxsize=None)
def _gaussian_band(sigma: float, radius: int) -> np.ndarray:
    """(_BAND, _BAND + 2*radius) Toeplitz block of Gaussian taps.

    Row i holds the 2*radius+1 taps exp(-t^2 / (2 sigma^2)), t in
    -radius..radius, normalized to sum to 1, in columns i..i+2*radius, and
    zeros elsewhere: it maps the _BAND + 2*radius padded samples that _BAND
    consecutive outputs read to those outputs.  That is 32 x (32 + 2*radius)
    float64 values, 10,752 bytes at SSIM's radius 5.  Built once per
    process and (sigma, radius), and read-only.
    """
    t = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-(t * t) / (2.0 * sigma * sigma))
    k = k / k.sum()
    rows = np.arange(_BAND)[:, None]
    band = np.zeros((_BAND, _BAND + 2 * radius))
    band[rows, rows + np.arange(k.size)] = k
    band.flags.writeable = False
    return band


class Workspace:
    """Scratch buffers for the scoring kernels: one flat float64 buffer per
    role, grown to the largest size asked for.  Not thread-safe; each
    thread uses its own (:func:`thread_workspace`)."""

    def __init__(self) -> None:
        self._flat: dict[str, np.ndarray] = {}

    def get(self, role: str, shape: tuple[int, ...]) -> np.ndarray:
        """The role's buffer viewed at ``shape``, C-contiguous, contents
        undefined.  A later call for the same role may return the same
        memory, so a view is valid only until then."""
        n = math.prod(shape)
        flat = self._flat.get(role)
        if flat is None or flat.size < n:
            flat = self._flat[role] = np.empty(n)
        return flat[:n].reshape(shape)


_THREAD = threading.local()


def thread_workspace() -> Workspace:
    """The calling thread's :class:`Workspace`, made on its first call and
    kept for the life of the thread."""
    work = getattr(_THREAD, "work", None)
    if work is None:
        work = _THREAD.work = Workspace()
    return work


def _reflect_pad(img: np.ndarray, radius: int, p: np.ndarray) -> np.ndarray:
    """``np.pad(img, radius, mode="reflect")`` written into ``p`` by slice
    copies, for a radius below both sides: the rows first, then the columns
    over the full padded height, which carries the corners along."""
    h, w = img.shape
    r = radius
    p[r : r + h, r : r + w] = img
    p[:r, r : r + w] = img[1 : r + 1][::-1]
    p[r + h :, r : r + w] = img[h - 1 - r : h - 1][::-1]
    p[:, :r] = p[:, r + 1 : 2 * r + 1][:, ::-1]
    p[:, r + w :] = p[:, w - 1 : w - 1 + r][:, ::-1]
    return p


def gaussian_filter(
    img: np.ndarray, sigma: float, radius: int, out: np.ndarray | None = None, work: Workspace | None = None
) -> np.ndarray:
    """Separable Gaussian smoothing on a reflect-padded copy; same shape out.

    Filters rows, then columns, each in blocks of up to 32 outputs: one
    product of the padded block with the :func:`_gaussian_band` of
    (sigma, radius), so a block costs one small BLAS product whatever the
    radius, and an output 32 + 2*radius multiply-adds (42 at SSIM's
    radius 5).  For a given shape BLAS sums each dot product in the same
    order, so repeated calls are bit-identical, whatever the input's memory
    layout, and whether or not ``out`` and ``work`` are given.

    The result is written into ``out`` when given (a C-contiguous
    ``img``-shaped float64 array, which may be ``img`` itself) and into a
    fresh array otherwise.  The padded copy and the row pass are ``work``'s
    ``pad`` and ``rows`` buffers: the pad is filled by slice copies (by
    ``np.pad`` when the radius is at least a side) and every block product
    is written in place.  With a kept workspace (the scoring kernels') the
    call takes no fresh pages; without one it makes a fresh
    :class:`Workspace`, freed when the call returns.
    """
    work = work if work is not None else Workspace()
    band = _gaussian_band(sigma, radius)
    h, w = img.shape
    hp, wp = h + 2 * radius, w + 2 * radius
    if out is None:
        out = np.empty((h, w))
    if radius < min(h, w):
        p = _reflect_pad(img, radius, work.get("pad", (hp, wp)))
    else:
        p = np.pad(img, radius, mode="reflect")
    horiz = work.get("rows", (hp, w))
    for x in range(0, w, _BAND):
        n = min(_BAND, w - x)
        np.matmul(p[:, x : x + n + 2 * radius], band[:n, : n + 2 * radius].T, out=horiz[:, x : x + n])
    for y in range(0, h, _BAND):
        n = min(_BAND, h - y)
        np.matmul(band[:n, : n + 2 * radius], horiz[y : y + n + 2 * radius], out=out[y : y + n])
    return out


def _parse_pnm(data: bytes, path: str) -> np.ndarray:
    channels = 1 if data[:2] == b"P5" else 3
    pos = 2
    fields: list[int] = []
    while len(fields) < 3:
        while pos < len(data) and (data[pos] in _PNM_WHITESPACE or data[pos] == ord("#")):
            if data[pos] == ord("#"):
                nl = data.find(b"\n", pos)
                if nl < 0:
                    raise ImageFormatError(f"{path}: unterminated comment in header")
                pos = nl + 1
            else:
                pos += 1
        start = pos
        while pos < len(data) and data[pos] not in _PNM_WHITESPACE:
            pos += 1
        token = data[start:pos]
        if not token:
            raise ImageFormatError(f"{path}: truncated header")
        try:
            fields.append(int(token))
        except ValueError:
            raise ImageFormatError(f"{path}: non-numeric header field {token!r}") from None
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise ImageFormatError(f"{path}: invalid dimensions {width}x{height}")
    if maxval != 255:
        raise ImageFormatError(f"{path}: unsupported maxval {maxval} (only 255 is supported)")
    pos += 1  # exactly one whitespace byte separates the header from the raster
    need = width * height * channels
    raster = data[pos : pos + need]
    if len(raster) < need:
        raise ImageFormatError(f"{path}: truncated raster (expected {need} bytes, got {len(raster)})")
    arr = np.frombuffer(raster, dtype=np.uint8).astype(np.float64) / 255.0
    if channels == 1:
        return arr.reshape(height, width)
    return arr.reshape(height, width, 3)


def _parse_rawf32(data: bytes, path: str) -> np.ndarray:
    nl = data.find(b"\n")
    if nl < 0:
        raise ImageFormatError(f"{path}: missing raw-float header line")
    parts = data[:nl].split()
    if len(parts) != 3 or parts[0] != RAW_MAGIC:
        raise ImageFormatError(f"{path}: malformed raw-float header {data[:nl]!r}")
    try:
        width, height = int(parts[1]), int(parts[2])
    except ValueError:
        raise ImageFormatError(f"{path}: non-numeric raw-float dimensions") from None
    if width < 1 or height < 1:
        raise ImageFormatError(f"{path}: invalid dimensions {width}x{height}")
    need = 4 * width * height
    raster = data[nl + 1 :]
    if len(raster) < need:
        raise ImageFormatError(f"{path}: truncated raster (expected {need} bytes, got {len(raster)})")
    if len(raster) > need:
        raise ImageFormatError(f"{path}: {len(raster) - need} trailing bytes after raster")
    return np.frombuffer(raster, dtype="<f4").astype(np.float64).reshape(height, width)


def load_image(path: str | os.PathLike) -> np.ndarray:
    """Load a PGM (P5), PPM (P6), or raw-float (SKVR1) image.

    Returns a 2-D array for grayscale input and an (H, W, 3) array for PPM.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    spath = os.fspath(path)
    if data[:2] in (b"P5", b"P6"):
        return _parse_pnm(data, spath)
    if data[: len(RAW_MAGIC)] == RAW_MAGIC:
        return _parse_rawf32(data, spath)
    raise ImageFormatError(f"{spath}: unrecognized format (expected P5, P6, or SKVR1)")


def save_image(img: np.ndarray, path: str | os.PathLike, fmt: str = "rawf32") -> None:
    """Write a grayscale image as 8-bit PGM (``pgm8``) or raw float (``rawf32``).

    pgm8 quantizes with round-half-up on v*255; rawf32 is lossless at
    float32 precision.
    """
    arr = require_gray(img)
    h, w = arr.shape
    if fmt == "pgm8":
        levels = np.clip(np.floor(arr * 255.0 + 0.5), 0.0, 255.0).astype(np.uint8)
        payload = f"P5\n{w} {h}\n255\n".encode("ascii") + levels.tobytes()
    elif fmt == "rawf32":
        payload = RAW_MAGIC + f" {w} {h}\n".encode("ascii") + np.ascontiguousarray(arr, dtype="<f4").tobytes()
    else:
        raise ValueError(f"unknown format {fmt!r} (expected 'pgm8' or 'rawf32')")
    with open(path, "wb") as fh:
        fh.write(payload)
