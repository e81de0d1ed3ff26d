"""Independent brute-force reimplementations used as test oracles.

Everything here computes straight from definitions (explicit loops, matrix
DFTs, per-window statistics) and deliberately shares no code with the
package, so agreement is meaningful.

The ``*_inline`` forms at the end are not brute force: they are earlier
vectorized forms of package kernels, kept to pin those kernels' bits.
"""

import math

import numpy as np


def area_resize_naive(img, w, h):
    """Exact area-average downsample via per-pixel overlap accumulation."""
    h_in, w_in = img.shape
    sx = w_in / w
    sy = h_in / h
    out = np.zeros((h, w))
    for oy in range(h):
        for ox in range(w):
            x0, x1 = ox * sx, (ox + 1) * sx
            y0, y1 = oy * sy, (oy + 1) * sy
            total = 0.0
            weight = 0.0
            for iy in range(int(math.floor(y0)), min(int(math.ceil(y1)), h_in)):
                wy = min(y1, iy + 1.0) - max(y0, float(iy))
                for ix in range(int(math.floor(x0)), min(int(math.ceil(x1)), w_in)):
                    wx = min(x1, ix + 1.0) - max(x0, float(ix))
                    total += wy * wx * img[iy, ix]
                    weight += wy * wx
            out[oy, ox] = total / weight
    return out


def sobel_naive(img):
    """3x3 Sobel magnitude with replicate borders, pixel by pixel."""
    h, w = img.shape
    kx = [[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]]
    ky = [[-1, -2, -1], [0, 0, 0], [1, 2, 1]]
    out = np.zeros((h, w))
    for y in range(h):
        for x in range(w):
            gx = gy = 0.0
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    yy = min(max(y + dy, 0), h - 1)
                    xx = min(max(x + dx, 0), w - 1)
                    gx += kx[dy + 1][dx + 1] * img[yy, xx]
                    gy += ky[dy + 1][dx + 1] * img[yy, xx]
            out[y, x] = math.sqrt(gx * gx + gy * gy)
    return out


def hf_diff_naive(a, b, size):
    ra = area_resize_naive(a, size, size)
    rb = area_resize_naive(b, size, size)
    da = sobel_naive(ra)
    db = sobel_naive(rb)
    total = 0.0
    for y in range(size):
        for x in range(size):
            total += abs(da[y, x] - db[y, x])
    return total / (size * size)


def dft2_naive(img):
    """Definition-based 2-D DFT through explicit twiddle matrices."""
    h, w = img.shape
    wy = np.exp(-2j * np.pi * np.outer(np.arange(h), np.arange(h)) / h)
    wx = np.exp(-2j * np.pi * np.outer(np.arange(w), np.arange(w)) / w)
    return wy @ img.astype(np.complex128) @ wx.T


def hf_ratio_naive(img, rho, eps):
    """Spectral ratio with the center-shift realized by signed frequencies."""
    h, w = img.shape
    mag = np.abs(dft2_naive(img))
    half = min(h, w) / 2.0
    high = 0.0
    total = 0.0
    for u in range(h):
        fu = u - h if u >= (h + 1) // 2 else u
        for v in range(w):
            fv = v - w if v >= (w + 1) // 2 else v
            m = mag[u, v]
            total += m
            if math.sqrt(fu * fu + fv * fv) / half > rho:
                high += m
    return high / (total + eps)


def gaussian_kernel_2d(window, sigma):
    c = (window - 1) / 2.0
    k = np.array([math.exp(-((i - c) ** 2) / (2 * sigma * sigma)) for i in range(window)])
    k = k / k.sum()
    return np.outer(k, k)


def ssim_map_naive(a, b, window=11, sigma=1.5, k1=0.01, k2=0.03, dynamic_range=1.0):
    """Per-window SSIM statistics computed with an explicit 2-D kernel."""
    r = window // 2
    pa = np.pad(a, r, mode="reflect")
    pb = np.pad(b, r, mode="reflect")
    kern = gaussian_kernel_2d(window, sigma)
    c1 = (k1 * dynamic_range) ** 2
    c2 = (k2 * dynamic_range) ** 2
    h, w = a.shape
    out = np.zeros((h, w))
    for y in range(h):
        for x in range(w):
            wa = pa[y : y + window, x : x + window]
            wb = pb[y : y + window, x : x + window]
            mu_a = float((kern * wa).sum())
            mu_b = float((kern * wb).sum())
            var_a = float((kern * wa * wa).sum()) - mu_a * mu_a
            var_b = float((kern * wb * wb).sum()) - mu_b * mu_b
            cov = float((kern * wa * wb).sum()) - mu_a * mu_b
            out[y, x] = ((2 * mu_a * mu_b + c1) * (2 * cov + c2)) / (
                (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
            )
    return out


def quantile_naive(values, q):
    """Linear-interpolation quantile from first principles."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(s) - 1)
    frac = pos - lo
    return s[lo] + frac * (s[hi] - s[lo])


def ssim_hf_naive(a, b, window=11, sigma=1.5, k1=0.01, k2=0.03, dynamic_range=1.0, quantile=0.75):
    smap = ssim_map_naive(a, b, window, sigma, k1, k2, dynamic_range)
    sob = sobel_naive(a)
    cutoff = quantile_naive(sob.ravel().tolist(), quantile)
    total = 0.0
    count = 0
    for y in range(a.shape[0]):
        for x in range(a.shape[1]):
            if sob[y, x] >= cutoff:
                total += smap[y, x]
                count += 1
    if count == 0:
        return float(smap.mean())
    return total / count


def l1_naive(a, b):
    total = 0.0
    for y in range(a.shape[0]):
        for x in range(a.shape[1]):
            total += abs(a[y, x] - b[y, x])
    return total / a.size


def bilinear_positions_naive(n_in, n_out):
    """Edge-aligned sample positions: i*(n_in-1)/(n_out-1), the last one
    pinned to n_in-1, and the midline for a single sample."""
    if n_out == 1:
        return [(n_in - 1) / 2.0]
    step = (n_in - 1) / (n_out - 1)
    return [i * step for i in range(n_out - 1)] + [float(n_in - 1)]


def bilinear_resize_naive(img, w, h):
    """Bilinear resize pixel by pixel from the four-corner formula."""
    h_in, w_in = img.shape
    xs = bilinear_positions_naive(w_in, w)
    ys = bilinear_positions_naive(h_in, h)
    out = np.zeros((h, w))
    for oy, y in enumerate(ys):
        y0 = int(math.floor(y))
        y1 = min(y0 + 1, h_in - 1)
        fy = y - y0
        for ox, x in enumerate(xs):
            x0 = int(math.floor(x))
            x1 = min(x0 + 1, w_in - 1)
            fx = x - x0
            top = float(img[y0, x0]) * (1.0 - fx) + float(img[y0, x1]) * fx
            bot = float(img[y1, x0]) * (1.0 - fx) + float(img[y1, x1]) * fx
            out[oy, ox] = top * (1.0 - fy) + bot * fy
    return out


def reflect_index_naive(i, n):
    """Index i folded into 0..n-1 by mirroring about the edge samples
    without repeating them (period 2*(n-1)); a 1-sample axis is constant."""
    if n == 1:
        return 0
    period = 2 * (n - 1)
    i %= period
    return i if i < n else period - i


def gaussian_filter_naive(img, sigma, radius):
    """Gaussian smoothing pixel by pixel: each output is the sum of the
    (2*radius+1)^2 outer-product taps over its reflect-padded window."""
    h, w = img.shape
    taps = [math.exp(-(t * t) / (2.0 * sigma * sigma)) for t in range(-radius, radius + 1)]
    total = sum(taps)
    kern = np.outer(np.array(taps) / total, np.array(taps) / total)
    rows = [reflect_index_naive(y, h) for y in range(-radius, h + radius)]
    cols = [reflect_index_naive(x, w) for x in range(-radius, w + radius)]
    padded = np.asarray(img, dtype=np.float64)[np.ix_(rows, cols)]
    size = 2 * radius + 1
    out = np.zeros((h, w))
    for y in range(h):
        for x in range(w):
            out[y, x] = float((kern * padded[y : y + size, x : x + size]).sum())
    return out


def gaussian_filter_inline(img, sigma, radius):
    """The banded filter on an ``np.pad`` copy, each block product assigned
    into a fresh row-pass array and a fresh output, kept to pin
    gaussian_filter's bits."""
    t = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-(t * t) / (2.0 * sigma * sigma))
    k = k / k.sum()
    rows = np.arange(32)[:, None]
    band = np.zeros((32, 32 + 2 * radius))
    band[rows, rows + np.arange(k.size)] = k
    h, w = img.shape
    p = np.pad(img, radius, mode="reflect")
    horiz = np.empty((h + 2 * radius, w))
    for x in range(0, w, 32):
        n = min(32, w - x)
        horiz[:, x : x + n] = p[:, x : x + n + 2 * radius] @ band[:n, : n + 2 * radius].T
    out = np.empty((h, w))
    for y in range(0, h, 32):
        n = min(32, h - y)
        out[y : y + n] = band[:n, : n + 2 * radius] @ horiz[y : y + n + 2 * radius]
    return out


def ssim_map_inline(a, b, window=11, sigma=1.5, k1=0.01, k2=0.03):
    """The SSIM map as one out-of-place expression over
    :func:`gaussian_filter_inline` moments, kept to pin ssim_map's bits."""
    r = window // 2
    mu_a = gaussian_filter_inline(a, sigma, r)
    var_a = gaussian_filter_inline(a * a, sigma, r) - mu_a * mu_a
    mu_b = gaussian_filter_inline(b, sigma, r)
    var_b = gaussian_filter_inline(b * b, sigma, r) - mu_b * mu_b
    cov = gaussian_filter_inline(a * b, sigma, r) - mu_a * mu_b
    c1 = k1**2
    c2 = k2**2
    num = (2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)
    den = (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
    return num / den


def synth_target_inline(spec, size):
    """The procedural target on meshgrid coordinates, every term a fresh
    out-of-place array and each noise octave filtered into a fresh layer
    through :func:`gaussian_filter_inline`, kept to pin synth_target's
    bits.  Stream 0 of the spec's seed is the generator's target stream."""
    rng = np.random.default_rng((spec.seed, 0))
    yy, xx = np.meshgrid(np.arange(size, dtype=np.float64), np.arange(size, dtype=np.float64), indexing="ij")
    img = np.full((size, size), 0.5)
    for i in range(spec.blobs):
        cy = rng.uniform(0.15, 0.85) * size
        cx = rng.uniform(0.15, 0.85) * size
        sig = spec.blob_sigma * rng.uniform(0.6, 1.4)
        amp = spec.blob_amp * rng.uniform(0.5, 1.0) * (1.0 if i % 2 == 0 else -1.0)
        d2 = (yy - cy) ** 2 + (xx - cx) ** 2
        img = img + amp * np.exp(-d2 / (2.0 * sig * sig))
    if spec.sine_amp > 0.0 and spec.sine_cycles > 0.0:
        phase = rng.uniform(0.0, 2.0 * np.pi)
        u = xx * np.cos(spec.sine_angle) + yy * np.sin(spec.sine_angle)
        img = img + spec.sine_amp * np.sin(2.0 * np.pi * spec.sine_cycles * u / size + phase)
    if spec.noise_amp > 0.0:
        field = np.zeros((size, size))
        for octave in range(spec.noise_octaves):
            layer = rng.standard_normal((size, size))
            sigma = spec.noise_scale * (2.0**octave)
            if sigma > 0.0:
                layer = gaussian_filter_inline(layer, sigma, max(1, int(math.ceil(3.0 * sigma))))
            rms = float(np.sqrt(np.mean(layer * layer)))
            field = field + (spec.noise_persistence**octave / rms) * layer
        field_rms = float(np.sqrt(np.mean(field * field)))
        img = img + spec.noise_amp * field / field_rms
    return np.clip(img, 0.0, 1.0)
