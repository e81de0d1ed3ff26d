"""Objective fidelity metrics: SSIM, high-frequency SSIM, and mean L1.

SSIM follows the standard definition with Gaussian-weighted local statistics
(``SsimParams()``: 11-tap window, sigma 1.5, k1=0.01, k2=0.03, dynamic range
1 as images are in [0, 1]) computed on reflect-padded inputs, so the
returned map has the same shape as the inputs.  Labels, tau and every
trained model are defined under that one SSIM.  The high-frequency variant
averages the SSIM map only over the reference image's strongest Sobel
responses (at or above their :data:`HF_MASK_QUANTILE`, the top quartile),
emphasizing fine-detail preservation that the plain mean washes out.  The
mask's cutoff is numpy's linear quantile of the Sobel map, the bits of
``np.quantile`` taken from one single-kth ``np.partition``
(:func:`_hf_cutoff`): numpy selects one kth on its SIMD path but runs the
three of ``np.quantile`` on its generic one, ~10x slower at 256 x 256.  The
masked values are gathered by ``np.compress`` over the flattened arrays,
which picks the elements of boolean indexing in the same order but is
several times faster on a mask as scattered as a Sobel map's.
Callers that need both scores build one map and take ``np.mean`` and
:func:`hf_mean` of it; callers that score several images against one
reference use :func:`ssim_maps`, which filters the reference's moments once.

Scoring takes no fresh pages in steady state, but for the high-frequency
mask: every intermediate of the SSIM filters, moments and formula and of
the Sobel map's differences lives in the calling thread's
``image.Workspace``, which the thread keeps for its lifetime, while the
cutoff partitions a copy of the Sobel map and the mask and the values it
picks are fresh arrays.  The workspace's roles are the filter's ``pad`` and
``rows`` buffers (the latter also holds each squared mean, the products
between filter calls and the SSIM numerator) and ``mu``, ``sq`` and
``cov``, one scored image's filtered moments; at 256 x 256 the five take
~2.6 MB per thread.  The reference's moments are filtered into two fresh
arrays, which :func:`ssim_maps` holds between yields, and callers always get
fresh arrays: each yielded SSIM map and each Sobel map.  No workspace buffer
is held across a ``yield``, so interleaved generators and concurrent threads
get the bits of serial calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .frequency import sobel_magnitude
from .image import gaussian_filter, require_gray, thread_workspace


@dataclass(frozen=True)
class SsimParams:
    window: int = 11
    sigma: float = 1.5
    k1: float = 0.01
    k2: float = 0.03

    def __post_init__(self) -> None:
        if self.window < 3 or self.window % 2 == 0:
            raise ValueError(f"window must be odd and >= 3, got {self.window}")
        if self.sigma <= 0.0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if self.k1 <= 0.0 or self.k2 <= 0.0:
            raise ValueError("k1 and k2 must be positive")


# quantile of the reference Sobel magnitude at or above which a pixel counts
# as high-frequency
HF_MASK_QUANTILE = 0.75


def _check_like(b: np.ndarray, reference: np.ndarray) -> np.ndarray:
    b = require_gray(b, "image")
    if b.shape != reference.shape:
        raise ValueError(f"image dimensions differ: {reference.shape} vs {b.shape}")
    return b


def _moments(x: np.ndarray, params: SsimParams, mu: np.ndarray, var: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian-filtered local mean and variance of one image, written into
    and returned as ``mu`` and ``var`` (C-contiguous ``x``-shaped float64
    arrays); the subtracted square of the mean goes through the thread's
    ``rows`` buffer."""
    sigma, radius = params.sigma, params.window // 2
    work = thread_workspace()
    gaussian_filter(x, sigma, radius, out=mu, work=work)
    np.multiply(x, x, out=var)
    gaussian_filter(var, sigma, radius, out=var, work=work)
    var -= np.multiply(mu, mu, out=work.get("rows", x.shape))
    return mu, var


def _ssim_against(a: np.ndarray, mu_a: np.ndarray, var_a: np.ndarray, b: np.ndarray, params: SsimParams) -> np.ndarray:
    """SSIM map of ``b`` against the reference ``a``, as a fresh array.

    Every intermediate lives in the thread's workspace: ``b``'s moments in
    ``mu``, ``sq`` and ``cov``, and the products between filter calls, then
    the numerator, in the filter's ``rows`` buffer, which is free once a
    filter call returns.  The operations are those of
    ``(2 mu_a mu_b + c1)(2 cov + c2) / ((mu_a^2 + mu_b^2 + c1)(var_a + var_b + c2))``
    in their left-to-right order, so the bits equal the out-of-place form.
    """
    sigma, radius = params.sigma, params.window // 2
    work = thread_workspace()
    shape = a.shape
    mu_b, var_b = _moments(b, params, work.get("mu", shape), work.get("sq", shape))
    cov = np.multiply(a, b, out=work.get("cov", shape))
    gaussian_filter(cov, sigma, radius, out=cov, work=work)
    # the filter call above used ``rows``, so take it again
    tmp = work.get("rows", shape)
    cov -= np.multiply(mu_a, mu_b, out=tmp)
    c1 = params.k1**2  # dynamic range 1
    c2 = params.k2**2
    num = np.multiply(mu_a, 2.0, out=tmp)
    num *= mu_b
    num += c1
    cov *= 2.0
    cov += c2
    num *= cov
    den = np.multiply(mu_a, mu_a, out=cov)
    den += np.multiply(mu_b, mu_b, out=mu_b)
    den += c1
    var_b += var_a
    var_b += c2
    den *= var_b
    return num / den


def ssim_maps(
    reference: np.ndarray, images: Iterable[np.ndarray], params: SsimParams = SsimParams()
) -> Iterator[np.ndarray]:
    """SSIM map of each image against one reference, yielded lazily in order.

    The reference's filtered moments are computed once, here; each image then
    costs only its own three filter passes.  ``images`` may itself be lazy,
    so a caller that reduces each map before asking for the next holds one
    image and one map at a time.
    """
    a = require_gray(reference, "reference")
    if min(a.shape) < params.window:
        raise ValueError(f"images of shape {a.shape} are smaller than the {params.window}-tap window")
    mu_a, var_a = _moments(a, params, np.empty(a.shape), np.empty(a.shape))
    return (_ssim_against(a, mu_a, var_a, _check_like(b, a), params) for b in images)


def ssim_map(a: np.ndarray, b: np.ndarray, params: SsimParams = SsimParams()) -> np.ndarray:
    """Full-size per-pixel structural similarity map: :func:`ssim_maps` with
    ``a`` as the reference and ``b`` as the one image."""
    return next(ssim_maps(a, (b,), params))


def ssim(a: np.ndarray, b: np.ndarray, params: SsimParams = SsimParams()) -> float:
    """Mean of the SSIM map; 1.0 exactly for identical inputs."""
    return float(np.mean(ssim_map(a, b, params)))


def ssim_hf(a: np.ndarray, b: np.ndarray, params: SsimParams = SsimParams()) -> float:
    """SSIM averaged over the reference image's high-frequency regions: the
    :func:`hf_mean` of ``ssim_map(a, b)`` with ``a`` as the reference."""
    return hf_mean(ssim_map(a, b, params), a)


def _hf_cutoff(sob: np.ndarray) -> float:
    """``np.quantile(sob, HF_MASK_QUANTILE)``, bit for bit, from one
    partition.

    numpy's linear quantile at position p = (n - 1) q interpolates between
    the order statistics at k = floor(p) and k + 1 by its ``_lerp`` rule,
    which this repeats.  ``np.quantile`` partitions at three kth values (the
    two order statistics and -1 for its NaN check), which numpy runs on its
    generic selection; one kth takes its SIMD path, about ten times faster
    at 256 x 256, and the order statistic above k is the minimum of the
    values it leaves above.  NaNs partition last, so any NaN reaches one of
    the two, and the cutoff is NaN as numpy's is.  ``sob`` holds at least
    two values.
    """
    pos = (sob.size - 1) * HF_MASK_QUANTILE
    k = int(pos)
    frac = pos - k
    part = np.partition(sob.ravel(), k)
    lo, hi = part[k], part[k + 1 :].min()
    diff = hi - lo
    return float(hi - diff * (1.0 - frac) if frac >= 0.5 else lo + diff * frac)


def hf_mean(values: np.ndarray, reference: np.ndarray) -> float:
    """Mean of a per-pixel map over the reference image's high-frequency pixels.

    The mask keeps pixels whose Sobel magnitude in ``reference`` is at least
    the :data:`HF_MASK_QUANTILE` quantile of that map (:func:`_hf_cutoff`).
    A flat reference yields the plain mean (every pixel ties at zero, and an
    empty mask falls back to it as well, as it does when the Sobel map holds
    a NaN).  ``values`` must have the reference's shape.  The masked values
    are gathered by ``np.compress`` over the flattened arrays: the elements
    and order of ``values[mask]``, but on a scattered mask such as a Sobel
    map's several times faster than boolean indexing.
    """
    ref = require_gray(reference, "reference")
    values = np.asarray(values)
    if values.shape != ref.shape:
        raise ValueError(f"values of shape {values.shape} do not match the reference's shape {ref.shape}")
    sob = sobel_magnitude(ref)
    picked = np.compress(sob.ravel() >= _hf_cutoff(sob), values.ravel())
    return float(np.mean(picked if picked.size else values))


def l1_mean(a: np.ndarray, b: np.ndarray) -> float:
    """Mean absolute pixel difference."""
    a = require_gray(a, "a")
    b = require_gray(b, "b")
    if a.shape != b.shape:
        raise ValueError(f"image dimensions differ: {a.shape} vs {b.shape}")
    return float(np.mean(np.abs(a - b)))
