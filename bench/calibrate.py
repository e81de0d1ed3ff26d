"""Machine-speed calibration for timings taken on a shared, noisy host.

On a shared machine the same fixed work runs up to 25% slower or faster
from one second to the next, and a whole 20-second run can sit in a slow or
a fast stretch.  Process CPU time swings with wall time, so the cause is
contention for caches and memory bandwidth, not preemption, and no amount of
repetition inside one run averages it away.

The benchmark therefore runs a fixed probe kernel before and after every
request and reports each time scaled to a machine on which the probe takes
its reference time: ``time * REFERENCE_S[kernel] / probe``, where ``probe``
is the rolling median of the probes around that request.  The reference
times are the kernels' typical times on the 2-core box this benchmark was
written on, so calibrated times there read close to raw ones.  Contention slows
Python-loop-bound and array-bound code by different amounts, so each
workload uses the kernel that mirrors its dominant layer: ``loop`` (the
per-column sums of ``image.resize_area``) for serve, ``filter`` (the
separable filter of ``metrics.ssim_map``) for label and evaluate.  Measured
on a shared 2-core box, the matching kernel cut the run-to-run spread of
mean latency from 13-21% to 1-5%; the other kernel left 5-8%.  The raw,
unscaled times are printed on the run's ``info:`` line.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = {"loop": 1.0e-3, "filter": 2.0e-3}
WINDOW = 3  # probes on each side of a request that its scale factor uses

_ARRAY = np.random.default_rng(0).random((256, 256))
_TAPS = np.exp(-np.arange(-5.0, 6.0) ** 2 / 4.5)
_TAPS /= _TAPS.sum()


def _loop_kernel() -> None:
    # per-column weighted sums, as image.resize_area does them, then a stencil
    out = np.empty((256, 128))
    for j in range(128):
        out[:, j] = 0.6 * _ARRAY[:, 2 * j] + 0.4 * _ARRAY[:, 2 * j + 1]
    padded = np.pad(out, 1, mode="edge")
    float((padded[:-2, 1:-1] - padded[2:, 1:-1]).sum())


def _filter_kernel() -> None:
    # an 11-tap separable filter over the whole array, as metrics.ssim_map does
    padded = np.pad(_ARRAY, 5, mode="reflect")
    horiz = _TAPS[0] * padded[:, 0:256]
    for t in range(1, 11):
        horiz = horiz + _TAPS[t] * padded[:, t : t + 256]
    out = _TAPS[0] * horiz[0:256, :]
    for t in range(1, 11):
        out = out + _TAPS[t] * horiz[t : t + 256, :]
    float(out.sum())


KERNELS = {"loop": _loop_kernel, "filter": _filter_kernel}
# Every set-up is dominated by whole-array work (synth_target, the warm-up).
SETUP_KERNEL = "filter"


def probe(kernel: str) -> float:
    """Seconds one run of the named probe kernel takes right now."""
    start = time.perf_counter()
    KERNELS[kernel]()
    return time.perf_counter() - start


def probe_median(kernel: str, n: int = 5) -> float:
    return statistics.median(probe(kernel) for _ in range(n))


def calibrated(times: list[float], probes: list[float], kernel: str) -> list[float]:
    """Scale each time to the reference machine speed.

    ``probes`` has one entry more than ``times``: ``probes[i]`` and
    ``probes[i + 1]`` were taken right before and right after ``times[i]``.
    """
    brackets = [(a + b) / 2.0 for a, b in zip(probes, probes[1:])]
    return [
        t * REFERENCE_S[kernel] / statistics.median(brackets[max(0, i - WINDOW) : i + WINDOW + 1])
        for i, t in enumerate(times)
    ]
