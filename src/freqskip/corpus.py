"""Frozen procedural corpora spanning the frequency-sensitivity spectrum.

The default mixed corpus draws three recipe groups: smooth scenes (Gaussian
blobs plus at most a coarse, faint texture), multi-octave textured scenes
whose spectral slope spans the skip boundaries, and fine-texture scenes that
only the late generation steps can carry.  Octave textures are roughly
scale-self-similar, which keeps the decision-step spectral features aligned
with the final full-resolution output.

Group shares and parameter ranges were tuned once against the acceptance
checks and then frozen; regenerating with the same seed is bit-stable.  Two
further families with disjoint recipe styles (blob geometry, texture bands,
sinusoidal accents) support the transfer check: train on one, evaluate on
the other.
"""

from __future__ import annotations

import ctypes
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import numpy as np

from .generator import TargetSpec

_CORPUS_STREAM = 2


def default_ids(n: int) -> list[str]:
    return [f"s{i:04d}" for i in range(n)]


def sample_ids(specs: list[TargetSpec], ids: list[str] | None) -> list[str]:
    """One id per spec: ``ids``, or :func:`default_ids` when None.

    Raises ValueError for an empty spec list or an id count that differs
    from the spec count.
    """
    if not specs:
        raise ValueError("spec list must not be empty")
    if ids is None:
        return default_ids(len(specs))
    if len(ids) != len(specs):
        raise ValueError(f"{len(ids)} ids for {len(specs)} specs")
    return list(ids)


# (worker count, executor) of the process's kept pool, or None before its
# first pooled call
_kept_pool = None

# glibc's mallopt parameter numbers (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_memory() -> None:
    """Pool worker initializer: serve blocks up to 4 MiB from the heap and
    trim it only past 8 MiB free, so each sample reuses the pages the last
    one freed.

    glibc otherwise raises both thresholds to the largest block freed so
    far, and a forked worker starts from whatever its parent freed before
    the fork: with no 1 MiB block freed there, evaluate's workers refaulted
    ~1.5 MB per sample.  A C library without ``mallopt`` is left as it is.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(_M_MMAP_THRESHOLD, 4 << 20)
    mallopt(_M_TRIM_THRESHOLD, 8 << 20)


def _drop_kept_pool() -> None:
    """Shut the kept pool down, if any; the next pooled call starts a new one."""
    global _kept_pool
    if _kept_pool is not None:
        pool = _kept_pool[1]
        _kept_pool = None
        pool.shutdown(wait=False, cancel_futures=True)


def _map_jobs(fn, items: list, jobs: int) -> list:
    """``[fn(item) for item in items]``, in order, on min(``jobs``, CPU count, item count) processes.

    With one process the items run here, in this process.  With two or
    more, every item runs in the process's kept pool of that many workers
    while this process waits for their results, so ``jobs=2`` is two
    workers plus a waiting parent.  The pool is forked on the first call
    that needs workers and reused by every later call that needs as many; a
    call that needs another count replaces it.  Workers therefore see this
    process as it was when they were forked (cwd, environment, module
    attributes).  A map that raises shuts the pool down, and interpreter
    exit ends its workers.

    A worker that dies during a map (killed, or unable to unpickle its
    task) breaks the pool: the map raises ChildProcessError instead of
    waiting for the lost result, and the next pooled call starts a new pool.
    """
    global _kept_pool
    jobs = min(jobs, os.cpu_count() or 1, len(items))
    if jobs <= 1:
        return [fn(item) for item in items]
    if _kept_pool is not None and _kept_pool[0] != jobs:
        _drop_kept_pool()
    if _kept_pool is None:
        _kept_pool = (jobs, ProcessPoolExecutor(jobs, initializer=_keep_freed_memory))
    try:
        return list(_kept_pool[1].map(fn, items))
    except BrokenProcessPool as exc:
        _drop_kept_pool()
        raise ChildProcessError(f"a pool worker died during a map ({exc})") from None
    except BaseException:
        _drop_kept_pool()
        raise


def default_corpus(n: int = 200, seed: int = 0) -> list[TargetSpec]:
    """The frozen mixed corpus used by the standard experiments."""
    rng = np.random.default_rng((seed, _CORPUS_STREAM, 0))
    specs = []
    for _ in range(n):
        u = rng.random()
        sample_seed = int(rng.integers(0, 2**31))
        if u < 0.25:
            # smooth: blobs, at most a faint coarse texture
            spec = TargetSpec(
                seed=sample_seed,
                blobs=int(rng.integers(2, 6)),
                blob_sigma=float(rng.uniform(25.0, 50.0)),
                blob_amp=float(rng.uniform(0.18, 0.30)),
                noise_amp=float(rng.uniform(0.0, 0.10)),
                noise_scale=0.6,
                noise_octaves=5,
                noise_persistence=float(rng.uniform(2.2, 3.2)),
            )
        elif u < 0.80:
            # textured: spectral slope sweeps across the skip boundaries
            spec = TargetSpec(
                seed=sample_seed,
                blobs=int(rng.integers(2, 5)),
                blob_sigma=float(rng.uniform(25.0, 45.0)),
                blob_amp=float(rng.uniform(0.18, 0.28)),
                noise_amp=float(rng.uniform(0.05, 0.30)),
                noise_scale=0.6,
                noise_octaves=5,
                noise_persistence=float(np.exp(rng.uniform(np.log(0.55), np.log(2.4)))),
            )
        else:
            # fine texture: the late steps carry it
            spec = TargetSpec(
                seed=sample_seed,
                blobs=int(rng.integers(1, 4)),
                blob_sigma=float(rng.uniform(25.0, 40.0)),
                blob_amp=float(rng.uniform(0.15, 0.25)),
                noise_amp=float(rng.uniform(0.10, 0.33)),
                noise_scale=0.6,
                noise_octaves=5,
                noise_persistence=float(rng.uniform(0.45, 0.72)),
            )
        specs.append(spec)
    return specs


def blob_corpus(n: int = 40, seed: int = 0) -> list[TargetSpec]:
    """Smooth blob-only targets; every sample is frequency-robust."""
    rng = np.random.default_rng((seed, _CORPUS_STREAM, 1))
    return [
        TargetSpec(
            seed=int(rng.integers(0, 2**31)),
            blobs=int(rng.integers(2, 7)),
            blob_sigma=float(rng.uniform(22.0, 55.0)),
            blob_amp=float(rng.uniform(0.15, 0.32)),
        )
        for _ in range(n)
    ]


def family_a(n: int = 120, seed: int = 0) -> list[TargetSpec]:
    """Training family: round blobs and octave textures at base scale 0.6."""
    rng = np.random.default_rng((seed, _CORPUS_STREAM, 10))
    specs = []
    for _ in range(n):
        specs.append(
            TargetSpec(
                seed=int(rng.integers(0, 2**31)),
                blobs=int(rng.integers(2, 5)),
                blob_sigma=float(rng.uniform(28.0, 45.0)),
                blob_amp=float(rng.uniform(0.18, 0.28)),
                noise_amp=float(rng.uniform(0.04, 0.30)),
                noise_scale=0.6,
                noise_octaves=5,
                noise_persistence=float(np.exp(rng.uniform(np.log(0.5), np.log(2.8)))),
            )
        )
    return specs


def family_b(n: int = 120, seed: int = 0) -> list[TargetSpec]:
    """Held-out family: more and smaller blobs, a shifted texture band, and
    diagonal sinusoidal accents on a third of the samples."""
    rng = np.random.default_rng((seed, _CORPUS_STREAM, 11))
    specs = []
    for _ in range(n):
        with_sine = rng.random() < 0.35
        specs.append(
            TargetSpec(
                seed=int(rng.integers(0, 2**31)),
                blobs=int(rng.integers(3, 7)),
                blob_sigma=float(rng.uniform(18.0, 30.0)),
                blob_amp=float(rng.uniform(0.15, 0.26)),
                sine_cycles=float(rng.uniform(25.0, 50.0)) if with_sine else 0.0,
                sine_amp=float(rng.uniform(0.04, 0.10)) if with_sine else 0.0,
                sine_angle=float(rng.choice([np.pi / 4.0, 3.0 * np.pi / 4.0])),
                noise_amp=float(rng.uniform(0.05, 0.32)),
                noise_scale=0.5,
                noise_octaves=5,
                noise_persistence=float(np.exp(rng.uniform(np.log(0.55), np.log(2.5)))),
            )
        )
    return specs
