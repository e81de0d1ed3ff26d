#!/usr/bin/env python3
"""freqskip benchmark: the label, serve and evaluate workloads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {label,serve,evaluate} --seed N --seconds S --trace {0,1}
    python3 bench/run.py --all [--seed N] [--seconds S] [--trace 0|1]

The program is imported from ``src/`` of the checkout; without it the
benchmark exits with code 2 and prints no result.  ``--all`` runs every
workload, each in its own process, and prints all their metrics.

A run sets the workload up ``SETUP_REPEATS`` times (``setup_s`` is the median;
the set-up includes one warm-up request), then sends requests in a closed
loop for ``--seconds`` seconds and checks every output (see
``workloads.py``).  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
Times are scaled to a reference machine speed by a probe kernel run between
requests (``calibrate.py``); the raw times are on the ``info:`` line.  Each
metric has the same meaning on every workload:

* ``samples_per_s``: samples completed per second of request time; on label
  and evaluate this is the labeling and evaluation throughput;
* ``p50_ms``/``p90_ms``: latency of one request (label: one sample from
  recipe to label; serve: one ``run_accelerated`` call; evaluate: one
  ``freqskip evaluate`` call over the whole corpus).  p90 is the highest
  percentile with at least ten requests beyond it on every workload in a
  30-second run (label ~190 requests, evaluate ~90, serve ~1300);
* ``peak_rss_mb``: the process's peak resident memory before the
  post-timing checks.

The ``info:`` line before the result carries the paper-reproduction results
of the run: ``mean_ssim`` against the non-accelerated baseline and
``mean_modeled_speedup`` of the chosen strategies (label: the oracle labels).
They are fixed by the seed, so the per-sample reference checks gate them
exactly instead of a bound; modeled speedup is not a measurement.  Serve
adds the measured decision cost and speedup next to the cost model's
assumptions (decision overhead 0.005 of the baseline).

``--trace 1`` splits the time between an untraced and a traced pass over the
same inputs and reports, per sample, the calls and self time of every traced
function (``<module>.<function>.calls``/``.self_ms``, self times scaled by
the traced pass's median probe), the waste counters, and the tracing
overhead (traced over untraced mean latency, minus one).
Evaluate runs with ``--jobs 1`` in the traced run so every call is seen; one
extra ``--jobs 2`` call measures pool utilisation, the children's CPU time
over jobs x wall time.
"""

from __future__ import annotations

import os

# Steady load on a small box: numpy's own thread pools would compete with
# the evaluate workers and with other workloads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import glob
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
WORKLOAD_NAMES = ("label", "serve", "evaluate")
SETUP_REPEATS = 3


def load_benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def environment() -> dict:
    import numpy

    try:
        rev = subprocess.run(
            ["git", "--git-dir", os.path.join(ROOT, ".git"), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        rev = None
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "freqskip", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_rev": rev,
        "src_sha256": digest.hexdigest()[:16],
    }


class Phase:
    """Latencies, calibration probes and check results of one pass of
    closed-loop requests; ``probes[i]`` and ``probes[i + 1]`` bracket request i."""

    def __init__(self, kernel: str) -> None:
        self.kernel = kernel
        self.latencies: list[float] = []
        self.probes: list[float] = []
        self.attempted = 0
        self.failed = 0

    def calibrated(self) -> list[float]:
        return calibrate.calibrated(self.latencies, self.probes, self.kernel)


def measure(wl, seconds: float, tracer=None) -> Phase:
    phase = Phase(wl.probe)
    phase.probes.append(calibrate.probe(wl.probe))
    deadline = time.perf_counter() + seconds
    i = 0
    while i < wl.min_requests or time.perf_counter() < deadline:
        scope = tracer.request() if tracer is not None else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with scope:
                output = wl.request(i)
        except Exception:
            traceback.print_exc()
            output = None
        phase.latencies.append(time.perf_counter() - start)
        phase.probes.append(calibrate.probe(wl.probe))
        phase.attempted += wl.samples_per_request
        phase.failed += wl.check(i, output)
        i += 1
    return phase


def percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def set_up(workload_cls, seed: int, work_dir: str):
    """Set the workload up SETUP_REPEATS times; keep the last one.

    Returns it with the raw and the calibrated duration of every set-up.
    """
    times, scaled = [], []
    for rep in range(SETUP_REPEATS):
        rep_dir = os.path.join(work_dir, f"setup{rep}")
        os.makedirs(rep_dir)
        wl = workload_cls(seed, rep_dir)
        before = calibrate.probe_median(calibrate.SETUP_KERNEL)
        start = time.perf_counter()
        wl.setup()
        times.append(time.perf_counter() - start)
        after = calibrate.probe_median(calibrate.SETUP_KERNEL)
        scaled.extend(calibrate.calibrated(times[-1:], [before, after], calibrate.SETUP_KERNEL))
        if rep + 1 < SETUP_REPEATS:
            shutil.rmtree(rep_dir)
    return wl, times, scaled


def timings(setup_times: list[float], attempted: int, latencies: list[float]) -> dict:
    return {
        "setup_s": statistics.median(setup_times),
        "samples_per_s": attempted / sum(latencies),
        "p50_ms": 1e3 * statistics.median(latencies),
        "p90_ms": 1e3 * percentile(latencies, 90),
    }


def per_layer(setup_tracer, tracer, untraced: Phase, traced: Phase, pool_utilisation: float) -> dict:
    from tracer import TRACED

    layers = tracer.layers()
    setup_layers = setup_tracer.layers()
    n = traced.attempted
    # self times scale by the traced pass's median probe (see calibrate.py)
    scale = calibrate.REFERENCE_S[traced.kernel] / statistics.median(traced.probes)
    out: dict[str, float] = {}
    for name in TRACED:
        if name == "pipeline.train_from_samples":
            agg, per = setup_layers.get(name, {}), SETUP_REPEATS
        else:
            agg, per = layers.get(name, {}), n
        out[f"{name}.calls"] = agg.get("calls", 0) / per
        out[f"{name}.self_ms"] = 1e3 * scale * agg.get("self_s", 0.0) / per
    step_calls = layers.get("generator.step_images", {}).get("calls", 0)
    distinct = tracer.waste["generator.step_images.distinct"]
    out["generator.step_images.distinct_ratio"] = distinct / step_calls if step_calls else 0.0
    for name in (
        "metrics.ssim_map.self_comparisons",
        "strategies.apply_strategy.repeated",
        "pipeline.run_accelerated.baseline_regenerated",
    ):
        out[name] = tracer.waste[name] / n
    out["cli._map_jobs.pool_utilisation"] = pool_utilisation
    mean = statistics.fmean
    out["trace.overhead"] = mean(traced.calibrated()) / mean(untraced.calibrated()) - 1.0
    return out


def run_workload(args) -> int:
    from tracer import Tracer
    from workloads import WORKLOADS, EVAL_JOBS, child_cpu_s

    spec = load_benchmark_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    workload_cls = WORKLOADS[args.workload]
    work_dir = os.path.join(WORK_ROOT, f"{args.workload}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        print("env:", json.dumps(environment(), sort_keys=True), flush=True)
        info: dict = {}
        if not args.trace:
            wl, setup_times, setup_scaled = set_up(workload_cls, args.seed, work_dir)
            cpu0 = child_cpu_s()
            phase = measure(wl, args.seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if args.workload == "evaluate":
                info["pool_utilisation"] = (child_cpu_s() - cpu0) / (EVAL_JOBS * sum(phase.latencies))
            attempted, failed = wl.finish()
            metrics = timings(setup_scaled, phase.attempted, phase.calibrated())
            metrics["peak_rss_mb"] = peak_rss_mb
            info["raw"] = timings(setup_times, phase.attempted, phase.latencies)
            info["probe_ms"] = 1e3 * statistics.median(phase.probes)
            phases = [phase]
        else:
            setup_tracer = Tracer()
            setup_tracer.install()
            try:
                wl, _, _ = set_up(workload_cls, args.seed, work_dir)
            finally:
                setup_tracer.uninstall()
            if args.workload == "evaluate":
                wl.jobs = 1
            untraced = measure(wl, args.seconds / 2.0)
            tracer = Tracer()
            tracer.install()
            try:
                traced = measure(wl, args.seconds / 2.0, tracer)
            finally:
                tracer.uninstall()
            phases = [untraced, traced]
            utilisation = 0.0
            if args.workload == "evaluate":
                wl.jobs = EVAL_JOBS
                cpu0 = child_cpu_s()
                pooled = measure(wl, 0.0)
                utilisation = (child_cpu_s() - cpu0) / (EVAL_JOBS * sum(pooled.latencies))
                phases.append(pooled)
            attempted, failed = wl.finish()
            metrics = per_layer(setup_tracer, tracer, untraced, traced, utilisation)
        info.update(wl.info(1e3 * statistics.fmean(phases[0].latencies)))
        for phase in phases:
            attempted += phase.attempted
            failed += phase.failed
        info["requests"] = len(phases[0].latencies)
        info["mean_ssim"], info["mean_modeled_speedup"] = wl.fidelity()
        info["reference"] = wl.reference is not None
        print("info:", json.dumps(info, sort_keys=True), flush=True)
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        }
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_ROOT)


def run_all(args) -> int:
    """Every workload in its own process, so peak memory does not carry over."""
    results = {}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        results[name] = result
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        print(f"[{name}] correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"[{name}]   {metric:48s} {entry['value']:14.6g} {entry['unit']}")
    print(json.dumps(results), flush=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--workload", choices=WORKLOAD_NAMES)
    group.add_argument("--all", action="store_true", help="run every workload, each in its own process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "freqskip", "__init__.py")):
        print(f"error: no freqskip sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    if args.all:
        return run_all(args)
    sys.path.insert(0, SRC)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
