#!/usr/bin/env python3
"""Step and branch redundancy measurements on the toy generator.

Prints, per step: the mean branch gap (L1 between conditional and
unconditional images) and the mean L1 between the early-decoded output and
the final image, averaged over seeded traces of one target.  The branch gap
decays geometrically and the decode error plateaus over the late steps,
which is what makes late-step skipping and unconditional-branch replacement
profitable.

Usage: PYTHONPATH=src python scripts/redundancy_study.py [--seeds N]
"""

import argparse
import math

from freqskip.generator import StepTrace, TargetSpec, TraceConfig, branch_gap, decode_final, synth_target
from freqskip.metrics import l1_mean


def run(args):
    target = synth_target(TargetSpec(seed=7, blobs=3, blob_sigma=40.0, blob_amp=0.3), 256)
    steps = TraceConfig().steps
    gaps = [0.0] * steps
    errors = [0.0] * steps
    for seed in range(args.seeds):
        trace = StepTrace(target, TraceConfig(seed=seed))
        for k in range(1, steps + 1):
            gaps[k - 1] += branch_gap(trace, k)
            errors[k - 1] += l1_mean(decode_final(trace, k), trace.final)
    gaps = [g / args.seeds for g in gaps]
    errors = [e / args.seeds for e in errors]
    weights = TraceConfig().cost_weights
    print(f"{'step':>4} {'res':>5} {'cost_share':>10} {'branch_gap':>11} {'decode_l1':>10}")
    for k in range(steps):
        print(
            f"{k + 1:4d} {TraceConfig().schedule[k]:5d} {2 * weights[k] / 2.0:10.4f} "
            f"{gaps[k]:11.6f} {errors[k]:10.6f}"
        )
    late_share = math.fsum(weights[-3:])
    print(f"\nlate-3 cost share: {late_share:.2f}; gap decay ratio per step ~ "
          f"{gaps[-1] / gaps[-2]:.2f} (configured 0.60)")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=20)
    raise SystemExit(run(parser.parse_args()))
