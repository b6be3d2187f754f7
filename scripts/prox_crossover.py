#!/usr/bin/env python3
"""Time the loop and the batch logistic prox on the rounds of real runs.

For each grid size the script records the inputs (b, c4, r0) of every
logistic conjugate prox of one `run_adfs_efficient` run (m samples per node,
logistic, tau 5, data seed 2026, as in the figure analogue): the per-run
round-table factors and warm starts that `objective._tilde_coeff_batch`
hands to its kernels.  It then replays them through the loop kernel
`objective._logistic_prox_r` and the batch kernel
`objective._logistic_prox_r_batch`, and prints the cost per round and per
element of each (best of --reps alternating passes), their largest difference, and how
many elements each kernel handed to the guarded scalar `_logistic_prox`.
`objective.BATCH_MIN` should sit where the batch kernel first wins by at
least 10%.  The exit status is 1 if the two kernels differ by more than
1e-12 (1 + |r|) anywhere.

    PYTHONPATH=src python scripts/prox_crossover.py --grids 4x4,5x5 --iters 200 --reps 1
"""

import argparse
import sys
import time

import numpy as np

from adfs_lab import adfs, harness, objective

KERNELS = ("_logistic_prox_r", "_logistic_prox_r_batch")  # loop, batch


def record_rounds(rows, cols, m, d, iters):
    """(b, c4, r0) of every logistic conjugate prox of one run."""
    cfg = harness.load_config({
        "topology": {"kind": "grid2d", "rows": rows, "cols": cols}, "loss": "logistic",
        "m": m, "dataset": {"kind": "synthetic", "d": d, "correlation": 0.3, "seed": 2026},
        "sigma": 1.0, "tau": 5.0, "algorithms": ["adfs_efficient"], "seeds": [1],
        "iters": 100,
    })
    _, _, problem, _, _ = harness.build_instance(cfg)
    rounds = []
    prox = adfs._tilde_coeff_batch

    def recording(kind, c_x, labels, prox_in, prox_step, inv_scale, prox_out, warm,
                  boundary=None):
        b = c_x * prox_in
        b += 1.0  # as _tilde_coeff_batch forms it
        rounds.append((b, prox_step.copy(), warm.copy()))
        return prox(kind, c_x, labels, prox_in, prox_step, inv_scale, prox_out, warm, boundary)

    adfs._tilde_coeff_batch = recording
    try:
        adfs.run_adfs_efficient(problem, iters, 1, log_every=iters)
    finally:
        adfs._tilde_coeff_batch = prox
    return rounds


def replay(kernel, rounds):
    """The kernel's outputs on the recorded rounds, with the number of
    elements it redid."""
    redone = 0
    redo = objective._logistic_prox_r_redo

    def counting(*a):
        nonlocal redone
        redone += 1
        return redo(*a)

    objective._logistic_prox_r_redo = counting
    try:
        return [kernel(*args) for args in rounds], redone
    finally:
        objective._logistic_prox_r_redo = redo


def us_per_round(kernels, rounds, reps):
    """Best time per round of each kernel over `reps` passes; the kernels
    alternate within a pass, so that a change in the host's load reaches
    both."""
    best = [np.inf] * len(kernels)
    for _ in range(reps):
        for k, kernel in enumerate(kernels):
            start = time.perf_counter()
            for args in rounds:
                kernel(*args)
            best[k] = min(best[k], time.perf_counter() - start)
    return [b / len(rounds) * 1e6 for b in best]


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--grids", default="4x4,4x5,3x7,2x11,4x6,5x5,3x9,4x7,5x6,6x6,8x8,10x10",
                    help="comma-separated ROWSxCOLS grid sizes")
    ap.add_argument("--m", type=int, default=200)
    ap.add_argument("--d", type=int, default=40)
    ap.add_argument("--iters", type=int, default=1000)
    ap.add_argument("--reps", type=int, default=5)
    args = ap.parse_args()

    print(f"BATCH_MIN = {objective.BATCH_MIN}, BATCH_STEPS = {objective.BATCH_STEPS}")
    print(f"{'n':>4} {'rounds':>6} {'loop us':>8} {'batch us':>8} {'batch/loop':>10} "
          f"{'loop us/el':>10} {'max diff':>8} {'redone loop':>12} {'redone batch':>12}")
    agree = True
    for grid in args.grids.split(","):
        rows, cols = (int(k) for k in grid.split("x"))
        n = rows * cols
        rounds = record_rounds(rows, cols, args.m, args.d, args.iters)
        (loop_out, loop_redone), (batch_out, batch_redone) = (
            replay(getattr(objective, name), rounds) for name in KERNELS)
        diff = max(float(np.max(np.abs(a - b) / (1.0 + np.abs(a))))
                   for a, b in zip(loop_out, batch_out))
        agree &= diff <= 1e-12
        loop_us, batch_us = us_per_round([getattr(objective, name) for name in KERNELS],
                                         rounds, args.reps)
        elements = len(rounds) * n
        print(f"{n:4d} {len(rounds):6d} {loop_us:8.1f} {batch_us:8.1f} "
              f"{batch_us / loop_us:10.2f} {loop_us / n:10.2f} {diff:8.1e} "
              f"{loop_redone:>5}/{elements:<6} {batch_redone:>5}/{elements:<6}")
    if not agree:
        print("prox_crossover: the loop and batch kernels differ by more than 1e-12 (1 + |r|)",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
