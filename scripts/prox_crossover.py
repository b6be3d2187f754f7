#!/usr/bin/env python3
"""Time the scalar and the batch logistic prox on the rounds of real runs.

For each grid size the script records the inputs of every batched logistic
prox of one `run_adfs_efficient` run (m samples per node, logistic, tau 5,
data seed 2026, as in the figure analogue), then replays them through the
scalar kernel loop and through `objective._logistic_prox_batch`.  It prints
the cost per round of each (best of --reps passes), their largest
difference, and how many elements the batch kernel handed back to the
scalar kernel.  `objective.BATCH_MIN` should sit where the batch column
first wins.
"""

import argparse
import sys
import time

import numpy as np

from adfs_lab import harness, objective
from adfs_lab.adfs import run_adfs_efficient


def scalar_loop(z, label, step, warm):
    return np.array([objective._logistic_prox(*args) for args in
                     zip(z.tolist(), label.tolist(), step.tolist(), warm.tolist())])


def record_rounds(rows, cols, m, d, iters):
    """(z, label, step, warm) of every logistic batch prox of one run."""
    cfg = harness.load_config({
        "topology": {"kind": "grid2d", "rows": rows, "cols": cols}, "loss": "logistic",
        "m": m, "dataset": {"kind": "synthetic", "d": d, "correlation": 0.3, "seed": 2026},
        "sigma": 1.0, "tau": 5.0, "algorithms": ["adfs_efficient"], "seeds": [1],
        "iters": 100,
    })
    _, _, problem, _, _ = harness.build_instance(cfg)
    rounds = []
    prox = objective._prox_1d_array

    def recording(kind, z, label, step, warm):
        rounds.append((z.copy(), label.copy(), step.copy(), warm.copy()))
        return scalar_loop(z, label, step, warm)

    objective._prox_1d_array = recording
    try:
        run_adfs_efficient(problem, iters, 1, log_every=iters)
    finally:
        objective._prox_1d_array = prox
    return rounds


def us_per_round(kernel, rounds, reps):
    best = np.inf
    for _ in range(reps):
        start = time.perf_counter()
        for args in rounds:
            kernel(*args)
        best = min(best, time.perf_counter() - start)
    return best / len(rounds) * 1e6


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--grids", default="4x4,4x5,3x7,2x11,4x6,6x6,8x8,10x10",
                    help="comma-separated ROWSxCOLS grid sizes")
    ap.add_argument("--m", type=int, default=200)
    ap.add_argument("--d", type=int, default=40)
    ap.add_argument("--iters", type=int, default=1000)
    ap.add_argument("--reps", type=int, default=5)
    args = ap.parse_args()

    print(f"BATCH_MIN = {objective.BATCH_MIN}, BATCH_STEPS = {objective.BATCH_STEPS}")
    print(f"{'n':>4} {'rounds':>6} {'scalar us':>9} {'batch us':>8} {'max diff':>8} redone")
    for grid in args.grids.split(","):
        rows, cols = (int(k) for k in grid.split("x"))
        rounds = record_rounds(rows, cols, args.m, args.d, args.iters)
        redone = 0
        scalar = objective._logistic_prox

        def counting(*a):
            nonlocal redone
            redone += 1
            return scalar(*a)

        diff = 0.0
        for r in rounds:
            objective._logistic_prox = counting
            try:
                got = objective._logistic_prox_batch(*r)
            finally:
                objective._logistic_prox = scalar
            diff = max(diff, float(np.max(np.abs(got - scalar_loop(*r)))))
        elements = sum(r[0].size for r in rounds)
        print(f"{rows * cols:4d} {len(rounds):6d} "
              f"{us_per_round(scalar_loop, rounds, args.reps):9.1f} "
              f"{us_per_round(objective._logistic_prox_batch, rounds, args.reps):8.1f} "
              f"{diff:8.1e} {redone}/{elements}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
