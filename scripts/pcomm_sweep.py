#!/usr/bin/env python3
"""Sweep the communication probability and compare predicted vs measured cost.

For each p_comm the script reports the theoretical rate, the predicted
idealized time per unit of log-accuracy, and the measured time for the solver
to cut its suboptimality by a fixed factor.  The minimum should sit near the
balanced default.
"""

import argparse
import sys

import numpy as np

from adfs_lab.adfs import run_adfs
from adfs_lab.augmented import build_augmented, expected_time
from adfs_lab.baselines import pool_objectives, reference_optimum
from adfs_lab.harness import synth_dataset
from adfs_lab.objective import LocalObjective, LossKind
from adfs_lab.topology import build_topology


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--rows", type=int, default=3)
    ap.add_argument("--cols", type=int, default=3)
    ap.add_argument("--m", type=int, default=30)
    ap.add_argument("--d", type=int, default=5)
    ap.add_argument("--tau", type=float, default=5.0)
    ap.add_argument("--drop", type=float, default=1e-4,
                    help="suboptimality factor to measure the time for")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    graph = build_topology("grid2d", rows=args.rows, cols=args.cols)
    per_node = synth_dataset(graph.n, args.m, args.d, seed=7, correlation=0.3)
    objectives = [LocalObjective(fm, lb, 1.0, LossKind.LOGISTIC) for fm, lb in per_node]
    base = build_augmented(graph, objectives, tau=args.tau)
    flat = pool_objectives(objectives)
    _, f_star = reference_optimum(flat)
    gap0 = None

    print(f"balanced p_comm = {base.sampling.p_comm:.4f}")
    print(f"{'p_comm':>8} {'rho':>10} {'pred T/log':>11} {'measured T':>11}")
    grid = sorted(set(
        [round(p, 3) for p in np.linspace(0.05, 0.8, 8)] + [round(base.sampling.p_comm, 3)]
    ))
    for p in grid:
        prob = build_augmented(graph, objectives, tau=args.tau, p_comm_override=p)
        rho = prob.rho
        pred = expected_time(prob, 1) / rho
        budget = int(np.ceil(4 * np.log(1 / args.drop) / rho))
        budget -= budget % 50
        res = run_adfs(prob, budget, seed=args.seed, log_every=50, f_star=f_star)
        if gap0 is None:
            gap0 = res.record.rows[0].subopt
        measured = res.record.time_to(gap0 * args.drop)
        print(f"{p:8.3f} {rho:10.2e} {pred * np.log(1 / args.drop):11.0f} "
              f"{measured:11.0f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
