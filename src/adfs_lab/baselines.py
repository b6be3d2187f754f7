"""Single-machine baselines: Point-SAGA and a deterministic reference solver.

The reference solver provides the high-accuracy optimum that every
suboptimality column is measured against; Point-SAGA is the comparison
algorithm for the idealized-time experiments (one time unit per prox).
"""

import numpy as np

from .adfs import run_ns_adfs
from .objective import (LocalObjective, LossKind, _stacked_grad, _stacked_value, primal_grad,
                        primal_value, prox_sample)
from .records import LogRow, RunRecord
from .rng import generator
from .topology import symmetric_eigensolve

__all__ = ["FlatProblem", "pool_objectives", "flat_value", "flat_grad",
           "point_saga", "reference_optimum"]


class FlatProblem(LocalObjective):
    """All samples pooled on one machine: a single local objective whose
    regularizer is sigma_total = sum_i sigma_i, so it equals the distributed one."""

    @property
    def sigma_total(self):
        return self.sigma

    @property
    def n_samples(self):
        return self.m


def pool_objectives(objectives) -> FlatProblem:
    return FlatProblem(np.concatenate([o.feature_matrix for o in objectives]),
                       np.concatenate([o.labels for o in objectives]),
                       float(sum(o.sigma for o in objectives)), objectives[0].loss)


def flat_value(problem: FlatProblem, theta) -> float:
    return primal_value((problem,), theta)


def flat_grad(problem: FlatProblem, theta) -> np.ndarray:
    return primal_grad((problem,), theta)


def point_saga(problem: FlatProblem, iters, seed, f_star=None, log_every=100,
               stop_at_subopt=None):
    """Variance-reduced stochastic proximal point with a gradient table.

    Splits F = (1/N) sum_k G_k with G_k = N f_k + (sigma_total/2)||.||^2, so
    each G_k is sigma_total-strongly convex and (N L_k + sigma_total)-smooth.
    Step size gamma = (sqrt((N-1)^2 + 4 N L/mu) - (N-1)) / (2 L N); the prox of
    gamma G_k reduces to the sample prox after an isotropic shrinkage.
    """
    if not problem.loss.is_smooth:
        raise ValueError("Point-SAGA needs a smooth loss")
    if iters < 1:
        raise ValueError("iters must be >= 1")
    feats, labels = problem.feature_matrix, problem.labels
    n_samp, d = feats.shape
    lg = problem.loss.scalar_smoothness
    l_each = n_samp * lg * problem.xnorm2
    big_l = float(l_each.max()) + problem.sigma_total
    mu = problem.sigma_total
    gamma = (np.sqrt((n_samp - 1.0) ** 2 + 4.0 * n_samp * big_l / mu) - (n_samp - 1.0)) / (
        2.0 * big_l * n_samp
    )
    shrink = 1.0 + gamma * problem.sigma_total
    eta_inner = gamma * n_samp / shrink

    rng = generator("point-saga", seed)
    x = np.zeros(d)
    table = np.zeros((n_samp, d))
    gbar = np.zeros(d)
    warm = np.zeros(n_samp)

    def log_row(rows, t):
        obj = _stacked_value(problem.loss, feats, labels, problem.sigma_total, x)
        sub = None if f_star is None else obj - f_star
        rows.append(LogRow(t, float(t), obj, sub, None, "computation"))
        return sub

    rows = []
    log_row(rows, 0)
    for t in range(iters):
        j = int(rng.integers(n_samp))
        w = x + gamma * (table[j] - gbar)
        x = prox_sample(feats[j], labels[j], problem.loss, w / shrink, eta_inner, warm[j])
        warm[j] = float(feats[j] @ x)
        g_new = (w - x) / gamma
        gbar = gbar + (g_new - table[j]) / n_samp
        table[j] = g_new
        t1 = t + 1
        if t1 % log_every == 0:
            sub = log_row(rows, t1)
            if stop_at_subopt is not None and sub is not None and sub <= stop_at_subopt:
                break
    record = RunRecord("point_saga", seed, rows,
                       {"algorithm": "point_saga", "seed": seed, "gamma": float(gamma),
                        "n_samples": n_samp})
    return record, x


def reference_optimum(problem: FlatProblem, tol=3e-6, max_iters=2_000_000,
                      ns_problem=None, ns_iters=20_000, ns_seeds=(0, 1, 2)):
    """High-accuracy optimum used as the suboptimality yardstick.

    Squared loss: exact normal-equation solve.  Logistic: deterministic
    Nesterov iteration until ||grad F|| <= tol * sigma_total (so the value gap
    is at most tol^2 sigma_total / 2).  Absolute loss: the *dual* optimum,
    estimated from long fixed-seed runs of the non-smooth solver on
    `ns_problem` (best value over several restarts); the returned vector is
    then the best primal estimate, and the value is the dual minimum.
    """
    if tol <= 0:
        raise ValueError("tol must be > 0")
    if problem.loss is LossKind.ABSOLUTE:
        if ns_problem is None:
            raise ValueError("absolute loss: pass the non-smooth augmented problem")
        best_val = np.inf
        best_theta = None
        for sd in ns_seeds:
            res = run_ns_adfs(ns_problem, ns_iters, seed=sd, log_every=max(ns_iters // 200, 1))
            run_best = float(np.min([r.objective for r in res.record.rows]))
            if run_best < best_val:
                best_val = run_best
                best_theta = res.theta
        return best_theta, best_val
    # stacked once per call: the Nesterov loop evaluates two gradients per step
    feats = problem.feature_matrix
    args = (problem.loss, feats, problem.labels, problem.sigma_total)
    if problem.loss is LossKind.SQUARED:
        mat = feats.T @ feats + problem.sigma_total * np.eye(feats.shape[1])
        theta = np.linalg.solve(mat, feats.T @ problem.labels)
        return theta, _stacked_value(*args, theta)
    lip = symmetric_eigensolve(0.25 * (feats.T @ feats)).lambda_max + problem.sigma_total
    kappa = lip / problem.sigma_total
    momentum = (np.sqrt(kappa) - 1.0) / (np.sqrt(kappa) + 1.0)
    x = np.zeros(feats.shape[1])
    y = x.copy()
    target = tol * problem.sigma_total
    for _ in range(max_iters):
        g = _stacked_grad(*args, y)
        if np.linalg.norm(_stacked_grad(*args, x)) <= target:
            return x, _stacked_value(*args, x)
        x_new = y - g / lip
        y = x_new + momentum * (x_new - x)
        x = x_new
    raise RuntimeError(
        f"reference solver did not converge: ||grad|| = "
        f"{np.linalg.norm(_stacked_grad(*args, x)):.3e} > {target:.3e}"
    )
