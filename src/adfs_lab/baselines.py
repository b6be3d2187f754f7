"""Single-machine baselines: Point-SAGA and a deterministic reference solver.

The reference solver provides the high-accuracy optimum that every
suboptimality column is measured against; Point-SAGA is the comparison
algorithm for the idealized-time experiments (one time unit per prox).
"""

import math

import numpy as np

from .objective import (LocalObjective, LossKind, _logistic_prox, _prox_1d_array, _stacked_grad,
                        _stacked_value, loss_curvature, primal_grad, primal_value)
from .records import run_loop
from .rng import chunked, generator
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
    eta_inner = float(gamma * n_samp / shrink)
    # the prox works on Python floats: numpy scalar arithmetic costs more
    label_f, xnorm2_f = labels.tolist(), problem.xnorm2.tolist()
    logistic = problem.loss is LossKind.LOGISTIC

    rng = generator("point-saga", seed)
    picks = chunked(lambda k: rng.integers(n_samp, size=k).tolist())  # = per-call integers(N)
    x = np.zeros(d)
    # the gradient table and its mean, both scaled by gamma: row j holds
    # gamma g_j, so a step needs no multiplication or division by gamma
    table = np.zeros((n_samp, d))
    gbar = np.zeros(d)
    warm = [0.0] * n_samp

    def step(t):
        nonlocal x, gbar  # "gbar += ..." rebinds gbar (to the same array)
        j = next(picks)
        row = table[j]
        w = x + row
        w -= gbar
        v = w / shrink  # prox_sample's arithmetic on the validated pooled rows
        feat = feats[j]
        zz = float(feat @ v)
        if not math.isfinite(zz):  # a nan or inf anywhere in v reaches zz
            raise ValueError("non-finite prox input")
        prox_step = eta_inner * xnorm2_f[j]
        if logistic:
            p = _logistic_prox(zz, label_f[j], prox_step, warm[j])
        else:
            p = float(_prox_1d_array(problem.loss, zz, label_f[j], prox_step, warm[j]))
        x = v + ((p - zz) / xnorm2_f[j]) * feat
        warm[j] = p  # = X_j . x up to rounding
        w -= x  # the new row, gamma g_j
        gbar += (w - row) / n_samp
        table[j] = w
        return "computation", 1.0

    record, _ = run_loop(
        iters, step, lambda: _stacked_value(problem.loss, feats, labels, problem.sigma_total, x),
        None, log_every, f_star, (), stop_at_subopt)
    return record, x


def reference_optimum(problem: FlatProblem, tol=3e-6, max_iters=2_000_000, ns_problem=None):
    """High-accuracy optimum used as the suboptimality yardstick; every branch
    certifies a value gap of at most tol^2 sigma_total / 2.

    Smooth losses: damped Newton (Hessian X^T diag(loss''(X theta)) X +
    sigma_total I) until ||grad F|| <= tol * sigma_total.  The step length t
    halves from 1 until ||grad F|| falls by the factor 1 - t/4, a test that,
    unlike a decrease test on F, still holds once F is flat to rounding; a t
    below 1e-12 means ||grad F|| is at working precision and raises at once.
    Absolute loss: the pooled dual D(a) = a . y + ||X^T a||^2 / (2 sigma_total)
    over |a| <= 1, by projected FISTA (Beck & Teboulle 2009) with the
    gradient restart of O'Donoghue & Candes (2015), until the duality gap
    P(theta) + D(a) at theta = -X^T a / sigma_total, checked every 20 steps,
    meets that bound; an iterate that has not moved in the 20 steps since
    the last check has stopped at rounding level, and the solver raises at
    once.  The value returned is D(a), the yardstick of the non-smooth
    solver's dual logs.  `ns_problem` is ignored: the benchmark's set-up
    (perfbench/run.py) still passes it.
    """
    if tol <= 0:
        raise ValueError("tol must be > 0")
    feats = problem.feature_matrix
    args = (problem.loss, feats, problem.labels, problem.sigma_total)
    if problem.loss is LossKind.ABSOLUTE:
        labels, sigma = problem.labels, problem.sigma_total
        lip = symmetric_eigensolve(feats.T @ feats).lambda_max / sigma
        target = tol**2 * sigma / 2.0
        a = y = a_checked = np.zeros(problem.m)
        t, gap = 1.0, np.inf
        for it in range(max_iters):
            a_new = np.clip(y - (labels + feats @ (feats.T @ y) / sigma) / lip, -1.0, 1.0)
            if (y - a_new) @ (a_new - a) > 0.0:  # momentum points uphill: restart
                t_new, y = 1.0, a_new
            else:
                t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
                y = a_new + ((t - 1.0) / t_new) * (a_new - a)
            a, t = a_new, t_new
            if it % 20 == 0:
                theta = -(feats.T @ a) / sigma
                dual = float(a @ labels) + 0.5 * sigma * float(theta @ theta)
                gap = _stacked_value(*args, theta) + dual
                if gap <= target:
                    return theta, dual
                if np.array_equal(a, a_checked):  # stopped at rounding level
                    raise RuntimeError(f"reference solver stalled: duality gap = {gap:.3e} > "
                                       f"{target:.3e}")
                a_checked = a
        raise RuntimeError(
            f"reference solver did not converge: duality gap = {gap:.3e} > {target:.3e}")
    target = tol * problem.sigma_total
    ridge = problem.sigma_total * np.eye(feats.shape[1])
    theta = np.zeros(feats.shape[1])
    grad = _stacked_grad(*args, theta)
    for _ in range(max_iters):
        norm = float(np.linalg.norm(grad))
        if norm <= target:
            return theta, _stacked_value(*args, theta)
        curv = loss_curvature(problem.loss, feats @ theta, problem.labels)
        step, t = np.linalg.solve((feats.T * curv) @ feats + ridge, grad), 1.0
        while np.linalg.norm(trial := _stacked_grad(*args, theta - t * step)) > (1 - t / 4) * norm:
            t *= 0.5
            if t < 1e-12:  # ||grad F|| is at working precision: stop, do not run on
                raise RuntimeError(f"reference solver stalled: ||grad|| = {norm:.3e} > "
                                   f"{target:.3e}")
        theta, grad = theta - t * step, trial
    raise RuntimeError(f"reference solver did not converge: ||grad|| = "
                       f"{np.linalg.norm(grad):.3e} > {target:.3e}")
