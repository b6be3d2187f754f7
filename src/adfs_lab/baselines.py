"""Single-machine baselines: Point-SAGA and a deterministic reference solver.

The reference solver provides the high-accuracy optimum that every
suboptimality column is measured against; Point-SAGA is the comparison
algorithm for the idealized-time experiments (one time unit per prox).
"""

import math

import numpy as np

from .data import DENSE_MAX, RANGE_HI, stack_rows
from .objective import (NEWTON_R, LocalObjective, _logistic_prox_r, _prox_1d_array,
                        _stacked_grad, _stacked_value, loss_curvature, primal_grad,
                        primal_value)
from .records import RunResult, run_loop
from .rng import chunked, generator

__all__ = ["FlatProblem", "pool_objectives", "flat_value", "flat_grad",
           "point_saga", "certified_optimum", "reference_optimum"]

HUBER_STAGES = 17  # mu = max|y| ... 1e-16 max|y|, where r_k is at rounding
NEWTON_STEPS = 50  # per stage; a stage ends sooner on a stationary full step
NEWTON_MAX = 2_000_000  # cap on the smooth losses' Newton steps


class FlatProblem(LocalObjective):
    """All samples pooled on one machine: a single local objective whose
    regularizer is sigma_total = sum_i sigma_i, so it equals the distributed one."""

    SIGMA_MAX = RANGE_HI * DENSE_MAX  # a sum over at most DENSE_MAX nodes

    @property
    def sigma_total(self):
        return self.sigma


def pool_objectives(objectives) -> FlatProblem:
    return FlatProblem(stack_rows([o.feature_matrix for o in objectives]),
                       stack_rows([o.labels for o in objectives]),
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
    l_each = n_samp * problem.smoothness
    big_l = float(l_each.max()) + problem.sigma_total
    mu = problem.sigma_total
    gamma = (np.sqrt((n_samp - 1.0) ** 2 + 4.0 * n_samp * big_l / mu) - (n_samp - 1.0)) / (
        2.0 * big_l * n_samp
    )
    shrink = 1.0 + gamma * problem.sigma_total
    eta_inner = float(gamma * n_samp / shrink)
    # the prox works on Python floats: numpy scalar arithmetic costs more
    label_f, xnorm2_f = labels.tolist(), problem.xnorm2.tolist()
    newton = problem.loss.prox == NEWTON_R
    # the logistic prox runs in r = label p / 2 (`_logistic_prox_r`)
    # from b = f_j z + 1 and c4_j, fixed per run: c4_j = 4 / step_j and
    # f_j = 2 label_j / step_j for the prox step step_j = eta_inner ||X_j||^2
    c4 = 4.0 / (eta_inner * problem.xnorm2)
    f_in, c4 = (0.5 * labels * c4).tolist(), c4.tolist()

    rng = generator("point-saga", seed)
    picks = chunked(lambda k: rng.integers(n_samp, size=k).tolist())  # = per-call integers(N)
    x = np.zeros(d)
    # the gradient table and its mean, both scaled by gamma: row j holds
    # gamma g_j, so a step needs no multiplication or division by gamma
    table = np.zeros((n_samp, d))
    gbar = np.zeros(d)

    def step(t):
        nonlocal x, gbar  # "gbar += ..." rebinds gbar (to the same array)
        j = next(picks)
        row = table[j]
        w = x + row
        w -= gbar
        v = w / shrink  # prox_sample's arithmetic on the validated pooled rows
        feat = feats[j]
        zz = float(feat @ v)
        prox_in = f_in[j] * zz + 1.0 if newton else zz
        if not math.isfinite(prox_in):  # a nan or inf anywhere in v reaches it
            raise ValueError(f"non-finite prox input at iteration {t}")
        if newton:
            p = 2.0 * label_f[j] * _logistic_prox_r((prox_in,), (c4[j],))[0]
        else:
            p = float(_prox_1d_array(problem.loss, zz, label_f[j], eta_inner * xnorm2_f[j]))
        x = v + ((p - zz) / xnorm2_f[j]) * feat
        w -= x  # the new row, gamma g_j
        gbar += (w - row) / n_samp
        table[j] = w
        return "computation"

    def value(theta):
        return _stacked_value(problem.loss, feats, labels, problem.sigma_total, theta)

    record = run_loop(iters, step, lambda: x, value, log_every, f_star, stop_at_subopt)
    return RunResult(record, x)


def reference_optimum(problem: FlatProblem, tol=3e-6, ns_problem=None):
    """(theta, f_star) of `certified_optimum`; `ns_problem` is ignored: the
    benchmark's set-up (perfbench/run.py) still passes it."""
    return certified_optimum(problem, tol)[:2]


def certified_optimum(problem: FlatProblem, tol=3e-6):
    """The suboptimality yardstick (theta, f_star, gap): every branch
    certifies |f_star - F*| <= gap <= tol^2 sigma_total / 2.

    Smooth losses: damped Newton (Hessian X^T diag(loss''(X theta)) X +
    sigma_total I) until ||grad F|| <= tol * sigma_total, and gap = ||grad
    F||^2 / (2 sigma_total).  The step length t halves from 1 until ||grad
    F|| falls by the factor 1 - t/4, a test that, unlike a decrease test on
    F, still holds once F is flat to rounding; a t below 1e-12 (||grad F||
    at working precision) raises at once.
    Absolute loss: `_absolute_optimum`, Huber-continuation Newton on the
    d-dimensional primal with an exact KKT finish, certified by the duality
    gap P(theta) + D(a); f_star is the pooled dual value D(a) = a . y +
    ||X^T a||^2 / (2 sigma_total) over |a| <= 1, the yardstick of the
    non-smooth solver's dual logs.
    """
    if tol <= 0:
        raise ValueError("tol must be > 0")
    if not problem.loss.is_smooth:
        return _absolute_optimum(problem, tol**2 * problem.sigma_total / 2.0)
    feats = problem.feature_matrix
    args = (problem.loss, feats, problem.labels, problem.sigma_total)
    target = tol * problem.sigma_total
    ridge = problem.sigma_total * np.eye(feats.shape[1])
    theta = np.zeros(feats.shape[1])
    grad = _stacked_grad(*args, theta)
    for _ in range(NEWTON_MAX):
        norm = float(np.linalg.norm(grad))
        if norm <= target:
            return theta, _stacked_value(*args, theta), norm**2 / (2.0 * problem.sigma_total)
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


def _huber_value(theta, r, mu, sigma):
    """H_mu(theta) from r = X theta - y: huber_mu(r_k) is r^2 / (2 mu) where
    |r| < mu and |r| - mu / 2 elsewhere."""
    ar = np.abs(r)
    return (float(np.sum(np.where(ar < mu, r * r / (2.0 * mu), ar - 0.5 * mu)))
            + 0.5 * sigma * float(theta @ theta))


def _pattern(r, mu):
    """0 on the smooth set |r| < mu and sign(r) off it: H_mu is one quadratic
    on the points that share a pattern."""
    return np.where(np.abs(r) < mu, 0.0, np.sign(r))


def _huber_stage(feats, labels, sigma, theta, mu):
    """At most NEWTON_STEPS damped Newton steps on H_mu(theta) = sum_k
    huber_mu(x_k . theta - y_k) + (sigma/2)||theta||^2 from theta.

    The Hessian X_E^T X_E / mu + sigma I on the smooth set E = {|r| < mu} is
    inverted in the eigenbasis of X_E^T X_E (`eigh`), where its eigenvalues
    stay >= sigma whatever the rounding.  A full step that keeps the pattern
    of `_pattern` lands on a stationary point, so it ends the stage; any
    other step halves until H_mu falls by 1e-4 of the predicted decrease
    (Armijo), and a step too short to move theta ends the stage where it is.
    """
    r = feats @ theta - labels
    for _ in range(NEWTON_STEPS):
        grad = feats.T @ np.clip(r / mu, -1.0, 1.0) + sigma * theta
        fe = feats[np.abs(r) < mu]
        lam, vecs = np.linalg.eigh(fe.T @ fe)
        step = vecs @ ((vecs.T @ grad) / (np.maximum(lam, 0.0) / mu + sigma))
        trial, t = theta - step, 1.0
        r_trial = feats @ trial - labels
        if np.array_equal(_pattern(r_trial, mu), _pattern(r, mu)):
            return trial
        value = _huber_value(theta, r, mu, sigma)
        while _huber_value(trial, r_trial, mu, sigma) > value - 1e-4 * t * float(grad @ step):
            t *= 0.5
            trial = theta - t * step
            if np.array_equal(trial, theta):
                return theta
            r_trial = feats @ trial - labels
        theta, r = trial, r_trial
    return theta


def _kkt_finish(feats, labels, sigma, theta, mu):
    """The exact optimum for the pattern at theta: (theta, a).

    With r = X theta - y, E = {|r| < mu} and a_B = sign(r_B) off E, solves
    the KKT system [[sigma I, X_E^T], [X_E, 0]] [theta; a_E] = [-X_B^T a_B;
    y_E] through the pseudo-inverse of X_E^T X_E (d x d, from `eigh`), which
    also takes the rank-deficient X_E of repeated pooled rows and N <= d:
    theta minimizes (sigma/2)||theta||^2 + a_B . X_B theta on {X_E theta =
    y_E}, and a_E is the least-norm solution of X_E^T a_E = -sigma theta -
    X_B^T a_B, clipped to |a| <= 1.  theta is computed as a correction of
    the given one, so that its rounding scales with the correction.
    """
    r = feats @ theta - labels
    smooth = np.abs(r) < mu
    fe, a = feats[smooth], np.sign(r)
    c = feats[~smooth].T @ a[~smooth]
    lam, vecs = np.linalg.eigh(fe.T @ fe)
    keep = lam > lam.size * np.finfo(float).eps * lam[-1]
    null, vecs, lam = vecs[:, ~keep], vecs[:, keep], lam[keep]
    theta = (theta - vecs @ ((vecs.T @ (fe.T @ r[smooth])) / lam)
             - null @ (null.T @ (theta + c / sigma)))
    a[smooth] = np.clip(fe @ (vecs @ ((vecs.T @ (-sigma * theta - c)) / lam)), -1.0, 1.0)
    return theta, a


def _absolute_optimum(problem: FlatProblem, target):
    """Certified optimum of P(theta) = sum_k |x_k . theta - y_k| + (sigma/2)||theta||^2.

    Huber continuation: `_huber_stage` with mu falling 10x per stage from
    max|y|, each stage warm-started from the last, then `_kkt_finish` on the
    stage's pattern.  Once the pattern is the optimum's, the finish is exact.
    Certificate: P(theta) + D(a) = sum_k (|r_k| - a_k r_k) + ||sigma theta +
    X^T a||^2 / (2 sigma), r = X theta - y, whose terms are each >= 0.  The
    residuals still cancel (x_k . theta against y_k), so the identity is
    evaluated in extended precision (`np.longdouble`) and the bound on its
    rounding is added.  Returns (theta, D(a), gap) at the first gap <=
    target; raises, naming the smallest gap, after the last stage (mu =
    1e-16 max|y|, below the rounding of the residuals).
    """
    feats, labels, sigma = problem.feature_matrix, problem.labels, problem.sigma_total
    wide_x, wide_y = feats.astype(np.longdouble), labels.astype(np.longdouble)
    # |r_k| - a_k r_k moves by at most 2 |error of r_k|, and r_k is computed
    # within (d + 1) (eps / 2) (|x_k| . |theta| + |y_k|)
    rounding = (feats.shape[1] + 1) * np.finfo(np.longdouble).eps
    theta = np.zeros(feats.shape[1])
    mu = float(np.max(np.abs(labels))) or 1.0  # y = 0: theta = 0 is exact
    best = np.inf
    for _ in range(HUBER_STAGES):
        theta = _huber_stage(feats, labels, sigma, theta, mu)
        theta_k, a = _kkt_finish(feats, labels, sigma, theta, mu)
        r, xa = wide_x @ theta_k - wide_y, wide_x.T @ a
        gap = float(np.sum(np.abs(r) - a * r) + np.sum((sigma * theta_k + xa) ** 2) / (2 * sigma)
                    + rounding * np.sum(np.abs(wide_x) @ np.abs(theta_k) + np.abs(wide_y)))
        if gap <= target:
            return theta_k, float(a @ wide_y + xa @ xa / (2 * sigma)), gap
        best = min(best, gap)
        mu *= 0.1
    raise RuntimeError(f"reference solver stalled: duality gap = {best:.3e} > {target:.3e}")
