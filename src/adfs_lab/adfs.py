"""Decentralized stochastic dual solvers on the augmented graph.

Three entry points: the reference recursion (`run_adfs`), the rescaled
sparse-update form (`run_adfs_efficient`, same trajectories under a shared
stream), and the sublinear non-smooth variant (`run_ns_adfs`).  The reference
and non-smooth forms share one in-place block step and differ only in their
momentum schedule.  All of them report progress on an idealized clock: one
time unit per computation round, tau per gossip round.
"""

from dataclasses import dataclass, field

import numpy as np

from . import augmented as aug
from .objective import _prox_1d_array, _stacked_value, _tilde_coeff_batch
from .records import LogRow, RunRecord
from .rng import BlockStream

__all__ = ["AdfsResult", "run_adfs", "run_adfs_efficient", "run_ns_adfs", "primal_estimate"]

RENORM_FLOOR = 1e-140


@dataclass
class AdfsResult:
    record: RunRecord
    theta: np.ndarray  # final primal estimate (d,)
    # per-node primal rows of the solver's return convention: Sigma^+ v_K for
    # the reference and non-smooth forms, Sigma^-1 y_K for the rescaled form
    final_primal_rows: np.ndarray
    captures: dict = field(default_factory=dict)  # t -> {"x": ..., "v": ..., "y": ...}
    max_comp_rows_touched: int = 0


def primal_estimate(problem, y_state):
    """Average of the rescaled communication rows (Sigma_comm^-1 y)."""
    return np.mean(y_state[: problem.n] / problem.sigma[:, None], axis=0)


def _sigma_dagger_rows(problem, state):
    out = np.empty_like(state)
    out[: problem.n] = state[: problem.n] / problem.sigma[:, None]
    coef = np.einsum("ij,ij->i", problem.features, state[problem.n :]) / problem.xnorm2
    if problem.smooth:
        coef = coef / problem.smooth_virtual
    else:
        coef = np.zeros_like(coef)
    out[problem.n :] = coef[:, None] * problem.features
    return out


def _log_smooth(problem, rows, t, now, y_state, f_star, kind):
    theta = primal_estimate(problem, y_state)
    obj = _stacked_value(problem.loss, problem.features, problem.labels,
                         float(problem.sigma.sum()), theta)
    sub = None if f_star is None else obj - f_star
    rows.append(LogRow(t, now, obj, sub, None, kind))
    return sub


def _conjugate_prox(problem, idx, c_in, eta_tilde, warm):
    """Coefficients of prox_{eta~ f*_ij}(c_in X_ij) at the sampled virtual
    nodes `idx`, refreshing their warm starts in `warm`.

    The smooth build goes through the conjugate-side identity of the primal
    prox, the non-smooth build through the Moreau identity.
    """
    xnorm2, labels = problem.xnorm2[idx], problem.labels[idx]
    if problem.smooth:
        c_out, warm[idx] = _tilde_coeff_batch(
            problem.loss, c_in, xnorm2, labels, problem.smooth_virtual[idx], eta_tilde,
            warm[idx],
        )
        return c_out
    # prox of eta~ f* via Moreau: x - eta~ prox_(1/eta~) f (x / eta~)
    p_star = _prox_1d_array(
        problem.loss, c_in * xnorm2 / eta_tilde, labels, xnorm2 / eta_tilde, warm[idx],
    )
    warm[idx] = p_star
    return c_in - eta_tilde * p_star / xnorm2


def _block_step(problem, draw, y, w, eta, beta, warm):
    """One block of the dual recursion, written in place.

    On entry y and w hold the momentum combinations of the iterates x and v;
    on return w holds the next v = w + delta and y the next
    x = y + beta * W~ delta.  Only the n center rows and, for a computation
    block, the n sampled virtual rows are written.  Returns the idealized
    duration of the block.
    """
    n = problem.n
    if draw.kind == "communication":
        delta = -eta * aug.apply_comm_step(problem, y[:n])
        w[:n] += delta
        y[:n] += beta * aug.apply_wtilde(problem, draw, delta)
        return problem.tau
    idx = problem.vstart[:-1] + draw.chosen
    vrows = n + idx
    xs = problem.features[idx]
    w_virt = w[vrows]
    gvec = aug.virtual_gradient(problem, idx, y[:n], y[vrows])[:, None] * xs
    z_center = w[:n] - eta * gvec
    z_virt = w_virt + eta * gvec
    c_z = np.einsum("ij,ij->i", xs, z_virt) / problem.xnorm2[idx]
    eta_tilde = eta * problem.mu2_virtual[idx] / problem.sampling.p_marginal[idx]
    v_virt = _conjugate_prox(problem, idx, c_z, eta_tilde, warm)[:, None] * xs
    v_center = z_center + (z_virt - v_virt)
    step = beta * (1.0 / problem.sampling.p_marginal[idx])[:, None]
    y[:n] += step * (v_center - w[:n])
    y[vrows] += step * (v_virt - w_virt)
    w[:n] = v_center
    w[vrows] = v_virt
    return 1.0


def run_adfs(problem, iters, seed, log_every=100, f_star=None, capture_iters=(),
             stop_at_subopt=None):
    """Reference recursion of the smooth solver.

    The virtual prox runs through the conjugate-side identity with step
    eta * mu_ij^2 / p_ij; the dual step size is eta = rho / (alpha / 2),
    using the certified lower bound on the dual strong convexity.
    """
    if not problem.smooth:
        raise ValueError("run_adfs needs the smooth build; see run_ns_adfs")
    if iters < 1:
        raise ValueError("iters must be >= 1")
    n = problem.n
    rho, eta = problem.rho, problem.eta
    x = np.zeros((problem.n_rows, problem.d))
    v = np.zeros_like(x)
    y = np.empty_like(x)
    warm = np.zeros(problem.n_virtual)
    stream = BlockStream("adfs", seed)
    capture_iters = set(capture_iters)
    captures = {}

    rows = []
    _log_smooth(problem, rows, 0, 0.0, x, f_star, "")
    now = 0.0
    for t in range(iters):
        # y = (x + rho v) / (1 + rho), then w = (1 - rho) v + rho y into v's
        # buffer, with x's buffer as scratch; the step turns y into the next x
        np.multiply(v, rho, out=y)
        np.add(x, y, out=y)
        np.divide(y, 1.0 + rho, out=y)
        np.multiply(v, 1.0 - rho, out=v)
        np.multiply(y, rho, out=x)
        np.add(v, x, out=v)
        draw = aug.draw_block(problem, stream)
        now += _block_step(problem, draw, y, v, eta, rho, warm)
        x, y = y, x
        if not np.isfinite(v).all():
            raise FloatingPointError(f"non-finite state at iteration {t}")
        t1 = t + 1
        if t1 in capture_iters:
            captures[t1] = {
                "x": x.copy(),
                "v": v.copy(),
                "y": (x + rho * v) / (1.0 + rho),
            }
        if t1 % log_every == 0:
            y_log = (x[:n] + rho * v[:n]) / (1.0 + rho)
            sub = _log_smooth(problem, rows, t1, now, y_log, f_star, draw.kind)
            if stop_at_subopt is not None and sub is not None and sub <= stop_at_subopt:
                break

    record = RunRecord("adfs", seed, rows, _meta(problem, "adfs", seed))
    final = _sigma_dagger_rows(problem, v)
    theta = primal_estimate(problem, (x[:n] + rho * v[:n]) / (1.0 + rho))
    return AdfsResult(record, theta, final, captures)


def run_adfs_efficient(problem, iters, seed, log_every=100, f_star=None,
                       capture_iters=(), stop_at_subopt=None):
    """Rescaled two-sequence form with sparse per-iteration updates.

    Keeps (c, U, z) with the momentum component c * U, so a computation round
    rewrites only the n sampled virtual rows and their n centers; c shrinks
    geometrically and is folded into U when it underflows toward 1e-140.
    """
    if not problem.smooth:
        raise ValueError("run_adfs_efficient needs the smooth build")
    if iters < 1:
        raise ValueError("iters must be >= 1")
    n, d = problem.n, problem.d
    rho, eta, tau = problem.rho, problem.eta, problem.tau
    phi = (1.0 - rho) / (1.0 + rho)
    big_u = np.zeros((problem.n_rows, d))
    z = np.zeros_like(big_u)
    c = 1.0
    warm = np.zeros(problem.n_virtual)
    stream = BlockStream("adfs", seed)
    capture_iters = set(capture_iters)
    captures = {}
    max_touched = 0

    rows = []
    _log_smooth(problem, rows, 0, 0.0, z, f_star, "")
    now = 0.0
    for t in range(iters):
        draw = aug.draw_block(problem, stream)
        if draw.kind == "communication":
            h = -eta * aug.apply_comm_step(problem, c * big_u[:n] + z[:n])
            wt = aug.apply_wtilde(problem, draw, h)
            big_u[:n] -= (h - rho * wt) / (2.0 * c)
            z[:n] += 0.5 * (h + rho * wt)
            written = slice(n)
            now += tau
        else:
            idx = problem.vstart[:-1] + draw.chosen
            vrows = n + idx
            xs = problem.features[idx]
            coef = aug.virtual_gradient(
                problem, idx, c * big_u[:n] + z[:n], c * big_u[vrows] + z[vrows]
            )
            w_v = -c * big_u[vrows] + z[vrows]
            c_w = np.einsum("ij,ij->i", xs, w_v) / problem.xnorm2[idx]
            c_in = c_w + eta * coef  # w - g along the feature direction
            eta_tilde = eta * problem.mu2_virtual[idx] / problem.sampling.p_marginal[idx]
            c_h = _conjugate_prox(problem, idx, c_in, eta_tilde, warm) - c_w
            h_v = c_h[:, None] * xs
            inv_p = (1.0 / problem.sampling.p_marginal[idx])[:, None]
            big_u[vrows] -= (h_v - rho * inv_p * h_v) / (2.0 * c)
            z[vrows] += 0.5 * (h_v + rho * inv_p * h_v)
            big_u[:n] -= (-h_v + rho * inv_p * h_v) / (2.0 * c)
            z[:n] += 0.5 * (-h_v - rho * inv_p * h_v)
            written = np.concatenate((np.arange(n), vrows))
            max_touched = max(max_touched, len(set(written.tolist())))
            now += 1.0
        c *= phi
        if c < RENORM_FLOOR:
            big_u *= c
            c = 1.0
        # z changes only on the rows written this iteration
        if not np.isfinite(z[written]).all():
            raise FloatingPointError(f"non-finite state at iteration {t}")
        t1 = t + 1
        if t1 in capture_iters:
            ut = c * big_u
            captures[t1] = {"x": ut / phi + z, "v": -ut / phi + z, "y": ut + z}
        if t1 % log_every == 0:
            y_log = c * big_u[:n] + z[:n]
            sub = _log_smooth(problem, rows, t1, now, y_log, f_star, draw.kind)
            if stop_at_subopt is not None and sub is not None and sub <= stop_at_subopt:
                break

    record = RunRecord("adfs_efficient", seed, rows, _meta(problem, "adfs_efficient", seed))
    y_final = c * big_u + z  # phi^(K+1) u_K + z_K, the return convention of this form
    final = _sigma_dagger_rows(problem, y_final)
    theta = primal_estimate(problem, y_final)
    return AdfsResult(record, theta, final, captures, max_comp_rows_touched=max_touched)


def run_ns_adfs(problem, iters, seed, log_every=100, f_star=None, capture_iters=(),
                stop_at_subopt=None):
    """Non-smooth solver: decreasing-momentum schedule, conjugate prox via the
    Moreau identity, dual objective logged (the controlled quantity)."""
    if problem.smooth:
        raise ValueError("run_ns_adfs needs the non-smooth build; see run_adfs")
    if iters < 1:
        raise ValueError("iters must be >= 1")
    n = problem.n
    s_sq = problem.s_squared
    alpha = float(problem.sampling.p_marginal.min())
    x = np.zeros((problem.n_rows, problem.d))
    v = np.zeros_like(x)
    y = np.empty_like(x)
    warm = np.zeros(problem.n_virtual)
    stream = BlockStream("ns-adfs", seed)
    capture_iters = set(capture_iters)
    captures = {}

    def log_row(rows, t, now, kind):
        dual = aug.dual_objective(problem, x)
        sub = None if f_star is None else dual - f_star
        rows.append(LogRow(t, now, dual, sub, dual, kind))
        return sub

    rows = []
    log_row(rows, 0, 0.0, "")
    now = 0.0
    alphas = [alpha]
    for t in range(iters):
        eta = 1.0 / (alpha * s_sq)
        # y = (1 - alpha) x + alpha v with x's buffer as scratch; the step
        # updates v in place and turns y into the next x
        np.multiply(x, 1.0 - alpha, out=y)
        np.multiply(v, alpha, out=x)
        np.add(y, x, out=y)
        draw = aug.draw_block(problem, stream)
        now += _block_step(problem, draw, y, v, eta, alpha, warm)
        x, y = y, x
        if not np.isfinite(v).all():
            raise FloatingPointError(f"non-finite state at iteration {t}")
        alpha = (np.sqrt(alpha**4 + 4.0 * alpha**2) - alpha**2) / 2.0
        alphas.append(alpha)
        t1 = t + 1
        if t1 in capture_iters:
            captures[t1] = {"x": x.copy(), "v": v.copy(), "y": None}
        if t1 % log_every == 0:
            sub = log_row(rows, t1, now, draw.kind)
            if stop_at_subopt is not None and sub is not None and sub <= stop_at_subopt:
                break

    meta = _meta(problem, "ns_adfs", seed)
    meta["alphas_head"] = [float(a) for a in alphas[:4]]
    record = RunRecord("ns_adfs", seed, rows, meta)
    final = np.empty_like(v)
    final[:n] = v[:n] / problem.sigma[:, None]
    final[n:] = 0.0  # conjugate curvature is zero on virtual rows
    theta = np.mean(final[:n], axis=0)
    return AdfsResult(record, theta, final, captures)


def _meta(problem, algorithm, seed):
    return {
        "algorithm": algorithm,
        "seed": seed,
        "rho": problem.rho,
        "p_comm": problem.sampling.p_comm,
        "tau": problem.tau,
        "n": problem.n,
        "m": problem.m_max,
        "d": problem.d,
    }
