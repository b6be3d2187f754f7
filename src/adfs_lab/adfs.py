"""Decentralized stochastic dual solvers on the augmented graph.

Three entry points: the reference recursion (`run_adfs`), the rescaled
sparse-update form (`run_adfs_efficient`, same trajectories under a shared
stream), and the sublinear non-smooth variant (`run_ns_adfs`).  The reference
and non-smooth forms share one in-place block step and differ only in their
momentum schedule.  Every state is one vector in the layout of
`augmented.split_state`: n center rows, then one coefficient per virtual
node.  All of them run and log through `records.run_loop`, on an idealized
clock: one time unit per computation round, tau per gossip round.
"""

from dataclasses import dataclass, field

import numpy as np

from . import augmented as aug
from .apcg import _alpha_next
from .objective import _prox_1d_array, _stacked_value, _tilde_coeff_batch
from .records import RunRecord, run_loop
from .rng import BlockStream

__all__ = ["AdfsResult", "run_adfs", "run_adfs_efficient", "run_ns_adfs", "primal_estimate"]

RENORM_FLOOR = 1e-140


@dataclass
class AdfsResult:
    record: RunRecord
    theta: np.ndarray  # final primal estimate (d,)
    # t -> {"x": ..., "v": ..., "y": ...} states; the rescaled form adds its raw "z"
    captures: dict = field(default_factory=dict)


def primal_estimate(problem, y_state):
    """Average of the rescaled centers (Sigma_comm^-1 y)."""
    center = aug.split_state(problem, y_state)[0]
    return np.mean(center / problem.sigma[:, None], axis=0)


def _primal_value(problem, y_state):
    """The smooth solvers' logged value: F at the primal estimate of y."""
    return _stacked_value(problem.loss, problem.features, problem.labels,
                          float(problem.sigma.sum()), primal_estimate(problem, y_state))


class _Rounds:
    """What the computation rounds of one run share: the round table and its
    boundary set (augmented.round_table), the first virtual index of each
    node, and one warm start of the smooth build's scalar prox per virtual
    node."""

    def __init__(self, problem):
        self.table, self.boundary = aug.round_table(problem)
        self.first = problem.vstart[:-1]
        self.warm = np.zeros(problem.n_virtual) if problem.smooth else None

    def sample(self, problem, draw):
        """(idx, consts, rows) of a computation draw: the sampled virtual
        nodes, their round-table columns (consts[col] holds one entry per
        node) and their features."""
        idx = self.first + draw.chosen
        # ndarray.take gathers 2-D rows about 3x faster than fancy indexing
        return idx, self.table.take(idx, axis=0).T, problem.features.take(idx, axis=0)

    def step(self, problem, idx, consts, rows, y_center, y_coef, w_coef, eta):
        """Coefficient change h of the sampled virtual nodes `idx`: the
        conjugate prox of w - eta * (gradient at y), minus w.  A computation
        round adds h to those coefficients and -h * X to their centers."""
        grad = aug.virtual_gradient(problem, consts, rows, y_center, y_coef)
        c_in = w_coef + eta * grad
        if problem.smooth:
            # prox of eta~ ftilde* through the conjugate-side identity,
            # refreshing the warm starts of the sampled nodes
            warm = self.warm
            boundary = None if self.boundary is None else self.boundary[idx]
            c_out, warm[idx] = _tilde_coeff_batch(
                problem.loss, c_in, consts[aug.XNORM2], consts[aug.LABEL],
                consts[aug.SMOOTH], consts[aug.ETA_TILDE], consts[aug.STEP],
                consts[aug.SCALE], warm[idx], boundary,
            )
            return c_out - w_coef
        # prox of eta~ f* via Moreau: x - eta~ prox_(1/eta~) f (x / eta~); the
        # non-smooth (absolute) prox is closed-form and takes no warm start
        xnorm2 = consts[aug.XNORM2]
        eta_tilde = eta * consts[aug.MU2] / consts[aug.PROB]
        p_star = _prox_1d_array(problem.loss, c_in * xnorm2 / eta_tilde, consts[aug.LABEL],
                                xnorm2 / eta_tilde, None)
        return c_in - eta_tilde * p_star / xnorm2 - w_coef


def _block_step(problem, rounds, draw, y, w, eta, beta):
    """One block of the dual recursion, written in place.

    On entry the states y and w hold the momentum combinations of the
    iterates x and v; on return w holds the next v = w + delta and y the next
    x = y + beta * W~ delta.  Returns the idealized duration of the block.
    """
    if draw.kind == "communication":
        k = problem.n * problem.d  # gossip moves only the centers
        delta = -eta * aug.apply_comm_step(problem, y[:k])
        w[:k] += delta
        y[:k] += beta * aug.apply_wtilde(problem, draw, delta)
        return problem.tau
    # delta is -h * X on the centers and +h on the sampled coefficients, and
    # so is its W~ image (wtilde_sampled): only those entries move
    idx, consts, rows = rounds.sample(problem, draw)
    y_center, y_coef = aug.split_state(problem, y)
    w_center, w_coef = aug.split_state(problem, w)
    w_idx = w_coef[idx]
    h = rounds.step(problem, idx, consts, rows, y_center, y_coef[idx], w_idx, eta)
    d_center = rows * -h[:, None]
    wt_center, wt_h = aug.wtilde_sampled(consts[aug.PROB], h, d_center)
    w_center += d_center
    w_coef[idx] = w_idx + h
    y_center += beta * wt_center
    y_coef[idx] += beta * wt_h
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
    rho, eta = problem.rho, problem.eta
    x = aug.zero_state(problem)
    v = np.zeros_like(x)
    y = np.empty_like(x)
    rounds = _Rounds(problem)
    stream = BlockStream("adfs", seed)

    def step(t):
        nonlocal x, y
        # y = (x + rho v) / (1 + rho), then w = (1 - rho) v + rho y into v's
        # buffer, with x's buffer as scratch; the step turns y into the next x
        np.multiply(v, rho, out=y)
        np.add(x, y, out=y)
        np.divide(y, 1.0 + rho, out=y)
        np.multiply(v, 1.0 - rho, out=v)
        np.multiply(y, rho, out=x)
        np.add(v, x, out=v)
        draw = aug.draw_block(problem, stream)
        duration = _block_step(problem, rounds, draw, y, v, eta, rho)
        x, y = y, x
        if not np.isfinite(v).all():
            raise FloatingPointError(f"non-finite state at iteration {t}")
        return draw.kind, duration

    def y_state():
        return (x + rho * v) / (1.0 + rho)

    record, captures = run_loop(
        iters, step, lambda: _primal_value(problem, y_state()),
        lambda: {"x": x.copy(), "v": v.copy(), "y": y_state()},
        log_every, f_star, capture_iters, stop_at_subopt)
    return AdfsResult(record, primal_estimate(problem, y_state()), captures)


def run_adfs_efficient(problem, iters, seed, log_every=100, f_star=None,
                       capture_iters=(), stop_at_subopt=None):
    """Rescaled two-sequence form with sparse per-iteration updates.

    Keeps (c, U, z) with the momentum component c * U, so a computation round
    rewrites only the n centers and the n sampled coefficients; c shrinks
    geometrically and is folded into U when it underflows toward 1e-140.
    """
    if not problem.smooth:
        raise ValueError("run_adfs_efficient needs the smooth build")
    k = problem.n * problem.d
    rho, eta, tau = problem.rho, problem.eta, problem.tau
    phi = (1.0 - rho) / (1.0 + rho)
    big_u = aug.zero_state(problem)
    z = np.zeros_like(big_u)
    u_center, u_coef = aug.split_state(problem, big_u)
    z_center, z_coef = aug.split_state(problem, z)
    c = 1.0
    rounds = _Rounds(problem)
    stream = BlockStream("adfs", seed)

    def step(t):
        nonlocal c, big_u, u_center, z_center  # "a += b" rebinds a (to the same array)
        draw = aug.draw_block(problem, stream)
        if draw.kind == "communication":
            h = -eta * aug.apply_comm_step(problem, c * big_u[:k] + z[:k])
            wt = aug.apply_wtilde(problem, draw, h)
            big_u[:k] -= (h - rho * wt) / (2.0 * c)
            z[:k] += 0.5 * (h + rho * wt)
            z_written = None  # no coefficient written this round
            duration = tau
        else:
            idx, consts, xs = rounds.sample(problem, draw)
            u_idx, z_idx = u_coef[idx], z_coef[idx]
            cu = c * u_idx
            h = rounds.step(problem, idx, consts, xs, c * u_center + z_center, cu + z_idx,
                            z_idx - cu, eta)
            # the pair update of -h * X on the centers and +h on the
            # coefficients, whose rho * W~ image is the same rescaled by
            # rho / p_ij (so only its coefficients are needed)
            rho_wt_h = aug.wtilde_sampled(consts[aug.PROB], h, weight=rho)[1]
            du = (h - rho_wt_h) / (2.0 * c)
            dz = 0.5 * (h + rho_wt_h)
            u_coef[idx] = u_idx - du
            z_coef[idx] = z_written = z_idx + dz
            u_center += du[:, None] * xs
            z_center -= dz[:, None] * xs
            duration = 1.0
        c *= phi
        if c < RENORM_FLOOR:
            big_u *= c
            c = 1.0
        # z changes only on the centers and the coefficients written here
        if not (np.isfinite(z_center).all()
                and (z_written is None or np.isfinite(z_written).all())):
            raise FloatingPointError(f"non-finite state at iteration {t}")
        return draw.kind, duration

    def capture():
        ut = c * big_u
        return {"x": ut / phi + z, "v": -ut / phi + z, "y": ut + z, "z": z.copy()}

    # the centers of y_K = phi^(K+1) u_K + z_K, the return convention of this form
    def y_center():
        return c * big_u[:k] + z[:k]

    record, captures = run_loop(iters, step, lambda: _primal_value(problem, y_center()),
                                capture, log_every, f_star, capture_iters, stop_at_subopt)
    return AdfsResult(record, primal_estimate(problem, y_center()), captures)


def run_ns_adfs(problem, iters, seed, log_every=100, f_star=None, capture_iters=(),
                stop_at_subopt=None):
    """Non-smooth solver: APCG's convex momentum schedule from alpha_0 = min
    p_ij, conjugate prox via the Moreau identity, dual objective logged (the
    controlled quantity)."""
    if problem.smooth:
        raise ValueError("run_ns_adfs needs the non-smooth build; see run_adfs")
    s_sq = problem.s_squared
    alpha = float(problem.sampling.p_marginal.min())
    x = aug.zero_state(problem)
    v = np.zeros_like(x)
    y = np.empty_like(x)
    rounds = _Rounds(problem)
    stream = BlockStream("ns-adfs", seed)

    def step(t):
        nonlocal x, y, alpha
        eta = 1.0 / (alpha * s_sq)
        # y = (1 - alpha) x + alpha v with x's buffer as scratch; the step
        # updates v in place and turns y into the next x
        np.multiply(x, 1.0 - alpha, out=y)
        np.multiply(v, alpha, out=x)
        np.add(y, x, out=y)
        draw = aug.draw_block(problem, stream)
        duration = _block_step(problem, rounds, draw, y, v, eta, alpha)
        x, y = y, x
        if not np.isfinite(v).all():
            raise FloatingPointError(f"non-finite state at iteration {t}")
        alpha = _alpha_next(alpha)
        return draw.kind, duration

    record, captures = run_loop(iters, step, lambda: aug.dual_objective(problem, x),
                                lambda: {"x": x.copy(), "v": v.copy(), "y": None},
                                log_every, f_star, capture_iters, stop_at_subopt)
    return AdfsResult(record, primal_estimate(problem, v), captures)
