"""Decentralized stochastic dual solvers on the augmented graph.

Three entry points: the reference recursion (`run_adfs`), the rescaled
sparse-update form (`run_adfs_efficient`, same trajectories under a shared
stream), and the sublinear non-smooth variant (`run_ns_adfs`).  The reference
and non-smooth forms share one in-place block step and differ only in their
momentum map, a 2 x 2 matrix applied to the iterate pair (x, v) held as the
two rows of one array.  Every state is one vector in the layout of
`augmented.split_state`: n center rows, then one coefficient per virtual
node.  All of them run and log through `records.run_loop`, on an idealized
clock: one time unit per computation round, tau per gossip round.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import augmented as aug
from .objective import _stacked_value, _tilde_coeff_batch
from .records import RunRecord, run_loop
from .rng import BlockStream

__all__ = ["AdfsResult", "run_adfs", "run_adfs_efficient", "run_ns_adfs", "primal_estimate"]

RENORM_FLOOR = 1e-140


def _alpha_next(alpha):
    """APCG's convex momentum recursion, alpha_{t+1}^2 = (1 - alpha_{t+1}) alpha_t^2."""
    # math.sqrt keeps alpha a Python float (np.sqrt would return np.float64)
    return (math.sqrt(alpha**4 + 4.0 * alpha**2) - alpha**2) / 2.0


@dataclass
class AdfsResult:
    record: RunRecord
    theta: np.ndarray  # final primal estimate (d,)
    # t -> {"x": ..., "v": ..., "y": ...} states; the rescaled form adds its raw "z"
    captures: dict = field(default_factory=dict)


def primal_estimate(problem, center):
    """Average of the rescaled (n, d) centers of a state (Sigma_comm^-1 y)."""
    return np.mean(center / problem.sigma[:, None], axis=0)


def _primal_value(problem, y_center):
    """The smooth solvers' logged value: F at the primal estimate of y."""
    return _stacked_value(problem.loss, problem.features, problem.labels,
                          float(problem.sigma.sum()), primal_estimate(problem, y_center))


class _Buffer(NamedTuple):
    """A state buffer with the (center, coef) views of augmented.split_state,
    made once per run."""

    full: np.ndarray
    center: np.ndarray
    coef: np.ndarray


def _views(problem, state):
    """`state` (a 1-D array, possibly a row of a larger one) with its views."""
    return _Buffer(state, *aug.split_state(problem, state))


class _Pair(NamedTuple):
    """Two states as the rows of one (2, n*d + V) array, so that one matmul
    forms both, with the views of each row."""

    full: np.ndarray
    first: _Buffer
    second: _Buffer


def _pair(problem):
    pair = np.zeros((2, problem.n * problem.d + problem.n_virtual))
    return _Pair(pair, *(_views(problem, row) for row in pair))


def _momentum_map(rho):
    """M with M @ (x; v) = (y; w): y = (x + rho v) / (1 + rho) and
    w = (1 - rho) v + rho y, which is (rho x + v) / (1 + rho)."""
    return np.array([[1.0, rho], [rho, 1.0]]) / (1.0 + rho)


class _Rounds:
    """What the computation rounds of one run share: the round table and its
    boundary set (augmented.round_table), and one warm start of the smooth
    build's scalar prox per virtual node."""

    def __init__(self, problem):
        self.table, self.boundary = aug.round_table(problem)
        self.warm = np.zeros(problem.n_virtual) if problem.smooth else None

    def sample(self, problem, draw):
        """(idx, consts, rows) of a computation draw: the sampled virtual
        nodes, their round-table columns (consts[col] holds one entry per
        node) and their features."""
        idx = draw.idx
        # ndarray.take gathers 2-D rows about 3x faster than fancy indexing
        return idx, self.table.take(idx, axis=0).T, problem.features.take(idx, axis=0)

    def step(self, problem, idx, consts, rows, y_center, y_coef, w_coef, eta):
        """Coefficient change h of the sampled virtual nodes `idx`: the
        conjugate prox of w - eta * (gradient at y), minus w.  A computation
        round adds h to those coefficients and -h * X to their centers."""
        c_in = aug.virtual_gradient(problem, consts, rows, y_center, y_coef)
        c_in *= eta
        c_in += w_coef
        if problem.smooth:
            # prox of eta~ ftilde* through the conjugate-side identity,
            # refreshing the warm starts of the sampled nodes
            warm = self.warm
            boundary = None if self.boundary is None else self.boundary[idx]
            c_out, warm[idx] = _tilde_coeff_batch(
                problem.loss, c_in, consts[aug.Z_IN], consts[aug.LABEL], consts[aug.STEP],
                consts[aug.INV_SCALE], consts[aug.P_OUT], warm[idx], boundary,
            )
        else:
            # the absolute loss's conjugate is s * label on |s| <= 1, so its
            # prox with step eta~ / ||X||^2 = eta * T is a clip
            c_out = c_in - eta * consts[aug.T_LABEL]
            np.maximum(c_out, -1.0, out=c_out)
            np.minimum(c_out, 1.0, out=c_out)
        c_out -= w_coef
        return c_out


def _block_step(problem, rounds, draw, y, w, eta, beta):
    """One block of the dual recursion, written in place on two _Buffers.

    On entry the states y and w hold the momentum combinations of the
    iterates x and v; on return w holds the next v = w + delta and y the next
    x = y + beta * W~ delta.  Returns the idealized duration of the block.
    """
    _, w_center, w_coef = w
    _, y_center, y_coef = y
    if draw.kind == "communication":
        # gossip moves only the centers
        delta = -eta * aug.apply_comm_step(problem, y_center)
        w_center += delta
        y_center += beta * aug.apply_wtilde(problem, delta)
        return problem.tau
    # delta is -h * X on the centers and +h on the sampled coefficients, and
    # its W~ image is delta scaled by 1 / p_ij: only those entries move
    idx, consts, rows = rounds.sample(problem, draw)
    w_idx = w_coef[idx]
    h = rounds.step(problem, idx, consts, rows, y_center, y_coef[idx], w_idx, eta)
    w_coef[idx] = w_idx + h
    w_center -= rows * h[:, None]
    h *= consts[aug.INV_P]  # h now holds beta * W~ delta on the coefficients
    h *= beta
    y_coef[idx] += h
    y_center -= rows * h[:, None]
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
    momentum = _momentum_map(rho)
    cur, nxt = _pair(problem), _pair(problem)  # rows (x, v), then (y, w)
    rounds = _Rounds(problem)
    stream = BlockStream(problem.sampling, "adfs", seed)

    def step(t):
        nonlocal cur, nxt
        # (y; w) = M (x; v) in one matmul; the block step turns y into the
        # next x and w into the next v, so the two pairs swap roles
        np.matmul(momentum, cur.full, out=nxt.full)
        draw = aug.draw_block(problem, stream)
        duration = _block_step(problem, rounds, draw, nxt.first, nxt.second, eta, rho)
        cur, nxt = nxt, cur
        if not np.isfinite(cur.second.full).all():
            raise FloatingPointError(f"non-finite state at iteration {t}")
        return draw.kind, duration

    def y_state():
        x, v = cur.full
        return (x + rho * v) / (1.0 + rho)

    def y_center():
        return (cur.first.center + rho * cur.second.center) / (1.0 + rho)

    record, captures = run_loop(
        iters, step, lambda: _primal_value(problem, y_center()),
        lambda: {"x": cur.full[0].copy(), "v": cur.full[1].copy(), "y": y_state()},
        log_every, f_star, capture_iters, stop_at_subopt)
    return AdfsResult(record, primal_estimate(problem, y_center()), captures)


def run_adfs_efficient(problem, iters, seed, log_every=100, f_star=None,
                       capture_iters=(), stop_at_subopt=None):
    """Rescaled two-sequence form with sparse per-iteration updates.

    Keeps (c, U, z) with the momentum component c * U, so a computation round
    rewrites only the n centers and the n sampled coefficients; c shrinks
    geometrically and is folded into U when it underflows toward 1e-140.
    """
    if not problem.smooth:
        raise ValueError("run_adfs_efficient needs the smooth build")
    rho, eta, tau = problem.rho, problem.eta, problem.tau
    phi = (1.0 - rho) / (1.0 + rho)
    # U and z stay two arrays: stacked as one, the rounds measured slower
    ub, zb = (_views(problem, aug.zero_state(problem)) for _ in range(2))
    big_u, u_center, u_coef = ub
    z, z_center, z_coef = zb
    c = 1.0
    rounds = _Rounds(problem)
    stream = BlockStream(problem.sampling, "adfs", seed)

    def step(t):
        # "a += b" rebinds a (to the same array)
        nonlocal c, big_u, u_center, z_center
        draw = aug.draw_block(problem, stream)
        if draw.kind == "communication":
            h = -eta * aug.apply_comm_step(problem, c * u_center + z_center)
            wt = aug.apply_wtilde(problem, h)
            u_center -= (h - rho * wt) / (2.0 * c)
            z_center += 0.5 * (h + rho * wt)
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
            # rho / p_ij: du = (1 - rho / p_ij) h / (2 c), dz = (1 + rho / p_ij) h / 2
            du = h * consts[aug.PAIR_U]
            du *= 1.0 / c
            dz = h * consts[aug.PAIR_Z]
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
        return c * u_center + z_center

    record, captures = run_loop(iters, step, lambda: _primal_value(problem, y_center()),
                                capture, log_every, f_star, capture_iters, stop_at_subopt)
    return AdfsResult(record, primal_estimate(problem, y_center()), captures)


def run_ns_adfs(problem, iters, seed, log_every=100, f_star=None, capture_iters=(),
                stop_at_subopt=None):
    """Non-smooth solver: APCG's convex momentum schedule from alpha_0 = min
    p_ij, the absolute loss's conjugate prox in closed form (a clip to
    [-1, 1]), dual objective logged (the controlled quantity)."""
    if problem.smooth:
        raise ValueError("run_ns_adfs needs the non-smooth build; see run_adfs")
    s_sq = problem.s_squared
    alpha = float(problem.sampling.p_marginal.min())
    momentum = np.array([[1.0 - alpha, alpha], [0.0, 1.0]])  # rewritten from alpha each step
    cur, nxt = _pair(problem), _pair(problem)  # rows (x, v), then (y, w)
    rounds = _Rounds(problem)
    stream = BlockStream(problem.sampling, "ns-adfs", seed)

    def step(t):
        nonlocal cur, nxt, alpha
        eta = 1.0 / (alpha * s_sq)
        # (y; w) = M (x; v) with y = (1 - alpha) x + alpha v and w = v; the
        # block step turns y into the next x and w into the next v
        momentum[0, 0], momentum[0, 1] = 1.0 - alpha, alpha
        np.matmul(momentum, cur.full, out=nxt.full)
        draw = aug.draw_block(problem, stream)
        duration = _block_step(problem, rounds, draw, nxt.first, nxt.second, eta, alpha)
        cur, nxt = nxt, cur
        if not np.isfinite(cur.second.full).all():
            raise FloatingPointError(f"non-finite state at iteration {t}")
        alpha = _alpha_next(alpha)
        return draw.kind, duration

    record, captures = run_loop(iters, step, lambda: aug.dual_objective(problem, cur.full[0]),
                                lambda: {"x": cur.full[0].copy(), "v": cur.full[1].copy(),
                                         "y": None},
                                log_every, f_star, capture_iters, stop_at_subopt)
    # theta is estimated from x, the iterate whose dual value is logged
    return AdfsResult(record, primal_estimate(problem, cur.first.center), captures)
