"""Decentralized stochastic dual solvers on the augmented graph.

Three entry points: the reference recursion (`run_adfs`), the rescaled
sparse-update form (`run_adfs_efficient`, same trajectories under a shared
stream), and the sublinear non-smooth variant (`run_ns_adfs`).  The reference
and non-smooth forms are one pair driver (`_run_pair`) and differ only in
their momentum schedule: per iteration a 2 x 2 matrix, applied to the
iterate pair (x, v) held as the two rows of one array, a step size and the
block step's beta.  Every state is one vector in the layout of
`augmented.split_state`: n center rows, then one coefficient per virtual
node.  All of them run and log through `records.run_loop`, which charges the
idealized clock: one time unit per computation round, and the problem's tau,
which they pass it, per gossip round.  At each log point a solver forms one
view of its state, a dict of state vectors (x, v and y; the non-smooth form x
and v; the rescaled form adds its raw z).  The logged value, theta and an
optional `observe(t, view)` callback read it.
"""

import itertools
import math

import numpy as np

from . import augmented as aug
from .objective import _stacked_value, _tilde_coeff_batch
from .records import RunResult, run_loop
from .rng import BlockStream

__all__ = ["run_adfs", "run_adfs_efficient", "run_ns_adfs", "primal_estimate"]

RENORM_FLOOR = 1e-140


def _alpha_next(alpha):
    """APCG's convex momentum recursion, alpha_{t+1}^2 = (1 - alpha_{t+1}) alpha_t^2."""
    # math.sqrt keeps alpha a Python float (np.sqrt would return np.float64)
    return (math.sqrt(alpha**4 + 4.0 * alpha**2) - alpha**2) / 2.0


def primal_estimate(problem, center):
    """Average of the rescaled (n, d) centers of a state (Sigma_comm^-1 y)."""
    return np.mean(center / problem.sigma[:, None], axis=0)


def _estimate(problem, state):
    """The primal estimate of a state's centers."""
    return primal_estimate(problem, aug.split_state(problem, state)[0])


def _primal_value(problem, view):
    """The smooth solvers' logged value: F at the primal estimate of y."""
    # sigma_total summed as `baselines.pool_objectives` sums it, so F is flat_value's
    return _stacked_value(problem.loss, problem.features, problem.labels,
                          sum(problem.sigma.tolist()), _estimate(problem, view["y"]))


def _pair(problem):
    """Two states as the rows of one (2, n*d + V) array, so that one matmul
    forms both, with the (center, coef) views of each row."""
    pair = np.zeros((2, problem.n * problem.d + problem.n_virtual))
    return pair, aug.split_state(problem, pair[0]), aug.split_state(problem, pair[1])


def _momentum_map(rho):
    """M with M @ (x; v) = (y; w): y = (x + rho v) / (1 + rho) and
    w = (1 - rho) v + rho y, which is (rho x + v) / (1 + rho)."""
    return np.array([[1.0, rho], [rho, 1.0]]) / (1.0 + rho)


class _Rounds:
    """What the computation rounds of one run share: the round table
    (augmented.round_table) and the loss's prox (conjugate prox or clip)."""

    def __init__(self, problem):
        self.table = aug.round_table(problem)
        self.prox = self._conjugate_prox if problem.loss.is_smooth else self._clip

    def sample(self, problem, draw):
        """(idx, consts, rows) of a computation draw: the sampled virtual
        nodes, their round-table columns (consts[col] holds one entry per
        node) and their features."""
        idx = draw.idx
        # ndarray.take gathers 2-D rows about 3x faster than fancy indexing
        return idx, self.table.take(idx, axis=0).T, problem.features.take(idx, axis=0)

    def step(self, problem, consts, rows, y_center, y_coef, w_coef, eta):
        """Coefficient change h of the sampled virtual nodes: the conjugate
        prox of w - eta * (gradient at y), minus w.  A computation round adds
        h to those coefficients and -h * X to their centers."""
        c_in = aug.virtual_gradient(problem, consts, rows, y_center, y_coef)
        c_in *= eta
        c_in += w_coef
        c_out = self.prox(problem, consts, c_in, eta)
        c_out -= w_coef
        return c_out

    def _conjugate_prox(self, problem, consts, c_in, eta):
        # prox of eta~ ftilde* through the conjugate-side identity
        return _tilde_coeff_batch(
            problem.loss, c_in, consts[aug.LABEL], consts[aug.PROX_IN], consts[aug.PROX_STEP],
            consts[aug.INV_SCALE], consts[aug.PROX_OUT])

    def _clip(self, problem, consts, c_in, eta):
        # the conjugate is s * label on |s| <= 1, so its prox with step
        # eta~ / ||X||^2 = eta * T is a clip
        c_out = c_in - eta * consts[aug.T_LABEL]
        np.maximum(c_out, -1.0, out=c_out)
        np.minimum(c_out, 1.0, out=c_out)
        return c_out


def _block_step(problem, rounds, draw, y, w, eta, beta):
    """One block of the dual recursion, written in place on the (center,
    coef) views y and w of two states.

    On entry the states y and w hold the momentum combinations of the
    iterates x and v; on return w holds the next v = w + delta and y the next
    x = y + beta * W~ delta.
    """
    w_center, w_coef = w
    y_center, y_coef = y
    if draw.kind == "communication":
        # gossip moves only the centers
        delta = -eta * aug.apply_comm_step(problem, y_center)
        w_center += delta
        y_center += beta * aug.apply_wtilde(problem, delta)
        return
    # delta is -h * X on the centers and +h on the sampled coefficients, and
    # its W~ image is delta scaled by 1 / p_ij: only those entries move
    idx, consts, rows = rounds.sample(problem, draw)
    w_idx = w_coef[idx]
    h = rounds.step(problem, consts, rows, y_center, y_coef[idx], w_idx, eta)
    w_coef[idx] = w_idx + h
    w_center -= rows * h[:, None]
    h *= consts[aug.INV_P]  # h now holds beta * W~ delta on the coefficients
    h *= beta
    y_coef[idx] += h
    y_center -= rows * h[:, None]


def _run_pair(problem, iters, seed, token, schedule, view, value, run_args):
    """The pair recursion of run_adfs and run_ns_adfs, which differ only in
    their momentum schedule.

    Iteration t takes (M, eta, beta) from the iterator `schedule`, forms
    (y; w) = M (x; v) in one matmul and runs one block step on (y, w), which
    turns y into the next x and w into the next v; the two pairs then swap
    roles.  The block stream is (problem.sampling, token, seed).  A pair is
    the (x, v) array with the (center, coef) views of each row, as _pair
    makes it; `view(x, v)` is the solver's view of the iterates, and `value`
    and `run_args` (the last four arguments) go to run_loop with it, and
    problem.tau as the gossip cost.
    Returns the record and the final view.
    """
    rounds = _Rounds(problem)
    stream = BlockStream(problem.sampling, token, seed)
    cur, nxt = _pair(problem), _pair(problem)  # rows (x, v), then (y, w)

    def step(t):
        nonlocal cur, nxt
        momentum, eta, beta = next(schedule)
        full, y, w = nxt
        np.matmul(momentum, cur[0], out=full)
        draw = aug.draw_block(problem, stream)
        _block_step(problem, rounds, draw, y, w, eta, beta)
        cur, nxt = nxt, cur
        if not np.isfinite(full[1]).all():
            raise FloatingPointError(f"non-finite state at iteration {t}")
        return draw.kind

    def state():
        return view(*cur[0])

    return run_loop(iters, step, state, value, *run_args, tau=problem.tau), state()


def run_adfs(problem, iters, seed, log_every=100, f_star=None, observe=None,
             stop_at_subopt=None):
    """Reference recursion of the smooth solver.

    The virtual prox runs through the conjugate-side identity with step
    eta * mu_ij^2 / p_ij; the dual step size is eta = rho / (alpha / 2),
    using the certified lower bound on the dual strong convexity.
    """
    if not problem.loss.is_smooth:
        raise ValueError("run_adfs needs the smooth build; see run_ns_adfs")
    rho = problem.rho

    def view(x, v):
        return {"x": x, "v": v, "y": (x + rho * v) / (1.0 + rho)}

    record, final = _run_pair(
        problem, iters, seed, "adfs", itertools.repeat((_momentum_map(rho), problem.eta, rho)),
        view, lambda state: _primal_value(problem, state),
        (log_every, f_star, stop_at_subopt, observe))
    return RunResult(record, _estimate(problem, final["y"]))


def run_adfs_efficient(problem, iters, seed, log_every=100, f_star=None, observe=None,
                       stop_at_subopt=None):
    """Rescaled two-sequence form with sparse per-iteration updates.

    Keeps (c, U, z) with the momentum component c * U, so a computation round
    rewrites only the n centers and the n sampled coefficients; c shrinks
    geometrically and is folded into U when it underflows toward 1e-140.
    """
    if not problem.loss.is_smooth:
        raise ValueError("run_adfs_efficient needs the smooth build")
    rho, eta = problem.rho, problem.eta
    phi = (1.0 - rho) / (1.0 + rho)
    # U and z stay two arrays: stacked as one, the rounds measured slower
    big_u, z = aug.zero_state(problem), aug.zero_state(problem)
    (u_center, u_coef), (z_center, z_coef) = (aug.split_state(problem, s) for s in (big_u, z))
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
        else:
            idx, consts, xs = rounds.sample(problem, draw)
            u_idx, z_idx = u_coef[idx], z_coef[idx]
            cu = c * u_idx
            h = rounds.step(problem, consts, xs, c * u_center + z_center, cu + z_idx,
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
        c *= phi
        if c < RENORM_FLOOR:
            big_u *= c
            c = 1.0
        # z changes only on the centers and the coefficients written here
        if not (np.isfinite(z_center).all()
                and (z_written is None or np.isfinite(z_written).all())):
            raise FloatingPointError(f"non-finite state at iteration {t}")
        return draw.kind

    # y_K = phi^(K+1) u_K + z_K is the return convention of this form
    def view():
        ut = c * big_u
        return {"x": ut / phi + z, "v": -ut / phi + z, "y": ut + z, "z": z}

    record = run_loop(iters, step, view, lambda state: _primal_value(problem, state),
                      log_every, f_star, stop_at_subopt, observe, tau=problem.tau)
    return RunResult(record, _estimate(problem, view()["y"]))


def run_ns_adfs(problem, iters, seed, log_every=100, f_star=None, observe=None,
                stop_at_subopt=None):
    """Non-smooth solver: APCG's convex momentum schedule from alpha_0 = min
    p_ij, the rounds' clip (the non-smooth build's conjugate prox, see
    _Rounds), dual objective logged (the controlled quantity)."""
    if problem.loss.is_smooth:
        raise ValueError("run_ns_adfs needs the non-smooth build; see run_adfs")
    s_sq = problem.s_squared

    def schedule():
        alpha = float(problem.sampling.p_marginal.min())
        momentum = np.array([[0.0, 0.0], [0.0, 1.0]])
        while True:
            # y = (1 - alpha) x + alpha v and w = v
            momentum[0] = 1.0 - alpha, alpha
            yield momentum, 1.0 / (alpha * s_sq), alpha
            alpha = _alpha_next(alpha)

    record, final = _run_pair(
        problem, iters, seed, "ns-adfs", schedule(), lambda x, v: {"x": x, "v": v},
        lambda state: aug.dual_objective(problem, state["x"]),
        (log_every, f_star, stop_at_subopt, observe))
    # theta is estimated from x, the iterate whose dual value is logged
    return RunResult(record, _estimate(problem, final["x"]))
