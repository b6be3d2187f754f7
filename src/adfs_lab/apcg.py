"""Generalized block accelerated proximal coordinate gradient.

Works with arbitrary sampling of blocks of coordinates, strong convexity
restricted to the orthogonal complement of a constraint kernel, and separable
proximal terms.  Provides the didactic recursion in both regimes, strongly
convex and convex; the test-suite checks single-node ADFS runs against it.
"""

import math
from dataclasses import dataclass

import numpy as np

from .rng import generator

__all__ = ["CompositeProblem", "ApcgState", "run_apcg"]


@dataclass
class CompositeProblem:
    """Oracle bundle for min q_A(x) + sum_i psi_i(x_i).

    `projector_apply` applies the projector onto Ker(A)^perp; coordinates with
    a proximal term must be fixed points of it.  `ess_bound` is any S with
    S^2 >= lambda_max(proj P_b^+ M P_b^+ proj) over all blocks; `marginals`
    are the per-coordinate inclusion probabilities and `sample_block(rng)`
    returns the coordinate indices of one drawn block.
    """

    dim: int
    smooth_grad: callable
    projector_apply: callable
    sigma_a: float
    ess_bound: float
    marginals: np.ndarray
    sample_block: callable
    prox_coord: callable = None  # (i, x, step) -> argmin (v-x)^2/(2 step) + psi_i(v)
    has_psi: np.ndarray = None  # bool mask; default: no proximal terms
    # optional value oracles, read by the test-suite's Lyapunov oracle
    smooth_value: callable = None
    psi_value: callable = None  # (i, x_i) -> psi_i(x_i)

    def __post_init__(self):
        if self.has_psi is None:
            self.has_psi = np.zeros(self.dim, dtype=bool)
        self.marginals = np.asarray(self.marginals, dtype=float)
        if self.marginals.shape != (self.dim,):
            raise ValueError("marginals must have one entry per coordinate")
        if np.any(self.has_psi) and self.prox_coord is None:
            raise ValueError("prox_coord required when some psi_i != 0")

    @property
    def p_min(self):
        """Smallest inclusion probability over proximal coordinates."""
        if np.any(self.has_psi):
            return float(self.marginals[self.has_psi].min())
        return float(self.marginals.min())


@dataclass
class ApcgState:
    x: np.ndarray
    v: np.ndarray
    t: int
    alpha: float
    beta: float
    eta: float
    a_big: float  # A_t
    b_big: float  # B_t


def _check_schedule(problem, mode, alpha0, beta0):
    idx = np.nonzero(problem.has_psi)[0]
    for i in idx:
        p = problem.marginals[i]
        ok = (1.0 - alpha0 / p >= -1e-12) if mode == "strongly_convex" else (
            1.0 - beta0 - alpha0 / p >= -1e-12
        )
        if not ok:
            raise ValueError(
                f"schedule condition violated at coordinate {i}: "
                f"alpha={alpha0:.3e} exceeds probability {p:.3e}"
            )


def _resolve_rng(rng_seed):
    if isinstance(rng_seed, (int, np.integer)):
        return generator("apcg", int(rng_seed))
    return rng_seed  # caller-supplied stream object, passed to sample_block


def _alpha_next(alpha):
    # math.sqrt keeps alpha a Python float (np.sqrt would return np.float64)
    return (math.sqrt(alpha**4 + 4.0 * alpha**2) - alpha**2) / 2.0


def run_apcg(problem, mode, iters, rng_seed, alpha0=None):
    """Didactic recursion; returns the trajectory of states (t = 0 .. iters).

    strongly_convex mode keeps alpha_t = beta_t = sqrt(sigma_A)/S constant;
    convex mode runs beta_t = 0 with the decreasing alpha_t recursion started
    at the smallest proximal-coordinate probability.
    """
    if mode not in ("strongly_convex", "convex"):
        raise ValueError(f"unknown mode {mode!r}")
    rng = _resolve_rng(rng_seed)
    dim = problem.dim
    x = np.zeros(dim)
    v = np.zeros(dim)
    s_const = problem.ess_bound

    if mode == "strongly_convex":
        if problem.sigma_a <= 0:
            raise ValueError("strongly_convex mode needs sigma_a > 0")
        rho = np.sqrt(problem.sigma_a) / s_const
        alpha = beta = rho
        eta = rho / problem.sigma_a
        a_big, b_big = 1.0, problem.sigma_a
    else:
        alpha = problem.p_min if alpha0 is None else float(alpha0)
        beta = 0.0
        b_big = 1.0
        a_big = ((2.0 / alpha - 1.0) ** 2 - 1.0) * b_big / (4.0 * s_const**2)
        eta = 1.0 / (alpha * s_const**2)
    _check_schedule(problem, mode, alpha, beta)

    out = [ApcgState(x.copy(), v.copy(), 0, alpha, beta, eta, a_big, b_big)]
    for t in range(iters):
        if mode == "strongly_convex":
            y = (x + alpha * v) / (1.0 + alpha)
        else:
            y = (1.0 - alpha) * x + alpha * v
        block = tuple(problem.sample_block(rng))
        grad = problem.smooth_grad(y)
        w = (1.0 - beta) * v + beta * y
        v_next = w.copy()
        for i in block:
            step = eta / problem.marginals[i]
            gi = w[i] - step * grad[i]
            v_next[i] = problem.prox_coord(i, gi, step) if problem.has_psi[i] else gi
        if not np.all(np.isfinite(v_next)):
            raise FloatingPointError(f"non-finite iterate at iteration {t}")
        scaled = np.zeros(dim)
        for i in block:
            scaled[i] = (v_next[i] - w[i]) / problem.marginals[i]
        x = y + alpha * problem.projector_apply(scaled)
        v = v_next
        if mode == "strongly_convex":
            a_big = a_big / (1.0 - alpha) if alpha < 1.0 else np.inf
            b_big = problem.sigma_a * a_big
        else:
            a_big += b_big / (alpha * s_const**2)
            alpha = _alpha_next(alpha)
            eta = 1.0 / (alpha * s_const**2)
        out.append(ApcgState(x.copy(), v.copy(), t + 1, alpha, beta, eta, a_big, b_big))
    return out
