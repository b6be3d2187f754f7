"""Augmented-graph dual problem: constraint operator, parameters, sampling.

Each physical node is replaced by a star: a center carrying the quadratic
regularizer plus one virtual node per local sample.  Dual coordinates live on
the edges of this augmented graph.  This module builds the problem object with
the derived constants (virtual-edge weights, sampling probabilities, rate),
fixes the layout of a solver state and provides the fast edge-wise operator
applications used by the solvers.
"""

import logging
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .data import stack_rows
from .objective import (PROX_MARGIN, LossKind, condition_numbers, loss_conjugate,
                        tilde_prox_factors)
from .topology import CommunicationGraph, GraphConstructionError, laplacian, symmetric_eigensolve

__all__ = [
    "ScaleError",
    "SamplingScheme",
    "BlockDraw",
    "AugmentedProblem",
    "build_augmented",
    "build_augmented_ns",
    "rate_branches",
    "balanced_p_comm",
    "expected_time",
    "split_state",
    "zero_state",
    "round_table",
    "draw_block",
    "apply_comm_step",
    "virtual_gradient",
    "apply_wtilde",
    "dual_objective",
]

log = logging.getLogger("adfs_lab")


class ScaleError(ValueError):
    """The build rejects an input, which `culprit` names: "sigma" when the eigensolve
    cannot resolve the D~-scaled Laplacian, "p_comm" or "topology" when they do not fit."""

    def __init__(self, culprit, message):
        super().__init__(message)
        self.culprit = culprit


@dataclass(frozen=True)
class SamplingScheme:
    """Synchronous block distribution: one gossip block vs one sample per node.
    Its blocks are drawn by a `rng.BlockStream` built for it."""

    p_comm: float
    p_virtual: tuple  # per node, probabilities over its samples (each sums to 1)
    p_marginal: np.ndarray  # flattened absolute probabilities p_ij

    @property
    def p_comp(self):
        return 1.0 - self.p_comm


class BlockDraw(NamedTuple):
    kind: str  # "communication" | "computation"
    idx: np.ndarray = None  # virtual-node index per node (computation only)


_COMMUNICATION = BlockDraw("communication")  # every gossip round's draw


@dataclass(frozen=True)
class AugmentedProblem:
    """Solver input: graph, losses, and every derived constant of the method.

    Dense node-space matrices have one row per augmented-graph node: rows
    0..n-1 are the centers, row n + vstart[i] + j is virtual node (i, j).  A
    solver state stores the virtual rows as coefficients; see split_state.
    """

    graph: CommunicationGraph
    objectives: tuple
    loss: LossKind
    tau: float
    sigma: np.ndarray  # (n,)
    vstart: np.ndarray  # (n+1,) per-node offsets into the virtual nodes
    features: np.ndarray  # (V, d) stacked virtual features
    labels: np.ndarray  # (V,)
    xnorm2: np.ndarray  # (V,)
    laplacian_comm: np.ndarray  # (n, n) weighted
    mu2_virtual: np.ndarray  # (V,) virtual edge weights squared
    alpha: float
    gamma: float  # None when the graph has no edges
    sampling: SamplingScheme
    # smooth build only, None for the non-smooth one
    smooth_virtual: np.ndarray = None  # (V,) L_ij
    kappa_comm: float = None  # also None when the graph has no edges
    kappa_s: float = None
    kappa_b: np.ndarray = None
    dm_tilde: np.ndarray = None
    rho: float = None
    rho_unclamped: float = None
    s_max_bound: float = None  # m + sqrt(m kappa_s)
    # non-smooth build only
    s_squared: float = None  # ESO bound

    @property
    def n(self):
        return self.graph.n

    @property
    def d(self):
        return self.features.shape[1]

    @property
    def n_virtual(self):
        return self.features.shape[0]

    @property
    def n_rows(self):
        return self.n + self.n_virtual

    @property
    def m_per_node(self):
        return np.diff(self.vstart)

    @property
    def m_max(self):
        return int(self.m_per_node.max())

    @property
    def sigma_a_bound(self):
        """Certified lower bound alpha/2 on the dual strong convexity."""
        return 0.5 * self.alpha

    @property
    def eta(self):
        """Dual step size rho / sigma_A, with sigma_A the certified bound
        alpha/2."""
        return self.rho / self.sigma_a_bound


def _laplacian_spectrum(lap):
    """Eigen-summary of the communication Laplacian; the graph is connected, so
    a kernel of more than one dimension means edge weights too far apart."""
    spec = symmetric_eigensolve(lap)
    if spec.kernel_dim != 1:
        raise GraphConstructionError("weights",
                                     "communication Laplacian kernel is not 1-dimensional")
    return spec


def _graph_spectra(spec, lap, dm_tilde, sigma):
    """(kappa_comm, alpha) from the n x n congruences of the Laplacian, whose
    own spectrum is `spec`."""
    dt_isqrt = 1.0 / np.sqrt(dm_tilde)
    spec_dt = symmetric_eigensolve(dt_isqrt[:, None] * lap * dt_isqrt[None, :])
    if spec_dt.kernel_dim != 1:
        raise ScaleError("sigma", "scaled Laplacian kernel is not 1-dimensional")
    alpha = 2.0 * spec_dt.lambda_min_pos

    s_isqrt = 1.0 / np.sqrt(sigma)
    spec_s = symmetric_eigensolve(s_isqrt[:, None] * lap * s_isqrt[None, :])
    kappa_comm = (spec_s.lambda_max / spec.lambda_max) / (
        spec_dt.lambda_min_pos / spec.lambda_min_pos
    )
    return kappa_comm, alpha


def balanced_p_comm(gamma, kappa_comm, s_max_bound):
    """Communication probability equalizing the two rate branches."""
    return 1.0 / (1.0 + np.sqrt(2.0 * gamma / kappa_comm) * s_max_bound)


def rate_branches(problem, p_comm):
    """(rho_comm, rho_comp) before clamping; rho_comm is inf with no edges."""
    if problem.gamma is None:
        rho_comm = np.inf
    else:
        rho_comm = np.sqrt(problem.gamma / problem.kappa_comm) * p_comm
    rho_comp = (1.0 - p_comm) / (np.sqrt(2.0) * problem.s_max_bound)
    return rho_comm, rho_comp


def _sampling(graph, p_comm, weights):
    """The sampling scheme, p_ij proportional to node i's weights[i][j]; p_comm is checked."""
    if graph.n_edges == 0:
        if p_comm != 0.0:
            raise ScaleError("p_comm", "p_comm must be 0 for a graph with no edges")
    elif not (0.0 < p_comm < 1.0):
        raise ScaleError("p_comm", f"p_comm must lie in (0, 1), got {p_comm}")
    p_virtual, marg = [], []
    for w in weights:
        s_i = float(w.sum())
        p_virtual.append(w / s_i)
        marg.append((1.0 - p_comm) * w / s_i)
    return SamplingScheme(p_comm=p_comm, p_virtual=tuple(p_virtual),
                          p_marginal=np.concatenate(marg))


def expected_time(problem, iters):
    """Idealized time of `iters` iterations: 1 per computation, tau per gossip."""
    if iters < 0:
        raise ValueError("iteration count must be >= 0")
    p_comm = problem.sampling.p_comm
    return (1.0 - p_comm + problem.tau * p_comm) * iters


def build_augmented(graph, objectives, tau, p_comm_override=None):
    """Assemble the dual problem with the default parameter choices; the loss
    picks the regime.

    Needs one objective per node, one loss kind, one feature dimension and a
    finite tau >= 0; a non-smooth loss also needs a graph with an edge.  The
    per-sample arrays are stacked read-only by `data.stack_rows`, and the
    Laplacian is eigensolved once, for gamma, when the graph has edges.

    Smooth loss: virtual-edge weights mu_ij^2 = alpha * L_ij, with alpha twice
    the smallest positive eigenvalue of the tilde-scaled gossip matrix (1 with
    no edges); sampling p_ij proportional to sqrt(1 + L_ij / sigma_i); p_comm
    defaults to the value balancing the two rate branches (0 with no edges);
    the rate rho is the smaller branch, clamped to keep the conjugate prox
    valid.  Non-smooth loss: zero conjugate curvature, mu_ij^2 =
    lambda_min_pos(L) / (1 + m) for every ij, uniform p_ij = p_comp / m_i,
    p_comm defaulting to 1 / (1 + sqrt(gamma m)), and the schedule driven by
    the explicit bound S^2 on the sampling-smoothness constant.
    """
    objectives = tuple(objectives)
    if len(objectives) != graph.n:
        raise ValueError(f"need one local objective per node ({graph.n}), got {len(objectives)}")
    loss = objectives[0].loss
    if any(o.loss is not loss for o in objectives):
        raise ValueError("all nodes must share the loss kind")
    d = objectives[0].feature_matrix.shape[1]
    if any(o.feature_matrix.shape[1] != d for o in objectives):
        raise ValueError("all samples must share the feature dimension")
    if not 0.0 <= tau < np.inf:
        raise ValueError(f"tau must be finite and >= 0, got {tau}")
    if not loss.is_smooth and graph.n_edges == 0:
        raise ScaleError("topology", "the non-smooth build needs a graph with at least one edge")
    sigma = np.array([o.sigma for o in objectives])
    vstart = np.cumsum([0] + [o.m for o in objectives])
    vstart.flags.writeable = False
    lap = laplacian(graph)
    spec = _laplacian_spectrum(lap) if graph.n_edges else None
    gamma = None if spec is None else spec.lambda_min_pos / spec.lambda_max
    m_max = int(max(o.m for o in objectives))
    fields = dict(graph=graph, objectives=objectives, loss=loss, tau=float(tau), sigma=sigma,
                  vstart=vstart, laplacian_comm=lap, gamma=gamma,
                  features=stack_rows([o.feature_matrix for o in objectives]),
                  labels=stack_rows([o.labels for o in objectives]),
                  xnorm2=stack_rows([o.xnorm2 for o in objectives]))

    if loss.is_smooth:
        report = condition_numbers(objectives)
        dm_tilde = sigma + 2.0 * report.lam_sum_max
        kappa_comm, alpha = None, 1.0  # no gossip: alpha only rescales mu and cancels
        if spec is not None:
            kappa_comm, alpha = _graph_spectra(spec, lap, dm_tilde, sigma)
        smooth_virtual = loss.scalar_smoothness * fields["xnorm2"]
        s_max = m_max + np.sqrt(m_max * report.kappa_s)
        weights = [np.sqrt(1.0 + o.smoothness / o.sigma) for o in objectives]
        p_comm = 0.0 if spec is None else balanced_p_comm(gamma, kappa_comm, s_max)
        fields.update(mu2_virtual=alpha * smooth_virtual, alpha=float(alpha),
                      smooth_virtual=smooth_virtual, kappa_comm=kappa_comm,
                      kappa_s=report.kappa_s, kappa_b=report.kappa_b, dm_tilde=dm_tilde,
                      s_max_bound=float(s_max))
    else:
        mu2 = spec.lambda_min_pos / (1.0 + m_max)
        weights = [np.ones(o.m) for o in objectives]
        p_comm = 1.0 / (1.0 + np.sqrt(gamma * m_max))
        fields.update(mu2_virtual=np.full(fields["features"].shape[0], mu2), alpha=float(mu2))
    p_comm = float(p_comm if p_comm_override is None else p_comm_override)
    problem = AugmentedProblem(**fields, sampling=_sampling(graph, p_comm, weights))

    if not loss.is_smooth:
        s_squared = (1.0 / sigma.min()) * max(
            spec.lambda_max / p_comm**2,
            spec.lambda_min_pos * m_max**2 / ((m_max + 1.0) * (1.0 - p_comm)**2),
        )
        return replace(problem, s_squared=float(s_squared))
    # the min of the two branch rates, clamped so that
    # 2 rho <= (1 - PROX_MARGIN) min_ij p_ij, that is eta~_ij <= (1 - PROX_MARGIN) L_ij
    rho_unclamped = float(min(rate_branches(problem, p_comm)))
    cap = 0.5 * (1.0 - PROX_MARGIN) * float(problem.sampling.p_marginal.min())
    if rho_unclamped > cap:
        log.warning("rate clamped from %.3e to %.3e to keep the conjugate prox valid",
                    rho_unclamped, cap)
    return replace(problem, rho=min(rho_unclamped, cap), rho_unclamped=rho_unclamped)


def build_augmented_ns(graph, objectives, tau=1.0):
    """`build_augmented` for a non-smooth loss; a smooth one is rejected."""
    objectives = tuple(objectives)
    if objectives and all(o.loss.is_smooth for o in objectives):
        raise ValueError("smooth loss: use build_augmented for the linearly convergent solver")
    return build_augmented(graph, objectives, tau)


def split_state(problem, state):
    """(center, coef) views of a state: one vector holding the n center rows
    (n x d, row-major), then coef[vstart[i] + j] for virtual node (i, j),
    which stands for coef[vstart[i] + j] * X_ij."""
    k = problem.n * problem.d
    return state[:k].reshape(problem.n, problem.d), state[k:]


def zero_state(problem):
    return np.zeros(problem.n * problem.d + problem.n_virtual)


# Columns of a round table, each a product a round would otherwise form.
# Both builds: the gradient weight of the center term,
# mu_ij^2 / (p_ij sigma_i ||X_ij||^2), and 1 / p_ij, the W~ scaling.
G_CENTER, INV_P = range(2)
# Smooth build, whose conjugate-prox step eta~_ij = eta mu_ij^2 / p_ij is fixed
# for a run: the gradient weight of the coefficient term, mu_ij^2 / (p_ij L_ij);
# the label; the four factors of the round's prox, which
# objective.tilde_prox_factors derives (its input factor, its step, 1 / scale
# and its output factor); and the efficient form's pair-update factors
# (1 - rho / p_ij) / 2 and (1 + rho / p_ij) / 2.
G_COEF, LABEL, PROX_IN, PROX_STEP, INV_SCALE, PROX_OUT, PAIR_U, PAIR_Z = range(2, 10)
# Non-smooth build, whose step changes every round: T_ij label_ij with
# T_ij = mu_ij^2 / (p_ij ||X_ij||^2), so that a round with dual step eta moves
# the coefficients by -eta T_ij label_ij before its clip.
T_LABEL = 2


def round_table(problem):
    """The constants a computation round reads: a (V, k) array, one row per
    virtual node, with the columns named above; a round reads the rows of
    its sampled nodes through one gather.  For the smooth build, whose dual
    step is `problem.eta`, the prox factors come from
    objective.tilde_prox_factors, which checks the conjugate-prox identity
    once for every virtual node.  With inputs in [data.RANGE_LO,
    data.RANGE_HI], every entry is a normal float.
    """
    p = problem.sampling.p_marginal
    mu2, xnorm2 = problem.mu2_virtual, problem.xnorm2
    weight = mu2 / p
    sigma = np.repeat(problem.sigma, problem.m_per_node)
    cols = [weight / (sigma * xnorm2), 1.0 / p]
    if not problem.loss.is_smooth:
        return np.column_stack(cols + [weight / xnorm2 * problem.labels])
    smooth = problem.smooth_virtual
    factors = tilde_prox_factors(problem.loss, problem.labels, xnorm2, smooth,
                                 problem.eta * weight)
    rho_p = problem.rho / p
    return np.column_stack(cols + [weight / smooth, problem.labels, *factors,
                                   0.5 * (1.0 - rho_p), 0.5 * (1.0 + rho_p)])


def draw_block(problem, stream) -> BlockDraw:
    """One synchronous block draw from the two substreams of `stream`, which
    must be built for `problem.sampling`; a graph without edges (p_comm = 0)
    draws no kind uniform."""
    scheme = problem.sampling
    if stream.scheme is not scheme:
        raise ValueError("a block stream serves one sampling scheme")
    if scheme.p_comm > 0.0 and next(stream.kinds) < scheme.p_comm:
        return _COMMUNICATION
    return BlockDraw("computation", next(stream.picks))


def apply_comm_step(problem, center):
    """W_comm Sigma^dagger applied to the (n, d) centers of a state (gossip
    gradient term).

    Communication edges join centers only, so the step moves no coefficient:
    each edge (k, l) moves weight mu_kl^2 ((Sigma^-1 y)_k - (Sigma^-1 y)_l)
    between its endpoints, and the whole block is scaled by 1 / p_comm.
    """
    p_comm = problem.sampling.p_comm
    if p_comm <= 0.0:
        raise ValueError("no communication block exists (p_comm = 0)")
    return (problem.laplacian_comm @ (center / problem.sigma[:, None])) / p_comm


def virtual_gradient(problem, consts, rows, center, coef):
    """Gradient coefficients of the sampled virtual edges (one per node).

    `consts` holds the round-table columns (see round_table) of the sampled
    virtual nodes, `rows` their features, `center` the n center rows of the
    state and `coef` its coefficients at the sampled virtual nodes.  The
    gradient term of W_b Sigma^dagger state is +g_i * X on center row i and
    -g_i on the sampled coefficient.
    """
    grad = np.vecdot(rows, center)
    grad *= consts[G_CENTER]
    if problem.loss.is_smooth:
        grad -= coef * consts[G_COEF]
    return grad


def apply_wtilde(problem, delta):
    """A P_b^dagger A^dagger applied to a gossip update of the (n, d)
    centers: a 1/p_comm rescaling.  A computation block's W~ rescales its
    sampled coefficients and their centers by 1/p_ij, the round table's
    INV_P column, which the solvers apply in place.
    """
    return delta / problem.sampling.p_comm


def dual_objective(problem, state):
    """Dual objective of a state: sum ||v_i||^2/(2 sigma_i) + sum f*_ij(coef_ij).

    Coefficients outside the loss's conjugate domain by more than
    objective.DOMAIN_TOL give +inf; those within it are clipped into it.
    """
    center, coef = split_state(problem, state)
    total = 0.5 * float(np.sum(np.sum(center**2, axis=1) / problem.sigma))
    vals = loss_conjugate(problem.loss, coef, problem.labels)
    return total + float(np.sum(vals))
