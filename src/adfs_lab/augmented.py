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
from .objective import LossKind, condition_numbers, loss_conjugate, tilde_prox_factors
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
DOMAIN_TOL = 1e-6  # dual_objective's slack on the conjugate domain


class ScaleError(ValueError):
    """The build rejects an input, which `culprit` names: "sigma" or "features" when a
    derived constant leaves the float range, "p_comm" or "topology" when they do not fit."""

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
    smooth: bool
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


def _assemble(graph, objectives, tau):
    """Checks and fields shared by both builds, as AugmentedProblem keywords.

    Needs one objective per node, one loss kind, one feature dimension, a
    finite tau >= 0 and a finite 1 / sigma_i, which scales the Laplacian.  The
    per-sample arrays are stacked read-only by `data.stack_rows`.
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
    sigma = np.array([o.sigma for o in objectives])
    with np.errstate(over="ignore"):  # an overflow is rejected, not warned about
        if not np.isfinite(1.0 / sigma).all():
            raise ScaleError("sigma", "too small: 1 / sigma_i overflows")
    vstart = np.cumsum([0] + [o.m for o in objectives])
    vstart.flags.writeable = False
    return dict(graph=graph, objectives=objectives, loss=loss, smooth=loss.is_smooth,
                tau=float(tau), sigma=sigma, vstart=vstart, laplacian_comm=laplacian(graph),
                features=stack_rows([o.feature_matrix for o in objectives]),
                labels=stack_rows([o.labels for o in objectives]),
                xnorm2=stack_rows([o.xnorm2 for o in objectives]))


def _laplacian_spectrum(lap):
    """Eigen-summary of the communication Laplacian; the graph is connected, so
    a kernel of more than one dimension means edge weights too far apart."""
    spec = symmetric_eigensolve(lap)
    if spec.kernel_dim != 1:
        raise GraphConstructionError("weights",
                                     "communication Laplacian kernel is not 1-dimensional")
    return spec


@np.errstate(over="ignore")  # an overflowing scaled Laplacian is rejected by the eigensolve
def _graph_spectra(graph, lap, dm_tilde, sigma):
    """(gamma, kappa_comm, alpha) from the n x n congruences of the Laplacian."""
    if graph.n_edges == 0:
        # single node (or edgeless): no gossip, alpha only rescales mu and cancels
        return None, None, 1.0
    spec = _laplacian_spectrum(lap)
    gamma = spec.lambda_min_pos / spec.lambda_max

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
    return gamma, kappa_comm, alpha


@np.errstate(invalid="ignore")  # kappa_comm = s_max_bound = inf give nan, which _sampling rejects
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


def _marginals(objectives, p_comp):
    """Assumption-style virtual-edge probabilities p_ij: per node, and marginal."""
    p_virtual, marg = [], []
    for obj in objectives:
        w = np.sqrt(1.0 + obj.smoothness / obj.sigma)
        s_i = float(w.sum())
        p_virtual.append(w / s_i)
        marg.append(p_comp * w / s_i)
    return tuple(p_virtual), np.concatenate(marg)


def _sampling(graph, p_comm, p_virtual, p_marginal):
    """The sampling scheme, once p_comm is checked against the graph."""
    if graph.n_edges == 0:
        if p_comm != 0.0:
            raise ScaleError("p_comm", "p_comm must be 0 for a graph with no edges")
    elif not (0.0 < p_comm < 1.0):
        raise ScaleError("p_comm", f"p_comm must lie in (0, 1), got {p_comm}")
    return SamplingScheme(p_comm=p_comm, p_virtual=p_virtual, p_marginal=p_marginal)


def expected_time(problem, iters):
    """Idealized time of `iters` iterations: 1 per computation, tau per gossip."""
    if iters < 0:
        raise ValueError("iteration count must be >= 0")
    p_comm = problem.sampling.p_comm
    return (1.0 - p_comm + problem.tau * p_comm) * iters


def build_augmented(graph, objectives, tau, p_comm_override=None):
    """Assemble the dual problem with the default parameter choices; the loss
    picks the build.

    A non-smooth loss gets the build of build_augmented_ns.  For a smooth one,
    virtual-edge weights are mu_ij^2 = alpha * L_ij with alpha twice the
    smallest positive eigenvalue of the tilde-scaled gossip matrix, sampling
    probabilities are proportional to sqrt(1 + L_ij / sigma_i), and p_comm
    defaults to the value balancing the communication / computation rates.
    """
    shared = _assemble(graph, objectives, tau)
    if not shared["smooth"]:
        return _build_ns(shared, p_comm_override)
    objectives, sigma = shared["objectives"], shared["sigma"]
    report = condition_numbers(objectives)
    if not np.isfinite(report.kappa_s):
        raise ScaleError("sigma", "too small for the features: "
                                  "kappa_s = 1 + sum_j L_ij / sigma_i overflows")
    with np.errstate(over="ignore"):  # reported below
        dm_tilde = sigma + 2.0 * report.lam_sum_max
    if not np.isfinite(dm_tilde).all():
        raise ScaleError("features", "too large: sigma_i + 2 lambda_max(sum_j L_ij P_ij) overflows")
    gamma, kappa_comm, alpha = _graph_spectra(graph, shared["laplacian_comm"], dm_tilde, sigma)
    smooth_virtual = shared["loss"].scalar_smoothness * shared["xnorm2"]

    m_max = int(max(o.m for o in objectives))
    s_max = m_max + np.sqrt(m_max * report.kappa_s)
    if p_comm_override is not None:
        p_comm = float(p_comm_override)
    elif gamma is None:
        p_comm = 0.0
    else:
        p_comm = float(balanced_p_comm(gamma, kappa_comm, s_max))
        if not 0.0 < p_comm < 1.0:
            raise ScaleError("sigma", f"too small for the features: balanced p_comm {p_comm}")

    problem = AugmentedProblem(
        **shared,
        mu2_virtual=alpha * smooth_virtual,
        alpha=float(alpha),
        gamma=gamma,
        sampling=_sampling(graph, p_comm, *_marginals(objectives, 1.0 - p_comm)),
        smooth_virtual=smooth_virtual,
        kappa_comm=kappa_comm,
        kappa_s=report.kappa_s,
        kappa_b=report.kappa_b,
        dm_tilde=dm_tilde,
        s_max_bound=float(s_max),
    )
    # the min of the two branch rates, clamped so that 2 rho <= min_ij p_ij
    rho_unclamped = float(min(rate_branches(problem, p_comm)))
    cap = 0.5 * float(problem.sampling.p_marginal.min())
    if rho_unclamped > cap:
        log.warning("rate clamped from %.3e to %.3e to keep the conjugate prox valid",
                    rho_unclamped, cap)
    return replace(problem, rho=min(rho_unclamped, cap), rho_unclamped=rho_unclamped)


def build_augmented_ns(graph, objectives, tau=1.0):
    """Non-smooth variant: zero conjugate curvature, uniform virtual sampling.

    Virtual weights become mu_ij^2 = lambda_min_pos(L) / (1 + m), probabilities
    p_ij = p_comp / m_i, and the schedule is driven by the explicit bound on
    the sampling-smoothness constant S^2.
    """
    shared = _assemble(graph, objectives, tau)
    if shared["smooth"]:
        raise ValueError("smooth loss: use build_augmented for the linearly convergent solver")
    return _build_ns(shared, None)


def _build_ns(shared, p_comm_override):
    graph, objectives, sigma = shared["graph"], shared["objectives"], shared["sigma"]
    if graph.n_edges == 0:
        raise ScaleError("topology", "the non-smooth build needs a graph with at least one edge")
    spec = _laplacian_spectrum(shared["laplacian_comm"])
    lam_min, lam_max = spec.lambda_min_pos, spec.lambda_max
    gamma = lam_min / lam_max

    m_max = int(max(o.m for o in objectives))
    if p_comm_override is not None:
        p_comm = float(p_comm_override)
    else:
        p_comm = 1.0 / (1.0 + np.sqrt(gamma * m_max))
    p_comp = 1.0 - p_comm
    p_virtual = tuple(np.full(o.m, 1.0 / o.m) for o in objectives)
    sampling = _sampling(graph, p_comm, p_virtual,
                         np.concatenate([p_comp * pv for pv in p_virtual]))
    s_squared = (1.0 / sigma.min()) * max(
        lam_max / p_comm**2,
        lam_min * m_max**2 / ((m_max + 1.0) * p_comp**2),
    )
    mu2 = lam_min / (1.0 + m_max)
    return AugmentedProblem(
        **shared,
        mu2_virtual=np.full(shared["features"].shape[0], mu2),
        alpha=float(mu2),
        gamma=gamma,
        sampling=sampling,
        s_squared=float(s_squared),
    )


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


@np.errstate(all="ignore")  # a non-finite entry is rejected, not warned about
def round_table(problem):
    """The constants a computation round reads, one row per virtual node.

    Returns (table, boundary).  `table` is a (V, k) array with the columns
    named above; a round reads the rows of its sampled nodes through one
    gather.  For the smooth build, whose dual step is `problem.eta`, the
    prox factors and `boundary` come from objective.tilde_prox_factors,
    which checks the conjugate-prox identity once for every virtual node
    (ScaleError when it breaks); `boundary` marks the nodes at its limit
    eta~_ij = L_ij, or is None when there are none.  The non-smooth build
    has no boundary.  A non-finite entry raises ScaleError, as does a logistic
    PROX_STEP (4 / step) <= 0, which the logistic prox divides by.
    """
    p = problem.sampling.p_marginal
    mu2, xnorm2 = problem.mu2_virtual, problem.xnorm2
    weight = mu2 / p
    sigma = np.repeat(problem.sigma, problem.m_per_node)
    cols = [weight / (sigma * xnorm2), 1.0 / p]
    if not problem.smooth:
        return _finite(np.column_stack(cols + [weight / xnorm2 * problem.labels]), []), None
    smooth = problem.smooth_virtual
    try:
        *factors, boundary = tilde_prox_factors(problem.loss, problem.labels, xnorm2, smooth,
                                                problem.eta * weight)
    except ValueError as exc:  # eta~_ij past L_ij: an overflowing eta, or rounding of eta mu_ij^2
        raise ScaleError("features", str(exc)) from None
    rho_p = problem.rho / p
    table = np.column_stack(cols + [weight / smooth, problem.labels, *factors,
                                    0.5 * (1.0 - rho_p), 0.5 * (1.0 + rho_p)])
    return _finite(table, [PROX_STEP] if problem.loss is LossKind.LOGISTIC else []), boundary


def _finite(table, positive):  # and > 0 in the columns `positive`
    bad = ~np.isfinite(table)
    bad[:, positive] |= ~(table[:, positive] > 0.0)
    if bad.any():
        row, col = np.argwhere(bad)[0].tolist()
        raise ScaleError("features", f"round-table row {row}, column {col} is {table[row, col]}: "
                                     "products of sigma, p_ij and ||X_ij||^2 under- or overflow")
    return table


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
    if problem.smooth:
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

    Coefficients outside the conjugate domain by more than DOMAIN_TOL
    give +inf.
    """
    center, coef = split_state(problem, state)
    total = 0.5 * float(np.sum(np.sum(center**2, axis=1) / problem.sigma))
    if problem.loss is LossKind.ABSOLUTE:
        if np.any(np.abs(coef) > 1.0 + DOMAIN_TOL):
            return np.inf
        coef = np.clip(coef, -1.0, 1.0)
    elif problem.loss is LossKind.LOGISTIC:
        u = -problem.labels * coef
        if np.any(u < -DOMAIN_TOL) or np.any(u > 1.0 + DOMAIN_TOL):
            return np.inf
        coef = -problem.labels * np.clip(u, 0.0, 1.0)
    vals = loss_conjugate(problem.loss, coef, problem.labels)
    return total + float(np.sum(vals))
